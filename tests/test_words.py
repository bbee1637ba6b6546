"""Functor words: algebra of generators, the two-sided equivalence check,
and the exact kernel-fiber necessary conditions."""

import json
from fractions import Fraction
from random import Random

import pytest

from eqdescent.action import ProjectiveAction
from eqdescent.complexes import EquivariantComplex, TwistedSummand, bundle_complex
from eqdescent.descent import check_descent
from eqdescent.groups import AbelianGroup, InputError
from eqdescent.polynomials import Poly
from eqdescent.randgen import (
    random_action,
    random_automorphism,
    random_group,
    random_valid_complex,
    random_word,
)
from eqdescent.words import (
    EquivariantAutomorphism,
    FunctorWord,
    GeneratorRejectedError,
    Push,
    Shift,
    Twist,
    default_generator,
    necessary_check,
    omega_check,
)


@pytest.fixture
def z2_p2():
    G = AbelianGroup((2,))
    return ProjectiveAction(G, 2, (G.character((0,)), G.character((0,)), G.character((1,))))


def O(action, d, coords=None):
    G = action.group
    twist = G.trivial_character() if coords is None else G.character(coords)
    return TwistedSummand(d, twist)


@pytest.fixture
def two_term(z2_p2):
    return EquivariantComplex(
        z2_p2,
        {0: (O(z2_p2, 0, (1,)),), 1: (O(z2_p2, 1),)},
        {0: {(0, 0): Poly.variable(3, 2)}},
    )


# ---------------------------------------------------------------------------
# generator application
# ---------------------------------------------------------------------------


def test_shift_moves_degrees_without_touching_entries(two_term):
    shifted = FunctorWord((Shift(2),)).apply(two_term)
    assert shifted.degrees() == (-2, -1)
    assert shifted.summands(-2) == two_term.summands(0)
    assert shifted.entry(-2, 0, 0) == two_term.entry(0, 0, 0)


def test_twist_adds_to_every_summand(two_term, z2_p2):
    twisted = FunctorWord((Twist(O(z2_p2, 3, (1,))),)).apply(two_term)
    assert twisted.summands(0) == (O(z2_p2, 3),)
    assert twisted.summands(1) == (O(z2_p2, 4, (1,)),)
    assert twisted.entry(0, 0, 0) == two_term.entry(0, 0, 0)


def test_push_substitutes_coordinates(two_term, z2_p2):
    auto = EquivariantAutomorphism(
        z2_p2, z2_p2, (1, 0, 2), (Fraction(1), Fraction(3), Fraction(2))
    )
    pushed = FunctorWord((Push(auto),)).apply(two_term)
    # x2 -> (1/2) x2 under p -> p o f^{-1} with f scaling x2 by 2.
    assert pushed.entry(0, 0, 0) == Poly.variable(3, 2) * Fraction(1, 2)
    assert pushed.terms == two_term.terms


def test_push_requires_matching_action(two_term, z2_p2):
    other = ProjectiveAction(
        z2_p2.group,
        2,
        (z2_p2.group.character((1,)),) * 3,
    )
    auto = EquivariantAutomorphism(other, other, (0, 1, 2), (1, 1, 1))
    with pytest.raises(InputError):
        FunctorWord((Push(auto),)).apply(two_term)


def test_twist_from_foreign_group_rejected(two_term):
    H = AbelianGroup((3,))
    word = FunctorWord((Twist(TwistedSummand(1, H.trivial_character())),))
    with pytest.raises(InputError):
        word.apply(two_term)


# ---------------------------------------------------------------------------
# automorphism validation and inversion
# ---------------------------------------------------------------------------


def test_automorphism_must_be_a_permutation(z2_p2):
    with pytest.raises(InputError):
        EquivariantAutomorphism(z2_p2, z2_p2, (0, 0, 2), (1, 1, 1))


def test_automorphism_scalars_must_be_nonzero(z2_p2):
    with pytest.raises(InputError):
        EquivariantAutomorphism(z2_p2, z2_p2, (0, 1, 2), (1, 0, 1))


def test_automorphism_must_intertwine_characters(z2_p2):
    # Coordinate 2 carries the sign character; swapping it with 0 breaks it.
    with pytest.raises(InputError):
        EquivariantAutomorphism(z2_p2, z2_p2, (2, 1, 0), (1, 1, 1))


def test_automorphism_inverse_composes_to_identity(z2_p2):
    rng = Random(4)
    for _ in range(20):
        auto = random_automorphism(rng, z2_p2)
        inv = auto.inverse()
        n = z2_p2.dim + 1
        for i in range(n):
            assert inv.perm[auto.perm[i]] == i
            # f^{-1}(f(e_i)) = e_i including the scalar
            assert inv.scalars[i] * auto.scalars[auto.perm[i]] == 1


# ---------------------------------------------------------------------------
# word algebra
# ---------------------------------------------------------------------------


def test_word_round_trip_restores_complex():
    rng = Random(98)
    for _ in range(30):
        group = random_group(rng)
        action = random_action(rng, group)
        c = random_valid_complex(rng, action)
        word = random_word(rng, action)
        back = word.inverse().apply(word.apply(c))
        assert back.canonical_form() == c.canonical_form()


def test_round_trip_reports_are_byte_identical():
    rng = Random(99)
    for _ in range(10):
        group = random_group(rng)
        action = random_action(rng, group)
        c = random_valid_complex(rng, action)
        word = random_word(rng, action)
        back = word.inverse().apply(word.apply(c))
        left = json.dumps(check_descent(c, samples_per_stratum=2).to_dict(), sort_keys=True)
        right = json.dumps(check_descent(back, samples_per_stratum=2).to_dict(), sort_keys=True)
        assert left == right


def test_concatenation_is_functorial():
    rng = Random(55)
    for _ in range(20):
        group = random_group(rng)
        action = random_action(rng, group)
        c = random_valid_complex(rng, action)
        w1 = random_word(rng, action, max_len=3)
        w2 = random_word(rng, action, max_len=3)
        assert FunctorWord(w1.generators + w2.generators).apply(c) == w2.apply(w1.apply(c))


def test_double_inverse_is_identity_on_shift_twist_words(z2_p2):
    word = FunctorWord(
        (Shift(2), Twist(O(z2_p2, 1, (1,))), Shift(-1), Twist(O(z2_p2, -2)))
    )
    assert word.inverse().inverse() == word


def test_net_shift_and_net_twist(z2_p2):
    word = FunctorWord(
        (Twist(O(z2_p2, 1, (1,))), Shift(2), Twist(O(z2_p2, 2, (1,))), Shift(-3))
    )
    assert word.net_shift() == -1
    net = word.net_twist(z2_p2)
    assert net.degree == 3
    assert net.twist.is_trivial  # (1,) + (1,) = (0,) in Z/2
    assert word.is_twist_shift_only


def test_word_rejects_unknown_generators():
    with pytest.raises(InputError):
        FunctorWord(("twist",))


def test_push_words_must_chain(z2_p2):
    other = ProjectiveAction(z2_p2.group, 2, (z2_p2.group.character((1,)),) * 3)
    a1 = EquivariantAutomorphism(z2_p2, z2_p2, (0, 1, 2), (1, 1, 2))
    a2 = EquivariantAutomorphism(other, other, (2, 1, 0), (1, 1, 1))
    with pytest.raises(InputError):
        FunctorWord((Push(a1), Push(a2)))
    assert FunctorWord((Push(a1), Push(a1))).target_action(z2_p2) == z2_p2


def test_describe_is_json_serializable(z2_p2):
    auto = EquivariantAutomorphism(z2_p2, z2_p2, (1, 0, 2), (1, Fraction(1, 2), 3))
    word = FunctorWord((Shift(1), Twist(O(z2_p2, 2, (1,))), Push(auto)))
    payload = word.describe()
    json.dumps(payload)
    assert [g["kind"] for g in payload] == ["shift", "twist", "push"]


# ---------------------------------------------------------------------------
# the default generator
# ---------------------------------------------------------------------------


def test_default_generator_contents(z2_p2):
    gen = default_generator(z2_p2)
    assert gen.degrees() == (0,)
    assert gen.summands(0) == (O(z2_p2, 0), O(z2_p2, 2), O(z2_p2, 4))
    assert check_descent(gen).passed


def test_default_generator_always_descends():
    rng = Random(123)
    for _ in range(15):
        group = random_group(rng)
        action = random_action(rng, group)
        assert check_descent(default_generator(action), samples_per_stratum=2).passed


# ---------------------------------------------------------------------------
# the two-sided equivalence check
# ---------------------------------------------------------------------------


def test_omega_odd_twist_fails_with_witness(z2_p2):
    gen = bundle_complex(z2_p2, O(z2_p2, 0))
    word = FunctorWord((Twist(O(z2_p2, 1)),))
    report = omega_check(word, z2_p2, gen_a=gen, gen_b=gen)
    assert not report.certified
    assert report.failing_conditions == ("i", "ii")
    assert not report.generator_a_default and not report.generator_b_default
    wit = report.condition_i.witnesses[0]
    assert wit.point == "(0:0:1)"
    assert wit.char_values == (0, 1)
    assert report.image_a == "[0: O(1)]"
    payload = report.to_dict()
    assert payload["verdict"] == "disproved"
    json.dumps(payload)


def test_omega_even_twist_certifies(z2_p2):
    word = FunctorWord((Twist(O(z2_p2, 2)),))
    report = omega_check(word, z2_p2)
    assert report.certified
    assert report.failing_conditions == ()
    assert report.generator_a_default and report.generator_b_default
    assert any("default generator" in c for c in report.caveats())


@pytest.mark.parametrize("k", [-3, -1, 1, 2])
def test_omega_pure_shift_certifies(z2_p2, k):
    report = omega_check(FunctorWord((Shift(k),)), z2_p2)
    assert report.certified


def test_omega_equivariant_push_certifies(z2_p2):
    auto = EquivariantAutomorphism(z2_p2, z2_p2, (1, 0, 2), (2, 1, Fraction(1, 3)))
    report = omega_check(FunctorWord((Push(auto),)), z2_p2)
    assert report.certified


def test_omega_rejects_bad_generators(z2_p2):
    word = FunctorWord((Twist(O(z2_p2, 2)),))
    bad = bundle_complex(z2_p2, O(z2_p2, 1))
    with pytest.raises(GeneratorRejectedError) as exc:
        omega_check(word, z2_p2, gen_a=bad)
    assert exc.value.which == "a"
    assert not exc.value.report.passed
    with pytest.raises(GeneratorRejectedError) as exc:
        omega_check(word, z2_p2, gen_b=bad)
    assert exc.value.which == "b"


def test_omega_rejects_mismatched_generator_actions(z2_p2):
    other = ProjectiveAction(z2_p2.group, 2, (z2_p2.group.character((1,)),) * 3)
    word = FunctorWord((Shift(1),))
    foreign = bundle_complex(other, O(other, 0))
    with pytest.raises(InputError):
        omega_check(word, z2_p2, gen_a=foreign)


def test_omega_and_necessary_agree_on_twist_words(z2_p2):
    # For pure twist words on this action the kernel-fiber conditions and the
    # generator-image conditions see the same parity obstruction.
    for d in range(-3, 4):
        word = FunctorWord((Twist(O(z2_p2, d)),))
        necessary = necessary_check(word, z2_p2)
        full = omega_check(word, z2_p2)
        assert necessary.passed == full.certified == (d % 2 == 0)


# ---------------------------------------------------------------------------
# the kernel-fiber necessary conditions
# ---------------------------------------------------------------------------


def test_necessary_accumulates_net_twist_and_shift(z2_p2):
    word = FunctorWord((Twist(O(z2_p2, 1)), Shift(2), Twist(O(z2_p2, 1, (1,)))))
    report = necessary_check(word, z2_p2)
    assert report.supported
    assert report.net_twist_degree == 2
    assert report.net_twist_character == (1,)
    assert report.net_shift == 2
    # Net twist O(2)@(1,) is nontrivial on the strata fixing x0 or x1.
    assert not report.passed
    payload = report.to_dict()
    assert payload["verdict"] == "fail"
    assert payload["kernel"]["net_shift"] == 2
    json.dumps(payload)


def test_necessary_conditions_run_both_directions(z2_p2):
    word = FunctorWord((Twist(O(z2_p2, 2)), Shift(-1)))
    report = necessary_check(word, z2_p2)
    assert report.passed
    # Kernel sits in degree -net_shift; inverse kernel in degree +net_shift.
    assert {r[0] for t in report.condition_i.tables for r in t.rows} == {1}
    assert {r[0] for t in report.condition_ii.tables for r in t.rows} == {-1}
    assert report.condition_i.exact and report.condition_ii.exact


def test_necessary_rejects_push_words(z2_p2):
    auto = EquivariantAutomorphism(z2_p2, z2_p2, (1, 0, 2), (1, 1, 1))
    report = necessary_check(FunctorWord((Push(auto), Shift(1))), z2_p2)
    assert not report.supported
    assert report.passed is None
    assert "pushforward" in report.reason
    assert report.to_dict()["verdict"] is None


def test_necessary_failure_implies_omega_failure(z2_p2):
    # The kernel-fiber conditions are necessary: whenever they fail for a
    # twist word, the full two-sided check (with the plain structure sheaf as
    # generator) must fail too.
    gen = bundle_complex(z2_p2, O(z2_p2, 0))
    for d in range(-3, 4):
        for coords in [(0,), (1,)]:
            word = FunctorWord((Twist(O(z2_p2, d, coords)),))
            necessary = necessary_check(word, z2_p2)
            if not necessary.passed:
                full = omega_check(word, z2_p2, gen_a=gen, gen_b=gen)
                assert not full.certified

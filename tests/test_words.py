"""Functor words: algebra of generators, the two-sided equivalence check,
and the exact kernel-fiber necessary conditions (the check with O as both
generators)."""

import json
from fractions import Fraction
from random import Random

import pytest

import eqdescent.words as words_module
from eqdescent.action import ProjectiveAction
from eqdescent.complexes import EquivariantComplex, TwistedSummand, bundle_complex
from eqdescent.descent import check_descent
from eqdescent.groups import AbelianGroup, InputError
from eqdescent.polynomials import Poly
from eqdescent.problem import problem_to_dict
from eqdescent.randgen import (
    random_action,
    random_automorphism,
    random_group,
    random_summand,
    random_valid_complex,
    random_word,
)
from eqdescent.words import (
    FunctorWord,
    GeneratorRejectedError,
    Push,
    Shift,
    Twist,
    _descends_by_construction,
    default_generator,
    omega_check,
)

from conftest import O


def on_structure_sheaf(word, action, **opts):
    """``omega_check`` with O as both generators: the kernel-fiber
    conditions that the ``necessary`` command reports."""
    structure_sheaf = bundle_complex(action, TwistedSummand(0, action.group.trivial_character()))
    return omega_check(word, action, structure_sheaf, structure_sheaf, **opts)


def kernel_of(report):
    """(net shift, net twist) of a shift/twist word, read off the image of O
    as the ``necessary`` command reads them."""
    (degree,) = report.image_a.degrees()
    (net_twist,) = report.image_a.summands(degree)
    return -degree, net_twist


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
    push = Push(z2_p2, (1, 0, 2), (Fraction(1), Fraction(3), Fraction(2)))
    pushed = FunctorWord((push,)).apply(two_term)
    # x2 -> (1/2) x2 under p -> p o f^{-1} with f scaling x2 by 2.
    assert pushed.entry(0, 0, 0) == Poly.variable(3, 2) * Fraction(1, 2)
    assert pushed.terms == two_term.terms


def test_push_requires_matching_action(two_term, z2_p2):
    other = ProjectiveAction(
        z2_p2.group,
        2,
        (z2_p2.group.character((1,)),) * 3,
    )
    push = Push(other, (0, 1, 2), (1, 1, 1))
    with pytest.raises(InputError):
        FunctorWord((push,)).apply(two_term)


@pytest.mark.parametrize("k", [0.5, 1.9, True])
def test_shift_refuses_inexact_ints(k):
    """A float is not truncated into a shift, and a bool is not an int."""
    with pytest.raises(InputError, match="a shift must be an int"):
        Shift(k)


def test_twist_from_foreign_group_rejected(two_term):
    H = AbelianGroup((3,))
    word = FunctorWord((Twist(TwistedSummand(1, H.trivial_character())),))
    with pytest.raises(InputError):
        word.apply(two_term)


# ---------------------------------------------------------------------------
# push validation and inversion
# ---------------------------------------------------------------------------


def test_automorphism_must_be_a_permutation(z2_p2):
    with pytest.raises(InputError):
        Push(z2_p2, (0, 0, 2), (1, 1, 1))


def test_automorphism_scalars_must_be_nonzero(z2_p2):
    with pytest.raises(InputError):
        Push(z2_p2, (0, 1, 2), (1, 0, 1))


@pytest.mark.parametrize(
    "perm, scalars, message",
    [
        ((0, 1.9, 2), (1, 1, 1), "permutation entries must be ints"),
        ((0, True, 2), (1, 1, 1), "permutation entries must be ints"),
        ((0, 1, 2), (1, 0.1, 1), "scalar: 0.1"),
        ((0, 1, 2), (1, "1e3", 1), "scalar: '1e3'"),
    ],
)
def test_automorphism_refuses_inexact_entries(z2_p2, perm, scalars, message):
    """No entry is truncated or rounded into a valid one."""
    with pytest.raises(InputError, match=message):
        Push(z2_p2, perm, scalars)


def test_automorphism_must_intertwine_characters(z2_p2):
    # Coordinate 2 carries the sign character; swapping it with 0 breaks it.
    with pytest.raises(InputError):
        Push(z2_p2, (2, 1, 0), (1, 1, 1))


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
        assert back == c


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
    """The kernel ``necessary`` reports is the word applied to O."""
    word = FunctorWord(
        (Twist(O(z2_p2, 1, (1,))), Shift(2), Twist(O(z2_p2, 2, (1,))), Shift(-3))
    )
    report = on_structure_sheaf(word, z2_p2)
    net_shift, net_twist = kernel_of(report)
    assert net_shift == -1
    assert net_twist.degree == 3
    assert net_twist.twist.is_trivial  # (1,) + (1,) = (0,) in Z/2
    assert report.image_a == EquivariantComplex(z2_p2, {1: (O(z2_p2, 3),)}, {})


def test_word_rejects_unknown_generators():
    with pytest.raises(InputError):
        FunctorWord(("twist",))


def test_describe_is_json_serializable(z2_p2):
    push = Push(z2_p2, (1, 0, 2), (1, Fraction(1, 2), 3))
    word = FunctorWord((Shift(1), Twist(O(z2_p2, 2, (1,))), push))
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
    assert repr(report.image_a) == "[0: O(1)]"
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
    push = Push(z2_p2, (1, 0, 2), (2, 1, Fraction(1, 3)))
    report = omega_check(FunctorWord((push,)), z2_p2)
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


def test_omega_refuses_a_generator_with_no_summands(z2_p2):
    """The zero complex descends but generates nothing, so it would certify
    every word: twist by O(1) is disproved on O."""
    word = FunctorWord((Twist(O(z2_p2, 1)),))
    zero = EquivariantComplex(z2_p2, {}, {})
    assert not omega_check(word, z2_p2).certified
    for gens, which in (({"gen_a": zero}, "a"), ({"gen_b": zero}, "b")):
        with pytest.raises(InputError, match=f"^generator {which} has no summands"):
            omega_check(word, z2_p2, **gens)
    with pytest.raises(InputError, match="^generator a has no summands"):
        omega_check(word, z2_p2, gen_a=zero, gen_b=zero)


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
        necessary = on_structure_sheaf(word, z2_p2)
        full = omega_check(word, z2_p2)
        assert necessary.certified == full.certified == (d % 2 == 0)


def test_a_generator_that_descends_by_construction_is_not_checked(z2_p2, koszul, monkeypatch):
    """The default generator descends by construction, so omega checks only
    the two images; a Koszul complex given as A and B is checked once."""
    calls = []

    def counting_check(complex_, **opts):
        calls.append(complex_)
        return check_descent(complex_, **opts)

    monkeypatch.setattr(words_module, "check_descent", counting_check)
    word = FunctorWord((Twist(O(z2_p2, 2)), Shift(1)))
    assert omega_check(word, z2_p2).certified
    assert len(calls) == 2
    calls.clear()
    gen = koszul(z2_p2, (1, 1, 1))
    assert omega_check(word, z2_p2, gen_a=gen, gen_b=gen).certified
    assert calls[0] is gen and len(calls) == 3


def test_the_by_construction_rule_accepts_only_complexes_that_descend(two_term):
    """Every complex the rule accepts (no differentials, summands O(d) with
    e | d in any degrees) passes ``check_descent`` on a random action; a
    degree off the exponent, a twist or a map takes a complex out of it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 2**32))
    def check(seed):
        rng = Random(seed)
        group = random_group(rng, max_order=24)
        action = random_action(rng, group)
        e, trivial = group.exponent, group.trivial_character()
        terms = {
            j: tuple(
                TwistedSummand(e * rng.randint(-3, 3), trivial) for _ in range(rng.randint(1, 3))
            )
            for j in rng.sample(range(-3, 4), rng.randint(1, 3))
        }
        complex_ = EquivariantComplex(action, terms, {})
        assert _descends_by_construction(complex_)
        assert check_descent(complex_).passed
        for odd in (TwistedSummand(e + 1, trivial), random_summand(rng, group)):
            if odd.degree % e or not odd.twist.is_trivial:
                assert not _descends_by_construction(EquivariantComplex(action, {0: (odd,)}, {}))

    check()
    assert not _descends_by_construction(two_term)


# ---------------------------------------------------------------------------
# the kernel-fiber necessary conditions
# ---------------------------------------------------------------------------


def test_necessary_accumulates_net_twist_and_shift(z2_p2):
    word = FunctorWord((Twist(O(z2_p2, 1)), Shift(2), Twist(O(z2_p2, 1, (1,)))))
    report = on_structure_sheaf(word, z2_p2)
    net_shift, net_twist = kernel_of(report)
    assert net_twist.degree == 2
    assert net_twist.twist.coords == (1,)
    assert net_shift == 2
    # Net twist O(2)@(1,) is nontrivial on the strata fixing x0 or x1.
    assert not report.certified
    payload = report.to_dict()
    assert payload["verdict"] == "disproved"
    assert payload["image_a"] == "[-2: O(2)@(1,)]"
    json.dumps(payload)


def test_necessary_conditions_run_both_directions(z2_p2):
    word = FunctorWord((Twist(O(z2_p2, 2)), Shift(-1)))
    report = on_structure_sheaf(word, z2_p2)
    assert report.certified
    # Kernel sits in degree -net_shift; inverse kernel in degree +net_shift.
    assert {r[0] for t in report.condition_i.tables for r in t.rows} == {1}
    assert {r[0] for t in report.condition_ii.tables for r in t.rows} == {-1}
    assert report.condition_i.exact and report.condition_ii.exact


def test_necessary_rejects_push_words(z2_p2, cli, capsys, tmp_path):
    """A word holding a push is bad input, not a verdict: the command exits
    2 with an error line naming the word and nothing on stdout, wherever the
    push stands in the word."""
    push = Push(z2_p2, (1, 0, 2), (1, 1, 1))
    path = tmp_path / "push.json"
    path.write_text(json.dumps(problem_to_dict(z2_p2, words={"w": FunctorWord((push, Shift(1)))})))
    code, text, _ = cli("necessary", str(path), "--word", "w")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: $.words.w: word contains a pushforward")
    code, text, _ = cli("necessary", "tests/fixtures/z2_p2.json", "--word", "swap01")
    assert code == 2
    assert text == ""
    assert capsys.readouterr().err.startswith("error: $.words.swap01: word contains a pushforward")


def test_necessary_failure_implies_omega_failure(z2_p2):
    # The kernel-fiber conditions are necessary: whenever they fail for a
    # twist word, the full two-sided check (with the plain structure sheaf as
    # generator) must fail too.
    gen = bundle_complex(z2_p2, O(z2_p2, 0))
    for d in range(-3, 4):
        for coords in [(0,), (1,)]:
            word = FunctorWord((Twist(O(z2_p2, d, coords)),))
            necessary = on_structure_sheaf(word, z2_p2)
            if not necessary.certified:
                full = omega_check(word, z2_p2, gen_a=gen, gen_b=gen)
                assert not full.certified


def test_necessary_is_omega_with_the_structure_sheaf(cli, tmp_path):
    """The ``necessary`` command's conditions are omega's two conditions
    with O as both generators, report for report, and its kernel is the
    word's net shift and net twist."""
    rng = Random(31)
    for trial in range(30):
        group = random_group(rng)
        action = random_action(rng, group)
        gens = [
            Shift(rng.choice((-2, -1, 1, 2)))
            if rng.random() < 0.5
            else Twist(random_summand(rng, group, max_degree=2))
            for _ in range(rng.randint(1, 5))
        ]
        word = FunctorWord(tuple(gens))
        path = tmp_path / f"word{trial}.json"
        path.write_text(json.dumps(problem_to_dict(action, words={"w": word})))
        code, _, payload = cli("necessary", str(path), "--word", "w")
        necessary = payload["report"]
        structure_sheaf = bundle_complex(action, TwistedSummand(0, group.trivial_character()))
        full = omega_check(word, action, gen_a=structure_sheaf, gen_b=structure_sheaf)
        assert necessary["condition_i"] == json.loads(json.dumps(full.condition_i.to_dict()))
        assert necessary["condition_ii"] == json.loads(json.dumps(full.condition_ii.to_dict()))
        assert (code == 0) == (necessary["verdict"] == "pass") == full.certified
        net_shift = sum(g.k for g in gens if isinstance(g, Shift))
        net_twist = sum((g.summand.twist for g in gens if isinstance(g, Twist)), group.trivial_character())
        assert necessary["kernel"] == {
            "net_twist_degree": sum(g.summand.degree for g in gens if isinstance(g, Twist)),
            "net_twist_character": list(net_twist.coords),
            "net_shift": net_shift,
        }

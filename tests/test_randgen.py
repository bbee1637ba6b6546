"""Contracts of the seeded random instance generators: determinism, bounds,
and validity-by-construction."""

import hashlib
import itertools
import json
from fractions import Fraction
from random import Random

import pytest

import eqdescent.selftest as selftest_module
from eqdescent.action import MAX_PROJECTIVE_DIM, ProjectiveAction, RationalPoint
from eqdescent.complexes import TwistedSummand
from eqdescent.groups import AbelianGroup, InputError
from eqdescent.polynomials import Poly
from eqdescent.problem import problem_to_dict
from eqdescent.randgen import (
    _order_tuples,
    equivariant_monomials,
    random_action,
    random_automorphism,
    random_character,
    random_equivariant_poly,
    random_group,
    random_point,
    random_summand,
    random_valid_complex,
    random_word,
)


def test_order_tuples_respect_bound():
    tuples = _order_tuples(12)
    assert all(2 <= f for t in tuples for f in t)
    for t in tuples:
        product = 1
        for f in t:
            product *= f
        assert product <= 12
    assert (2, 2, 3) in tuples and (12,) in tuples and (13,) not in tuples


def test_same_seed_gives_same_instances():
    def draw(seed):
        rng = Random(seed)
        group = random_group(rng)
        action = random_action(rng, group)
        c = random_valid_complex(rng, action)
        pt = random_point(rng, action.dim + 1)
        word = random_word(rng, action)
        return group, action, c, pt, word

    assert draw(314) == draw(314)
    assert draw(314) != draw(315)


def test_random_groups_and_actions_respect_bounds():
    rng = Random(1)
    for _ in range(50):
        group = random_group(rng, max_order=12)
        assert 2 <= group.order <= 12
        action = random_action(rng, group, max_dim=3)
        assert 1 <= action.dim <= 3
        s = random_summand(rng, group, max_degree=3)
        assert -3 <= s.degree <= 3


@pytest.mark.parametrize("max_dim", [0, MAX_PROJECTIVE_DIM + 1, True, 2.5])
def test_random_action_refuses_a_dimension_bound_it_cannot_draw_up_to(max_dim):
    with pytest.raises(InputError, match=f"max_dim must be an int from 1 to {MAX_PROJECTIVE_DIM}"):
        random_action(Random(1), AbelianGroup((2,)), max_dim=max_dim)


def test_random_points_have_nonzero_support():
    rng = Random(2)
    for _ in range(50):
        pt = random_point(rng, 4)
        assert pt.support
        assert all(pt.coords[i] != 0 for i in pt.support)
        assert all(pt.coords[i] == 0 for i in range(4) if i not in pt.support)


def test_random_complexes_always_validate():
    rng = Random(3)
    for _ in range(60):
        group = random_group(rng)
        action = random_action(rng, group)
        c = random_valid_complex(rng, action)
        assert c.validate().ok
        assert 1 <= c.total_summands() <= 8


def test_random_complexes_exercise_nonzero_differentials():
    rng = Random(4)
    with_diff = sum(
        1
        for _ in range(60)
        if random_valid_complex(rng, random_action(rng, random_group(rng))).differentials
    )
    assert with_diff >= 15  # the corpus must not be all split complexes


def test_random_automorphisms_are_equivariant_by_construction():
    rng = Random(5)
    G = AbelianGroup((2, 2))
    action = ProjectiveAction(
        G, 3, (G.character((0, 0)), G.character((1, 0)), G.character((1, 0)), G.character((0, 1)))
    )
    for _ in range(30):
        auto = random_automorphism(rng, action)
        # validation happens in the constructor; spot-check the char classes
        for i in range(4):
            assert action.coord_chars[auto.perm[i]] == action.coord_chars[i]
        # coordinates 1 and 2 share a character, so they may swap; 0 and 3 not
        assert auto.perm[0] == 0 and auto.perm[3] == 3


def test_random_words_respect_length_bound():
    rng = Random(6)
    G = AbelianGroup((4,))
    action = ProjectiveAction(G, 1, (G.character((0,)), G.character((1,))))
    for _ in range(40):
        word = random_word(rng, action, max_len=5)
        assert 1 <= len(word.generators) <= 5


def test_equivariant_monomials_frozen_case():
    G = AbelianGroup((2,))
    action = ProjectiveAction(G, 2, (G.character((0,)), G.character((0,)), G.character((1,))))
    # degree-2 monomials transforming trivially: x0^2, x0*x1, x1^2, x2^2
    monos = equivariant_monomials(action, 2, G.trivial_character())
    assert sorted(monos) == [(0, 0, 2), (0, 2, 0), (1, 1, 0), (2, 0, 0)]
    # degree-2 monomials transforming by the sign character: x0*x2, x1*x2
    monos = equivariant_monomials(action, 2, G.character((1,)))
    assert sorted(monos) == [(0, 1, 1), (1, 0, 1)]
    assert equivariant_monomials(action, -1, G.trivial_character()) == []


def test_equivariant_monomials_match_monomial_characters_in_order():
    """The list, order included, is every degree-d monomial whose
    monomial_character is the target, in combinations order: the seeded
    generators draw from it, so its order fixes their output."""
    rng = Random(11)
    for _ in range(60):
        action = random_action(rng, random_group(rng, 36), max_dim=3)
        nvars = action.dim + 1
        for degree in range(4):
            every = []
            for combo in itertools.combinations_with_replacement(range(nvars), degree):
                exps = [0] * nvars
                for i in combo:
                    exps[i] += 1
                every.append(tuple(exps))
            for char in action.group.characters[:12]:
                want = [e for e in every if action.monomial_character(e) == char]
                assert equivariant_monomials(action, degree, char) == want


# ---------------------------------------------------------------------------
# unchecked draws against the checked constructors
# ---------------------------------------------------------------------------


def _twin(rng: Random) -> Random:
    """A generator that will repeat ``rng``'s next draws."""
    twin = Random()
    twin.setstate(rng.getstate())
    return twin


def _checked_fraction(rng: Random, max_num: int, max_den: int) -> Fraction:
    return Fraction(rng.choice([n for n in range(-max_num, max_num + 1) if n]), rng.randint(1, max_den))


def test_unchecked_draws_equal_the_checked_constructors():
    """Each object randgen builds unchecked equals the one the checked
    constructor builds from the same draws, made in the same order."""
    rng = Random(26)
    for _ in range(1000):
        group = random_group(rng, 60)
        action = random_action(rng, group)
        nvars = action.dim + 1

        twin = _twin(rng)
        chi = random_character(rng, group)
        assert chi == group.character([twin.randrange(n) for n in group.orders])
        assert type(chi.coords) is tuple

        twin = _twin(rng)
        src = random_summand(rng, group, 3)
        assert src == TwistedSummand(
            twin.randint(-3, 3), group.character([twin.randrange(n) for n in group.orders])
        )
        tgt = random_summand(rng, group, 3)

        twin = _twin(rng)
        poly = random_equivariant_poly(rng, action, src, tgt)
        monos = equivariant_monomials(action, tgt.degree - src.degree, tgt.twist - src.twist)
        if monos:
            chosen = twin.sample(monos, twin.randint(1, min(3, len(monos))))
            checked = Poly(nvars, {e: _checked_fraction(twin, 5, 3) for e in chosen})
        else:
            checked = Poly.zero(nvars)
        assert poly == checked and hash(poly) == hash(checked)
        assert twin.getstate() == rng.getstate()

        twin = _twin(rng)
        point = random_point(rng, nvars)
        support = sorted(twin.sample(range(nvars), twin.randint(1, nvars)))
        checked = RationalPoint(tuple(
            _checked_fraction(twin, 9, 9) if i in support else Fraction(0) for i in range(nvars)
        ))
        assert point == checked and hash(point) == hash(checked)
        assert all(type(c) is Fraction for c in point.coords)
        assert twin.getstate() == rng.getstate()


# ---------------------------------------------------------------------------
# the self-test corpus
# ---------------------------------------------------------------------------


def _corpus_hash(monkeypatch, **options) -> tuple:
    """(count, sha256) of the problem-file serializations of every instance
    ``run_oracle_selftest`` draws, in order."""
    sha = hashlib.sha256()
    count = 0
    real = selftest_module.fiber_restrict

    def recording(complex_, point):
        nonlocal count
        count += 1
        problem = problem_to_dict(complex_.action, complexes={"i": complex_}, points=[point])
        sha.update(json.dumps(problem, sort_keys=True, separators=(",", ":")).encode())
        return real(complex_, point)

    monkeypatch.setattr(selftest_module, "fiber_restrict", recording)
    assert selftest_module.run_oracle_selftest(**options).passed
    return count, sha.hexdigest()


@pytest.mark.parametrize(
    "options, pinned",
    [
        (
            {"trials": 40, "seed": 1, "max_group_order": 8},
            (40, "25866c20a101ae06833d676c104e30ebf42a2104c4298587c8b84f7717a15bab"),
        ),
        (
            {"seed": 7},
            (100, "139c02b2e6cc82e0ce6d76c20633de3b73adbea8f376c4e67393613f153322f4"),
        ),
    ],
    ids=("seed-1-order-8", "seed-7-defaults"),
)
def test_selftest_corpus_is_pinned(options, pinned, monkeypatch):
    """The instances the self-test draws are fixed by its seed: a change to
    how they are drawn or built changes this hash."""
    assert _corpus_hash(monkeypatch, **options) == pinned


@pytest.mark.parametrize(
    "options, message",
    [
        ({"trials": 0}, "trials must be an int at least 1, got 0"),
        ({"trials": -3}, "trials must be an int at least 1, got -3"),
        ({"trials": True}, "trials must be an int at least 1, got True"),
        ({"trials": 2.0}, "trials must be an int at least 1, got 2.0"),
        ({"max_group_order": 1}, "max_group_order must be an int from 2 to 10000, got 1"),
        ({"max_group_order": 10001}, "max_group_order must be an int from 2 to 10000, got 10001"),
        ({"max_group_order": True}, "max_group_order must be an int from 2 to 10000, got True"),
        ({"seed": "1"}, "seed must be an int, got '1'"),
        ({"seed": False}, "seed must be an int, got False"),
    ],
)
def test_selftest_refuses_arguments_outside_its_contract(options, message, monkeypatch):
    """No vacuous pass on zero trials and no IndexError on a group bound of
    1: each argument is checked before any instance is drawn."""
    drawn = []
    monkeypatch.setattr(selftest_module, "random_orders", lambda *a: drawn.append(a))
    with pytest.raises(InputError) as exc:
        selftest_module.run_oracle_selftest(**options)
    assert str(exc.value) == message
    assert drawn == []

"""Finite abelian groups, characters, equalizers: oracle-checked."""

import cmath
import itertools
import random

import pytest

from eqdescent.groups import AbelianGroup, InputError, Subgroup, equalizer_subgroup


def brute_force_equalizer(chars):
    """Oracle: filter all |G| elements by direct character evaluation."""
    group = chars[0].group
    base = chars[0]
    members = [
        g for g in group.elements if all(c(g) == base(g) for c in chars[1:])
    ]
    return sorted(g.coords for g in members)


def random_group(rng, max_order=64):
    pools = [
        (1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3), (7,), (8,),
        (2, 4), (2, 2, 2), (9,), (3, 3), (10,), (12,), (2, 6), (3, 4),
        (2, 2, 3), (16,), (4, 4), (2, 8), (24,), (2, 12), (36,), (6, 6),
        (2, 4, 8), (60,), (2, 2, 2, 2),
    ]
    orders = rng.choice([p for p in pools if 1 <= _prod(p) <= max_order])
    return AbelianGroup(orders)


def _prod(t):
    out = 1
    for x in t:
        out *= x
    return out


# ---------------------------------------------------------------------------
# construction and element arithmetic
# ---------------------------------------------------------------------------

def test_group_basics():
    g = AbelianGroup((2, 3))
    assert g.order == 6
    assert g.exponent == 6
    assert len(g.elements) == 6
    assert g.identity().is_identity


def test_group_rejects_bad_orders():
    with pytest.raises(InputError):
        AbelianGroup(())
    with pytest.raises(InputError):
        AbelianGroup((0,))
    with pytest.raises(InputError):
        AbelianGroup((101, 101))  # order 10201 > bound


def test_element_normalization_and_arithmetic():
    g = AbelianGroup((4,))
    a = g.element((3,))
    b = g.element((2,))
    assert (a + b).coords == (1,)
    assert (-a).coords == (1,)
    assert (a - a).is_identity
    assert g.element((7,)).coords == (3,)


# ---------------------------------------------------------------------------
# character evaluation
# ---------------------------------------------------------------------------

def test_char_eval_z2():
    g = AbelianGroup((2,))
    chi = g.character((1,))
    assert chi(g.element((1,))) == 1
    assert chi(g.element((0,))) == 0


def test_char_eval_z2_x_z3_frozen_case():
    g = AbelianGroup((2, 3))
    chi = g.character((1, 1))
    # (1*1*(6/2) + 1*2*(6/3)) mod 6 = (3 + 4) mod 6 = 1
    assert chi(g.element((1, 2))) == 1


def test_char_eval_matches_complex_roots_of_unity():
    """Numeric oracle: multiply out actual complex m-th roots of unity."""
    rng = random.Random(1234)
    for _ in range(200):
        group = random_group(rng, max_order=36)
        m = group.exponent
        chi = group.character(tuple(rng.randrange(n) for n in group.orders))
        g = group.element(tuple(rng.randrange(n) for n in group.orders))
        expected = 1.0 + 0.0j
        for c, gi, n in zip(chi.coords, g.coords, group.orders):
            expected *= cmath.exp(2j * cmath.pi * c * gi / n)
        got = cmath.exp(2j * cmath.pi * chi(g) / m)
        assert abs(got - expected) < 1e-9


def test_char_eval_is_homomorphism():
    rng = random.Random(88)
    for _ in range(100):
        group = random_group(rng)
        m = group.exponent
        chi = group.character(tuple(rng.randrange(n) for n in group.orders))
        a = group.element(tuple(rng.randrange(n) for n in group.orders))
        b = group.element(tuple(rng.randrange(n) for n in group.orders))
        assert (chi(a) + chi(b)) % m == chi(a + b)


def test_char_combine():
    g = AbelianGroup((4,))
    a = g.character((1,))
    b = g.character((2,))
    assert (a + b.scaled(3)).coords == (3,)  # (1 + 6) mod 4
    assert (a + b).coords == (3,)
    assert (a - b).coords == (3,)  # (1 - 2) mod 4
    assert (-a).coords == (3,)


def test_char_combine_evaluates_pointwise():
    rng = random.Random(321)
    for _ in range(100):
        group = random_group(rng)
        m = group.exponent
        a = group.character(tuple(rng.randrange(n) for n in group.orders))
        b = group.character(tuple(rng.randrange(n) for n in group.orders))
        k = rng.randint(-5, 5)
        combined = a + b.scaled(k)
        g = group.element(tuple(rng.randrange(n) for n in group.orders))
        assert combined(g) == (a(g) + k * b(g)) % m


def test_scaling_by_coordinate_order_kills_character():
    rng = random.Random(99)
    for _ in range(50):
        group = random_group(rng)
        chi = group.character(tuple(rng.randrange(n) for n in group.orders))
        n = group.orders[rng.randrange(group.rank)]
        scaled = chi.scaled(n)
        # k * chi is trivial iff n_i | k * c_i for all i; k = n_i kills slot i.
        for i, (c, ni) in enumerate(zip(scaled.coords, group.orders)):
            assert c == (n * chi.coords[i]) % ni


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def test_subgroup_closure_identity_inverses():
    g = AbelianGroup((4, 2))
    s = Subgroup(g, [g.element((2, 1))])
    assert s.order == 2
    assert g.identity().coords in s.coords
    for h in s.elements:
        assert (-h).coords in s.coords
        for k in s.elements:
            assert (h + k).coords in s.coords


def test_subgroup_equality_by_elements():
    g = AbelianGroup((4,))
    a = Subgroup(g, [g.element((2,))])
    b = Subgroup(g, [g.element((2,)), g.element((0,))])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subgroup.trivial(g)


def test_whole_and_trivial():
    g = AbelianGroup((2, 3))
    assert Subgroup.whole(g).order == 6
    assert Subgroup.trivial(g).order == 1
    assert Subgroup.trivial(g).is_trivial


def brute_force_closure(group, gens):
    """Oracle: add generators to everything found until nothing new appears."""
    members = {(0,) * group.rank}
    while True:
        grown = members | {(h + g).coords for h in map(group.element, members) for g in gens}
        if grown == members:
            return sorted(members)
        members = grown


def test_subgroup_coords_are_the_sorted_closure():
    rng = random.Random(4242)
    for _ in range(200):
        group = random_group(rng, max_order=64)
        gens = [
            group.element(tuple(rng.randrange(n) for n in group.orders))
            for _ in range(rng.randint(0, 3))
        ]
        if gens and rng.random() < 0.5:
            gens.append(rng.choice(gens))  # repeated
        if rng.random() < 0.3:
            gens.insert(rng.randrange(len(gens) + 1), group.identity())  # zero
        if len(gens) >= 2 and rng.random() < 0.5:
            gens.append(gens[0] + gens[1].scaled(rng.randint(2, 5)))  # dependent
        rng.shuffle(gens)
        s = Subgroup(group, gens)
        assert list(s.coords) == brute_force_closure(group, gens), (group, gens)
        assert [g.coords for g in s.elements] == list(s.coords)
        assert group.order % s.order == 0


def test_whole_group_is_built_once_and_shared():
    g = AbelianGroup((4, 6))
    whole = Subgroup.whole(g)
    assert Subgroup.whole(g) is whole
    assert equalizer_subgroup([g.character((1, 2))] * 3) is whole
    assert whole.coords == tuple(h.coords for h in g.elements)
    # another group object with the same orders has its own copy
    assert Subgroup.whole(AbelianGroup((4, 6))) is not whole


# ---------------------------------------------------------------------------
# equalizer_subgroup
# ---------------------------------------------------------------------------

def test_equalizer_empty_list_is_error():
    with pytest.raises(InputError):
        equalizer_subgroup([])


def test_equalizer_single_character_is_whole_group():
    g = AbelianGroup((2, 3))
    chi = g.character((1, 2))
    assert equalizer_subgroup([chi]).order == 6


def test_equalizer_z2_cases():
    g = AbelianGroup((2,))
    triv = g.character((0,))
    sgn = g.character((1,))
    assert equalizer_subgroup([triv, triv]).order == 2
    assert equalizer_subgroup([triv, sgn]).order == 1
    assert equalizer_subgroup([sgn, sgn, sgn]).order == 2


def test_equalizer_identical_characters_whole_group():
    rng = random.Random(17)
    for _ in range(50):
        group = random_group(rng)
        chi = group.character(tuple(rng.randrange(n) for n in group.orders))
        s = equalizer_subgroup([chi] * rng.randint(1, 4))
        assert s.order == group.order


def test_equalizer_matches_brute_force():
    """Smith-form congruence solver vs. enumeration of all |G| elements."""
    rng = random.Random(2024)
    for _ in range(150):
        group = random_group(rng, max_order=64)
        k = rng.randint(1, 4)
        chars = [
            group.character(tuple(rng.randrange(n) for n in group.orders))
            for _ in range(k)
        ]
        s = equalizer_subgroup(chars)
        assert sorted(g.coords for g in s.elements) == brute_force_equalizer(chars)


def test_equalizer_exhaustive_small_groups():
    for orders in [(2,), (3,), (4,), (2, 2), (6,), (2, 3)]:
        group = AbelianGroup(orders)
        all_chars = list(group.characters)
        for pair in itertools.product(all_chars, repeat=2):
            s = equalizer_subgroup(list(pair))
            assert sorted(g.coords for g in s.elements) == brute_force_equalizer(
                list(pair)
            )


# ---------------------------------------------------------------------------
# character restriction
# ---------------------------------------------------------------------------

def test_restrict_z4_frozen_case():
    g = AbelianGroup((4,))
    chi = g.character((2,))
    s = Subgroup(g, [g.element((2,))])  # elements (0,), (2,)
    r = chi.restrict(s)
    # chi((2,)) = 2*2*(4/4) = 4 = 0 mod 4: trivial on the subgroup.
    assert r.values == (0, 0)
    assert r.is_trivial


def test_restriction_arithmetic_and_homomorphism():
    rng = random.Random(31337)
    for _ in range(100):
        group = random_group(rng)
        chi = group.character(tuple(rng.randrange(n) for n in group.orders))
        psi = group.character(tuple(rng.randrange(n) for n in group.orders))
        gens = [
            group.element(tuple(rng.randrange(n) for n in group.orders))
            for _ in range(rng.randint(0, 2))
        ]
        s = Subgroup(group, gens)
        rc, rp = chi.restrict(s), psi.restrict(s)
        assert rc.is_homomorphism()
        # Restriction commutes with character arithmetic, value by value.
        m = group.exponent
        pairs = list(zip(rc.values, rp.values))
        assert (chi + psi).restrict(s).values == tuple((a + b) % m for a, b in pairs)
        assert (chi - psi).restrict(s).values == tuple((a - b) % m for a, b in pairs)
        k = rng.randint(-4, 4)
        assert chi.scaled(k).restrict(s).values == tuple((k * v) % m for v in rc.values)


def test_group_order_times_character_restricts_trivially():
    """|G| * chi evaluates to 0 everywhere, hence restricts trivially."""
    rng = random.Random(555)
    for _ in range(60):
        group = random_group(rng)
        chi = group.character(tuple(rng.randrange(n) for n in group.orders))
        scaled = chi.scaled(group.order)
        s = Subgroup(
            group,
            [group.element(tuple(rng.randrange(n) for n in group.orders))],
        )
        assert scaled.restrict(s).is_trivial
        assert all(scaled(g) == 0 for g in group.elements)


def test_restriction_is_computed_once_per_subgroup_and_character():
    rng = random.Random(99)
    for _ in range(50):
        group = random_group(rng)
        s = Subgroup(group, [group.element(tuple(rng.randrange(n) for n in group.orders))])
        chi = group.character(tuple(rng.randrange(n) for n in group.orders))
        r = chi.restrict(s)
        assert group.character(chi.coords).restrict(s) is r
        assert r.values == tuple(chi(g) for g in s.elements)


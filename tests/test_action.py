"""Diagonal projective actions: stabilizers, strata, sampling."""

import random
from fractions import Fraction

import pytest

from eqdescent.action import MAX_SAMPLES_PER_STRATUM, ProjectiveAction, RationalPoint
from eqdescent.groups import AbelianGroup, InputError


def z2_p2_action():
    """Z/2 on P^2 negating the last coordinate: (x0 : x1 : -x2)."""
    g = AbelianGroup((2,))
    return ProjectiveAction(g, 2, (g.character((0,)), g.character((0,)), g.character((1,))))


def random_action(rng, max_dim=3, max_order=12):
    pools = [(1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 3), (7,), (8,),
             (2, 4), (2, 2, 2), (9,), (3, 3), (10,), (11,), (12,), (2, 6), (3, 4)]
    orders = rng.choice([p for p in pools if _prod(p) <= max_order])
    g = AbelianGroup(orders)
    dim = rng.randint(1, max_dim)
    chars = tuple(
        g.character(tuple(rng.randrange(n) for n in orders)) for _ in range(dim + 1)
    )
    return ProjectiveAction(g, dim, chars)


def _prod(t):
    out = 1
    for x in t:
        out *= x
    return out


def random_point(rng, action):
    n = action.dim + 1
    while True:
        coords = [
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(n)
        ]
        if any(coords):
            return RationalPoint(tuple(coords))


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

def test_point_support_and_canonical():
    p = RationalPoint((0, Fraction(2), Fraction(-4)))
    assert p.support == (1, 2)
    assert p.canonical().coords == (0, 1, -2)
    assert p.display() == "(0:1:-2)"


def test_point_integer_coords_are_primitive_and_proportional():
    pt = RationalPoint((Fraction(2, 3), Fraction(0), Fraction(-4, 9), Fraction(8)))
    assert pt.integer_coords == (3, 0, -2, 36)
    rescaled = RationalPoint(tuple(Fraction(-7, 3) * c for c in pt.coords))
    assert rescaled.integer_coords == (-3, 0, 2, -36)


def test_point_all_zero_rejected():
    with pytest.raises(InputError):
        RationalPoint((0, 0, 0))


# ---------------------------------------------------------------------------
# stabilizers on the frozen example
# ---------------------------------------------------------------------------

def test_stabilizers_z2_p2():
    act = z2_p2_action()
    whole, triv = 2, 1
    cases = [
        ((1, 0, 0), whole),
        ((0, 1, 0), whole),
        ((1, -2, 0), whole),   # any point on the fixed line x2 = 0
        ((0, 0, 1), whole),    # the isolated fixed point
        ((1, 0, 1), triv),
        ((0, 1, 1), triv),
        ((1, 1, 1), triv),
    ]
    for coords, order in cases:
        assert act.stratum_of_point(RationalPoint(coords)).stabilizer.order == order, coords


def test_stabilizer_depends_only_on_support():
    rng = random.Random(42)
    for _ in range(60):
        act = random_action(rng)
        p = random_point(rng, act)
        q_coords = [Fraction(0)] * (act.dim + 1)
        for i in p.support:
            q_coords[i] = Fraction(rng.randint(1, 9))
        q = RationalPoint(tuple(q_coords))
        assert act.stratum_of_point(p).stabilizer == act.stratum_of_point(q).stabilizer


def test_point_dimension_mismatch():
    act = z2_p2_action()
    with pytest.raises(InputError):
        act.stratum_of_point(RationalPoint((1, 2)))


def test_orbit_stabilizer_product():
    """|orbit| * |stabilizer| = |G|, with the orbit counted by brute force:
    g.x = h.x exactly when the ratios chi_i(g) - chi_l(g) over the support
    (l its first coordinate) agree."""
    rng = random.Random(7)
    for _ in range(80):
        act = random_action(rng)
        p = random_point(rng, act)
        lead = act.coord_chars[p.support[0]]
        m = act.group.exponent
        orbit = {
            tuple((act.coord_chars[i](g) - lead(g)) % m for i in p.support)
            for g in act.group.elements
        }
        stab = act.stratum_of_point(p).stabilizer
        assert len(orbit) * stab.order == act.group.order


# ---------------------------------------------------------------------------
# strata
# ---------------------------------------------------------------------------

def test_strata_z2_p2_table():
    act = z2_p2_action()
    sts = act.strata()
    assert len(sts) == 7
    fixed = {s.support for s in sts if s.stabilizer.order == 2}
    assert fixed == {(0,), (1,), (0, 1), (2,)}
    by_support = {s.support: s for s in sts}
    # scalar action on representative vectors: trivial on the fixed line,
    # the sign character at the isolated fixed point
    assert by_support[(0, 1)].scalar_char.is_trivial
    assert by_support[(0,)].scalar_char.is_trivial
    assert not by_support[(2,)].scalar_char.is_trivial
    assert by_support[(2,)].scalar_char.values == (0, 1)


def test_strata_scalar_char_consistency():
    """Every supported coordinate character restricts identically."""
    rng = random.Random(13)
    for _ in range(40):
        act = random_action(rng)
        for st in act.strata():
            for i in st.support:
                assert act.coord_chars[i].restrict(st.stabilizer).values == st.scalar_char.values
            assert st.scalar_char.is_homomorphism()


def test_strata_count_and_sorting():
    rng = random.Random(5)
    for _ in range(20):
        act = random_action(rng)
        sts = act.strata()
        assert len(sts) == 2 ** (act.dim + 1) - 1
        keys = [(len(s.support), s.support) for s in sts]
        assert keys == sorted(keys)


def test_strata_dim_bound():
    g = AbelianGroup((2,))
    chars = tuple(g.character((0,)) for _ in range(13))
    act = ProjectiveAction(g, 12, chars)
    with pytest.raises(InputError):
        act.strata()


def test_free_action_detection():
    g = AbelianGroup((2,))
    # generic points of the sign-flip actions have trivial stabilizer ...
    assert z2_p2_action().stratum_of_support((0, 1, 2)).stabilizer.is_trivial
    # ... but a global scalar action fixes every point of P^1
    scalar = ProjectiveAction(g, 1, (g.character((1,)), g.character((1,))))
    assert not scalar.stratum_of_support((0, 1)).stabilizer.is_trivial
    assert scalar.stratum_of_point(RationalPoint((1, 7))).stabilizer.order == 2


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_points_single_coordinate_stratum():
    act = z2_p2_action()
    st = act.stratum_of_support((2,))
    pts = act.sample_points(st, count=5, seed=0)
    assert pts == (st.representative(),)
    assert pts[0].coords == (0, 0, 1)


def test_sample_points_deterministic_and_in_stratum():
    rng = random.Random(23)
    for _ in range(20):
        act = random_action(rng)
        for st in act.strata():
            a = act.sample_points(st, count=4, seed=9)
            b = act.sample_points(st, count=4, seed=9)
            assert a == b
            for p in a:
                assert p.support == st.support
                for i in st.support:
                    assert 1 <= abs(p.coords[i].numerator) <= 9
                    assert 1 <= p.coords[i].denominator <= 9
            if len(st.support) > 1:
                assert len(a) == 4
                assert len({p.canonical().coords for p in a}) == 4


def test_sample_points_seed_changes_sample():
    act = z2_p2_action()
    st = act.stratum_of_support((0, 1, 2))
    assert act.sample_points(st, 5, seed=1) != act.sample_points(st, 5, seed=2)


def test_sample_points_count_validation():
    act = z2_p2_action()
    st = act.stratum_of_support((0, 1))
    with pytest.raises(InputError):
        act.sample_points(st, 0, seed=0)
    with pytest.raises(InputError, match="<= 100"):
        act.sample_points(st, MAX_SAMPLES_PER_STRATUM + 1, seed=0)
    assert len(act.sample_points(st, MAX_SAMPLES_PER_STRATUM, seed=0)) == MAX_SAMPLES_PER_STRATUM


def test_stratum_representative():
    act = z2_p2_action()
    st = act.stratum_of_support((0, 2))
    assert st.representative().coords == (1, 0, 1)

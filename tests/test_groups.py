"""Finite abelian groups, characters, equalizers: oracle-checked."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

from eqdescent.action import ProjectiveAction
from eqdescent.groups import (
    MAX_GROUP_ORDER,
    AbelianGroup,
    Character,
    CharacterRestriction,
    InputError,
    Subgroup,
    _product_table,
    equalizer_subgroup,
)


def brute_force_equalizer(chars):
    """Oracle: filter all |G| elements by direct character evaluation."""
    group = chars[0].group
    base = chars[0]
    members = [
        g for g in group.elements if all(c(g) == base(g) for c in chars[1:])
    ]
    return sorted(members)


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


def random_element(rng, group):
    return tuple(rng.randrange(n) for n in group.orders)


def add(group, a, b):
    """The group law on coordinate tuples."""
    return tuple((x + y) % n for x, y, n in zip(a, b, group.orders))


# ---------------------------------------------------------------------------
# construction and elements
# ---------------------------------------------------------------------------

def test_group_basics():
    g = AbelianGroup((2, 3))
    assert g.order == 6
    assert g.exponent == 6
    assert g.elements == ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2))


def test_group_rejects_bad_orders():
    with pytest.raises(InputError):
        AbelianGroup(())
    with pytest.raises(InputError):
        AbelianGroup((0,))
    with pytest.raises(InputError):
        AbelianGroup((101, 101))  # order 10201 > bound


@pytest.mark.parametrize("orders", [(True, 3), (2.0, 3), (2, 3.5)])
def test_group_orders_must_be_exact_ints(orders):
    with pytest.raises(InputError, match="cyclic orders must be positive ints"):
        AbelianGroup(orders)


def test_elements_of_the_wrong_length_are_refused():
    g = AbelianGroup((4, 2))
    chi = g.character((1, 1))
    for bad in [(1,), (1, 0, 0)]:
        with pytest.raises(InputError):
            chi(bad)
        with pytest.raises(InputError):
            Subgroup(g, [bad])
    assert Subgroup(g, [(7, 3)]) == Subgroup(g, [(3, 1)])  # reduced modulo the orders


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", True, False, Fraction(1), Fraction(1, 2)])
@pytest.mark.parametrize(
    "build",
    [
        lambda g, x: g.character((1, x)),
        lambda g, x: g.character((1, 0))((x, 1)),
        lambda g, x: Subgroup(g, [(0, 1), (x, 0)]),
    ],
    ids=["character", "character-value", "subgroup-generator"],
)
def test_coordinates_must_be_exact_ints(build, bad):
    """A float, string, bool or Fraction coordinate is refused with an
    InputError, also where Python arithmetic would take it as a number."""
    with pytest.raises(InputError, match="coordinates must be ints"):
        build(AbelianGroup((4, 2)), bad)


# ---------------------------------------------------------------------------
# character evaluation
# ---------------------------------------------------------------------------

def test_char_eval_z2():
    g = AbelianGroup((2,))
    chi = g.character((1,))
    assert chi((1,)) == 1
    assert chi((0,)) == 0


def test_char_eval_z2_x_z3_frozen_case():
    g = AbelianGroup((2, 3))
    chi = g.character((1, 1))
    # (1*1*(6/2) + 1*2*(6/3)) mod 6 = (3 + 4) mod 6 = 1
    assert chi((1, 2)) == 1


def test_char_eval_matches_complex_roots_of_unity():
    """Numeric oracle: multiply out actual complex m-th roots of unity."""
    rng = random.Random(1234)
    for _ in range(200):
        group = random_group(rng, max_order=36)
        m = group.exponent
        chi = group.character(tuple(rng.randrange(n) for n in group.orders))
        g = random_element(rng, group)
        expected = 1.0 + 0.0j
        for c, gi, n in zip(chi.coords, g, group.orders):
            expected *= cmath.exp(2j * cmath.pi * c * gi / n)
        got = cmath.exp(2j * cmath.pi * chi(g) / m)
        assert abs(got - expected) < 1e-9


def test_char_eval_is_homomorphism():
    rng = random.Random(88)
    for _ in range(100):
        group = random_group(rng)
        m = group.exponent
        chi = group.character(tuple(rng.randrange(n) for n in group.orders))
        a = random_element(rng, group)
        b = random_element(rng, group)
        assert (chi(a) + chi(b)) % m == chi(add(group, a, b))


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
        g = random_element(rng, group)
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


def test_character_arithmetic_equals_the_checked_constructor():
    """+, -, unary - and scaled(k), negative k included, build unchecked
    characters; each equals the one the checked constructor gives for the
    unreduced coordinates, coordinates and hash alike."""
    rng = random.Random(2024)
    for _ in range(300):
        group = random_group(rng)
        a_raw = tuple(rng.randint(-50, 50) for _ in group.orders)
        b_raw = tuple(rng.randint(-50, 50) for _ in group.orders)
        a, b = Character(group, a_raw), Character(group, b_raw)
        k = rng.randint(-40, -1)
        cases = (
            (a + b, [x + y for x, y in zip(a_raw, b_raw)]),
            (a - b, [x - y for x, y in zip(a_raw, b_raw)]),
            (-a, [-x for x in a_raw]),
            (a.scaled(k), [k * x for x in a_raw]),
            (b.scaled(-k), [-k * x for x in b_raw]),
        )
        for got, coords in cases:
            want = Character(group, tuple(coords))
            assert got == want and hash(got) == hash(want)
            assert got.coords == want.coords
            assert all(0 <= c < n for c, n in zip(got.coords, group.orders))


@pytest.mark.parametrize("k", [1.5, 2.0, "2", Fraction(2), None])
def test_scaling_by_a_non_int_is_refused(k):
    chi = AbelianGroup((4, 2)).character((1, 1))
    with pytest.raises(InputError):
        chi.scaled(k)


def test_characters_of_different_groups_do_not_combine():
    a = AbelianGroup((4,)).character((1,))
    b = AbelianGroup((2, 2)).character((1, 0))
    for combine in (
        lambda: a + b,
        lambda: a - b,
        lambda: equalizer_subgroup([a, b]),
        lambda: b.group.whole_subgroup.cut(a),
    ):
        with pytest.raises(InputError, match="different groups"):
            combine()


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

def test_subgroup_closure_identity_inverses():
    g = AbelianGroup((4, 2))
    s = Subgroup(g, [(2, 1)])
    assert s.order == 2
    assert (0, 0) in s.coords
    for h in s.coords:
        assert tuple(-x % n for x, n in zip(h, g.orders)) in s.coords
        for k in s.coords:
            assert add(g, h, k) in s.coords


def test_subgroup_equality_by_elements():
    g = AbelianGroup((4,))
    a = Subgroup(g, [(2,)])
    b = Subgroup(g, [(2,), (0,)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subgroup.trivial(g)


def test_whole_and_trivial():
    g = AbelianGroup((2, 3))
    assert g.whole_subgroup.order == 6
    assert Subgroup.trivial(g).order == 1
    assert Subgroup.trivial(g).is_trivial


def brute_force_closure(group, gens):
    """Oracle: add generators to everything found until nothing new appears."""
    members = {(0,) * group.rank}
    while True:
        grown = members | {add(group, h, g) for h in members for g in gens}
        if grown == members:
            return sorted(members)
        members = grown


def test_subgroup_coords_are_the_sorted_closure():
    rng = random.Random(4242)
    for _ in range(200):
        group = random_group(rng, max_order=64)
        gens = [
            random_element(rng, group)
            for _ in range(rng.randint(0, 3))
        ]
        if gens and rng.random() < 0.5:
            gens.append(rng.choice(gens))  # repeated
        if rng.random() < 0.3:
            gens.insert(rng.randrange(len(gens) + 1), (0,) * group.rank)  # zero
        if len(gens) >= 2 and rng.random() < 0.5:
            k = rng.randint(2, 5)
            gens.append(add(group, gens[0], tuple(k * x for x in gens[1])))  # dependent
        rng.shuffle(gens)
        s = Subgroup(group, gens)
        assert list(s.coords) == brute_force_closure(group, gens), (group, gens)
        assert group.order % s.order == 0


def test_whole_group_is_built_once_and_shared():
    g = AbelianGroup((4, 6))
    whole = g.whole_subgroup
    assert g.whole_subgroup is whole
    assert equalizer_subgroup([g.character((1, 2))] * 3) is whole
    assert whole.coords == g.elements
    # another group object with the same orders has its own copy
    assert AbelianGroup((4, 6)).whole_subgroup is not whole


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
        assert list(s.coords) == brute_force_equalizer(chars)


def test_equalizer_exhaustive_small_groups():
    for orders in [(2,), (3,), (4,), (2, 2), (6,), (2, 3)]:
        group = AbelianGroup(orders)
        all_chars = list(group.characters)
        for pair in itertools.product(all_chars, repeat=2):
            s = equalizer_subgroup(list(pair))
            assert list(s.coords) == brute_force_equalizer(list(pair))


def test_first_cut_and_whole_group_tables_match_evaluation():
    """On groups of rank 1-3 and order up to 10,000: ``elements`` is the
    lexicographic list of G; a cut of the whole group (``Subgroup.cut``),
    enumerated one progression per prefix, is [g for g in G.elements if
    delta(g) == 0] in the same order, and is shared by equalizers with the
    same difference; the whole-group table built from the factor orders
    (``_product_table``, each row a rotated column or, for a prefix value
    outside <w>, a summed one) is delta(g) and sum_i c_i * g_i * (m / n_i)
    mod m element by element.  A cut of a subgroup generated by an element
    is [h for h in sub.coords if chi(h) == 0], and is ``sub`` itself when
    chi reads 0 on it; the stabilizer of every stratum T of an action with
    |T| >= 2 is the stabilizer of T[:-1] cut by chi_{T[-1]} - chi_{T[0]},
    the same object.  Zero coordinates, non-units, factors with a common
    divisor, factors of order 1, summed rows, cuts of proper subgroups and
    proper subgroups a nontrivial character reads 0 on are all met."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    met = set()

    def character(n):
        return st.one_of(
            st.just(0),
            st.sampled_from([d for d in range(1, n) if n % d == 0] or [0]),
            st.integers(0, n - 1),
        )

    @st.composite
    def groups_and_characters(draw):
        rank = draw(st.integers(1, 3))
        orders, budget = [], MAX_GROUP_ORDER
        for _ in range(rank):
            n = draw(st.integers(1, min(budget, MAX_GROUP_ORDER if rank == 1 else 150)))
            orders.append(n)
            budget //= n
        coords = tuple(draw(character(n)) for n in orders)
        psi = tuple(draw(character(n)) for n in orders)
        generator = tuple(draw(character(n)) for n in orders)
        return AbelianGroup(tuple(orders)), coords, psi, generator

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(groups_and_characters())
    @hypothesis.example((AbelianGroup((1, 6)), (0, 5), (0, 3), (0, 2)))
    @hypothesis.example((AbelianGroup((4, 2)), (1, 1), (2, 0), (2, 1)))
    def check(case):
        group, coords, psi_coords, generator = case
        orders, m = group.orders, group.exponent
        if coords[-1] == 0 and orders[-1] > 1:
            met.add("zero")
        if any(c and math.gcd(c, n) > 1 for c, n in zip(coords, orders)):
            met.add("non-unit")
        if math.gcd(*orders) > 1 and len(orders) > 1:
            met.add("common divisor")
        if 1 in orders:
            met.add("order 1")
        weights = [c * (m // n) for c, n in zip(coords, orders)]
        prefix = {0}
        for w, n in zip(weights, orders):
            if any(x % math.gcd(w, m) for x in prefix):
                met.add("summed row")
            prefix = {(x + w * h) % m for x in prefix for h in range(n)}
        elements = group.elements
        assert len(elements) == group.order
        assert all(a < b for a, b in zip(elements, elements[1:]))
        assert elements[-1] == tuple(n - 1 for n in orders)
        delta = group.character(coords)
        table = [delta(g) for g in elements]
        cut = group.whole_subgroup.cut(delta)
        assert list(cut.coords) == [g for g, v in zip(elements, table) if v == 0]
        assert equalizer_subgroup([group.trivial_character(), delta]) is cut
        assert equalizer_subgroup([delta, delta.scaled(2)]) is cut
        assert delta.restrict(group.whole_subgroup).values == tuple(table)
        assert _product_table(coords, orders, m) == table == [
            sum(w * h for w, h in zip(weights, g)) % m for g in elements
        ]
        assert cut.cut(delta) is cut
        psi = group.character(psi_coords)
        sub = Subgroup(group, [generator])
        for chi in (delta, psi):
            kept = [h for h in sub.coords if chi(h) == 0]
            assert list(sub.cut(chi).coords) == kept
            assert (sub.cut(chi) is sub) == (len(kept) == sub.order)
            if sub.order < group.order and len(kept) < sub.order:
                met.add("cut of a proper subgroup")
            if sub.order < group.order and len(kept) == sub.order and not chi.is_trivial:
                met.add("read 0 on a proper subgroup")
        action = ProjectiveAction(group, 2, (group.trivial_character(), delta, psi))
        stabilizers = {s.support: s.stabilizer for s in action.strata()}
        chars = action.coord_chars
        for support, stabilizer in stabilizers.items():
            if len(support) >= 2:
                before = stabilizers[support[:-1]]
                assert stabilizer is before.cut(chars[support[-1]] - chars[support[0]])

    check()
    assert met == {
        "zero", "non-unit", "common divisor", "order 1", "summed row",
        "cut of a proper subgroup", "read 0 on a proper subgroup",
    }, met


def test_the_whole_group_is_enumerated_only_when_read():
    """The whole subgroup has its order from the group's, hashes without its
    elements, and restricts and cuts characters without them; reading
    ``coords`` lists ``elements``, once."""
    g = AbelianGroup((2, 5000))
    whole = g.whole_subgroup
    assert whole is g.whole_subgroup
    assert whole.order == 10000 and not whole.is_trivial
    hash(whole)
    g.character((1, 0)).restrict(whole)
    cut = whole.cut(g.character((1, 0)))
    assert whole != cut and cut.order == 5000
    assert "elements" not in g.__dict__ and "coords" not in whole.__dict__
    assert whole.coords is g.elements
    assert whole.columns == tuple(zip(*g.elements))
    assert AbelianGroup((1,)).whole_subgroup.is_trivial


@pytest.mark.parametrize("orders", [(1,), (6,), (2, 2), (4, 6), (3, 1, 4)])
def test_equal_subgroups_from_different_routes_compare_and_hash_equal(orders):
    """The whole group as ``whole_subgroup``, as generated by the factors'
    unit vectors and as its cut by the trivial character; a character's
    kernel as a cut of ``whole_subgroup``, as a cut of the group generated
    by the unit vectors and as generated by its own elements."""
    g = AbelianGroup(orders)
    units = [tuple(int(i == k) for i in range(g.rank)) for k in range(g.rank)]
    generated = Subgroup(g, units)
    wholes = [g.whole_subgroup, generated, generated.cut(g.trivial_character())]
    for chi in g.characters:
        cut = g.whole_subgroup.cut(chi)
        kernels = [cut, generated.cut(chi), Subgroup(g, cut.coords)]
        for same in (wholes, kernels):
            for a, b in itertools.combinations(same, 2):
                assert a == b and b == a and hash(a) == hash(b)
        assert (cut == g.whole_subgroup) == chi.is_trivial


def test_distinct_subgroups_of_one_order_share_a_hash_and_differ():
    g = AbelianGroup((2, 2))
    lines = [Subgroup(g, [h]) for h in ((1, 0), (0, 1), (1, 1))]
    assert len({hash(s) for s in lines}) == 1 and len(set(lines)) == 3


# ---------------------------------------------------------------------------
# character restriction
# ---------------------------------------------------------------------------

def test_restrict_z4_frozen_case():
    g = AbelianGroup((4,))
    chi = g.character((2,))
    s = Subgroup(g, [(2,)])  # elements (0,), (2,)
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
            random_element(rng, group)
            for _ in range(rng.randint(0, 2))
        ]
        s = Subgroup(group, gens)
        rc, rp = chi.restrict(s), psi.restrict(s)
        # The table respects the group law.
        m = group.exponent
        table = dict(zip(s.coords, rc.values))
        for h in s.coords:
            for k in s.coords:
                assert (table[h] + table[k]) % m == table[add(group, h, k)]
        # Restriction commutes with character arithmetic, value by value.
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
            [random_element(rng, group)],
        )
        assert scaled.restrict(s).is_trivial
        assert all(scaled(g) == 0 for g in group.elements)


def test_restriction_is_computed_once_per_subgroup_and_character():
    rng = random.Random(99)
    for _ in range(50):
        group = random_group(rng)
        s = Subgroup(group, [random_element(rng, group)])
        chi = group.character(tuple(rng.randrange(n) for n in group.orders))
        r = chi.restrict(s)
        assert group.character(chi.coords).restrict(s) is r
        assert r.values == tuple(chi(g) for g in s.coords)



def _random_group_of_rank(rng, rank):
    return AbelianGroup(tuple(rng.randint(1, 12) for _ in range(rank)))


def test_restriction_equals_evaluation_on_every_element():
    """The column-wise table is chi(h) for every h, in ``coords`` order,
    also for characters with several nonzero coordinates."""
    rng = random.Random(2718)
    several = 0
    for _ in range(300):
        group = _random_group_of_rank(rng, rng.randint(1, 3))
        chi = group.character(tuple(rng.randrange(n) for n in group.orders))
        several += sum(c != 0 for c in chi.coords) >= 2
        s = Subgroup(group, [random_element(rng, group) for _ in range(rng.randint(0, 3))])
        assert s.columns == tuple(zip(*s.coords))
        assert chi.restrict(s).values == tuple(chi(h) for h in s.coords), (group, chi, s)
    assert several >= 50


def test_restriction_built_directly_is_reduced_and_length_checked():
    g = AbelianGroup((4, 6))  # exponent 12
    s = Subgroup(g, [(2, 3)])  # (0, 0), (2, 3)
    assert CharacterRestriction(s, (-1, 25)).values == (11, 1)
    assert CharacterRestriction(s, [12, -12]).values == (0, 0)
    assert CharacterRestriction(s, (3, 11)).values == (3, 11)
    assert hash(CharacterRestriction(s, [3, 11])) == hash(CharacterRestriction(s, (15, -1)))
    for wrong in ((), (0,), (0, 0, 0)):
        with pytest.raises(InputError, match="value table"):
            CharacterRestriction(s, wrong)


def test_restriction_hash_is_computed_once_and_equal_for_equal_tables():
    g = AbelianGroup((100, 100))
    r = g.character((3, 7)).restrict(g.whole_subgroup)
    twin = CharacterRestriction(g.whole_subgroup, list(r.values))
    assert twin == r and twin is not r
    assert hash(twin) == hash(r)
    # The first hash is kept on the restriction; it is the hash of the
    # dataclass fields, as the generated hash was.
    assert r.__dict__["_hash"] == hash((r.subgroup, r.values))
    assert hash(r) == hash((r.subgroup, r.values))
    assert len({r: 1, twin: 2}) == 1


def test_restriction_is_trivial_iff_every_value_is_zero():
    rng = random.Random(161)
    g = AbelianGroup((3, 5))
    whole = g.whole_subgroup
    for _ in range(200):
        values = [0] * whole.order
        for _ in range(rng.choice((0, 0, 1, 2))):
            values[rng.randrange(whole.order)] = rng.choice((-15, -1, 1, 7, 15, 30))
        r = CharacterRestriction(whole, tuple(values))
        assert r.is_trivial == all(v == 0 for v in r.values)
        assert r.is_trivial == all(v % 15 == 0 for v in values)

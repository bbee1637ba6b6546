"""Averaging-projector cohomology oracle over Q(zeta_m).

Expected values in this file are frozen from hand computation; the oracle is
the trust anchor that the block-decomposition path is later checked against,
so nothing here may depend on that path.  The exceptions are the
cross-check of the oracle's private rank against ``linalg.rank`` (two
independent eliminations that must agree), random subgroups built by
``groups.Subgroup`` to feed the oracle's cyclic decomposition, and the
instances too large for the quadratic reference below, which are checked
against the block route.

The quadratic reference averages over all of S without factoring: one
value table per character of G on all of S, and for every table and summand
the full sum (1/|S|) sum_g zeta^{e(g) - phi(g)}, counted per exponent and
summed with a power table of zeta in Q[z] / Phi_m.
"""

import ast
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import mul
from pathlib import Path

import pytest

import eqdescent.oracle as oracle_module
from eqdescent.action import ProjectiveAction, RationalPoint
from eqdescent.complexes import (
    EquivariantComplex,
    InternalConsistencyError,
    TwistedSummand,
    bundle_complex,
)
from eqdescent.descent import block_cohomology, fiber_restrict
from eqdescent.groups import AbelianGroup, Subgroup
from eqdescent.linalg import QMatrix, rank
from eqdescent.oracle import (
    _cyclic_decomposition,
    _factor_value,
    _fiber_exponents,
    _rank,
    isotypic_cohomology,
)
from eqdescent.polynomials import Poly
from eqdescent.randgen import random_action, random_group, random_point, random_valid_complex


def z2_p2_action():
    g = AbelianGroup((2,))
    return ProjectiveAction(g, 2, (g.character((0,)), g.character((0,)), g.character((1,))))


def two_term_example():
    """0 -> O(0)@(1) --x2--> O(1)@(0) -> 0 on the Z/2 P^2 action."""
    act = z2_p2_action()
    g = act.group
    src = TwistedSummand(0, g.character((1,)))
    tgt = TwistedSummand(1, g.character((0,)))
    diff = {0: {(0, 0): Poly(3, {(0, 0, 1): 1})}}
    return act, EquivariantComplex(act, {0: (src,), 1: (tgt,)}, diff)


# ---------------------------------------------------------------------------
# the quadratic reference
# ---------------------------------------------------------------------------

def _mobius(n):
    """The Moebius function of n >= 1, by trial division."""
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if n > 1 else mu


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficients of Phi_m, little-endian: prod_{d | m} (x^d - 1)^{mu(m/d)}."""
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(m // d) == 1:  # poly * (x^d - 1)
            poly = [
                (poly[k - d] if k >= d else 0) - (poly[k] if k < len(poly) else 0)
                for k in range(len(poly) + d)
            ]
    for d in divisors:
        if _mobius(m // d) == -1:  # poly / (x^d - 1)
            q = []
            for k in range(len(poly) - d):
                q.append((q[k - d] if k >= d else 0) - poly[k])
            poly = q
    return tuple(poly)


class CyclotomicField:
    """The powers of zeta_m in Q[z] / Phi_m(z), as integer coefficient
    tuples, built one multiplication by z at a time."""

    def __init__(self, m):
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1
        self._powers = [(1,) + (0,) * (self.degree - 1)]

    def zeta_pow(self, e):
        e %= self.m
        powers = self._powers
        power = powers[-1]
        while len(powers) <= e:
            top = power[-1]
            power = (0,) + power[:-1]
            if top:
                power = tuple(c - top * a for c, a in zip(power, self.modulus))
            powers.append(power)
        return powers[e]


def averaging_reference(complex_, point):
    """isotypic_cohomology by the full average over S for every character."""
    action = complex_.action
    group = action.group
    m = group.exponent
    field = CyclotomicField(m)
    chars = [action.coord_chars[i] for i in point.support]
    elements = [g for g in group.elements if len({chi(g) for chi in chars}) == 1]
    size = len(elements)
    fiber_exp = _fiber_exponents(complex_, point, elements, m)
    degrees = complex_.degrees()
    mats = {}
    for j in degrees:
        if j + 1 not in complex_.terms:
            continue
        rows = [[0] * len(complex_.summands(j)) for _ in complex_.summands(j + 1)]
        for (s, t), p in complex_.differentials.get(j, {}).items():
            rows[t][s] = p.evaluate(point.coords)
        mats[j] = rows
    out = {}
    for table in sorted({tuple(chi(g) for g in elements) for chi in group.characters}):
        kept = {}
        for j in degrees:
            kept[j] = []
            for idx in range(len(complex_.summands(j))):
                counts = Counter((e - v) % m for e, v in zip(fiber_exp[(j, idx)], table))
                powers = [field.zeta_pow(e) for e in counts]
                total = [sum(map(mul, counts.values(), column)) for column in zip(*powers)]
                if total[0] == size and not any(total[1:]):
                    kept[j].append(idx)
                elif any(total):
                    raise InternalConsistencyError(f"entry (1/{size}) * {total} is neither 0 nor 1")
        rank_dp = {
            j: _rank([[row[s] for s in kept[j]] for row in rows]) for j, rows in mats.items()
        }
        for j in degrees:
            dim = len(kept[j]) - rank_dp.get(j, 0) - rank_dp.get(j - 1, 0)
            if dim:
                out[(j, table)] = dim
    return out


# ---------------------------------------------------------------------------
# cyclotomic machinery
# ---------------------------------------------------------------------------

def test_cyclotomic_polynomials_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_degree_is_euler_phi():
    def phi(m):
        return sum(1 for k in range(1, m + 1) if _gcd(k, m) == 1)

    for m in range(1, 25):
        assert len(cyclotomic_polynomial(m)) - 1 == phi(m)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _ptrim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _pdivmod(a, b):
    """Quotient and remainder in Q[x] of little-endian lists; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(x) for x in a]
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = Fraction(b[-1])
    while len(rem) >= len(b) and rem:
        c = rem[-1] / lead
        k = len(rem) - len(b)
        quot[k] = c
        for i in range(len(b)):
            rem[k + i] -= c * b[i]
        _ptrim(rem)
    return _ptrim(quot), rem


def _field_mul(f, a, b):
    """a * b in Q(zeta_m): the product in Q[z], reduced by long division."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    _, rem = _pdivmod(prod, list(f.modulus))
    return tuple(rem) + (0,) * (f.degree - len(rem))


def _vector_sum(f, vectors):
    """Coefficient-wise sum of field elements (integer vectors)."""
    total = [0] * f.degree
    for v in vectors:
        total = [x + y for x, y in zip(total, v)]
    return tuple(total)


def test_field_zeta_has_exact_order():
    for m in (1, 2, 3, 4, 6, 8, 12):
        f = CyclotomicField(m)
        one = f.zeta_pow(0)
        for k in range(1, m):
            assert f.zeta_pow(k) != one
        assert _field_mul(f, f.zeta_pow(1), f.zeta_pow(m - 1)) == one


def test_power_table_matches_long_division():
    """Each table entry is the remainder of z^e on division by Phi_m."""
    for m in range(1, 41):
        f = CyclotomicField(m)
        modulus = [Fraction(c) for c in cyclotomic_polynomial(m)]
        for e in range(-m, 2 * m + 1):
            _, rem = _pdivmod([Fraction(0)] * (e % m) + [Fraction(1)], modulus)
            assert f.zeta_pow(e) == tuple(rem) + (0,) * (f.degree - len(rem)), (m, e)


def test_power_table_is_built_without_recursion():
    """m = 2 * 3 * 5 * 7 * 11: the table runs to z^2309, 480 entries each."""
    f = CyclotomicField(2310)
    assert f.degree == 480
    assert _field_mul(f, f.zeta_pow(2309), f.zeta_pow(1)) == f.zeta_pow(0)


def test_field_root_of_unity_sum_vanishes():
    for m in (2, 3, 4, 5, 6, 12):
        f = CyclotomicField(m)
        total = _vector_sum(f, (f.zeta_pow(e) for e in range(m)))
        assert not any(total)


def test_character_orthogonality_through_the_field():
    """sum_g zeta^{(phi - phi')(g)} = 0 for distinct characters: the fact the
    averaging projectors rely on, checked by honest field arithmetic."""
    rng = random.Random(2025)
    for _ in range(40):
        orders = rng.choice([(2,), (3,), (4,), (2, 2), (6,), (2, 3), (12,)])
        group = AbelianGroup(orders)
        f = CyclotomicField(group.exponent)
        a = group.character(tuple(rng.randrange(n) for n in orders))
        b = group.character(tuple(rng.randrange(n) for n in orders))
        total = _vector_sum(f, (f.zeta_pow(a(g) - b(g)) for g in group.elements))
        if a == b:
            assert total == (group.order,) + (0,) * (f.degree - 1)
        else:
            assert not any(total)


def test_roots_of_unity_cancel_exactly_for_d_above_1():
    """The d-th roots of unity zeta_m^{b m/d}, b < d, sum to 0 for d > 1:
    the identity that makes every factor projector entry of a line 0 but
    one."""
    for m in range(1, 61):
        f = CyclotomicField(m)
        for d in (d for d in range(1, m + 1) if m % d == 0):
            total = _vector_sum(f, (f.zeta_pow(b * (m // d)) for b in range(d)))
            assert any(total) == (d == 1), (m, d)


# ---------------------------------------------------------------------------
# the stabilizer as a direct sum of cyclic groups
# ---------------------------------------------------------------------------

def _order(g, orders):
    return lcm(*(n // gcd(x, n) for x, n in zip(g, orders)))


def _check_decomposition(elements, orders):
    factors, coefficients = _cyclic_decomposition(elements, orders)
    assert prod(q for _, q in factors) == len(elements), (orders, factors)
    for s, q in factors:
        assert s in elements and _order(s, orders) == q, (orders, s, q)
        p = next(d for d in range(2, q + 1) if q % d == 0)
        while q % p == 0:
            q //= p
        assert q == 1, (orders, s)  # m_k is a power of its least prime factor
    sums = Counter([tuple([0] * len(orders))])
    for s, q in factors:
        sums = Counter(
            tuple((x + a * y) % n for x, y, n in zip(g, s, orders))
            for g in sums.elements()
            for a in range(q)
        )
    # every element of S is exactly one sum_k a_k s_k, a_k < m_k
    assert sorted(sums) == list(elements) and set(sums.values()) <= {1}, (orders, factors)
    # and those a_k are its coefficients
    for g, c in zip(elements, coefficients):
        assert len(c) == len(factors) and all(0 <= a < q for a, (_, q) in zip(c, factors))
        total = [0] * len(orders)
        for a, (s, _) in zip(c, factors):
            total = [(x + a * y) % n for x, y, n in zip(total, s, orders)]
        assert tuple(total) == g, (orders, g, c)
    return factors


def test_cyclic_decomposition_of_named_groups():
    for orders, want in [
        ((8, 4, 2), [8, 4, 2]),
        ((2, 2, 2), [2, 2, 2]),
        ((12,), [4, 3]),
        ((6, 10), [2, 2, 3, 5]),
        ((9, 3, 27), [27, 9, 3]),
        ((14, 487), [2, 7, 487]),
        ((1,), []),
    ]:
        group = AbelianGroup(orders)
        factors = _check_decomposition(group.elements, orders)
        assert sorted(q for _, q in factors) == sorted(want), (orders, factors)


def test_cyclic_decomposition_of_random_subgroups():
    """Subgroups generated by random elements of random groups of rank 1
    to 3, among them subgroups of Z/8 x Z/4 x Z/2 and of 2-groups of rank 3."""
    rng = random.Random(11)
    for trial in range(300):
        if trial % 3 == 0:
            orders = (8, 4, 2)
        elif trial % 3 == 1:
            orders = tuple(2 ** rng.randint(1, 4) for _ in range(3))
        else:
            orders = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 3)))
        group = AbelianGroup(orders)
        gens = [rng.choice(group.elements) for _ in range(rng.randint(0, 3))]
        _check_decomposition(Subgroup(group, gens).coords, orders)


# ---------------------------------------------------------------------------
# the factored oracle against the quadratic reference
# ---------------------------------------------------------------------------

def test_factored_oracle_equals_the_full_average_on_random_trials():
    rng = random.Random(20260)
    for trial in range(300):
        group = random_group(rng, max_order=60)
        action = random_action(rng, group)
        complex_ = random_valid_complex(rng, action)
        point = random_point(rng, action.dim + 1)
        assert isotypic_cohomology(complex_, point) == averaging_reference(complex_, point), trial


def _large_instance(orders, chars, coords, seed):
    group = AbelianGroup(orders)
    action = ProjectiveAction(group, len(chars) - 1, tuple(group.character(c) for c in chars))
    return random_valid_complex(random.Random(seed), action), RationalPoint(coords)


def _stabilizer_order(complex_, point):
    chars = [complex_.action.coord_chars[i] for i in point.support]
    return sum(1 for g in complex_.action.group.elements if len({chi(g) for chi in chars}) == 1)


@pytest.mark.parametrize(
    "orders, chars, coords, stabilizer",
    [
        # a non-cyclic 2-group stabilizer, Z/8 x Z/4 x Z/2, in a group of order 2048
        ((8, 4, 64), [(0, 0, 0), (0, 0, 2), (1, 1, 1)], (1, -2, 0), 64),
        # Z/2 x Z/2 x Z/250 (order 1000), stabilizer Z/2 x Z/2 x Z/5
        ((2, 2, 250), [(0, 0, 0), (0, 0, 5), (1, 1, 1)], (1, 4, 0), 20),
        # Z/3 x Z/2928 (order 8784), stabilizer Z/3 x Z/4
        ((3, 2928), [(0, 0), (0, 4), (1, 1)], (5, 2, 0), 12),
    ],
    ids=["Z8xZ4xZ64", "Z2xZ2xZ250", "Z3xZ2928"],
)
def test_factored_oracle_equals_the_full_average_on_large_groups(orders, chars, coords, stabilizer):
    for seed in range(3):
        complex_, point = _large_instance(orders, chars, coords, seed)
        assert _stabilizer_order(complex_, point) == stabilizer
        assert isotypic_cohomology(complex_, point) == averaging_reference(complex_, point), seed


def test_large_stabilizers_agree_with_the_block_route():
    """Stabilizers of order 6,818 (Z/14 x Z/487, the third trial of
    ``selftest-oracle --seed 1 --max-group-order 10000``), 8,028 and 9,998,
    where the quadratic reference would take minutes."""
    rng = random.Random(1)
    trials = []
    for _ in range(6):
        group = random_group(rng, max_order=10000)
        action = random_action(rng, group)
        trials.append((random_valid_complex(rng, action), random_point(rng, action.dim + 1)))
    assert trials[2][0].action.group.orders == (14, 487)
    instances = [trials[2], trials[5], _large_instance((9998,), [(0,), (0,)], (2, 7), 5)]
    assert [_stabilizer_order(*case) for case in instances] == [6818, 8028, 9998]
    for complex_, point in instances:
        via_blocks = {
            (j, phi.values): dim
            for (j, phi), dim in block_cohomology(fiber_restrict(complex_, point)).items()
            if dim
        }
        assert isotypic_cohomology(complex_, point) == via_blocks


def test_a_factor_entry_is_1_only_for_a_character_of_the_factor():
    """s of order 2 acting by zeta_4 is no character of <s>: its two entries
    (1 + i) / 2 and (1 - i) / 2 are neither 0 nor 1, although e(a s) = a e(s)
    for a < 2."""
    assert _factor_value([0, 2], 4) == 2
    assert _factor_value([0], 4) == 0
    for exps in ([0, 1], [0, 3], [2, 0], [1]):
        with pytest.raises(InternalConsistencyError, match="neither 0 nor 1"):
            _factor_value(exps, 4)


def test_a_line_that_is_not_a_character_across_factors_is_an_internal_error(monkeypatch):
    """A wrong exponent at s_1 + s_2 of a Z/2 x Z/2 stabilizer passes every
    cyclic factor but not the check that rho is multiplicative on S."""
    real = oracle_module._fiber_exponents

    def patched(*args):
        exps = real(*args)
        first = next(iter(exps))
        exps[first] = exps[first][:-1] + ((exps[first][-1] + 1) % 2,)
        return exps

    monkeypatch.setattr(oracle_module, "_fiber_exponents", patched)
    group = AbelianGroup((2, 2))
    action = ProjectiveAction(group, 1, (group.character((0, 0)), group.character((0, 0))))
    cpx = bundle_complex(action, TwistedSummand(0, group.trivial_character()))
    with pytest.raises(InternalConsistencyError, match="by a character"):
        isotypic_cohomology(cpx, RationalPoint((1, 1)))


# ---------------------------------------------------------------------------
# the oracle's own rank, and its independence from the block route
# ---------------------------------------------------------------------------

def test_rank_over_q_matches_linalg_rank():
    """The oracle's Fraction elimination against linalg.rank's sparse
    integer elimination, on random rational matrices, low-rank products,
    zero rows and empty shapes."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.integers(-4, 4) | st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))

    def matrix(r, c):
        return st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        nrows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
        kind = data.draw(st.sampled_from(["random", "product", "zero-rows"]))
        if kind == "product":
            # (nrows x k) @ (k x cols) has rank at most k
            k = data.draw(st.integers(0, 3))
            left, right = data.draw(matrix(nrows, k)), data.draw(matrix(k, cols))
            rows = [
                [sum((a * b[j] for a, b in zip(row, right)), Fraction(0)) for j in range(cols)]
                for row in left
            ]
        else:
            rows = data.draw(matrix(nrows, cols))
            if kind == "zero-rows":
                for _ in range(data.draw(st.integers(1, 3))):
                    rows.insert(data.draw(st.integers(0, len(rows))), [0] * cols)
        want = rank(QMatrix(len(rows), cols, tuple(Fraction(x) for row in rows for x in row)))
        assert _rank(rows) == want, (rows, cols)

    check()
    assert _rank([]) == 0
    assert _rank([[], []]) == 0
    assert _rank([[0, 0, 0]]) == 0
    assert _rank([[0, 0, 1], [0, 0, 2]]) == 1
    assert _rank([[1, 0, 0], [0, 0, Fraction(1, 3)]]) == 2


def test_oracle_imports_nothing_from_the_block_route():
    """The two cohomology routes share no linear algebra and no subgroup
    machinery: oracle.py imports neither the descent module nor linalg, nor
    the stabilizer route (``Subgroup``, ``equalizer_subgroup``,
    ``smith_normal_form``, the table and kernel helpers of ``groups``) under
    any module path, and reads no whole-group subgroup, restriction table,
    kernel, cut (``Subgroup.cut``) or cached cut off any object."""
    tree = ast.parse(Path(oracle_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    attributes = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(tuple(alias.name.split(".")) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            imported.add(tuple(module))
            imported.update(tuple(module + [alias.name]) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    assert imported, "no imports parsed"
    assert "values" in attributes, "no attributes parsed"
    forbidden = {
        "descent", "linalg", "Subgroup", "equalizer_subgroup", "smith_normal_form",
        "_product_table", "_product_kernel",
    }
    for parts in imported:
        assert not forbidden.intersection(parts), parts
    assert not attributes & {
        "whole_subgroup", "restrict", "cut", "kernel", "_cuts", "_product_table",
        "_product_kernel",
    }, attributes


# ---------------------------------------------------------------------------
# isotypic cohomology: frozen hand computations
# ---------------------------------------------------------------------------

def test_oracle_two_term_example_at_fixed_line_point():
    """At (1:0:0) the entry x2 evaluates to 0: both lines survive, in
    different characters (the source keeps its twist, the target is
    untwisted because the scalar action there is trivial)."""
    act, cpx = two_term_example()
    dims = isotypic_cohomology(cpx, RationalPoint((1, 0, 0)))
    assert dims == {(0, (0, 1)): 1, (1, (0, 0)): 1}


def test_oracle_two_term_example_at_isolated_fixed_point():
    """At (0:0:1) the entry evaluates to 1 and the complex is exact."""
    act, cpx = two_term_example()
    dims = isotypic_cohomology(cpx, RationalPoint((0, 0, 1)))
    assert dims == {}


def test_oracle_two_term_example_at_free_point():
    """Trivial stabilizer: the only character is trivial; x2(1,1,1) = 1 kills
    everything."""
    act, cpx = two_term_example()
    dims = isotypic_cohomology(cpx, RationalPoint((1, 1, 1)))
    assert dims == {}


def test_oracle_single_bundle_parity():
    """Fiber character of O(d) at (0:0:1) is d mod 2 on the stabilizer."""
    act = z2_p2_action()
    triv = act.group.trivial_character()
    for d in range(-4, 5):
        cpx = bundle_complex(act, TwistedSummand(d, triv))
        dims = isotypic_cohomology(cpx, RationalPoint((0, 0, 1)))
        expected_table = (0, (-d) % 2)
        assert dims == {(0, expected_table): 1}
        # nontrivial character appears exactly for odd d
        assert (expected_table != (0, 0)) == (d % 2 == 1)


def test_oracle_zero_differentials_count_summands():
    act = z2_p2_action()
    g = act.group
    terms = {
        -1: (TwistedSummand(0, g.character((0,))), TwistedSummand(0, g.character((0,)))),
        3: (TwistedSummand(2, g.character((1,))),),
    }
    cpx = EquivariantComplex(act, terms, {})
    dims = isotypic_cohomology(cpx, RationalPoint((0, 0, 1)))
    assert dims == {(-1, (0, 0)): 2, (3, (0, 1)): 1}


def test_oracle_trivial_group():
    g = AbelianGroup((1,))
    act = ProjectiveAction(g, 1, (g.character((0,)), g.character((0,))))
    cpx = EquivariantComplex(
        act,
        {0: (TwistedSummand(0, g.trivial_character()),),
         1: (TwistedSummand(1, g.trivial_character()),)},
        {0: {(0, 0): Poly(2, {(1, 0): 1})}},  # multiplication by x0
    )
    assert isotypic_cohomology(cpx, RationalPoint((1, 1))) == {}
    assert isotypic_cohomology(cpx, RationalPoint((0, 1))) == {
        (0, (0,)): 1,
        (1, (0,)): 1,
    }


def test_oracle_z4_needs_honest_cyclotomic_arithmetic():
    """Z/4 stabilizer: character values are powers of i, not just signs."""
    g = AbelianGroup((4,))
    act = ProjectiveAction(g, 1, (g.character((0,)), g.character((1,))))
    cpx = bundle_complex(act, TwistedSummand(1, g.trivial_character()))
    dims = isotypic_cohomology(cpx, RationalPoint((0, 1)))
    # fiber exponent at g = (k,) is -k mod 4 on elements (0),(1),(2),(3)
    assert dims == {(0, (0, 3, 2, 1)): 1}


def test_a_projector_entry_other_than_0_or_1_is_an_internal_error(one_fiber_exponent_off):
    """One wrong fiber exponent makes an averaged diagonal entry a sum of
    roots of unity that is neither 0 nor |S|; the oracle refuses it."""
    act, cpx = two_term_example()
    with pytest.raises(InternalConsistencyError, match="neither 0 nor 1"):
        isotypic_cohomology(cpx, RationalPoint((1, 0, 0)))

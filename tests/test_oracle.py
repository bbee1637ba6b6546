"""Averaging-projector cohomology oracle over Q(zeta_m).

Expected values in this file are frozen from hand computation; the oracle is
the trust anchor that the block-decomposition path is later checked against,
so nothing here may depend on that path.  The one exception is the
cross-check of the oracle's private rank against ``linalg.rank``: two
independent eliminations that must agree.
"""

import ast
import random
from fractions import Fraction
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
from eqdescent.groups import AbelianGroup
from eqdescent.linalg import QMatrix, rank
from eqdescent.oracle import (
    CyclotomicField,
    _rank,
    cyclotomic_polynomial,
    isotypic_cohomology,
)
from eqdescent.polynomials import Poly


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
    """The two cohomology routes share no linear algebra: oracle.py imports
    neither the descent module nor linalg."""
    tree = ast.parse(Path(oracle_module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(tuple(alias.name.split(".")) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            imported.add(tuple(module))
            imported.update(tuple(module + [alias.name]) for alias in node.names)
    assert imported, "no imports parsed"
    for parts in imported:
        assert "descent" not in parts and "linalg" not in parts, parts


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

"""Exact linear algebra: oracle-checked rank, kernel, Smith normal form.

``rank`` is sparse integer elimination; the dense fraction-free (Bareiss)
elimination it replaced is kept here as its reference.
"""

import copy
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import inverse, matmul, random_unimodular, zeros, zmatrix

from eqdescent.errors import InputError
from eqdescent.linalg import (
    ZMatrix,
    kernel_dim,
    monomial_pivots,
    rank,
    smith_normal_form,
)


# ---------------------------------------------------------------------------
# Determinants for the Smith form checks (the package has no caller).
# ---------------------------------------------------------------------------

def determinant(m: ZMatrix) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_lists()
    sign = 1
    prev = 1
    for col in range(n - 1):
        piv = next((i for i in range(col, n) if a[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                a[i][j] = (a[i][j] * a[col][col] - a[i][col] * a[col][j]) // prev
            a[i][col] = 0
        prev = a[col][col]
    return sign * a[n - 1][n - 1]


def is_unimodular(m: ZMatrix) -> bool:
    return m.rows == m.cols and determinant(m) in (1, -1)


# ---------------------------------------------------------------------------
# Independent oracles (no elimination): minors only.
# ---------------------------------------------------------------------------

def cofactor_det(rows):
    """Determinant by cofactor expansion (exact, Fraction-safe)."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


def minor_rank_oracle(rows, ncols):
    """Rank = largest k with some nonzero k x k minor."""
    nrows = len(rows)
    for k in range(min(nrows, ncols), 0, -1):
        for ris in itertools.combinations(range(nrows), k):
            for cis in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                if cofactor_det(sub) != 0:
                    return k
    return 0


def gcd_ladder_oracle(rows, ncols):
    """Nonzero Smith invariants from the gcd-of-k x k-minors ladder.

    d_1 * ... * d_k = gcd of all k x k minors; returns [d_1, ..., d_r].
    """
    nrows = len(rows)
    ladder = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for ris in itertools.combinations(range(nrows), k):
            for cis in itertools.combinations(range(ncols), k):
                sub = [[rows[i][j] for j in cis] for i in ris]
                g = gcd(g, int(cofactor_det(sub)))
        if g == 0:
            break
        ladder.append(g // prev)
        prev = g
    return ladder


def bareiss_rank(rows, ncols):
    """Rank over Q of an integer matrix by dense one-step fraction-free
    (Bareiss) elimination.  Every intermediate entry is a minor divided by
    the previous pivot, exact by Sylvester's identity (Bareiss 1968)."""
    a = [list(row) for row in rows]
    nrows = len(a)
    r = 0
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        pivot = top[col]
        tail = top[col + 1 :]
        for i in range(r + 1, nrows):
            row = a[i]
            head = row[col]
            if head:
                row[col + 1 :] = [
                    (x * pivot - head * y) // prev for x, y in zip(row[col + 1 :], tail)
                ]
            elif pivot != prev:
                row[col + 1 :] = [x * pivot // prev for x in row[col + 1 :]]
        prev = pivot
        r += 1
        if r == nrows:
            break
    return r


def zmultiply(a, b):
    """The product of two ZMatrix."""
    assert a.cols == b.rows
    return zmatrix(matmul(a.to_lists(), b.to_lists()), b.cols)


def transpose(m):
    """The transpose of a ZMatrix."""
    return zmatrix([[row[j] for row in m.to_lists()] for j in range(m.cols)], m.rows)


def identity(n):
    """The n x n identity ZMatrix."""
    return zmatrix([[int(i == j) for j in range(n)] for i in range(n)], n)


def random_zmatrix(rng, max_dim=4, lo=-9, hi=9):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return ZMatrix.from_rows([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


# ---------------------------------------------------------------------------
# rank / kernel_dim
# ---------------------------------------------------------------------------

def test_rank_identity_and_zero():
    assert rank(identity(2)) == 2
    assert rank(zeros(3, 3)) == 0
    assert kernel_dim(identity(3)) == 0


def test_rank_dependent_rows():
    m = ZMatrix.from_rows([[1, 2], [2, 4], [3, 6]])
    assert rank(m) == 1
    assert minor_rank_oracle(m.to_lists(), 2) == 1


def test_kernel_dim_single_zero_row():
    assert kernel_dim(zeros(1, 3)) == 3


def test_rank_matches_minor_oracle_randomized():
    rng = random.Random(20260814)
    for _ in range(200):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)]
        assert rank(ZMatrix.from_rows(rows)) == minor_rank_oracle(rows, c)


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(100):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = ZMatrix.from_rows([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
        assert rank(m) == rank(transpose(m))


def test_rank_low_rank_products():
    # Outer products have rank <= 1 regardless of size.
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 5)
        u = [rng.randint(-3, 3) for _ in range(n)]
        v = [rng.randint(-3, 3) for _ in range(n)]
        m = ZMatrix.from_rows([[ui * vj for vj in v] for ui in u])
        expected = 1 if any(u) and any(v) else 0
        assert rank(m) == expected


def test_integer_rank_equals_rational_rank():
    # The rank over Q, by the dense Bareiss reference.  Products of r x k and
    # k x c integer factors have rank at most k, so the corpus is rich in
    # rank-deficient matrices; up to 20 x 15, the largest fiber block size
    # the descent decision sees on P^6.
    rng = random.Random(1968)
    for _ in range(150):
        r, c, k = rng.randint(0, 20), rng.randint(0, 15), rng.randint(0, 6)
        left = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)]
        right = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(k)]
        rows = [
            [sum(left[i][t] * right[t][j] for t in range(k)) for j in range(c)] for i in range(r)
        ]
        m = zmatrix(rows, c)
        assert rank(m) == bareiss_rank(rows, c) <= min(r, c, k)
        if r <= 4 and c <= 4:
            assert rank(m) == minor_rank_oracle(rows, c)


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = random_unimodular(rng, n)
        assert rank(zmatrix(m, n)) == n
        one = [[int(i == j) for j in range(n)] for i in range(n)]
        assert matmul(m, inverse(m)) == matmul(inverse(m), m) == one


def test_inverse_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        inverse([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="not integral"):
        inverse([[2, 0], [0, 1]])


def test_inexact_matrix_entries_are_refused():
    for bad in (0.5, "1/2"):
        with pytest.raises(InputError, match="matrix entry is not an int"):
            ZMatrix.from_rows([[1, bad]])


def test_integer_matrix_entries_that_are_not_ints_are_refused():
    for bad in (1.5, 2.0, "7", True, False, Fraction(3), Fraction(1, 2)):
        with pytest.raises(InputError, match="not an int"):
            ZMatrix.from_rows([[1, bad]])
    for row in (True, 1, [1]):
        with pytest.raises(InputError):
            ZMatrix(1, 1, (row,))
    for entry in ({0: True}, {0: 1.0}, {0: Fraction(1)}, {0: 0}, {1: 1}, {-1: 1}, {True: 1}):
        with pytest.raises(InputError):
            ZMatrix(1, 1, (entry,))
    with pytest.raises(InputError):
        ZMatrix(2, 1, ({0: 1},))
    with pytest.raises(InputError):
        ZMatrix.from_rows([[1, 2], [3]])


def test_integer_matrix_stores_nonzero_entries_only():
    m = ZMatrix.from_rows([[0, 5, 0], [0, 0, 0], [-2, 0, 1]])
    assert m.sparse_rows == ({1: 5}, {}, {0: -2, 2: 1})
    assert m.to_lists() == [[0, 5, 0], [0, 0, 0], [-2, 0, 1]]
    assert m == zmatrix(m.to_lists(), 3)
    assert ZMatrix(0, 4, ()).to_lists() == [] and rank(ZMatrix(0, 4, ())) == 0
    assert ZMatrix(3, 0, ({}, {}, {})).to_lists() == [[], [], []]


def test_rank_matches_dense_bareiss():
    """Sparse elimination against the dense Bareiss reference: dense random
    matrices and low-rank products with large entries, Koszul-shaped +-1
    maps and sparse +-1 matrices, each with zero rows and columns spliced
    in, empty shapes included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    large = st.integers(-(10**12), 10**12)
    unit_or_zero = st.sampled_from([0, 0, 0, 1, -1])

    def matrix(entry, r, c):
        return st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)

    def koszul_map(data):
        # e_S -> sum_pos (-1)^pos c_i e_{S - i} from k-subsets to (k-1)-subsets
        n = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, n))
        coeffs = data.draw(st.lists(st.sampled_from([0, 1, -1, 2, -3]), min_size=n, max_size=n))
        sources = list(itertools.combinations(range(n), k))
        targets = {t: i for i, t in enumerate(itertools.combinations(range(n), k - 1))}
        rows = [[0] * len(sources) for _ in targets]
        for a, s in enumerate(sources):
            for pos, i in enumerate(s):
                rows[targets[s[:pos] + s[pos + 1 :]]][a] = (-1) ** pos * coeffs[i]
        return rows, len(sources)

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        kind = data.draw(st.sampled_from(["dense", "product", "koszul", "sparse"]))
        nrows, ncols = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
        if kind == "dense":
            rows = data.draw(matrix(large, nrows, ncols))
        elif kind == "product":
            # (nrows x k) @ (k x ncols) has rank at most k; entries reach 10^25
            k = data.draw(st.integers(0, 4))
            left, right = data.draw(matrix(large, nrows, k)), data.draw(matrix(large, k, ncols))
            rows = [[sum(a * b[j] for a, b in zip(row, right)) for j in range(ncols)] for row in left]
        elif kind == "koszul":
            rows, ncols = koszul_map(data)
        else:
            rows = data.draw(matrix(unit_or_zero, nrows, ncols))
        for _ in range(data.draw(st.integers(0, 2))):
            rows.insert(data.draw(st.integers(0, len(rows))), [0] * ncols)
        for _ in range(data.draw(st.integers(0, 2))):
            at = data.draw(st.integers(0, ncols))
            rows = [row[:at] + [0] + row[at:] for row in rows]
            ncols += 1
        m = zmatrix(rows, ncols)
        before = copy.deepcopy(m.sparse_rows)
        assert rank(m) == bareiss_rank(rows, ncols) <= min(len(rows), ncols), (rows, ncols)
        assert m.sparse_rows == before  # rank reads the rows, never writes them

    check()


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def assert_snf_contract(m):
    diag, (u, v) = smith_normal_form(m)
    # transforms are unimodular and realize the diagonal
    assert is_unimodular(u)
    assert is_unimodular(v)
    prod = zmultiply(zmultiply(u, m), v)
    assert prod.to_lists() == [
        [diag[i] if i == j else 0 for j in range(prod.cols)] for i in range(prod.rows)
    ]
    # nonnegative divisibility chain
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def test_smith_identity():
    diag = assert_snf_contract(ZMatrix.from_rows([[1, 0], [0, 1]]))
    assert diag == [1, 1]


def test_smith_already_diagonal():
    diag = assert_snf_contract(ZMatrix.from_rows([[2, 0], [0, 4]]))
    assert diag == [2, 4]


def test_smith_2x2_frozen_case():
    # gcd of entries 2; |det| = |16 - 24| = 8 = d1 * d2, so d2 = 4.
    m = ZMatrix.from_rows([[2, 4], [6, 8]])
    diag = assert_snf_contract(m)
    assert diag == [2, 4]
    assert diag[0] * diag[1] == abs(determinant(m))


def test_smith_needs_divisibility_fix():
    # diag(2, 3) is not a divisibility chain; SNF must produce [1, 6].
    diag = assert_snf_contract(ZMatrix.from_rows([[2, 0], [0, 3]]))
    assert diag == [1, 6]


def test_smith_zero_matrix():
    diag = assert_snf_contract(ZMatrix.from_rows([[0, 0], [0, 0]]))
    assert diag == [0, 0]


def test_smith_rectangular():
    diag = assert_snf_contract(ZMatrix.from_rows([[2, 4, 6]]))
    assert diag == [2]
    diag = assert_snf_contract(ZMatrix.from_rows([[3], [6]]))
    assert diag == [3]


def test_smith_gcd_ladder_exhaustive_2x2():
    vals = range(-3, 4)
    for a, b, c, d in itertools.product(vals, repeat=4):
        m = ZMatrix.from_rows([[a, b], [c, d]])
        diag, _ = smith_normal_form(m)
        nonzero = [x for x in diag if x != 0]
        assert nonzero == gcd_ladder_oracle(m.to_lists(), 2), m.to_lists()


@pytest.mark.parametrize("shape", [(2, 3), (3, 2)])
def test_smith_gcd_ladder_exhaustive_rectangular(shape):
    r, c = shape
    vals = range(-2, 3)
    for flat in itertools.product(vals, repeat=r * c):
        rows = [list(flat[i * c : (i + 1) * c]) for i in range(r)]
        m = ZMatrix.from_rows(rows)
        diag, _ = smith_normal_form(m)
        nonzero = [x for x in diag if x != 0]
        assert nonzero == gcd_ladder_oracle(rows, c), rows


def test_smith_gcd_ladder_sampled_3x3():
    rng = random.Random(314159)
    for _ in range(2000):
        rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        m = ZMatrix.from_rows(rows)
        diag = assert_snf_contract(m)
        nonzero = [x for x in diag if x != 0]
        assert nonzero == gcd_ladder_oracle(rows, 3), rows


def test_smith_product_equals_abs_det_randomized():
    rng = random.Random(271828)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = ZMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        )
        diag, _ = smith_normal_form(m)
        prod = 1
        for d in diag:
            prod *= d
        assert prod == abs(determinant(m))


def test_smith_contract_randomized():
    rng = random.Random(4242)
    for _ in range(300):
        assert_snf_contract(random_zmatrix(rng))


def test_rank_invariant_under_unimodular_transforms():
    rng = random.Random(717)
    for _ in range(100):
        m = random_zmatrix(rng, max_dim=4, lo=-5, hi=5)
        _, (u, v) = smith_normal_form(m)
        transformed = zmultiply(zmultiply(u, m), v)
        assert rank(m) == rank(transformed)


def test_fraction_contract():
    # Exactness guarantees the package relies on, asserted once.
    x = Fraction(4, -6)
    assert (x.numerator, x.denominator) == (-2, 3)  # lowest terms, positive denom
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert hash(Fraction(2, 1)) == hash(2)


def test_monomial_pivots_take_only_monomials():
    """Rows of {column: {exponents: int}}: [[x0, x1], [x1, x0]] has a
    monomial first pivot, but the second row becomes x0^2 - x1^2, so only
    one monomial pivot exists; [[x0, x1], [x0, 2 x1]] leaves x0 x1, divided
    by its monomial content to 1, so both pivots are found.  The rows are
    not modified, and a budget too small for one row update runs out."""
    x0, x1 = {(1, 0): 1}, {(0, 1): 1}
    square = [{0: x0, 1: x1}, {0: x1, 1: x0}]
    before = repr(square)
    assert monomial_pivots(square, 1, 100) == 100
    assert monomial_pivots(square, 2, 100) is None
    assert repr(square) == before
    unit = [{0: x0, 1: x1}, {0: x0, 1: {(0, 1): 2}}]
    assert monomial_pivots(unit, 2, 100) == 100 - 3  # one update: 2 + 1 * 1 terms
    assert monomial_pivots(unit, 2, 1) < 0
    assert monomial_pivots([{}, {1: {(0, 0): 3}}], 1, 0) == 0


def test_monomial_pivots_ignore_unit_row_scalings():
    """Scaling each row by a nonzero constant times a monomial, a unit where
    the variables are nonzero, leaves what ``monomial_pivots`` returns
    unchanged, at every budget: term counts, single-term entries and
    cancellations are all the same, so dividing an updated row by its
    monomial content changes no pivot and no budget charge."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        nvars = data.draw(st.integers(1, 3))
        exps = st.tuples(*[st.integers(0, 2)] * nvars)
        coeff = st.integers(-3, 3).filter(bool)
        entry = st.dictionaries(exps, coeff, min_size=1, max_size=3)
        nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        rows = [
            data.draw(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols))
            for _ in range(nrows)
        ]
        scaled = []
        for row in rows:
            c, m = data.draw(st.integers(-5, 5).filter(bool)), data.draw(exps)
            scaled.append({
                j: {tuple(a + b for a, b in zip(e, m)): c * x for e, x in f.items()}
                for j, f in row.items()
            })
        target = data.draw(st.integers(1, min(nrows, ncols)))
        for budget in (5, 20, 100, 10**6):
            want = monomial_pivots(rows, target, budget)
            assert monomial_pivots(scaled, target, budget) == want, (rows, scaled, target, budget)

    check()

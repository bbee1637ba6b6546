"""Exact linear algebra: oracle-checked rank, kernel, Smith normal form."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from eqdescent.errors import InputError
from eqdescent.linalg import (
    QMatrix,
    ZMatrix,
    determinant,
    is_unimodular,
    kernel_basis,
    kernel_dim,
    rank,
    smith_normal_form,
)


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


def random_zmatrix(rng, max_dim=4, lo=-9, hi=9):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return ZMatrix.from_rows([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


# ---------------------------------------------------------------------------
# rank / kernel_dim
# ---------------------------------------------------------------------------

def test_rank_identity_and_zero():
    assert rank(QMatrix.identity(2)) == 2
    assert rank(QMatrix.zeros(3, 3)) == 0
    assert kernel_dim(QMatrix.identity(3)) == 0


def test_rank_dependent_rows():
    m = QMatrix.from_rows([[1, 2], [2, 4], [3, 6]])
    assert rank(m) == 1
    assert minor_rank_oracle(m.to_lists(), 2) == 1


def test_kernel_dim_single_zero_row():
    assert kernel_dim(QMatrix.zeros(1, 3)) == 3


def test_rank_with_fractions():
    m = QMatrix.from_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    )
    assert rank(m) == minor_rank_oracle(m.to_lists(), 2)


def test_rank_matches_minor_oracle_randomized():
    rng = random.Random(20260814)
    for _ in range(200):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(c)]
            for _ in range(r)
        ]
        m = QMatrix.from_rows(rows)
        assert rank(m) == minor_rank_oracle(rows, c)


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(100):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(c)] for _ in range(r)]
        m = QMatrix.from_rows(rows)
        assert rank(m) == rank(m.transpose())


def test_rank_low_rank_products():
    # Outer products have rank <= 1 regardless of size.
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 5)
        u = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        m = QMatrix.from_rows([[ui * vj for vj in v] for ui in u])
        expected = 1 if any(u) and any(v) else 0
        assert rank(m) == expected


def test_integer_rank_equals_rational_rank():
    # Products of r x k and k x c integer factors have rank at most k, so the
    # corpus is rich in rank-deficient matrices; up to 20 x 15, the largest
    # fiber block size the descent decision sees on P^6.
    rng = random.Random(1968)
    for _ in range(150):
        r, c, k = rng.randint(0, 20), rng.randint(0, 15), rng.randint(0, 6)
        left = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(r)]
        right = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(k)]
        m = ZMatrix(r, c, tuple(
            sum(left[i][t] * right[t][j] for t in range(k)) for i in range(r) for j in range(c)
        ))
        assert rank(m) == rank(m.to_qmatrix()) <= min(r, c, k)
        if r <= 4 and c <= 4:
            assert rank(m) == minor_rank_oracle(m.to_lists(), c)


def test_inverse_round_trip():
    rng = random.Random(3)
    count = 0
    while count < 20:
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        m = QMatrix.from_rows(rows)
        if rank(m) < n:
            continue
        count += 1
        assert m.multiply(m.inverse()) == QMatrix.identity(n)


def test_inverse_singular_raises():
    with pytest.raises(ValueError):
        QMatrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_inexact_matrix_entries_are_refused():
    with pytest.raises(InputError, match="matrix entry: 0.5"):
        QMatrix.from_rows([[1, 0.5]])
    assert QMatrix.from_rows([["1/2", 3]]).entries == (Fraction(1, 2), Fraction(3))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def assert_snf_contract(m):
    diag, (u, v) = smith_normal_form(m)
    # transforms are unimodular and realize the diagonal
    assert is_unimodular(u)
    assert is_unimodular(v)
    prod = u.multiply(m).multiply(v)
    for i in range(prod.rows):
        for j in range(prod.cols):
            expected = diag[i] if i == j and i < len(diag) else 0
            assert prod.entry(i, j) == expected
    # nonnegative divisibility chain
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def test_smith_identity():
    diag = assert_snf_contract(ZMatrix.identity(2))
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
        transformed = u.multiply(m).multiply(v)
        assert rank(m.to_qmatrix()) == rank(transformed.to_qmatrix())


def test_kernel_basis_solves_and_spans():
    rng = random.Random(555)
    for _ in range(100):
        m = random_zmatrix(rng, max_dim=4, lo=-4, hi=4)
        basis = kernel_basis(m)
        # every basis vector is a solution
        for vec in basis:
            for i in range(m.rows):
                assert sum(m.entry(i, j) * vec[j] for j in range(m.cols)) == 0
        # count matches the rank-nullity expectation over Q
        assert len(basis) == m.cols - rank(m.to_qmatrix())


def test_fraction_contract():
    # Exactness guarantees the package relies on, asserted once.
    x = Fraction(4, -6)
    assert (x.numerator, x.denominator) == (-2, 3)  # lowest terms, positive denom
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert hash(Fraction(2, 1)) == hash(2)

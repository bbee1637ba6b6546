"""Exact linear algebra over the integers and the rationals.

Everything here is exact.  Rank is computed by fraction-free (Bareiss)
elimination on integer rows: an integer matrix (``ZMatrix``, what the fiber
blocks of the descent decision are) is eliminated as it is, and a rational
matrix (``QMatrix``) first has each row scaled by the lcm of its
denominators, which does not change the rank.  Smith normal form is computed
over the integers with the unimodular transforms returned.  No floating point
is used anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import as_rational


@dataclass(frozen=True)
class QMatrix:
    """Immutable rational matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple  # tuple[Fraction, ...], length rows * cols

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows_data) -> "QMatrix":
        rows_data = [list(r) for r in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        ents = []
        for r in rows_data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            ents.extend(as_rational(x, "matrix entry") for x in r)
        return cls(nrows, ncols, tuple(ents))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        ents = [Fraction(0)] * (n * n)
        for i in range(n):
            ents[i * n + i] = Fraction(1)
        return cls(n, n, tuple(ents))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "QMatrix":
        ents = tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        )
        return QMatrix(self.cols, self.rows, ents)

    def multiply(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                s = Fraction(0)
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        s += a * other.entries[k * other.cols + j]
                out.append(s)
        return QMatrix(self.rows, other.cols, tuple(out))

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def inverse(self) -> "QMatrix":
        """Exact inverse by Gauss-Jordan; raises ValueError if singular."""
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        a = self.to_lists()
        inv = QMatrix.identity(n).to_lists()
        for col in range(n):
            piv = next((i for i in range(col, n) if a[i][col] != 0), None)
            if piv is None:
                raise ValueError("matrix is singular")
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            p = a[col][col]
            a[col] = [x / p for x in a[col]]
            inv[col] = [x / p for x in inv[col]]
            for i in range(n):
                if i != col and a[i][col]:
                    f = a[i][col]
                    a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                    inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
        return QMatrix.from_rows(inv)


@dataclass(frozen=True)
class ZMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple  # tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(isinstance(e, int) for e in self.entries):
            raise TypeError("ZMatrix entries must be ints")

    @classmethod
    def from_rows(cls, rows_data) -> "ZMatrix":
        rows_data = [list(r) for r in rows_data]
        nrows = len(rows_data)
        ncols = len(rows_data[0]) if rows_data else 0
        ents = []
        for r in rows_data:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            ents.extend(int(x) for x in r)
        return cls(nrows, ncols, tuple(ents))

    @classmethod
    def identity(cls, n: int) -> "ZMatrix":
        ents = [0] * (n * n)
        for i in range(n):
            ents[i * n + i] = 1
        return cls(n, n, tuple(ents))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_lists(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def multiply(self, other: "ZMatrix") -> "ZMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(
                    sum(ri[k] * other.entries[k * other.cols + j] for k in range(self.cols))
                )
        return ZMatrix(self.rows, other.cols, tuple(out))

    def to_qmatrix(self) -> QMatrix:
        return QMatrix(self.rows, self.cols, tuple(Fraction(e) for e in self.entries))


def rank(m) -> int:
    """Rank of a ZMatrix or a QMatrix by fraction-free (Bareiss) elimination.

    A QMatrix has each row scaled by the lcm of its denominators first.  The
    one-step Bareiss recurrence then keeps every intermediate entry an
    integer: each is a minor of the matrix divided by the previous pivot,
    exact by Sylvester's identity (Bareiss 1968), so there is no rational
    blow-up and no rounding ever.
    """
    if isinstance(m, QMatrix):
        a = []
        for i in range(m.rows):
            row = m.row(i)
            scale = lcm(*(x.denominator for x in row))
            a.append([x.numerator * (scale // x.denominator) for x in row])
    else:
        a = m.to_lists()
    nrows, ncols = m.rows, m.cols
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
        # Only the columns right of the pivot are read again; a row with a
        # zero head is just scaled by pivot / prev.
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


def kernel_dim(m) -> int:
    """Dimension of the right kernel: cols - rank."""
    return m.cols - rank(m)


def smith_normal_form(m: ZMatrix):
    """Smith normal form with transforms: returns (diag, (U, V)).

    ``U`` (rows x rows) and ``V`` (cols x cols) are unimodular and satisfy
    ``U * m * V == diag(d_1, ..., d_k)`` with nonnegative invariant factors
    in a divisibility chain d_1 | d_2 | ... (trailing zeros allowed).
    ``diag`` has length min(rows, cols).

    Classic pivot-and-clear algorithm: move a smallest nonzero entry to the
    pivot position, reduce its row and column by division with remainder
    (swapping a nonzero remainder into the pivot strictly shrinks it, so the
    inner loop terminates), then absorb any entry of the remaining block not
    divisible by the pivot and redo.  Row operations are mirrored into U,
    column operations into V, so the transform identity holds throughout.
    """
    a = m.to_lists()
    nrows, ncols = m.rows, m.cols
    u = ZMatrix.identity(nrows).to_lists()
    v = ZMatrix.identity(ncols).to_lists()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    def reduce_at(t):
        """Diagonalize position t against the trailing block; pivot assumed nonzero."""
        while True:
            # Bring a smallest-magnitude nonzero entry of the block to (t, t):
            # keeps the quotient-remainder steps shrinking fast.
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return False
            if best[0] != t:
                swap_rows(t, best[0])
            if best[1] != t:
                swap_cols(t, best[1])
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue
            return True

    t = 0
    bound = min(nrows, ncols)
    while t < bound:
        if not reduce_at(t):
            break  # trailing block is zero
        # Divisibility sweep: fold any non-multiple of the pivot into row t.
        offender = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue  # re-reduce at the same t with the smaller gcd available
        t += 1

    for i in range(bound):
        if a[i][i] < 0:
            negate_row(i)

    diag = [a[i][i] for i in range(bound)]
    return diag, (ZMatrix.from_rows(u), ZMatrix.from_rows(v))


def kernel_basis(m: ZMatrix) -> list:
    """Basis of the integer kernel lattice {x : m @ x = 0}, as column vectors."""
    diag, (_, v) = smith_normal_form(m)
    nonzero = sum(1 for d in diag if d != 0)
    return [list(v.column(j)) for j in range(nonzero, m.cols)]


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

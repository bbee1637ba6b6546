"""Exact linear algebra over the integers.

Everything here is exact; no floating point is used anywhere in this
package.  The one matrix type is ``ZMatrix``, an integer matrix, which is
what the fiber blocks of the descent decision are.  It is stored sparsely,
as one ``{column: nonzero int}`` dict per row, because those blocks are
mostly zeros: a Koszul block has one entry +-x_i per pair of summands it
joins.  Those rows are all it offers, apart from ``to_lists``, the dense
copy Smith normal form works on.  Rank is exact sparse integer elimination
on those rows, with the pivot taken from the sparsest remaining row and
each updated row divided by its content.  A rational matrix has no type
of its own: scaling each row by the lcm of its denominators makes it an
integer matrix of the same rank.  ``monomial_pivots`` eliminates a matrix of
integer polynomials the same way, but takes only monomials as pivots.
Smith normal form is computed over the integers with the unimodular
transforms returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import add

from .errors import InputError


@dataclass(frozen=True)
class ZMatrix:
    """Immutable integer matrix, one {column: nonzero int} dict per row.

    Zeros are not stored.  Every stored entry must be exactly an ``int``
    (not a ``bool``) in a column inside the shape; the matrix owns its row
    dicts and nothing here mutates them.  ``ZMatrix(...)`` checks this;
    fiber blocks, of values computed here, use the unchecked ``_raw``.
    """

    rows: int
    cols: int
    sparse_rows: tuple  # tuple[dict[int, int], ...], length rows

    def __post_init__(self):
        if type(self.rows) is not int or type(self.cols) is not int or min(self.rows, self.cols) < 0:
            raise InputError("matrix dimensions must be nonnegative ints")
        if len(self.sparse_rows) != self.rows:
            raise InputError(f"expected {self.rows} rows, got {len(self.sparse_rows)}")
        cols = self.cols
        for i, row in enumerate(self.sparse_rows):
            if type(row) is not dict:
                raise InputError(f"row {i} is not a {{column: int}} dict: {row!r}")
            for j, x in row.items():
                if type(x) is not int or not x or type(j) is not int or not 0 <= j < cols:
                    raise InputError(
                        f"row {i} stores {j!r}: {x!r}, not a column and a nonzero int"
                    )

    @classmethod
    def _raw(cls, rows: int, cols: int, sparse_rows: tuple) -> "ZMatrix":
        """The matrix of ``sparse_rows``, rows as described above, unchecked."""
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, sparse_rows=sparse_rows)
        return m

    @classmethod
    def from_rows(cls, rows_data) -> "ZMatrix":
        rows_data = [list(r) for r in rows_data]
        ncols = len(rows_data[0]) if rows_data else 0
        sparse = []
        for r in rows_data:
            if len(r) != ncols:
                raise InputError("ragged rows")
            for x in r:
                if type(x) is not int:
                    raise InputError(f"matrix entry is not an int: {x!r}")
            sparse.append({j: x for j, x in enumerate(r) if x})
        return cls(len(rows_data), ncols, tuple(sparse))

    def to_lists(self) -> list:
        """Every entry, zeros included, one list per row (a dense copy)."""
        return [[row.get(j, 0) for j in range(self.cols)] for row in self.sparse_rows]


def rank(m: ZMatrix) -> int:
    """Rank of a ZMatrix by exact sparse integer elimination.

    Each step takes the sparsest remaining row as the pivot row and its first
    stored entry as the pivot.  Every other row with an entry in the pivot
    column becomes a*row - b*pivot_row, where (a, b) are the pivot and that
    entry divided by their gcd, which clears the entry; the row is then
    divided by its content (the gcd of its entries) to keep the integers
    small.  These are invertible row operations over Q, and afterwards the
    pivot column is nonzero in the pivot row alone, so the rank is one plus
    the rank of the other rows.  Rows without an entry in the pivot column
    are left as they are, and zero entries are never stored or visited.
    """
    live = [row for row in m.sparse_rows if row]
    r = 0
    while live:
        top = min(live, key=len)
        col = next(iter(top))
        pivot = top[col]
        r += 1
        rest = []
        for row in live:
            if row is top:
                continue
            head = row.get(col)
            if head is None:
                rest.append(row)
                continue
            g = gcd(pivot, head)
            a, b = pivot // g, head // g
            new = {j: a * x for j, x in row.items() if j != col}
            for j, y in top.items():
                if j != col:
                    x = new.get(j, 0) - b * y
                    if x:
                        new[j] = x
                    else:
                        del new[j]
            if new:
                content = gcd(*new.values())
                if content != 1:
                    new = {j: x // content for j, x in new.items()}
                rest.append(new)
        live = rest
    return r


def monomial_pivots(rows: list, target: int, budget: int):
    """Eliminate a polynomial matrix over Z[x] with monomial pivots only.

    ``rows`` holds one {column: {exponents: nonzero int}} dict per row; no
    dict in it is modified.  Each step takes the sparsest row with a
    monomial entry as the pivot row and that entry u as the pivot.  Every
    other row with an entry f in the pivot column becomes
    u*row - f*pivot_row, which clears the column, and is divided by its
    monomial content (the gcd of its coefficients times the largest monomial
    dividing every term), a unit where the variables are nonzero.  The pivot
    row then leaves the matrix.  So the pivots found index a square
    submatrix whose determinant is, up to such units, the product of the
    pivots: a monomial, nonzero wherever the variables are.  The budget
    counts term products, each row update charged before it is made.

    A row times a nonzero constant times a monomial has the same term
    counts, single-term entries and cancellations, so the division changes
    nothing returned; it keeps an updated row's coefficients from doubling
    in length at each step, as they do when every earlier pivot is kept.

    Returns the budget left once ``target`` pivots are found; None when no
    row has a monomial entry before that; a negative number when a row
    update would take the term products spent past ``budget``.
    """
    live = [row for row in rows if row]
    found = 0
    while found < target:
        for top in sorted(live, key=len):
            col = next((c for c, f in top.items() if len(f) == 1), None)
            if col is not None:
                break
        else:
            return None
        found += 1
        if found == target:
            break
        ((ue, uc),) = top[col].items()
        pivot_terms = sum(map(len, top.values())) - 1
        rest = []
        for row in live:
            if row is top:
                continue
            f = row.get(col)
            if f is None:
                rest.append(row)
                continue
            budget -= sum(map(len, row.values())) + len(f) * pivot_terms
            if budget < 0:
                return budget
            new = {
                c: {tuple(map(add, e, ue)): a * uc for e, a in g.items()}
                for c, g in row.items()
                if c != col
            }
            for c, h in top.items():
                if c == col:
                    continue
                acc = new.setdefault(c, {})
                for e1, a in f.items():
                    for e2, b in h.items():
                        e = tuple(map(add, e1, e2))
                        x = acc.get(e, 0) - a * b
                        if x:
                            acc[e] = x
                        else:
                            del acc[e]
                if not acc:
                    del new[c]
            if new:
                rest.append(_divide_monomial_content(new))
        live = rest
    return budget


def _divide_monomial_content(row: dict) -> dict:
    """The row divided by the gcd of its coefficients and by the largest
    monomial dividing all its terms."""
    terms = [t for g in row.values() for t in g.items()]
    content = gcd(*(a for _, a in terms))
    low = tuple(map(min, *(e for e, _ in terms))) if len(terms) > 1 else terms[0][0]
    if content == 1 and not any(low):
        return row
    return {
        c: {tuple(x - y for x, y in zip(e, low)): a // content for e, a in g.items()}
        for c, g in row.items()
    }


def kernel_dim(m: ZMatrix) -> int:
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
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]

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


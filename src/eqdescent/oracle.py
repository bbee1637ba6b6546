"""Independent cohomology oracle over the cyclotomic field Q(zeta_m).

The fast path elsewhere in the package computes fiber cohomology by first
splitting the fiber complex into character blocks and doing integer linear
algebra per block.  This module cross-checks it by the textbook route with
no block bookkeeping at all:

  * find the stabilizer by filtering all of G for the elements on which
    the supported coordinate characters agree, not by Smith normal form
    and subgroup closure;
  * model Q(zeta_m) exactly as Q[z] / Phi_m(z) (Phi_m the m-th cyclotomic
    polynomial, computed by dividing x^m - 1 by all lower Phi_d);
  * build the *un-decomposed* fiber complex at a point, one basis line per
    summand, with raw evaluated entries p(x) and the stabilizer acting
    diagonally by powers of zeta;
  * for each character phi of the stabilizer form the averaging projector
        e_phi = (1/|S|) * sum_g phi(g)^{-1} rho(g)
    and read isotypic cohomology dimensions off ranks over Q(zeta_m):
        dim H^j_phi = rank(P_j) - rank(d_j P_j) - rank(d_{j-1} P_{j-1}).
    The action is diagonal, so P_j is diagonal: it is kept as its diagonal,
    rank(P_j) is the number of nonzero entries there, and d_j P_j is d_j
    with each column scaled by the matching entry.

Raw entries differ from the trivialized (rescaling-invariant) ones only by
conjugation with a diagonal matrix commuting with the group action, so the
isotypic dimensions must agree exactly; the fast path relies on the same
argument to use raw entries at integer coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .action import RationalPoint
from .complexes import EquivariantComplex, InternalConsistencyError
from .groups import InputError

# ---------------------------------------------------------------------------
# dense univariate polynomial helpers (little-endian Fraction lists)
# ---------------------------------------------------------------------------

def _ptrim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim([
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ])


def _pscale(a, c):
    return _ptrim([x * c for x in a])


def _pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a, b):
    """Quotient and remainder in Q[x]; b must be nonzero."""
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


def _pgcdext(a, b):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = [Fraction(x) for x in a], [Fraction(x) for x in b]
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, _pscale(_pmul(q, s1), -1))
        t0, t1 = t1, _padd(t0, _pscale(_pmul(q, t1), -1))
    return r0, s0, t0


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of Phi_m, little-endian, as exact integers."""
    if m < 1:
        raise InputError("cyclotomic index must be >= 1")
    # x^m - 1 divided by Phi_d for every proper divisor d of m
    poly = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            q, r = _pdivmod(poly, [Fraction(c) for c in cyclotomic_polynomial(d)])
            if r:
                raise InternalConsistencyError("cyclotomic division must be exact")
            poly = q
    assert all(c.denominator == 1 for c in poly)
    return tuple(int(c) for c in poly)


class CyclotomicField:
    """Exact arithmetic in Q(zeta_m) = Q[z] / Phi_m(z).

    Elements are little-endian Fraction tuples of length < deg(Phi_m).
    """

    def __init__(self, m: int):
        self.m = m
        self.modulus = [Fraction(c) for c in cyclotomic_polynomial(m)]
        self.degree = len(self.modulus) - 1

    def _reduce(self, coeffs) -> tuple:
        _, rem = _pdivmod(list(coeffs), self.modulus)
        rem = rem + [Fraction(0)] * (self.degree - len(rem))
        return tuple(rem[: self.degree])

    def zero(self) -> tuple:
        return (Fraction(0),) * self.degree

    def one(self) -> tuple:
        return self.embed(1)

    def embed(self, q) -> tuple:
        return self._reduce([Fraction(q)])

    def zeta_pow(self, e: int) -> tuple:
        e %= self.m
        return self._reduce([Fraction(0)] * e + [Fraction(1)])

    def add(self, a, b) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b) -> tuple:
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b) -> tuple:
        return self._reduce(_pmul(list(a), list(b)))

    def scale(self, a, q) -> tuple:
        q = Fraction(q)
        return tuple(x * q for x in a)

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    def inv(self, a) -> tuple:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in Q(zeta_m)")
        g, s, _ = _pgcdext(_ptrim(list(a)), self.modulus)
        if len(g) != 1:
            raise InternalConsistencyError("element shares a factor with the cyclotomic modulus")
        return self._reduce(_pscale(s, 1 / g[0]))

    # -- linear algebra over the field ------------------------------------

    def matrix_rank(self, rows) -> int:
        """Gaussian elimination rank of a matrix of field elements."""
        if not rows:
            return 0
        a = [list(r) for r in rows]
        nrows, ncols = len(a), len(a[0])
        r = 0
        for col in range(ncols):
            piv = next((i for i in range(r, nrows) if not self.is_zero(a[i][col])), None)
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv_p = self.inv(a[r][col])
            a[r] = [self.mul(inv_p, x) for x in a[r]]
            for i in range(nrows):
                if i != r and not self.is_zero(a[i][col]):
                    f = a[i][col]
                    a[i] = [self.sub(x, self.mul(f, y)) for x, y in zip(a[i], a[r])]
            r += 1
            if r == nrows:
                break
        return r


# ---------------------------------------------------------------------------
# the oracle itself
# ---------------------------------------------------------------------------

def isotypic_cohomology(complex_: EquivariantComplex, point: RationalPoint) -> dict:
    """Isotypic fiber cohomology dimensions at a point, by averaging.

    Returns {(degree j, phi value table): dim} with zero dims omitted; the
    phi value table is the tuple of exponents of the stabilizer character on
    the canonically sorted stabilizer elements, matching the keys the block
    path exposes, so the two outputs are directly comparable.
    """
    action = complex_.action
    action.check_point(point)
    group = action.group
    m = group.exponent
    field = CyclotomicField(m)
    # The stabilizer by enumeration, apart from the Smith-form route: every
    # g on which the supported coordinate characters agree.  ``elements`` is
    # in lexicographic order, so the value tables are keyed as on the block
    # path.
    chars = [action.coord_chars[i] for i in point.support]
    elements = [g for g in group.elements if len({chi(g) for chi in chars}) == 1]
    size = len(elements)

    # Diagonal fiber exponents, straight from character evaluation: the
    # stabilizing g scales a representative vector by the common value
    # chi_i(g) (i in the support), and the fiber of O(d) tensor psi by
    # psi(g) - d * chi_i(g).
    lead = point.support[0]
    scalar_exp = {g.coords: action.coord_chars[lead](g) for g in elements}

    degrees = complex_.degrees()
    fiber_exp = {}  # (j, summand index, g.coords) -> exponent
    for j in degrees:
        for idx, s in enumerate(complex_.summands(j)):
            for g in elements:
                fiber_exp[(j, idx, g.coords)] = (
                    s.twist(g) - s.degree * scalar_exp[g.coords]
                ) % m

    # Raw evaluated differentials embedded into the field.
    coords = point.coords
    mats = {}  # j -> field matrix, shape (dim_{j+1}, dim_j)
    for j in degrees:
        if j + 1 not in complex_.terms:
            continue
        nsrc = len(complex_.summands(j))
        ntgt = len(complex_.summands(j + 1))
        rows = [[field.zero() for _ in range(nsrc)] for _ in range(ntgt)]
        for (s, t), p in complex_.differentials.get(j, {}).items():
            rows[t][s] = field.embed(p.evaluate(coords))
        mats[j] = rows

    # All distinct characters of the stabilizer = deduplicated value tables
    # of the ambient group's characters.
    tables = sorted({tuple(chi(g) for g in elements) for chi in group.characters})

    inv_size = Fraction(1, size)
    out = {}
    for table in tables:
        phi_of = dict(zip((g.coords for g in elements), table))
        projectors = {}  # j -> the diagonal of P_j
        for j in degrees:
            diagonal = []
            for idx in range(len(complex_.summands(j))):
                acc = field.zero()
                for g in elements:
                    e = (fiber_exp[(j, idx, g.coords)] - phi_of[g.coords]) % m
                    acc = field.add(acc, field.zeta_pow(e))
                diagonal.append(field.scale(acc, inv_size))
            projectors[j] = diagonal

        rank_p = {
            j: sum(not field.is_zero(x) for x in diagonal)
            for j, diagonal in projectors.items()
        }
        rank_dp = {
            j: field.matrix_rank(
                [[field.mul(x, p) for x, p in zip(row, projectors[j])] for row in rows]
            )
            for j, rows in mats.items()
        }

        for j in degrees:
            dim = rank_p[j] - rank_dp.get(j, 0) - rank_dp.get(j - 1, 0)
            if dim < 0:
                raise InternalConsistencyError("negative isotypic dimension")
            if dim:
                out[(j, table)] = dim
    return out

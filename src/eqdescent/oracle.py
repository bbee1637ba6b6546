"""Independent cohomology oracle over the cyclotomic field Q(zeta_m).

The fast path elsewhere in the package computes fiber cohomology by first
splitting the fiber complex into character blocks and doing integer linear
algebra per block.  This module cross-checks it by the textbook route with
no block bookkeeping at all:

  * find the stabilizer by filtering all of G for the elements on which
    the supported coordinate characters agree, not by Smith normal form
    and subgroup closure;
  * model Q(zeta_m) exactly as Q[z] / Phi_m(z) (Phi_m the m-th cyclotomic
    polynomial, from the Moebius product of the x^d - 1, d | m).  Phi_m is
    monic with integer coefficients, so each z^e mod Phi_m is an integer
    vector; each field keeps a power table of them, built once by repeated
    multiplication by z, and reduces products by folding their high-degree
    terms back through it.  One field is kept per exponent m;
  * build the *un-decomposed* fiber complex at a point, one basis line per
    summand, with raw evaluated entries p(x) and the stabilizer acting
    diagonally by powers of zeta;
  * for each character phi of the stabilizer form the averaging projector
        e_phi = (1/|S|) * sum_g phi(g)^{-1} rho(g)
    and read isotypic cohomology dimensions off ranks over Q(zeta_m):
        dim H^j_phi = rank(P_j) - rank(d_j P_j) - rank(d_{j-1} P_{j-1}).
    The action is diagonal, so P_j is diagonal: it is kept as its diagonal,
    rank(P_j) is the number of nonzero entries there, and d_j P_j is d_j
    with each column scaled by the matching entry.  A diagonal entry
    (1/|S|) sum_g zeta^{e(g)} is summed as sum_e count(e) zeta^e, one
    count per exponent e times the power table's vector for e, and the
    integer sum is divided by |S| once, at the end;
  * check that every such entry is exactly 0 or 1 (the integer sum is 0
    or |S|), as the entries of a diagonal projector must be, and raise
    InternalConsistencyError if not.

Raw entries differ from the trivialized (rescaling-invariant) ones only by
conjugation with a diagonal matrix commuting with the group action, so the
isotypic dimensions must agree exactly; the fast path relies on the same
argument to use raw entries at integer coordinates.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul

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


def _mobius(n: int) -> int:
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
def cyclotomic_polynomial(m: int) -> tuple:
    """Coefficients of Phi_m, little-endian, as exact integers.

    Phi_m = prod_{d | m} (x^d - 1)^{mu(m/d)}: multiply by the factors with
    mu = 1, then divide exactly by those with mu = -1, each step linear in
    the degree.
    """
    if m < 1:
        raise InputError("cyclotomic index must be >= 1")
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(m // d) == 1:  # poly * (x^d - 1)
            poly = [
                (poly[k - d] if k >= d else 0) - (poly[k] if k < len(poly) else 0)
                for k in range(len(poly) + d)
            ]
    for d in divisors:
        if _mobius(m // d) == -1:  # poly / (x^d - 1): p[k] = q[k - d] - q[k]
            q = []
            for k in range(len(poly) - d):
                q.append((q[k - d] if k >= d else 0) - poly[k])
            if any(poly[k] != (q[k - d] if k >= d else 0) for k in range(len(q), len(poly))):
                raise InternalConsistencyError("cyclotomic division must be exact")
            poly = q
    return tuple(poly)


class CyclotomicField:
    """Exact arithmetic in Q(zeta_m) = Q[z] / Phi_m(z).

    Elements are little-endian coefficient tuples of length deg(Phi_m), with
    int or Fraction entries.  Phi_m is monic with integer coefficients, so
    every power z^e reduces to an integer vector; those vectors are built
    once per field, one multiplication by z at a time, as far as the largest
    exponent asked for, and every reduction folds high-degree terms back
    through them.
    """

    def __init__(self, m: int):
        self.m = m
        self.modulus = cyclotomic_polynomial(m)
        self.degree = len(self.modulus) - 1
        self._powers = [(1,) + (0,) * (self.degree - 1)]  # z^e mod Phi_m, e = 0, 1, ...

    def zeta_pow(self, e: int) -> tuple:
        e %= self.m
        powers = self._powers
        power = powers[-1]
        while len(powers) <= e:
            # z * (c_0 + ... + c_{n-1} z^{n-1}) with z^n = -(a_0 + ... + a_{n-1} z^{n-1});
            # zip stops before the leading coefficient of Phi_m
            top = power[-1]
            power = (0,) + power[:-1]
            if top:
                power = tuple(c - top * a for c, a in zip(power, self.modulus))
            powers.append(power)
        return powers[e]

    def _fold(self, coeffs) -> tuple:
        """Reduce a coefficient list of any length modulo Phi_m."""
        n = self.degree
        out = list(coeffs[:n]) + [0] * (n - len(coeffs))
        for k in range(n, len(coeffs)):
            c = coeffs[k]
            if c:
                for i, v in enumerate(self.zeta_pow(k)):
                    if v:
                        out[i] += c * v
        return tuple(out)

    def zero(self) -> tuple:
        return (0,) * self.degree

    def one(self) -> tuple:
        return self.zeta_pow(0)

    def embed(self, q) -> tuple:
        return (Fraction(q),) + (0,) * (self.degree - 1)

    def add(self, a, b) -> tuple:
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b) -> tuple:
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b) -> tuple:
        terms = [(j, y) for j, y in enumerate(b) if y]
        out = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in terms:
                    out[i + j] += x * y
        return self._fold(out)

    def scale(self, a, q) -> tuple:
        q = Fraction(q)
        return tuple(x * q for x in a)

    def is_zero(self, a) -> bool:
        return not any(a)

    def inv(self, a) -> tuple:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero in Q(zeta_m)")
        g, s, _ = _pgcdext(_ptrim(list(a)), self.modulus)
        if len(g) != 1:
            raise InternalConsistencyError("element shares a factor with the cyclotomic modulus")
        return self._fold(_pscale(s, 1 / g[0]))

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

@lru_cache(maxsize=None)
def _field(m: int) -> CyclotomicField:
    """One field, and so one power table, per exponent m."""
    return CyclotomicField(m)


def _fiber_exponents(complex_: EquivariantComplex, point: RationalPoint, elements, m: int) -> dict:
    """{(degree j, summand index): (exponent of rho(g) on its fiber line, g in elements)}.

    Straight from character evaluation: the stabilizing g scales a
    representative vector by the common value chi_i(g) (i in the support),
    and the fiber of O(d) tensor psi by psi(g) - d * chi_i(g).
    """
    lead = complex_.action.coord_chars[point.support[0]]
    scalar = [lead(g) for g in elements]
    return {
        (j, idx): tuple((s.twist(g) - s.degree * c) % m for g, c in zip(elements, scalar))
        for j in complex_.degrees()
        for idx, s in enumerate(complex_.summands(j))
    }


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
    field = _field(m)
    # The stabilizer by enumeration, apart from the Smith-form route: every
    # g on which the supported coordinate characters agree.  ``elements`` is
    # in lexicographic order, so the value tables are keyed as on the block
    # path.
    chars = [action.coord_chars[i] for i in point.support]
    elements = [g for g in group.elements if len({chi(g) for chi in chars}) == 1]
    size = len(elements)
    fiber_exp = _fiber_exponents(complex_, point, elements, m)
    degrees = complex_.degrees()

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

    zero, one = field.zero(), field.one()
    out = {}
    for table in tables:
        projectors = {}  # j -> the diagonal of P_j
        for j in degrees:
            diagonal = []
            for idx in range(len(complex_.summands(j))):
                # sum_g zeta^{e(g)} grouped as sum_e count(e) zeta^e, one
                # integer power vector per distinct exponent e
                counts = Counter((e - v) % m for e, v in zip(fiber_exp[(j, idx)], table))
                powers = [field.zeta_pow(e) for e in counts]
                weights = list(counts.values())
                total = [sum(map(mul, weights, column)) for column in zip(*powers)]
                # P_j is a projector: (1/|S|) * total is exactly 0 or 1
                if not any(total):
                    diagonal.append(zero)
                elif total[0] == size and not any(total[1:]):
                    diagonal.append(one)
                else:
                    raise InternalConsistencyError(
                        f"averaged projector entry (1/{size}) * {total} is neither 0 nor 1"
                    )
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

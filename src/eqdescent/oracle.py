"""Independent cohomology oracle by averaging projectors over Q(zeta_m).

The fast path elsewhere in the package computes fiber cohomology by first
splitting the fiber complex into character blocks and doing integer linear
algebra per block.  This module cross-checks it by the textbook route with
no block bookkeeping at all:

  * find the stabilizer by filtering all of G for the elements on which
    the supported coordinate characters agree, not by Smith normal form
    and subgroup closure;
  * model Q(zeta_m) as Q[z] / Phi_m(z) (Phi_m the m-th cyclotomic
    polynomial, from the Moebius product of the x^d - 1, d | m).  Phi_m is
    monic with integer coefficients, so each z^e mod Phi_m is an integer
    vector; each field keeps a power table of them, built once by repeated
    multiplication by z.  One field is kept per exponent m;
  * build the *un-decomposed* fiber complex at a point, one basis line per
    summand, with raw evaluated entries p(x) and the stabilizer acting
    diagonally by powers of zeta;
  * for each character phi of the stabilizer form the averaging projector
        e_phi = (1/|S|) * sum_g phi(g)^{-1} rho(g)
    and read isotypic cohomology dimensions off projected ranks:
        dim H^j_phi = rank(P_j) - rank(d_j P_j) - rank(d_{j-1} P_{j-1}).
    The action is diagonal, so P_j is diagonal: it is kept as its diagonal.
    A diagonal entry (1/|S|) sum_g zeta^{e(g)} is summed as
    sum_e count(e) zeta^e, one count per exponent e times the power table's
    vector for e, and the integer sum is divided by |S| once, at the end;
  * check that every such entry is exactly 0 or 1 (the integer sum is 0
    or |S|), as the entries of a diagonal projector must be, and raise
    InternalConsistencyError if not.

After that check P_j is a 0/1 diagonal matrix: rank(P_j) is the number of
ones, and d_j P_j is d_j with the other columns zeroed, a rational matrix.
Gaussian elimination on a rational matrix never leaves Q, so its rank over
Q(zeta_m) is its rank over Q; the oracle ranks the kept columns by its own
Fraction elimination and shares no linear algebra with the block path.

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
    """The powers of zeta_m in Q(zeta_m) = Q[z] / Phi_m(z).

    A power z^e is the little-endian integer coefficient tuple of z^e mod
    Phi_m, of length deg(Phi_m).  Phi_m is monic with integer coefficients,
    so the tuples are built once per field, one multiplication by z at a
    time, as far as the largest exponent asked for.
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


def _rank(rows) -> int:
    """Rank over Q of a list of equal-length rows of ints and Fractions, by
    Gaussian elimination in Fractions."""
    a = [[Fraction(x) for x in row] for row in rows if any(row)]
    ncols = len(a[0]) if a else 0
    r = 0
    for col in range(ncols):
        if r == len(a):
            break
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        tail = top[col + 1 :]
        for row in a[r + 1 :]:
            if row[col]:
                f = row[col] / top[col]
                row[col + 1 :] = [x - f * y for x, y in zip(row[col + 1 :], tail)]
        r += 1
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

    # Raw evaluated differentials, ints and Fractions.
    coords = point.coords
    mats = {}  # j -> matrix as rows, shape (dim_{j+1}, dim_j)
    for j in degrees:
        if j + 1 not in complex_.terms:
            continue
        nsrc = len(complex_.summands(j))
        ntgt = len(complex_.summands(j + 1))
        rows = [[0] * nsrc for _ in range(ntgt)]
        for (s, t), p in complex_.differentials.get(j, {}).items():
            rows[t][s] = p.evaluate(coords)
        mats[j] = rows

    # All distinct characters of the stabilizer = deduplicated value tables
    # of the ambient group's characters.
    tables = sorted({tuple(chi(g) for g in elements) for chi in group.characters})

    out = {}
    for table in tables:
        kept = {}  # j -> the summands whose diagonal entry of P_j is 1
        for j in degrees:
            kept[j] = []
            for idx in range(len(complex_.summands(j))):
                # sum_g zeta^{e(g)} grouped as sum_e count(e) zeta^e, one
                # integer power vector per distinct exponent e
                counts = Counter((e - v) % m for e, v in zip(fiber_exp[(j, idx)], table))
                powers = [field.zeta_pow(e) for e in counts]
                weights = list(counts.values())
                total = [sum(map(mul, weights, column)) for column in zip(*powers)]
                # P_j is a projector: (1/|S|) * total is exactly 0 or 1
                if total[0] == size and not any(total[1:]):
                    kept[j].append(idx)
                elif any(total):
                    raise InternalConsistencyError(
                        f"averaged projector entry (1/{size}) * {total} is neither 0 nor 1"
                    )

        # d_j P_j is d_j on the kept columns, a rational matrix: its rank
        # over Q(zeta_m) is its rank over Q.
        rank_dp = {
            j: _rank([[row[s] for s in kept[j]] for row in rows])
            for j, rows in mats.items()
        }

        for j in degrees:
            dim = len(kept[j]) - rank_dp.get(j, 0) - rank_dp.get(j - 1, 0)
            if dim < 0:
                raise InternalConsistencyError("negative isotypic dimension")
            if dim:
                out[(j, table)] = dim
    return out

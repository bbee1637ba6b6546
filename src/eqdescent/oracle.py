"""Independent cohomology oracle by averaging projectors over Q(zeta_m).

The block path elsewhere splits the fiber complex into character blocks and
does integer linear algebra per block.  This module cross-checks it by the
textbook route, with no block bookkeeping:

  * the stabilizer S is found by evaluating the supported coordinate
    characters on all of G and keeping the elements where they agree (no
    ``Subgroup``, no restriction tables, no kernel cuts), and split, from
    that list, into cyclic groups <s_k> of prime-power orders m_k;
  * the fiber complex at a point is kept whole, one line per summand, with
    raw evaluated entries p(x) and S acting on a line by rho(g) = zeta^{e(g)};
  * each projector (1/|S|) sum_g phi(g)^{-1} rho(g) is factored as the
    product over k of (1/m_k) sum_{a < m_k} phi(s_k)^{-a} rho(a s_k); a
    line's entry is 1 in exactly one factor projector per k, read off rho on
    every a s_k, and its exponents must then be that character on all of S;
  * P_j is then a 0/1 diagonal matrix and d_j P_j is d_j on the kept
    columns, a rational matrix whose rank over Q(zeta_m) is its rank over
    Q, found by the oracle's own Fraction elimination:
        dim H^j_phi = rank(P_j) - rank(d_j P_j) - rank(d_{j-1} P_{j-1}).

Raw entries differ from the trivialized (rescaling-invariant) ones only by
conjugation with a diagonal matrix commuting with the group action, so the
isotypic dimensions must agree exactly with the block path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .action import RationalPoint
from .complexes import EquivariantComplex, InternalConsistencyError


def _rank(rows) -> int:
    """Rank over Q of a list of equal-length rows of ints and Fractions, by
    Gaussian elimination in Fractions."""
    a = [row for row in rows if any(row)]
    if len(a) < 2:
        return len(a)
    a = [[Fraction(x) for x in row] for row in a]
    ncols = len(a[0])
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
# the stabilizer as a direct sum of cyclic groups
# ---------------------------------------------------------------------------

def _add(g: tuple, h: tuple, orders: tuple) -> tuple:
    return tuple((x + y) % n for x, y, n in zip(g, h, orders))


def _times(a: int, g: tuple, orders: tuple) -> tuple:
    return tuple(a * x % n for x, n in zip(g, orders))


def _cyclic_decomposition(elements, orders: tuple) -> tuple:
    """(factors, coefficients): S, the subgroup of Z/n_1 x ... x Z/n_r
    listed by ``elements``, is the internal direct sum of the <s_k> for
    (s_k, m_k) in factors, m_k a prime power and the order of s_k, and
    elements[i] = sum_k a_k s_k for (a_k) = coefficients[i].

    Per prime p, with H the sum so far: take the first g of p-power order
    and of largest order q modulo H.  Then q g = sum_k c_k s_k with q | c_k,
    so s = g - sum_k (c_k / q) s_k has order q and <s> meets H in 0.
    """
    span = {(0,) * len(orders): ()}  # H: element -> its coefficients
    factors = []
    element_orders = [lcm(*(n // gcd(x, n) for x, n in zip(g, orders))) for g in elements]
    size, p = len(elements), 1
    while size > 1:
        p += 1
        if size % p:
            continue
        part_order = 1
        while size % p == 0:
            size, part_order = size // p, part_order * p
        whole = len(span) * part_order
        part = [g for g, k in zip(elements, element_orders) if part_order % k == 0]
        while len(span) < whole:
            q = 0
            for g in part:
                k, x = 1, g
                while x not in span:
                    k, x = k * p, _times(p, x, orders)
                if k > q:
                    q, s, top = k, g, x
            for (t, _), c in zip(factors, span[top]):
                s = _add(s, _times(-(c // q), t, orders), orders)
            multiples = [_times(a, s, orders) for a in range(q)]
            span = {
                _add(h, x, orders): c + (a,)
                for h, c in span.items()
                for a, x in enumerate(multiples)
            }
            factors.append((s, q))
    return tuple(factors), tuple(span[g] for g in elements)


# ---------------------------------------------------------------------------
# the oracle itself
# ---------------------------------------------------------------------------

def _fiber_exponents(complex_: EquivariantComplex, point: RationalPoint, elements, m: int) -> dict:
    """{(degree j, summand index): (exponent of rho(g) on its fiber line, g in elements)}.

    Straight from character evaluation: the stabilizing g scales a
    representative vector by the common value chi_i(g) (i in the support),
    and the fiber of O(d) tensor psi by psi(g) - d * chi_i(g).
    """
    columns = tuple(zip(*elements))
    scalar = complex_.action.coord_chars[point.support[0]].values(columns)
    return {
        (j, idx): tuple((t - s.degree * c) % m for t, c in zip(s.twist.values(columns), scalar))
        for j in complex_.degrees()
        for idx, s in enumerate(complex_.summands(j))
    }


def _factor_value(exps, m: int) -> int:
    """f = phi(s) for the one character phi of a cyclic factor <s> of order
    q whose projector keeps a line, from exps[a] = e(a s), a < q.

    The q entries (1/q) sum_a zeta^{exps[a] - a f}, f in (m/q) Z / m, sum to
    zeta^{exps[0]} != 0.  An entry is 1 exactly when every exps[a] = a f, so
    for f = exps[1]; each other entry is then 1/d times the sum of the d-th
    roots of unity, d > 1, that is 0.  If no entry is 1, one is neither 0
    nor 1, and the projectors are not idempotent.
    """
    q = len(exps)
    f = exps[1 % q]
    if f % (m // q) == 0 and all((e - a * f) % m == 0 for a, e in enumerate(exps)):
        return f
    raise InternalConsistencyError(
        f"no averaged projector of a cyclic factor of order {q} keeps a line: "
        f"their entries sum to zeta_{m}^{exps[0]}, so one is neither 0 nor 1"
    )


def isotypic_cohomology(complex_: EquivariantComplex, point: RationalPoint) -> dict:
    """Isotypic fiber cohomology dimensions at a point, by averaging.

    Returns {(degree j, phi value table): dim} with zero dims omitted; the
    phi value table is the tuple of exponents of the stabilizer character on
    the canonically sorted stabilizer elements, matching the keys the block
    path exposes, so the two outputs are directly comparable.
    """
    action = complex_.action
    action.check_point(point)
    orders = action.group.orders
    m = action.group.exponent
    # ``elements`` is in lexicographic order, as on the block path.
    everything = action.group.elements
    columns = tuple(zip(*everything))
    values = [action.coord_chars[i].values(columns) for i in point.support]
    elements = [g for g, *v in zip(everything, *values) if len(set(v)) == 1]
    fiber_exp = _fiber_exponents(complex_, point, elements, m)
    degrees = complex_.degrees()

    factors, coefficients = _cyclic_decomposition(elements, orders)
    position = {g: i for i, g in enumerate(elements)}
    # cyclic[k]: the positions of a s_k, a < m_k; a trivial S is read as one
    # factor of order 1, so that every exponent at the identity is checked.
    cyclic = [[position[_times(a, s, orders)] for a in range(q)] for s, q in factors] or [[0]]

    # Each line lies in the part of the character phi read off the factors,
    # whose value table must be the line's own exponents.
    parts = {}  # value table -> {degree j: the summands whose entry of P_j is 1}
    for (j, idx), table in fiber_exp.items():
        phi = [_factor_value([table[i] for i in rows], m) for rows in cyclic]
        if any(sum(map(mul, c, phi)) % m != e for c, e in zip(coefficients, table)):
            raise InternalConsistencyError(
                f"the stabilizer does not act on summand {idx} of degree {j} by a "
                "character, so its averaging projectors do not factor"
            )
        parts.setdefault(table, {}).setdefault(j, []).append(idx)

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

    out = {}
    for table, kept in parts.items():
        # d_j P_j is d_j on the kept columns, a rational matrix: its rank
        # over Q(zeta_m) is its rank over Q.
        rank_dp = {
            j: _rank([[row[s] for s in kept.get(j, ())] for row in rows])
            for j, rows in mats.items()
        }
        for j in degrees:
            dim = len(kept.get(j, ())) - rank_dp.get(j, 0) - rank_dp.get(j - 1, 0)
            if dim < 0:
                raise InternalConsistencyError("negative isotypic dimension")
            if dim:
                out[(j, table)] = dim
    return out

"""Known descent answers for Koszul complexes of semi-invariant linear forms.

Take a diagonal action of G = Z/n_1 x ... x Z/n_r on P^n, with coordinate
characters c_0, ..., c_n, linear forms f_1, ..., f_k, each a rational
combination of coordinates that share one character (the form's character
c_u), and a base twist psi.  The Koszul complex K(f) has, for each subset U
of the forms, the summand O(-|U|) twisted by psi - sum_{u in U} c_u in
degree -|U|, and the entry +-f_u from U to U - {u}.

At a point x, if some f_u(x) is nonzero the fiber of K(f) is a Koszul
complex on a nonzero vector, hence exact; if every f_u(x) is zero every map
vanishes there and the whole fiber is cohomology.  So K(f) descends iff, for
every coordinate stratum T whose stabilizer is nontrivial and whose torus
meets V(f), every summand's fiber character is trivial on the stabilizer.
The stabilizer of T is found by evaluating characters on every element of
G, and "V(f) meets the torus of T" by a nullspace in Fractions: it does iff
no x_i with i in T vanishes on the whole solution space of f restricted to
T, since a vector space over Q is no finite union of proper subspaces.

Nothing here comes from the package: no block rank, no sampling, no oracle
and no stabilizer cut, so the answer is independent of the decision path.
"""

from fractions import Fraction
from itertools import combinations, product
from math import lcm


def character_value(orders, char, g) -> int:
    """chi(g) as an exponent of the primitive m-th root of unity, m the
    exponent of the group."""
    m = lcm(*orders)
    return sum(c * x * (m // n) for c, x, n in zip(char, g, orders)) % m


def stabilizer(orders, chars, support) -> list:
    """The elements of G that fix every point with this support: those on
    which the supported coordinate characters all agree."""
    return [
        g for g in product(*map(range, orders))
        if len({character_value(orders, chars[i], g) for i in support}) == 1
    ]


def meets_torus(forms, support) -> bool:
    """Whether some point with exactly this support is a zero of every form
    (each form a {coordinate: coefficient} dict)."""
    cols = list(support)
    rows = [[Fraction(f.get(i, 0)) for i in cols] for f in forms]
    # Reduced row echelon form; the free columns span the nullspace.
    pivots = []
    for c in range(len(cols)):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][c]), None)
        if r is None:
            continue
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for k in range(len(rows)):
            if k != top and rows[k][c]:
                rows[k] = [a - rows[k][c] * b for a, b in zip(rows[k], rows[top])]
        pivots.append(c)
    free = [c for c in range(len(cols)) if c not in pivots]
    # Nullspace vector of free column f: 1 at f, -rows[p][f] at pivot p.
    basis = []
    for f in free:
        v = [Fraction(0)] * len(cols)
        v[f] = Fraction(1)
        for p, c in enumerate(pivots):
            v[c] = -rows[p][f]
        basis.append(v)
    return all(any(v[c] for v in basis) for c in range(len(cols)))


def koszul_summands(orders, psi, form_chars) -> list:
    """(degree, twist) of each summand of K(f), one per subset of forms."""
    out = []
    for k in range(len(form_chars) + 1):
        for subset in combinations(range(len(form_chars)), k):
            twist = tuple(
                (p - sum(form_chars[u][t] for u in subset)) % n
                for t, (p, n) in enumerate(zip(psi, orders))
            )
            out.append((-k, twist))
    return out


def descends(orders, chars, forms, form_chars, psi) -> bool:
    """The closed-form answer: whether K(f) descends to the quotient."""
    summands = koszul_summands(orders, psi, form_chars)
    coords = range(len(chars))
    for size in range(1, len(chars) + 1):
        for support in combinations(coords, size):
            stab = stabilizer(orders, chars, support)
            if len(stab) == 1 or not meets_torus(forms, support):
                continue
            lead = chars[support[0]]
            for degree, twist in summands:
                phi = [t - degree * c for t, c in zip(twist, lead)]
                if any(character_value(orders, phi, g) for g in stab):
                    return False
    return True


def koszul_problem(orders, chars, forms, form_chars, psi) -> dict:
    """A problem file holding K(f) as the complex "k"."""
    subsets = [list(combinations(range(len(forms)), k)) for k in range(len(forms) + 1)]
    summands = iter(koszul_summands(orders, psi, form_chars))
    terms = {
        str(-k): [{"degree": d, "twist": list(t)} for _, (d, t) in zip(level, summands)]
        for k, level in enumerate(subsets)
    }
    diffs = {}
    for k in range(1, len(forms) + 1):
        index = {s: a for a, s in enumerate(subsets[k - 1])}
        diffs[str(-k)] = [
            {
                "source": a,
                "target": index[s[:pos] + s[pos + 1:]],
                "entry": [
                    {"coeff": str((-1) ** pos * q), "exponents": [int(i == j) for j in range(len(chars))]}
                    for i, q in sorted(forms[u].items())
                ],
            }
            for a, s in enumerate(subsets[k])
            for pos, u in enumerate(s)
        ]
    return {
        "group": {"orders": list(orders)},
        "action": {"dim": len(chars) - 1, "coordinate_characters": [list(c) for c in chars]},
        "complexes": {"k": {"terms": terms, "differentials": diffs}},
    }

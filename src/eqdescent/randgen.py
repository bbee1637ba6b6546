"""Seeded random instances: groups, actions, summands, complexes, points, words.

Everything here is driven by an explicit ``random.Random`` so test suites and
the command-line self-test are reproducible.  The complex generator builds
instances that are valid *by construction*: it starts from block-diagonal
shards (isolated summands and single nonzero arrows, whose square is zero for
shape reasons) and conjugates by random equivariant unipotent changes of
basis, which preserves validity while producing dense, non-obvious
differentials.

What is drawn here is in range by construction, so it is built unchecked
and once: characters through ``Character._raw`` from coordinates drawn below
the group's orders, points as ``canonical()`` builds them, and polynomials
through ``Poly._normal`` from integer numerators over one denominator,
never through ``Fraction`` sums and ``Poly.__init__``.  Every generated
complex is still validated (``require_built_valid``).  The draws, and their
order, are those of the checked constructors.  A caller that draws many
instances may draw only the orders (``random_orders``) and reuse a group it
already built with those orders, as the self-test does with a bounded memo
(see ``selftest``), so that the group's element lists, stabilizer cuts and
restriction tables are built once per run.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import lcm
from random import Random

from .action import _SAMPLER_NUMERATORS, MAX_PROJECTIVE_DIM, ProjectiveAction, RationalPoint
from .complexes import EquivariantComplex, TwistedSummand, _matrix_compose
from .groups import AbelianGroup, Character
from .polynomials import Poly
from .words import FunctorWord, Push, Shift, Twist


# ---------------------------------------------------------------------------
# groups, actions, summands, points
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _order_tuples(max_order: int, max_factors: int = 3) -> tuple:
    """All non-decreasing tuples of cyclic orders >= 2 with product <= max_order."""
    out = []

    def extend(prefix, product, minimum):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_factors:
            return
        k = minimum
        while product * k <= max_order:
            extend(prefix + [k], product * k, k)
            k += 1

    extend([], 1, 2)
    return tuple(sorted(out))


def random_orders(rng: Random, max_order: int = 12) -> tuple:
    """The cyclic orders of a random group of order at most ``max_order``."""
    return rng.choice(_order_tuples(max_order))


def random_group(rng: Random, max_order: int = 12) -> AbelianGroup:
    return AbelianGroup(random_orders(rng, max_order))


def random_character(rng: Random, group: AbelianGroup) -> Character:
    return Character._raw(group, tuple([rng.randrange(n) for n in group.orders]))


RANDOM_MAX_DIM = 3


def random_action(rng: Random, group: AbelianGroup) -> ProjectiveAction:
    """A random action on P^n for n from 1 to ``RANDOM_MAX_DIM``."""
    dim = rng.randint(1, RANDOM_MAX_DIM)
    chars = tuple(random_character(rng, group) for _ in range(dim + 1))
    return ProjectiveAction(group, dim, chars)


def random_summand(rng: Random, group: AbelianGroup, max_degree: int = 3) -> TwistedSummand:
    return TwistedSummand(rng.randint(-max_degree, max_degree), random_character(rng, group))


# Coefficients are n/d with 0 < |n| <= 5 and 1 <= d <= 3; point coordinates
# are drawn as the stratum sampler draws them, n/d with 0 < |n| <= 9 and
# 1 <= d <= 9.
_COEFF_NUMERATORS = tuple(n for n in range(-5, 6) if n)
_ZERO = Fraction(0)


def _random_ratio(rng: Random, numerators=_COEFF_NUMERATORS, max_den: int = 3) -> tuple:
    """(n, d): a numerator drawn from ``numerators``, then a denominator from
    1 to ``max_den``; not reduced."""
    return rng.choice(numerators), rng.randint(1, max_den)


def _random_poly(rng: Random, nvars: int, monomials) -> Poly:
    """sum of a random coefficient times x^e over the distinct exponent
    tuples e in ``monomials``, its coefficients drawn in that order."""
    ratios = [_random_ratio(rng) for _ in monomials]
    den = lcm(*(d for _, d in ratios))
    return Poly._normal(nvars, {e: n * (den // d) for e, (n, d) in zip(monomials, ratios)}, den)


def random_point(rng: Random, nvars: int) -> RationalPoint:
    """A point with a random nonempty support, built unchecked: its
    coordinates are reduced Fractions, nonzero on the support."""
    size = rng.randint(1, nvars)
    support = set(rng.sample(range(nvars), size))
    point = object.__new__(RationalPoint)
    point.__dict__["coords"] = tuple([
        Fraction(*_random_ratio(rng, _SAMPLER_NUMERATORS, 9)) if i in support else _ZERO
        for i in range(nvars)
    ])
    return point


# ---------------------------------------------------------------------------
# equivariant polynomials
# ---------------------------------------------------------------------------


def equivariant_monomials(action: ProjectiveAction, degree: int, char: Character) -> list:
    """Exponent tuples a with |a| = degree and sum_i a_i * chi_i == char,
    in combinations order, compared modulo the group's cyclic orders one
    factor at a time: each factor keeps the variable multisets that the
    previous factors kept."""
    if degree < 0:
        return []
    nvars = action.dim + 1
    combos = itertools.combinations_with_replacement(range(nvars), degree)
    for k, (n, c) in enumerate(zip(action.group.orders, char.coords)):
        exponent = [chi.coords[k] for chi in action.coord_chars].__getitem__
        combos = [combo for combo in combos if sum(map(exponent, combo)) % n == c]
    out = []
    for combo in combos:
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def random_equivariant_poly(
    rng: Random,
    action: ProjectiveAction,
    source: TwistedSummand,
    target: TwistedSummand,
    max_terms: int = 3,
) -> Poly:
    """A random O(source) -> O(target) map entry; zero when none exists."""
    nvars = action.dim + 1
    monos = equivariant_monomials(action, target.degree - source.degree, target.twist - source.twist)
    if not monos:
        return Poly.zero(nvars)
    chosen = rng.sample(monos, rng.randint(1, min(max_terms, len(monos))))
    return _random_poly(rng, nvars, chosen)


# ---------------------------------------------------------------------------
# random valid complexes
# ---------------------------------------------------------------------------


# The constant polynomial 1 in each variable count an action can have, shared
# by every identity matrix (a Poly is immutable).
_ONE = tuple(Poly._raw(n, {(0,) * n: 1}, 1) for n in range(MAX_PROJECTIVE_DIM + 2))


def _matrix_identity(n: int, nvars: int) -> dict:
    return dict.fromkeys([(i, i) for i in range(n)], _ONE[nvars])


def _unipotent_inverse(nilpotent: dict, n: int, nvars: int) -> dict:
    """(I + N)^{-1} = I - N + N^2 - ... for nilpotent N, summed in place;
    an entry that cancels is dropped when it does."""
    inv = _matrix_identity(n, nvars)
    power = nilpotent
    negate = True
    while power:
        for key, p in power.items():
            if negate:
                p = -p
            if key in inv:
                p = inv[key] + p
                if p.is_zero:
                    del inv[key]
                    continue
            inv[key] = p
        power = _matrix_compose(power, nilpotent)
        negate = not negate
    return inv


def _random_mixing(rng: Random, action: ProjectiveAction, terms: dict, diffs: dict) -> dict:
    """Conjugate the differentials by a random equivariant unipotent change
    of basis in each degree (entries only from lower to strictly higher twist
    degree, hence nilpotent).  Returns new differentials for the same terms;
    the result is cochain-isomorphic to the input."""
    nvars = action.dim + 1
    mixers = {}
    inverses = {}
    for j, summands in terms.items():
        n = len(summands)
        nil = {}
        for s in range(n):
            for t in range(n):
                if summands[t].degree <= summands[s].degree or rng.random() < 0.5:
                    continue
                p = random_equivariant_poly(rng, action, summands[s], summands[t])
                if not p.is_zero:
                    nil[(s, t)] = p
        if nil:
            # nil holds no diagonal entry, so I + N is a union of entries.
            mixers[j] = {**_matrix_identity(n, nvars), **nil}
            inverses[j] = _unipotent_inverse(nil, n, nvars)

    mixed: dict = {}
    for j, entries in diffs.items():
        out = dict(entries)
        if j in inverses:
            out = _matrix_compose(inverses[j], out)
        if j + 1 in mixers:
            out = _matrix_compose(out, mixers[j + 1])
        if out:
            mixed[j] = out
    return mixed


# A random complex has 1 to MAX_SHARDS shards, each placed at a degree in
# [-DEGREE_SPAN, DEGREE_SPAN - 1] with a source twist degree in
# [-MAX_DEGREE, MAX_DEGREE].
MAX_SHARDS = 4
MAX_DEGREE = 3
DEGREE_SPAN = 2


def random_valid_complex(rng: Random, action: ProjectiveAction) -> EquivariantComplex:
    """A random valid complex: block-diagonal shards mixed by a unipotent
    equivariant change of basis.  Always validates; a failure here is a bug
    in the generator, raised as InternalConsistencyError."""
    nvars = action.dim + 1
    group = action.group
    terms: dict = {}
    arrows = []  # (j, src_index_in_terms[j], tgt_index_in_terms[j+1], Poly)

    def place(j: int, summand: TwistedSummand) -> int:
        existing = terms.get(j, ())
        terms[j] = existing + (summand,)
        return len(existing)

    for _ in range(rng.randint(1, MAX_SHARDS)):
        j = rng.randint(-DEGREE_SPAN, DEGREE_SPAN - 1)
        src = random_summand(rng, group, MAX_DEGREE)
        if rng.random() < 0.5:
            place(j, src)
            continue
        # A nonzero arrow: target = source twisted by a random monomial, so
        # the monomial itself is an equivariant entry by construction.
        arrow_deg = rng.randint(1, 2)
        exps = [0] * nvars
        for _ in range(arrow_deg):
            exps[rng.randrange(nvars)] += 1
        tgt = TwistedSummand(src.degree + arrow_deg, src.twist + action.monomial_character(exps))
        entry = _random_poly(rng, nvars, [tuple(exps)])
        extra = random_equivariant_poly(rng, action, src, tgt, max_terms=2)
        if rng.random() < 0.5:
            summed = entry + extra
            if not summed.is_zero:
                entry = summed
        s = place(j, src)
        t = place(j + 1, tgt)
        arrows.append((j, s, t, entry))

    diffs: dict = {}
    for j, s, t, entry in arrows:
        diffs.setdefault(j, {})[(s, t)] = entry

    complex_ = EquivariantComplex(action, terms, _random_mixing(rng, action, terms, diffs))
    return complex_.require_built_valid("random complex generator")


def mixed_variant(rng: Random, complex_: EquivariantComplex) -> EquivariantComplex:
    """A complex cochain-isomorphic to the input (same terms, differentials
    conjugated by a fresh random equivariant unipotent change of basis)."""
    out = EquivariantComplex(
        complex_.action,
        dict(complex_.terms),
        _random_mixing(rng, complex_.action, complex_.terms, complex_.differentials),
    )
    return out.require_built_valid("mixing")


# ---------------------------------------------------------------------------
# random functor words
# ---------------------------------------------------------------------------


def random_automorphism(rng: Random, action: ProjectiveAction) -> Push:
    """A random push along an automorphism of the action: shuffle coordinates
    within equal-character classes and rescale."""
    n = action.dim + 1
    classes: dict = {}
    for i, char in enumerate(action.coord_chars):
        classes.setdefault(char, []).append(i)
    perm = [0] * n
    for members in classes.values():
        targets = members[:]
        rng.shuffle(targets)
        for i, t in zip(members, targets):
            perm[i] = t
    scalars = tuple(Fraction(*_random_ratio(rng)) for _ in range(n))
    return Push(action, tuple(perm), scalars)


def random_word(rng: Random, action: ProjectiveAction, max_len: int = 5) -> FunctorWord:
    gens = []
    for _ in range(rng.randint(1, max_len)):
        kind = rng.choice(("shift", "twist", "push"))
        if kind == "shift":
            gens.append(Shift(rng.choice((-2, -1, 1, 2))))
        elif kind == "twist":
            gens.append(Twist(random_summand(rng, action.group, max_degree=2)))
        else:
            gens.append(random_automorphism(rng, action))
    return FunctorWord(tuple(gens))

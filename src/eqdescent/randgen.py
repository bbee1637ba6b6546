"""Seeded random instances: groups, actions, summands, complexes, points, words.

Everything here is driven by an explicit ``random.Random`` so test suites and
the command-line self-test are reproducible.  The complex generator builds
instances that are valid *by construction*: it starts from block-diagonal
shards (isolated summands and single nonzero arrows, whose square is zero for
shape reasons) and conjugates by random equivariant unipotent changes of
basis, which preserves validity while producing dense, non-obvious
differentials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

from .action import MAX_PROJECTIVE_DIM, ProjectiveAction, RationalPoint
from .complexes import (
    EquivariantComplex,
    InternalConsistencyError,
    TwistedSummand,
    _matrix_compose,
)
from .groups import AbelianGroup, Character
from .polynomials import Poly
from .words import EquivariantAutomorphism, FunctorWord, Push, Shift, Twist


# ---------------------------------------------------------------------------
# groups, actions, summands, points
# ---------------------------------------------------------------------------


def _order_tuples(max_order: int, max_factors: int = 3) -> list:
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
    return sorted(out)


def random_group(rng: Random, max_order: int = 12) -> AbelianGroup:
    return AbelianGroup(rng.choice(_order_tuples(max_order)))


def random_character(rng: Random, group: AbelianGroup) -> Character:
    return group.character(tuple(rng.randrange(n) for n in group.orders))


def random_action(rng: Random, group: AbelianGroup, max_dim: int = 3) -> ProjectiveAction:
    dim = rng.randint(1, min(max_dim, MAX_PROJECTIVE_DIM))
    chars = tuple(random_character(rng, group) for _ in range(dim + 1))
    return ProjectiveAction(group, dim, chars)


def random_summand(rng: Random, group: AbelianGroup, max_degree: int = 3) -> TwistedSummand:
    return TwistedSummand(rng.randint(-max_degree, max_degree), random_character(rng, group))


def _random_fraction(rng: Random, max_num: int = 5, max_den: int = 3) -> Fraction:
    num = rng.choice([n for n in range(-max_num, max_num + 1) if n != 0])
    return Fraction(num, rng.randint(1, max_den))


def random_point(rng: Random, nvars: int) -> RationalPoint:
    size = rng.randint(1, nvars)
    support = sorted(rng.sample(range(nvars), size))
    coords = tuple(
        _random_fraction(rng, 9, 9) if i in support else Fraction(0) for i in range(nvars)
    )
    return RationalPoint(coords)


# ---------------------------------------------------------------------------
# equivariant polynomials
# ---------------------------------------------------------------------------


def equivariant_monomials(action: ProjectiveAction, degree: int, char: Character) -> list:
    """Exponent tuples a with |a| = degree and sum_i a_i * chi_i == char."""
    if degree < 0:
        return []
    nvars = action.dim + 1
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        if action.monomial_character(exps) == char:
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
    poly = Poly.zero(nvars)
    for exps in chosen:
        poly = poly + Poly.monomial(nvars, exps, _random_fraction(rng))
    return poly


# ---------------------------------------------------------------------------
# random valid complexes
# ---------------------------------------------------------------------------


def _matrix_identity(n: int, nvars: int) -> dict:
    return {(i, i): Poly.constant(nvars, Fraction(1)) for i in range(n)}


def _matrix_add(a: dict, b: dict, nvars: int) -> dict:
    out = dict(a)
    for key, p in b.items():
        out[key] = out.get(key, Poly.zero(nvars)) + p
    return {k: v for k, v in out.items() if not v.is_zero}


def _matrix_negate(a: dict) -> dict:
    return {k: -v for k, v in a.items()}


def _unipotent_inverse(nilpotent: dict, n: int, nvars: int) -> dict:
    """(I + N)^{-1} = I - N + N^2 - ... for nilpotent N."""
    inv = _matrix_identity(n, nvars)
    power = dict(nilpotent)
    sign = -1
    for _ in range(n):
        if not power:
            break
        inv = _matrix_add(inv, _matrix_negate(power) if sign < 0 else power, nvars)
        power = _matrix_compose(power, nilpotent, nvars)
        sign = -sign
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
            mixers[j] = _matrix_add(_matrix_identity(n, nvars), nil, nvars)
            inverses[j] = _unipotent_inverse(nil, n, nvars)

    mixed: dict = {}
    for j, entries in diffs.items():
        out = dict(entries)
        if j in inverses:
            out = _matrix_compose(inverses[j], out, nvars)
        if j + 1 in mixers:
            out = _matrix_compose(out, mixers[j + 1], nvars)
        if out:
            mixed[j] = out
    return mixed


def random_valid_complex(
    rng: Random,
    action: ProjectiveAction,
    max_shards: int = 4,
    max_degree: int = 3,
    degree_span: int = 2,
) -> EquivariantComplex:
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

    for _ in range(rng.randint(1, max_shards)):
        j = rng.randint(-degree_span, degree_span - 1)
        src = random_summand(rng, group, max_degree)
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
        entry = Poly.monomial(nvars, tuple(exps), _random_fraction(rng))
        extra = random_equivariant_poly(rng, action, src, tgt, max_terms=2)
        if rng.random() < 0.5 and not (entry + extra).is_zero:
            entry = entry + extra
        s = place(j, src)
        t = place(j + 1, tgt)
        arrows.append((j, s, t, entry))

    diffs: dict = {}
    for j, s, t, entry in arrows:
        diffs.setdefault(j, {})[(s, t)] = entry

    complex_ = EquivariantComplex(action, terms, _random_mixing(rng, action, terms, diffs))
    report = complex_.validate()
    if not report.ok:
        raise InternalConsistencyError(
            f"random complex generator produced an invalid complex: {report.violations[:3]}"
        )
    return complex_


def mixed_variant(rng: Random, complex_: EquivariantComplex) -> EquivariantComplex:
    """A complex cochain-isomorphic to the input (same terms, differentials
    conjugated by a fresh random equivariant unipotent change of basis)."""
    out = EquivariantComplex(
        complex_.action,
        dict(complex_.terms),
        _random_mixing(rng, complex_.action, complex_.terms, complex_.differentials),
    )
    report = out.validate()
    if not report.ok:
        raise InternalConsistencyError(
            f"mixing produced an invalid complex: {report.violations[:3]}"
        )
    return out


# ---------------------------------------------------------------------------
# random functor words
# ---------------------------------------------------------------------------


def random_automorphism(rng: Random, action: ProjectiveAction) -> EquivariantAutomorphism:
    """A random equivariant automorphism of the action with itself: shuffle
    coordinates within equal-character classes and rescale."""
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
    scalars = tuple(_random_fraction(rng) for _ in range(n))
    return EquivariantAutomorphism(action, action, tuple(perm), scalars)


def random_word(rng: Random, action: ProjectiveAction, max_len: int = 5) -> FunctorWord:
    gens = []
    for _ in range(rng.randint(1, max_len)):
        kind = rng.choice(("shift", "twist", "push"))
        if kind == "shift":
            gens.append(Shift(rng.choice((-2, -1, 1, 2))))
        elif kind == "twist":
            gens.append(Twist(random_summand(rng, action.group, max_degree=2)))
        else:
            gens.append(Push(random_automorphism(rng, action)))
    return FunctorWord(tuple(gens))

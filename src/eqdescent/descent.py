"""Fiber restriction, character blocks, and the descent decision.

A complex descends to a perfect complex on the quotient exactly when, at
every point, the stabilizer acts trivially on all fiber cohomology of the
derived restriction.  Because the differentials are equivariant, the fiber
complex at a point splits into blocks indexed by stabilizer characters; the
stabilizer acts by the block's character on everything the block contributes
to cohomology, so the decision reduces to: nontrivial blocks must be exact.

Stabilizers and fiber characters are constant along coordinate-support
strata, so all of the fiber that does not depend on the point is computed
once per stratum, as a ``FiberLayout``: the block each summand lands in, its
position there, and every differential entry restricted to the stratum, by
dropping the terms that hold a variable off the support.  The placement of
the summands in blocks depends only on the stabilizer and the lead
character, so a check builds it once per stabilizer class and shares it
between the strata of that class; the entries are filtered once per
stratum.  Entries that vanish on the stratum are dropped.  An entry between
two blocks must vanish identically there (equivariance forces it), so one
that does not raises InternalConsistencyError.  The restricted entries are
shared up to sign: on a stratum, every entry of a Koszul complex is +-x_i
for some i in the support.  At a point each distinct restricted entry is
evaluated once, in integers:

  * the point is scaled to primitive integer coordinates x;
  * an entry p from (d_s, psi_s) to (d_t, psi_t) contributes its raw value
    p(x), not the trivialized p(x) / x_{i0}^{d_t - d_s} that is invariant
    under rescaling x.  With D_j = diag(x_{i0}^{d_s}) over the summands of
    degree j, the trivialized d_j is D_{j+1}^{-1} d_j(x) D_j; D_j is
    invertible and diagonal, so it respects the blocks and changes no block
    rank (the same argument covers the rescaling of x);
  * coefficient denominators are cleared once per complex, row by row: a
    polynomial stores its coefficients as integers over one denominator, so
    each target summand of d_j has its row multiplied by the lcm of the
    denominators of the entries in that row, one more invertible diagonal
    factor.

Each block differential is then a sparse integer matrix, one
{column: nonzero int} dict per row filled straight from the layout's cells,
ranked once by sparse integer elimination, and dim H^j = n_j - r_j - r_{j-1}.

Cohomology ranks can jump on proper closed subsets of a stratum, so each
stratum with a nontrivial stabilizer is decided in one of these modes:

  * ``exact-single-point``: a single-coordinate stratum is one point;
  * ``exact-stratum``: no block of a nontrivial character has an entry on
    the stratum, so those blocks have zero maps at every point of it and
    their cohomology is their dimension throughout (a single line bundle is
    a complex of this kind on every stratum); checked at the representative;
  * ``exact-witness``: a point of the stratum has cohomology in a nontrivial
    block.  The point is the stratum's first sample point, or a rational
    zero, on the stratum, of a 1x1 nontrivial block map whose entry is a
    linear form;
  * ``exact-certified``: every nontrivial block is exact at the first sample
    point, with ranks r_j, and every nontrivial block map d_j reaches r_j
    pivots in a fraction-free elimination over Z[x_T] (T the support) whose
    pivots are all monomials.  A monomial is a unit on the stratum, where
    every x_i with i in T is nonzero, so the pivot minor is nonzero at every
    point of the stratum and rank d_j >= r_j there.  Exactness at the sample
    gives r_j + r_{j-1} = n_j, so at every point of the stratum
    dim H^j = n_j - rank d_j - rank d_{j-1} <= n_j - r_j - r_{j-1} = 0 (and
    d o d = 0 keeps it from going below);
  * ``sampled``: otherwise; the stratum is checked at ``samples_per_stratum``
    deterministic sample points, and the report lists it as sampled rather
    than decided exactly: with no witness, its verdict is ``undecided``.

Strata with trivial stabilizer hold vacuously (``exact-trivial-stabilizer``).
Every check decides every stratum in one of these six modes; points given
by the caller are examined in addition, never instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from operator import or_

from .action import MAX_SAMPLES_PER_STRATUM, ProjectiveAction, RationalPoint, Stratum
from .complexes import (
    EquivariantComplex,
    InternalConsistencyError,
    TwistedSummand,
)
from .errors import InputError, require_int
from .linalg import QMatrix, ZMatrix, kernel_dim, monomial_pivots, rank
from .polynomials import Poly


@dataclass(frozen=True)
class BlockComplex:
    """One character block of a fiber complex: dimensions and integer maps."""

    dims: dict  # degree -> positive summand count
    mats: dict  # degree j -> sparse ZMatrix of shape (dims[j+1], dims[j])

    @cached_property
    def ranks(self) -> dict:
        """degree j -> rank d_j, each map ranked once."""
        return {j: rank(m) for j, m in self.mats.items()}

    def cohomology(self) -> dict:
        """degree -> dim H = n_j - rank d_j - rank d_{j-1}."""
        ranks = self.ranks
        out = {}
        for j, n in self.dims.items():
            out[j] = n - ranks.get(j, 0) - ranks.get(j - 1, 0)
            if out[j] < 0:
                raise InternalConsistencyError("negative block cohomology dimension")
        return out


@dataclass(frozen=True)
class FiberComplex:
    """Fiber of a complex at a point, split into stabilizer-character blocks."""

    point: RationalPoint
    stabilizer: object
    blocks: dict  # CharacterRestriction -> BlockComplex


def integer_entries(complex_: EquivariantComplex) -> tuple:
    """The summands, numbered, and the differentials with coefficient
    denominators cleared row by row, in the form ``fiber_layout`` lays out
    on a stratum: (distinct, numbers, entries, placements).

    ``distinct`` lists the distinct summands in the order they first occur
    and ``numbers`` maps each degree to the position in ``distinct`` of each
    of its summands.  Every entry in row t of d_j is multiplied by the lcm
    of the denominators of the entries in that row, so all coefficients are
    integers; scaling rows by nonzero constants changes no rank.
    ``entries`` maps j to a list of (s, t, sign, terms, masks, occurring):
    ``terms`` are the entry's (exponents, int coefficient) pairs in sorted
    order, times ``sign`` so that the first coefficient is positive, a
    term's mask has bit i set when x_i occurs in it, and ``occurring`` is
    the union of the masks.  ``placements`` starts empty; ``fiber_layout``
    keeps there the block placement of each stabilizer class it meets, so
    the strata that share these entries share their placements too.
    """
    position = {}  # summand -> its index in distinct
    numbers = {
        j: [position.setdefault(s, len(position)) for s in complex_.summands(j)]
        for j in complex_.degrees()
    }
    entries = {}
    for j, diff in complex_.differentials.items():
        scale = {}
        for (_, t), p in diff.items():
            scale[t] = lcm(scale.get(t, 1), p.denominator)
        out = entries[j] = []
        for (s, t), p in diff.items():
            factor = scale[t] // p.denominator
            terms = sorted((e, c * factor) for e, c in p.numerators.items())
            sign = 1 if terms[0][1] > 0 else -1
            if sign < 0:
                terms = [(e, -c) for e, c in terms]
            masks = tuple(sum(1 << i for i, a in enumerate(e) if a) for e, _ in terms)
            out.append((s, t, sign, tuple(terms), masks, reduce(or_, masks)))
    return tuple(position), numbers, entries, {}


def _placement(stratum: Stratum, distinct: tuple, numbers: dict) -> tuple:
    """(keys, dims, places): the block keys numbered by first occurrence,
    each block's {degree: summand count}, and for each degree the (block,
    position) of each of its summands.  Each distinct summand's fiber
    character is computed once, and each block key is numbered when first
    met, so the loop over the entries compares small ints rather than
    characters."""
    block_numbers = {}  # block key -> block number
    of_summand = [  # distinct summand -> block number
        block_numbers.setdefault(s.fiber_character(stratum), len(block_numbers))
        for s in distinct
    ]
    dims = [{} for _ in block_numbers]  # block number -> {degree -> summand count}
    places = {}  # degree -> [(block number, position in the block) per summand]
    for j, kinds in numbers.items():
        placed = places[j] = []
        for n in kinds:
            k = of_summand[n]
            per_degree = dims[k]
            position = per_degree.get(j, 0)
            per_degree[j] = position + 1
            placed.append((k, position))
    return list(block_numbers), dims, places


@dataclass(frozen=True)
class FiberLayout:
    """The shape of a complex's fibers on one stratum, without entry values.

    ``polys`` holds the distinct nonzero restrictions of the differential
    entries to the stratum, each up to sign, as integer-coefficient Polys.
    ``blocks`` maps a block key (a fiber character) to (dims, maps): dims is
    {degree: summand count}, and maps holds one (j, rows, cols, cells) per
    block differential, cells being the (row, column, poly index, sign) of
    each entry that does not vanish on the stratum.  ``open_maps`` lists, as
    (key, j, rows, cols, cells), the maps of nontrivial blocks that have
    cells.
    """

    stratum: Stratum
    polys: tuple
    blocks: dict
    open_maps: tuple


def fiber_layout(
    complex_: EquivariantComplex, stratum: Stratum, entries: tuple
) -> FiberLayout:
    """Lay out the fibers of a validated complex on a stratum, given the
    complex's ``integer_entries`` (computed once, shared between strata).

    The fiber characters depend only on the stabilizer and the lead
    character, so the block placement is built once per stabilizer class,
    keyed on (stabilizer, lead character coordinates), and kept in the
    entries' ``placements``.  The entries are filtered once per stratum: an
    entry between two blocks that does not vanish identically on the stratum
    raises InternalConsistencyError, as equivariance forbids it, so the
    decomposition or the validation is buggy."""
    distinct, numbers, diffs, placements = entries
    # Not keyed on ``scalar_char``: its value table is |S| long.
    key = (stratum.stabilizer, stratum.lead_char.coords)
    placement = placements.get(key)
    if placement is None:
        placement = placements[key] = _placement(stratum, distinct, numbers)
    keys, dims, places = placement

    nvars = complex_.action.dim + 1
    off = (1 << nvars) - 1  # the variables off the support
    for i in stratum.support:
        off ^= 1 << i
    polys = []  # distinct restricted entries, as sorted term tuples
    index = {}  # restricted terms -> poly index
    cells = {}  # (block number, j) -> [(row, column, poly index, sign)]
    for j, diff in diffs.items():
        sources, targets = places[j], places[j + 1]
        for s, t, sign, terms, masks, occurring in diff:
            if occurring & off:
                if len(terms) == 1:  # a monomial off the support vanishes
                    continue
                terms = tuple(term for term, mask in zip(terms, masks) if not mask & off)
                if not terms:
                    continue
                if terms[0][1] < 0:
                    sign = -sign
                    terms = tuple((e, -c) for e, c in terms)
            k, col = sources[s]
            target, r = targets[t]
            if target != k:
                raise InternalConsistencyError(
                    f"entry {s}->{t} at degree {j} crosses blocks "
                    f"{keys[k].values} -> {keys[target].values} and does not "
                    f"vanish on the stratum {stratum.support}"
                )
            number = index.get(terms)
            if number is None:
                number = index[terms] = len(polys)
                polys.append(terms)
            cells.setdefault((k, j), []).append((r, col, number, sign))

    blocks = {}
    open_maps = []
    for k, (phi, per_degree) in enumerate(zip(keys, dims)):
        maps = tuple(
            (j, per_degree[j + 1], n, tuple(cells.get((k, j), ())))
            for j, n in per_degree.items()
            if j + 1 in per_degree
        )
        blocks[phi] = (per_degree, maps)
        if not phi.is_trivial:
            open_maps += [(phi, *m) for m in maps if m[3]]
    # Int coefficients over the denominator 1 are already in normal form.
    polys = tuple(Poly._raw(nvars, dict(terms), 1) for terms in polys)
    return FiberLayout(stratum, polys, blocks, tuple(open_maps))


def fiber_restrict(
    complex_: EquivariantComplex,
    point: RationalPoint,
    layout: FiberLayout | None = None,
) -> FiberComplex:
    """Restrict a *validated* complex to the fiber at a point.

    Each summand O(d) tensor psi contributes one basis line, placed in the
    block of its fiber character psi - d*c (c the stratum scalar character).
    The block matrices hold the raw entries p(x) at the primitive integer
    coordinates x of the point, with each row of d_j scaled by the lcm of its
    coefficient denominators.  They differ from the trivialized entries
    p(x) / x_{i0}^{d_t - d_s} by invertible diagonal factors on both sides,
    so every block rank, and hence every cohomology dimension, is the same
    for any choice of trivializing coordinate i0 in the support.  Each
    distinct restricted entry of the layout is evaluated once.

    ``layout`` is the ``fiber_layout`` of the point's stratum; it is built
    here when not given.
    """
    action = complex_.action
    action.check_point(point)
    support = point.support
    if layout is None:
        stratum = action.stratum_of_point(point)
        layout = fiber_layout(complex_, stratum, integer_entries(complex_))
    elif layout.stratum.support != support:
        raise InputError(
            f"the layout is for the stratum {layout.stratum.support}, not {support}"
        )

    x = point.integer_coords
    values = [p.evaluate(x) for p in layout.polys]
    blocks = {}
    for phi, (dims, maps) in layout.blocks.items():
        mats = {}
        for j, rows, cols, cells in maps:
            sparse = [{} for _ in range(rows)]
            for r, c, number, sign in cells:
                value = values[number]
                if value:
                    sparse[r][c] = value if sign > 0 else -value
            # Nonzero ints: the polys have int coefficients over 1, x is integral.
            mats[j] = ZMatrix._raw(rows, cols, tuple(sparse))
        blocks[phi] = BlockComplex(dims=dims, mats=mats)

    return FiberComplex(point=point, stabilizer=layout.stratum.stabilizer, blocks=blocks)


def block_cohomology(fiber: FiberComplex) -> dict:
    """(degree, block key) -> dim H, across all blocks of the fiber."""
    out = {}
    for phi in sorted(fiber.blocks, key=lambda c: c.values):
        for j, dim in fiber.blocks[phi].cohomology().items():
            out[(j, phi)] = dim
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

# A value table with more entries than this is long: summaries cut it, and
# a report writes its JSON text once however often it appears.
LONG_TABLE = 16


def char_str(values) -> str:
    """A character's values; past 16, the first 8 and the count, so that a
    summary line stays short however large the stabilizer (reports keep
    every value)."""
    if len(values) > LONG_TABLE:
        head = ",".join(str(v) for v in values[:8])
        return f"({head},... {len(values)} values)"
    return "(" + ",".join(str(v) for v in values) + ")"


def support_str(support) -> str:
    return "{" + ",".join(map(str, support)) + "}"


def sampled_str(supports) -> str:
    return "strata " + ", ".join(map(support_str, supports)) + " sampled only"


@dataclass(frozen=True)
class Witness:
    """A failure of descent: nontrivial stabilizer character with surviving
    fiber cohomology at a concrete point."""

    point: str  # canonical display form
    support: tuple
    degree: int
    char_values: tuple
    dim: int

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "support": list(self.support),
            "degree": self.degree,
            "fiber_character": self.char_values,
            "dimension": self.dim,
        }


@dataclass(frozen=True)
class StratumCoverage:
    support: tuple
    stabilizer_order: int
    mode: str  # "exact-single-point" | "exact-trivial-stabilizer" |
    #            "exact-stratum" (no nontrivial block has a map entry) |
    #            "exact-witness" (a point of it fails) |
    #            "exact-certified" (monomial pivot minors, one point) |
    #            "sampled"; the module docstring has the proofs
    points_checked: int

    def to_dict(self) -> dict:
        return {
            "support": list(self.support),
            "stabilizer_order": self.stabilizer_order,
            "mode": self.mode,
            "points_checked": self.points_checked,
        }


@dataclass(frozen=True)
class PointTable:
    point: str
    support: tuple
    stabilizer_order: int
    rows: tuple  # (degree, char_values, dim, is_trivial)

    @property
    def witnesses(self) -> tuple:
        """A Witness for each row of a nontrivial character with cohomology."""
        return tuple(
            Witness(self.point, self.support, j, values, dim)
            for j, values, dim, trivial in self.rows
            if dim and not trivial
        )

    def to_dict(self) -> dict:
        # Each character is its value table itself, not a list copy: json
        # writes a tuple as an array, and the table of a 10,000-element
        # stabilizer is 80 KB.
        return {
            "point": self.point,
            "support": list(self.support),
            "stabilizer_order": self.stabilizer_order,
            "cohomology": [
                {
                    "degree": j,
                    "fiber_character": values,
                    "dimension": dim,
                    "trivial_character": trivial,
                }
                for (j, values, dim, trivial) in self.rows
            ],
        }


@dataclass(frozen=True)
class DescentReport:
    """Outcome of a descent check, with everything needed to audit it: the
    verdict, witnesses and sampled strata follow from the tables and the
    coverage: ``fail`` with a witness, else ``undecided`` with a sampled
    stratum, else ``pass``."""

    coverage: tuple
    tables: tuple
    user_points: int
    samples_per_stratum: int
    seed: int

    @cached_property
    def witnesses(self) -> tuple:
        return tuple(w for t in self.tables for w in t.witnesses)

    @property
    def sampled_supports(self) -> tuple:
        return tuple(c.support for c in self.coverage if c.mode == "sampled")

    @property
    def exact(self) -> bool:
        return not self.sampled_supports

    @property
    def verdict(self) -> str:
        if self.witnesses:
            return "fail"
        return "pass" if self.exact else "undecided"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "coverage": {
                "strata": [c.to_dict() for c in self.coverage],
                "user_points": self.user_points,
                "samples_per_stratum": self.samples_per_stratum,
                "seed": self.seed,
            },
            "sampled_strata": [list(s) for s in self.sampled_supports],
            "exact": self.exact,
            "tables": [t.to_dict() for t in self.tables],
        }


def _examine_point(complex_, point, layout, tables) -> FiberComplex:
    fiber = fiber_restrict(complex_, point, layout=layout)
    dims = block_cohomology(fiber)
    rows = tuple(
        (j, phi.values, dim, phi.is_trivial)
        for (j, phi), dim in sorted(dims.items(), key=lambda kv: (kv[0][0], kv[0][1].values))
    )
    tables.append(PointTable(point.display(), point.support, fiber.stabilizer.order, rows))
    return fiber


# Term products one stratum's certificate may spend, a few hundredths of a
# second.  A stratum of the P^9 Koszul complex under Z/2 takes at most a few
# thousand; a stratum that needs more stays sampled.
CERTIFICATE_WORK = 50_000


def _certified(layout: FiberLayout, fiber: FiberComplex) -> bool:
    """Whether every nontrivial block map of the layout reaches its rank at
    ``fiber`` with monomial pivots alone, within ``CERTIFICATE_WORK`` term
    products for the whole stratum (see the module docstring)."""
    budget = CERTIFICATE_WORK
    polys = layout.polys
    for phi, j, rows, _, cells in layout.open_maps:
        target = fiber.blocks[phi].ranks[j]
        if not target:
            continue
        matrix = [{} for _ in range(rows)]
        for r, c, number, sign in cells:
            nums = polys[number].numerators
            matrix[r][c] = nums if sign > 0 else {e: -a for e, a in nums.items()}
        budget = monomial_pivots(matrix, target, budget)
        if budget is None or budget < 0:
            return False
    return True


def _linear_zeros(layout: FiberLayout, nvars: int):
    """Rational points of the stratum where the entry of a 1x1 nontrivial
    block map vanishes, one per such entry that is a linear form with two
    or more terms: every coordinate in the support is 1, except that the
    form's last variable is solved for, after the first is set to 2 if the
    other terms sum to zero."""
    seen = set()
    for _, _, rows, cols, cells in layout.open_maps:
        if rows != 1 or cols != 1:
            continue
        number = cells[0][2]
        nums = layout.polys[number].numerators
        if number in seen or len(nums) < 2 or any(sum(e) != 1 for e in nums):
            continue
        seen.add(number)
        coords = [0] * nvars
        for i in layout.stratum.support:
            coords[i] = 1
        terms = sorted((e.index(1), c) for e, c in nums.items())  # (variable, coefficient)
        (first, a), (last, b) = terms[0], terms[-1]
        partial = sum(c for _, c in terms[:-1])
        if not partial:
            coords[first] = 2
            partial = a
        coords[last] = Fraction(-partial, b)
        yield RationalPoint(tuple(coords))


def _decide_open_stratum(complex_, layout, samples, seed, tables) -> tuple:
    """(mode, points examined) for a multi-coordinate stratum on which a
    nontrivial block has an entry, in the order ``check_descent`` gives."""
    action = complex_.action
    stratum = layout.stratum
    (first,) = action.sample_points(stratum, 1, seed)
    fiber = _examine_point(complex_, first, layout, tables)
    if tables[-1].witnesses:
        return "exact-witness", 1
    if _certified(layout, fiber):
        return "exact-certified", 1
    checked = 1
    for zero in _linear_zeros(layout, action.dim + 1):
        checked += 1
        _examine_point(complex_, zero, layout, tables)
        if tables[-1].witnesses:
            return "exact-witness", checked
    rest = action.sample_points(stratum, samples, seed)[1:]
    for p in rest:
        _examine_point(complex_, p, layout, tables)
    return "sampled", checked + len(rest)


def check_descent(
    complex_: EquivariantComplex,
    points=(),
    samples_per_stratum: int = 5,
    seed: int = 0,
) -> DescentReport:
    """Decide descent for a complex: every stabilizer must act trivially on
    all fiber cohomology.

    Each stratum is decided in one of the modes of the module docstring.  A
    multi-coordinate stratum on which some nontrivial block has an entry is
    first examined at its first sample point alone: a witness there, or a
    monomial-pivot certificate, decides it with that one point.  Otherwise a
    rational zero of a linear 1x1 nontrivial block entry is examined, and
    the first witness among those decides it; failing that, the stratum
    takes the rest of its ``samples_per_stratum`` deterministic sample
    points and is listed as sampled, an explicit completeness caveat.  Any
    user-supplied ``points`` are checked as given, in addition.

    Each stratum's fiber layout is built once, before its mode is chosen,
    shared by its points, and dropped when the stratum is done; user
    points share one layout per support.  The block placements that the
    layouts are built from last for the whole check, one per stabilizer
    class.  ``samples_per_stratum`` is an int from 1 to
    ``MAX_SAMPLES_PER_STRATUM`` and ``seed`` an int, each checked here, so
    the report's coverage holds only values that the sampling accepts.
    """
    require_int("samples_per_stratum", samples_per_stratum, 1, MAX_SAMPLES_PER_STRATUM)
    require_int("seed", seed)
    complex_.require_valid()
    action = complex_.action
    entries = integer_entries(complex_)
    tables, coverage = [], []

    strata = action.strata()
    for stratum in strata:
        order = stratum.stabilizer.order
        if stratum.stabilizer.is_trivial:
            coverage.append(
                StratumCoverage(stratum.support, order, "exact-trivial-stabilizer", 0)
            )
            continue
        layout = fiber_layout(complex_, stratum, entries)
        single = len(stratum.support) == 1
        if single or not layout.open_maps:
            mode, checked = "exact-single-point" if single else "exact-stratum", 1
            _examine_point(complex_, stratum.representative(), layout, tables)
        else:
            mode, checked = _decide_open_stratum(
                complex_, layout, samples_per_stratum, seed, tables
            )
        coverage.append(StratumCoverage(stratum.support, order, mode, checked))

    by_support = {stratum.support: stratum for stratum in strata}
    layouts = {}  # support -> FiberLayout, built once for all user points on it
    for p in points:
        action.check_point(p)
        if p.support not in layouts:
            layouts[p.support] = fiber_layout(complex_, by_support[p.support], entries)
        _examine_point(complex_, p, layouts[p.support], tables)

    return DescentReport(
        coverage=tuple(coverage),
        tables=tuple(tables),
        user_points=len(points),
        samples_per_stratum=samples_per_stratum,
        seed=seed,
    )


def check_bundle_descent(summand: TwistedSummand, action: ProjectiveAction) -> DescentReport:
    """Exact descent decision for a single twisted line bundle in degree 0.
    With no differentials every stratum is decided exactly by
    ``check_descent``."""
    return check_descent(EquivariantComplex(action, {0: (summand,)}, {}))


# ---------------------------------------------------------------------------
# exact-triple middle check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedSpace:
    """Finite-dimensional vector space graded by stabilizer characters."""

    blocks: tuple  # ((CharacterRestriction, dim), ...) in a fixed order

    def __post_init__(self):
        for key, dim in self.blocks:
            if dim < 0:
                raise InputError("negative block dimension")

    @property
    def total_dim(self) -> int:
        return sum(d for _, d in self.blocks)

    def block_of_index(self, i: int):
        """Block key owning absolute coordinate i."""
        for key, dim in self.blocks:
            if i < dim:
                return key
            i -= dim
        raise IndexError(i)

    def has_nontrivial_part(self) -> bool:
        return any(dim > 0 and not key.is_trivial for key, dim in self.blocks)


@dataclass(frozen=True)
class SandwichResult:
    status: str  # "pass" | "hypothesis-failure" | "middle-violation"
    applicable: bool
    reason: str
    offending: object  # block key or None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def sandwich_check(
    v1: GradedSpace, v2: GradedSpace, v3: GradedSpace, a: QMatrix, b: QMatrix
) -> SandwichResult:
    """Check the exact-triple principle: in an exact, equivariant triple
    v1 -a-> v2 -b-> v3 with trivial action on the outer terms, the middle
    term cannot carry a nontrivial character component.

    Hypothesis failures (non-equivariant maps, image(a) != kernel(b)) are
    reported distinctly from a middle violation; the latter is impossible
    when the hypotheses hold, so seeing it means the rank computations are
    inconsistent (it exists as an assertion utility for the test suite).
    """
    if a.rows != v2.total_dim or a.cols != v1.total_dim:
        raise InputError("map a has the wrong shape for v1 -> v2")
    if b.rows != v3.total_dim or b.cols != v2.total_dim:
        raise InputError("map b has the wrong shape for v2 -> v3")

    for name, mat, src, tgt in (("a", a, v1, v2), ("b", b, v2, v3)):
        for i in range(mat.rows):
            for j in range(mat.cols):
                if mat.entry(i, j) != 0 and tgt.block_of_index(i) != src.block_of_index(j):
                    return SandwichResult(
                        status="hypothesis-failure",
                        applicable=False,
                        reason=f"map {name} mixes character blocks at entry ({i}, {j})",
                        offending=None,
                    )

    composed = b.multiply(a)
    if not composed.is_zero():
        return SandwichResult(
            status="hypothesis-failure",
            applicable=False,
            reason="b o a is nonzero, so image(a) cannot equal kernel(b)",
            offending=None,
        )
    if rank(a) != kernel_dim(b):
        return SandwichResult(
            status="hypothesis-failure",
            applicable=False,
            reason=(
                f"image(a) has dimension {rank(a)} but kernel(b) has dimension "
                f"{kernel_dim(b)}: the triple is not exact at the middle"
            ),
            offending=None,
        )

    applicable = not (v1.has_nontrivial_part() or v3.has_nontrivial_part())
    if not applicable:
        return SandwichResult(
            status="pass",
            applicable=False,
            reason="outer terms carry nontrivial characters; nothing to conclude",
            offending=None,
        )
    for key, dim in v2.blocks:
        if dim > 0 and not key.is_trivial:
            return SandwichResult(
                status="middle-violation",
                applicable=True,
                reason=(
                    "middle term has a nontrivial component despite exact, "
                    "equivariant hypotheses with trivial outer actions"
                ),
                offending=key,
            )
    return SandwichResult(
        status="pass", applicable=True, reason="middle term is trivial-character only",
        offending=None,
    )

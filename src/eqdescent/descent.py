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
position there, and which differential entries fall inside a block (the
entries between blocks are kept apart, to be checked to vanish).  At a point
only the entries are evaluated, in integers:

  * the point is scaled to primitive integer coordinates x;
  * an entry p from (d_s, psi_s) to (d_t, psi_t) contributes its raw value
    p(x), not the trivialized p(x) / x_{i0}^{d_t - d_s} that is invariant
    under rescaling x.  With D_j = diag(x_{i0}^{d_s}) over the summands of
    degree j, the trivialized d_j is D_{j+1}^{-1} d_j(x) D_j; D_j is
    invertible and diagonal, so it respects the blocks and changes no block
    rank (the same argument covers the rescaling of x);
  * coefficient denominators are cleared once per complex, row by row: each
    target summand of d_j has its row multiplied by the lcm of the
    denominators in that row, one more invertible diagonal factor.

Each block differential is then an integer matrix, ranked once by
fraction-free Bareiss elimination, and dim H^j = n_j - r_j - r_{j-1}.

Cohomology ranks can still jump on proper closed subsets of a stratum, so
multi-coordinate strata are checked at deterministic sample points and every
report says which strata were sampled rather than decided exactly.
Single-coordinate strata contain one point and are exact; strata with
trivial stabilizer are exact vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .action import ProjectiveAction, RationalPoint, Stratum
from .complexes import (
    EquivariantComplex,
    InternalConsistencyError,
    TwistedSummand,
)
from .groups import InputError
from .linalg import QMatrix, ZMatrix, kernel_dim, rank


@dataclass(frozen=True)
class BlockComplex:
    """One character block of a fiber complex: dimensions and integer maps."""

    dims: dict  # degree -> positive summand count
    mats: dict  # degree j -> ZMatrix of shape (dims[j+1], dims[j])

    def cohomology(self) -> dict:
        """degree -> dim H = n_j - rank d_j - rank d_{j-1}, ranking each map once."""
        ranks = {j: rank(m) for j, m in self.mats.items()}
        out = {}
        for j, n in self.dims.items():
            out[j] = n - ranks.get(j, 0) - ranks.get(j - 1, 0)
            if out[j] < 0:
                raise InternalConsistencyError("negative block cohomology dimension")
        return out

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())


@dataclass(frozen=True)
class FiberComplex:
    """Fiber of a complex at a point, split into stabilizer-character blocks.

    ``provenance`` records which block each original summand landed in, as a
    map (degree, summand index) -> block key.
    """

    point: RationalPoint
    stabilizer: object
    blocks: dict  # CharacterRestriction -> BlockComplex
    provenance: dict

    def block_keys(self) -> tuple:
        return tuple(sorted(self.blocks, key=lambda c: c.values))


def integer_entries(complex_: EquivariantComplex) -> dict:
    """The differentials with coefficient denominators cleared row by row.

    Returns {j: {(s, t): Poly}}, every entry in row t of d_j multiplied by the
    lcm of the coefficient denominators in that row, so all coefficients are
    integers.  Scaling rows by nonzero constants changes no rank.
    """
    out = {}
    for j, entries in complex_.differentials.items():
        scale = {}
        for (_, t), p in entries.items():
            scale[t] = lcm(scale.get(t, 1), *(c.denominator for _, c in p.monomials()))
        out[j] = {
            (s, t): p if scale[t] == 1 else p * scale[t] for (s, t), p in entries.items()
        }
    return out


@dataclass(frozen=True)
class FiberLayout:
    """The shape of a complex's fibers on one stratum, without entry values.

    ``provenance`` maps (degree, summand index) to the summand's fiber
    character, which keys its block.  ``blocks`` maps a block key to
    (dims, maps): dims is {degree: summand count}, and maps holds one
    (j, rows, cols, cells) per block differential, cells being the
    (row-major index, integer-coefficient Poly) pairs of the entries inside
    the block.  ``crossing`` lists the entries between blocks as
    (j, source, target, Poly); they must vanish on the stratum.
    """

    stratum: Stratum
    provenance: dict
    blocks: dict
    crossing: tuple


def fiber_layout(
    complex_: EquivariantComplex, stratum: Stratum, entries: dict
) -> FiberLayout:
    """Lay out the fibers of a validated complex on a stratum, given the
    complex's ``integer_entries`` (computed once, shared between strata)."""
    chars = {}  # summand -> fiber character; equal summands share one
    provenance = {}
    positions = {}  # (j, summand index) -> position inside its block at degree j
    dims = {}  # block key -> {degree -> summand count}
    for j in complex_.degrees():
        for idx, s in enumerate(complex_.summands(j)):
            phi = chars.get(s)
            if phi is None:
                phi = chars[s] = s.fiber_character(stratum)
            provenance[(j, idx)] = phi
            per_degree = dims.setdefault(phi, {})
            positions[(j, idx)] = per_degree.get(j, 0)
            per_degree[j] = positions[(j, idx)] + 1

    cells = {}  # (block key, j) -> [(row-major index, Poly)]
    crossing = []
    for j, row in entries.items():
        for (s, t), p in row.items():
            phi = provenance[(j, s)]
            if provenance[(j + 1, t)] != phi:
                crossing.append((j, s, t, p))
                continue
            index = positions[(j + 1, t)] * dims[phi][j] + positions[(j, s)]
            cells.setdefault((phi, j), []).append((index, p))

    blocks = {}
    for phi, per_degree in dims.items():
        maps = tuple(
            (j, per_degree[j + 1], n, tuple(cells.get((phi, j), ())))
            for j, n in per_degree.items()
            if j + 1 in per_degree
        )
        blocks[phi] = (per_degree, maps)
    return FiberLayout(stratum, provenance, blocks, tuple(crossing))


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
    for any choice of trivializing coordinate i0 in the support.
    Entries between different blocks must evaluate to exactly zero; a
    nonzero value means the decomposition or the equivariance validation is
    buggy, so it raises InternalConsistencyError rather than returning
    quietly.

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
    for j, s, t, p in layout.crossing:
        value = p.evaluate(x)
        if value:
            raise InternalConsistencyError(
                f"entry {s}->{t} at degree {j} crosses blocks "
                f"{layout.provenance[(j, s)].values} -> "
                f"{layout.provenance[(j + 1, t)].values} with value {value}"
            )

    blocks = {}
    for phi, (dims, maps) in layout.blocks.items():
        mats = {}
        for j, rows, cols, cells in maps:
            flat = [0] * (rows * cols)
            for index, p in cells:
                flat[index] = p.evaluate(x)
            mats[j] = ZMatrix(rows, cols, tuple(flat))
        blocks[phi] = BlockComplex(dims=dims, mats=mats)

    return FiberComplex(
        point=point,
        stabilizer=layout.stratum.stabilizer,
        blocks=blocks,
        provenance=layout.provenance,
    )


def block_cohomology(fiber: FiberComplex) -> dict:
    """(degree, block key) -> dim H, across all blocks of the fiber."""
    out = {}
    for phi in fiber.block_keys():
        for j, dim in fiber.blocks[phi].cohomology().items():
            out[(j, phi)] = dim
    return out


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

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
            "fiber_character": list(self.char_values),
            "dimension": self.dim,
        }


@dataclass(frozen=True)
class StratumCoverage:
    support: tuple
    stabilizer_order: int
    mode: str  # "exact-single-point" | "exact-trivial-stabilizer" |
    #            "exact-stratum" | "sampled" | "skipped"
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

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "support": list(self.support),
            "stabilizer_order": self.stabilizer_order,
            "cohomology": [
                {
                    "degree": j,
                    "fiber_character": list(values),
                    "dimension": dim,
                    "trivial_character": trivial,
                }
                for (j, values, dim, trivial) in self.rows
            ],
        }


@dataclass(frozen=True)
class DescentReport:
    """Outcome of a descent check, with everything needed to audit it."""

    passed: bool
    witnesses: tuple
    coverage: tuple
    tables: tuple
    sampled_supports: tuple
    user_points: int
    samples_per_stratum: int
    seed: int

    @property
    def exact(self) -> bool:
        return not self.sampled_supports

    def to_dict(self) -> dict:
        return {
            "verdict": "pass" if self.passed else "fail",
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

    def caveats(self) -> list:
        out = []
        if self.sampled_supports:
            pretty = ", ".join("{" + ",".join(map(str, s)) + "}" for s in self.sampled_supports)
            out.append(
                f"strata {pretty} were checked at sample points only; "
                "cohomology ranks can jump on proper closed subsets"
            )
        skipped = [c for c in self.coverage if c.mode == "skipped"]
        if skipped:
            pretty = ", ".join("{" + ",".join(map(str, c.support)) + "}" for c in skipped)
            out.append(f"strata {pretty} were not checked (points-only mode)")
        return out


def _examine_point(complex_, point, layout, witnesses, tables):
    fiber = fiber_restrict(complex_, point, layout=layout)
    dims = block_cohomology(fiber)
    rows = []
    display = point.display()
    support = point.support
    for (j, phi), dim in sorted(dims.items(), key=lambda kv: (kv[0][0], kv[0][1].values)):
        rows.append((j, phi.values, dim, phi.is_trivial))
        if dim > 0 and not phi.is_trivial:
            witnesses.append(Witness(display, support, j, phi.values, dim))
    tables.append(
        PointTable(
            point=display,
            support=support,
            stabilizer_order=fiber.stabilizer.order,
            rows=tuple(rows),
        )
    )


def check_descent(
    complex_: EquivariantComplex,
    points=(),
    samples_per_stratum: int = 5,
    seed: int = 0,
    points_only: bool = False,
) -> DescentReport:
    """Decide descent for a complex: every stabilizer must act trivially on
    all fiber cohomology.

    Strata with trivial stabilizer hold vacuously; single-coordinate strata
    are checked at their unique point; other strata are checked at
    ``samples_per_stratum`` deterministic sample points each (plus any
    user-supplied ``points``, which are always checked exactly as given).
    The report lists sampled strata as an explicit completeness caveat.

    Each stratum's fiber layout is built once, shared by its points, and
    dropped when the stratum is done.
    """
    complex_.require_valid()
    action = complex_.action
    entries = integer_entries(complex_)
    witnesses, tables, coverage, sampled = [], [], [], []

    strata = action.strata()
    for stratum in strata:
        order = stratum.stabilizer.order
        if points_only:
            coverage.append(StratumCoverage(stratum.support, order, "skipped", 0))
            continue
        if stratum.stabilizer.is_trivial:
            coverage.append(
                StratumCoverage(stratum.support, order, "exact-trivial-stabilizer", 0)
            )
            continue
        if len(stratum.support) == 1:
            pts = (stratum.representative(),)
            mode = "exact-single-point"
        else:
            pts = action.sample_points(stratum, samples_per_stratum, seed)
            mode = "sampled"
            sampled.append(stratum.support)
        coverage.append(StratumCoverage(stratum.support, order, mode, len(pts)))
        layout = fiber_layout(complex_, stratum, entries)
        for p in pts:
            _examine_point(complex_, p, layout, witnesses, tables)

    by_support = {stratum.support: stratum for stratum in strata}
    for p in points:
        action.check_point(p)
        layout = fiber_layout(complex_, by_support[p.support], entries)
        _examine_point(complex_, p, layout, witnesses, tables)

    return DescentReport(
        passed=not witnesses,
        witnesses=tuple(witnesses),
        coverage=tuple(coverage),
        tables=tuple(tables),
        sampled_supports=tuple(sampled),
        user_points=len(points),
        samples_per_stratum=samples_per_stratum,
        seed=seed,
    )


def check_bundle_descent(
    summand: TwistedSummand, action: ProjectiveAction, degree: int = 0
) -> DescentReport:
    """Exact descent decision for a single twisted line bundle.

    With no differentials the fiber cohomology is the fiber itself and the
    fiber character is constant on each stratum, so every stratum is decided
    exactly from its character data; no sampling, no caveat.  ``degree`` is
    the cohomological degree the bundle sits in (it only relabels report
    rows; the verdict is degree-independent).
    """
    if summand.twist.group != action.group:
        raise InputError("summand twist belongs to a different group")
    witnesses, tables, coverage = [], [], []
    for stratum in action.strata():
        phi = summand.fiber_character(stratum)
        rep = stratum.representative()
        coverage.append(
            StratumCoverage(stratum.support, stratum.stabilizer.order, "exact-stratum", 1)
        )
        tables.append(
            PointTable(
                point=rep.display(),
                support=stratum.support,
                stabilizer_order=stratum.stabilizer.order,
                rows=((degree, phi.values, 1, phi.is_trivial),),
            )
        )
        if not phi.is_trivial:
            witnesses.append(Witness(rep.display(), stratum.support, degree, phi.values, 1))
    return DescentReport(
        passed=not witnesses,
        witnesses=tuple(witnesses),
        coverage=tuple(coverage),
        tables=tuple(tables),
        sampled_supports=(),
        user_points=0,
        samples_per_stratum=0,
        seed=0,
    )


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

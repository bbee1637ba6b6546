"""Equivariant complexes of twisted line bundles on projective space.

A term of a complex is a finite direct sum of summands O(d) tensored with a
character twist psi; a differential entry from a summand (d_s, psi_s) in
cohomological degree j to (d_t, psi_t) in degree j+1 is a polynomial in the
homogeneous coordinates.  Such an entry is a legal sheaf map exactly when

  * every monomial has total degree d_t - d_s              (homogeneity), and
  * every monomial x^a satisfies sum_i a_i chi_i = psi_t - psi_s
                                                           (equivariance),

and the collection is a complex when d o d = 0 as polynomial matrices.
``EquivariantComplex.validate`` reports all three independently.  It
computes the degree and character coordinates of each distinct monomial
once per complex and compares coordinate tuples, so it builds one
character per distinct monomial, not one per monomial or entry.  The
d o d check sums the products that make up each composite entry as integer
numerators over the lcm of their denominators and builds a polynomial only
for a nonzero sum, so products that cancel are never normalised, and a
product above the degree cap that cancels is no error.  Summand twists and
the characters derived from them are checked once, where they enter (see
``groups``); fiber characters are built from them unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import add

from .action import ProjectiveAction
from .groups import Character, InputError
from .polynomials import Poly


class InternalConsistencyError(AssertionError):
    """The package's own invariants failed; this is a bug, not bad input."""


@dataclass(frozen=True)
class TwistedSummand:
    """O(degree) tensored with the character ``twist``."""

    degree: int
    twist: Character

    def __post_init__(self):
        if type(self.degree) is not int:
            raise InputError(f"a summand degree must be an int, got {self.degree!r}")

    def fiber_character(self, stratum):
        """Action of the stratum stabilizer on this summand's fiber.

        A stabilizing g scales a representative vector x by the stratum's
        scalar character c(g); the fiber of O(-1) at [x] is the line k*x
        itself, so g acts on the fiber of O(d) tensor psi by

            phi(g) = psi(g) - d * c(g)   (exponents mod m).

        c is the restriction of the stratum's ``lead_char``, and restriction
        is a homomorphism, so phi is the one restriction of psi - d * lead_char,
        whose coordinates are reduced in one pass.
        """
        twist, lead, d = self.twist, stratum.lead_char, self.degree
        group = twist._same_group(lead)
        phi = Character._raw(group, tuple(
            (a - d * b) % n for a, b, n in zip(twist.coords, lead.coords, group.orders)
        ))
        return phi.restrict(stratum.stabilizer)

    def tensor_power(self, k: int) -> "TwistedSummand":
        """k-th tensor power: O(k*d) with the k-fold twist."""
        return TwistedSummand(k * self.degree, self.twist.scaled(k))

    def inverse(self) -> "TwistedSummand":
        return self.tensor_power(-1)

    def __repr__(self):
        if self.twist.is_trivial:
            return f"O({self.degree})"
        return f"O({self.degree})@{self.twist.coords}"


@dataclass(frozen=True)
class Violation:
    """One validation failure, anchored to the offending entry or monomial."""

    kind: str  # "homogeneity" | "equivariance" | "d-squared"
    degree: int
    source: int
    target: int
    detail: str

    def __repr__(self):
        return (
            f"[{self.kind}] degree {self.degree}, entry {self.source} -> {self.target}: "
            f"{self.detail}"
        )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple


class InvalidComplexError(InputError):
    """Raised when an operation requires a valid complex but validation
    failed."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(repr(v) for v in report.violations[:5])
        more = "" if len(report.violations) <= 5 else f" (+{len(report.violations) - 5} more)"
        super().__init__(f"complex fails validation: {lines}{more}")


def _matrix_compose(entries_ab: dict, entries_bc: dict) -> dict:
    """Compose sparse polynomial matrices: (s -> u) then (u -> t).

    The second matrix is indexed by source first, so the work is linear in
    the number of entry pairs that actually meet.  The products that make
    up one output entry are summed as integer numerators over the lcm of
    their denominators, and a Poly is built (in normal form) only when the
    sum is nonzero; no product is a Poly of its own, so a transient product
    above ``MAX_TOTAL_DEGREE`` that cancels is no error.
    """
    by_source = {}
    for (u, t), q in entries_bc.items():
        by_source.setdefault(u, []).append((t, q))
    meeting = {}  # (s, t) -> [(p, q) per middle index u]
    for (s, u), p in entries_ab.items():
        for t, q in by_source.get(u, ()):
            meeting.setdefault((s, t), []).append((p, q))
    out = {}
    for key, pairs in meeting.items():
        den = 1
        for p, q in pairs:
            d = p.denominator * q.denominator
            if d != 1:
                den = lcm(den, d)
        nums = {}
        get = nums.get
        for p, q in pairs:
            scale = den // (p.denominator * q.denominator)
            right = tuple(q.numerators.items())
            for e1, c1 in p.numerators.items():
                c1 *= scale
                for e2, c2 in right:
                    e = tuple(map(add, e1, e2))
                    nums[e] = get(e, 0) + c1 * c2
        if any(nums.values()):
            out[key] = Poly._normal(pairs[0][0].nvars, nums, den)
    return out


class EquivariantComplex:
    """Bounded complex of sums of twisted line bundles, with sparse differentials.

    ``terms`` maps a cohomological degree to a tuple of TwistedSummand;
    ``differentials`` maps degree j to a sparse dict {(source_index,
    target_index): Poly} describing the map from degree j to degree j+1.
    Structural problems (bad indices, wrong variable counts, foreign groups)
    raise InputError immediately; mathematical problems (homogeneity,
    equivariance, d o d) are collected by :meth:`validate`.  Nothing changes
    a complex after it is built, so its validation report is kept on it and
    each complex is validated once, however often it is checked.
    """

    def __init__(self, action: ProjectiveAction, terms: dict, differentials: dict):
        self.action = action
        nvars = action.dim + 1
        clean_terms = {}
        for j, summands in terms.items():
            if type(j) is not int:
                raise InputError(f"degree {j!r} is not an int")
            summands = tuple(summands)
            if not summands:
                continue
            for s in summands:
                if not isinstance(s, TwistedSummand):
                    raise InputError(f"term in degree {j} is not a TwistedSummand: {s!r}")
                if s.twist.group != action.group:
                    raise InputError(
                        f"summand twist in degree {j} belongs to a different group"
                    )
            clean_terms[j] = summands
        clean_diffs = {}
        for j, entries in differentials.items():
            if type(j) is not int:
                raise InputError(f"differential degree {j!r} is not an int")
            kept = {}
            for (s, t), p in entries.items():
                if p.is_zero:
                    continue
                if j not in clean_terms or j + 1 not in clean_terms:
                    raise InputError(
                        f"differential at degree {j} connects missing terms"
                    )
                if type(s) is not int or not (0 <= s < len(clean_terms[j])):
                    raise InputError(f"source index {s!r} out of range in degree {j}")
                if type(t) is not int or not (0 <= t < len(clean_terms[j + 1])):
                    raise InputError(f"target index {t!r} out of range in degree {j + 1}")
                if p.nvars != nvars:
                    raise InputError(
                        f"entry {s}->{t} at degree {j} uses {p.nvars} variables, "
                        f"expected {nvars}"
                    )
                kept[(s, t)] = p
            if kept:
                clean_diffs[j] = kept
        self.terms = clean_terms
        self.differentials = clean_diffs
        self._validation = None

    # -- accessors -----------------------------------------------------------

    def degrees(self) -> tuple:
        return tuple(sorted(self.terms))

    def summands(self, j: int) -> tuple:
        return self.terms.get(j, ())

    def entry(self, j: int, s: int, t: int) -> Poly:
        nvars = self.action.dim + 1
        return self.differentials.get(j, {}).get((s, t), Poly.zero(nvars))

    def total_summands(self) -> int:
        return sum(len(v) for v in self.terms.values())

    # -- validation ------------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Every violation of the complex, found at the first call and kept."""
        if self._validation is None:
            self._validation = self._find_violations()
        return self._validation

    def _find_violations(self) -> ValidationReport:
        violations = []
        monomial_character = self.action.monomial_character
        orders = self.action.group.orders
        seen = {}  # exponent vector -> (degree, character coordinates)
        for j, entries in sorted(self.differentials.items()):
            for (s, t), p in sorted(entries.items()):
                src, tgt = self.terms[j][s], self.terms[j + 1][t]
                want_deg = tgt.degree - src.degree
                want_char = tuple(
                    (a - b) % n for a, b, n in zip(tgt.twist.coords, src.twist.coords, orders)
                )
                for exps in sorted(p.numerators):
                    found = seen.get(exps)
                    if found is None:
                        found = seen[exps] = (sum(exps), monomial_character(exps).coords)
                    degree, char = found
                    if degree != want_deg:
                        violations.append(Violation("homogeneity", j, s, t, (
                            f"monomial {exps} has degree {degree}, entry requires {want_deg}"
                        )))
                    if char != want_char:
                        violations.append(Violation("equivariance", j, s, t, (
                            f"monomial {exps} transforms by {char}, entry requires {want_char}"
                        )))

        for j in sorted(self.differentials):
            if j + 1 in self.differentials:
                square = _matrix_compose(self.differentials[j], self.differentials[j + 1])
                violations += (
                    Violation("d-squared", j, s, t, (
                        f"composition through degree {j + 1} is {p!r}, not 0"
                    ))
                    for (s, t), p in sorted(square.items())
                )
        return ValidationReport(ok=not violations, violations=tuple(violations))

    def require_valid(self):
        """Refuse an invalid complex as bad input (InvalidComplexError)."""
        report = self.validate()
        if not report.ok:
            raise InvalidComplexError(report)

    def require_built_valid(self, builder: str) -> "EquivariantComplex":
        """This complex, which ``builder`` in this package built; an invalid
        one is a bug there (InternalConsistencyError), not bad input."""
        report = self.validate()
        if not report.ok:
            raise InternalConsistencyError(
                f"{builder} produced an invalid complex: {report.violations[:3]}"
            )
        return self

    # -- comparisons -------------------------------------------------------------

    def _signature(self):
        return (
            self.action,
            tuple(sorted((j, tuple(v)) for j, v in self.terms.items())),
            tuple(
                sorted(
                    (j, tuple(sorted(e.items())))
                    for j, e in self.differentials.items()
                )
            ),
        )

    def __eq__(self, other):
        return (
            isinstance(other, EquivariantComplex)
            and self._signature() == other._signature()
        )

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        bits = []
        for j in self.degrees():
            names = " + ".join(repr(s) for s in self.terms[j])
            bits.append(f"[{j}: {names}]")
        return " -> ".join(bits)


def bundle_complex(action: ProjectiveAction, summand: TwistedSummand) -> EquivariantComplex:
    """The one-term complex with ``summand`` placed in degree 0."""
    return EquivariantComplex(action, {0: (summand,)}, {})

"""Equivariant complexes of twisted line bundles on projective space.

A term of a complex is a finite direct sum of summands O(d) tensored with a
character twist psi; a differential entry from a summand (d_s, psi_s) in
cohomological degree j to (d_t, psi_t) in degree j+1 is a polynomial in the
homogeneous coordinates.  Such an entry is a legal sheaf map exactly when

  * every monomial has total degree d_t - d_s              (homogeneity), and
  * every monomial x^a satisfies sum_i a_i chi_i = psi_t - psi_s
                                                           (equivariance),

and the collection is a complex when d o d = 0 as polynomial matrices.
``EquivariantComplex.validate`` reports all three independently.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def fiber_character(self, stratum):
        """Action of the stratum stabilizer on this summand's fiber.

        A stabilizing g scales a representative vector x by the stratum's
        scalar character c(g); the fiber of O(-1) at [x] is the line k*x
        itself, so g acts on the fiber of O(d) tensor psi by

            phi(g) = psi(g) - d * c(g)   (exponents mod m).

        c is the restriction of the stratum's ``lead_char``, and restriction
        is a homomorphism, so phi is the one restriction of psi - d * lead_char.
        """
        return (self.twist - stratum.lead_char.scaled(self.degree)).restrict(
            stratum.stabilizer
        )

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

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {
                    "kind": v.kind,
                    "degree": v.degree,
                    "source": v.source,
                    "target": v.target,
                    "detail": v.detail,
                }
                for v in self.violations
            ],
        }


class InvalidComplexError(InputError):
    """Raised when an operation requires a valid complex but validation failed."""

    def __init__(self, report: ValidationReport):
        self.report = report
        lines = "; ".join(repr(v) for v in report.violations[:5])
        more = "" if len(report.violations) <= 5 else f" (+{len(report.violations) - 5} more)"
        super().__init__(f"complex fails validation: {lines}{more}")


def _matrix_compose(entries_ab: dict, entries_bc: dict, nvars: int) -> dict:
    """Compose sparse polynomial matrices: (s -> u) then (u -> t).

    The second matrix is indexed by source first, so the work is linear in
    the number of entry pairs that actually meet.
    """
    by_source = {}
    for (u, t), q in entries_bc.items():
        by_source.setdefault(u, []).append((t, q))
    out = {}
    for (s, u), p in entries_ab.items():
        for t, q in by_source.get(u, ()):
            key = (s, t)
            out[key] = out.get(key, Poly.zero(nvars)) + q * p
    return {k: v for k, v in out.items() if not v.is_zero}


class EquivariantComplex:
    """Bounded complex of sums of twisted line bundles, with sparse differentials.

    ``terms`` maps a cohomological degree to a tuple of TwistedSummand;
    ``differentials`` maps degree j to a sparse dict {(source_index,
    target_index): Poly} describing the map from degree j to degree j+1.
    Structural problems (bad indices, wrong variable counts, foreign groups)
    raise InputError immediately; mathematical problems (homogeneity,
    equivariance, d o d) are collected by :meth:`validate`.
    """

    def __init__(self, action: ProjectiveAction, terms: dict, differentials: dict):
        self.action = action
        nvars = action.dim + 1
        clean_terms = {}
        for j, summands in terms.items():
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
            clean_terms[int(j)] = summands
        clean_diffs = {}
        for j, entries in differentials.items():
            j = int(j)
            kept = {}
            for (s, t), p in entries.items():
                if p.is_zero:
                    continue
                if j not in clean_terms or j + 1 not in clean_terms:
                    raise InputError(
                        f"differential at degree {j} connects missing terms"
                    )
                if not (0 <= s < len(clean_terms[j])):
                    raise InputError(f"source index {s} out of range in degree {j}")
                if not (0 <= t < len(clean_terms[j + 1])):
                    raise InputError(f"target index {t} out of range in degree {j + 1}")
                if p.nvars != nvars:
                    raise InputError(
                        f"entry {s}->{t} at degree {j} uses {p.nvars} variables, "
                        f"expected {nvars}"
                    )
                kept[(int(s), int(t))] = p
            if kept:
                clean_diffs[j] = kept
        self.terms = clean_terms
        self.differentials = clean_diffs

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
        violations = []
        monomial_character = self.action.monomial_character
        for j, entries in sorted(self.differentials.items()):
            for (s, t), p in sorted(entries.items()):
                src = self.terms[j][s]
                tgt = self.terms[j + 1][t]
                want_deg = tgt.degree - src.degree
                want_char = tgt.twist - src.twist
                for exps, _ in p.monomials():
                    if sum(exps) != want_deg:
                        violations.append(
                            Violation(
                                "homogeneity",
                                j,
                                s,
                                t,
                                f"monomial {exps} has degree {sum(exps)}, "
                                f"entry requires {want_deg}",
                            )
                        )
                    if monomial_character(exps) != want_char:
                        violations.append(
                            Violation(
                                "equivariance",
                                j,
                                s,
                                t,
                                f"monomial {exps} transforms by "
                                f"{monomial_character(exps).coords}, entry requires "
                                f"{want_char.coords}",
                            )
                        )

        nvars = self.action.dim + 1
        for j in sorted(self.differentials):
            if j + 1 not in self.differentials:
                continue
            square = _matrix_compose(
                self.differentials[j], self.differentials[j + 1], nvars
            )
            for (s, t), p in sorted(square.items()):
                violations.append(
                    Violation(
                        "d-squared",
                        j,
                        s,
                        t,
                        f"composition through degree {j + 1} is {p!r}, not 0",
                    )
                )

        return ValidationReport(ok=not violations, violations=tuple(violations))

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            raise InvalidComplexError(report)

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

    def canonical_form(self) -> "EquivariantComplex":
        """Sort summands within each degree (stably, by (degree, twist)) and
        permute differential indices to match; two complexes that differ only
        by within-degree summand order have equal canonical forms."""
        perms = {}
        new_terms = {}
        for j, summands in self.terms.items():
            order = sorted(
                range(len(summands)),
                key=lambda i: (summands[i].degree, summands[i].twist.coords, i),
            )
            perms[j] = {old: new for new, old in enumerate(order)}
            new_terms[j] = tuple(summands[i] for i in order)
        new_diffs = {}
        for j, entries in self.differentials.items():
            new_diffs[j] = {
                (perms[j][s], perms[j + 1][t]): p for (s, t), p in entries.items()
            }
        return EquivariantComplex(self.action, new_terms, new_diffs)

    def __repr__(self):
        bits = []
        for j in self.degrees():
            names = " + ".join(repr(s) for s in self.terms[j])
            bits.append(f"[{j}: {names}]")
        return " -> ".join(bits)


def bundle_complex(action: ProjectiveAction, summand: TwistedSummand) -> EquivariantComplex:
    """The one-term complex with ``summand`` placed in degree 0."""
    return EquivariantComplex(action, {0: (summand,)}, {})

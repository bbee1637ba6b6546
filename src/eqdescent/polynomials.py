"""Sparse multivariate polynomials with exact rational coefficients.

Differential entries of the complexes in this package are polynomials in the
homogeneous coordinates x_0, ..., x_n.  They are stored sparsely as a map
from exponent vectors to nonzero Fraction coefficients, with a total-degree
cap to keep accidental blow-ups (e.g. from repeated substitution) loud
instead of silent.
"""

from __future__ import annotations

from fractions import Fraction

from .groups import InputError

MAX_TOTAL_DEGREE = 64


def _as_fraction(x) -> Fraction:
    if isinstance(x, (int, str, Fraction)):
        return Fraction(x)
    raise InputError(f"not an exact rational coefficient: {x!r}")


class Poly:
    """Immutable sparse polynomial over Q in a fixed number of variables."""

    __slots__ = ("nvars", "terms", "_key", "_int_terms")

    def __init__(self, nvars: int, terms):
        normalized = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            coeff = _as_fraction(coeff)
            if len(exps) != nvars:
                raise InputError(
                    f"exponent vector {exps} has {len(exps)} slots, expected {nvars}"
                )
            if any(e < 0 for e in exps):
                raise InputError(f"negative exponent in {exps}")
            if sum(exps) > MAX_TOTAL_DEGREE:
                raise InputError(
                    f"monomial degree {sum(exps)} exceeds the cap {MAX_TOTAL_DEGREE}"
                )
            if coeff != 0:
                normalized[exps] = normalized.get(exps, Fraction(0)) + coeff
                if normalized[exps] == 0:
                    del normalized[exps]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", normalized)
        object.__setattr__(self, "_key", tuple(sorted(normalized.items())))
        object.__setattr__(self, "_int_terms", None)  # built by _integer_terms

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, nvars: int, exps, coeff=1) -> "Poly":
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        exps = [0] * nvars
        exps[i] = 1
        return cls(nvars, {tuple(exps): 1})

    # -- structure -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def monomials(self):
        """(exponent_vector, coefficient) pairs in sorted order."""
        return self._key

    # -- arithmetic -------------------------------------------------------------

    def _check_same_vars(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise InputError("polynomials in different variable counts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_vars(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Poly(self.nvars, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, str, Fraction)):
            f = _as_fraction(other)
            return Poly(self.nvars, {e: c * f for e, c in self.terms.items()})
        self._check_same_vars(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return Poly(self.nvars, terms)

    __rmul__ = __mul__

    def evaluate(self, coords) -> Fraction | int:
        """Value at ``coords``: an int when the coefficients and the
        coordinates are all integers, a Fraction otherwise."""
        coords = tuple(coords)
        if len(coords) != self.nvars:
            raise InputError("evaluation point has the wrong number of coordinates")
        int_terms = all(type(x) is int for x in coords) and self._integer_terms()
        if int_terms is not False:
            total = 0
            for coeff, factors in int_terms:
                for i, e in factors:
                    coeff *= coords[i] ** e
                total += coeff
            return total
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            value = coeff
            for x, e in zip(coords, exps):
                if e:
                    value *= Fraction(x) ** e
            total += value
        return total

    def _integer_terms(self):
        """(integer coefficient, ((variable, exponent), ...)) per monomial,
        or False when some coefficient is not an integer; built once."""
        if self._int_terms is None:
            integral = all(c.denominator == 1 for c in self.terms.values())
            object.__setattr__(self, "_int_terms", integral and tuple(
                (c.numerator, tuple((i, e) for i, e in enumerate(exps) if e))
                for exps, c in self.terms.items()
            ))
        return self._int_terms

    def substitute_scaled_permutation(self, images) -> "Poly":
        """Substitute x_j -> scale_j * x_{index_j} for images[j] = (index_j, scale_j).

        The image of each variable is a scaled variable, so monomials map to
        monomials and exactness is preserved.
        """
        if len(images) != self.nvars:
            raise InputError("substitution needs an image for every variable")
        terms = {}
        for exps, coeff in self.terms.items():
            new_exps = [0] * self.nvars
            new_coeff = coeff
            for j, e in enumerate(exps):
                if e == 0:
                    continue
                idx, scale = images[j]
                new_exps[idx] += e
                new_coeff *= _as_fraction(scale) ** e
            key = tuple(new_exps)
            terms[key] = terms.get(key, Fraction(0)) + new_coeff
        return Poly(self.nvars, terms)

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self._key == other._key
        )

    def __hash__(self):
        return hash((self.nvars, self._key))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, coeff in self._key:
            vars_part = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e
            )
            if not vars_part:
                bits.append(str(coeff))
            elif coeff == 1:
                bits.append(vars_part)
            elif coeff == -1:
                bits.append(f"-{vars_part}")
            else:
                bits.append(f"{coeff}*{vars_part}")
        return " + ".join(bits).replace("+ -", "- ")

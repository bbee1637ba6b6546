"""Sparse multivariate polynomials with exact rational coefficients.

Differential entries of the complexes in this package are polynomials in the
homogeneous coordinates x_0, ..., x_n.  A polynomial is stored as integer
numerators over one common denominator: ``numerators`` maps exponent vectors
to nonzero ints and ``denominator`` is a positive int, in normal form (the
gcd of all numerators and the denominator is 1), so equal polynomials are
stored alike.  Sums, products, scalings and substitutions work on ints, and
a polynomial with integer coefficients (every entry of a Koszul complex)
never builds a Fraction.  ``terms`` and ``monomials()`` give the
coefficients as Fractions.  A total-degree cap keeps accidental blow-ups
(e.g. from repeated substitution) loud instead of silent.

Exponents and coefficients are checked once, where a polynomial enters:
``Poly(nvars, terms)`` and the constructors built on it, or the problem
parser, which builds each entry it checked with ``Poly._normal``.  Results of
arithmetic on checked polynomials are built in normal form with the
unchecked ``Poly._normal`` and ``Poly._raw``, and so are the values the
package derives from them: a fiber layout's restricted entries, and the
composite entries of the d o d check, whose products are summed as integer
numerators and never built as polynomials (so the degree cap, which
products check, does not apply to them).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add

from .errors import InputError, as_rational, number_text

MAX_TOTAL_DEGREE = 64
# The bound on the absolute value of each degree a problem file gives: a
# summand or twist degree, a shift and a cohomological degree key.  A word
# of N generators then moves a degree by less than N * 10^9, so every
# degree a report writes stays far shorter than int() writes.
MAX_ABS_DEGREE = 10**9


def _degree_error(degree: int) -> InputError:
    return InputError(f"monomial degree {degree} exceeds the cap {MAX_TOTAL_DEGREE}")


class Poly:
    """Immutable sparse polynomial over Q in a fixed number of variables."""

    # _factors (the evaluation plan) is built on first use.
    __slots__ = ("nvars", "numerators", "denominator", "_factors")

    def __init__(self, nvars: int, terms):
        summed = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(exps)
            if any(type(e) is not int for e in exps):
                raise InputError(f"exponent vector {exps} has an entry that is not an int")
            if type(coeff) is not int and type(coeff) is not Fraction:
                coeff = as_rational(coeff, "coefficient")
            if len(exps) != nvars:
                raise InputError(
                    f"exponent vector {exps} has {len(exps)} slots, expected {nvars}"
                )
            if any(e < 0 for e in exps):
                raise InputError(f"negative exponent in {exps}")
            if sum(exps) > MAX_TOTAL_DEGREE:
                raise _degree_error(sum(exps))
            summed[exps] = summed[exps] + coeff if exps in summed else coeff
        # The lcm of reduced denominators leaves numerators and denominator
        # coprime, so this is already the normal form.
        den = lcm(*(c.denominator for c in summed.values()))
        self._set(nvars, {
            e: c.numerator * (den // c.denominator) for e, c in summed.items() if c
        }, den)

    def _set(self, nvars: int, numerators: dict, denominator: int):
        setattr_ = object.__setattr__
        setattr_(self, "nvars", nvars)
        setattr_(self, "numerators", numerators)
        setattr_(self, "denominator", denominator)

    @classmethod
    def _normal(cls, nvars: int, numerators: dict, denominator: int) -> "Poly":
        """sum(numerators[e] * x^e) / denominator in normal form; the dict may
        hold zeros and is taken over, the denominator must be positive."""
        numerators = {e: c for e, c in numerators.items() if c}
        if denominator != 1:
            g = gcd(denominator, *numerators.values())
            if g != 1:
                denominator //= g
                numerators = {e: c // g for e, c in numerators.items()}
        return cls._raw(nvars, numerators, denominator)

    @classmethod
    def _raw(cls, nvars: int, numerators: dict, denominator: int) -> "Poly":
        """A polynomial from parts already in normal form, unchecked."""
        p = object.__new__(cls)
        p._set(nvars, numerators, denominator)
        return p

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._raw(nvars, {}, 1)

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
        return not self.numerators

    @property
    def terms(self) -> dict:
        """{exponent vector: Fraction coefficient}."""
        den = self.denominator
        return {e: Fraction(c, den) for e, c in self.numerators.items()}

    def monomials(self) -> tuple:
        """(exponent_vector, Fraction coefficient) pairs in sorted order."""
        den = self.denominator
        return tuple((e, Fraction(c, den)) for e, c in sorted(self.numerators.items()))

    # -- arithmetic -------------------------------------------------------------

    def _check_same_vars(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise InputError("polynomials in different variable counts")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_vars(other)
        a, b = self.denominator, other.denominator
        den = a if a == b else lcm(a, b)
        fa, fb = den // a, den // b
        nums = dict(self.numerators) if fa == 1 else {
            e: c * fa for e, c in self.numerators.items()
        }
        get = nums.get
        for e, c in other.numerators.items():
            nums[e] = get(e, 0) + c * fb
        return Poly._normal(self.nvars, nums, den)

    def __neg__(self) -> "Poly":
        return Poly._raw(
            self.nvars, {e: -c for e, c in self.numerators.items()}, self.denominator
        )

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            f = as_rational(other, "scalar")
            if not f:
                return Poly.zero(self.nvars)
            num, den = f.numerator, f.denominator
            return Poly._normal(self.nvars, {
                e: c * num for e, c in self.numerators.items()
            }, self.denominator * den)
        self._check_same_vars(other)
        if not self.numerators or not other.numerators:
            return Poly.zero(self.nvars)
        degree = max(map(sum, self.numerators)) + max(map(sum, other.numerators))
        if degree > MAX_TOTAL_DEGREE:
            raise _degree_error(degree)
        nums = {}
        get = nums.get
        right = tuple(other.numerators.items())
        for e1, c1 in self.numerators.items():
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                nums[e] = get(e, 0) + c1 * c2
        return Poly._normal(self.nvars, nums, self.denominator * other.denominator)

    __rmul__ = __mul__

    def evaluate(self, coords) -> Fraction | int:
        """Value at the sequence ``coords``: the integer sum of the numerator
        terms, divided once by the denominator.  An int when the coordinates
        are ints and the denominator is 1, a Fraction otherwise."""
        if len(coords) != self.nvars:
            raise InputError("evaluation point has the wrong number of coordinates")
        try:
            plan = self._factors
        except AttributeError:
            # (numerator, variable indices) per term, each index repeated
            # by its exponent: multiplying is cheaper than ** at these sizes.
            plan = tuple(
                (c, tuple(i for i, e in enumerate(exps) for _ in range(e)))
                for exps, c in self.numerators.items()
            )
            object.__setattr__(self, "_factors", plan)
        total = 0
        for coeff, factors in plan:
            for i in factors:
                coeff *= coords[i]
            total += coeff
        den = self.denominator
        return total if den == 1 else Fraction(total, den)

    def substitute_scaled_permutation(self, images) -> "Poly":
        """Substitute x_j -> scale_j * x_{index_j} for images[j] = (index_j, scale_j).

        The image of each variable is a scaled variable, so monomials map to
        monomials and exactness is preserved.
        """
        if len(images) != self.nvars:
            raise InputError("substitution needs an image for every variable")
        scaled = []
        for idx, scale in images:
            if type(scale) is not int:
                scale = as_rational(scale, "scale")
            scaled.append((idx, scale.numerator, scale.denominator))
        moved = []  # (image exponents, numerator, denominator) per term
        for exps, num in self.numerators.items():
            new_exps = [0] * self.nvars
            den = 1
            for j, e in enumerate(exps):
                if e:
                    idx, a, b = scaled[j]
                    new_exps[idx] += e
                    num *= a**e
                    den *= b**e
            moved.append((tuple(new_exps), num, den))
        common = lcm(*(den for _, _, den in moved))
        nums = {}
        for exps, num, den in moved:
            nums[exps] = nums.get(exps, 0) + num * (common // den)
        return Poly._normal(self.nvars, nums, self.denominator * common)

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.nvars, self.denominator, tuple(sorted(self.numerators.items()))))

    def __repr__(self):
        if not self.numerators:
            return "0"
        bits = []
        for exps, coeff in self.monomials():
            vars_part = "*".join(
                f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in enumerate(exps) if e
            )
            if not vars_part:
                bits.append(number_text(coeff))
            elif coeff == 1:
                bits.append(vars_part)
            elif coeff == -1:
                bits.append(f"-{vars_part}")
            else:
                bits.append(f"{number_text(coeff)}*{vars_part}")
        return " + ".join(bits).replace("+ -", "- ")

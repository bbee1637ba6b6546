"""Diagonal actions of finite abelian groups on projective space.

An action on P^n is a tuple of n+1 characters: the group element g sends
[x_0 : ... : x_n] to [chi_0(g) x_0 : ... : chi_n(g) x_n], where the character
values are roots of unity.  Because the action is diagonal, everything about
a point's stabilizer depends only on which coordinates are nonzero, so P^n
decomposes into 2^(n+1) - 1 coordinate-support strata on which stabilizers
and the scalar action on representative vectors are constant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .groups import (
    AbelianGroup,
    Character,
    CharacterRestriction,
    InputError,
    Subgroup,
    equalizer_subgroup,
)

MAX_PROJECTIVE_DIM = 10
# A two-coordinate stratum has fewer than a thousand distinct sampler points,
# and drawing them costs seconds per stratum, so larger counts are refused.
MAX_SAMPLES_PER_STRATUM = 100
_SAMPLER_MIX = 0x9E3779B1  # 32-bit golden-ratio constant, for per-stratum seeds


def _as_fraction(x) -> Fraction:
    if isinstance(x, (int, str, Fraction)):
        return Fraction(x)
    raise InputError(f"not an exact rational coordinate: {x!r}")


@dataclass(frozen=True)
class RationalPoint:
    """Point of P^n with exact rational homogeneous coordinates."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(_as_fraction(c) for c in self.coords)
        if not any(coords):
            raise InputError("projective points need at least one nonzero coordinate")
        object.__setattr__(self, "coords", coords)

    @cached_property
    def support(self) -> tuple:
        return tuple(i for i, c in enumerate(self.coords) if c != 0)

    @cached_property
    def integer_coords(self) -> tuple:
        """The primitive integer representative: the coordinates times the
        lcm of their denominators, divided by the gcd of the results."""
        scale = lcm(*(c.denominator for c in self.coords))
        ints = [c.numerator * (scale // c.denominator) for c in self.coords]
        common = gcd(*ints)
        return tuple(v // common for v in ints)

    def canonical(self) -> "RationalPoint":
        """Rescale so the first nonzero coordinate is 1."""
        lead = self.coords[self.support[0]]
        return RationalPoint(tuple(c / lead for c in self.coords))

    def display(self) -> str:
        return "(" + ":".join(str(c) for c in self.canonical().coords) + ")"

    def __repr__(self):
        return self.display()


@dataclass(frozen=True)
class Stratum:
    """Coordinate-support stratum: all points with exactly this support.

    ``lead_char`` is the coordinate character of the first supported
    coordinate.  All the supported coordinate characters agree on the
    stabilizer, so its restriction there, ``scalar_char``, is the character
    by which a stabilizing element scales any representative vector of a
    point here.  ``scalar_char`` is computed on first use.
    """

    support: tuple
    stabilizer: Subgroup
    lead_char: Character
    ambient_dim: int

    @cached_property
    def scalar_char(self) -> CharacterRestriction:
        return self.lead_char.restrict(self.stabilizer)

    def representative(self) -> RationalPoint:
        """Canonical member: 1 on every supported coordinate."""
        coords = [Fraction(0)] * (self.ambient_dim + 1)
        for i in self.support:
            coords[i] = Fraction(1)
        return RationalPoint(tuple(coords))

    def __repr__(self):
        return f"Stratum{set(self.support)}"


@dataclass(frozen=True)
class ProjectiveAction:
    """Diagonal action of a finite abelian group on P^dim."""

    group: AbelianGroup
    dim: int
    coord_chars: tuple  # n+1 characters of ``group``

    def __post_init__(self):
        if self.dim < 0:
            raise InputError("projective dimension must be >= 0")
        chars = tuple(self.coord_chars)
        object.__setattr__(self, "coord_chars", chars)
        if len(chars) != self.dim + 1:
            raise InputError(
                f"an action on P^{self.dim} needs {self.dim + 1} coordinate characters"
            )
        for c in chars:
            if not isinstance(c, Character) or c.group != self.group:
                raise InputError("coordinate characters must belong to the acting group")

    # -- pointwise data ----------------------------------------------------

    def check_point(self, x: RationalPoint):
        if len(x.coords) != self.dim + 1:
            raise InputError(
                f"point has {len(x.coords)} coordinates, expected {self.dim + 1}"
            )

    def stratum_of_support(self, support) -> Stratum:
        support = tuple(sorted(set(support)))
        if not support:
            raise InputError("a stratum needs a nonempty support")
        if any(i < 0 or i > self.dim for i in support):
            raise InputError(f"support {support} out of range for P^{self.dim}")
        stab = equalizer_subgroup([self.coord_chars[i] for i in support])
        return Stratum(support, stab, self.coord_chars[support[0]], self.dim)

    def stratum_of_point(self, x: RationalPoint) -> Stratum:
        self.check_point(x)
        return self.stratum_of_support(x.support)

    def monomial_character(self, exps) -> Character:
        """The character sum_i a_i * chi_i by which the monomial x^a transforms."""
        return self.group.character(
            tuple(
                sum(a * chi.coords[k] for a, chi in zip(exps, self.coord_chars) if a)
                for k in range(self.group.rank)
            )
        )

    # -- strata ------------------------------------------------------------

    def strata(self) -> tuple:
        """All 2^(n+1) - 1 coordinate-support strata, smallest supports first.

        They are computed on the first call and kept for the life of the
        action; the dimension bound is checked on every call.
        """
        if self.dim > MAX_PROJECTIVE_DIM:
            raise InputError(
                f"dim {self.dim} exceeds the supported bound {MAX_PROJECTIVE_DIM} "
                "(strata enumeration is exponential in dim)"
            )
        return self._strata

    @cached_property
    def _strata(self) -> tuple:
        out = []
        n = self.dim + 1
        for mask in range(1, 1 << n):
            support = tuple(i for i in range(n) if mask & (1 << i))
            out.append(self.stratum_of_support(support))
        out.sort(key=lambda s: (len(s.support), s.support))
        return tuple(out)

    def sample_points(self, stratum: Stratum, count: int, seed: int) -> tuple:
        """Deterministic sample of distinct points with the stratum's support.

        Coordinates are nonzero fractions with numerators in [-9, 9] and
        denominators in [1, 9].  A single-coordinate stratum has exactly one
        point and always yields just that point.
        """
        if count < 1:
            raise InputError("sample count must be >= 1")
        if count > MAX_SAMPLES_PER_STRATUM:
            raise InputError(f"sample count must be <= {MAX_SAMPLES_PER_STRATUM}, got {count}")
        support = stratum.support
        if len(support) == 1:
            return (stratum.representative(),)
        mask = sum(1 << i for i in support)
        rng = random.Random(seed * _SAMPLER_MIX + mask)
        seen = set()
        points = []
        attempts = 0
        while len(points) < count and attempts < 50 * count:
            attempts += 1
            coords = [Fraction(0)] * (self.dim + 1)
            for i in support:
                num = rng.choice([n for n in range(-9, 10) if n != 0])
                den = rng.randint(1, 9)
                coords[i] = Fraction(num, den)
            p = RationalPoint(tuple(coords))
            key = p.canonical().coords
            if key not in seen:
                seen.add(key)
                points.append(p)
        return tuple(points)

    def __repr__(self):
        return f"{self.group!r} acting on P^{self.dim} by {list(self.coord_chars)!r}"

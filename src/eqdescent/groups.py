"""Finite abelian groups, their characters, and character equalizers.

A group is a product Z/n_1 x ... x Z/n_r given by its ``orders``.  A
character is stored as an integer exponent vector (c_1, ..., c_r) with
c_i in Z/n_i; its value on a group element g is the exponent

    chi(g) = sum_i c_i * g_i * (m / n_i)  mod m,      m = lcm(n_1, ..., n_r),

of the primitive m-th root of unity zeta_m.  Character values are always
handled as exponents in Z/m, never as complex numbers, so every comparison
in the package is exact.

A ``Subgroup`` is held as ``coords``, the sorted tuple of its elements'
coordinate tuples; that is all the decision path reads.  ``elements``, the
same list as ``GroupElement`` objects, is built only when asked for.  The
closure adjoins one generator g at a time by cyclic extension: if H is the
subgroup so far and k is the order of g modulo H, the new subgroup is the
disjoint union of the cosets H + i*g for 0 <= i < k, so no element is built
twice.

Caches, each tied to the object that owns it and living as long as it:

  * ``Subgroup.whole(G)`` is built once per ``AbelianGroup`` object (as
    ``G.whole_subgroup``) and returned again by every later call, including
    ``equalizer_subgroup`` when all the characters agree;
  * a subgroup keeps the restriction of every character it has been asked
    for, keyed by the character's coordinates, so ``Character.restrict``
    computes each value table once per subgroup.

The strata of an action, and with them its stabilizers, are cached on the
``ProjectiveAction`` (see ``action``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm, prod

from .linalg import ZMatrix, kernel_basis

MAX_GROUP_ORDER = 10_000


class InputError(ValueError):
    """Malformed or out-of-contract input data."""


@dataclass(frozen=True)
class AbelianGroup:
    """Finite abelian group Z/n_1 x ... x Z/n_r."""

    orders: tuple

    def __post_init__(self):
        if not isinstance(self.orders, tuple):
            object.__setattr__(self, "orders", tuple(self.orders))
        if len(self.orders) == 0:
            raise InputError("a group needs at least one cyclic factor")
        if not all(isinstance(n, int) and n >= 1 for n in self.orders):
            raise InputError(f"cyclic orders must be positive ints: {self.orders}")
        if prod(self.orders) > MAX_GROUP_ORDER:
            raise InputError(
                f"group order {prod(self.orders)} exceeds the supported bound {MAX_GROUP_ORDER}"
            )

    @property
    def rank(self) -> int:
        return len(self.orders)

    @cached_property
    def order(self) -> int:
        return prod(self.orders)

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.orders)

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    @cached_property
    def elements(self) -> tuple:
        """All elements, in lexicographic coordinate order."""
        out = [()]
        for n in self.orders:
            out = [c + (i,) for c in out for i in range(n)]
        return tuple(GroupElement(self, c) for c in out)

    @cached_property
    def whole_subgroup(self) -> "Subgroup":
        """The group as a subgroup of itself; ``Subgroup.whole`` returns it."""
        units = [
            tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)
        ]
        return Subgroup(self, units)

    def character(self, coords) -> "Character":
        return Character(self, tuple(coords))

    def trivial_character(self) -> "Character":
        return Character(self, (0,) * self.rank)

    @cached_property
    def characters(self) -> tuple:
        """All characters, in lexicographic coordinate order."""
        out = [()]
        for n in self.orders:
            out = [c + (i,) for c in out for i in range(n)]
        return tuple(Character(self, c) for c in out)

    def __repr__(self):
        return "Z/" + " x Z/".join(str(n) for n in self.orders)


def _reduced(coords, orders):
    return tuple(c % n for c, n in zip(coords, orders))


@dataclass(frozen=True)
class GroupElement:
    group: AbelianGroup
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise InputError("element coordinate count does not match the group rank")
        object.__setattr__(self, "coords", _reduced(self.coords, self.group.orders))

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if other.group != self.group:
            raise InputError("cannot add elements of different groups")
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-c for c in self.coords))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def scaled(self, k: int) -> "GroupElement":
        return GroupElement(self.group, tuple(k * c for c in self.coords))

    @property
    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __repr__(self):
        return f"g{self.coords}"


@dataclass(frozen=True)
class Character:
    """Character of an abelian group, stored as an exponent vector."""

    group: AbelianGroup
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise InputError("character coordinate count does not match the group rank")
        object.__setattr__(self, "coords", _reduced(self.coords, self.group.orders))

    def __call__(self, g: GroupElement) -> int:
        """Value on g, as an exponent of zeta_m in Z/m with m = exponent(G)."""
        if g.group != self.group:
            raise InputError("element belongs to a different group")
        m = self.group.exponent
        total = 0
        for c, gi, n in zip(self.coords, g.coords, self.group.orders):
            total += c * gi * (m // n)
        return total % m

    def __add__(self, other: "Character") -> "Character":
        if other.group != self.group:
            raise InputError("cannot combine characters of different groups")
        return Character(
            self.group, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "Character":
        return Character(self.group, tuple(-c for c in self.coords))

    def __sub__(self, other: "Character") -> "Character":
        return self + (-other)

    def scaled(self, k: int) -> "Character":
        return Character(self.group, tuple(k * c for c in self.coords))

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def restrict(self, sub: "Subgroup") -> "CharacterRestriction":
        """Value table on a subgroup, with a triviality flag; computed once
        per subgroup and character, and kept on the subgroup.

        The value on h is sum_i w_i * h_i mod m with w_i = c_i * (m / n_i),
        summed one coordinate column at a time.
        """
        if sub.parent != self.group:
            raise InputError("subgroup belongs to a different group")
        found = sub._restrictions.get(self.coords)
        if found is None:
            m = self.group.exponent
            values = [0] * sub.order
            for i, (c, n) in enumerate(zip(self.coords, self.group.orders)):
                w = c * (m // n)
                if w:
                    values = [v + w * h[i] for v, h in zip(values, sub.coords)]
            found = sub._restrictions[self.coords] = CharacterRestriction(sub, tuple(values))
        return found

    def __repr__(self):
        return f"chi{self.coords}"


class Subgroup:
    """Subgroup of an AbelianGroup, held as its sorted coordinate tuples.

    Equality and hashing are by (parent, sorted coordinates), not by the
    particular generating set, so stabilizers computed through different
    routes compare equal exactly when they agree element-by-element.
    """

    def __init__(self, parent: AbelianGroup, generators):
        self.parent = parent
        gens = []
        for g in generators:
            if not isinstance(g, GroupElement):
                g = parent.element(g)
            if g.group != parent:
                raise InputError("generator belongs to a different group")
            gens.append(g)
        self.generators = tuple(gens)
        orders = parent.orders

        def add(a, b):
            return tuple((x + y) % n for x, y, n in zip(a, b, orders))

        # Closure by cyclic extension: adjoining g to H adds the cosets
        # H + k*g for 0 < k < (order of g modulo H), which are disjoint.
        zero = (0,) * parent.rank
        coords = [zero]
        members = {zero}
        for g in self.generators:
            multiples = []
            step = g.coords
            while step not in members:
                multiples.append(step)
                step = add(step, g.coords)
            grown = [add(h, m) for m in multiples for h in coords]
            coords += grown
            members.update(grown)
        coords.sort()
        self.coords = tuple(coords)
        self._restrictions = {}  # character coords -> CharacterRestriction

    @classmethod
    def whole(cls, parent: AbelianGroup) -> "Subgroup":
        """The whole group, built once per group and shared."""
        return parent.whole_subgroup

    @classmethod
    def trivial(cls, parent: AbelianGroup) -> "Subgroup":
        return cls(parent, [])

    @cached_property
    def elements(self) -> tuple:
        """The elements as GroupElements, in ``coords`` order."""
        return tuple(GroupElement(self.parent, c) for c in self.coords)

    @property
    def order(self) -> int:
        return len(self.coords)

    @property
    def is_trivial(self) -> bool:
        return len(self.coords) == 1

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.coords == other.coords
        )

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.parent, self.coords))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent!r})"


@dataclass(frozen=True)
class CharacterRestriction:
    """A character's value table on a subgroup (exponents of zeta_m in Z/m).

    Values are aligned with ``subgroup.coords``; the modulus is the parent
    group's exponent.  Restrictions are hashable, so they double as block
    keys.
    """

    subgroup: Subgroup
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.subgroup.order:
            raise InputError("value table does not match the subgroup enumeration")
        m = self.modulus
        object.__setattr__(self, "values", tuple(v % m for v in self.values))

    @property
    def modulus(self) -> int:
        return self.subgroup.parent.exponent

    @property
    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.values)

    def is_homomorphism(self) -> bool:
        """Sanity predicate: the table respects the group law."""
        m = self.modulus
        table = dict(zip((g.coords for g in self.subgroup.elements), self.values))
        for g in self.subgroup.elements:
            for h in self.subgroup.elements:
                if (table[g.coords] + table[h.coords] - table[(g + h).coords]) % m != 0:
                    return False
        return True

    def __repr__(self):
        return f"restriction{self.values} mod {self.modulus}"


def equalizer_subgroup(chars) -> Subgroup:
    """Largest subgroup on which all the given characters agree.

    Solves the homogeneous congruences (chi_i - chi_1)(g) = 0 mod m by
    computing the integer kernel lattice of the augmented system
    [A | m*I] via Smith normal form, then projecting the lattice basis
    into the group.  An empty character list is an input error (there is
    no canonical "agreement" subgroup without at least one character).
    """
    chars = list(chars)
    if not chars:
        raise InputError("equalizer_subgroup needs at least one character")
    group = chars[0].group
    if any(c.group != group for c in chars):
        raise InputError("characters belong to different groups")
    base = chars[0]
    diffs = [d for d in (c - base for c in chars[1:]) if not d.is_trivial]
    if not diffs:
        return Subgroup.whole(group)
    m = group.exponent
    r = group.rank
    k = len(diffs)
    # Row j encodes (chi_j - chi_1)(g) = sum_i coords_i * (m/n_i) * g_i = 0 mod m.
    rows = []
    for j, d in enumerate(diffs):
        row = [d.coords[i] * (m // group.orders[i]) for i in range(r)]
        row += [m if t == j else 0 for t in range(k)]
        rows.append(row)
    lattice = kernel_basis(ZMatrix.from_rows(rows))
    gens = [group.element(vec[:r]) for vec in lattice]
    return Subgroup(group, gens)

"""Finite abelian groups, their characters, and character equalizers.

A group is a product Z/n_1 x ... x Z/n_r given by its ``orders``.  A
character is stored as an integer exponent vector (c_1, ..., c_r) with
c_i in Z/n_i; its value on a group element g is the exponent

    chi(g) = sum_i c_i * g_i * (m / n_i)  mod m,      m = lcm(n_1, ..., n_r),

of the primitive m-th root of unity zeta_m.  Character values are always
handled as exponents in Z/m, never as complex numbers, so every comparison
in the package is exact.  ``Character.values`` evaluates a character on
elements given one coordinate column at a time, reducing mod m as it sums;
on the whole group, tables are built from the factor orders alone, each
row a rotation of one period of a factor's column (``_product_table``).

Coordinates are checked once, where they enter: ``AbelianGroup.character``,
``Character(...)``, ``Character.__call__`` and ``Subgroup(parent,
generators)`` refuse a wrong count or a coordinate that is not an int.
Sums, differences, negatives and ``scaled`` multiples of characters are
built from coordinates already checked, reduced mod the orders in the same
pass, through the unchecked ``Character._raw``; the tables the package
computes are built through the unchecked ``CharacterRestriction._raw``.

A group element is its coordinate tuple (g_1, ..., g_r), and
``AbelianGroup.elements`` lists them all in lexicographic order.  A
``Subgroup`` is held as its ``order``, ``coords``, the sorted tuple of its
elements, and ``columns``, the same elements one coordinate at a time.  The
whole group, ``AbelianGroup.whole_subgroup``, gets its ``coords`` (which are
``elements``) only when something reads them: the ``strata`` report, a cut
of it, its ``columns``, or a comparison with another subgroup object of the
same order; no decision does.  A subgroup hashes as (parent, order), in
O(1), and compares element by element.
``equalizer_subgroup`` cuts G by each difference of its characters in
turn, through ``Subgroup.cut``: a cut of the whole group is enumerated as a
kernel on G, one arithmetic progression of last coordinates per prefix,
with no table over G; a cut of any other subgroup keeps the elements where
a restriction table reads 0.  Filtering a sorted tuple keeps it sorted, so
no cut is closed or sorted again.  Only ``Subgroup(parent, generators)``
closes its generators, by cyclic extension: adjoining g to H adds the
disjoint cosets H + i*g, 0 < i < (order of g modulo H).

Caches, each tied to the object that owns it and living as long as it:

  * ``AbelianGroup.whole_subgroup`` is built once per group object, and
    ``AbelianGroup.elements`` once, when first read;
  * a subgroup keeps the restriction of every character it has been asked
    for, so ``Character.restrict`` computes each value table once per
    subgroup, and every cut it has made, so equalizers that begin with the
    same characters share their cuts, and the cuts their tables; both are
    keyed by the character's coordinates.

The strata of an action, and with them its stabilizers, are cached on the
``ProjectiveAction`` (see ``action``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from math import gcd, lcm, prod

from .errors import InputError

MAX_GROUP_ORDER = 10_000


@dataclass(frozen=True)
class AbelianGroup:
    """Finite abelian group Z/n_1 x ... x Z/n_r."""

    orders: tuple

    def __post_init__(self):
        if not isinstance(self.orders, tuple):
            object.__setattr__(self, "orders", tuple(self.orders))
        if len(self.orders) == 0:
            raise InputError("a group needs at least one cyclic factor")
        if not all(type(n) is int and n >= 1 for n in self.orders):
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

    @cached_property
    def elements(self) -> tuple:
        """All elements as coordinate tuples, in lexicographic order."""
        return tuple(product(*map(range, self.orders)))

    @cached_property
    def whole_subgroup(self) -> "Subgroup":
        """The group as a subgroup of itself, built once per group object;
        its ``coords`` are ``elements``, listed only when first read."""
        return Subgroup._raw(self, None)

    def character(self, coords) -> "Character":
        return Character(self, tuple(coords))

    def trivial_character(self) -> "Character":
        return Character(self, (0,) * self.rank)

    @cached_property
    def characters(self) -> tuple:
        """All characters, in lexicographic coordinate order."""
        return tuple(Character(self, c) for c in self.elements)

    def __repr__(self):
        return "Z/" + " x Z/".join(str(n) for n in self.orders)


def _reduced(coords, orders):
    return tuple(c % n for c, n in zip(coords, orders))


def _checked(coords, group, what):
    coords = tuple(coords)
    if len(coords) != group.rank:
        raise InputError(f"{what} coordinate count does not match the group rank")
    if not all(type(c) is int for c in coords):
        raise InputError(f"{what} coordinates must be ints, got {coords!r}")
    return coords


@dataclass(frozen=True)
class Character:
    """Character of an abelian group, stored as an exponent vector."""

    group: AbelianGroup
    coords: tuple

    def __post_init__(self):
        coords = _checked(self.coords, self.group, "character")
        object.__setattr__(self, "coords", _reduced(coords, self.group.orders))

    def __call__(self, g: tuple) -> int:
        """Value on the element g, as an exponent of zeta_m in Z/m with
        m = exponent(G)."""
        return self.values([(x,) for x in _checked(g, self.group, "element")])[0]

    def values(self, columns) -> list:
        """Values on the elements whose coordinates are given one column per
        factor (columns[i][j] is coordinate i of element j), unchecked.

        The value on h is sum_i w_i * h_i mod m with w_i = c_i * (m / n_i),
        summed one column at a time and reduced mod m in the same pass.
        """
        m = self.group.exponent
        values = None
        for col, c, n in zip(columns, self.coords, self.group.orders):
            w = c * (m // n)
            if w and values is None:
                values = [w * h % m for h in col]
            elif w:
                values = [(v + w * h) % m for v, h in zip(values, col)]
        return values or [0] * len(columns[0])

    @classmethod
    def _raw(cls, group: AbelianGroup, coords: tuple) -> "Character":
        """The character with ``coords``, already reduced mod the group's
        orders, unchecked."""
        chi = object.__new__(cls)
        object.__setattr__(chi, "group", group)
        object.__setattr__(chi, "coords", coords)
        return chi

    def _same_group(self, other: "Character") -> AbelianGroup:
        group = self.group
        if other.group is not group and other.group != group:
            raise InputError("cannot combine characters of different groups")
        return group

    def __add__(self, other: "Character") -> "Character":
        group = self._same_group(other)
        return Character._raw(group, tuple(
            (a + b) % n for a, b, n in zip(self.coords, other.coords, group.orders)
        ))

    def __neg__(self) -> "Character":
        return Character._raw(self.group, tuple(
            -c % n for c, n in zip(self.coords, self.group.orders)
        ))

    def __sub__(self, other: "Character") -> "Character":
        group = self._same_group(other)
        return Character._raw(group, tuple(
            (a - b) % n for a, b, n in zip(self.coords, other.coords, group.orders)
        ))

    def scaled(self, k: int) -> "Character":
        if type(k) is not int:
            raise InputError(f"a character is scaled by an int, got {k!r}")
        return Character._raw(self.group, tuple(
            k * c % n for c, n in zip(self.coords, self.group.orders)
        ))

    @property
    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def restrict(self, sub: "Subgroup") -> "CharacterRestriction":
        """Value table on a subgroup, with a triviality flag; computed once
        per subgroup and character, and kept on the subgroup."""
        if sub.parent != self.group:
            raise InputError("subgroup belongs to a different group")
        found = sub._restrictions.get(self.coords)
        if found is None:
            group = self.group
            if sub.order == group.order:  # the whole group, in ``elements`` order
                values = _product_table(self.coords, group.orders, group.exponent)
            else:
                values = self.values(sub.columns)
            found = sub._restrictions[self.coords] = CharacterRestriction._raw(
                sub, tuple(values)
            )
        return found

    def __repr__(self):
        return f"chi{self.coords}"


class Subgroup:
    """Subgroup of an AbelianGroup, held as its sorted coordinate tuples.

    Equality is by (parent, sorted coordinates), not by the particular
    generating set, so stabilizers computed through different routes compare
    equal exactly when they agree element-by-element.  The hash is that of
    (parent, order), which equal subgroups share.
    """

    def __init__(self, parent: AbelianGroup, generators):
        """The subgroup generated by ``generators``, coordinate tuples of
        elements of ``parent``."""
        self.parent = parent
        orders = parent.orders
        # Closure by cyclic extension: adjoining g to H adds the cosets
        # H + k*g for 0 < k < (order of g modulo H), which are disjoint.
        # H is kept as one list per coordinate.
        columns = [[0] for _ in orders]
        members = set()  # H as a set of tuples, rebuilt only when H has grown
        for g in generators:
            g = _reduced(_checked(g, parent, "generator"), orders)
            if len(members) < len(columns[0]):
                members = set(zip(*columns))
            multiples = []
            step = g
            while step not in members:
                multiples.append(step)
                step = tuple((x + y) % n for x, y, n in zip(step, g, orders))
            grown = [
                [(x + y) % n for y in mcol for x in hcol]
                for hcol, mcol, n in zip(columns, zip(*multiples), orders)
            ]
            for hcol, gcol in zip(columns, grown):
                hcol += gcol
        self.coords = tuple(sorted(zip(*columns)))
        self.order = len(self.coords)
        self._restrictions = {}  # character coords -> CharacterRestriction
        self._cuts = {}  # character coords -> Subgroup, see ``cut``

    @classmethod
    def _raw(cls, parent: AbelianGroup, coords: tuple) -> "Subgroup":
        """The subgroup whose sorted elements are ``coords``, unchecked;
        ``coords`` None is the whole of ``parent``, listed when first read."""
        sub = object.__new__(cls)
        sub.parent = parent
        if coords is None:
            sub.order = parent.order
        else:
            sub.coords = coords
            sub.order = len(coords)
        sub._restrictions = {}
        sub._cuts = {}
        return sub

    @classmethod
    def trivial(cls, parent: AbelianGroup) -> "Subgroup":
        return cls(parent, [])

    @cached_property
    def coords(self) -> tuple:
        """The sorted elements of the whole group, ``parent.elements``; every
        other subgroup is built with its ``coords``."""
        return self.parent.elements

    @cached_property
    def columns(self) -> tuple:
        """The coordinates of ``coords`` one column per factor: columns[i][j]
        is coordinate i of element j."""
        return tuple(zip(*self.coords))

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    def cut(self, chi: Character) -> "Subgroup":
        """The elements where ``chi`` reads 0, cut once per subgroup and
        character and kept on the subgroup; the subgroup itself when ``chi``
        is trivial on it.

        A cut of the whole group is enumerated without a table over it: for
        each prefix (g_1, ..., g_{r-1}) with partial value x, the last
        coordinates h with w_r * h = -x (mod m) are none unless
        d = gcd(w_r, m) divides x, and otherwise the progression h0, h0 + p,
        ... below n_r with p = m / d = n_r / gcd(c_r, n_r) and
        h0 = (-x / d) * (w_r / d)^-1 mod p, at a cost of
        O(|G| / n_r + |kernel|).  A cut of any other subgroup keeps the
        elements where ``chi.restrict(self)`` reads 0.
        """
        group = self.parent
        if chi.group != group:
            raise InputError("character and subgroup belong to different groups")
        if chi.is_trivial:
            return self
        found = self._cuts.get(chi.coords)
        if found is None:
            if self.order == group.order:
                *head, n = group.orders
                m = group.exponent
                w = chi.coords[-1] * (m // n)
                d = gcd(w, m)
                p = m // d
                inverse = pow(w // d, -1, p)
                prefixes = product(*map(range, head))
                partial = _product_table(chi.coords, head, m)  # zip stops at the head
                found = Subgroup._raw(group, tuple(
                    g + (h,)
                    for g, x in zip(prefixes, partial)
                    if not x % d
                    for h in range(-x // d * inverse % p, n, p)
                ))
            else:
                r = chi.restrict(self)
                found = self if r.is_trivial else Subgroup._raw(
                    group, tuple(h for h, v in zip(self.coords, r.values) if not v)
                )
            self._cuts[chi.coords] = found
        return found

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Subgroup)
            and self.order == other.order
            and self.parent == other.parent
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.parent, self.order))

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent!r})"


@dataclass(frozen=True)
class CharacterRestriction:
    """A character's value table on a subgroup (exponents of zeta_m in Z/m).

    Values are aligned with ``subgroup.coords``; the modulus is the parent
    group's exponent.  Restrictions double as block keys, hashed once.
    """

    subgroup: Subgroup
    values: tuple

    def __post_init__(self):
        values = tuple(self.values)
        if len(values) != self.subgroup.order:
            raise InputError("value table does not match the subgroup enumeration")
        m = self.modulus
        if min(values) < 0 or max(values) >= m:
            values = tuple(v % m for v in values)
        object.__setattr__(self, "values", values)

    @classmethod
    def _raw(cls, subgroup: Subgroup, values: tuple) -> "CharacterRestriction":
        """The restriction with ``values``, already reduced and aligned with
        ``subgroup.coords``, unchecked."""
        found = object.__new__(cls)
        object.__setattr__(found, "subgroup", subgroup)
        object.__setattr__(found, "values", values)
        return found

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.subgroup, self.values))

    @property
    def modulus(self) -> int:
        return self.subgroup.parent.exponent

    @property
    def is_trivial(self) -> bool:
        return not any(self.values)

    def __repr__(self):
        return f"restriction{self.values} mod {self.modulus}"


def _product_table(coords, orders, m: int) -> list:
    """Values of the exponent vector ``coords`` mod m on every element of
    Z/n_1 x ... x Z/n_k (``orders``), in lexicographic order: the table so
    far with each value x replaced by its row x + col, col the next factor's
    values w * h (w = c * (m / n), 0 <= h < n).

    col repeats with period p = m / d, d = gcd(w, m).  When d divides x,
    x = w * h0 with h0 = (x / d) * (w / d)^-1 mod p (as in
    ``Subgroup.cut``), so the row is col rotated by h0; any other row is
    summed.  Each distinct x's row is made once.
    """
    table = [0]
    for c, n in zip(coords, orders):
        w = c * (m // n)
        d = gcd(w, m)
        p = m // d
        col = ([v % m for v in range(0, w * p, w)] if w else [0]) * (n // p)
        if table == [0]:
            table = col
            continue
        inverse = pow(w // d, -1, p)
        rows = {}
        for x in table:
            if x not in rows:
                if x % d:
                    rows[x] = [(x + y) % m for y in col]
                else:
                    h0 = x // d * inverse % p
                    rows[x] = col[h0:] + col[:h0]
        table = list(chain.from_iterable(map(rows.__getitem__, table)))
    return table


def equalizer_subgroup(chars) -> Subgroup:
    """Largest subgroup on which all the given characters agree: the whole
    group cut by each difference chi - chi_1 in turn (``Subgroup.cut``), so
    equalizers whose character lists share a prefix share those cuts.  An
    empty character list is an input error (there is no canonical
    "agreement" subgroup without at least one character).
    """
    chars = list(chars)
    if not chars:
        raise InputError("equalizer_subgroup needs at least one character")
    sub = chars[0].group.whole_subgroup
    for chi in chars[1:]:
        sub = sub.cut(chi - chars[0])
    return sub

"""Functor words: shifts, twists and pushes, and the checks on them.

The autoequivalences considered here are generated by three kinds of
operations on the equivariant complexes of one action:

  * ``Shift(k)``      - translate cohomological degrees,
  * ``Twist(s)``      - tensor with a twisted line bundle O(d) tensor psi,
  * ``Push(action, perm, scalars)`` - push forward along an automorphism of
                        the action (a coordinate permutation combined with
                        nonzero rational coordinate scalings).

Each generator applies itself, inverts itself and describes itself as a
problem-file entry.  A ``FunctorWord`` is a finite composite, applied left
to right.  The induced functor between the quotient categories is an
equivalence of perfect complexes exactly when two generator images descend:
the word applied to a generator, and the inverse word applied to another.
``omega_check`` decides both.  With O as both generators, the images of a
shift/twist word are the fibers of its kernel, a shifted line bundle; the
CLI's ``necessary`` command is that case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .action import ProjectiveAction
from .complexes import EquivariantComplex, TwistedSummand
from .descent import DescentReport, char_str, check_descent, sampled_str
from .errors import InputError, as_rational


@dataclass(frozen=True)
class Shift:
    k: int

    def __post_init__(self):
        if type(self.k) is not int:
            raise InputError(f"a shift must be an int, got {self.k!r}")

    def apply(self, c: EquivariantComplex) -> EquivariantComplex:
        terms = {j - self.k: v for j, v in c.terms.items()}
        diffs = {j - self.k: e for j, e in c.differentials.items()}
        return EquivariantComplex(c.action, terms, diffs)

    def inverse(self) -> "Shift":
        return Shift(-self.k)

    def describe(self) -> dict:
        return {"kind": "shift", "k": self.k}


@dataclass(frozen=True)
class Twist:
    summand: TwistedSummand

    def apply(self, c: EquivariantComplex) -> EquivariantComplex:
        s = self.summand
        if s.twist.group != c.action.group:
            raise InputError("twist character belongs to a different group")
        terms = {
            j: tuple(TwistedSummand(t.degree + s.degree, t.twist + s.twist) for t in v)
            for j, v in c.terms.items()
        }
        return EquivariantComplex(c.action, terms, c.differentials)

    def inverse(self) -> "Twist":
        return Twist(self.summand.inverse())

    def describe(self) -> dict:
        return {
            "kind": "twist",
            "degree": self.summand.degree,
            "twist": list(self.summand.twist.coords),
        }


@dataclass(frozen=True)
class Push:
    """Pushforward along the automorphism [x_i] -> [scalars_{perm[i]} * x_i
    in slot perm[i]] of ``action``.

    ``perm[i]`` is the target slot of coordinate i and ``scalars`` is indexed
    by target slot.  The map commutes with the action exactly when the
    character at slot perm[i] equals the character at i.  A push applies
    only to complexes of ``action``.
    """

    action: ProjectiveAction = field(repr=False)
    perm: tuple
    scalars: tuple

    def __post_init__(self):
        n = self.action.dim + 1
        perm = tuple(self.perm)
        if not all(type(i) is int for i in perm):
            raise InputError(f"permutation entries must be ints: {perm}")
        scalars = tuple(as_rational(s, "scalar") for s in self.scalars)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "scalars", scalars)
        if sorted(perm) != list(range(n)):
            raise InputError(f"{perm} is not a permutation of 0..{n - 1}")
        if len(scalars) != n or any(s == 0 for s in scalars):
            raise InputError("a push needs a nonzero scalar per coordinate")
        chars = self.action.coord_chars
        for i in range(n):
            if chars[perm[i]] != chars[i]:
                raise InputError(
                    f"coordinate {i} -> slot {perm[i]} does not intertwine the action"
                )

    def apply(self, c: EquivariantComplex) -> EquivariantComplex:
        if c.action != self.action:
            raise InputError("push action does not match the complex")
        # p -> p o f^{-1} substitutes x_j -> (1/t_{perm[j]}) x_{perm[j]}.
        images = [(p, 1 / self.scalars[p]) for p in self.perm]
        diffs = {
            j: {key: p.substitute_scaled_permutation(images) for key, p in e.items()}
            for j, e in c.differentials.items()
        }
        return EquivariantComplex(c.action, c.terms, diffs)

    def inverse(self) -> "Push":
        inv_perm = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
        return Push(self.action, inv_perm, [1 / self.scalars[p] for p in self.perm])

    def describe(self) -> dict:
        return {
            "kind": "push",
            "perm": list(self.perm),
            "scalars": [str(s) for s in self.scalars],
        }


@dataclass(frozen=True)
class FunctorWord:
    """A composite of Shift / Twist / Push generators, applied left to right."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if not isinstance(g, (Shift, Twist, Push)):
                raise InputError(f"unknown word generator: {g!r}")

    def apply(self, c: EquivariantComplex) -> EquivariantComplex:
        for g in self.generators:
            c = g.apply(c)
        return c.require_built_valid("word application")

    def inverse(self) -> "FunctorWord":
        return FunctorWord(tuple(g.inverse() for g in reversed(self.generators)))

    def describe(self) -> list:
        """The generators as problem-file word entries, scalars as strings."""
        return [g.describe() for g in self.generators]


def default_generator(action: ProjectiveAction) -> EquivariantComplex:
    """Heuristic generator: O + O(e) + ... + O(n*e), e the group exponent.

    Each summand's fiber character is a multiple of e times a stratum scalar
    character, hence trivial, so this complex always descends.  Reports that
    rely on it are flagged: it is a sensible default, not a certified
    generator of the derived category for every action.
    """
    e = action.group.exponent
    triv = action.group.trivial_character()
    summands = tuple(TwistedSummand(i * e, triv) for i in range(action.dim + 1))
    return EquivariantComplex(action, {0: summands}, {})


class GeneratorRejectedError(InputError):
    """A generator whose own descent check fails or is undecided.

    The message names the first three witnesses with their characters cut
    as in the CLI summary, or else the sampled strata; ``report`` keeps
    every value."""

    def __init__(self, which: str, report: DescentReport):
        self.which = which
        self.report = report
        if report.witnesses:
            named = "; ".join(
                f"{w.point} on support {list(w.support)}, degree {w.degree}, "
                f"dimension {w.dim}, character {char_str(w.char_values)}"
                for w in report.witnesses[:3]
            )
            why = f"fails its own descent check; {len(report.witnesses)} witness(es), the first: {named}"
        else:
            why = f"is undecided by its own descent check; {sampled_str(report.sampled_supports)}"
        super().__init__(f"generator {which} {why}")


def _descends_by_construction(gen: EquivariantComplex) -> bool:
    """Whether ``gen`` has no differentials and only untwisted summands
    O(d) with e | d, e the group exponent, like ``default_generator``.  On
    a stratum with scalar character c such a summand's fiber character is
    -d*c, which e kills, so ``gen`` descends."""
    e = gen.action.group.exponent
    return not gen.differentials and all(
        s.twist.is_trivial and s.degree % e == 0 for v in gen.terms.values() for s in v
    )


@dataclass(frozen=True)
class OmegaReport:
    """Outcome of the two-sided generator-image test for a functor word:
    ``disproved`` if a condition fails, else ``undecided`` if one is, else
    ``equivalence-certified``."""

    condition_i: DescentReport
    condition_ii: DescentReport
    image_a: EquivariantComplex  # the complex condition (i) actually checked
    image_b: EquivariantComplex  # the complex condition (ii) actually checked
    generator_a_default: bool
    generator_b_default: bool
    word: list

    @property
    def failing_conditions(self) -> tuple:
        """The subset of ("i", "ii") whose image does not descend."""
        return tuple(
            name
            for name, rep in (("i", self.condition_i), ("ii", self.condition_ii))
            if rep.verdict == "fail"
        )

    @property
    def verdict(self) -> str:
        if self.failing_conditions:
            return "disproved"
        passed = self.condition_i.passed and self.condition_ii.passed
        return "equivalence-certified" if passed else "undecided"

    @property
    def certified(self) -> bool:
        return self.verdict == "equivalence-certified"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "failing_conditions": list(self.failing_conditions),
            "condition_i": self.condition_i.to_dict(),
            "condition_ii": self.condition_ii.to_dict(),
            "image_a": repr(self.image_a),
            "image_b": repr(self.image_b),
            "default_generator": {
                "a": self.generator_a_default,
                "b": self.generator_b_default,
            },
            "word": self.word,
        }

    def caveats(self) -> list:
        if self.generator_a_default or self.generator_b_default:
            return [
                "a heuristic default generator was used; certification assumes "
                "it generates the derived category"
            ]
        return []


def omega_check(
    word: FunctorWord,
    action: ProjectiveAction,
    gen_a: EquivariantComplex | None = None,
    gen_b: EquivariantComplex | None = None,
    **opts,
) -> OmegaReport:
    """Decide whether the induced functor is an equivalence downstairs.

    Condition (i): the word applied to generator A descends.  Condition
    (ii): the inverse word applied to generator B descends.  Both must pass.
    Both generators live on ``action``, and so does every push of the word.
    The generators themselves must descend to begin with --- a generator
    whose own check fails or is undecided is rejected as bad input
    (GeneratorRejectedError), not reported as a disproof, and so is the zero
    complex, which descends but generates nothing.  One that descends
    by construction (the default, O) is not checked, and a complex given as
    both is checked once.  ``opts`` (``points``, ``samples_per_stratum``,
    ``seed``) go to every ``check_descent``.
    """
    a_default = gen_a is None
    b_default = gen_b is None
    if a_default or b_default:
        default = default_generator(action)
        gen_a = default if a_default else gen_a
        gen_b = default if b_default else gen_b
    for which, gen in (("A", gen_a), ("B", gen_b)):
        if gen.action != action:
            raise InputError(f"generator {which} lives on a different action")
    for which, gen in (("a", gen_a), ("b", gen_b)):
        if not gen.terms:
            raise InputError(
                f"generator {which} has no summands; the zero complex generates nothing"
            )
        if (which == "b" and gen is gen_a) or _descends_by_construction(gen):
            continue
        report = check_descent(gen, **opts)
        if not report.passed:
            raise GeneratorRejectedError(which, report)

    image_a = word.apply(gen_a)
    image_b = word.inverse().apply(gen_b)
    return OmegaReport(
        condition_i=check_descent(image_a, **opts),
        condition_ii=check_descent(image_b, **opts),
        image_a=image_a,
        image_b=image_b,
        generator_a_default=a_default,
        generator_b_default=b_default,
        word=word.describe(),
    )

"""Functor words: shifts, twists and pushforwards, and the checks on them.

The autoequivalences considered here are generated by three kinds of
operations on equivariant complexes:

  * ``Shift(k)``      - translate cohomological degrees,
  * ``Twist(s)``      - tensor with a twisted line bundle O(d) tensor psi,
  * ``Push(f)``       - push forward along an equivariant automorphism of
                        projective space (a coordinate permutation combined
                        with nonzero rational coordinate scalings).

A ``FunctorWord`` is a finite composite, applied left to right.  The induced
functor between the quotient categories is an equivalence of perfect
complexes exactly when two generator images descend: the word applied to a
generator upstairs, and the inverse word applied to a generator on the other
side.  ``omega_check`` decides both; ``necessary_check`` runs the cheaper
kernel-fiber conditions that are necessary (and computable stratum by
stratum, exactly) for shift/twist words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .action import ProjectiveAction
from .complexes import EquivariantComplex, InternalConsistencyError, TwistedSummand
from .descent import DescentReport, check_bundle_descent, check_descent
from .groups import InputError


@dataclass(frozen=True)
class EquivariantAutomorphism:
    """Automorphism [x_i] -> [scalars_{perm[i]} * x_i in slot perm[i]].

    ``perm[i]`` is the target slot of source coordinate i and ``scalars`` is
    indexed by target slot.  Compatibility with the actions requires the
    target's character at slot perm[i] to equal the source's at i.
    """

    source: ProjectiveAction
    target: ProjectiveAction
    perm: tuple
    scalars: tuple

    def __post_init__(self):
        n = self.source.dim + 1
        perm = tuple(int(i) for i in self.perm)
        scalars = tuple(Fraction(s) for s in self.scalars)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "scalars", scalars)
        if self.target.dim != self.source.dim:
            raise InputError("automorphism endpoints have different dimensions")
        if self.target.group != self.source.group:
            raise InputError("automorphism endpoints have different groups")
        if sorted(perm) != list(range(n)):
            raise InputError(f"{perm} is not a permutation of 0..{n - 1}")
        if len(scalars) != n or any(s == 0 for s in scalars):
            raise InputError("automorphism needs a nonzero scalar per coordinate")
        for i in range(n):
            if self.target.coord_chars[perm[i]] != self.source.coord_chars[i]:
                raise InputError(
                    f"coordinate {i} -> slot {perm[i]} does not intertwine the actions"
                )

    def inverse(self) -> "EquivariantAutomorphism":
        n = len(self.perm)
        inv_perm = [0] * n
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
        inv_scalars = [Fraction(1) / self.scalars[self.perm[j]] for j in range(n)]
        return EquivariantAutomorphism(
            source=self.target,
            target=self.source,
            perm=tuple(inv_perm),
            scalars=tuple(inv_scalars),
        )

    def pushforward_images(self):
        """Variable images realizing p -> p o f^{-1}: x_j -> (1/t_{perm[j]}) x_{perm[j]}."""
        return [
            (self.perm[j], Fraction(1) / self.scalars[self.perm[j]])
            for j in range(len(self.perm))
        ]


@dataclass(frozen=True)
class Shift:
    k: int

    def __repr__(self):
        return f"Shift({self.k})"


@dataclass(frozen=True)
class Twist:
    summand: TwistedSummand

    def __repr__(self):
        return f"Twist({self.summand!r})"


@dataclass(frozen=True)
class Push:
    auto: EquivariantAutomorphism

    def __repr__(self):
        return "Push(...)"


def _apply_shift(c: EquivariantComplex, k: int) -> EquivariantComplex:
    terms = {j - k: v for j, v in c.terms.items()}
    diffs = {j - k: dict(e) for j, e in c.differentials.items()}
    return EquivariantComplex(c.action, terms, diffs)


def _apply_twist(c: EquivariantComplex, s: TwistedSummand) -> EquivariantComplex:
    terms = {
        j: tuple(TwistedSummand(t.degree + s.degree, t.twist + s.twist) for t in v)
        for j, v in c.terms.items()
    }
    diffs = {j: dict(e) for j, e in c.differentials.items()}
    return EquivariantComplex(c.action, terms, diffs)


def _apply_push(c: EquivariantComplex, auto: EquivariantAutomorphism) -> EquivariantComplex:
    if auto.source != c.action:
        raise InputError("pushforward source action does not match the complex")
    images = auto.pushforward_images()
    diffs = {
        j: {key: p.substitute_scaled_permutation(images) for key, p in e.items()}
        for j, e in c.differentials.items()
    }
    return EquivariantComplex(auto.target, dict(c.terms), diffs)


@dataclass(frozen=True)
class FunctorWord:
    """A composite of Shift / Twist / Push generators, applied left to right."""

    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        current = None
        for g in gens:
            if isinstance(g, Push):
                if current is not None and g.auto.source != current:
                    raise InputError("consecutive pushforwards do not chain")
                current = g.auto.target
            elif not isinstance(g, (Shift, Twist)):
                raise InputError(f"unknown word generator: {g!r}")

    def apply(self, c: EquivariantComplex) -> EquivariantComplex:
        out = c
        for g in self.generators:
            if isinstance(g, Shift):
                out = _apply_shift(out, g.k)
            elif isinstance(g, Twist):
                if g.summand.twist.group != out.action.group:
                    raise InputError("twist character belongs to a different group")
                out = _apply_twist(out, g.summand)
            else:
                out = _apply_push(out, g.auto)
        report = out.validate()
        if not report.ok:
            raise InternalConsistencyError(
                f"word application broke validity: {report.violations[:3]}"
            )
        return out

    def inverse(self) -> "FunctorWord":
        inverted = []
        for g in reversed(self.generators):
            if isinstance(g, Shift):
                inverted.append(Shift(-g.k))
            elif isinstance(g, Twist):
                inverted.append(Twist(g.summand.inverse()))
            else:
                inverted.append(Push(g.auto.inverse()))
        return FunctorWord(tuple(inverted))

    def target_action(self, source: ProjectiveAction) -> ProjectiveAction:
        current = source
        for g in self.generators:
            if isinstance(g, Push):
                if g.auto.source != current:
                    raise InputError("pushforward does not chain with the given action")
                current = g.auto.target
        return current

    @property
    def is_twist_shift_only(self) -> bool:
        return all(isinstance(g, (Shift, Twist)) for g in self.generators)

    def net_shift(self) -> int:
        return sum(g.k for g in self.generators if isinstance(g, Shift))

    def net_twist(self, action: ProjectiveAction) -> TwistedSummand:
        total = TwistedSummand(0, action.group.trivial_character())
        for g in self.generators:
            if isinstance(g, Twist):
                total = TwistedSummand(
                    total.degree + g.summand.degree, total.twist + g.summand.twist
                )
        return total

    def describe(self) -> list:
        """The generators as problem-file word entries, scalars as strings."""
        out = []
        for g in self.generators:
            if isinstance(g, Shift):
                out.append({"kind": "shift", "k": g.k})
            elif isinstance(g, Twist):
                out.append(
                    {
                        "kind": "twist",
                        "degree": g.summand.degree,
                        "twist": list(g.summand.twist.coords),
                    }
                )
            else:
                out.append(
                    {
                        "kind": "push",
                        "perm": list(g.auto.perm),
                        "scalars": [str(s) for s in g.auto.scalars],
                    }
                )
        return out

    def __repr__(self):
        return "Word[" + ", ".join(repr(g) for g in self.generators) + "]"


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
    """A generator failed its own descent precondition."""

    def __init__(self, which: str, report: DescentReport):
        self.which = which
        self.report = report
        super().__init__(
            f"generator {which} fails its own descent check; "
            f"witnesses: {[w.to_dict() for w in report.witnesses[:3]]}"
        )


@dataclass(frozen=True)
class OmegaReport:
    """Outcome of the two-sided generator-image test for a functor word."""

    certified: bool
    failing_conditions: tuple  # subset of ("i", "ii")
    condition_i: DescentReport
    condition_ii: DescentReport
    image_a: str  # the complex condition (i) actually checked
    image_b: str  # the complex condition (ii) actually checked
    generator_a_default: bool
    generator_b_default: bool
    word: list

    def to_dict(self) -> dict:
        return {
            "verdict": "equivalence-certified" if self.certified else "disproved",
            "failing_conditions": list(self.failing_conditions),
            "condition_i": self.condition_i.to_dict(),
            "condition_ii": self.condition_ii.to_dict(),
            "image_a": self.image_a,
            "image_b": self.image_b,
            "default_generator": {
                "a": self.generator_a_default,
                "b": self.generator_b_default,
            },
            "word": self.word,
        }

    def caveats(self) -> list:
        out = []
        if self.generator_a_default or self.generator_b_default:
            out.append(
                "a heuristic default generator was used; certification assumes "
                "it generates the derived category"
            )
        out.extend(f"condition (i): {c}" for c in self.condition_i.caveats())
        out.extend(f"condition (ii): {c}" for c in self.condition_ii.caveats())
        return out


def omega_check(
    word: FunctorWord,
    action: ProjectiveAction,
    gen_a: EquivariantComplex | None = None,
    gen_b: EquivariantComplex | None = None,
    samples_per_stratum: int = 5,
    seed: int = 0,
    points=(),
    points_only: bool = False,
) -> OmegaReport:
    """Decide whether the induced functor is an equivalence downstairs.

    Condition (i): the word applied to a generator upstairs descends.
    Condition (ii): the inverse word applied to a generator on the target
    side descends.  Both must pass.  The generators themselves must descend
    to begin with --- a failing generator is rejected as bad input
    (GeneratorRejectedError), not reported as a disproof.
    """
    target = word.target_action(action)
    a_default = gen_a is None
    b_default = gen_b is None
    if gen_a is None:
        gen_a = default_generator(action)
    if gen_b is None:
        gen_b = default_generator(target)
    if gen_a.action != action:
        raise InputError("generator A lives on a different action")
    if gen_b.action != target:
        raise InputError("generator B lives on the wrong side of the word")

    opts = dict(
        samples_per_stratum=samples_per_stratum,
        seed=seed,
        points=points,
        points_only=points_only,
    )
    pre_a = check_descent(gen_a, **opts)
    if not pre_a.passed:
        raise GeneratorRejectedError("a", pre_a)
    pre_b = check_descent(gen_b, **opts)
    if not pre_b.passed:
        raise GeneratorRejectedError("b", pre_b)

    image_a = word.apply(gen_a)
    image_b = word.inverse().apply(gen_b)
    condition_i = check_descent(image_a, **opts)
    condition_ii = check_descent(image_b, **opts)
    failing = tuple(
        name
        for name, rep in (("i", condition_i), ("ii", condition_ii))
        if not rep.passed
    )
    return OmegaReport(
        certified=not failing,
        failing_conditions=failing,
        condition_i=condition_i,
        condition_ii=condition_ii,
        image_a=repr(image_a),
        image_b=repr(image_b),
        generator_a_default=a_default,
        generator_b_default=b_default,
        word=word.describe(),
    )


@dataclass(frozen=True)
class NecessaryReport:
    """Kernel-fiber necessary conditions for a shift/twist word.

    The kernel of such a word is the (shifted) diagonal pushforward of its
    net twist L; restricted to a vertical slice it is a skyscraper with
    fiber L tensor k(y) in degree minus the net shift.  The conditions ask
    that stabilizers act trivially on those fibers (and on the inverse
    kernel's), which is exactly the stratum-by-stratum fiber character test
    --- decidable exactly, with no sampling.  Words containing a pushforward
    are reported as unsupported: their kernels carry a product-group
    structure this tool does not model.
    """

    supported: bool
    reason: str | None
    passed: bool | None
    condition_i: DescentReport | None
    condition_ii: DescentReport | None
    net_twist_degree: int | None
    net_twist_character: tuple | None
    net_shift: int | None
    word: list

    def to_dict(self) -> dict:
        return {
            "supported": self.supported,
            "reason": self.reason,
            "verdict": None if self.passed is None else ("pass" if self.passed else "fail"),
            "condition_i": None if self.condition_i is None else self.condition_i.to_dict(),
            "condition_ii": None if self.condition_ii is None else self.condition_ii.to_dict(),
            "kernel": None
            if self.net_twist_degree is None
            else {
                "net_twist_degree": self.net_twist_degree,
                "net_twist_character": list(self.net_twist_character),
                "net_shift": self.net_shift,
            },
            "word": self.word,
        }


def necessary_check(word: FunctorWord, action: ProjectiveAction) -> NecessaryReport:
    """Run the exact kernel-fiber necessary conditions for a shift/twist word."""
    if not word.is_twist_shift_only:
        return NecessaryReport(
            supported=False,
            reason=(
                "word contains a pushforward; its kernel needs a product-group "
                "equivariant structure that is not modeled here"
            ),
            passed=None,
            condition_i=None,
            condition_ii=None,
            net_twist_degree=None,
            net_twist_character=None,
            net_shift=None,
            word=word.describe(),
        )
    net = word.net_twist(action)
    shift = word.net_shift()
    condition_i = check_bundle_descent(net, action, degree=-shift)
    condition_ii = check_bundle_descent(net.inverse(), action, degree=shift)
    return NecessaryReport(
        supported=True,
        reason=None,
        passed=condition_i.passed and condition_ii.passed,
        condition_i=condition_i,
        condition_ii=condition_ii,
        net_twist_degree=net.degree,
        net_twist_character=net.twist.coords,
        net_shift=shift,
        word=word.describe(),
    )

"""eqdescent: exact descent checks for equivariant complexes on projective space.

Decides, by exact rational and integer arithmetic, whether complexes of
twisted line bundles equivariant under a diagonal finite abelian group action
descend to perfect complexes on the quotient, and whether Fourier-Mukai style
functor words built from shifts, twists and equivariant automorphisms induce
equivalences downstairs.
"""

from .action import ProjectiveAction, RationalPoint, Stratum
from .complexes import (
    EquivariantComplex,
    InternalConsistencyError,
    InvalidComplexError,
    TwistedSummand,
    ValidationReport,
    bundle_complex,
)
from .descent import (
    BlockComplex,
    DescentReport,
    FiberComplex,
    GradedSpace,
    SandwichResult,
    Witness,
    block_cohomology,
    check_bundle_descent,
    check_descent,
    fiber_restrict,
    sandwich_check,
)
from .groups import (
    AbelianGroup,
    Character,
    CharacterRestriction,
    GroupElement,
    InputError,
    Subgroup,
    equalizer_subgroup,
)
from .oracle import CyclotomicField, cyclotomic_polynomial, isotypic_cohomology
from .polynomials import Poly
from .problem import Problem, load_problem, parse_problem, problem_to_dict
from .selftest import SelftestReport, run_oracle_selftest
from .words import (
    EquivariantAutomorphism,
    FunctorWord,
    GeneratorRejectedError,
    NecessaryReport,
    OmegaReport,
    Push,
    Shift,
    Twist,
    default_generator,
    necessary_check,
    omega_check,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "BlockComplex",
    "Character",
    "CharacterRestriction",
    "CyclotomicField",
    "DescentReport",
    "EquivariantAutomorphism",
    "EquivariantComplex",
    "FiberComplex",
    "FunctorWord",
    "GeneratorRejectedError",
    "GradedSpace",
    "GroupElement",
    "InputError",
    "InternalConsistencyError",
    "InvalidComplexError",
    "NecessaryReport",
    "OmegaReport",
    "Poly",
    "Problem",
    "ProjectiveAction",
    "Push",
    "RationalPoint",
    "SandwichResult",
    "SelftestReport",
    "Shift",
    "Stratum",
    "Subgroup",
    "Twist",
    "TwistedSummand",
    "ValidationReport",
    "Witness",
    "block_cohomology",
    "bundle_complex",
    "check_bundle_descent",
    "check_descent",
    "cyclotomic_polynomial",
    "default_generator",
    "equalizer_subgroup",
    "fiber_restrict",
    "isotypic_cohomology",
    "load_problem",
    "necessary_check",
    "omega_check",
    "parse_problem",
    "problem_to_dict",
    "run_oracle_selftest",
    "sandwich_check",
    "__version__",
]

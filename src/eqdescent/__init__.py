"""eqdescent: exact descent checks for equivariant complexes on projective space.

Decides, by exact rational and integer arithmetic, whether complexes of
twisted line bundles equivariant under a diagonal finite abelian group action
descend to perfect complexes on the quotient, and whether Fourier-Mukai style
functor words built from shifts, twists and pushes along automorphisms induce
equivalences downstairs.
"""

from types import ModuleType as _ModuleType

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
    InputError,
    Subgroup,
    equalizer_subgroup,
)
from .oracle import isotypic_cohomology
from .polynomials import Poly
from .problem import Problem, load_problem, parse_problem, problem_to_dict
from .selftest import SelftestReport, run_oracle_selftest
from .words import (
    FunctorWord,
    GeneratorRejectedError,
    OmegaReport,
    Push,
    Shift,
    Twist,
    default_generator,
    omega_check,
)

__version__ = "0.1.0"

# Every name imported above, and the version.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]

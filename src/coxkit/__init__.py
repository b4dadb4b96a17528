"""coxkit: an exact desk-scale workbench for Coxeter systems.

Word reduction by braid-move saturation, finite-type recognition of
generator subsets, breadth-first Cayley enumeration as an independent
oracle, longest parabolic-coset representatives with incremental
evolution, and stabilization traces along infinite reduced words.

All public types are immutable values and all operations are pure
functions, safe for concurrent use.
"""

from .cosets import (
    CosetLongest,
    DescentStepReport,
    StepOutcome,
    coset_step,
    in_WT_class,
    lemma4_apply,
    longest_in_coset,
)
from .errors import (
    AsymmetricEntry,
    ClosureBudgetExceeded,
    CoxeterError,
    DiagonalNotOne,
    HypothesisFailed,
    LengthDecreases,
    MatrixError,
    NonSphericalSubset,
    NonUniqueMaximum,
    NotReducedAt,
    OffDiagonalBelowTwo,
    SizeBudgetExceeded,
)
from .finite_type import (
    HypothesisReport,
    SphericalVerdict,
    TypeLabel,
    classify,
    hypothesis_check,
    is_spherical,
    maximal_spherical_subsets,
    spherical_subsets,
)
from .matrix import INF, CoxeterMatrix, validate_matrix
from .oracle import Ball, ball, coset_elements, full_group, longest_in_coset_oracle
from .rays import (
    MembershipCheck,
    RaySpec,
    Stabilization,
    TraceReport,
    TraceStep,
    make_ray,
    stabilize,
    theorem_trace,
)
from .suite import CheckResult, SuiteReport, lemma_suite
from .systems import (
    PRESET_NAMES,
    SystemConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    preset,
)
from .words import (
    Element,
    in_parabolic,
    inverse,
    is_reduced,
    left_descents,
    multiply,
    reduce_word,
    right_descents,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Convolution powers and dynamics of probability measures on finite groups.

Exact rational arithmetic is the primary mode everywhere; float power
iteration and a seeded Monte Carlo sampler serve as independent
cross-checks of the closed forms.
"""

from .errors import (
    BudgetError,
    ConvdynError,
    ConvergenceError,
    DomainError,
    GroupMismatchError,
    GroupStructureError,
    HomomorphismError,
    InvalidMeasureError,
    ModeMismatchError,
    NotAcyclicError,
    ParseError,
    VerificationError,
)
from .groups import (
    CosetDecomposition,
    FiniteGroup,
    GroupHom,
    GroupViolation,
    Subgroup,
    check_homomorphism,
    coset_decomposition,
    cyclic_group,
    dihedral_group,
    element_order,
    generated_subgroup,
    group_from_table,
    is_subgroup,
    product_group,
    relabel_group,
    symmetric_group,
    validate_group,
    validate_table,
)
from .measures import (
    ProbMeasure,
    SupportOrbit,
    TestFunction,
    bilinear_pairing,
    convolve,
    integrate,
    is_acyclic,
    l1_distance,
    pushforward,
    set_product,
    support_orbit,
)
from .transition import (
    BlockStructureReport,
    LimitMatrix,
    PowerIterationResult,
    TransitionMatrix,
    convolution_power,
    is_primitive_restricted,
    limit_matrix_closed_form,
    matrix_multiply,
    matrix_power,
    measure_times_matrix,
    power_convergence,
    transition_matrix,
    verify_block_structure,
)
from .dynamics import (
    BasinDescription,
    FixedPointSet,
    GenericityReport,
    OmegaLimitReport,
    accumulation_points,
    acyclic_perturbation,
    apply_step,
    basin,
    fixed_points,
    generic_check,
    is_recurrent,
    limit_of_powers,
    omega_limit,
    orbit,
    same_omega_limit,
)
from .montecarlo import (
    WalkConfig,
    empirical_distribution,
    sample_walk,
    tv_distance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

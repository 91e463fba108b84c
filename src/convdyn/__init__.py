"""Convolution powers and dynamics of probability measures on finite groups.

Exact rational arithmetic is the primary mode everywhere; float power
iteration and a seeded Monte Carlo sampler serve as independent
cross-checks of the closed forms.

Submodules load on first use: ``import convdyn`` imports none of them,
and each public name below is looked up in its defining module the first
time it is read (PEP 562), so a process pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule that ``__all__`` names, and the public names read from it.
_EXPORTS = {
    "errors": (
        "BudgetError",
        "ConvdynError",
        "ConvergenceError",
        "DomainError",
        "GroupMismatchError",
        "GroupStructureError",
        "HomomorphismError",
        "InvalidMeasureError",
        "ModeMismatchError",
        "NotAcyclicError",
        "ParseError",
        "VerificationError",
    ),
    "groups": (
        "CosetDecomposition",
        "FiniteGroup",
        "GroupHom",
        "GroupViolation",
        "Subgroup",
        "check_homomorphism",
        "coset_decomposition",
        "cyclic_group",
        "dihedral_group",
        "element_order",
        "generated_subgroup",
        "group_from_table",
        "is_subgroup",
        "product_group",
        "relabel_group",
        "symmetric_group",
        "validate_group",
        "validate_table",
    ),
    "measures": (
        "ProbMeasure",
        "SupportOrbit",
        "TestFunction",
        "bilinear_pairing",
        "convolve",
        "integrate",
        "is_acyclic",
        "l1_distance",
        "pushforward",
        "set_product",
        "support_orbit",
    ),
    "transition": (
        "BlockStructureReport",
        "PowerIterationResult",
        "TransitionMatrix",
        "convolution_power",
        "matrix_multiply",
        "matrix_power",
        "measure_times_matrix",
        "power_convergence",
        "transition_matrix",
        "verify_block_structure",
    ),
    "dynamics": (
        "BasinDescription",
        "FixedPointSet",
        "GenericityReport",
        "OmegaLimitReport",
        "accumulation_points",
        "acyclic_perturbation",
        "apply_step",
        "basin",
        "fixed_points",
        "generic_check",
        "is_recurrent",
        "limit_of_powers",
        "omega_limit",
        "orbit",
        "same_omega_limit",
    ),
    "montecarlo": (
        "WalkConfig",
        "empirical_distribution",
        "sample_walk",
        "tv_distance",
    ),
    "scalars": (),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

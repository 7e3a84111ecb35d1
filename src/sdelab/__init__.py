"""Numerical laboratory for Ito equations with degenerate, discontinuous dispersion.

The package builds the stationary reference density of such an equation,
evolves its weighted parabolic equation, runs Euler-Maruyama path ensembles,
and cross-examines the two against each other: occupation of the degeneracy
set, dissipativity margins, a weighted space-time bound on path functionals,
and equality of path laws across versions of the dispersion that differ on a
null set.
"""

from .coefficients import (
    CoefficientSet,
    DispersionFactor,
    InverseWeight,
    builtin_family,
)
from .conditions import (
    a4prime_check,
    min_M_on_grid,
    occupation_condition_route,
)
from .config import ConfigError, ExperimentConfig, apply_set_overrides
from .density import (
    DensityField,
    solve_density,
    verify_divergence_free,
    verify_preinvariance,
)
from .diagnostics import (
    LawVariant,
    feynman_kac_crosscheck,
    krylov_audit,
    marginal_two_sample,
    uniqueness_probe,
)
from .grids import BoxGrid, GridField, SmoothBump
from .reporting import Clause, DiagnosticReport, canonical_json, digest
from .rng import derive_seed, path_normals
from .semigroup import (
    SpaceTimeField,
    evolve,
    semigroup_contraction_check,
)
from .simulate import (
    PathEnsemble,
    SimConfig,
    exit_time_stats,
    occupation_profile,
    simulate_ensemble,
    weak_error_study,
)

__all__ = [
    "BoxGrid",
    "Clause",
    "CoefficientSet",
    "ConfigError",
    "DensityField",
    "DiagnosticReport",
    "DispersionFactor",
    "ExperimentConfig",
    "GridField",
    "InverseWeight",
    "LawVariant",
    "PathEnsemble",
    "SimConfig",
    "SpaceTimeField",
    "SmoothBump",
    "a4prime_check",
    "apply_set_overrides",
    "builtin_family",
    "canonical_json",
    "derive_seed",
    "digest",
    "evolve",
    "exit_time_stats",
    "feynman_kac_crosscheck",
    "krylov_audit",
    "marginal_two_sample",
    "min_M_on_grid",
    "occupation_condition_route",
    "occupation_profile",
    "path_normals",
    "semigroup_contraction_check",
    "simulate_ensemble",
    "solve_density",
    "uniqueness_probe",
    "verify_divergence_free",
    "verify_preinvariance",
    "weak_error_study",
]

__version__ = "0.1.0"

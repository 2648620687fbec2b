"""Monotone finite-difference schemes for nonlocal degenerate diffusion.

The package discretizes equations of the form du/dt = L[phi(u)], where L is
the generator of a symmetric pure-jump process and phi is a merely continuous
nondecreasing nonlinearity. The small jumps are truncated, the remaining
measure is bound to grid offsets, and the resulting finite difference scheme
is stepped explicitly under a monotonicity restriction. Alongside the solver
the package carries the quadratic forms, companion nonlinearities, and
comparison functionals needed to check the scheme's structural estimates
numerically: mass conservation, energy dissipation with an explicit error
enclosure, Lp decay against companion energies, Stroock-Varopoulos gaps,
ordering of increments, and Cauchy-style refinement studies.
"""

from .bump import (
    bump_derivative_weighted_nodes,
    bump_weighted_nodes,
    discrete_bump_kernel,
    standard_bump,
)
from .cli import ConfigError, ExperimentConfig, load_experiment, main
from .energy import (
    PathFunction,
    bilinear,
    density_approximation,
    parabolic_bilinear,
    parabolic_seminorm,
    shrink_clamp,
    sobolev_seminorm_direct,
    sobolev_seminorm_fourier,
    time_tail,
)
from .grid import Grid, GridFunction, lp_norm, mass
from .measures import (
    AssumptionError,
    AtomMeasure,
    KernelField,
    LevyMeasureSpec,
    annulus_mass,
    comparability_bounds,
    compensated_atoms,
    normalization_multiplier,
    second_moment_within,
    shift_bound_ratio,
    sphere_area,
    truncate_and_atomize,
)
from .nonlinearity import (
    LpCompanion,
    NonlinearitySpec,
    PowerEntropy,
    lipschitz_bound,
    lp_companion,
    stroock_varopoulos_gap,
)
from .operators import (
    OperatorReport,
    apply_truncated,
    fourier_fractional,
    grid_frequencies,
    operator_report,
)
from .solver import (
    ConvergenceReport,
    DiagnosticsReport,
    EnergyBudgetReport,
    LpBudgetReport,
    OleinikReport,
    SolverConfig,
    Trajectory,
    cfl_dt,
    convergence_study,
    energy_budget_pair,
    lp_budget,
    oleinik_report,
    read_frames_binary,
    run,
    write_diagnostics_csv,
    write_frames_binary,
    write_summary_json,
)

__all__ = [
    "AssumptionError",
    "AtomMeasure",
    "ConfigError",
    "ConvergenceReport",
    "DiagnosticsReport",
    "EnergyBudgetReport",
    "ExperimentConfig",
    "Grid",
    "GridFunction",
    "KernelField",
    "LevyMeasureSpec",
    "LpBudgetReport",
    "LpCompanion",
    "NonlinearitySpec",
    "OleinikReport",
    "OperatorReport",
    "PathFunction",
    "PowerEntropy",
    "SolverConfig",
    "Trajectory",
    "annulus_mass",
    "apply_truncated",
    "bilinear",
    "bump_derivative_weighted_nodes",
    "bump_weighted_nodes",
    "cfl_dt",
    "comparability_bounds",
    "compensated_atoms",
    "convergence_study",
    "density_approximation",
    "discrete_bump_kernel",
    "energy_budget_pair",
    "fourier_fractional",
    "grid_frequencies",
    "lipschitz_bound",
    "load_experiment",
    "lp_budget",
    "lp_companion",
    "lp_norm",
    "main",
    "mass",
    "normalization_multiplier",
    "oleinik_report",
    "operator_report",
    "parabolic_bilinear",
    "parabolic_seminorm",
    "read_frames_binary",
    "run",
    "second_moment_within",
    "shift_bound_ratio",
    "shrink_clamp",
    "sobolev_seminorm_direct",
    "sobolev_seminorm_fourier",
    "sphere_area",
    "standard_bump",
    "stroock_varopoulos_gap",
    "time_tail",
    "truncate_and_atomize",
    "write_diagnostics_csv",
    "write_frames_binary",
    "write_summary_json",
]

"""Deterministic solver for stiff collisional kinetic equations.

Nonlinear BGK and fast-spectral Boltzmann collision operators, WENO finite-
difference transport, and projective / telescopic projective time integrators
with a spectrum-informed step-size planner.
"""

from .collision_bgk import BgkConfig, bgk_rhs, collision_frequency
from .collision_boltzmann import (
    SpectralPlan,
    boltzmann_gain_loss,
    boltzmann_q,
    boltzmann_rhs,
)
from .errors import (
    ConfigurationError,
    DiagnosticError,
    InfeasiblePlanError,
    StepRejectionError,
)
from .integrators import (
    CLASSIC_RK4,
    FORWARD_EULER,
    MIDPOINT_RK2,
    IntegratorPlan,
    RKTableau,
    make_rhs,
    projective_step,
    rhs_total,
    rk_step,
    telescopic_step,
)
from .planner import (
    PlannerInput,
    adapt_M,
    plan_from_factors,
    plan_levels,
    plan_two_cluster,
    speedup,
    telescopic_plan,
)
from .phase_space import (
    DistributionField,
    MomentSet,
    SpatialGrid,
    VelocityGrid,
    derived,
    heat_flux,
    maxwellian,
    moments,
)
from .scenarios_cli import (
    catalogue,
    density_front,
    get_scenario,
    initial_field,
    resolve_run,
    run_simulation,
    write_snapshot,
)
from .spectrum_probe import (
    LinearizedOperator,
    SpectrumReport,
    build_linearized_bgk,
    check_linearity,
    collision_invariant_basis,
    gram_deviation,
    jacobian_probe,
    spectrum,
    write_spectrum_csv,
)
from .transport_weno import WenoConfig, transport_rhs, weno_reconstruct

__all__ = [
    "BgkConfig",
    "bgk_rhs",
    "collision_frequency",
    "SpectralPlan",
    "boltzmann_gain_loss",
    "boltzmann_q",
    "boltzmann_rhs",
    "ConfigurationError",
    "DiagnosticError",
    "InfeasiblePlanError",
    "StepRejectionError",
    "CLASSIC_RK4",
    "FORWARD_EULER",
    "MIDPOINT_RK2",
    "IntegratorPlan",
    "RKTableau",
    "make_rhs",
    "projective_step",
    "rhs_total",
    "rk_step",
    "telescopic_step",
    "PlannerInput",
    "adapt_M",
    "plan_from_factors",
    "plan_levels",
    "plan_two_cluster",
    "speedup",
    "telescopic_plan",
    "catalogue",
    "density_front",
    "get_scenario",
    "initial_field",
    "resolve_run",
    "run_simulation",
    "write_snapshot",
    "LinearizedOperator",
    "SpectrumReport",
    "build_linearized_bgk",
    "check_linearity",
    "collision_invariant_basis",
    "gram_deviation",
    "jacobian_probe",
    "spectrum",
    "write_spectrum_csv",
    "DistributionField",
    "MomentSet",
    "SpatialGrid",
    "VelocityGrid",
    "derived",
    "heat_flux",
    "maxwellian",
    "moments",
    "WenoConfig",
    "transport_rhs",
    "weno_reconstruct",
]

__version__ = "0.1.0"

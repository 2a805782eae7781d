"""Optimal treatment-time control of a viscous Cahn-Hilliard tumour model.

Forward simulation of the coupled phase-field / nutrient system,
linearized sensitivities, discrete-transpose adjoints, reduced-gradient
assembly, projected-gradient optimization over (control, treatment time)
and a suite of independent verification oracles.
"""

from .adjoint import adjoint_terminal_data, solve_adjoint
from .errors import (
    ChControlError,
    ConfigError,
    GridMismatchError,
    LineSearchFailureError,
    NanDetectedError,
    NewtonDivergenceError,
    PotentialDomainError,
    SeparationViolationError,
    ShapeMismatchError,
    SolverError,
    TimeDomainError,
)
from .fields import (
    Grid,
    TimeGrid,
    Trajectory,
    integrate,
    laplacian_neumann,
    read_snapshot,
    read_trajectory,
    write_snapshot,
    write_trajectory,
)
from .linearized import solve_linearized
from .objective import (
    CostBreakdown,
    CostSpec,
    Relaxation,
    TauProfile,
    constant_trajectory,
    control_gradient,
    reduced_cost,
    space_time_inner,
    space_time_norm,
    time_weights,
    window_weights,
)
from .optimizer import (
    ArmijoParams,
    OptimizerConfig,
    OptResult,
    TimeOptimalityReport,
    classify_time_optimality,
    optimize,
)
from .potentials import Potential, Proliferation
from .state import (
    InitialData,
    ModelParams,
    SeparationReport,
    separation_report,
    solve_state,
)
from .verification import (
    duality_check,
    fd_gradient_check,
    lipschitz_check,
    mass_balance_check,
)

__version__ = "0.1.0"

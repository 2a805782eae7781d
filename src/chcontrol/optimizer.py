"""Projected-gradient minimization over (control, treatment time).

Block-coordinate loop. Each outer iteration first minimizes the cost over
the treatment time at the current state (cheap and essentially exact: the
discrete cost's time derivative is piecewise linear in tau, so the
continuous minimizer is found by a node scan plus bisection), snaps that
time to its nearest node, solves the adjoint there, and takes a projected
Armijo step in the control along the reduced gradient. Keeping the
control block aligned with the snapped node makes its descent direction
the exact gradient of the objective it descends, so the projection form
of the first-order condition converges to tight tolerances; the reported
treatment time is the continuous minimizer, where the analytic time
derivative satisfies its own first-order condition.

Trial step sizes for the control use a spectral (Barzilai-Borwein)
estimate from the previous accepted step, safeguarded by monotone Armijo
backtracking; a fixed unit trial step cannot reach the KKT tolerances
here because the control Hessian spans scales from b0 to order one.

Stationarity measures (both relative):

* control: || u - clamp(-r/b0) ||_{L2(Q)} / (1 + ||u||) when b0 > 0, the
  projection characterization of optimality, with r the zero-extended
  nutrient adjoint at the snapped node; otherwise the unit-step projected
  gradient residual;
* time: |D_tau J| at an interior refined tau, or its sign violation at
  the endpoints.

Convergence requires both measures below ``grad_tol`` and the snapped
node stable across two consecutive iterations; the returned iterate
carries the measures verified on itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import solve_adjoint
from .errors import ConfigError, LineSearchFailureError
from .fields import Trajectory
from .objective import (
    CostBreakdown,
    CostSpec,
    TauProfile,
    adj_sigma_extended,
    control_gradient,
    reduced_cost,
    space_time_inner,
    space_time_norm,
)
from .state import InitialData, ModelParams, solve_state

BOUNDARY_LOW = "boundary_low"
INTERIOR = "interior"
BOUNDARY_HIGH = "boundary_high"


@dataclass(frozen=True)
class ArmijoParams:
    c1: float = 1e-4
    backtrack: float = 0.5
    s0: float = 1.0
    max_backtracks: int = 30

    def __post_init__(self):
        if not 0 < self.c1 < 1:
            raise ConfigError("optimizer.armijo.c1: must lie in (0, 1)")
        if not 0 < self.backtrack < 1:
            raise ConfigError("optimizer.armijo.backtrack: must lie in (0, 1)")
        if self.max_backtracks < 1:
            raise ConfigError("optimizer.armijo.max_backtracks: must be at least 1")


@dataclass(frozen=True)
class OptimizerConfig:
    max_outer_iters: int = 1000
    armijo: ArmijoParams = field(default_factory=ArmijoParams)
    grad_tol: float = 1e-5


@dataclass
class IterationRecord:
    iteration: int
    tau: float
    breakdown: CostBreakdown
    stat_u: float
    stat_tau: float
    time_case: str
    tau_index: int
    snap_error: float


@dataclass
class TimeOptimalityReport:
    case: str
    derivative: float
    lambda_value: float
    satisfied: bool
    tolerance: float
    fixed_point_residual: float | None = None


@dataclass
class OptResult:
    u_opt: np.ndarray
    tau_opt: float
    history: list
    time_case: str
    converged: bool
    iterations: int
    stat_u: float
    stat_tau: float
    state: Trajectory
    adjoint: Trajectory
    gradient: np.ndarray


def check_bounds(lower, upper) -> None:
    """The rule of the admissible box: a ConfigError naming ``bounds``
    unless lower <= upper everywhere (scalars or grid fields)."""
    if np.any(np.asarray(lower) > np.asarray(upper)):
        raise ConfigError("bounds: lower bound exceeds upper bound somewhere")


def classify_time_optimality(state: Trajectory, u: np.ndarray, tau: float,
                             cost: CostSpec, tol: float) -> TimeOptimalityReport:
    """Check which first-order time condition holds at (u, tau).

    Boundary cases are declared within dt/2 of an endpoint. For b6 != 0
    and an interior tau the report carries the fixed-point residual
    |tau - (tau_star - Lambda / b6)|.
    """
    tg = state.time_grid
    tau = tg.clamp(tau)
    d = TauProfile(state, u, cost).derivative(tau)
    lam = d - cost.b6 * (tau - cost.tau_star)
    viol, case = _time_violation(tg, tau, d)
    fp = None
    if cost.b6 != 0 and case == INTERIOR:
        fp = abs(tau - (cost.tau_star - lam / cost.b6))
    return TimeOptimalityReport(case, d, lam, bool(viol <= tol), tol, fp)


def _time_violation(tg, tau, d):
    """The violation of the first-order time condition by the derivative
    ``d`` at ``tau``, and tau's case: max(-d, 0) at the lower end,
    max(d, 0) at the upper end, |d| inside; NaN for a NaN ``d``."""
    half_dt = 0.5 * tg.dt
    if tau <= half_dt:
        case, excess = BOUNDARY_LOW, -d
    elif tau >= tg.horizon - half_dt:
        case, excess = BOUNDARY_HIGH, d
    else:
        return abs(d), INTERIOR
    return (0.0 if excess <= 0.0 else excess), case


class _SpectralStep:
    """Barzilai-Borwein trial step with growth fallback."""

    def __init__(self, s0):
        self.trial = s0
        self.prev_x = None
        self.prev_g = None

    def propose(self, x, g, inner_fn):
        if self.prev_x is not None:
            dx = x - self.prev_x
            dg = g - self.prev_g
            num = inner_fn(dx, dx)
            den = inner_fn(dx, dg)
            if den > 0 and num > 0:
                self.trial = num / den
            else:
                self.trial = min(self.trial * 2.0, 1e12)
        return self.trial

    def remember(self, x, g, accepted_step):
        self.prev_x = x.copy()
        self.prev_g = g.copy()
        self.trial = min(max(accepted_step, 1e-12), 1e12)


def optimize(params: ModelParams, init: InitialData, cost: CostSpec,
             config: OptimizerConfig | None, u0: np.ndarray,
             tau0: float | None = None, *, lower=-np.inf, upper=np.inf) -> OptResult:
    """Minimize the reduced cost over the admissible controls and [0, T].

    The admissible controls are the box lower <= u <= upper, each bound a
    scalar or a grid field applied at every time node; the start ``u0``
    (nt+1, *grid.shape) is clamped onto it first, and ``u_opt`` lies in
    it. Every forward solve, trial steps included, runs under the Newton
    settings of ``params``.
    """
    config = config or OptimizerConfig()
    grid, tg = params.grid, params.time_grid
    cost.validate(grid, tg)
    check_bounds(lower, upper)
    u = np.clip(u0, lower, upper)
    tau0 = tg.clamp(tg.horizon / 2 if tau0 is None else tau0)
    c1 = config.armijo.c1

    def qt_inner(x, y):
        return space_time_inner(grid, tg.dt, x, y)

    def qt_norm(x):
        return space_time_norm(grid, tg.dt, x)

    state = solve_state(params, init, u)
    history: list[IterationRecord] = []
    u_stepper = _SpectralStep(config.armijo.s0)
    prev_index = None
    tau_ref = tau0
    converged = False
    adj = None
    grad = None
    bd_ref = None

    for it in range(config.max_outer_iters + 1):
        # treatment-time block: continuous minimizer at the frozen state,
        # sticky under ties so flat profiles keep the current time; the
        # same profile gives this iteration's costs and time derivative
        profile = TauProfile(state, u, cost)
        candidate = profile.minimize()
        if profile.value(candidate) < profile.value(tau_ref):
            tau_ref = candidate
        k_idx, snap_error = tg.nearest_node(tau_ref)
        tau_node = tg.times[k_idx]

        adj = solve_adjoint(params, state, k_idx, cost)
        grad = control_gradient(adj, u, cost.b0)
        if cost.b0 > 0:
            cand = np.clip(-adj_sigma_extended(adj, tg) / cost.b0, lower, upper)
        else:
            cand = np.clip(u - grad, lower, upper)
        stat_u = qt_norm(u - cand) / (1.0 + qt_norm(u))
        bd_ref = profile.breakdown(tau_ref)
        viol, case = _time_violation(tg, tau_ref, profile.derivative(tau_ref))
        stat_tau = viol / (1.0 + abs(bd_ref.total))
        bd_node = profile.breakdown(tau_node)

        history.append(IterationRecord(it, tau_node, bd_node, stat_u, stat_tau,
                                       case, k_idx, snap_error))
        snap_stable = prev_index is None or k_idx == prev_index
        prev_index = k_idx
        if stat_u <= config.grad_tol and stat_tau <= config.grad_tol and snap_stable:
            converged = True
            break
        if it == config.max_outer_iters:
            break

        # control block at the snapped node
        j_node = bd_node.total
        step_norm = qt_norm(np.clip(u - grad, lower, upper) - u)
        if step_norm > 0:
            s = u_stepper.propose(u, grad, qt_inner)
            accepted = False
            for _ in range(config.armijo.max_backtracks):
                u_trial = np.clip(u - s * grad, lower, upper)
                gd = qt_inner(grad, u_trial - u)
                if gd >= 0.0:
                    break
                state_trial = solve_state(params, init, u_trial)
                j_trial = reduced_cost(state_trial, u_trial, tau_node, cost).total
                if j_trial <= j_node + c1 * gd:
                    accepted = True
                    break
                s *= config.armijo.backtrack
            if accepted:
                u_stepper.remember(u, grad, s)
                u = u_trial
                state = state_trial
            else:
                # restart the next search from the deepest backtracked step
                u_stepper.trial = max(s, 1e-12)
                if stat_u > config.grad_tol:
                    raise LineSearchFailureError(
                        it, "control",
                        f"no Armijo decrease within {config.armijo.max_backtracks} "
                        f"backtracks at stat_u={stat_u:.3e}",
                        control=u, tau=tau_ref)

    # report the continuous minimizer when it improves on the node
    last = history[-1]
    tau_opt = last.tau
    if bd_ref is not None and bd_ref.total <= last.breakdown.total:
        tau_opt = tau_ref
        history.append(IterationRecord(last.iteration, tau_opt, bd_ref,
                                       last.stat_u, last.stat_tau,
                                       last.time_case, last.tau_index,
                                       last.snap_error))
        last = history[-1]
    return OptResult(
        u_opt=u, tau_opt=tau_opt, history=history, time_case=last.time_case,
        converged=converged, iterations=len(history), stat_u=last.stat_u,
        stat_tau=last.stat_tau, state=state, adjoint=adj, gradient=grad,
    )

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

The control's trial step is the spectral rule of Barzilai and Borwein,
<dx, dx> / <dx, dg> over the last accepted step dx and its gradient
change dg, doubled (up to 1e12) where that curvature is not positive and
``ARMIJO_S0`` before the first step; monotone Armijo backtracking
safeguards it. A fixed unit trial step cannot reach the KKT tolerances
here because the control Hessian spans scales from b0 to order one. A
search without decrease raises unless stat_u is already below
``grad_tol``; the next search then starts from its deepest step.

Stationarity measures (both relative):

* control: || u - clamp(-r/b0) ||_{L2(Q)} / (1 + ||u||) when b0 > 0, the
  projection characterization of optimality, with r the zero-extended
  nutrient adjoint at the snapped node; otherwise the unit-step projected
  gradient residual;
* time: |D_tau J| at an interior refined tau, or its sign violation at
  the endpoints.

Convergence requires both measures below ``grad_tol`` and the snapped
node stable across two consecutive iterations; the returned iterate
carries the measures verified on itself. The history has one row per
outer iteration, at the snapped node, and one more that repeats the last
iteration at the continuous minimizer when it costs no more.

Marches stop at a window, by one rule for every cost. The initial march
stops at the first window W = min(nt, max(node of tau0, node of tau_star
if b6 > 0) + 2). Each accepted trial marches on only to W = min(nt,
max(L + ``WINDOW_MARGIN``, k_idx + 2)), L the iterate's
:meth:`TauProfile.least_window`, the least frame whose march certifies
the iterate's own time minimizer, and k_idx its snapped node; a trial's
cost is read at the snapped node alone. The next treatment-time block
reads the accepted windowed state only where :meth:`TauProfile.minimize`
certifies that the full profile's first node minimizer lies at node W-2
or below, by a lower bound on the cost at every node past the window;
otherwise it marches that control to the horizon first, the one
fallback. That fallback is the path of every cost the certificate
cannot certify (:meth:`TauProfile._certifies`: one that can fall past
tau_star, with b2, b4 or an active relaxed term, or one with no term
that grows in tau): its first window fails at iteration 0 and is
resumed to the horizon, the frames and steps of a first march to the
horizon in one more call, and its L is nt, so its trials march to the
horizon too. The margin lets a trial's minimizer lie a little later
than the iterate's and keep its certificate: at margin 1 or 2 no window
of ``optimize-1d`` seeds 1, 2, 7 and 21 or of ``configs/baseline.json``
falls back, at 0 one to three per run do. The two nodes past k_idx keep
the time search's bracket [t_{k-1}, t_{k+1}] and the adjoint's frames
inside the window. Every decision, and so every reported bit, is the one
a full march would give. Once, the final iterate is marched on to the
horizon (for ``OptResult.state``). One corner case differs: a march
failure past t_W surfaces only in a march that needs those frames. A
trial whose march would fail only there is not rejected, since its cost
never reads them, and a start whose march would fail there fails in the
march of a failed certificate, or after the search in the final march,
with the SolverError naming the step.

No frame is marched twice where it need not be. Each trial resumes from
the iterate's march (``solve_state(..., prior=(state, u))``): the frames
before the first control node that the step changes are copied, which
the box often makes many. Whatever the cost, a trial marches first only
to frame k_idx + 1, all the Armijo test reads at the snapped node k_idx
(a partial :class:`TauProfile` answers it), and only a trial that passes
resumes to W; a SolverError on the way rejects it as a failed solve, as
if its march to W had failed. The march of an uncertified window and the
final march resume from the iterate's windowed state.

Every march the optimizer makes, the initial one, the trials, the full
march of an uncertified window and the final one, is a tolerance march
(``solve_state(..., polish=False)``): each Newton iteration stops at
``newton_tol`` and starts from the frame extrapolated from the earlier
ones, with no polishing iteration. The Armijo test and the stationarity
measures sit far above a residual of ``newton_tol``, so the optimum is the
polished marches' to rounding (below 1e-12 relative in tau_opt and J on
``configs/baseline.json``), for about a third of the solves. Simulate,
verify's base march and the FD gradient oracle keep the polished march;
the Lipschitz oracle makes the tolerance march too, so its figures rest
on ``solver.newton_tol``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .adjoint import solve_adjoint
from .errors import ConfigError, LineSearchFailureError, SolverError, check_number
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
from .state import InitialData, ModelParams, check_control_shape, solve_state

BOUNDARY_LOW = "boundary_low"
INTERIOR = "interior"
BOUNDARY_HIGH = "boundary_high"


# the line search: sufficient-decrease constant, backtracking factor, the
# first trial step and the backtracks per search (Nocedal and Wright, ch. 3)
ARMIJO_C1 = 1e-4
ARMIJO_BACKTRACK = 0.5
ARMIJO_S0 = 1.0
ARMIJO_MAX_BACKTRACKS = 30
# the frames a trial marches past the iterate's least certifying window,
# room for the trial's own time minimizer to lie later
WINDOW_MARGIN = 2
# the defaults of optimize's two settings
MAX_OUTER_ITERS = 1000
GRAD_TOL = 1e-5


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
    iterations: int  # outer iterations: history[-1].iteration + 1
    stat_u: float
    stat_tau: float
    state: Trajectory
    adjoint: Trajectory
    gradient: np.ndarray


def check_bounds(lower, upper) -> None:
    """The rule of the admissible box: a ConfigError naming ``bounds``
    unless lower <= upper everywhere (scalars or grid fields), which no NaN
    bound satisfies; infinite bounds leave the box open."""
    if not np.all(np.asarray(lower) <= np.asarray(upper)):
        raise ConfigError("bounds: lower bound exceeds upper bound, or a bound "
                          "is NaN, somewhere")


def check_settings(max_outer_iters, grad_tol) -> tuple:
    """:func:`optimize`'s two settings as
    :func:`~chcontrol.errors.check_number` returns them: an int
    ``max_outer_iters`` >= 0 (a whole float counts) and a finite positive
    ``grad_tol``, else a ConfigError naming ``optimizer.max_outer_iters`` or
    ``optimizer.grad_tol``."""
    return (check_number("optimizer.max_outer_iters", max_outer_iters, 0, whole=True),
            check_number("optimizer.grad_tol", grad_tol, 0, above=True))


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


def optimize(params: ModelParams, init: InitialData, cost: CostSpec, u0: np.ndarray,
             tau0: float | None = None, *, lower=-np.inf, upper=np.inf,
             max_outer_iters: int = MAX_OUTER_ITERS,
             grad_tol: float = GRAD_TOL) -> OptResult:
    """Minimize the reduced cost over the admissible controls and [0, T].

    The admissible controls are the box lower <= u <= upper, each bound a
    scalar or a grid field applied at every time node; the start ``u0``
    (nt+1, *grid.shape) is clamped onto it first, and ``u_opt`` lies in
    it. The time search starts from ``tau0``, by default T / 2. At most
    ``max_outer_iters`` outer iterations run, and both stationarity
    measures must fall below ``grad_tol`` (see the module docstring;
    :func:`check_settings` holds their ranges). Every forward solve,
    trial steps included, is a tolerance march under the Newton settings
    of ``params``. A trial whose forward solve raises a SolverError is
    rejected like a failed Armijo test, and the search backtracks; a
    failing solve at the current iterate propagates. Marches stop at a
    window (see the module docstring), and a failure past it surfaces in
    the march that needs those frames (a failed certificate or the final
    march), if ever.
    """
    grid, tg = params.grid, params.time_grid
    cost.validate(grid, tg)
    check_bounds(lower, upper)
    max_outer_iters, grad_tol = check_settings(max_outer_iters, grad_tol)
    check_control_shape(grid, tg, u0)
    u = np.clip(u0, lower, upper)
    tau_ref = tg.clamp(tg.horizon / 2 if tau0 is None else tau0)
    qt_inner = partial(space_time_inner, grid, tg.dt)
    qt_norm = partial(space_time_norm, grid, tg.dt)

    # the first window: two nodes past the later of tau0's node and, if b6 > 0,
    # tau_star's; snapping is monotone, so that is the later time's node
    first = tg.nearest_node(max(tau_ref, cost.tau_star if cost.b6 > 0 else 0.0))[0] + 2
    state = solve_state(params, init, u, steps=min(tg.steps, first), polish=False)
    history: list[IterationRecord] = []
    trial = ARMIJO_S0  # the control block's first trial step
    prev = None  # the last accepted (u, grad); neither is written in place
    prev_index = None
    converged = False

    for it in range(max_outer_iters + 1):
        # treatment-time block: continuous minimizer at the frozen state,
        # sticky under ties so flat profiles keep the current time; the
        # same profile gives this iteration's costs and time derivative
        profile = TauProfile(state, u, cost)
        candidate = profile.minimize()
        if candidate is None:
            # the window cannot certify the time minimizer: march it all
            state = solve_state(params, init, u, polish=False, prior=(state, u))
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
        if stat_u <= grad_tol and stat_tau <= grad_tol and snap_stable:
            converged = True
            break
        if it == max_outer_iters:
            break

        # control block at the snapped node
        j_node = bd_node.total
        step_norm = qt_norm(np.clip(u - grad, lower, upper) - u)
        if step_norm > 0:
            if prev is not None:
                # spectral (Barzilai-Borwein) trial; grow the last one where
                # the curvature along the last step is not positive
                dx, dg = u - prev[0], grad - prev[1]
                num, den = qt_inner(dx, dx), qt_inner(dx, dg)
                trial = num / den if den > 0 and num > 0 else min(trial * 2.0, 1e12)
            s = trial
            steps = min(tg.steps, max(profile.least_window() + WINDOW_MARGIN, k_idx + 2))
            # the Armijo test reads the cost at the snapped node, which a
            # partial profile answers from frames 0..k_idx + 1
            probe = min(steps, k_idx + 1)
            accepted, failed, solver_error = False, 0, None
            for _ in range(ARMIJO_MAX_BACKTRACKS):
                u_trial = np.clip(u - s * grad, lower, upper)
                gd = qt_inner(grad, u_trial - u)
                if gd >= 0.0:
                    break
                try:
                    state_trial = solve_state(params, init, u_trial, steps=probe,
                                              polish=False, prior=(state, u))
                    j_trial = reduced_cost(state_trial, u_trial, tau_node, cost).total
                    if j_trial <= j_node + ARMIJO_C1 * gd:
                        if probe < steps:
                            # only a passing trial marches on to the window
                            state_trial = solve_state(
                                params, init, u_trial, steps=steps, polish=False,
                                prior=(state_trial, u_trial))
                        accepted = True
                        break
                except SolverError as exc:
                    # the cost is +inf where the march fails: reject, shrink
                    failed, solver_error = failed + 1, exc
                s *= ARMIJO_BACKTRACK
            if accepted:
                prev = (u, grad)
                trial = min(max(s, 1e-12), 1e12)
                u, state = u_trial, state_trial
            else:
                # restart the next search from the deepest backtracked step
                trial = max(s, 1e-12)
                if stat_u > grad_tol:
                    detail = (f"no Armijo decrease within {ARMIJO_MAX_BACKTRACKS} "
                              f"backtracks at stat_u={stat_u:.3e}")
                    if failed:
                        detail += (f"; {failed} trial solves failed, the last with: "
                                   f"{solver_error}")
                    raise LineSearchFailureError(it, detail, control=u, tau=tau_ref)

    if state.nframes < tg.steps + 1:
        # the result carries the iterate's whole march
        state = solve_state(params, init, u, polish=False, prior=(state, u))
    # report the continuous minimizer when it improves on the node
    last = history[-1]
    if bd_ref.total <= last.breakdown.total:
        last = replace(last, tau=tau_ref, breakdown=bd_ref)
        history.append(last)
    return OptResult(
        u_opt=u, tau_opt=last.tau, history=history, time_case=last.time_case,
        converged=converged, iterations=last.iteration + 1, stat_u=last.stat_u,
        stat_tau=last.stat_tau, state=state, adjoint=adj, gradient=grad,
    )

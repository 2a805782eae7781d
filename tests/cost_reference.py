"""Reference implementation of the discrete cost, kept as a test oracle.

An independent route to the same discrete cost that
:class:`chcontrol.objective.TauProfile` computes from cached node series:
each term is evaluated directly from the trajectory at the requested
time (interpolated fields, running integrals summed from the node
values), and the tau-derivative is assembled from the interpolated
fields and the backward difference of phi. The two agree to roundoff.
"""

import numpy as np

from chcontrol.errors import ConfigError, GridMismatchError, TimeDomainError
from chcontrol.fields import integrate
from chcontrol.objective import CostBreakdown, space_time_inner


def interpolate_in_time(traj, component, tau):
    """Piecewise-linear interpolation of one component at time tau.

    Exact (bitwise) at nodes; raises outside the trajectory's time span.
    """
    values = traj.component(component)
    times = traj.times
    t_max = times[-1]
    if tau < 0.0 or tau > t_max * (1 + 1e-12):
        raise TimeDomainError(f"time {tau} outside [0, {t_max}]")
    tau = min(tau, t_max)
    idx = int(np.searchsorted(times, tau, side="left"))
    if idx < len(times) and times[idx] == tau:
        return values[idx].copy()
    k = min(max(idx - 1, 0), len(times) - 2)
    s = (tau - times[k]) / traj.time_grid.dt
    return (1.0 - s) * values[k] + s * values[k + 1]


def _node_sq_norms(grid, a):
    axes = tuple(range(1, a.ndim))
    return (a * a).sum(axis=axes) * grid.cell_volume


def _tracking_sq(grid, traj_comp, target):
    diff = traj_comp if target is None else traj_comp - target
    return _node_sq_norms(grid, diff)


def _check_cost_shapes(state, u, cost):
    shape_t = state.data.shape[:1] + state.grid.shape
    for name, arr, expected in (
        ("phi_q", cost.phi_q, shape_t),
        ("sigma_q", cost.sigma_q, shape_t),
        ("phi_omega", cost.phi_omega, state.grid.shape),
        ("control", u, shape_t),
    ):
        if arr is not None and arr.shape != expected:
            raise GridMismatchError(f"cost evaluation: {name} has shape "
                                    f"{arr.shape}, expected {expected}")


def quad_upto(g, tau, dt):
    """Integral over [0, tau] of the piecewise-linear interpolant of the
    node values g (trapezoid on full intervals, exact partial interval)."""
    if tau < 0:
        raise TimeDomainError(f"negative integration endpoint {tau}")
    j = min(int(tau / dt), len(g) - 1)
    s = tau / dt - j
    total = 0.0
    if j > 0:
        total += dt * (0.5 * g[0] + g[1:j].sum() + 0.5 * g[j])
    if s > 0 and j + 1 < len(g):
        total += dt * s * ((1.0 - 0.5 * s) * g[j] + 0.5 * s * g[j + 1])
    return float(total)


def lerp_nodes(g, tau, dt):
    """Piecewise-linear interpolation of scalar node values at time tau."""
    j = max(min(int(tau / dt), len(g) - 2), 0)
    s = tau / dt - j
    return float((1.0 - s) * g[j] + s * g[j + 1])


def _relaxed_value(state, tau, cost):
    relax = cost.relaxation
    if relax is None or relax.gamma == 0.0:
        return 0.0
    grid, dt = state.grid, state.time_grid.dt
    g = _node_sq_norms(grid, state.sigma - relax.sigma_omega)
    lo = tau - relax.eps
    value = quad_upto(g, tau, dt) - quad_upto(g, max(lo, 0.0), dt)
    if lo < 0:
        value += (-lo) * g[0]  # sigma frozen at sigma(0) for negative times
    return relax.gamma / (2.0 * relax.eps) * value


def evaluate_cost(state, u, tau, cost):
    """Cost of (state, u, tau); the relaxed window term is left at zero."""
    grid, tg = state.grid, state.time_grid
    _check_cost_shapes(state, u, cost)
    tau = tg.clamp(tau)
    dt = tg.dt
    out = CostBreakdown()

    if cost.b1 > 0:
        out.tracking_q = 0.5 * cost.b1 * quad_upto(
            _tracking_sq(grid, state.phi, cost.phi_q), tau, dt)
    if cost.b3 > 0:
        out.nutrient_q = 0.5 * cost.b3 * quad_upto(
            _tracking_sq(grid, state.sigma, cost.sigma_q), tau, dt)
    if cost.b2 > 0 or cost.b4 > 0:
        phi_tau = interpolate_in_time(state, "phi", tau)
        if cost.b2 > 0:
            diff = phi_tau if cost.phi_omega is None else phi_tau - cost.phi_omega
            out.tracking_omega = 0.5 * cost.b2 * integrate(grid, diff * diff)
        if cost.b4 > 0:
            out.tumour_mass = 0.5 * cost.b4 * integrate(grid, 1.0 + phi_tau)
    out.linear_time = cost.b5 * tau
    out.quadratic_time = 0.5 * cost.b6 * (tau - cost.tau_star) ** 2
    if cost.b0 > 0:
        out.control_energy = 0.5 * cost.b0 * space_time_inner(
            grid, dt, u, u)
    return out


def evaluate_cost_relaxed(state, u, tau, cost):
    """Cost including the windowed terminal-nutrient term."""
    if cost.relaxation is None:
        raise ConfigError("cost.relaxation: required by the relaxed functional")
    out = evaluate_cost(state, u, tau, cost)
    out.relaxed_term = _relaxed_value(state, state.time_grid.clamp(tau), cost)
    return out


def _dphi_dt(state, tau):
    """Backward difference of phi on the interval containing tau; the
    forward difference on the first interval at tau = 0."""
    tg = state.time_grid
    j_hi = int(np.searchsorted(tg.times, tau, side="left"))
    j_hi = min(max(j_hi, 1), tg.steps)
    return (state.phi[j_hi] - state.phi[j_hi - 1]) / tg.dt


def time_derivative(state, tau, cost):
    """Analytic derivative of the cost with respect to tau.

    Exact derivative of the discrete cost away from time nodes; at nodes
    the backward-difference convention picks the left slope of the
    d_t phi terms (the right slope at tau = 0).
    """
    grid, tg = state.grid, state.time_grid
    tau = tg.clamp(tau)
    dt = tg.dt
    value = cost.b5 + cost.b6 * (tau - cost.tau_star)

    if cost.b1 > 0:
        value += 0.5 * cost.b1 * lerp_nodes(
            _tracking_sq(grid, state.phi, cost.phi_q), tau, dt)
    if cost.b3 > 0:
        value += 0.5 * cost.b3 * lerp_nodes(
            _tracking_sq(grid, state.sigma, cost.sigma_q), tau, dt)
    if cost.b2 > 0 or cost.b4 > 0:
        dphi = _dphi_dt(state, tau)
        if cost.b2 > 0:
            phi_tau = interpolate_in_time(state, "phi", tau)
            diff = phi_tau if cost.phi_omega is None else phi_tau - cost.phi_omega
            value += cost.b2 * integrate(grid, diff * dphi)
        if cost.b4 > 0:
            value += 0.5 * cost.b4 * integrate(grid, dphi)
    relax = cost.relaxation
    if relax is not None and relax.gamma > 0:
        g = _node_sq_norms(grid, state.sigma - relax.sigma_omega)
        at_tau = lerp_nodes(g, tau, dt)
        lo = tau - relax.eps
        at_lo = g[0] if lo <= 0 else lerp_nodes(g, lo, dt)
        value += relax.gamma / (2.0 * relax.eps) * (at_tau - at_lo)
    return float(value)

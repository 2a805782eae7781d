"""Backward-in-time adjoint solver.

The adjoint is constructed as the exact algebraic transpose of the
linearized update map (discretize-then-optimize): with A_k the step
matrix of the forward step k-1 -> k and C_k the explicit coupling of
step k -> k+1, both from :mod:`chcontrol.system`, the multipliers solve,
marching k = k_tau .. 1,

    A_k^T L_k = S_k + C_k^T L_{k+1}       (L_{k_tau + 1} = 0)

where the sources S_k carry the tracking residuals with the same
trapezoid time weights used by the cost, the terminal phase data
b2 (phi(tau) - phi_omega) + b4 / 2 at k = k_tau, and, when the relaxed
functional is active, the windowed nutrient residual weighted so the
discrete window integral is exact.

The reported trajectory (adj_mu, adj_phi, adj_sigma) rescales the
multipliers by the trapezoid node weights, which makes

    sum_k w_k <adj_sigma_k, h_k>

the exact directional derivative of the tracking cost along the
linearized solution for h (the duality identity), and makes frame k_tau
equal the terminal data (0, (b2 (phi - phi_omega) + b4/2) / beta, 0)
exactly. The treatment time is snapped to the nearest node before the
solve; the snapping error is the caller's to report.
"""

from __future__ import annotations

import numpy as np

from .errors import NanDetectedError
from .fields import Trajectory
from .objective import CostSpec, time_weights, window_weights
from .state import ModelParams, check_state
from .system import StepSolver, coupling, step_coefficients

ADJOINT_NAMES = ("adj_mu", "adj_phi", "adj_sigma")


def _terminal_phase_source(cost: CostSpec, phi_tau, q):
    """q plus the terminal phase source b2 (phi(tau) - phi_omega) + b4/2."""
    if cost.b2 > 0:
        diff = phi_tau if cost.phi_omega is None else phi_tau - cost.phi_omega
        q = q + cost.b2 * diff
    if cost.b4 > 0:
        q = q + 0.5 * cost.b4
    return q


def adjoint_terminal_data(params: ModelParams, state: Trajectory, tau_index: int,
                          cost: CostSpec):
    """Terminal frame (adj_mu, adj_phi, adj_sigma) at the snapped time."""
    zero = np.zeros(params.grid.shape)
    q_term = _terminal_phase_source(cost, state.phi[tau_index], zero) / params.beta
    return zero, q_term, np.zeros(params.grid.shape)


def solve_adjoint(params: ModelParams, state: Trajectory, tau_index: int,
                  cost: CostSpec) -> Trajectory:
    """Solve the adjoint system on nodes 0..tau_index. It reads the
    forward frames 0..tau_index, so ``state`` may stop there.
    ``check_state`` is its one rule for ``state`` and ``tau_index``:
    :class:`GridMismatchError` for a state on another grid or time grid
    than ``params``, :class:`TimeDomainError` for ``tau_index`` not a whole
    node in 0..nt or past the frames of ``state``."""
    grid, tg, dt = params.grid, params.time_grid, params.time_grid.dt
    k_tau = check_state(params, state, "adjoint", tau_index)

    data = np.zeros((k_tau + 1, 3) + grid.shape)
    data[k_tau] = adjoint_terminal_data(params, state, k_tau, cost)
    if k_tau == 0:
        return Trajectory(grid, tg, data, ADJOINT_NAMES)

    solver = StepSolver(grid, dt, params.alpha, params.beta)
    phi, sigma = state.phi, state.sigma
    wq = time_weights(k_tau + 1, dt)
    relax = cost.relaxation
    win = None
    if relax is not None and relax.gamma > 0:
        win = relax.gamma / relax.eps * window_weights(k_tau, dt, relax.eps)

    for k in range(k_tau, 0, -1):
        # A_k^T takes (P, W) of step k-1; C_k^T takes (E, S) of step k,
        # evaluated by the previous iteration
        p, w, ex_prev, spp_prev = step_coefficients(params, state, k - 1)
        if k < k_tau:
            rhs_m, rhs_f, rhs_s = coupling(solver, ex, spp, lam, transpose=True)
        else:
            rhs_m, rhs_f, rhs_s = np.zeros((3,) + grid.shape)
        if cost.b1 > 0:
            diff = phi[k] if cost.phi_q is None else phi[k] - cost.phi_q[k]
            rhs_f = rhs_f + cost.b1 * wq[k] * diff
        if k == k_tau:
            rhs_f = _terminal_phase_source(cost, phi[k], rhs_f)
        if cost.b3 > 0:
            diff = sigma[k] if cost.sigma_q is None else sigma[k] - cost.sigma_q[k]
            rhs_s = rhs_s + cost.b3 * wq[k] * diff
        if win is not None:
            rhs_s = rhs_s + win[k] * (sigma[k] - relax.sigma_omega)

        lam = solver.solve(p, w, (rhs_m, rhs_f, rhs_s), transpose=True)
        if not np.isfinite(lam).all():
            raise NanDetectedError(f"adjoint frame {k - 1}")
        data[k - 1] = lam / wq[k - 1]
        ex, spp = ex_prev, spp_prev

    return Trajectory(grid, tg, data, ADJOINT_NAMES)

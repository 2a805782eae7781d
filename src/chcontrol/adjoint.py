"""Backward-in-time adjoint solver.

The adjoint is constructed as the exact algebraic transpose of the
linearized update map (discretize-then-optimize): with A_k the step
matrix of the forward step k-1 -> k and C_k the explicit coupling of
step k -> k+1, both from :mod:`chcontrol.system`, the multipliers solve,
marching k = k_tau .. 1,

    A_k^T L_k = S_k + C_k^T L_{k+1}       (L_{k_tau + 1} = 0)

where the sources S_k are the derivative of the discrete cost in the
state at node k. They are read from the cost's own table,
:func:`chcontrol.objective.integral_terms`: each row adds its weight
times its node weight (the trapezoid weights of [0, tau], or
:func:`~chcontrol.objective.window_weights` for the relaxed window)
times its misfit at node k to its component's row, and the terminal
phase data b2 (phi(tau) - phi_omega) + b4 / 2 joins at k = k_tau. This
module reads no weight or target of the cost itself, and the table's
shape check is its rule for the targets: a misshapen target raises
:class:`GridMismatchError` before any solve.

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
from .objective import (CostSpec, _terminal_phase_source, integral_terms,
                        time_weights, window_weights)
from .state import ModelParams, check_state
from .system import StepSolver, coupling, step_coefficients

ADJOINT_NAMES = ("adj_mu", "adj_phi", "adj_sigma")


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
    node in 0..nt or past the frames of ``state``. Misshapen targets in
    ``cost`` raise :class:`GridMismatchError`
    (:meth:`CostSpec.check_shapes`, through the cost's table)."""
    grid, tg, dt = params.grid, params.time_grid, params.time_grid.dt
    k_tau = check_state(params, state, "adjoint", tau_index)
    terms = integral_terms(cost, state, k_tau + 1)

    data = np.zeros((k_tau + 1, 3) + grid.shape)
    data[k_tau] = adjoint_terminal_data(params, state, k_tau, cost)
    solver = StepSolver(grid, dt, params.alpha, params.beta)
    wq = time_weights(k_tau + 1, dt)
    # per term: its row of the right-hand side (mu, phi, sigma) and its
    # source at every node, weight times node weight times misfit
    sources = []
    for t in terms:
        weights = t.weight * (wq if t.window is None
                              else window_weights(k_tau, dt, t.window))
        sources.append((state.names.index(t.component),
                        weights.reshape((-1,) + (1,) * grid.dim) * t.misfit))
    # A_k^T takes (P, W) of step k-1 and C_k^T takes (E, S) of step k
    p, w, ex, spp = step_coefficients(params, state, k_tau)

    for k in range(k_tau, 0, -1):
        rhs = list(coupling(solver, ex[k], spp[k], lam, transpose=True) if k < k_tau
                   else np.zeros((3,) + grid.shape))
        for row, source in sources:
            rhs[row] = rhs[row] + source[k]
        if k == k_tau:
            rhs[1] = _terminal_phase_source(cost, state.phi[k], rhs[1])  # phi row

        lam = solver.solve(p[k - 1], w[k - 1], rhs, transpose=True)
        if not np.isfinite(lam).all():
            raise NanDetectedError(f"adjoint frame {k - 1}")
        data[k - 1] = lam / wq[k - 1]

    return Trajectory(grid, tg, data, ADJOINT_NAMES)

"""Sensitivities of the state with respect to the control.

Given a solved base trajectory and a perturbation direction h of the
control, this module solves for the directional derivative
(d_mu, d_phi, d_sigma) of (mu, phi, sigma). The scheme is not an
independent discretization of the continuous sensitivity equations: it is
the exact derivative of the discrete forward update map, obtained by
differentiating each implicit step. Step k -> k+1 solves

    A_{k+1} y_{k+1} = C_k y_k + (0, 0, h_k)

with the step matrix A_{k+1} and explicit coupling C_k of
:mod:`chcontrol.system`, which writes out both. Exactness of this
construction is what makes the finite-difference consistency check clean
at fixed resolution and the adjoint an exact transpose.

Since A depends on the base state only, a stack of directions shares
every step matrix: the sweep marches all of them together and solves
with A_{k+1} once per step, with one right-hand side per direction. A
caller that reads only the first frames (the duality check stops at the
treatment node) asks for that many steps and skips the rest.
"""

from __future__ import annotations

import numpy as np

from .errors import NanDetectedError
from .fields import Trajectory
from .state import ModelParams, check_control_shape, check_state
from .system import StepSolver, coupling, step_coefficients

LINEARIZED_NAMES = ("d_mu", "d_phi", "d_sigma")


def solve_linearized(params: ModelParams, state: Trajectory, h: np.ndarray,
                     steps: int | None = None) -> Trajectory:
    """Solve the linearized system along direction h with zero initial data.

    ``h`` is one (nt+1, *grid.shape) direction or a stack (ndir, nt+1,
    *grid.shape) of directions, checked as ``solve_state`` checks its
    controls; node k perturbs the control on [t_k, t_{k+1}). A stack is
    marched together: one step solve per step serves every direction. Only
    steps 1..``steps`` (default nt) are marched, and the returned
    trajectory holds frames 0..steps, of shape (steps+1, 3, [ndir,]
    *grid.shape).
    The sweep reads the forward frames 0..steps, so ``state`` may stop
    there. ``check_state`` is its one rule for ``state`` and ``steps``:
    :class:`GridMismatchError` for a state on another grid or time grid
    than ``params``, :class:`TimeDomainError` for ``steps`` not a whole
    node in 0..nt or past the frames of ``state``.
    """
    grid, tg = params.grid, params.time_grid
    nt, dt = tg.steps, tg.dt
    hv = np.asarray(h)
    stacked = hv.ndim == grid.dim + 2
    check_control_shape(grid, tg, hv, members=stacked)
    steps = check_state(params, state, "linearized", nt if steps is None else steps)
    # node axis first, so that hv[k] holds node k of every direction
    if stacked:
        hv = np.moveaxis(hv, 0, 1)

    data = np.zeros((steps + 1, 3) + hv.shape[1:])
    solver = StepSolver(grid, dt, params.alpha, params.beta)
    p, w, ex, spp = step_coefficients(params, state, steps)
    for k in range(steps):
        rm, rf, rs = coupling(solver, ex[k], spp[k], data[k])
        x = solver.solve(p[k], w[k], (rm, rf, rs + hv[k]))
        if not np.isfinite(x).all():
            raise NanDetectedError(f"linearized frame {k + 1}")
        data[k + 1] = x

    return Trajectory(grid, tg, data, LINEARIZED_NAMES)

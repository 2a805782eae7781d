"""Forward solver for the controlled tumour-growth state system.

The model couples a viscous Cahn-Hilliard pair (phi, mu) to a nutrient
concentration sigma through a proliferation exchange term:

    alpha d_t mu + d_t phi - Lap mu = P(phi) (sigma - mu)
    mu = beta d_t phi - Lap phi + F'(phi)
    d_t sigma - Lap sigma = -P(phi) (sigma - mu) + u

with homogeneous Neumann conditions and prescribed initial data. The
control u acts as a nutrient source, piecewise constant in time on
[t_k, t_{k+1}).

Time discretization (first order, semi-implicit with convex splitting):
Laplacians implicit, the convex part B' of F' solved implicitly by a
damped Newton iteration, the smooth part S' of F' explicit, P frozen at
the old phase, and the exchange term P(phi_k)(sigma - mu) implicit-linear
in the new unknowns. The implicit exchange makes the combined quantity

    integral(alpha mu + phi + sigma) - sum_j dt integral(u_j)

an exact invariant of the scheme (the Laplacian stencil integrates to
zero), which every accepted run is required to satisfy to 1e-10. The
march does not measure it; :func:`chcontrol.verification.mass_balance_check`
does, after every step.

:class:`ModelParams` carries the discretization and the Newton settings,
so ``solve_state(params, init, control)`` runs the same iteration for
simulate, the optimizer and the oracles.

One step is a damped Newton solve on the stacked frame X = (mu, phi,
sigma), of shape (3, *grid.shape) like ``Trajectory.data[k]``. Each
residual evaluation applies the stencil once to the whole frame, and
each Newton iteration solves A y = R with the step matrix A of
:mod:`chcontrol.system` and steps X - lam y (the same bits as solving
A dX = -R, since rounding is symmetric in sign). The residual is kept
independent of the assembled matrix: it is the stencil form of the
equations, never A times X, so an assembly error shows up as a Newton
failure rather than as convergence to the wrong equations.

In 2D the iteration is a chord iteration: it solves with the SuperLU
factorization the solver kept, across iterations and time steps, and
refactors A(P, B''(phi)) at the current iterate only at the iteration
after a full step that left at least ``CHORD_CONTRACTION`` of the
residual without reaching the tolerance. As convergence is tested on the
stencil residual, a stale factorization changes the iteration count (the
``newton_iters`` diagnostic counts chord iterations), not the answer; the
refactor rule follows the reuse policy of CVODE (Hindmarsh et al., ACM
TOMS 31(3), 2005). In 1D a step solve factors and solves in one LAPACK
call, a kept factorization saves little and costs FD-gradient accuracy,
so the 1D iteration stays exact Newton. The linearized and adjoint sweeps
factor each step exactly (see :mod:`chcontrol.system`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    NanDetectedError,
    NewtonDivergenceError,
    SeparationViolationError,
    ShapeMismatchError,
)
from .fields import Grid, TimeGrid, Trajectory, laplacian_neumann
from .potentials import Potential, Proliferation
from .system import StepSolver

STATE_NAMES = ("mu", "phi", "sigma")
# defaults of ModelParams.newton_tol and ModelParams.newton_max_iter
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50
# a 2D Newton iteration whose full step leaves at least this share of the
# residual (and no less than the tolerance) refactors at the next iteration
CHORD_CONTRACTION = 0.3


@dataclass(frozen=True)
class ModelParams:
    alpha: float
    beta: float
    potential: Potential
    proliferation: Proliferation
    grid: Grid
    time_grid: TimeGrid
    # the inner Newton iteration of every forward solve: max|R| bound and
    # iteration budget (the polish excluded)
    newton_tol: float = NEWTON_TOL
    newton_max_iter: int = NEWTON_MAX_ITER

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigError("model.alpha: must be positive (alpha and beta are "
                              "positive relaxation constants)")
        if not self.beta > 0:
            raise ConfigError("model.beta: must be positive (alpha and beta are "
                              "positive relaxation constants)")


@dataclass
class InitialData:
    mu0: np.ndarray
    phi0: np.ndarray
    sigma0: np.ndarray

    def validate(self, grid: Grid, potential: Potential) -> None:
        for name, arr in (("mu0", self.mu0), ("phi0", self.phi0), ("sigma0", self.sigma0)):
            if arr.shape != grid.shape:
                raise ShapeMismatchError(f"initial.{name}: shape {arr.shape} does not "
                                         f"match grid {grid.shape}")
            if not np.all(np.isfinite(arr)):
                raise NanDetectedError(f"initial data {name}")
        if potential.distance(self.phi0) <= 0:
            lo, hi = potential.domain
            raise ConfigError(
                f"initial.phi0: range [{self.phi0.min():.4g}, {self.phi0.max():.4g}] "
                f"must lie strictly inside the potential domain ({lo}, {hi})"
            )


@dataclass
class StepDiagnostics:
    """Per-step solver diagnostics collected during a forward run."""

    newton_iters: np.ndarray
    delta_sep: np.ndarray


@dataclass
class SeparationReport:
    delta_sep: float
    argmin_frame: int


def _newton_step(solver, pot, p_frozen, x0, pi_old, u_k, tol, max_iter,
                 clamp_lo, clamp_hi, refactor):
    """Damped Newton solve of one implicit step.

    ``x0`` is the old frame stacked as (mu, phi, sigma) along its first
    axis, like ``Trajectory.data[k]``, and so is the returned new frame.
    In 2D the iteration is a chord iteration: it solves against the
    factorization the solver kept, from this step or an earlier one, and
    factors A(P, B''(phi)) at the current iterate only at the first
    iteration with ``refactor`` set. ``refactor`` is set after an
    iteration whose full step did not contract the residual by
    ``CHORD_CONTRACTION``. In 1D every iteration factors.
    Returns (frame, residual, iterations, converged, refactor), the last
    for the next step to start with.
    """
    a, b, c = solver.a, solver.b, solver.c
    grid = solver.grid
    coef = np.array((a, b, c)).reshape((3,) + (1,) * grid.dim)

    def residual(x):
        # the stencil form of the step equations, each row summing its
        # terms left to right as in the module docstring; the step matrix
        # is only ever solved with, never multiplied
        d = x - x0
        r = coef * d
        r[0] += c * d[1]
        r -= laplacian_neumann(grid, x)
        exchange = p_frozen * (x[2] - x[0])
        r[0] -= exchange
        r[1] += pot.dB(x[1])
        r[1] += pi_old
        r[1] -= x[0]
        r[2] += exchange
        r[2] -= u_k
        return r

    chord = grid.dim == 2
    x = x0
    r = residual(x)
    res = np.abs(r).max()
    iters = 0
    converged = res < tol
    # once converged, one more (polishing) iteration pushes the residual to
    # the evaluation floor, which the finite-difference gradient oracles
    # rely on; it takes a full step and keeps it only if it lowers the
    # residual
    while converged or iters < max_iter:
        if not np.isfinite(res):
            raise NanDetectedError("Newton residual")
        # A y = r, so the Newton update is -y; the solve is sign-symmetric
        if refactor or not chord:
            y = solver.solve(p_frozen, pot.d2B(x[1]), r)
            refactor = False
        else:
            y = solver.solve(None, None, r)
        best = (res, x, r) if converged else None
        lam = 1.0
        for _ in range(1 if converged else 10):
            xt = x - y if lam == 1.0 else x - lam * y
            if clamp_lo is not None:
                np.clip(xt[1], clamp_lo, clamp_hi, out=xt[1])
            rt = residual(xt)
            rest = np.abs(rt).max()
            if best is None or rest < best[0]:
                best = (rest, xt, rt)
            if lam == 1.0 and rest >= CHORD_CONTRACTION * res and rest >= tol:
                refactor = True
            if rest < res or rest < tol:
                break
            lam *= 0.5
        res, x, r = best
        iters += 1
        if converged:
            break
        converged = res < tol
    return x, res, iters, converged, refactor


def solve_state(params: ModelParams, init: InitialData,
                control: np.ndarray) -> Trajectory:
    """March the state system over the full time grid.

    ``control`` holds one field per time node, of shape (nt+1,
    *grid.shape), and is read as piecewise constant in time: node k drives
    [t_k, t_{k+1}). The last node does not enter the dynamics; it carries
    only its trapezoid weight in the control-energy term. Every Newton
    iteration runs under ``params.newton_tol`` and
    ``params.newton_max_iter``. Returns a trajectory whose frame 0 is a
    bitwise copy of the initial data, with per-step diagnostics attached.
    Raises :class:`ShapeMismatchError` for a control of another shape, and
    :class:`NewtonDivergenceError`, :class:`SeparationViolationError` or
    :class:`NanDetectedError` on failure.
    """
    grid, tg, pot = params.grid, params.time_grid, params.potential
    init.validate(grid, pot)
    nt, dt = tg.steps, tg.dt
    expected = (nt + 1,) + grid.shape
    if control.shape != expected:
        raise ShapeMismatchError(f"control values shape {control.shape}, "
                                 f"expected {expected}")

    solver = StepSolver(grid, dt, params.alpha, params.beta)
    clamp_lo = clamp_hi = None
    margin = 0.0
    if pot.singular:
        lo, hi = pot.domain
        margin = 1e-6 * (hi - lo)
        clamp_lo, clamp_hi = lo + margin, hi - margin

    data = np.empty((nt + 1, 3) + grid.shape)
    data[0, 0] = init.mu0
    data[0, 1] = init.phi0
    data[0, 2] = init.sigma0

    newton_iters = np.zeros(nt, dtype=int)
    delta_sep = np.full(nt, np.inf)
    # the solver is new, so the first 2D iteration factors
    refactor = True

    for k in range(nt):
        f0 = data[k, 1]
        p_frozen = params.proliferation.P(f0)
        pi_old = pot.dS(f0)
        u_k = control[k]

        x, res, iters, ok, refactor = _newton_step(
            solver, pot, p_frozen, data[k], pi_old, u_k, params.newton_tol,
            params.newton_max_iter, clamp_lo, clamp_hi, refactor,
        )
        if not ok:
            raise NewtonDivergenceError(k + 1, res, iters)
        if not np.isfinite(x).all():
            raise NanDetectedError(f"state frame {k + 1}")
        delta_sep[k] = dist = pot.distance(x[1])
        if dist <= 2 * margin:
            raise SeparationViolationError(k + 1, dist)

        data[k + 1] = x
        newton_iters[k] = iters

    diag = StepDiagnostics(newton_iters, delta_sep)
    return Trajectory(grid, tg, data, STATE_NAMES, diagnostics=diag)


def separation_report(traj: Trajectory, potential: Potential) -> SeparationReport:
    """Minimum distance of the phase variable to the potential domain
    boundary over the whole trajectory (inf for an unbounded domain)."""
    per_frame = [potential.distance(f) for f in traj.component("phi")]
    k = int(np.argmin(per_frame))
    return SeparationReport(per_frame[k], k)

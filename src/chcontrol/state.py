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

``solve_state`` also marches an ensemble: K controls stacked along a
leading member axis, (K, nt+1, *grid.shape), from one initial state, as
the verification oracles do with their perturbed controls. The iterate
then carries the members along its second axis, (3, K, *grid.shape), and
so does every frame of the returned trajectory. The members do not
couple, and each keeps its own damping, line search, polish, clamp and
convergence test, so that each member's frames and iteration counts are
bitwise those of its march alone; a march of one control is the
ensemble of one member. In 1D a stacked Newton iteration makes one
``StepSolver.solve`` call for the members still iterating, which factors
their block-diagonal band with one ``dgbsv``: the per-iteration Python
and numpy overhead, larger than the LAPACK time of one member at 128
cells, is paid once per ensemble instead of once per member, the pattern
of batched small solves (Dongarra et al., Procedia CS 108, 2017). In 2D
the members march one after another, each with its own solver.

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

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    NanDetectedError,
    NewtonDivergenceError,
    SeparationViolationError,
    ShapeMismatchError,
    TimeDomainError,
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
    """Per-step solver diagnostics collected during a forward run: entry
    k - 1 belongs to step k. ``newton_iters`` counts the
    ``StepSolver.solve`` calls of the step, one per Newton iteration,
    polish included; in a march of several members that is one call per
    stacked iteration in 1D, and the sum over the members in 2D.
    ``delta_sep`` holds the ``Potential.distance`` of the frame the step
    keeps, the least over the members."""

    newton_iters: np.ndarray
    delta_sep: np.ndarray


def _newton_step(solver, pot, p_frozen, x0, pi_old, u_k, tol, max_iter,
                 clamp_lo, clamp_hi, refactor):
    """Damped Newton solve of one implicit step for K members at once.

    ``x0`` is the old frame of each member, stacked as (mu, phi, sigma)
    along the first axis and the members along the second, (3, K,
    *grid.shape), and so is the returned new frame; ``p_frozen``,
    ``pi_old`` and ``u_k`` are (K, *grid.shape). The members do not
    couple: each runs its own iteration, with its own damping, line
    search, polish and convergence test, as if it were marched alone, and
    leaves when its iteration ends. Each stacked iteration solves for the
    members still in it with one ``solver.solve`` call.
    In 2D the iteration is a chord iteration of one member (K = 1): it
    solves against the factorization the solver kept, from this step or an
    earlier one, and factors A(P, B''(phi)) at the current iterate only at
    the first iteration with ``refactor`` set. ``refactor`` is set after an
    iteration whose full step did not contract the residual by
    ``CHORD_CONTRACTION``. In 1D every iteration factors.
    Returns (frame, residual, solves, converged, refactor): lists of the
    residual max|R| and of whether it converged, per member; the stacked
    iterations (polish included), each one ``solver.solve`` call; and
    ``refactor`` for the next step to start with. A member that did not
    converge made ``max_iter`` iterations.
    """
    a, b, c = solver.a, solver.b, solver.c
    grid = solver.grid
    coef = np.array((a, b, c)).reshape((3, 1) + (1,) * grid.dim)
    # the component axis and the grid axes: max|R| is taken per member
    axes = (0,) + tuple(range(2, 2 + grid.dim))

    def residual(x, m, old=x0, p=p_frozen, pi=pi_old, u=u_k):
        # the stencil form of the step equations at the iterate x of the
        # members m (None for all), each row summing its terms left to
        # right as in the module docstring; the step matrix is only ever
        # solved with, never multiplied
        if m is not None:
            old, p, pi, u = old[:, m], p[m], pi[m], u[m]
        d = x - old
        r = coef * d
        r[0] += c * d[1]
        r -= laplacian_neumann(grid, x)
        exchange = p * (x[2] - x[0])
        r[0] -= exchange
        r[1] += pot.dB(x[1])
        r[1] += pi
        r[1] -= x[0]
        r[2] += exchange
        r[2] -= u
        return r

    chord = grid.dim == 2
    x = x0
    r = residual(x, None)
    # max|R| of each member, as a list of floats
    res = np.abs(r).max(axis=axes).tolist()
    converged = [v < tol for v in res]
    # once converged, a member makes one more (polishing) iteration, which
    # pushes its residual to the evaluation floor that the finite-difference
    # gradient oracles rely on; it takes a full step and keeps it only if it
    # lowers the residual. A member leaves after its polish, or unconverged
    # after max_iter iterations, so every member still in has made as many
    # iterations as there were solves. The per-member flags and residuals
    # are Python lists: with few members, list work costs less than numpy
    # calls on arrays of a few entries.
    live = [conv or max_iter > 0 for conv in converged]
    solves = 0
    while (n_live := live.count(True)):
        if n_live == len(live):
            idx = range(n_live)
            m, xs, rs, res_s, conv_s = None, x, r, res, converged
        else:
            idx = [i for i, on in enumerate(live) if on]
            m = np.array(idx)
            xs, rs = x[:, m], r[:, m]
            res_s, conv_s = [res[i] for i in idx], [converged[i] for i in idx]
        if not all(map(math.isfinite, res_s)):
            raise NanDetectedError("Newton residual")
        # A y = r, so the Newton update is -y; the solve is sign-symmetric
        if refactor or not chord:
            y = solver.solve(p_frozen if m is None else p_frozen[m],
                             pot.d2B(xs[1]), rs)
            refactor = False
        else:
            y = solver.solve(None, None, rs)
        solves += 1
        # the line search of each member halves lam from 1 until a trial
        # lowers its residual, for at most 10 trials (1 in the polish), and
        # keeps its best trial, or its iterate if the polish did not lower
        # it; s lists the positions in xs of the members still searching
        # (None: all of them)
        best_x, best_r, best_res, owned = xs, rs, list(res_s), False
        s, lam = None, 1.0
        for trial in range(10):
            if s is None:
                xt = xs - y if lam == 1.0 else xs - lam * y
            else:
                xt = xs[:, s] - lam * y[:, s]
            if clamp_lo is not None:
                np.clip(xt[1], clamp_lo, clamp_hi, out=xt[1])
            rt = residual(xt, m if s is None else (s if m is None else m[s]))
            rest = np.abs(rt).max(axis=axes).tolist()
            if chord and trial == 0 and (rest[0] >= CHORD_CONTRACTION * res_s[0]
                                         and rest[0] >= tol):
                refactor = True
            if s is None and all(map(float.__lt__, rest, res_s)):
                # the usual case: every member lowered its residual at
                # lam = 1, so each takes its trial and stops
                best_x, best_r, best_res = xt, rt, rest
                break
            pos = range(len(rest)) if s is None else s
            take, going = [], []
            for j, (q, v) in enumerate(zip(pos, rest)):
                if v < best_res[q] or (trial == 0 and not conv_s[q]):
                    take.append(j)
                if not (v < res_s[q] or v < tol or conv_s[q]):
                    going.append(q)
            if s is None and len(take) == len(rest):
                best_x, best_r, best_res, owned = xt, rt, rest, True
            elif take:
                if not owned:
                    best_x, best_r, owned = best_x.copy(), best_r.copy(), True
                at = [pos[j] for j in take]
                best_x[:, at], best_r[:, at] = xt[:, take], rt[:, take]
                for q, j in zip(at, take):
                    best_res[q] = rest[j]
            if not going:
                break
            s, lam = going, lam * 0.5
        if m is None:
            x, r, res = best_x, best_r, best_res
        else:
            x, r = x.copy(), r.copy()
            x[:, m], r[:, m] = best_x, best_r
            for i, v in zip(idx, best_res):
                res[i] = v
        for i in idx:
            if converged[i]:
                live[i] = False
            elif res[i] < tol:
                converged[i] = True
            elif solves >= max_iter:
                live[i] = False
    return x, res, solves, converged, refactor


def check_control_shape(grid: Grid, time_grid: TimeGrid, control: np.ndarray,
                        members: bool = False) -> None:
    """Raise :class:`ShapeMismatchError` unless ``control`` holds one grid
    field per time node, of shape (nt+1, *grid.shape), or with ``members``
    a non-empty stack of such controls, (K, nt+1, *grid.shape)."""
    expected = (time_grid.steps + 1,) + grid.shape
    shape = control.shape[1:] if members else control.shape
    if shape != expected or (members and not control.shape[0]):
        want = f"(K >= 1, {str(expected)[1:]}" if members else str(expected)
        raise ShapeMismatchError(f"control values shape {control.shape}, "
                                 f"expected {want}")


def solve_state(params: ModelParams, init: InitialData,
                control: np.ndarray, steps: int | None = None) -> Trajectory:
    """March the state system over the time grid.

    ``control`` holds one field per time node, of shape (nt+1,
    *grid.shape), and is read as piecewise constant in time: node k drives
    [t_k, t_{k+1}). The last node does not enter the dynamics; it carries
    only its trapezoid weight in the control-energy term. Every Newton
    iteration runs under ``params.newton_tol`` and
    ``params.newton_max_iter``. Only steps 1..``steps`` (default nt) are
    marched: the returned trajectory holds frames 0..steps, bitwise the
    first frames of the full march, and its diagnostics cover those steps.
    Frame 0 is a bitwise copy of the initial data.

    ``control`` may also be a stack of K controls along a leading member
    axis, (K, nt+1, *grid.shape), all marched from ``init``. The
    trajectory then has data (steps+1, 3, K, *grid.shape), and member i is
    bitwise the trajectory of ``control[i]`` marched alone. In 1D the
    members march together, one stacked Newton iteration and one band
    solve per step and iteration for all of them; in 2D they march one
    after another, each with its own solver. A failing member fails the
    whole march: in 1D at the earliest failing step, in 2D at the first
    failing member.

    Raises :class:`ShapeMismatchError` for a control of another shape,
    :class:`TimeDomainError` for ``steps`` outside 1..nt, and
    :class:`NewtonDivergenceError`, :class:`SeparationViolationError` or
    :class:`NanDetectedError` on failure.
    """
    grid, tg, pot = params.grid, params.time_grid, params.potential
    init.validate(grid, pot)
    nt = tg.steps
    stacked = np.ndim(control) == grid.dim + 2
    check_control_shape(grid, tg, control, stacked)
    steps = nt if steps is None else int(steps)
    if not 1 <= steps <= nt:
        raise TimeDomainError(f"state steps {steps} outside 1..{nt}")

    members = control if stacked else control[None]
    count = len(members)
    data = np.empty((steps + 1, 3, count) + grid.shape)
    data[0, 0] = init.mu0
    data[0, 1] = init.phi0
    data[0, 2] = init.sigma0
    newton_iters = np.zeros(steps, dtype=int)
    delta_sep = np.full(steps, np.inf)
    # 1D marches all members as one lane; 2D marches each as a lane of its own
    lanes = [slice(None)] if grid.dim == 1 else [slice(i, i + 1) for i in range(count)]
    for lane in lanes:
        _march(params, data[:, :, lane], members[lane], newton_iters, delta_sep)

    diag = StepDiagnostics(newton_iters, delta_sep)
    return Trajectory(grid, tg, data if stacked else data[:, :, 0], STATE_NAMES,
                      diagnostics=diag)


def _march(params: ModelParams, frames: np.ndarray, control: np.ndarray,
           newton_iters: np.ndarray, delta_sep: np.ndarray) -> None:
    """March the members of ``frames`` (steps+1, 3, K, *grid.shape), whose
    frame 0 is set, through steps 1..steps under ``control`` (K, nt+1,
    *grid.shape) with one solver, adding each step's solve calls to
    ``newton_iters`` and lowering ``delta_sep`` to its least distance."""
    grid, pot = params.grid, params.potential
    solver = StepSolver(grid, params.time_grid.dt, params.alpha, params.beta)
    clamp_lo = clamp_hi = None
    margin = 0.0
    if pot.singular:
        lo, hi = pot.domain
        margin = 1e-6 * (hi - lo)
        clamp_lo, clamp_hi = lo + margin, hi - margin
    # the solver is new, so the first 2D iteration factors
    refactor = True

    for k in range(len(newton_iters)):
        # a lane of a 2D march is a strided view of the member stack; the
        # step works on a contiguous copy, so that every member sees the
        # array layout of a march of its own
        x0 = np.ascontiguousarray(frames[k])
        f0 = x0[1]
        x, res, solves, ok, refactor = _newton_step(
            solver, pot, params.proliferation.P(f0), x0, pot.dS(f0), control[:, k],
            params.newton_tol, params.newton_max_iter, clamp_lo, clamp_hi, refactor,
        )
        if not all(ok):
            raise NewtonDivergenceError(k + 1, res[ok.index(False)], params.newton_max_iter)
        if not np.isfinite(x).all():
            raise NanDetectedError(f"state frame {k + 1}")
        dist = pot.distance(x[1])
        if dist <= 2 * margin:
            raise SeparationViolationError(k + 1, dist)

        frames[k + 1] = x
        newton_iters[k] += solves
        delta_sep[k] = min(delta_sep[k], dist)

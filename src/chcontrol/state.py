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
simulate, the optimizer and the oracles. Two marches share it. The
polished march, the default, makes one more Newton iteration after the
residual falls below ``newton_tol``, which takes it to the evaluation
floor that the finite-difference gradient oracle needs; simulate, verify's
base march and the FD gradient oracle march so. The tolerance march
(``polish=False``), the optimizer's and the Lipschitz oracle's, stops at
the tolerance and starts step k+1 for k >= 2 from the quadratic
extrapolation 3 x_k - 3 x_{k-1} + x_{k-2} of its own earlier frames, the
predictor of Hairer and Wanner, "Solving Ordinary Differential
Equations II", sec. IV.8; a step whose start already meets the tolerance
makes no solve. The optimizer's Armijo tests and stationarity measures,
like the Lipschitz oracle's spreads, sit far above a residual of
``newton_tol``, and the march makes about a third of the solves. The
Lipschitz figures therefore rest on ``solver.newton_tol``.

A march may resume an earlier one of the same params, init and kind,
``prior=(state, ctrl)``: frame k+1 reads only control nodes 0..k and
frames k-2..k, so the frames up to the first node where the two controls
differ are copied, and the march starts after them, bitwise as if fresh.
Its diagnostics cover only the steps it marched, which is what a count of
forward work reads; the optimizer's trials resume from the iterate.

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
couple, and each keeps its own start, damping, line search, polish, clip
and convergence test, so that each member's frames and iteration counts
are bitwise those of its march alone; a march of one control is the
ensemble of one member. The iteration's arrays hold only the members
still iterating: a member that leaves (after its polish, at the tolerance
in a tolerance march, or unconverged at the iteration budget) is written
to its place in the trajectory's next frame, and the others go on in
compacted arrays. Members leave unconverged only when the budget ends,
all at once, and the step then raises :class:`NewtonDivergenceError` for
the first of them in stack order. Each stacked iteration checks their
residuals for non-finite values once, naming the step, and makes
one ``StepSolver.solve`` call for them, in either dimension: in 1D it
factors their block-diagonal band with one ``dgbsv``, in 2D it solves
the members at their grid means together in the DCT basis and the
others by GMRES. The per-iteration Python and numpy overhead, larger
than the LAPACK time of one member at 128 cells, is paid once per
ensemble instead of once per member, the pattern of batched small
solves (Dongarra et al., Procedia CS 108, 2017).

In 2D the iteration is a mean-coefficient Newton iteration: it solves
with the step matrix at the grid means of P and B''(phi), which the DCT
diagonalises (see :mod:`chcontrol.system`), so nothing is factored. A
member's iteration after a full step of its own that left at least
``CHORD_CONTRACTION`` of its residual without reaching the tolerance
solves with the exact matrix at its per-cell values instead, by
preconditioned GMRES, each member choosing on its own: exact Newton
where the means stop being a good enough model, as where B'' varies by
orders of magnitude near the logarithmic potential's walls. Convergence
is tested on the stencil residual, so the approximate matrix changes the
iteration count (``newton_iters``), not the answer; this is the chord and
inexact Newton argument of Kelley, "Iterative Methods for Linear and
Nonlinear Equations" (SIAM, 1995), ch. 5. In 1D a step solve factors and
solves in one LAPACK call, so the 1D iteration stays exact Newton. The
linearized and adjoint sweeps solve each step exactly (see
:mod:`chcontrol.system`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    NanDetectedError,
    NewtonDivergenceError,
    SeparationViolationError,
    ShapeMismatchError,
    TimeDomainError,
    check_node,
    check_number,
    check_shape,
)
from .fields import Grid, TimeGrid, Trajectory, laplacian_neumann
from .potentials import Potential, Proliferation
from .system import StepSolver

STATE_NAMES = ("mu", "phi", "sigma")
# defaults of ModelParams.newton_tol and ModelParams.newton_max_iter
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50
# a 2D Newton iteration whose full step leaves at least this share of the
# residual (and no less than the tolerance) is followed by one that solves
# with the exact step matrix instead of the mean-coefficient one
CHORD_CONTRACTION = 0.3


@dataclass(frozen=True)
class ModelParams:
    """The model constants and the Newton settings of every forward solve.
    It stores each number as :func:`~chcontrol.errors.check_number` returns
    it: ``alpha``, ``beta`` and ``newton_tol`` finite positive numbers,
    ``newton_max_iter`` an integer >= 0 (a whole float counts), else a
    :class:`ConfigError` headed by the field (``model.alpha``,
    ``model.beta``, ``solver.newton_tol``, ``solver.newton_max_iter``)."""

    alpha: float
    beta: float
    potential: Potential
    proliferation: Proliferation
    grid: Grid
    time_grid: TimeGrid
    # the inner Newton iteration of every forward solve, polished or
    # tolerance march: max|R| bound and iteration budget (the polish
    # excluded)
    newton_tol: float = NEWTON_TOL
    newton_max_iter: int = NEWTON_MAX_ITER

    def __post_init__(self):
        for name, field in (("alpha", "model.alpha"), ("beta", "model.beta"),
                            ("newton_tol", "solver.newton_tol")):
            object.__setattr__(self, name, check_number(field, getattr(self, name), 0,
                                                        above=True))
        object.__setattr__(self, "newton_max_iter", check_number(
            "solver.newton_max_iter", self.newton_max_iter, 0, whole=True))


@dataclass
class InitialData:
    mu0: np.ndarray
    phi0: np.ndarray
    sigma0: np.ndarray

    def validate(self, grid: Grid, potential: Potential) -> None:
        for name, arr in (("mu0", self.mu0), ("phi0", self.phi0), ("sigma0", self.sigma0)):
            check_shape(f"initial.{name}", arr.shape, grid.shape)
            if not np.all(np.isfinite(arr)):
                raise NanDetectedError(f"initial data {name}")
        potential.check_start(self.phi0, "initial.phi0: the start")


@dataclass
class StepDiagnostics:
    """Per-step solver diagnostics of the steps a forward run marched:
    entry i belongs to step ``first`` + i + 1, where ``first`` is the last
    frame copied from a prior march (0 for a fresh one, whose entry k - 1
    is step k). ``newton_iters`` counts the
    ``StepSolver.solve`` calls of the step, one per Newton iteration,
    polish included; a tolerance march's step whose start already met the
    tolerance reads 0. In a march of several members that is one call per
    stacked iteration, as many as the member that iterated longest made.
    ``delta_sep`` holds the ``Potential.distance`` of the frame the step
    keeps, the least over the members."""

    newton_iters: np.ndarray
    delta_sep: np.ndarray
    first: int = 0


def _step_residual(solver, pot):
    """The residual of a step of ``solver``'s equations under the potential
    ``pot``, built once per march: ``residual(x, old, p, pi, u)`` is the
    stencil form of the step equations at the iterate x of the members
    with old frame old, P(phi_old) p, S'(phi_old) pi and control u, each
    row summing its terms left to right as in the module docstring; the
    step matrix is only ever solved with, never multiplied. It returns R
    and its max|R| per member, as a list of floats. The Laplacian is
    :func:`~chcontrol.fields.laplacian_neumann`, read from this module at
    every call."""
    a, b, c = solver.a, solver.b, solver.c
    grid = solver.grid
    coef = np.array((a, b, c)).reshape((3, 1) + (1,) * grid.dim)
    # the component axis and the grid axes: max|R| is taken per member
    axes = (0,) + tuple(range(2, 2 + grid.dim))

    def residual(x, old, p, pi, u):
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
        return r, np.abs(r).max(axis=axes).tolist()

    return residual


def _newton_step(solver, params, residual, old, start, u, out, step, polish):
    """Damped Newton solve of implicit step ``step`` for K members at once.

    ``old`` is the old frame of each member, stacked as (mu, phi, sigma)
    along the first axis and the members along the second, (3, K,
    *grid.shape), and ``out``, shaped alike, receives the new frames;
    ``u`` (the control) is (K, *grid.shape). The iteration starts from
    ``start``, shaped like ``old``, and evaluates the march's
    ``residual`` (:func:`_step_residual`). P(phi_old) and S'(phi_old), the
    tolerance ``params.newton_tol`` and the budget
    ``params.newton_max_iter`` come from ``params``, and every trial phi is
    clipped into the window of ``params.potential``. The members do
    not couple: each runs its own iteration, with its own damping, line
    search, polish and convergence test, as if it were marched alone. The
    arrays of the iteration hold only the members still iterating. A
    member leaves after its polish (with ``polish`` False, as soon as its
    residual is below the tolerance, after no solve if its start is), or
    unconverged after ``max_iter`` iterations; its iterate is then written
    to its place in ``out``, and the arrays of the others are compacted.
    Each stacked iteration solves for the members still in it with one
    ``solver.solve`` call, after one check that their residuals are finite
    (:class:`NanDetectedError` naming ``step`` if not).
    In 2D a member's iteration solves with the step matrix at the grid
    means of its P and B''(phi), except after an iteration whose full step
    did not contract its residual by ``CHORD_CONTRACTION``: that one solves
    with their per-cell values. The call passes the choice per member. In
    1D every iteration solves with the per-cell values.
    Returns the stacked iterations (any polish included), each one
    ``solver.solve`` call. Unconverged members leave only when the budget
    ends, all at once; then :class:`NewtonDivergenceError` names the
    residual of the first of them in stack order.
    """
    pot = params.potential
    tol, max_iter = params.newton_tol, params.newton_max_iter
    x = start
    p, pi = params.proliferation.P(old[1]), pot.dS(old[1])
    r, res = residual(x, old, p, pi, u)
    # the stack position of each member still iterating, whether it had
    # converged at the start of the last iteration, which was then its
    # polish, and whether it solves at the grid means of P and B''(phi):
    # in 2D unless its last full step missed CHORD_CONTRACTION, in 1D never.
    # The per-member flags and residuals are Python lists: with few
    # members, list work costs less than numpy calls on arrays of a few
    # entries
    chord = solver.grid.dim == 2
    pos = list(range(len(res)))
    conv = [False] * len(res)
    means = [chord] * len(res)
    solves = 0
    while True:
        # with ``polish``, a member that converged makes one more
        # (polishing) iteration, which pushes its residual to the evaluation
        # floor that the finite-difference gradient oracles rely on; without
        # it, the member leaves at once. Either way every member still in
        # has made as many iterations as there were solves
        if not polish:
            conv = [v < tol for v in res]
        stay = [not was and (v < tol or solves < max_iter)
                for was, v in zip(conv, res)]
        conv = [v < tol for v in res]
        if not all(stay):
            # the members that stay are written again when they leave
            out[:, pos] = x
            for v, ok, on in zip(res, conv, stay):
                if not (ok or on):
                    raise NewtonDivergenceError(step, v, max_iter)
            if not any(stay):
                return solves
            keep = [j for j, on in enumerate(stay) if on]
            x, r, old = x[:, keep], r[:, keep], old[:, keep]
            p, pi, u = p[keep], pi[keep], u[keep]
            pos, res, conv, means = ([seq[j] for j in keep]
                                     for seq in (pos, res, conv, means))
        if not all(map(math.isfinite, res)):
            raise NanDetectedError(f"Newton residual at step {step}")
        # A y = r, so the Newton update is -y; the solve is sign-symmetric
        y = solver.solve(p, pot.d2B(x[1]), r, means=means)
        solves += 1
        # the full step for every member; a polishing member keeps it only
        # if it lowers its residual
        xt = x - y
        pot.clip(xt[1])
        rt, rest = residual(xt, old, p, pi, u)
        if chord:
            means = [not (v >= CHORD_CONTRACTION * v0 and v >= tol)
                     for v, v0 in zip(rest, res)]
        back = [j for j, ok in enumerate(conv) if ok and not rest[j] < res[j]]
        if back:
            xt[:, back], rt[:, back] = x[:, back], r[:, back]
            for j in back:
                rest[j] = res[j]
        # a member whose full step did not lower its residual (nor reach the
        # tolerance) halves lam for at most 9 more trials and keeps its best
        going = [j for j, v in enumerate(rest)
                 if not (v < res[j] or v < tol or conv[j])]
        lam = 1.0
        while going and lam > 2.0 ** -9:
            lam *= 0.5
            xs = x[:, going] - lam * y[:, going]
            pot.clip(xs[1])
            rs, ress = residual(xs, old[:, going], p[going], pi[going], u[going])
            for i, (j, v) in enumerate(zip(going, ress)):
                if v < rest[j]:
                    xt[:, j], rt[:, j], rest[j] = xs[:, i], rs[:, i], v
            going = [j for j, v in zip(going, ress) if not (v < res[j] or v < tol)]
        x, r, res = xt, rt, rest


def check_control_shape(grid: Grid, time_grid: TimeGrid, control: np.ndarray,
                        members: bool = False) -> None:
    """Raise :class:`GridMismatchError` (a ShapeMismatchError, through
    :func:`~chcontrol.errors.check_shape`, headed ``control``) unless
    ``control`` holds one grid field per time node, of shape (nt+1,
    *grid.shape), or with ``members`` a stack of such controls, (K, nt+1,
    *grid.shape); an empty stack is a ShapeMismatchError."""
    expected = (time_grid.steps + 1,) + grid.shape
    if members and not control.shape[0]:
        raise ShapeMismatchError("control: an empty member stack")
    check_shape("control", control.shape, control.shape[:1] + expected if members
                else expected)


def check_state(params: ModelParams, state: Trajectory, reader: str, last: int) -> int:
    """The one check of a solved ``state`` whose frames 0..``last``
    ``reader`` reads with the h and dt of ``params``; returns ``last`` as
    an int. Raises :class:`GridMismatchError` unless ``state`` lies on the
    grid and the time grid of ``params`` and holds one field per component
    and frame, not a member-stacked state of :func:`solve_state` (through
    :func:`~chcontrol.errors.check_shape`, headed "<reader> state"), and
    :class:`TimeDomainError` unless ``last`` passes
    :func:`~chcontrol.errors.check_node` for 0..nt (a whole number, not a
    bool) and ``state`` holds frames 0..last; each message is headed by
    ``reader``."""
    if state.grid != params.grid or state.time_grid != params.time_grid:
        raise GridMismatchError(f"{reader}: state on {state.grid}, {state.time_grid}; "
                                f"model on {params.grid}, {params.time_grid}")
    check_shape(f"{reader} state", state.data.shape[2:], params.grid.shape)
    last = check_node(reader, last, params.time_grid.steps)
    if state.nframes <= last:
        raise TimeDomainError(f"{reader}: node {last} needs forward frames 0..{last}, "
                              f"got {state.nframes}")
    return last


def solve_state(params: ModelParams, init: InitialData,
                control: np.ndarray, steps: int | None = None, *,
                polish: bool = True, prior: tuple | None = None) -> Trajectory:
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
    bitwise the trajectory of ``control[i]`` marched alone. The members
    march together, one stacked Newton iteration and one step solve per
    step and iteration for all of them. A failing member fails the whole
    march at the earliest failing step.

    With ``polish`` False the march is a tolerance march, the optimizer's:
    each Newton iteration ends as soon as max|R| < ``params.newton_tol``,
    without the polishing iteration, and step k+1 for k >= 2 starts from
    the extrapolated frame 3 x_k - 3 x_{k-1} + x_{k-2}, its phi clipped
    into the window, instead of from x_k. A member whose start meets the
    tolerance makes no solve at that step. The start reads only earlier
    frames of the same member, so members and prefixes keep their bits as
    above.

    ``prior`` = (state, ctrl) resumes an earlier march: ``state``, frames
    0..m of the unstacked march of ``ctrl`` under the same params, init
    and ``polish``. Frame k+1 reads only control nodes 0..k and frames
    k-2..k, so frames 0..j, j the first node where the bits of ``control``
    and ``ctrl`` differ, capped at m and at ``steps``, are copied from
    ``state``, and only steps j+1..steps are marched: the trajectory is
    bitwise the fresh march's, and its diagnostics cover the marched steps
    alone, with ``first`` = j.

    Raises :class:`GridMismatchError` (a ShapeMismatchError, from
    :func:`~chcontrol.errors.check_shape`) for initial data or a control of
    another shape, a stacked ``control`` with a ``prior``, or a ``prior``
    that :func:`check_state` or :func:`check_control_shape` refuses,
    :class:`ConfigError` for an initial phi outside the
    window of ``params.potential``, :class:`TimeDomainError` headed ``state
    steps`` unless ``steps`` passes :func:`~chcontrol.errors.check_node`
    for 1..nt (a whole number, not a bool), and
    :class:`NewtonDivergenceError`, :class:`SeparationViolationError`,
    :class:`NanDetectedError` or, from a 2D exact step,
    :class:`StepSolveError` on failure.
    """
    grid, tg, pot = params.grid, params.time_grid, params.potential
    init.validate(grid, pot)
    nt = tg.steps
    stacked = np.ndim(control) == grid.dim + 2
    check_control_shape(grid, tg, control, stacked and prior is None)
    steps = nt if steps is None else check_node("state steps", steps, nt, first=1)

    members = control if stacked else control[None]
    data = np.empty((steps + 1, 3, len(members)) + grid.shape)
    data[0, 0] = init.mu0
    data[0, 1] = init.phi0
    data[0, 2] = init.sigma0
    first = 0
    if prior is not None:
        state, ctrl = prior
        check_control_shape(grid, tg, ctrl)
        last = check_state(params, state, "prior", min(state.nframes - 1, steps))
        # frame k+1 reads control nodes 0..k, so the first node whose bits
        # differ (-0.0 from 0.0 too) is the last frame the marches share
        differ = (control != ctrl) | (np.signbit(control) != np.signbit(ctrl))
        differ = differ.reshape(nt + 1, -1).any(axis=1)
        first = min(int(differ.argmax()) if differ.any() else nt, last)
        data[1:first + 1, :, 0] = state.data[1:first + 1]
    newton_iters = np.zeros(steps - first, dtype=int)
    delta_sep = np.empty(steps - first)
    solver = StepSolver(grid, tg.dt, params.alpha, params.beta)
    residual = _step_residual(solver, pot)
    for k in range(first, steps):
        start = data[k]
        if not polish and k >= 2:
            start = 3.0 * (data[k] - data[k - 1]) + data[k - 2]
            pot.clip(start[1])
        newton_iters[k - first] = _newton_step(solver, params, residual, data[k], start,
                                               members[:, k], data[k + 1], k + 1, polish)
        delta_sep[k - first] = dist = pot.distance(data[k + 1, 1])
        if dist <= 2 * pot.margin:
            raise SeparationViolationError(k + 1, dist)

    diag = StepDiagnostics(newton_iters, delta_sep, first)
    return Trajectory(grid, tg, data if stacked else data[:, :, 0], STATE_NAMES,
                      diagnostics=diag)

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
zero), which every accepted run is required to satisfy to 1e-10.
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
from .fields import Grid, TimeGrid, Trajectory, integrate, laplacian_neumann
from .potentials import Potential, Proliferation, potential_split_eval, proliferation_eval
from .system import StepSolver

STATE_NAMES = ("mu", "phi", "sigma")
# defaults of the config's solver.newton_tol and solver.newton_max_iter
NEWTON_TOL = 1e-11
NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class ModelParams:
    alpha: float
    beta: float
    potential: Potential
    proliferation: Proliferation
    grid: Grid
    time_grid: TimeGrid

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
        if potential.singular:
            lo, hi = potential.domain
            pmin, pmax = float(self.phi0.min()), float(self.phi0.max())
            if not (lo < pmin and pmax < hi):
                raise ConfigError(
                    f"initial.phi0: range [{pmin:.4g}, {pmax:.4g}] must lie strictly "
                    f"inside the potential domain ({lo}, {hi})"
                )


@dataclass
class ControlField:
    """Control values, one field per time node, with box bounds.

    The dynamics read the control as piecewise constant in time: interval
    [t_k, t_{k+1}) uses node k. The final node does not enter the dynamics
    but still carries its trapezoid weight in the control-energy term.
    """

    values: np.ndarray
    lower: float | np.ndarray = -np.inf
    upper: float | np.ndarray = np.inf

    def validate(self, grid: Grid, time_grid: TimeGrid) -> None:
        expected = (time_grid.steps + 1,) + grid.shape
        if self.values.shape != expected:
            raise ShapeMismatchError(
                f"control values shape {self.values.shape}, expected {expected}"
            )
        if np.any(np.asarray(self.lower) > np.asarray(self.upper)):
            raise ConfigError("bounds: lower bound exceeds upper bound somewhere")

    def clipped(self) -> "ControlField":
        return ControlField(np.clip(self.values, self.lower, self.upper),
                            self.lower, self.upper)

    @classmethod
    def constant(cls, grid: Grid, time_grid: TimeGrid, value: float,
                 lower=-np.inf, upper=np.inf) -> "ControlField":
        vals = np.full((time_grid.steps + 1,) + grid.shape, float(value))
        return cls(vals, lower, upper)


@dataclass
class StepDiagnostics:
    """Per-step solver diagnostics collected during a forward run."""

    newton_iters: np.ndarray
    mass_residual: np.ndarray
    delta_sep: np.ndarray

    def rows(self):
        for k in range(len(self.newton_iters)):
            yield k + 1, int(self.newton_iters[k]), float(self.mass_residual[k]), \
                float(self.delta_sep[k])


@dataclass
class SeparationReport:
    delta_sep: float
    argmin_frame: int


def _newton_step(solver, pot, p_frozen, m0, f0, s0, pi_old, u_k, grid,
                 tol, max_iter, clamp_lo, clamp_hi):
    """Damped Newton solve of one implicit step; returns the new frame."""
    a, b, c = solver.a, solver.b, solver.c
    m, f, s = m0.copy(), f0.copy(), s0.copy()

    def residual(m, f, s):
        r1 = a * (m - m0) + c * (f - f0) - laplacian_neumann(grid, m) - p_frozen * (s - m)
        r2 = (b * (f - f0) - laplacian_neumann(grid, f)
              + potential_split_eval(pot, f, "convex", 1) + pi_old - m)
        r3 = c * (s - s0) - laplacian_neumann(grid, s) + p_frozen * (s - m) - u_k
        return r1, r2, r3

    r1, r2, r3 = residual(m, f, s)
    res = max(np.abs(r1).max(), np.abs(r2).max(), np.abs(r3).max())
    iters = 0
    converged = res < tol
    while iters < max_iter and not converged:
        if not (np.isfinite(res)):
            raise NanDetectedError("Newton residual")
        bpp = potential_split_eval(pot, f, "convex", 2)
        dm, df, ds = solver.solve(p_frozen, bpp, (-r1, -r2, -r3))
        lam = 1.0
        best = None
        for _ in range(10):
            mt, ft, st = m + lam * dm, f + lam * df, s + lam * ds
            if clamp_lo is not None:
                ft = np.clip(ft, clamp_lo, clamp_hi)
            r1t, r2t, r3t = residual(mt, ft, st)
            rest = max(np.abs(r1t).max(), np.abs(r2t).max(), np.abs(r3t).max())
            if best is None or rest < best[0]:
                best = (rest, mt, ft, st, r1t, r2t, r3t)
            if rest < res or rest < tol:
                break
            lam *= 0.5
        res, m, f, s, r1, r2, r3 = best
        iters += 1
        converged = res < tol
    if not converged:
        return m, f, s, res, iters, False
    # one polishing iteration pushes the residual to the evaluation floor,
    # which the finite-difference gradient oracles rely on
    bpp = potential_split_eval(pot, f, "convex", 2)
    dm, df, ds = solver.solve(p_frozen, bpp, (-r1, -r2, -r3))
    mt, ft, st = m + dm, f + df, s + ds
    if clamp_lo is not None:
        ft = np.clip(ft, clamp_lo, clamp_hi)
    r1t, r2t, r3t = residual(mt, ft, st)
    rest = max(np.abs(r1t).max(), np.abs(r2t).max(), np.abs(r3t).max())
    if rest < res:
        m, f, s, res = mt, ft, st, rest
    return m, f, s, res, iters + 1, True


def solve_state(params: ModelParams, init: InitialData, control: ControlField,
                newton_tol: float = NEWTON_TOL,
                newton_max_iter: int = NEWTON_MAX_ITER) -> Trajectory:
    """March the state system over the full time grid.

    Returns a trajectory whose frame 0 is a bitwise copy of the initial
    data, with per-step diagnostics attached. Raises
    :class:`NewtonDivergenceError`, :class:`SeparationViolationError` or
    :class:`NanDetectedError` on failure.
    """
    grid, tg, pot = params.grid, params.time_grid, params.potential
    init.validate(grid, pot)
    control.validate(grid, tg)
    nt, dt = tg.steps, tg.dt

    solver = StepSolver(grid, dt, params.alpha, params.beta)
    clamp_lo = clamp_hi = None
    if pot.singular:
        lo, hi = pot.domain
        margin = 1e-6 * (hi - lo)
        clamp_lo, clamp_hi = lo + margin, hi - margin

    data = np.empty((nt + 1, 3) + grid.shape)
    data[0, 0] = init.mu0
    data[0, 1] = init.phi0
    data[0, 2] = init.sigma0

    newton_iters = np.zeros(nt, dtype=int)
    mass_residual = np.zeros(nt)
    delta_sep = np.full(nt, np.inf)

    mass0 = integrate(grid, params.alpha * init.mu0 + init.phi0 + init.sigma0)
    mass_scale = 1.0 + abs(mass0)
    injected = 0.0

    for k in range(nt):
        m0, f0, s0 = data[k]
        p_frozen = proliferation_eval(params.proliferation, f0, 0)
        pi_old = potential_split_eval(pot, f0, "smooth", 1)
        u_k = control.values[k]

        m, f, s, res, iters, ok = _newton_step(
            solver, pot, p_frozen, m0, f0, s0, pi_old, u_k, grid,
            newton_tol, newton_max_iter, clamp_lo, clamp_hi,
        )
        if not ok:
            raise NewtonDivergenceError(k + 1, res, iters)
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(f)) and np.all(np.isfinite(s))):
            raise NanDetectedError(f"state frame {k + 1}")
        if pot.singular:
            lo, hi = pot.domain
            dist = float(min((f - lo).min(), (hi - f).min()))
            delta_sep[k] = dist
            if dist <= 2e-6 * (hi - lo):
                raise SeparationViolationError(k + 1, dist)

        data[k + 1, 0], data[k + 1, 1], data[k + 1, 2] = m, f, s
        injected += dt * integrate(grid, u_k)
        mass_k = integrate(grid, params.alpha * m + f + s)
        mass_residual[k] = abs(mass_k - mass0 - injected) / mass_scale
        newton_iters[k] = iters

    diag = StepDiagnostics(newton_iters, mass_residual, delta_sep)
    return Trajectory(grid, tg, data, STATE_NAMES, diagnostics=diag)


def separation_report(traj: Trajectory, potential: Potential) -> SeparationReport:
    """Minimum distance of the phase variable to the potential domain
    boundary over the whole trajectory (inf for an unbounded domain)."""
    lo, hi = potential.domain
    phi = traj.component("phi")
    if not np.isfinite(lo):
        return SeparationReport(np.inf, 0)
    per_frame = np.minimum((phi - lo).min(axis=tuple(range(1, phi.ndim))),
                           (hi - phi).min(axis=tuple(range(1, phi.ndim))))
    k = int(np.argmin(per_frame))
    return SeparationReport(float(per_frame[k]), k)

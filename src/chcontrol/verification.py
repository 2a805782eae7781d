"""Independent oracles for the optimality formulas.

Each check re-derives a quantity along a route independent of the one it
validates and reports the observed mismatch:

* gradient check: adjoint-based reduced gradient against central finite
  differences of the reduced cost through fresh forward solves;
* duality check: the weighted pairing of the nutrient adjoint with a
  perturbation against the tracking terms evaluated on the linearized
  solution for the same perturbation;
* Lipschitz check: stability of the control-to-state map under random
  control pair perturbations across magnitudes;
* mass balance: the exactly conserved combination
  integral(alpha mu + phi + sigma) minus the injected control mass, per
  step (the series ``diagnostics.csv`` reports) and at its worst.

Every forward solve a check makes runs under the Newton settings of its
``params``. Errors, mismatches and drifts are reduced with ``np.max``, so
a NaN among them fails the check.

``CHECKS``, the verify pipeline's table, gives each check's report file
and runner in run order; adding a check is one row there plus its option
rows in ``cli._FIELDS``.

Directions are drawn from seeded standard normals per cell and node and
normalized in L2(Q), so rerunning a check with the same seed reproduces
its report bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import solve_adjoint
from .fields import Trajectory, integrate
from .linearized import solve_linearized
from .objective import (
    CostSpec,
    control_gradient,
    reduced_cost,
    space_time_inner,
    space_time_norm,
    time_weights,
    window_weights,
)
from .state import InitialData, ModelParams, solve_state

DEFAULT_SEED = 20240808
# admissible log-log convergence slopes of the central differences
SLOPE_RANGE = (1.7, 2.3)


def _random_direction(rng, shape, grid, dt):
    h = rng.standard_normal(shape)
    nrm = space_time_norm(grid, dt, h)
    return h / nrm


def _fit_slope(xs, ys):
    if len(xs) < 2:
        return float("nan")
    xs = np.log(np.asarray(xs))
    ys = np.log(np.maximum(np.asarray(ys), 1e-18))
    return float(np.polyfit(xs, ys, 1)[0])


@dataclass
class GradientCheckReport:
    tau: float
    tau_index: int
    deltas: list
    analytic: list                 # per direction
    rel_errors: list               # per direction, per delta
    slopes: list                   # per direction
    slope_deltas: list
    seed: int

    def max_rel_error(self, delta: float) -> float:
        j = self.deltas.index(delta)
        return float(np.max([errs[j] for errs in self.rel_errors]))

    def passed(self, delta: float, tol: float) -> bool:
        if not self.max_rel_error(delta) <= tol:
            return False
        return all(SLOPE_RANGE[0] <= s <= SLOPE_RANGE[1]
                   for s in self.slopes if not np.isnan(s))

    def to_text(self) -> str:
        lines = [
            "gradient check: adjoint gradient vs central finite differences",
            f"tau = {self.tau:.6g} (node {self.tau_index}), seed = {self.seed}",
            "direction  analytic        " + "  ".join(f"err@{d:g}" for d in self.deltas)
            + "  slope",
        ]
        for i, errs in enumerate(self.rel_errors):
            lines.append(
                f"{i:9d}  {self.analytic[i]: .8e}  "
                + "  ".join(f"{e:.3e}" for e in errs)
                + f"  {self.slopes[i]:.3f}"
            )
        return "\n".join(lines) + "\n"


def fd_gradient_check(params: ModelParams, init: InitialData, cost: CostSpec,
                      u: np.ndarray, tau: float, *, directions: int, deltas,
                      slope_deltas=None, seed: int = DEFAULT_SEED,
                      state: Trajectory | None = None) -> GradientCheckReport:
    """Compare <grad J, h> with central differences of the reduced cost.

    The treatment time is snapped to its node first so both routes
    differentiate exactly the same function of the control. The log-log
    slope is fit over ``slope_deltas`` (default: all), which should stay
    above the solver floor; the small deltas serve the error tolerance.
    ``state``, if given, is the forward solution for ``u`` under
    ``params``, and the base solve is skipped.
    """
    grid, tg = params.grid, params.time_grid
    k_tau, _ = tg.nearest_node(tau)
    tau_hat = tg.times[k_tau]
    deltas = list(deltas)
    slope_deltas = deltas if slope_deltas is None else list(slope_deltas)
    slope_idx = [deltas.index(d) for d in slope_deltas]

    if state is None:
        state = solve_state(params, init, u)
    adjoint = solve_adjoint(params, state, k_tau, cost)
    grad = control_gradient(adjoint, u, cost.b0)

    rng = np.random.default_rng(seed)
    analytic, rel_errors, slopes = [], [], []
    for _ in range(directions):
        h = _random_direction(rng, u.shape, grid, tg.dt)
        pairing = space_time_inner(grid, tg.dt, grad, h)
        errs = []
        for delta in deltas:
            up = u + delta * h
            dn = u - delta * h
            j_up = reduced_cost(solve_state(params, init, up), up, tau_hat, cost).total
            j_dn = reduced_cost(solve_state(params, init, dn), dn, tau_hat, cost).total
            fd = (j_up - j_dn) / (2.0 * delta)
            errs.append(abs(fd - pairing) / max(abs(pairing), 1e-300))
        analytic.append(pairing)
        rel_errors.append(errs)
        slopes.append(_fit_slope([deltas[i] for i in slope_idx],
                                 [errs[i] for i in slope_idx]))
    return GradientCheckReport(tau_hat, k_tau, deltas, analytic, rel_errors,
                               slopes, slope_deltas, seed)


@dataclass
class DualityCheckReport:
    tau_index: int
    mismatches: list
    lhs: list
    rhs: list
    seed: int

    @property
    def max_mismatch(self) -> float:
        return float(np.max(self.mismatches))

    def passed(self, tol: float) -> bool:
        return self.max_mismatch <= tol

    def to_text(self) -> str:
        lines = [
            "duality check: <adj_sigma, h> vs tracking terms on the linearized solve",
            f"tau node = {self.tau_index}, seed = {self.seed}",
            "direction  lhs             rhs             rel mismatch",
        ]
        for i, (a, b, m) in enumerate(zip(self.lhs, self.rhs, self.mismatches)):
            lines.append(f"{i:9d}  {a: .8e}  {b: .8e}  {m:.3e}")
        return "\n".join(lines) + "\n"


def duality_check(params: ModelParams, state: Trajectory, k_tau: int,
                  cost: CostSpec, *, directions: int,
                  seed: int = DEFAULT_SEED) -> DualityCheckReport:
    """Exactness of the discrete transpose: for random h, the weighted
    pairing of the nutrient adjoint with h equals the tracking terms
    evaluated on the linearized solution."""
    grid, tg = params.grid, params.time_grid
    dt = tg.dt
    adjoint = solve_adjoint(params, state, k_tau, cost)
    r = adjoint.component("adj_sigma")
    wq = time_weights(k_tau + 1, dt)
    relax = cost.relaxation
    win = None
    if relax is not None and relax.gamma > 0:
        win = relax.gamma / relax.eps * window_weights(k_tau, dt, relax.eps)

    rng = np.random.default_rng(seed)
    shape = (tg.steps + 1,) + grid.shape
    hs = np.stack([_random_direction(rng, shape, grid, dt) for _ in range(directions)])
    # one sweep for all directions, up to the last frame the pairing reads
    lin = solve_linearized(params, state, hs, steps=k_tau)
    lhs_list, rhs_list, mism = [], [], []
    for i, h in enumerate(hs):
        theta = lin.component("d_phi")[:, i]
        rho = lin.component("d_sigma")[:, i]

        lhs = space_time_inner(grid, dt, r, h[: k_tau + 1], weights=wq)
        rhs = 0.0
        if cost.b1 > 0:
            dphi = state.phi[: k_tau + 1] - (
                0.0 if cost.phi_q is None else cost.phi_q[: k_tau + 1])
            rhs += cost.b1 * space_time_inner(grid, dt, dphi, theta, weights=wq)
        if cost.b2 > 0:
            dom = state.phi[k_tau] - (0.0 if cost.phi_omega is None else cost.phi_omega)
            rhs += cost.b2 * integrate(grid, dom * theta[k_tau])
        if cost.b3 > 0:
            dsig = state.sigma[: k_tau + 1] - (
                0.0 if cost.sigma_q is None else cost.sigma_q[: k_tau + 1])
            rhs += cost.b3 * space_time_inner(grid, dt, dsig, rho, weights=wq)
        if cost.b4 > 0:
            rhs += 0.5 * cost.b4 * integrate(grid, theta[k_tau])
        if win is not None:
            rhs += space_time_inner(grid, dt, state.sigma[: k_tau + 1]
                                    - relax.sigma_omega, rho, weights=win)
        scale = max(abs(lhs), abs(rhs), 1e-14)
        lhs_list.append(lhs)
        rhs_list.append(rhs)
        mism.append(abs(lhs - rhs) / scale)
    return DualityCheckReport(k_tau, mism, lhs_list, rhs_list, seed)


@dataclass
class LipschitzCheckReport:
    magnitudes: list
    ratios: dict                    # field name -> (pairs, magnitudes) array
    seed: int

    def spread_across_magnitudes(self) -> float:
        table = self.ratios["combined"]
        per_pair = table.max(axis=1) / np.maximum(table.min(axis=1), 1e-300)
        return float(per_pair.max())

    def spread_across_pairs(self) -> float:
        table = self.ratios["combined"]
        return float(table.max() / max(table.min(), 1e-300))

    def passed(self, pair_spread_tol: float, magnitude_spread_tol: float) -> bool:
        """Bounded constant across pairs and no divergence as the
        perturbation magnitude shrinks."""
        return (self.spread_across_pairs() <= pair_spread_tol
                and self.spread_across_magnitudes() <= magnitude_spread_tol)

    def to_text(self) -> str:
        lines = ["lipschitz check: state differences / control difference",
                 f"magnitudes = {self.magnitudes}, seed = {self.seed}"]
        for name, table in self.ratios.items():
            lines.append(f"[{name}]")
            for i, row in enumerate(table):
                lines.append(f"  pair {i}: " + "  ".join(f"{v:.6e}" for v in row))
        lines.append(f"spread across pairs (combined): "
                     f"{self.spread_across_pairs():.3f}")
        lines.append(f"max spread across magnitudes (combined): "
                     f"{self.spread_across_magnitudes():.3f}")
        return "\n".join(lines) + "\n"


def lipschitz_check(params: ModelParams, init: InitialData,
                    base: np.ndarray, *, pairs: int, magnitudes,
                    seed: int = DEFAULT_SEED) -> LipschitzCheckReport:
    """Ratio of state differences to control differences for random
    control pairs at several perturbation magnitudes."""
    grid, tg = params.grid, params.time_grid
    dt = tg.dt
    magnitudes = list(magnitudes)
    rng = np.random.default_rng(seed)
    names = ("mu", "phi", "sigma", "combined")
    space = tuple(range(1, 1 + grid.dim))
    tables = {name: np.zeros((pairs, len(magnitudes))) for name in names}

    for i in range(pairs):
        xi1 = _random_direction(rng, base.shape, grid, dt)
        xi2 = _random_direction(rng, base.shape, grid, dt)
        for j, mag in enumerate(magnitudes):
            u1 = base + mag * xi1
            u2 = base + mag * xi2
            s1 = solve_state(params, init, u1)
            s2 = solve_state(params, init, u2)
            du = space_time_norm(grid, dt, u1 - u2)
            dm, df, ds = s1.mu - s2.mu, s1.phi - s2.phi, s1.sigma - s2.sigma
            for name, d in zip(names, (dm, df, ds, params.alpha * dm + df + ds)):
                # max over frames of the L2 norm in space
                sup = np.sqrt(grid.cell_volume * (d * d).sum(axis=space)).max()
                tables[name][i, j] = sup / du if du > 0 else 0.0
    return LipschitzCheckReport(magnitudes, tables, seed)


@dataclass
class MassBalanceReport:
    residuals: np.ndarray           # per step: frames 1..nt

    @property
    def residual(self) -> float:
        return float(self.residuals.max())

    def passed(self, tol: float) -> bool:
        return self.residual <= tol

    def to_text(self) -> str:
        return (f"mass balance check: max relative drift of "
                f"integral(alpha mu + phi + sigma) = {self.residual:.6e}\n")


def mass_balance_check(traj: Trajectory, u: np.ndarray,
                       params: ModelParams) -> MassBalanceReport:
    """Drift of the conserved combination after each step, relative to
    its initial size."""
    grid, tg = params.grid, params.time_grid
    dt = tg.dt
    mass0 = integrate(grid, params.alpha * traj.mu[0] + traj.phi[0] + traj.sigma[0])
    scale = 1.0 + abs(mass0)
    injected = 0.0
    residuals = np.zeros(tg.steps)
    for k in range(1, tg.steps + 1):
        injected += dt * integrate(grid, u[k - 1])
        mass_k = integrate(grid, params.alpha * traj.mu[k] + traj.phi[k]
                           + traj.sigma[k])
        residuals[k - 1] = abs(mass_k - mass0 - injected) / scale
    return MassBalanceReport(residuals)


# A runner takes (params, init, cost, u, tau, state, seed, opts), ``state``
# being the forward solution for ``u`` and ``opts`` the parsed
# ``verification.<name>`` section, and returns (report, passed, figures for
# summary.json). It calls its oracle by module-global name at call time, never
# through a stored function object, so that whatever rebinds the name (the
# benchmark's span tracer, a test double) sees every call.


def _run_gradient(params, init, cost, u, tau, state, seed, opts):
    rep = fd_gradient_check(params, init, cost, u, tau, directions=opts["directions"],
                            deltas=opts["deltas"], slope_deltas=opts["slope_deltas"],
                            seed=seed, state=state)
    delta = opts["check_delta"]
    return (rep, rep.passed(delta, opts["tol"]),
            {"max_rel_error": rep.max_rel_error(delta)})


def _run_duality(params, init, cost, u, tau, state, seed, opts):
    k_tau, _ = params.time_grid.nearest_node(tau)
    rep = duality_check(params, state, k_tau, cost, directions=opts["directions"],
                        seed=seed)
    return rep, rep.passed(opts["tol"]), {"max_mismatch": rep.max_mismatch}


def _run_lipschitz(params, init, cost, u, tau, state, seed, opts):
    rep = lipschitz_check(params, init, u, pairs=opts["pairs"],
                          magnitudes=opts["magnitudes"], seed=seed)
    ok = rep.passed(opts["pair_spread_tol"], opts["magnitude_spread_tol"])
    return rep, ok, {"pair_spread": rep.spread_across_pairs(),
                     "magnitude_spread": rep.spread_across_magnitudes()}


def _run_mass(params, init, cost, u, tau, state, seed, opts):
    rep = mass_balance_check(state, u, params)
    return rep, rep.passed(opts["tol"]), {"residual": rep.residual}


# check name -> (report file, runner), in run order
CHECKS = {
    "gradient": ("gradient_check.txt", _run_gradient),
    "duality": ("duality_check.txt", _run_duality),
    "lipschitz": ("lipschitz_check.txt", _run_lipschitz),
    "mass": ("mass_balance.txt", _run_mass),
}

"""Independent oracles for the optimality formulas.

Each check re-derives a quantity along a route independent of the one it
validates and reports the observed mismatch:

* gradient check: adjoint-based reduced gradient against central finite
  differences of the cost through fresh forward solves;
* duality check: the weighted pairing of the nutrient adjoint with a
  perturbation against the tracking terms evaluated on the linearized
  solution for the same perturbation;
* Lipschitz check: stability of the control-to-state map under random
  control pair perturbations across magnitudes, gated by the spreads
  ``PAIR_SPREAD_TOL`` and ``MAGNITUDE_SPREAD_TOL``;
* mass balance: the exactly conserved combination
  integral(alpha mu + phi + sigma) minus the injected control mass, per
  step (the series ``diagnostics.csv`` reports) and at its worst.

Every forward solve a check makes runs under the Newton settings of its
``params``. Errors, mismatches and drifts are reduced with ``np.max``, so
a NaN among them fails the check.

The gradient check forms J(u + delta h) - J(u - delta h) at the snapped
node t_{k_tau} in polarized form, never as a difference of two totals,
whose rounding sets a floor under the error of a direction nearly
orthogonal to the gradient. A tracking term b/2 |a - q|^2 contributes
b <(a+ + a-)/2 - q, a+ - a->, the pairing that ``_tracking_pairing`` also
evaluates for the duality check, with the state and the linearized
solution; the control energy contributes b0/2 <u+ - u-, u+ + u->, and
the b5 and b6 terms cancel. As the pairing reads frames 0..k_tau, the
perturbed solves march to frame max(k_tau, 1). The slope is fit on the
deltas >= ``SLOPE_MIN_DELTA``, and the verify pipeline gates the error at
the smallest delta.

The gradient and Lipschitz checks march their perturbed controls as
member-stacked ensembles (see :mod:`chcontrol.state`), which keep each
solve's bits. Their controls come in pairs, which a generator yields in
order: u + delta h and u - delta h for each direction h and delta, and
base + m xi1 and base + m xi2 for each random pair and magnitude m, the
directions drawn as the pairs first need them. An ensemble holds at most
as many whole pairs as fit ``ENSEMBLE_BYTES`` of trajectories and
controls, and may take the pairs of more than one direction or random
pair. Each pair is reduced to its figures, the polarized cost difference
or the four sup-norm ratios, and only those outlive the ensemble, which
is dropped before the next one is marched. At the shipped 128 cells and
256 steps the gradient check marches 3 ensembles of 8 controls to node
128, and the Lipschitz check 5 ensembles of at most 4 controls to the
end; at 32^2 cells and 32 steps they march 3 ensembles of 8 controls to
node 16 and 5 of at most 4 controls.

``CHECKS``, the verify pipeline's table, gives each check's report file
and runner in run order; adding a check is one row there plus its option
rows in ``cli._FIELDS``.

Directions are drawn from seeded standard normals per cell and node and
normalized in L2(Q), so rerunning a check with the same seed reproduces
its report bit for bit; the verify pipeline passes the config's ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .adjoint import solve_adjoint
from .errors import check_number
from .fields import Trajectory, integrate
from .linearized import solve_linearized
from .objective import (
    CostSpec,
    control_gradient,
    space_time_inner,
    space_time_norm,
    time_weights,
    window_weights,
)
from .state import (InitialData, ModelParams, check_control_shape, check_state,
                    solve_state)

DEFAULT_SEED = 20240808
# admissible log-log convergence slopes of the central differences
SLOPE_RANGE = (1.7, 2.3)
# the slope is fit on the deltas >= this, which stay above the solver floor
SLOPE_MIN_DELTA = 0.1
# a direction whose errors at those deltas are all <= this has exact central
# differences there (a cost quadratic along it), and its slope is not gated
SLOPE_FLOOR = 1e-10
# the Lipschitz gate: the largest admissible spread of the combined ratio
# across control pairs, and across magnitudes for any one pair
PAIR_SPREAD_TOL = 10.0
MAGNITUDE_SPREAD_TOL = 3.0
# the bytes of perturbed trajectories and controls that the FD gradient and
# Lipschitz oracles hold at once: they march their controls in ensembles of
# as many control pairs as fit, one member-stacked solve_state call each
ENSEMBLE_BYTES = 6 << 20


def _random_direction(rng, shape, grid, dt):
    h = rng.standard_normal(shape)
    nrm = space_time_norm(grid, dt, h)
    return h / nrm


def _sup_l2(grid, d):
    """The largest L2 norm in space of the frames of ``d``."""
    return np.sqrt(grid.cell_volume * (d * d).sum(axis=tuple(range(1, d.ndim)))).max()


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
        idx = [self.deltas.index(d) for d in self.slope_deltas]
        return all(SLOPE_RANGE[0] <= s <= SLOPE_RANGE[1]
                   for s, errs in zip(self.slopes, self.rel_errors)
                   if not (np.isnan(s) or all(errs[j] <= SLOPE_FLOOR for j in idx)))

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


def _tracking_pairing(grid, dt, cost: CostSpec, k_tau, phi, sigma, dphi, dsigma):
    """The tracking terms of the cost at tau = t_{k_tau}, varied: the
    residuals of (``phi``, ``sigma``) against the targets paired with
    (``dphi``, ``dsigma``), with the cost's weights. Those are the
    trapezoid weights on nodes 0..k_tau for b1 and b3, the node k_tau for
    b2 and b4, and the relaxed window; frames past k_tau are not read."""
    n = k_tau + 1
    wq = time_weights(n, dt)
    out = 0.0
    if cost.b1 > 0:
        res = phi[:n] - (0.0 if cost.phi_q is None else cost.phi_q[:n])
        out += cost.b1 * space_time_inner(grid, dt, res, dphi[:n], weights=wq)
    if cost.b2 > 0:
        res = phi[k_tau] - (0.0 if cost.phi_omega is None else cost.phi_omega)
        out += cost.b2 * integrate(grid, res * dphi[k_tau])
    if cost.b3 > 0:
        res = sigma[:n] - (0.0 if cost.sigma_q is None else cost.sigma_q[:n])
        out += cost.b3 * space_time_inner(grid, dt, res, dsigma[:n], weights=wq)
    if cost.b4 > 0:
        out += 0.5 * cost.b4 * integrate(grid, dphi[k_tau])
    relax = cost.relaxation
    if relax is not None and relax.gamma > 0:
        win = relax.gamma / relax.eps * window_weights(k_tau, dt, relax.eps)
        out += space_time_inner(grid, dt, sigma[:n] - relax.sigma_omega,
                                dsigma[:n], weights=win)
    return out


def _cost_difference(params: ModelParams, cost: CostSpec, k_tau: int,
                    u_up: np.ndarray, u_dn: np.ndarray,
                    s_up: Trajectory, s_dn: Trajectory) -> float:
    """J(u_up, t_{k_tau}) - J(u_dn, t_{k_tau}) in polarized form (see the
    module docstring), ``s_up`` and ``s_dn`` being the forward solutions
    for the two controls up to frame k_tau at least."""
    grid, dt = params.grid, params.time_grid.dt
    out = _tracking_pairing(grid, dt, cost, k_tau, 0.5 * (s_up.phi + s_dn.phi),
                            0.5 * (s_up.sigma + s_dn.sigma),
                            s_up.phi - s_dn.phi, s_up.sigma - s_dn.sigma)
    if cost.b0 > 0:
        out += 0.5 * cost.b0 * space_time_inner(grid, dt, u_up - u_dn, u_up + u_dn)
    return out


def _march_pairs(params: ModelParams, init: InitialData, steps: int, count: int,
                 pairs, reduce) -> list:
    """March the ``count`` control pairs (a, b) that the iterator ``pairs``
    yields to frame ``steps`` in member-stacked ensembles, and return
    ``reduce(a, b, s_a, s_b)`` for each pair in order, s_a and s_b being
    the trajectories of a and b.

    The pairs go, in order, into the fewest ensembles of near-equal size
    that each hold at most as many pairs as fit :data:`ENSEMBLE_BYTES` of
    trajectories and controls, and at least one, in either dimension. Only
    what ``reduce`` returns outlives an ensemble, which is dropped before
    the next one is marched.
    """
    grid, tg = params.grid, params.time_grid
    member = ((steps + 1) * 3 + tg.steps + 1) * grid.cell_count * 8
    per_group = max(1, ENSEMBLE_BYTES // (2 * member))
    groups = -(-count // per_group)
    out = []
    for g in range(groups):
        size = (g + 1) * count // groups - g * count // groups
        firsts = range(0, 2 * size, 2)  # the first member of each pair
        controls = np.empty((2 * size, tg.steps + 1) + grid.shape)
        for m in firsts:
            controls[m], controls[m + 1] = next(pairs)
        traj = solve_state(params, init, controls, steps=steps)
        out += [reduce(controls[m], controls[m + 1],
                       *(Trajectory(grid, tg, traj.data[:, :, i], traj.names)
                         for i in (m, m + 1)))
                for m in firsts]
        del controls, traj
    return out


def fd_gradient_check(params: ModelParams, init: InitialData, cost: CostSpec,
                      u: np.ndarray, tau: float, *, directions: int, deltas,
                      seed: int = DEFAULT_SEED,
                      state: Trajectory | None = None) -> GradientCheckReport:
    """Compare <grad J, h> with central differences of the cost.

    The treatment time is snapped to its node first so both routes
    differentiate exactly the same function of the control, and the
    difference of the two costs is formed in polarized form from solves
    that march to frame max(k_tau, 1) (see the module docstring). The
    log-log slope is fit on the deltas >= :data:`SLOPE_MIN_DELTA`, or on
    all of them when none is; the small deltas serve the error tolerance.
    ``state``, if given, is the forward solution for ``u`` under
    ``params``, and the base solve is skipped. ``directions`` must be an
    integer >= 1, else a ConfigError headed
    ``verification.gradient.directions``.
    """
    directions = check_number("verification.gradient.directions", directions, 1,
                              whole=True)
    grid, tg = params.grid, params.time_grid
    k_tau, _ = tg.nearest_node(tau)
    deltas = list(deltas)
    slope_deltas = [d for d in deltas if d >= SLOPE_MIN_DELTA] or deltas
    slope_idx = [deltas.index(d) for d in slope_deltas]

    if state is None:
        state = solve_state(params, init, u)
    grad = control_gradient(solve_adjoint(params, state, k_tau, cost), u, cost.b0)
    rng = np.random.default_rng(seed)
    analytic = []

    def pairs():
        for _ in range(directions):
            h = _random_direction(rng, u.shape, grid, tg.dt)
            analytic.append(space_time_inner(grid, tg.dt, grad, h))
            for delta in deltas:
                yield u + h * delta, u - h * delta

    diffs = iter(_march_pairs(params, init, max(k_tau, 1), directions * len(deltas),
                              pairs(), partial(_cost_difference, params, cost, k_tau)))
    rel_errors = [[abs(next(diffs) / (2.0 * delta) - pairing) / max(abs(pairing), 1e-300)
                   for delta in deltas] for pairing in analytic]
    slopes = [_fit_slope([deltas[i] for i in slope_idx], [errs[i] for i in slope_idx])
              for errs in rel_errors]
    return GradientCheckReport(tg.times[k_tau], k_tau, deltas, analytic, rel_errors,
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
    evaluated on the linearized solution. ``directions`` must be an
    integer >= 1, else a ConfigError headed
    ``verification.duality.directions``."""
    directions = check_number("verification.duality.directions", directions, 1,
                              whole=True)
    grid, tg = params.grid, params.time_grid
    dt = tg.dt
    adjoint = solve_adjoint(params, state, k_tau, cost)
    r = adjoint.component("adj_sigma")
    wq = time_weights(k_tau + 1, dt)

    rng = np.random.default_rng(seed)
    shape = (tg.steps + 1,) + grid.shape
    hs = np.stack([_random_direction(rng, shape, grid, dt) for _ in range(directions)])
    # one sweep for all directions, up to the last frame the pairing reads
    lin = solve_linearized(params, state, hs, steps=k_tau)
    theta, rho = lin.component("d_phi"), lin.component("d_sigma")
    lhs = [space_time_inner(grid, dt, r, h[: k_tau + 1], weights=wq) for h in hs]
    rhs = [_tracking_pairing(grid, dt, cost, k_tau, state.phi, state.sigma,
                             theta[:, i], rho[:, i]) for i in range(directions)]
    mismatches = [abs(a - b) / max(abs(a), abs(b), 1e-14) for a, b in zip(lhs, rhs)]
    return DualityCheckReport(k_tau, mismatches, lhs, rhs, seed)


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

    def passed(self) -> bool:
        """Bounded constant across pairs and no divergence as the
        perturbation magnitude shrinks."""
        return (self.spread_across_pairs() <= PAIR_SPREAD_TOL
                and self.spread_across_magnitudes() <= MAGNITUDE_SPREAD_TOL)

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
    control pairs at several perturbation magnitudes. ``pairs`` must be an
    integer >= 1, else a ConfigError headed
    ``verification.lipschitz.pairs``."""
    pairs = check_number("verification.lipschitz.pairs", pairs, 1, whole=True)
    grid, tg = params.grid, params.time_grid
    dt = tg.dt
    magnitudes = list(magnitudes)
    rng = np.random.default_rng(seed)
    xis = ([_random_direction(rng, base.shape, grid, dt) for _ in range(2)]
           for _ in range(pairs))
    controls = ((base + m * xi1, base + m * xi2) for xi1, xi2 in xis for m in magnitudes)

    def reduce(u1, u2, s1, s2):
        du = space_time_norm(grid, dt, u1 - u2)
        # one difference at a time, alpha dm + df + ds summed as it goes
        d = s1.mu - s2.mu
        combined = params.alpha * d
        sups = [_sup_l2(grid, d)]
        for name in ("phi", "sigma"):
            d = getattr(s1, name) - getattr(s2, name)
            sups.append(_sup_l2(grid, d))
            combined += d
        sups.append(_sup_l2(grid, combined))
        return [sup / du if du > 0 else 0.0 for sup in sups]

    ratios = np.array(_march_pairs(params, init, tg.steps, pairs * len(magnitudes),
                                   controls, reduce))
    tables = ratios.T.reshape(4, pairs, len(magnitudes))
    return LipschitzCheckReport(magnitudes, dict(zip(("mu", "phi", "sigma", "combined"),
                                                     tables)), seed)


@dataclass
class MassBalanceReport:
    residuals: np.ndarray           # per step: frames 1..nframes-1

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
    """Drift of the conserved combination after each step of ``traj``,
    relative to its initial size: steps 1..nframes-1, so a march that
    stopped early reports the steps it made. ``check_state`` is its one
    rule for ``traj``, read as frames 0..1 at least: on the grid and the
    time grid of ``params`` (else :class:`GridMismatchError`), with two
    frames or more (else :class:`TimeDomainError`). ``u`` must hold one
    field per time node (else :class:`ShapeMismatchError`)."""
    grid, tg = params.grid, params.time_grid
    check_state(params, traj, "mass balance", 1)
    check_control_shape(grid, tg, u)
    mass0 = integrate(grid, params.alpha * traj.mu[0] + traj.phi[0] + traj.sigma[0])
    scale = 1.0 + abs(mass0)
    injected = 0.0
    residuals = np.zeros(traj.nframes - 1)
    for k in range(1, traj.nframes):
        injected += tg.dt * integrate(grid, u[k - 1])
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
                            deltas=opts["deltas"], seed=seed, state=state)
    delta = min(opts["deltas"])
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
    return rep, rep.passed(), {"pair_spread": rep.spread_across_pairs(),
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

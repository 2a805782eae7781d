"""Configuration parsing, experiment orchestration and artifact emission.

A JSON experiment config fully determines a run: model constants,
potential and proliferation choice, grid and time resolution, initial
data (preset or snapshots), cost weights and targets, control bounds,
optimizer settings and verification toggles. Physics fields have no
defaults; only solver and optimizer tolerances may be omitted. Identical
config and seed produce bit-identical artifacts (no timestamps are
written).

Subcommands:

    chcontrol run <config>        execute the pipeline named in the config
    chcontrol simulate <config>   forward solve only
    chcontrol verify <config>     run the verification oracle suite

Flags ``--seed`` and ``--out-dir`` override the config.
Exit codes: 0 success, 2 config error, 3 solver error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ChControlError,
    ConfigError,
    GridMismatchError,
    NanDetectedError,
    ShapeMismatchError,
    SolverError,
)
from .fields import (
    Grid,
    TimeGrid,
    read_snapshot,
    read_trajectory,
    write_snapshot,
    write_trajectory,
)
from .objective import CostSpec, Relaxation, constant_trajectory, reduced_cost
from .optimizer import ArmijoParams, OptimizerConfig, optimize
from .potentials import Potential, Proliferation, potential_eval
from .state import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    ControlField,
    InitialData,
    ModelParams,
    separation_report,
    solve_state,
)
from .verification import (
    DEFAULT_SEED,
    duality_check,
    fd_gradient_check,
    lipschitz_check,
    mass_balance_check,
)

_PIPELINES = ("simulate", "optimize", "verify", "all")
_CHECKS = ("gradient", "duality", "lipschitz", "mass")


def _version_string() -> str:
    try:
        from importlib.metadata import version

        base = version("chcontrol")
    except Exception:
        base = "0.1.0"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent, capture_output=True, text=True, timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"{base}+g{out.stdout.strip()}"
    except Exception:
        pass
    return base


# ---------------------------------------------------------------------------
# Initial-data presets
# ---------------------------------------------------------------------------


def _preset_arg(kwargs, key, preset):
    if key not in kwargs:
        raise ConfigError(f"initial.{key}: required by preset {preset!r}")
    return kwargs[key]


def preset_initial_data(name: str, grid: Grid, potential: Potential,
                        **kwargs) -> InitialData:
    """Named initial data constructors.

    equilibrium(value): the stationary triple (F'(c), c, F'(c)).
    tanh_front(width, position): phase front along the first axis.
    random_interior(amplitude, seed): smooth seeded cosine-mode noise with
        max |phi0| = amplitude.

    The non-equilibrium presets set mu0 = F'(phi0) and sigma0 = mu0, which
    keeps all fields order one and the exchange term initially balanced.
    """
    if name == "equilibrium":
        c = float(_preset_arg(kwargs, "value", name))
        lo, hi = potential.domain
        if not (lo < c < hi):
            raise ConfigError(f"initial.value: {c} outside the potential domain "
                              f"({lo}, {hi})")
        mu = grid.full(potential_eval(potential, c, 1))
        return InitialData(mu, grid.full(c), mu.copy())
    if name == "tanh_front":
        width = float(_preset_arg(kwargs, "width", name))
        position = float(_preset_arg(kwargs, "position", name))
        if width <= 0:
            raise ConfigError("initial.width: must be positive")
        x = grid.axis_centers(0)
        phi = np.tanh((x - position) / width)
        if grid.dim == 2:
            phi = np.repeat(phi[:, None], grid.n[1], axis=1)
        mu = potential_eval(potential, phi, 1)
        return InitialData(mu, phi, mu.copy())
    if name == "random_interior":
        amplitude = float(_preset_arg(kwargs, "amplitude", name))
        seed = _opt_int(kwargs, "seed", "initial", 0, 0)
        rng = np.random.default_rng(seed)
        modes = 4
        phi = np.zeros(grid.shape)
        x = grid.axis_centers(0) / grid.extents[0]
        if grid.dim == 1:
            for m in range(1, modes + 1):
                phi += rng.standard_normal() / m**2 * np.cos(np.pi * m * x)
        else:
            y = grid.axis_centers(1) / grid.extents[1]
            for m in range(modes + 1):
                for l in range(modes + 1):
                    if m == l == 0:
                        continue
                    phi += (rng.standard_normal() / (m**2 + l**2)
                            * np.outer(np.cos(np.pi * m * x), np.cos(np.pi * l * y)))
        peak = np.abs(phi).max()
        if peak > 0:
            phi *= amplitude / peak
        lo, hi = potential.domain
        if not (lo < phi.min() and phi.max() < hi):
            raise ConfigError(f"initial.amplitude: {amplitude} leaves the potential "
                              f"domain ({lo}, {hi})")
        mu = potential_eval(potential, phi, 1)
        return InitialData(mu, phi, mu.copy())
    raise ConfigError(f"initial.preset: unknown preset {name!r}")


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _req(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}.{key}: required field is missing")
    return d[key]


def _num(d: dict, key: str, where: str) -> float:
    v = _req(d, key, where)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _opt_int(d: dict, key: str, where: str, default: int,
             minimum: int | None) -> int:
    """An integer field; ``minimum=None`` leaves its range to a validator."""
    v = d.get(key, default)
    if (not _is_number(v) or (isinstance(v, float) and not v.is_integer())
            or (minimum is not None and v < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{where}.{key}: expected an integer{bound}, got {v!r}")
    return int(v)


def _opt_num(d: dict, key: str, where: str, default: float) -> float:
    v = d.get(key, default)
    if not _is_number(v):
        raise ConfigError(f"{where}.{key}: expected a number, got {v!r}")
    return float(v)


def _opt_positive(d: dict, key: str, where: str, default: float) -> float:
    v = d.get(key, default)
    if not _is_number(v) or not 0 < v < math.inf:
        raise ConfigError(f"{where}.{key}: expected a positive number, got {v!r}")
    return float(v)


def _opt_positive_list(d: dict, key: str, where: str, default: list) -> list:
    v = d.get(key, default)
    if (not isinstance(v, list) or not v
            or not all(_is_number(x) and 0 < x < math.inf for x in v)):
        raise ConfigError(f"{where}.{key}: expected a non-empty list of positive "
                          f"numbers, got {v!r}")
    return [float(x) for x in v]


def _section(d: dict, key: str, where: str) -> dict:
    v = d.get(key, {})
    if not isinstance(v, dict):
        raise ConfigError(f"{where}.{key}: expected an object, got {v!r}")
    return v


def _verification_settings(vd: dict, seed: int, tau_star: float,
                           horizon: float) -> dict:
    """The verification section with its defaults filled in and every
    count, tolerance and list checked."""
    where = "verification"
    checks = vd.get("checks", list(_CHECKS))
    if not isinstance(checks, list) or not all(c in _CHECKS for c in checks):
        raise ConfigError(f"{where}.checks: expected a list of {_CHECKS}, "
                          f"got {checks!r}")
    tau = vd.get("tau", tau_star)
    if not _is_number(tau) or not 0 <= tau <= horizon:
        raise ConfigError(f"{where}.tau: expected a number in [0, {horizon}], "
                          f"got {tau!r}")

    gd = _section(vd, "gradient", where)
    gw = f"{where}.gradient"
    deltas = _opt_positive_list(gd, "deltas", gw, [0.5, 0.2, 0.1, 1e-4])
    # missing: the deltas >= 0.1; null: all deltas (fd_gradient_check's default)
    slope_deltas = gd.get("slope_deltas", [d for d in deltas if d >= 0.1] or None)
    if slope_deltas is not None:
        slope_deltas = _opt_positive_list(gd, "slope_deltas", gw, slope_deltas)
        if not all(d in deltas for d in slope_deltas):
            raise ConfigError(f"{gw}.slope_deltas: {slope_deltas} must be taken "
                              f"from deltas {deltas}")
    check_delta = _opt_positive(gd, "check_delta", gw, min(deltas))
    if check_delta not in deltas:
        raise ConfigError(f"{gw}.check_delta: {check_delta} is not one of deltas "
                          f"{deltas}")

    dd = _section(vd, "duality", where)
    ld = _section(vd, "lipschitz", where)
    lw = f"{where}.lipschitz"
    return {
        "checks": checks,
        "seed": _opt_int(vd, "seed", where, None, 0) if "seed" in vd else seed,
        "tau": float(tau),
        "gradient": {
            "directions": _opt_int(gd, "directions", gw, 5, 1),
            "deltas": deltas,
            "slope_deltas": slope_deltas,
            "check_delta": check_delta,
            "tol": _opt_positive(gd, "tol", gw, 1e-6),
        },
        "duality": {
            "directions": _opt_int(dd, "directions", f"{where}.duality", 10, 1),
            "tol": _opt_positive(dd, "tol", f"{where}.duality", 1e-9),
        },
        "lipschitz": {
            "pairs": _opt_int(ld, "pairs", lw, 5, 1),
            "magnitudes": _opt_positive_list(ld, "magnitudes", lw, [1e-1, 1e-2, 1e-3]),
            "pair_spread_tol": _opt_positive(ld, "pair_spread_tol", lw, 10.0),
            "magnitude_spread_tol": _opt_positive(ld, "magnitude_spread_tol", lw, 3.0),
        },
        "mass": {
            "tol": _opt_positive(_section(vd, "mass", where), "tol",
                                 f"{where}.mass", 1e-10),
        },
    }


@dataclass
class ExperimentConfig:
    raw: dict
    pipeline: str
    seed: int
    output_dir: Path
    params: ModelParams
    init: InitialData
    cost: CostSpec
    u0: ControlField
    tau0: float
    optimizer: OptimizerConfig
    # the verification section, defaults filled in (_verification_settings)
    verification: dict
    # the solver section: newton_tol and newton_max_iter, passed as
    # keywords to every call that runs forward solves
    newton: dict


def _build_potential(d: dict) -> Potential:
    kind = _req(d, "kind", "model.potential")
    if kind == "quartic":
        return Potential.quartic()
    if kind == "logarithmic":
        lam = _num(d, "lam", "model.potential")
        if lam <= 0:
            raise ConfigError("model.potential.lam: must be positive")
        return Potential.logarithmic(lam)
    raise ConfigError(f"model.potential.kind: unknown kind {kind!r}")


def _build_proliferation(d: dict) -> Proliferation:
    kind = _req(d, "kind", "model.proliferation")
    p0 = _num(d, "p0", "model.proliferation")
    if p0 < 0:
        raise ConfigError("model.proliferation.p0: must be nonnegative")
    if kind == "constant":
        return Proliferation.constant(p0)
    if kind == "smooth_ramp":
        width = _num(d, "width", "model.proliferation")
        if width <= 0:
            raise ConfigError("model.proliferation.width: must be positive")
        return Proliferation.smooth_ramp(p0, width)
    raise ConfigError(f"model.proliferation.kind: unknown kind {kind!r}")


def _snapshot(path, grid, where):
    """Read the snapshot named by config field ``where``; any failure is a
    ConfigError naming that field."""
    if not isinstance(path, str):
        raise ConfigError(f"{where}: expected a snapshot path, got {path!r}")
    try:
        return read_snapshot(path, grid)
    except OSError as exc:
        raise ConfigError(f"{where}: cannot read snapshot {path!r} "
                          f"({exc.strerror or exc})")
    except (ShapeMismatchError, GridMismatchError) as exc:
        raise ConfigError(f"{where}: {exc}")


def _build_target_traj(d, grid, tg, where):
    if d is None:
        return None
    if "constant" in d:
        return constant_trajectory(grid, tg, float(d["constant"]))
    if "manifest" in d:
        try:
            traj = read_trajectory(d["manifest"])
            values = traj.component(d.get("component", traj.names[0]))
        except (OSError, ValueError, KeyError, TypeError, ChControlError) as exc:
            raise ConfigError(f"{where}.manifest: cannot read trajectory ({exc})")
        if traj.nframes != tg.steps + 1 or traj.grid.shape != grid.shape:
            raise ConfigError(f"{where}.manifest: trajectory does not match the "
                              f"configured grids")
        return values.copy()
    raise ConfigError(f"{where}: expected 'constant' or 'manifest'")


def _build_field(d, grid, where):
    if d is None:
        return None
    if "constant" in d:
        return grid.full(float(d["constant"]))
    if "snapshot" in d:
        return _snapshot(d["snapshot"], grid, f"{where}.snapshot")
    raise ConfigError(f"{where}: expected 'constant' or 'snapshot'")


def _build_bound(v, grid, where):
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v)
    if isinstance(v, str):
        return _snapshot(v, grid, where)
    raise ConfigError(f"{where}: expected a number or a snapshot path")


def parse_config(path, seed=None, out_dir=None) -> ExperimentConfig:
    """Parse and validate an experiment config; all module invariants are
    re-checked here so a bad file fails before any solve starts."""
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})")

    raw = copy.deepcopy(raw)
    pipeline = raw.get("pipeline", "simulate")
    if pipeline not in _PIPELINES:
        raise ConfigError(f"pipeline: must be one of {_PIPELINES}, got {pipeline!r}")
    raw["pipeline"] = pipeline
    if seed is not None:
        raw["seed"] = seed
    raw["seed"] = _opt_int(raw, "seed", "config", DEFAULT_SEED, 0)
    if out_dir is not None:
        raw["output_dir"] = str(out_dir)
    raw.setdefault("output_dir", "out")

    model = _req(raw, "model", "config")
    alpha = _num(model, "alpha", "model")
    beta = _num(model, "beta", "model")
    potential = _build_potential(_req(model, "potential", "model"))
    prolif = _build_proliferation(_req(model, "proliferation", "model"))

    gd = _req(raw, "grid", "config")
    n = _req(gd, "n", "grid")
    extents = _req(gd, "extents", "grid")
    try:
        grid = Grid(tuple(n), tuple(extents))
    except ChControlError as exc:
        raise ConfigError(f"grid: {exc}")

    td = _req(raw, "time", "config")
    horizon = _num(td, "horizon", "time")
    steps = int(_num(td, "steps", "time"))
    if horizon <= 0 or steps < 1:
        raise ConfigError("time: horizon must be positive and steps >= 1")
    tg = TimeGrid(horizon, steps)

    params = ModelParams(alpha, beta, potential, prolif, grid, tg)

    idict = _req(raw, "initial", "config")
    if "preset" in idict:
        kwargs = {k: v for k, v in idict.items() if k != "preset"}
        init = preset_initial_data(idict["preset"], grid, potential, **kwargs)
    elif "snapshots" in idict:
        snaps = idict["snapshots"]
        init = InitialData(*(
            _snapshot(_req(snaps, name, "initial.snapshots"), grid,
                      f"initial.snapshots.{name}")
            for name in ("mu", "phi", "sigma")))
    else:
        raise ConfigError("initial: expected 'preset' or 'snapshots'")
    try:
        init.validate(grid, potential)
    except NanDetectedError as exc:
        raise ConfigError(f"initial: {exc}")

    bd = _req(raw, "bounds", "config")
    lower = _build_bound(_req(bd, "lower", "bounds"), grid, "bounds.lower")
    upper = _build_bound(_req(bd, "upper", "bounds"), grid, "bounds.upper")

    cd = _req(raw, "cost", "config")
    weights = {k: _num(cd, k, "cost") for k in ("b0", "b1", "b2", "b3", "b4", "b5", "b6")}
    tau_star = _num(cd, "tau_star", "cost")
    targets = cd.get("targets", {})
    relaxation = None
    if cd.get("relaxation") is not None:
        rd = cd["relaxation"]
        relaxation = Relaxation(
            _num(rd, "gamma", "cost.relaxation"),
            _num(rd, "eps", "cost.relaxation"),
            _build_field(_req(rd, "sigma_omega", "cost.relaxation"), grid,
                         "cost.relaxation.sigma_omega"),
        )
    cost = CostSpec(
        **weights,
        phi_q=_build_target_traj(targets.get("phi_q"), grid, tg, "cost.targets.phi_q"),
        sigma_q=_build_target_traj(targets.get("sigma_q"), grid, tg,
                                   "cost.targets.sigma_q"),
        phi_omega=_build_field(targets.get("phi_omega"), grid,
                               "cost.targets.phi_omega"),
        tau_star=tau_star,
        relaxation=relaxation,
    )
    try:
        cost.validate(grid, tg)
    except ChControlError as exc:
        raise ConfigError(str(exc))

    ctl = _section(raw, "control", "config")
    u0_choice = ctl.get("initial", "midpoint")
    if u0_choice == "midpoint":
        lo_arr = np.broadcast_to(np.asarray(lower, dtype=float), grid.shape)
        hi_arr = np.broadcast_to(np.asarray(upper, dtype=float), grid.shape)
        mid = 0.5 * (lo_arr + hi_arr)
        if not np.all(np.isfinite(mid)):
            raise ConfigError("control.initial: midpoint undefined for unbounded "
                              "box, give a number")
        vals = np.broadcast_to(mid, (tg.steps + 1,) + grid.shape).copy()
        u0 = ControlField(vals, lower, upper)
    elif isinstance(u0_choice, (int, float)) and not isinstance(u0_choice, bool):
        u0 = ControlField.constant(grid, tg, float(u0_choice), lower, upper)
    else:
        raise ConfigError("control.initial: expected 'midpoint' or a number")
    u0.validate(grid, tg)
    tau0 = _opt_num(ctl, "tau0", "control", horizon / 2)
    if not 0 <= tau0 <= horizon:
        raise ConfigError(f"control.tau0: {tau0} outside [0, {horizon}]")

    od = _section(raw, "optimizer", "config")
    ad = _section(od, "armijo", "optimizer")
    aw = "optimizer.armijo"
    opt_config = OptimizerConfig(
        max_outer_iters=_opt_int(od, "max_outer_iters", "optimizer", 1000, 0),
        armijo=ArmijoParams(
            c1=_opt_num(ad, "c1", aw, 1e-4),
            backtrack=_opt_num(ad, "backtrack", aw, 0.5),
            s0=_opt_num(ad, "s0", aw, 1.0),
            max_backtracks=_opt_int(ad, "max_backtracks", aw, 30, None),
        ),
        grad_tol=_opt_positive(od, "grad_tol", "optimizer", 1e-5),
    )

    verification = _verification_settings(
        _section(raw, "verification", "config"), raw["seed"], tau_star, horizon)
    sd = _section(raw, "solver", "config")

    return ExperimentConfig(
        raw=raw, pipeline=pipeline, seed=raw["seed"],
        output_dir=Path(raw["output_dir"]),
        params=params, init=init, cost=cost, u0=u0, tau0=tau0,
        optimizer=opt_config, verification=verification,
        newton={"newton_tol": _opt_positive(sd, "newton_tol", "solver", NEWTON_TOL),
                "newton_max_iter": _opt_int(sd, "newton_max_iter", "solver",
                                            NEWTON_MAX_ITER, 0)},
    )


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_diagnostics(path, traj):
    diag = traj.diagnostics
    rows = list(diag.rows()) if diag is not None else []
    _write_csv(path, ["step", "newton_iters", "mass_residual", "delta_sep"], rows)


def _breakdown_row(iteration, tau, bd):
    terms = bd.terms()
    return [iteration, tau] + [terms[k] for k in sorted(terms)] + [bd.total]


def _breakdown_header():
    bd_keys = sorted(["tracking_q", "tracking_omega", "nutrient_q", "tumour_mass",
                      "linear_time", "quadratic_time", "control_energy",
                      "relaxed_term"])
    return ["iteration", "tau"] + bd_keys + ["total"]


def _write_control(directory, u, tg, grid):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k in range(tg.steps + 1):
        fname = f"u_{k:05d}.fld"
        write_snapshot(directory / fname, grid, u.values[k])
        paths.append(fname)
    manifest = {
        "format": "chcontrol-control-1",
        "grid": {"n": list(grid.n), "extents": list(grid.extents)},
        "time": {"horizon": tg.horizon, "steps": tg.steps},
        "times": [float(t) for t in tg.times],
        "snapshots": paths,
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def _run_simulate(cfg: ExperimentConfig, out: Path) -> dict:
    params, tg, grid = cfg.params, cfg.params.time_grid, cfg.params.grid
    traj = solve_state(params, cfg.init, cfg.u0, **cfg.newton)
    sim_dir = out / "simulate"
    sim_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory(sim_dir / "state", traj)
    _write_diagnostics(sim_dir / "diagnostics.csv", traj)
    bd = reduced_cost(traj, cfg.u0, cfg.cost.tau_star, cfg.cost)
    _write_csv(sim_dir / "breakdown.csv", _breakdown_header(),
               [_breakdown_row(0, cfg.cost.tau_star, bd)])
    result = {"cost_total": bd.total, "tau": cfg.cost.tau_star}
    if params.potential.singular:
        rep = separation_report(traj, params.potential)
        result["delta_sep"] = rep.delta_sep
        result["argmin_frame"] = rep.argmin_frame
    mass = mass_balance_check(traj, cfg.u0, params)
    result["mass_residual"] = mass.residual
    return result


def _run_optimize(cfg: ExperimentConfig, out: Path) -> dict:
    params, tg, grid = cfg.params, cfg.params.time_grid, cfg.params.grid
    res = optimize(params, cfg.init, cfg.cost, cfg.optimizer, cfg.u0, cfg.tau0,
                   **cfg.newton)
    opt_dir = out / "optimize"
    opt_dir.mkdir(parents=True, exist_ok=True)
    header = _breakdown_header() + ["stat_u", "stat_tau", "time_case",
                                    "tau_index", "snap_error"]
    rows = []
    for rec in res.history:
        rows.append(_breakdown_row(rec.iteration, rec.tau, rec.breakdown)
                    + [rec.stat_u, rec.stat_tau, rec.time_case, rec.tau_index,
                       rec.snap_error])
    _write_csv(opt_dir / "history.csv", header, rows)
    _write_control(opt_dir / "control", res.u_opt, tg, grid)
    write_trajectory(opt_dir / "state", res.state)
    summary = {
        "tau_opt": res.tau_opt,
        "time_case": res.time_case,
        "converged": res.converged,
        "iterations": res.iterations,
        "stat_u": res.stat_u,
        "stat_tau": res.stat_tau,
        "cost_total": res.history[-1].breakdown.total,
    }
    with open(opt_dir / "optimum.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return summary


def _run_verify(cfg: ExperimentConfig, out: Path) -> dict:
    params = cfg.params
    vd = cfg.verification
    checks, seed = vd["checks"], vd["seed"]
    ver_dir = out / "verify"
    ver_dir.mkdir(parents=True, exist_ok=True)
    summary = {}

    state = solve_state(params, cfg.init, cfg.u0, **cfg.newton)
    k_tau, _ = params.time_grid.nearest_node(vd["tau"])

    if "gradient" in checks:
        gopts = vd["gradient"]
        rep = fd_gradient_check(
            params, cfg.init, cfg.cost, cfg.u0, vd["tau"],
            directions=gopts["directions"], deltas=gopts["deltas"],
            slope_deltas=gopts["slope_deltas"], seed=seed, state=state,
            **cfg.newton)
        check_delta = gopts["check_delta"]
        ok = rep.passed(check_delta, gopts["tol"])
        (ver_dir / "gradient_check.txt").write_text(
            rep.to_text() + f"result: {'PASS' if ok else 'FAIL'}\n")
        summary["gradient"] = {"passed": ok,
                               "max_rel_error": rep.max_rel_error(check_delta)}

    if "duality" in checks:
        dopts = vd["duality"]
        rep = duality_check(params, state, k_tau, cfg.cost,
                            directions=dopts["directions"], seed=seed)
        ok = rep.passed(dopts["tol"])
        (ver_dir / "duality_check.txt").write_text(
            rep.to_text() + f"result: {'PASS' if ok else 'FAIL'}\n")
        summary["duality"] = {"passed": ok, "max_mismatch": rep.max_mismatch}

    if "lipschitz" in checks:
        lopts = vd["lipschitz"]
        rep = lipschitz_check(
            params, cfg.init, cfg.u0, pairs=lopts["pairs"],
            magnitudes=lopts["magnitudes"], seed=seed, **cfg.newton)
        ok = rep.passed(lopts["pair_spread_tol"], lopts["magnitude_spread_tol"])
        (ver_dir / "lipschitz_check.txt").write_text(
            rep.to_text() + f"result: {'PASS' if ok else 'FAIL'}\n")
        summary["lipschitz"] = {"passed": ok,
                                "pair_spread": rep.spread_across_pairs(),
                                "magnitude_spread": rep.spread_across_magnitudes()}

    if "mass" in checks:
        rep = mass_balance_check(state, cfg.u0, params)
        ok = rep.passed(vd["mass"]["tol"])
        (ver_dir / "mass_balance.txt").write_text(
            rep.to_text() + f"result: {'PASS' if ok else 'FAIL'}\n")
        summary["mass"] = {"passed": ok, "residual": rep.residual}

    with open(ver_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return summary


def run(config_path, pipeline=None, seed=None, out_dir=None) -> int:
    """Execute a config. Returns the process exit code."""
    try:
        cfg = parse_config(config_path, seed=seed, out_dir=out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    pipeline = pipeline or cfg.pipeline
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    results = {}
    try:
        if pipeline in ("simulate", "all"):
            results["simulate"] = _run_simulate(cfg, out)
        if pipeline in ("optimize", "all"):
            results["optimize"] = _run_optimize(cfg, out)
        if pipeline in ("verify", "all"):
            results["verify"] = _run_verify(cfg, out)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    echo = copy.deepcopy(cfg.raw)
    echo["pipeline"] = pipeline
    summary = {"version": _version_string(), "config": echo, "results": results}
    with open(out / "run_summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")

    if pipeline in ("verify", "all"):
        checks = results.get("verify", {})
        if not all(entry["passed"] for entry in checks.values()):
            print("verification FAILED", file=sys.stderr)
            return 4
    return 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="chcontrol",
        description="Optimal treatment-time control of a viscous Cahn-Hilliard "
                    "tumour-growth model",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute the pipeline selected in the config"),
        ("simulate", "forward solve only"),
        ("verify", "run the verification oracle suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    pipeline = None if args.command == "run" else args.command
    sys.exit(run(args.config, pipeline=pipeline, seed=args.seed,
                 out_dir=args.out_dir))


if __name__ == "__main__":
    main()

"""Configuration parsing, experiment orchestration and artifact emission.

A JSON experiment config fully determines a run: model constants,
potential and proliferation choice, grid and time resolution, initial
data (preset or snapshots), cost weights and targets, control bounds,
the optimizer's iteration cap and tolerance, Newton settings and
verification toggles. The table ``_FIELDS`` is the whole schema: it
gives every field's type and default, and ranges only the fields that no
object checks, and the oracles' counts, which the oracles range too but
parse_config does not reach. The other ranges live on the objects that library callers
reach too: Grid (``grid.*``), TimeGrid (``time.*``), Potential and
Proliferation (``model.potential.lam`` and ``model.proliferation.*``),
ModelParams (the model constants and ``solver.*``),
optimizer.check_settings (``optimizer.max_outer_iters`` and
``optimizer.grad_tol``), CostSpec, Relaxation and optimizer.check_bounds,
and each error names its field. Every number, in the table or on an
object, passes one rule, :func:`chcontrol.errors.check_number`, and a
bad one reads "<field>: expected <what>, got <value>". Physics fields
have no defaults, and a key that is no row is an unknown field. A bad
config raises a ConfigError whose message starts with the field's path,
and the command exits 2 before any solve starts. So does a config whose
one trajectory, (steps+1) * 3 * cells * 8 B, exceeds the machine's
physical memory, refused by ``grid.n`` and ``time.steps`` after the grid
is checked and before the time grid allocates its nodes.
Identical config and seed produce bit-identical artifacts (no timestamps
are written).

Subcommands:

    chcontrol run <config>        execute the pipeline named in the config
    chcontrol simulate <config>   forward solve only
    chcontrol verify <config>     run the verification oracle suite

Flags ``--seed`` and ``--out-dir`` override the config.
Exit codes: 0 success, 2 config error, 3 solver error or out of memory,
4 verification failure.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ChControlError,
    ConfigError,
    GridMismatchError,
    ShapeMismatchError,
    SolverError,
    check_number,
)
from .fields import (
    Grid,
    TimeGrid,
    Trajectory,
    read_snapshot,
    read_trajectory,
    write_json,
    write_trajectory,
)
from .objective import (
    CostBreakdown,
    CostSpec,
    Relaxation,
    constant_trajectory,
    reduced_cost,
)
from .optimizer import GRAD_TOL, MAX_OUTER_ITERS, check_bounds, check_settings, optimize
from .potentials import Potential, Proliferation
from .state import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    InitialData,
    ModelParams,
    solve_state,
)
from .verification import CHECKS, DEFAULT_SEED, mass_balance_check

_PIPELINES = ("simulate", "optimize", "verify", "all")
_CHECKS = tuple(CHECKS)


# ---------------------------------------------------------------------------
# The config fields
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of a field that must be given

# Every config field: dotted path -> (kind, limit, default). Kinds:
#   "number", "integer"  a number by errors.check_number, the rule every
#                        object applies too: finite, never a bool, an
#                        integer whole (and read as an int); the limit is a
#                        minimum or None
#   "positive"           a number in (0, inf)
#   "choice"             one of the strings in the limit
#   "string", "object", "number or string"
#   "<kind> list"        a non-empty list, each entry of that kind and limit
#   "<kind> set"         a "<kind> list" whose entries all differ
# A missing field takes its default, and null is accepted where the default
# is None; parse_config fills in the defaults that depend on other fields.
# Fields of the root object are named "config.<key>". The table is the whole
# schema: a key of an object field (or the root) that is no row under it is
# "<path>.<key>: unknown field". Fields are read where the code needs them,
# so the fields of a branch not taken (the lam of a quartic potential, the
# arguments of another preset) are not checked. The ranges that Grid,
# TimeGrid, Potential, Proliferation, ModelParams, CostSpec.validate,
# Relaxation, optimizer.check_bounds (lower <= upper) and
# optimizer.check_settings check stay there; their fields get a type here,
# and parse_config calls check_bounds and check_settings. The oracles range
# their counts too, but parse_config calls no oracle, so those three rows
# keep their minimum: a bad count still exits before any solve. The solver and
# optimizer sections reach ModelParams and optimize as keyword arguments, so
# their rows are those keywords.
_FIELDS = {
    "config.pipeline": ("choice", _PIPELINES, "simulate"),
    "config.seed": ("integer", 0, DEFAULT_SEED),
    "config.output_dir": ("string", None, "out"),
    "model": ("object", None, _REQUIRED),
    "model.alpha": ("number", None, _REQUIRED),
    "model.beta": ("number", None, _REQUIRED),
    "model.potential": ("object", None, _REQUIRED),
    "model.potential.kind": ("choice", ("quartic", "logarithmic"), _REQUIRED),
    "model.potential.lam": ("number", None, _REQUIRED),
    "model.proliferation": ("object", None, _REQUIRED),
    "model.proliferation.kind": ("choice", ("constant", "smooth_ramp"), _REQUIRED),
    "model.proliferation.p0": ("number", None, _REQUIRED),
    "model.proliferation.width": ("number", None, _REQUIRED),
    "grid": ("object", None, _REQUIRED),
    "grid.n": ("integer list", None, _REQUIRED),
    "grid.extents": ("number list", None, _REQUIRED),
    "time": ("object", None, _REQUIRED),
    "time.horizon": ("number", None, _REQUIRED),
    "time.steps": ("integer", None, _REQUIRED),
    "initial": ("object", None, _REQUIRED),
    "initial.preset": ("choice", ("equilibrium", "tanh_front", "random_interior"),
                       _REQUIRED),
    "initial.value": ("number", None, _REQUIRED),
    "initial.width": ("positive", None, _REQUIRED),
    "initial.position": ("number", None, _REQUIRED),
    "initial.amplitude": ("number", None, _REQUIRED),
    "initial.seed": ("integer", 0, 0),
    "initial.snapshots": ("object", None, _REQUIRED),
    "initial.snapshots.mu": ("string", None, _REQUIRED),
    "initial.snapshots.phi": ("string", None, _REQUIRED),
    "initial.snapshots.sigma": ("string", None, _REQUIRED),
    "bounds": ("object", None, _REQUIRED),
    "bounds.lower": ("number or string", None, _REQUIRED),
    "bounds.upper": ("number or string", None, _REQUIRED),
    "cost": ("object", None, _REQUIRED),
    **{f"cost.b{i}": ("number", None, _REQUIRED) for i in range(7)},
    "cost.tau_star": ("number", None, _REQUIRED),
    "cost.targets": ("object", None, {}),
    "cost.targets.phi_q": ("object", None, None),
    "cost.targets.phi_q.constant": ("number", None, _REQUIRED),
    "cost.targets.phi_q.manifest": ("string", None, _REQUIRED),
    "cost.targets.phi_q.component": ("string", None, None),
    "cost.targets.sigma_q": ("object", None, None),
    "cost.targets.sigma_q.constant": ("number", None, _REQUIRED),
    "cost.targets.sigma_q.manifest": ("string", None, _REQUIRED),
    "cost.targets.sigma_q.component": ("string", None, None),
    "cost.targets.phi_omega": ("object", None, None),
    "cost.targets.phi_omega.constant": ("number", None, _REQUIRED),
    "cost.targets.phi_omega.snapshot": ("string", None, _REQUIRED),
    "cost.relaxation": ("object", None, None),
    "cost.relaxation.gamma": ("number", None, _REQUIRED),
    "cost.relaxation.eps": ("number", None, _REQUIRED),
    "cost.relaxation.sigma_omega": ("object", None, _REQUIRED),
    "cost.relaxation.sigma_omega.constant": ("number", None, _REQUIRED),
    "cost.relaxation.sigma_omega.snapshot": ("string", None, _REQUIRED),
    "control": ("object", None, {}),
    "control.initial": ("number or string", None, "midpoint"),
    "control.tau0": ("number", None, None),  # None: horizon / 2
    "optimizer": ("object", None, {}),
    "optimizer.max_outer_iters": ("integer", None, MAX_OUTER_ITERS),
    "optimizer.grad_tol": ("number", None, GRAD_TOL),
    "solver": ("object", None, {}),
    "solver.newton_tol": ("number", None, NEWTON_TOL),
    "solver.newton_max_iter": ("integer", None, NEWTON_MAX_ITER),
    "verification": ("object", None, {}),
    "verification.checks": ("choice list", _CHECKS, list(_CHECKS)),
    "verification.tau": ("number", None, None),  # None: cost.tau_star
    "verification.gradient": ("object", None, {}),
    "verification.gradient.directions": ("integer", 1, 5),
    "verification.gradient.deltas": ("positive set", None, [0.5, 0.2, 0.1, 1e-4]),
    "verification.gradient.tol": ("positive", None, 1e-6),
    "verification.duality": ("object", None, {}),
    "verification.duality.directions": ("integer", 1, 10),
    "verification.duality.tol": ("positive", None, 1e-9),
    "verification.lipschitz": ("object", None, {}),
    "verification.lipschitz.pairs": ("integer", 1, 5),
    "verification.lipschitz.magnitudes": ("positive set", None, [1e-1, 1e-2, 1e-3]),
    "verification.mass": ("object", None, {}),
    "verification.mass.tol": ("positive", None, 1e-10),
}


def _conform(path, value, kind, limit):
    """``value``, config field ``path``, converted to ``kind``: a number by
    :func:`~chcontrol.errors.check_number` (a float, an int for an
    integer), a list entry by entry; else a ConfigError naming ``path``."""
    if kind.endswith((" list", " set")):
        if isinstance(value, list) and value:
            items = [_conform(path, v, kind.rpartition(" ")[0], limit) for v in value]
            if kind.endswith(" list") or len(set(items)) == len(items):
                return items
        distinct = " of distinct entries" if kind.endswith(" set") else ""
        expected = f"a non-empty list{distinct}"
    elif kind in ("number", "integer", "positive", "number or string"):
        if kind == "number or string" and isinstance(value, str):
            return value
        return check_number(path, value, 0 if kind == "positive" else limit,
                            above=kind == "positive", whole=kind == "integer")
    elif (isinstance(value, dict if kind == "object" else str)
          and (kind != "choice" or value in limit)):
        return value
    else:
        expected = {"object": "an object", "string": "a string",
                    "choice": f"one of {limit}"}[kind]
    raise ConfigError(f"{path}: expected {expected}, got {value!r}")


def _read(section: dict, path: str):
    """Config field ``path`` of ``section``, the object holding it, read by
    its row of :data:`_FIELDS`: the value converted, or the default; a
    ConfigError naming the field if it is required and missing, or of the
    wrong kind or range."""
    kind, limit, default = _FIELDS[path]
    value = section.get(path.rpartition(".")[2], default)
    if value is _REQUIRED:
        raise ConfigError(f"{path}: required field is missing")
    if value is None and default is None:
        return None
    conformed = _conform(path, value, kind, limit)
    return _known(conformed, path) if kind == "object" else conformed


def _known(section: dict, path: str) -> dict:
    """``section``, the object field ``path``, if each of its keys is a row
    under ``path``; else a ConfigError naming the first key that is not."""
    for key in section:
        if key not in _KEYS[path]:
            raise ConfigError(f"{path}.{key}: unknown field")
    return section


def _field(cfg: dict, path: str):
    """Config field ``path`` of the whole config ``cfg``, each object on
    the way read as a field too."""
    parent = path.rpartition(".")[0]
    return _read(cfg if parent in ("", "config") else _field(cfg, parent), path)


# the keys of each object field, in table order; the root's are under "config"
_KEYS: dict = {}
for _path in _FIELDS:
    _parent, _, _key = _path.rpartition(".")
    _KEYS.setdefault(_parent or "config", []).append(_key)


def _fields(section: dict, path: str):
    """Field ``path`` of ``section``; an object field with every row under
    it read, nested like the config."""
    node = _read(section, path)
    if _FIELDS[path][0] != "object":
        return node
    return {key: _fields(node, f"{path}.{key}") for key in _KEYS[path]}


# ---------------------------------------------------------------------------
# Initial-data presets
# ---------------------------------------------------------------------------


def preset_initial_data(name: str, grid: Grid, potential: Potential,
                        **kwargs) -> InitialData:
    """Named initial data constructors.

    equilibrium(value): the stationary triple (F'(c), c, F'(c)).
    tanh_front(width, position): phase front along the first axis.
    random_interior(amplitude, seed): smooth seeded cosine-mode noise with
        max |phi0| = amplitude.

    The arguments are the ``initial.*`` fields of :data:`_FIELDS`. The
    non-equilibrium presets set mu0 = F'(phi0) and sigma0 = mu0, which
    keeps all fields order one and the exchange term initially balanced.
    A phi0 outside the window of ``potential`` (see
    :meth:`Potential.check_start`) is a ConfigError naming the preset's field.
    """
    cfg = {"initial": {**kwargs, "preset": name}}
    name = _field(cfg, "initial.preset")
    if name == "equilibrium":
        blame, given = "initial.value", _field(cfg, "initial.value")
        phi = grid.full(given)
    elif name == "tanh_front":
        blame, given = "initial.width", _field(cfg, "initial.width")
        # the profile along the first axis, the same on every line across it
        x = grid.axis_centers(0).reshape(grid.n[:1] + (1,) * (grid.dim - 1))
        phi = np.broadcast_to(np.tanh((x - _field(cfg, "initial.position")) / given),
                              grid.shape).copy()
    else:
        blame, given = "initial.amplitude", _field(cfg, "initial.amplitude")
        rng = np.random.default_rng(_field(cfg, "initial.seed"))
        modes = 4
        phi = np.zeros(grid.shape)
        axes = [grid.axis_centers(i) / grid.extents[i] for i in range(grid.dim)]
        # the product of axis cosines of each mode but the constant one,
        # weighted by one standard normal draw over its squared wavenumber
        for ms in itertools.product(range(modes + 1), repeat=grid.dim):
            if any(ms):
                cosines = [np.cos(np.pi * m * x) for m, x in zip(ms, axes)]
                phi += (rng.standard_normal() / sum(m**2 for m in ms)
                        * functools.reduce(np.multiply.outer, cosines))
        peak = np.abs(phi).max()
        if peak > 0:
            scale = given / float(peak)  # a Python float: inf, never a warning
            if not math.isfinite(scale):
                raise ConfigError(f"{blame}: {given} overflows phi0")
            phi *= scale
    potential.check_start(phi, f"{blame}: {given}")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = potential.dF(phi)
    if not np.isfinite(mu).all():
        raise ConfigError(f"{blame}: {given} overflows mu0 = F'(phi0)")
    return InitialData(mu, phi, mu.copy())


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    raw: dict
    pipeline: str
    seed: int
    output_dir: Path
    params: ModelParams
    init: InitialData
    cost: CostSpec
    u0: np.ndarray
    lower: float | np.ndarray  # optimize's box: floats or grid fields
    upper: float | np.ndarray
    tau0: float | None  # None: optimize's default
    optimizer: dict  # the optimizer section: optimize's keyword arguments
    # the verification section, nested like the config, defaults filled in
    verification: dict


def _finite(path, values):
    """``values``, or a ConfigError naming field ``path`` if any is not
    finite."""
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{path}: the file holds non-finite values")
    return values


def _snapshot(section, path, grid):
    """The snapshot that config field ``path`` of ``section`` names (a
    number it holds instead is returned as it is); any failure, non-finite
    values included, is a ConfigError naming the field."""
    file = _read(section, path)
    if isinstance(file, float):
        return file
    try:
        return _finite(path, read_snapshot(file, grid))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read snapshot {file!r} "
                          f"({exc.strerror or exc})")
    except (ShapeMismatchError, GridMismatchError) as exc:
        raise ConfigError(f"{path}: {exc}")


def _array(cfg, path, grid, tg=None):
    """The array that union field ``path`` gives: None if it is absent, a
    constant from {"constant": c}, or a file: {"manifest": m, "component":
    name} for a space-time target (``tg`` given), {"snapshot": s} for a
    spatial field."""
    d = _field(cfg, path)
    if d is None:
        return None
    if "constant" in d:
        c = _read(d, f"{path}.constant")
        return grid.full(c) if tg is None else constant_trajectory(grid, tg, c)
    key = "snapshot" if tg is None else "manifest"
    if key not in d:
        raise ConfigError(f"{path}: expected 'constant' or '{key}'")
    if tg is None:
        return _snapshot(d, f"{path}.snapshot", grid)
    file = _read(d, f"{path}.manifest")
    component = _read(d, f"{path}.component")
    try:
        traj = read_trajectory(file)
        values = traj.component(traj.names[0] if component is None else component)
    except (OSError, ValueError, KeyError, TypeError, ChControlError) as exc:
        raise ConfigError(f"{path}.manifest: cannot read trajectory ({exc})")
    if traj.grid != grid or traj.time_grid != tg or traj.nframes != tg.steps + 1:
        raise ConfigError(f"{path}.manifest: trajectory does not match the "
                          f"configured grids")
    return _finite(f"{path}.manifest", values.copy())


def _physical_memory() -> int | None:
    """The machine's physical memory in bytes, None where ``os.sysconf``
    cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_fits(grid, steps) -> None:
    """A ConfigError naming ``grid.n`` and ``time.steps`` if one trajectory
    of ``steps`` steps on ``grid``, (steps+1) * 3 * cells * 8 B, exceeds
    physical memory: a run that cannot hold it fails before it allocates."""
    need, memory = (steps + 1) * 3 * grid.cell_count * 8, _physical_memory()
    if memory is not None and need > memory:
        raise ConfigError(f"grid.n, time.steps: one trajectory of {steps} steps on "
                          f"{grid.cell_count} cells takes {need:.3e} B, more than the "
                          f"{memory:.3e} B of physical memory")


def parse_config(path, seed=None, out_dir=None) -> ExperimentConfig:
    """Parse and validate an experiment config: every field by its row of
    :data:`_FIELDS`, then the rules between fields, so a bad file fails
    with a ConfigError naming the field before any solve starts."""
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})")
    except (OSError, ValueError) as exc:  # no such file, bytes that are not text
        raise ConfigError(f"{path}: cannot read config ({exc})")
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected an object, got {type(raw).__name__}")
    _known(raw, "config")

    if seed is not None:
        raw["seed"] = seed
    if out_dir is not None:
        raw["output_dir"] = str(out_dir)
    for key in ("pipeline", "seed", "output_dir"):
        raw[key] = _field(raw, f"config.{key}")

    if _field(raw, "model.potential.kind") == "quartic":
        potential = Potential.quartic()
    else:
        potential = Potential.logarithmic(_field(raw, "model.potential.lam"))
    p0 = _field(raw, "model.proliferation.p0")
    if _field(raw, "model.proliferation.kind") == "constant":
        prolif = Proliferation.constant(p0)
    else:
        prolif = Proliferation.smooth_ramp(p0, _field(raw, "model.proliferation.width"))
    grid = Grid(tuple(_field(raw, "grid.n")), tuple(_field(raw, "grid.extents")))
    steps = _field(raw, "time.steps")
    _check_fits(grid, steps)
    tg = TimeGrid(_field(raw, "time.horizon"), steps)
    params = ModelParams(_field(raw, "model.alpha"), _field(raw, "model.beta"),
                         potential, prolif, grid, tg, **_fields(raw, "solver"))

    idict = _field(raw, "initial")
    if "preset" in idict:
        init = preset_initial_data(idict["preset"], grid, potential, **idict)
    elif "snapshots" in idict:
        snaps = _read(idict, "initial.snapshots")
        init = InitialData(*(
            _snapshot(snaps, f"initial.snapshots.{name}", grid)
            for name in ("mu", "phi", "sigma")))
        potential.check_start(init.phi0, "initial.snapshots.phi: the snapshot")
    else:
        raise ConfigError("initial: expected 'preset' or 'snapshots'")

    bd = _field(raw, "bounds")
    lower, upper = (_snapshot(bd, f"bounds.{side}", grid)
                    for side in ("lower", "upper"))
    check_bounds(lower, upper)

    cd = _field(raw, "cost")
    relaxation = _read(cd, "cost.relaxation")
    if relaxation is not None:
        relaxation = Relaxation(_read(relaxation, "cost.relaxation.gamma"),
                                _read(relaxation, "cost.relaxation.eps"),
                                _array(raw, "cost.relaxation.sigma_omega", grid))
    cost = CostSpec(
        **{f"b{i}": _read(cd, f"cost.b{i}") for i in range(7)},
        phi_q=_array(raw, "cost.targets.phi_q", grid, tg),
        sigma_q=_array(raw, "cost.targets.sigma_q", grid, tg),
        phi_omega=_array(raw, "cost.targets.phi_omega", grid),
        tau_star=_read(cd, "cost.tau_star"),
        relaxation=relaxation,
    )
    cost.validate(grid, tg)

    start = _field(raw, "control.initial")
    if isinstance(start, str):
        if start != "midpoint":
            raise ConfigError(f"control.initial: expected 'midpoint' or a number, "
                              f"got {start!r}")
        # halved before the sum, which cannot then overflow
        start = 0.5 * np.asarray(lower) + 0.5 * np.asarray(upper)
    u0 = np.broadcast_to(start, (tg.steps + 1,) + grid.shape).copy()

    optimizer = _fields(raw, "optimizer")
    check_settings(**optimizer)
    verification = _fields(raw, "verification")
    if verification["tau"] is None:
        verification["tau"] = cost.tau_star
    tau0 = _field(raw, "control.tau0")
    for where, tau in (("control.tau0", tau0),
                       ("verification.tau", verification["tau"])):
        if tau is not None:
            check_number(where, tau, 0, tg.horizon)

    return ExperimentConfig(
        raw=raw, pipeline=raw["pipeline"], seed=raw["seed"],
        output_dir=Path(raw["output_dir"]),
        params=params, init=init, cost=cost, u0=u0, lower=lower, upper=upper,
        tau0=tau0,
        optimizer=optimizer, verification=verification,
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
    # numpy floats subclass float, and their repr reads np.float64(...)
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_diagnostics(path, diag, mass):
    rows = zip(range(1, len(diag.newton_iters) + 1), diag.newton_iters.tolist(),
               mass.residuals.tolist(), diag.delta_sep.tolist())
    _write_csv(path, ["step", "newton_iters", "mass_residual", "delta_sep"], rows)


def _breakdown_row(iteration, tau, bd):
    terms = bd.terms()
    return [iteration, tau] + [terms[k] for k in sorted(terms)] + [bd.total]


def _breakdown_header():
    return ["iteration", "tau"] + sorted(CostBreakdown().terms()) + ["total"]


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def _run_simulate(cfg: ExperimentConfig, out: Path, traj) -> dict:
    """The artifacts of ``traj``, the forward solve at the config's
    control. Returns the result dict."""
    params = cfg.params
    mass = mass_balance_check(traj, cfg.u0, params)
    sim_dir = out / "simulate"
    sim_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory(sim_dir / "state", traj)
    _write_diagnostics(sim_dir / "diagnostics.csv", traj.diagnostics, mass)
    bd = reduced_cost(traj, cfg.u0, cfg.cost.tau_star, cfg.cost)
    _write_csv(sim_dir / "breakdown.csv", _breakdown_header(),
               [_breakdown_row(0, cfg.cost.tau_star, bd)])
    result = {"cost_total": bd.total, "tau": cfg.cost.tau_star}
    if params.potential.singular:
        # frame 0 and the distance the march stored for each kept frame
        per_frame = [params.potential.distance(traj.phi[0]),
                     *traj.diagnostics.delta_sep.tolist()]
        result["argmin_frame"] = k = int(np.argmin(per_frame))
        result["delta_sep"] = per_frame[k]
    result["mass_residual"] = mass.residual
    return result


def _run_optimize(cfg: ExperimentConfig, out: Path) -> dict:
    params, tg, grid = cfg.params, cfg.params.time_grid, cfg.params.grid
    res = optimize(params, cfg.init, cfg.cost, cfg.u0, cfg.tau0,
                   lower=cfg.lower, upper=cfg.upper, **cfg.optimizer)
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
    write_trajectory(opt_dir / "control",
                     Trajectory(grid, tg, res.u_opt[:, None], ("u",)))
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
    write_json(opt_dir / "optimum.json", summary)
    return summary


def _run_verify(cfg: ExperimentConfig, out: Path, state) -> dict:
    """Run the checks of ``verification.checks`` in the order of
    :data:`~chcontrol.verification.CHECKS`, all on one base solve:
    ``state``, the forward solve at the config's control."""
    vd = cfg.verification
    ver_dir = out / "verify"
    ver_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    for name, (report_file, run_check) in CHECKS.items():
        if name not in vd["checks"]:
            continue
        rep, ok, figures = run_check(cfg.params, cfg.init, cfg.cost, cfg.u0, vd["tau"],
                                     state, cfg.seed, vd[name])
        (ver_dir / report_file).write_text(
            rep.to_text() + f"result: {'PASS' if ok else 'FAIL'}\n")
        summary[name] = {"passed": ok, **figures}

    write_json(ver_dir / "summary.json", summary)
    return summary


def run(config_path, pipeline=None, seed=None, out_dir=None) -> int:
    """Execute a config. Returns the process exit code."""
    results = {}
    try:
        cfg = parse_config(config_path, seed=seed, out_dir=out_dir)
        pipeline = pipeline or cfg.pipeline
        out = cfg.output_dir
        # every input is read: an OSError from here on is a failed write
        try:
            out.mkdir(parents=True, exist_ok=True)
            # one forward solve at the config's control serves simulate and
            # verify; optimize marches its own
            if pipeline != "optimize":
                base = solve_state(cfg.params, cfg.init, cfg.u0)
            if pipeline in ("simulate", "all"):
                results["simulate"] = _run_simulate(cfg, out, base)
            if pipeline in ("optimize", "all"):
                results["optimize"] = _run_optimize(cfg, out)
            if pipeline in ("verify", "all"):
                results["verify"] = _run_verify(cfg, out, base)
            echo = {**cfg.raw, "pipeline": pipeline}
            summary = {"version": __version__, "config": echo,
                       "results": results}
            write_json(out / "run_summary.json", summary)
        except OSError as exc:
            path = out if exc.filename is None else exc.filename
            raise ConfigError(f"config.output_dir: cannot write {str(path)!r} "
                              f"({exc.strerror or exc})")
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("out of memory: grid.n and time.steps set the size of every field "
              "and trajectory", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if pipeline in ("verify", "all"):
        checks = results.get("verify", {})
        if not all(entry["passed"] for entry in checks.values()):
            print("verification FAILED", file=sys.stderr)
            return 4
    return 0


def main(argv=None) -> None:
    import argparse  # only here: run() and the package skip its import
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

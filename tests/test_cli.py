import copy
import csv
import hashlib
import json
import math

import numpy as np
import pytest

import chcontrol as ch
from chcontrol.cli import parse_config, preset_initial_data, run
from chcontrol.errors import ConfigError

TINY_CONFIG = {
    "pipeline": "simulate",
    "seed": 3,
    "model": {
        "alpha": 0.1,
        "beta": 0.1,
        "potential": {"kind": "quartic"},
        "proliferation": {"kind": "smooth_ramp", "p0": 1.0, "width": 0.5},
    },
    "grid": {"n": [32], "extents": [1.0]},
    "time": {"horizon": 0.25, "steps": 16},
    "initial": {"preset": "equilibrium", "value": 0.2},
    "bounds": {"lower": 0.0, "upper": 2.0},
    "cost": {
        "b0": 0.001, "b1": 1.0, "b2": 0.0, "b3": 1.0, "b4": 0.0,
        "b5": 0.01, "b6": 1.0, "tau_star": 0.125,
        "targets": {
            "phi_q": {"constant": -0.5},
            "sigma_q": {"constant": 0.375},
            "phi_omega": {"constant": -0.5},
        },
    },
    "control": {"initial": "midpoint", "tau0": 0.125},
}


# a verification section that runs all four checks in a few seconds
TINY_VERIFICATION = {
    "checks": ["gradient", "duality", "lipschitz", "mass"],
    "tau": 0.125,
    "gradient": {"directions": 1, "deltas": [0.2, 1e-4],
                 "slope_deltas": [0.2], "tol": 1e-6, "check_delta": 1e-4},
    "duality": {"directions": 2, "tol": 1e-9},
    "lipschitz": {"pairs": 2, "magnitudes": [1e-1, 1e-2]},
    "mass": {"tol": 1e-10},
}

# an edit value that test_malformed_field_is_config_error replaces by the
# path of a snapshot on TINY_CONFIG's grid holding one NaN
NAN_SNAPSHOT = "<snapshot holding a NaN>"


def _write(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_preset_equilibrium():
    g = ch.Grid.line(32)
    pot = ch.Potential.quartic()
    init = preset_initial_data("equilibrium", g, pot, value=0.0)
    assert np.all(init.mu0 == 0.0)
    assert np.all(init.phi0 == 0.0)
    assert np.all(init.sigma0 == 0.0)
    init = preset_initial_data("equilibrium", g, pot, value=0.5)
    assert np.all(init.mu0 == 0.5**3 - 0.5)
    for value in (1.5, 1.0):  # the domain is open
        with pytest.raises(ConfigError, match="initial.value"):
            preset_initial_data("equilibrium", g, ch.Potential.logarithmic(2.0),
                                value=value)


def test_preset_random_interior():
    g = ch.Grid.line(64)
    pot = ch.Potential.logarithmic(2.0)
    init = preset_initial_data("random_interior", g, pot, amplitude=0.1, seed=4)
    assert init.phi0.min() >= -0.1 and init.phi0.max() <= 0.1
    assert np.abs(init.phi0).max() == pytest.approx(0.1)
    # seeded determinism
    again = preset_initial_data("random_interior", g, pot, amplitude=0.1, seed=4)
    assert np.array_equal(init.phi0, again.phi0)
    # an amplitude whose scaling overflows is named as such on any domain,
    # without a RuntimeWarning; a finite one can still leave the domain
    for pot in (ch.Potential.quartic(), pot):
        with pytest.raises(ConfigError,
                           match=r"^initial.amplitude: 1e\+308 overflows phi0$"):
            preset_initial_data("random_interior", g, pot, amplitude=1e308, seed=0)
    with pytest.raises(ConfigError, match="^initial.amplitude: 1.5 puts phi0 outside"):
        preset_initial_data("random_interior", g, pot, amplitude=1.5, seed=0)


def test_preset_tanh_front():
    g = ch.Grid.line(64)
    init = preset_initial_data("tanh_front", g, ch.Potential.quartic(),
                               width=0.1, position=0.5)
    assert init.phi0[0] < -0.9 and init.phi0[-1] > 0.9
    with pytest.raises(ConfigError):
        preset_initial_data("tanh_front", g, ch.Potential.quartic(),
                            width=-1.0, position=0.5)
    with pytest.raises(ConfigError):
        preset_initial_data("no_such", g, ch.Potential.quartic())


def test_config_rejects_nonpositive_beta(tmp_path, capsys):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["model"]["beta"] = 0.0
    code = run(_write(tmp_path, cfg), out_dir=tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert "model.beta" in err and "positive" in err


@pytest.mark.parametrize("pipeline", ["simulate", "optimize", "verify"])
def test_config_rejects_crossed_bounds(tmp_path, capsys, pipeline):
    # the box belongs to optimize, yet every pipeline rejects it before a solve
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = pipeline
    cfg["bounds"] = {"lower": 2.0, "upper": 0.0}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: bounds: ")
    assert not (tmp_path / "out").exists()


def test_config_rejects_missing_field(tmp_path):
    cfg = copy.deepcopy(TINY_CONFIG)
    del cfg["model"]["alpha"]
    with pytest.raises(ConfigError, match="model.alpha"):
        parse_config(_write(tmp_path, cfg))


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_unknown_initial_keys_are_ignored(tmp_path):
    # keys named like the preset function's own parameters included
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["initial"].update({"grid": 1, "potential": "x", "name": 2, "note": "y"})
    assert np.all(parse_config(_write(tmp_path, cfg)).init.phi0 == 0.2)


def test_config_rejects_unreadable_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"pipeline": "caf\xe9"}')
    with pytest.raises(ConfigError, match="latin1.json: cannot read config"):
        parse_config(path)
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(tmp_path)


def test_config_rejects_unknown_choices(tmp_path):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "train"
    with pytest.raises(ConfigError, match="pipeline"):
        parse_config(_write(tmp_path, cfg, "a.json"))
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["model"]["potential"] = {"kind": "sextic"}
    with pytest.raises(ConfigError, match="potential"):
        parse_config(_write(tmp_path, cfg, "b.json"))
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["cost"]["b1"] = -1.0
    with pytest.raises(ConfigError, match="cost"):
        parse_config(_write(tmp_path, cfg, "c.json"))
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["cost"]["tau_star"] = 2.0
    with pytest.raises(ConfigError, match="tau_star"):
        parse_config(_write(tmp_path, cfg, "d.json"))


def test_solver_error_exit_code(tmp_path):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["initial"] = {"preset": "tanh_front", "width": 0.05, "position": 0.5}
    cfg["solver"] = {"newton_max_iter": 1}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 3


def _hash_tree(root):
    chunks = []
    for path in sorted(root.rglob("*")):
        if path.is_file():
            chunks.append(path.relative_to(root).as_posix().encode())
            chunks.append(hashlib.sha256(path.read_bytes()).digest())
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def test_simulate_artifacts_and_determinism(tmp_path):
    # identical config and seed produce bit-identical artifacts
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["output_dir"] = str(tmp_path / "out")
    cfg_path = _write(tmp_path, cfg)
    assert run(cfg_path) == 0
    out1 = tmp_path / "out"
    assert (out1 / "simulate" / "state" / "manifest.json").exists()
    assert (out1 / "simulate" / "diagnostics.csv").exists()
    assert (out1 / "simulate" / "breakdown.csv").exists()
    assert (out1 / "run_summary.json").exists()
    first = _hash_tree(out1)
    out1.rename(tmp_path / "out_first")
    assert run(cfg_path) == 0
    assert _hash_tree(out1) == first
    header = (out1 / "simulate" / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "step,newton_iters,mass_residual,delta_sep"


def test_run_summary_round_trip(tmp_path):
    cfg_path = _write(tmp_path, TINY_CONFIG)
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert "version" in summary
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(summary["config"]))
    cfg_a = parse_config(cfg_path, out_dir=out)
    cfg_b = parse_config(echo_path)
    assert cfg_b.raw == cfg_a.raw
    assert np.array_equal(cfg_b.init.phi0, cfg_a.init.phi0)
    assert cfg_b.cost.weights() == cfg_a.cost.weights()


def test_line_search_failure_exit_code(tmp_path, capsys):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "optimize"
    # c1 near 1 asks for an almost linear decrease, which one trial misses
    cfg["optimizer"] = {"max_outer_iters": 60, "grad_tol": 1e-3,
                        "armijo": {"max_backtracks": 1, "c1": 0.9999}}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 3
    assert "solver error: line search failed" in capsys.readouterr().err


def test_config_rejects_zero_backtracks(tmp_path, capsys):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "optimize"
    cfg["optimizer"] = {"armijo": {"max_backtracks": 0}}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert "optimizer.armijo.max_backtracks" in capsys.readouterr().err


def test_optimize_pipeline_artifacts(tmp_path):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "optimize"
    cfg["optimizer"] = {"max_outer_iters": 60, "grad_tol": 1e-3}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), out_dir=out) == 0
    hist = (out / "optimize" / "history.csv").read_text().splitlines()
    assert "stat_u" in hist[0] and "time_case" in hist[0]
    assert len(hist) > 2
    # every cell but the time case is a plain number a CSV reader can parse
    with open(out / "optimize" / "history.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            for key, cell in row.items():
                if key != "time_case":
                    float(cell)
    optimum = json.loads((out / "optimize" / "optimum.json").read_text())
    assert optimum["converged"]
    assert (out / "optimize" / "control" / "manifest.json").exists()


@pytest.mark.parametrize("checks, reports", [
    (["gradient", "duality", "lipschitz", "mass"],
     ["duality_check", "gradient_check", "lipschitz_check", "mass_balance"]),
    # a repeated check runs once, and the table's order is kept
    (["mass", "duality", "mass"], ["duality_check", "mass_balance"]),
], ids=["all", "repeated"])
def test_verify_pipeline_small(tmp_path, checks, reports):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "verify"
    cfg["verification"] = {**TINY_VERIFICATION, "checks": checks}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), out_dir=out) == 0
    summary = json.loads((out / "verify" / "summary.json").read_text())
    assert set(summary) == set(checks)
    assert all(entry["passed"] for entry in summary.values())
    assert sorted(path.name for path in (out / "verify").iterdir()) == sorted(
        [f"{name}.txt" for name in reports] + ["summary.json"])
    for name in reports:
        assert "PASS" in (out / "verify" / f"{name}.txt").read_text()


def test_verify_honours_seed_zero(tmp_path):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "verify"
    cfg["verification"] = {
        "checks": ["gradient"], "tau": 0.125,
        "gradient": {"directions": 1, "deltas": [0.2, 1e-4],
                     "slope_deltas": [0.2], "check_delta": 1e-4},
    }
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), seed=0, out_dir=out) == 0
    assert "seed = 0" in (out / "verify" / "gradient_check.txt").read_text()


def test_missing_seed_defaults(tmp_path):
    cfg = copy.deepcopy(TINY_CONFIG)
    del cfg["seed"]
    assert parse_config(_write(tmp_path, cfg)).seed == ch.verification.DEFAULT_SEED


def test_negative_seed_is_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "verify"
    cfg["verification"] = {"checks": ["duality"], "tau": 0.125}
    assert run(_write(tmp_path, cfg), seed=-1, out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: config.seed: ")
    cfg["seed"] = -1
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: config.seed: ")
    cfg["seed"] = 3
    cfg["initial"] = {"preset": "random_interior", "amplitude": 0.1, "seed": -1}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: initial.seed: ")


def test_non_integer_seed_is_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "verify"
    cfg["verification"] = {"checks": ["duality"], "tau": 0.125}
    cfg["seed"] = "abc"
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: config.seed: ")
    cfg["seed"] = 3
    cfg["initial"] = {"preset": "random_interior", "amplitude": 0.1, "seed": "abc"}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("config error: initial.seed: ")


def test_verification_failure_exit_code(tmp_path):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "verify"
    cfg["verification"] = {
        "checks": ["mass"],
        "tau": 0.125,
        "mass": {"tol": 1e-30},  # unsatisfiable on purpose
    }
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 4


def test_initial_from_snapshots(tmp_path):
    g = ch.Grid.line(32)
    rng = np.random.default_rng(8)
    paths = {}
    for name in ("mu", "phi", "sigma"):
        p = tmp_path / f"{name}.fld"
        ch.write_snapshot(p, g, rng.uniform(-0.5, 0.5, g.shape))
        paths[name] = str(p)
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["initial"] = {"snapshots": paths}
    parsed = parse_config(_write(tmp_path, cfg))
    assert parsed.init.phi0.shape == g.shape
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 0


@pytest.mark.parametrize("defect", ["missing", "bad_magic", "truncated",
                                    "wrong_grid", "nan", "not_a_path"])
def test_bad_snapshot_is_config_error(tmp_path, capsys, defect):
    g = ch.Grid.line(32)
    paths = {}
    for name in ("mu", "phi", "sigma"):
        p = tmp_path / f"{name}.fld"
        ch.write_snapshot(p, g, g.full(0.1))
        paths[name] = str(p)
    bad = tmp_path / "phi.fld"
    if defect == "missing":
        bad.unlink()
    elif defect == "bad_magic":
        bad.write_bytes(b"NOTFLD" + bad.read_bytes()[6:])
    elif defect == "truncated":
        bad.write_bytes(bad.read_bytes()[:-12])
    elif defect == "not_a_path":
        paths["phi"] = 0  # open() would take it as a file descriptor
    elif defect == "wrong_grid":
        ch.write_snapshot(bad, ch.Grid.line(16), ch.Grid.line(16).full(0.1))
    else:
        ch.write_snapshot(bad, g, np.where(g.axis_centers() < 0.5, 0.1, np.nan))
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["initial"] = {"snapshots": paths}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: initial.snapshots.phi: ")


def test_newton_settings_reach_optimize(tmp_path, capsys):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "optimize"
    cfg["optimizer"] = {"max_outer_iters": 60, "grad_tol": 1e-3}
    cfg["solver"] = {"newton_max_iter": 0}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 3
    assert "Newton did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("verification.duality", "directions", 0),
    ("verification.gradient", "directions", 0),
    ("verification.lipschitz", "pairs", 0),
    ("solver", "newton_max_iter", "many"),
    ("solver", "newton_tol", "tight"),
    ("verification.gradient", "deltas", []),
    ("verification.gradient", "deltas", [0.2, -1e-4]),
    ("verification.gradient", "check_delta", 0.3),
    ("verification.lipschitz", "magnitudes", []),
    ("verification.lipschitz", "magnitudes", [0.1, 0.0]),
    ("optimizer", "max_outer_iters", "many"),
    ("optimizer", "grad_tol", "tight"),
    ("optimizer.armijo", "c1", "small"),
    ("optimizer.armijo", "max_backtracks", 2.5),
    ("control", "tau0", "half"),
], ids=["duality-directions", "gradient-directions", "lipschitz-pairs",
        "newton-max-iter", "newton-tol", "deltas-empty", "deltas-negative",
        "check-delta", "magnitudes-empty", "magnitudes-zero", "max-outer-iters",
        "grad-tol", "armijo-c1", "max-backtracks", "tau0"])
def test_bad_count_or_list_is_config_error(tmp_path, capsys, section, key, value):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "verify"
    node = cfg
    for part in section.split("."):
        node = node.setdefault(part, {})
    node[key] = value
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"config error: {section}.{key}: ")


@pytest.mark.parametrize("edits, field", [
    ({"grid.n": "abc"}, "grid.n"),
    ({"grid.n": 16}, "grid.n"),
    ({"grid.n": [16.5]}, "grid.n"),
    ({"grid.extents": ["a"]}, "grid.extents"),
    ({"time.steps": 2.5}, "time.steps"),
    ({"initial.value": "x"}, "initial.value"),
    ({"initial": {"preset": "random_interior", "amplitude": "x"}}, "initial.amplitude"),
    ({"initial": {"preset": "tanh_front", "width": "w", "position": 0.5}},
     "initial.width"),
    ({"cost.targets.phi_q": {"constant": "x"}}, "cost.targets.phi_q.constant"),
    ({"cost.targets.phi_q": {"constant": True}}, "cost.targets.phi_q.constant"),
    ({"model.potential": {"kind": "logarithmic", "lam": 2.0},
      "initial": {"preset": "tanh_front", "width": 1e-3, "position": 0.5}},
     "initial.width"),
    ({"output_dir": 5}, "config.output_dir"),
    ({"model": [TINY_CONFIG["model"]]}, "model"),
    (None, "config"),
    ({"cost.b1": math.nan}, "cost.b1"),
    ({"cost.b0": math.inf}, "cost.b0"),
    ({"cost.relaxation": {"gamma": 1.0, "eps": math.nan,
                          "sigma_omega": {"constant": 0.5}}}, "cost.relaxation.eps"),
    ({"cost.targets.phi_q": {"constant": math.nan}}, "cost.targets.phi_q.constant"),
    ({"control.initial": math.nan}, "control.initial"),
    ({"model.proliferation.p0": math.inf}, "model.proliferation.p0"),
    ({"bounds.lower": NAN_SNAPSHOT}, "bounds.lower"),
    ({"cost.relaxation": {"gamma": 1.0, "eps": 0.05, "sigma_omega": {}},
      "cost.relaxation.sigma_omega.snapshot": NAN_SNAPSHOT},
     "cost.relaxation.sigma_omega.snapshot"),
], ids=["n-string", "n-number", "n-fraction", "extents-string", "steps-fraction",
        "value-string", "amplitude-string", "width-string", "constant-string",
        "constant-bool", "front-leaves-log-domain", "output-dir-number", "model-list",
        "top-level-list", "b1-nan", "b0-inf", "eps-nan", "constant-nan",
        "control-initial-nan", "p0-inf", "lower-nan-snapshot",
        "sigma-omega-nan-snapshot"])
def test_malformed_field_is_config_error(tmp_path, capsys, edits, field):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["output_dir"] = str(tmp_path / "out")
    for dotted, value in (edits or {}).items():
        if value == NAN_SNAPSHOT:
            grid, value = ch.Grid.line(32), str(tmp_path / "nan.fld")
            ch.write_snapshot(value, grid, np.where(grid.axis_centers() < 0.5, 0.5,
                                                    np.nan))
        *parents, key = dotted.split(".")
        node = cfg
        for part in parents:
            node = node[part]
        node[key] = value
    # no out_dir argument: it would replace a bad output_dir
    assert run(_write(tmp_path, cfg if edits else [cfg])) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


@pytest.mark.parametrize("inside", [False, True], ids=["file", "below-file"])
def test_output_dir_on_a_file_is_config_error(tmp_path, capsys, inside):
    cfg = copy.deepcopy(TINY_CONFIG)
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg["output_dir"] = str(taken / "out" if inside else taken)
    assert run(_write(tmp_path, cfg)) == 2
    assert capsys.readouterr().err.startswith("config error: config.output_dir: ")


@pytest.mark.parametrize("pipeline", ["simulate", "optimize", "verify"])
def test_unwritable_pipeline_dir_is_config_error(tmp_path, capsys, pipeline):
    # a file where the pipeline's subdirectory goes: the write fails after
    # the solve, and the run names the path instead of ending in a traceback
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = pipeline
    cfg["optimizer"] = {"max_outer_iters": 1}
    cfg["verification"] = {"checks": ["mass"]}
    out = tmp_path / "out"
    out.mkdir()
    (out / pipeline).write_text("")
    assert run(_write(tmp_path, cfg), out_dir=out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.output_dir: cannot write "
                          f"{str(out / pipeline)!r} ("), err


def test_target_from_manifest(tmp_path):
    # a time-dependent tracking target loaded from a trajectory manifest
    g = ch.Grid.line(32)
    tg = ch.TimeGrid(0.25, 16)
    data = np.zeros((17, 3) + g.shape)
    data[:, 1] = np.linspace(-0.5, -0.2, 17)[:, None]
    target = ch.Trajectory(g, tg, data, ("mu", "phi", "sigma"))
    manifest = ch.write_trajectory(tmp_path / "target", target)
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["cost"]["targets"]["phi_q"] = {"manifest": str(manifest),
                                       "component": "phi"}
    parsed = parse_config(_write(tmp_path, cfg))
    assert parsed.cost.phi_q.shape == (17,) + g.shape
    assert parsed.cost.phi_q[0, 0] == -0.5 and parsed.cost.phi_q[-1, 0] == -0.2
    # an unknown component, a truncated snapshot or a missing manifest is a
    # config error on the field
    cfg["cost"]["targets"]["phi_q"]["component"] = "nutrient"
    with pytest.raises(ConfigError, match="cost.targets.phi_q.manifest"):
        parse_config(_write(tmp_path, cfg))
    cfg["cost"]["targets"]["phi_q"]["component"] = "phi"
    snap = tmp_path / "target" / "phi_00003.fld"
    snap.write_bytes(snap.read_bytes()[:-8])
    with pytest.raises(ConfigError, match="cost.targets.phi_q.manifest"):
        parse_config(_write(tmp_path, cfg))
    manifest.unlink()
    with pytest.raises(ConfigError, match="cost.targets.phi_q.manifest"):
        parse_config(_write(tmp_path, cfg))
    # so is a trajectory holding a non-finite value
    data[3, 1, 0] = np.nan
    nan_target = ch.Trajectory(g, tg, data, ("mu", "phi", "sigma"))
    cfg["cost"]["targets"]["phi_q"]["manifest"] = str(
        ch.write_trajectory(tmp_path / "nan", nan_target))
    with pytest.raises(ConfigError, match="cost.targets.phi_q.manifest: .*non-finite"):
        parse_config(_write(tmp_path, cfg))


def test_cli_main_entry(tmp_path, capsys):
    cfg_path = _write(tmp_path, TINY_CONFIG)
    with pytest.raises(SystemExit) as exc:
        from chcontrol.cli import main
        main(["simulate", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    assert exc.value.code == 0


def test_shipped_verify_suite(tmp_path):
    # the shipped verification config passes all four checks end to end
    import pathlib

    cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "verify-suite.json"
    out = tmp_path / "verify"
    assert run(cfg, out_dir=out) == 0
    summary = json.loads((out / "verify" / "summary.json").read_text())
    assert set(summary) == {"gradient", "duality", "lipschitz", "mass"}
    assert all(entry["passed"] for entry in summary.values())

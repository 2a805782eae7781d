import copy
import csv
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import chcontrol as ch
import chcontrol.cli as cli_module
import chcontrol.optimizer as optimizer_module
import chcontrol.verification as verification_module
from chcontrol.cli import _FIELDS, parse_config, preset_initial_data, run
from chcontrol.errors import ConfigError, SolverError
from conftest import run_fresh

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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
    "gradient": {"directions": 1, "deltas": [0.2, 1e-4], "tol": 1e-6},
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
    # a finite phi0 whose F'(phi0) overflows is named, without a RuntimeWarning
    with pytest.raises(ConfigError,
                       match=r"^initial.value: 1e\+200 overflows mu0 = F'\(phi0\)$"):
        preset_initial_data("equilibrium", g, pot, value=1e200)
    with pytest.raises(ConfigError, match="^initial.note: unknown field$"):
        preset_initial_data("equilibrium", g, pot, value=0.5, note="x")
    # the domain is open, and its window ends 2e-6 inside it
    for value in (1.5, 1.0, 1.0 - 1e-6):
        with pytest.raises(ConfigError, match="^initial.value: "):
            preset_initial_data("equilibrium", g, ch.Potential.logarithmic(2.0),
                                value=value)


def _random_interior_reference(grid, amplitude, seed):
    """``random_interior`` written out per dimension: the bits the preset
    keeps."""
    rng = np.random.default_rng(seed)
    phi = np.zeros(grid.shape)
    x = grid.axis_centers(0) / grid.extents[0]
    if grid.dim == 1:
        for m in range(1, 5):
            phi += rng.standard_normal() / m**2 * np.cos(np.pi * m * x)
    else:
        y = grid.axis_centers(1) / grid.extents[1]
        for m in range(5):
            for l in range(5):
                if m == l == 0:
                    continue
                phi += (rng.standard_normal() / (m**2 + l**2)
                        * np.outer(np.cos(np.pi * m * x), np.cos(np.pi * l * y)))
    phi *= amplitude / float(np.abs(phi).max())
    return phi


def test_preset_random_interior():
    pot = ch.Potential.quartic()
    for g in (ch.Grid.line(128), ch.Grid.line(17, 2.0), ch.Grid((24, 9), (1.0, 0.3))):
        for seed in (0, 1, 4, 11):
            init = preset_initial_data("random_interior", g, pot, amplitude=0.3, seed=seed)
            ref = _random_interior_reference(g, 0.3, seed)
            assert init.phi0.tobytes() == ref.tobytes()
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
    with pytest.raises(ConfigError,
                       match=r"^initial.amplitude: 1e\+150 overflows mu0 = F'\(phi0\)$"):
        preset_initial_data("random_interior", g, ch.Potential.quartic(),
                            amplitude=1e150, seed=0)


def test_preset_tanh_front():
    g = ch.Grid.line(64)
    init = preset_initial_data("tanh_front", g, ch.Potential.quartic(),
                               width=0.1, position=0.5)
    assert init.phi0[0] < -0.9 and init.phi0[-1] > 0.9
    # in 2D the front runs along the first axis: every column is the 1D profile
    plane = preset_initial_data("tanh_front", ch.Grid.rectangle(64, 5),
                                ch.Potential.quartic(), width=0.1, position=0.5)
    assert plane.phi0.shape == (64, 5)
    assert all(np.array_equal(plane.phi0[:, j], init.phi0) for j in range(5))
    # bit for bit the profile tanh((x - position) / width), repeated across
    # the second axis
    for g in (ch.Grid.line(17, 2.0), ch.Grid((24, 9), (1.0, 0.3))):
        x = g.axis_centers(0)
        for width, position in ((0.1, 0.5), (0.05, 0.3), (0.3, 0.0)):
            ref = np.tanh((x - position) / width)
            if g.dim == 2:
                ref = np.repeat(ref[:, None], g.n[1], axis=1)
            front = preset_initial_data("tanh_front", g, ch.Potential.quartic(),
                                        width=width, position=position)
            assert front.phi0.tobytes() == ref.tobytes()
    with pytest.raises(ConfigError):
        preset_initial_data("tanh_front", g, ch.Potential.quartic(),
                            width=-1.0, position=0.5)
    # on [0, 8] with 128 cells, a front at 4 narrower than 0.6 leaves the
    # window [-1 + 2e-6, 1 - 2e-6] the logarithmic march holds phi in
    line, log = ch.Grid.line(128, 8.0), ch.Potential.logarithmic(2.0)
    for width in (0.5, 0.55):
        with pytest.raises(ConfigError, match=f"^initial.width: {width} puts phi0 "
                                              r"outside \[-0.999998, 0.999998\]"):
            preset_initial_data("tanh_front", line, log, width=width, position=4.0)
    front = preset_initial_data("tanh_front", line, log, width=0.6, position=4.0)
    assert log.distance(front.phi0) > log.margin
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


def test_unknown_initial_keys_are_config_errors(tmp_path, capsys):
    # keys named like the preset function's own parameters included: a
    # ConfigError naming the key, never a TypeError from the call
    for key in ("grid", "potential", "name", "note"):
        cfg = copy.deepcopy(TINY_CONFIG)
        cfg["initial"][key] = 1
        assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
        assert capsys.readouterr().err == f"config error: initial.{key}: unknown field\n"


@pytest.mark.parametrize("section, key", [
    ("solver", "newton_tl"), ("config", "optimiser"), ("cost", "b7"),
    ("model", "potential.kind"), ("cost.targets.phi_q", "snapshot"),
    ("config", "verification.seed"),
    ("verification", "seed"), ("verification.gradient", "slope_deltas"),
    ("verification.gradient", "check_delta"), ("optimizer", "armijo"),
    ("verification.lipschitz", "pair_spread_tol"),
    ("verification.lipschitz", "magnitude_spread_tol"),
], ids=["typo", "section", "weight", "dotted-row-path", "union-form", "dotted-root",
        "verification-seed", "slope-deltas", "check-delta", "armijo",
        "pair-spread-tol", "magnitude-spread-tol"])
def test_unknown_field_is_config_error(tmp_path, capsys, section, key):
    # a key that is no row of the table, the removed verification and
    # line-search settings included, exits 2 naming itself
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "verify"
    cfg["verification"] = copy.deepcopy(TINY_VERIFICATION)
    node = cfg
    if section != "config":
        for part in section.split("."):
            node = node.setdefault(part, {})
    node[key] = 1
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: {section}.{key}: unknown field\n"
    assert not (tmp_path / "out").exists()


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


def test_newton_divergence_message_names_the_budget(tmp_path, capsys):
    # with no iteration allowed the message gives the budget, not a dt hint
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["initial"] = {"preset": "tanh_front", "width": 0.05, "position": 0.5}
    for budget, hint in ((0, ""), (1, " (dt too large?)")):
        cfg["solver"] = {"newton_max_iter": budget}
        assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("solver error: Newton did not converge at step 1")
        assert err.endswith(f"after {budget} iterations{hint}")


def test_step_solve_error_exit_code(tmp_path, capsys, monkeypatch):
    # a 2D sweep whose GMRES cannot meet its backward error bound (0 here)
    # exits 3 and names the backward error it reached
    monkeypatch.setattr(ch.system, "ETA", 0.0)
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "verify"
    cfg["grid"] = {"n": [8, 6], "extents": [1.0, 0.8]}
    cfg["verification"] = {**TINY_VERIFICATION, "checks": ["duality"]}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "GMRES step solve stopped at normwise backward error" in err
    assert "above its bound 0e+00" in err


def _hash_tree(root, skip=()):
    chunks = []
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in skip:
            chunks.append(path.relative_to(root).as_posix().encode())
            chunks.append(hashlib.sha256(path.read_bytes()).digest())
    return hashlib.sha256(b"".join(chunks)).hexdigest()


def _summary_without_output_dir(root):
    summary = json.loads((root / "run_summary.json").read_text())
    del summary["config"]["output_dir"]
    return summary


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
    # nor does the output path enter, but for its echo in run_summary.json
    out2 = tmp_path / "a longer output path"
    assert run(cfg_path, out_dir=out2) == 0
    skip = ("run_summary.json",)
    assert _hash_tree(out2, skip) == _hash_tree(out1, skip)
    assert _summary_without_output_dir(out2) == _summary_without_output_dir(out1)
    header = (out1 / "simulate" / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "step,newton_iters,mass_residual,delta_sep"


@pytest.mark.parametrize("control, frame", [(0.0, "first"), (2.0, "last")])
def test_simulate_reports_separation_from_the_march(tmp_path, control, frame):
    # delta_sep and argmin_frame are the minimum of the per-frame distance to
    # the domain boundary and its frame, frame 0 included
    cfg = json.loads((CONFIGS / "log-separation.json").read_text())
    cfg["grid"]["n"] = [32]
    cfg["time"]["steps"] = 64
    cfg["control"]["initial"] = control
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    result = json.loads((out / "run_summary.json").read_text())["results"]["simulate"]
    parsed = parse_config(cfg_path)
    state = ch.read_trajectory(out / "simulate" / "state" / "manifest.json")
    per_frame = [parsed.params.potential.distance(phi) for phi in state.phi]
    k = int(np.argmin(per_frame))
    assert k == {"first": 0, "last": 64}[frame]
    assert result["argmin_frame"] == k
    assert result["delta_sep"] == per_frame[k]


def test_run_summary_round_trip(tmp_path):
    cfg_path = _write(tmp_path, TINY_CONFIG)
    out = tmp_path / "out"
    assert run(cfg_path, out_dir=out) == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["version"] == ch.__version__
    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(summary["config"]))
    cfg_a = parse_config(cfg_path, out_dir=out)
    cfg_b = parse_config(echo_path)
    assert cfg_b.raw == cfg_a.raw
    assert np.array_equal(cfg_b.init.phi0, cfg_a.init.phi0)
    assert cfg_b.cost.weights() == cfg_a.cost.weights()


def test_version_has_one_source():
    # pyproject.toml holds no version of its own: it reads chcontrol.__version__
    tomllib = pytest.importorskip("tomllib")
    with open(CONFIGS.parent / "pyproject.toml", "rb") as fh:
        pyproject = tomllib.load(fh)
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "chcontrol.__version__"}


def test_line_search_failure_exit_code(tmp_path, capsys, monkeypatch):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "optimize"
    cfg["optimizer"] = {"max_outer_iters": 60, "grad_tol": 1e-3}
    # c1 near 1 asks for an almost linear decrease, which one trial misses
    monkeypatch.setattr(optimizer_module, "ARMIJO_C1", 0.9999)
    monkeypatch.setattr(optimizer_module, "ARMIJO_MAX_BACKTRACKS", 1)
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 3
    assert "solver error: line search failed" in capsys.readouterr().err


def _failing_trial_config(monkeypatch, **constants):
    """An optimize run on log-separation.json (32 cells, 64 steps) whose
    base solve at u = 0 passes and whose first Armijo trial, a step of 1e5
    to the upper bound 50, does not: Newton stalls at step 23. The
    line-search constants of ``optimizer`` named in ``constants`` take the
    values given for the test."""
    for name, value in {"ARMIJO_S0": 1e5, **constants}.items():
        monkeypatch.setattr(optimizer_module, name, value)
    cfg = json.loads((CONFIGS / "log-separation.json").read_text())
    cfg["pipeline"] = "optimize"
    cfg["grid"]["n"] = [32]
    cfg["time"]["steps"] = 64
    cfg["control"]["initial"] = 0.0
    cfg["bounds"]["upper"] = 50
    cfg["cost"]["b5"] = 0
    cfg["cost"]["b6"] = 100
    cfg["cost"]["targets"]["phi_q"] = {"constant": 0.9}
    cfg["cost"]["targets"]["phi_omega"] = {"constant": 0.9}
    cfg["optimizer"] = {"max_outer_iters": 3}
    return cfg


@pytest.fixture
def trial_failures(monkeypatch):
    """The solver errors raised by the forward solves of ``optimize``."""
    failures = []
    solve = ch.solve_state

    def recording_solve_state(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except SolverError as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(optimizer_module, "solve_state", recording_solve_state)
    return failures


def test_failed_armijo_trial_backtracks(tmp_path, trial_failures, monkeypatch):
    # a trial whose forward solve fails is a rejected trial, not a failed run
    out = tmp_path / "out"
    cfg = _failing_trial_config(monkeypatch)
    assert run(_write(tmp_path, cfg), out_dir=out) == 0
    assert trial_failures
    assert all(isinstance(exc, ch.NewtonDivergenceError) for exc in trial_failures)
    optimum = json.loads((out / "optimize" / "optimum.json").read_text())
    assert optimum["iterations"] >= 2


def test_every_armijo_trial_failing_exits_3(tmp_path, capsys, trial_failures,
                                            monkeypatch):
    cfg = _failing_trial_config(monkeypatch, ARMIJO_MAX_BACKTRACKS=2,
                                ARMIJO_BACKTRACK=0.99)
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 3
    assert len(trial_failures) == 2
    err = capsys.readouterr().err
    assert "solver error: line search failed in control block" in err
    assert "2 trial solves failed, the last with: Newton did not converge" in err


def test_optimize_pipeline_artifacts(tmp_path, trial_failures, monkeypatch):
    results = []

    def keeping_optimize(*args, **kwargs):
        results.append(optimize(*args, **kwargs))
        return results[-1]

    optimize = cli_module.optimize
    monkeypatch.setattr(cli_module, "optimize", keeping_optimize)
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "optimize"
    cfg["optimizer"] = {"max_outer_iters": 60, "grad_tol": 1e-3}
    out = tmp_path / "out"
    assert run(_write(tmp_path, cfg), out_dir=out) == 0
    # no trial solve fails, so the rejected-trial rule never fires
    assert trial_failures == []
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
    # the control is the one-component trajectory u, holding u_opt
    control = ch.read_trajectory(out / "optimize" / "control" / "manifest.json")
    assert control.names == ("u",)
    assert control.u.tobytes() == results[0].u_opt.tobytes()
    assert sorted(p.name for p in (out / "optimize" / "control").iterdir()) == (
        ["manifest.json"] + [f"u_{k:05d}.fld" for k in range(control.nframes)])
    # the artifacts do not depend on the output path, but for its echo
    out2 = tmp_path / "a longer output path"
    assert run(_write(tmp_path, cfg), out_dir=out2) == 0
    skip = ("run_summary.json",)
    assert _hash_tree(out2, skip) == _hash_tree(out, skip)
    assert _summary_without_output_dir(out2) == _summary_without_output_dir(out)
    # the last row re-reports the last iteration at the continuous tau, and
    # iterations counts outer iterations, not rows
    last, again = [int(row.split(",")[0]) for row in hist[-2:]]
    assert last == again and optimum["iterations"] == last + 1 == len(hist) - 2


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


def test_all_pipeline_shares_the_base_solve(tmp_path, monkeypatch):
    # "all" hands the simulate trajectory to verify as its base solve
    calls = []
    solve = ch.solve_state

    def counting_solve_state(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    for module in (cli_module, optimizer_module, verification_module):
        monkeypatch.setattr(module, "solve_state", counting_solve_state)
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["optimizer"] = {"max_outer_iters": 2}
    cfg["verification"] = {**TINY_VERIFICATION, "checks": ["duality", "mass"]}
    counts = {}
    for pipeline in ("simulate", "optimize", "verify", "all"):
        cfg["pipeline"] = pipeline
        before = len(calls)
        assert run(_write(tmp_path, cfg, f"{pipeline}.json"),
                   out_dir=tmp_path / pipeline) == 0
        counts[pipeline] = len(calls) - before
    assert counts["all"] == counts["simulate"] + counts["optimize"] + counts["verify"] - 1
    for pipeline in ("simulate", "optimize", "verify"):
        assert (_hash_tree(tmp_path / "all" / pipeline)
                == _hash_tree(tmp_path / pipeline / pipeline)), pipeline


def test_verify_honours_seed_zero(tmp_path):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "verify"
    cfg["verification"] = {
        "checks": ["gradient"], "tau": 0.125,
        "gradient": {"directions": 1, "deltas": [0.2, 1e-4]},
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
                                    "wrong_grid", "nan", "not_a_path",
                                    "near_wall", "on_wall"])
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
    elif defect == "nan":
        ch.write_snapshot(bad, g, np.where(g.axis_centers() < 0.5, 0.1, np.nan))
    else:
        # inside (-1, 1), or on its end, but outside the window the march
        # clips phi into: a start it could not hold
        wall = 1.0 - 1e-6 if defect == "near_wall" else 1.0
        ch.write_snapshot(bad, g, np.where(g.axis_centers() < 0.5, 0.1, wall))
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["model"]["potential"] = {"kind": "logarithmic", "lam": 2.0}
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
    ("verification.gradient", "deltas", [0.5, 0.5, 1e-4]),
    ("verification.lipschitz", "magnitudes", [1e-2, 0.1, 1e-2]),
    ("optimizer", "max_outer_iters", "many"),
    ("optimizer", "grad_tol", "tight"),
    ("control", "tau0", "half"),
], ids=["duality-directions", "gradient-directions", "lipschitz-pairs",
        "newton-max-iter", "newton-tol", "deltas-empty", "deltas-negative",
        "check-delta", "magnitudes-empty", "magnitudes-zero", "deltas-repeated",
        "magnitudes-repeated", "max-outer-iters",
        "grad-tol", "tau0"])
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
    ({"time.steps": 10**400}, "time.steps"),
    ({"grid.n": [10**400]}, "grid.n"),
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
    ({"control.tau0": 2.0}, "control.tau0"),
    ({"verification": {"tau": -0.1}}, "verification.tau"),
    ({"control.initial": "lower"}, "control.initial"),
    ({f"cost.b{i}": 0.0 for i in range(7)}, "cost"),
    ({**{f"cost.b{i}": 0.0 for i in range(7)},
      "cost.relaxation": {"gamma": 0.0, "eps": 0.05, "sigma_omega": {"constant": 0.5}}},
     "cost"),
    ({"cost.relaxation": {"gamma": -1.0, "eps": 0.05,
                          "sigma_omega": {"constant": 0.5}}}, "cost.relaxation.gamma"),
    ({"cost.relaxation": {"gamma": 1.0, "eps": 0.0,
                          "sigma_omega": {"constant": 0.5}}}, "cost.relaxation.eps"),
    ({"solver": {"newton_tol": 0.0}}, "solver.newton_tol"),
    ({"solver": {"newton_tol": -1e-11}}, "solver.newton_tol"),
    ({"solver": {"newton_max_iter": -1}}, "solver.newton_max_iter"),
    ({"solver": {"newton_max_iter": 2.5}}, "solver.newton_max_iter"),
    ({"optimizer": {"max_outer_iters": -1}}, "optimizer.max_outer_iters"),
    ({"optimizer": {"grad_tol": 0.0}}, "optimizer.grad_tol"),
    ({"optimizer": {"grad_tol": -1e-5}}, "optimizer.grad_tol"),
], ids=["n-string", "n-number", "n-fraction", "extents-string", "steps-fraction",
        "steps-beyond-float", "n-beyond-float",
        "value-string", "amplitude-string", "width-string", "constant-string",
        "constant-bool", "front-leaves-log-domain", "output-dir-number", "model-list",
        "top-level-list", "b1-nan", "b0-inf", "eps-nan", "constant-nan",
        "control-initial-nan", "p0-inf", "lower-nan-snapshot",
        "sigma-omega-nan-snapshot", "tau0-outside", "verification-tau-outside",
        "control-initial-word", "weights-all-zero", "weights-and-gamma-zero",
        "gamma-negative", "eps-zero",
        "newton-tol-zero", "newton-tol-negative", "newton-max-iter-negative",
        "newton-max-iter-fraction", "max-outer-iters-negative", "grad-tol-zero",
        "grad-tol-negative"])
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


@pytest.mark.parametrize("grids", ["horizon", "box"])
def test_target_on_other_grids_is_config_error(tmp_path, capsys, grids):
    # a target recorded on another horizon or box is not the configured one,
    # even with the same frame count and cell shape
    cfg = json.loads((CONFIGS / "log-separation.json").read_text())
    cfg["grid"]["n"] = [16]
    cfg["time"]["steps"] = 16
    g, tg = ch.Grid((16,), (1.0,)), ch.TimeGrid(1.0, 16)
    if grids == "horizon":
        tg = ch.TimeGrid(100.0, 16)
    else:
        g = ch.Grid((16,), (5.0,))
    target = ch.Trajectory(g, tg, np.zeros((17, 3, 16)), ("mu", "phi", "sigma"))
    manifest = ch.write_trajectory(tmp_path / "target", target)
    cfg["cost"]["targets"]["phi_q"] = {"manifest": str(manifest)}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        "config error: cost.targets.phi_q.manifest: trajectory does not match "
        "the configured grids\n")


@pytest.mark.parametrize("malformed", ["manifest-list", "components-list"])
def test_manifest_not_an_object_is_config_error(tmp_path, capsys, malformed):
    g, tg = ch.Grid.line(32), ch.TimeGrid(0.25, 16)
    target = ch.Trajectory(g, tg, np.zeros((17, 3, 32)), ("mu", "phi", "sigma"))
    manifest = ch.write_trajectory(tmp_path / "target", target)
    if malformed == "manifest-list":
        manifest.write_text("[1, 2]")
    else:
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "components": ["a"]}))
    with pytest.raises(ch.ShapeMismatchError):
        ch.read_trajectory(manifest)
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["cost"]["targets"]["phi_q"] = {"manifest": str(manifest)}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(
        "config error: cost.targets.phi_q.manifest: cannot read trajectory")


@pytest.mark.parametrize("section, key, value", [("grid", "n", [2]),
                                                  ("time", "steps", 0)])
def test_manifest_on_a_bad_grid_is_config_error(tmp_path, capsys, section, key, value):
    # read_trajectory builds the manifest's own grids; their error is the
    # target field's, not the configured grid's
    g, tg = ch.Grid.line(32), ch.TimeGrid(0.25, 16)
    target = ch.Trajectory(g, tg, np.zeros((17, 3, 32)), ("mu", "phi", "sigma"))
    manifest = ch.write_trajectory(tmp_path / "target", target)
    doc = json.loads(manifest.read_text())
    doc[section][key] = value
    manifest.write_text(json.dumps(doc))
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["cost"]["targets"]["phi_q"] = {"manifest": str(manifest)}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cost.targets.phi_q.manifest: cannot read trajectory "
        f"({section}.{key}: ")


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_configs_parse(path):
    cfg = parse_config(path)
    assert cfg.pipeline == json.loads(path.read_text())["pipeline"]


@pytest.mark.parametrize("extent", [1e160, 1e-160])
def test_extent_beyond_the_stencil_weight_is_config_error(tmp_path, capsys, extent):
    # 1/h^2 overflows (or h^2 underflows to zero): exit 2 on grid.extents,
    # no traceback
    cfg = json.loads((CONFIGS / "log-separation.json").read_text())
    cfg["grid"]["extents"] = [extent]
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid.extents: ") and "1/h^2" in err, err


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    # an allocation that fails ends in exit 3 with a message naming the
    # fields that size it, not in a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli_module, "preset_initial_data", exhausted)
    assert run(_write(tmp_path, TINY_CONFIG), out_dir=tmp_path / "out") == 3
    err = capsys.readouterr().err
    assert "out of memory" in err and "grid.n" in err and "time.steps" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [("grid.n", [10**18]), ("time.steps", 10**18)])
def test_oversized_counts_exit_2_before_allocating(tmp_path, capsys, field, value):
    section, key = field.split(".")
    cfg = {**TINY_CONFIG, section: {**TINY_CONFIG[section], key: value}}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: grid.n, time.steps: one trajectory of ")
    assert "physical memory" in err and "Traceback" not in err


@pytest.mark.parametrize("n, field", [([-3], "grid.n"), ([16], "time.steps")])
def test_memory_check_reads_a_checked_grid(tmp_path, capsys, n, field):
    # a negative step count makes the trajectory's size negative: the grid
    # is refused before the memory check reads it, the steps after it
    cfg = {**TINY_CONFIG, "grid": {**TINY_CONFIG["grid"], "n": n},
           "time": {**TINY_CONFIG["time"], "steps": -10**18}}
    assert run(_write(tmp_path, cfg), out_dir=tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")


def test_trajectory_beyond_physical_memory_is_config_error(tmp_path, capsys, monkeypatch):
    # one trajectory of the tiny config: (steps+1) * 3 * cells * 8 B
    need = ((TINY_CONFIG["time"]["steps"] + 1) * 3
            * int(np.prod(TINY_CONFIG["grid"]["n"])) * 8)
    cfg_path = _write(tmp_path, TINY_CONFIG)
    monkeypatch.setattr(cli_module, "_physical_memory", lambda: need - 1)
    assert run(cfg_path, out_dir=tmp_path / "small") == 2
    err = capsys.readouterr().err
    assert err == (f"config error: grid.n, time.steps: one trajectory of "
                   f"{TINY_CONFIG['time']['steps']} steps on "
                   f"{int(np.prod(TINY_CONFIG['grid']['n']))} cells takes {need:.3e} B, "
                   f"more than the {need - 1:.3e} B of physical memory\n")
    assert not (tmp_path / "small").exists()
    # a trajectory that just fits runs, as does one where the figure is unknown
    for memory in (need, None):
        monkeypatch.setattr(cli_module, "_physical_memory", lambda: memory)
        assert run(cfg_path, out_dir=tmp_path / "fits") == 0


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


@pytest.mark.parametrize("edit", ["quadratic", "tau-node-0"])
def test_gradient_check_exact_differences_pass(tmp_path, edit):
    # a cost quadratic in u (no tracking terms), or a check at node 0, has
    # central differences exact to roundoff: the slope fit on them is
    # noise, and the check passes on its errors
    cfg = json.loads((CONFIGS / "verify-suite.json").read_text())
    cfg["grid"]["n"] = [16]
    cfg["time"]["steps"] = 16
    if edit == "quadratic":
        cfg["cost"]["b1"] = cfg["cost"]["b3"] = 0
    else:
        cfg["verification"]["tau"] = 0
    out = tmp_path / "verify"
    assert run(_write(tmp_path, cfg), out_dir=out) == 0
    summary = json.loads((out / "verify" / "summary.json").read_text())
    assert summary["gradient"]["passed"]


@pytest.mark.parametrize("width", [1e-300, 1e-310])
def test_narrow_ramp_verifies_without_warnings(tmp_path, width):
    # at proliferation width 1e-300, cosh in dP overflows to inf wherever
    # phi is not 0, where the derivative is 0 indeed: no warning escapes;
    # at the subnormal 1e-310, r / width in P and 0.5 p0 / width in dP
    # overflow as well
    cfg = json.loads((CONFIGS / "verify-suite.json").read_text())
    cfg["model"]["proliferation"]["width"] = width
    cfg["grid"]["n"] = [16]
    cfg["time"]["steps"] = 16
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(_write(tmp_path, cfg), out_dir=tmp_path / "verify") == 0


def test_shipped_verify_2d_at_16(tmp_path):
    # the shipped 2D oracle suite, refined down to 16x16: all four checks
    # pass at the default gates
    cfg = json.loads((CONFIGS / "verify-2d.json").read_text())
    vd = cfg["verification"]
    for path, (_, _, default) in _FIELDS.items():
        if path.startswith("verification.") and path.endswith("tol"):
            _, section, key = path.split(".")
            assert vd.get(section, {}).get(key, default) == default, path
    cfg["grid"]["n"] = [16, 16]
    out = tmp_path / "verify"
    assert run(_write(tmp_path, cfg), out_dir=out) == 0
    summary = json.loads((out / "verify" / "summary.json").read_text())
    assert set(summary) == {"gradient", "duality", "lipschitz", "mass"}
    assert all(entry["passed"] for entry in summary.values())


# argv: the two config paths, the output directory
_STARTUP_RUN = """
import json, sys
from chcontrol import cli, kernels
codes = [cli.run(path, out_dir=f"{sys.argv[3]}/{i}")
         for i, path in enumerate(sys.argv[1:3])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules),
                  "numpy_dgbsv": kernels.numpy_dgbsv() is not None}))
"""


def test_run_leaves_heavy_modules_unimported(tmp_path):
    # the 1D solve calls numpy's own dgbsv rather than importing the
    # scipy.linalg package, whose __init__ loads every lazy numpy
    # submodule, and argparse is imported only by main(): a fresh process
    # that runs a 1D and a 2D pipeline imports none of them. Where numpy
    # exports no dgbsv, the first 1D solve imports SciPy's, and they come
    # with it
    one = {**TINY_CONFIG, "pipeline": "all", "verification": TINY_VERIFICATION}
    two = {**TINY_CONFIG, "grid": {"n": [6, 5], "extents": [1.0, 0.8]}}
    result = run_fresh(_STARTUP_RUN, _write(tmp_path, one, "one.json"),
                       _write(tmp_path, two, "two.json"), tmp_path / "out")
    assert result["codes"] == [0, 0]
    heavy = {"scipy.linalg", "scipy.linalg.lapack", "numpy.f2py", "numpy.testing",
             "numpy.ma", "argparse"}
    if result["numpy_dgbsv"]:
        assert heavy.isdisjoint(result["modules"])
    else:
        assert "scipy.linalg.lapack" in result["modules"]
    assert "chcontrol.kernels" in result["modules"]


def _scipy_modules(modules):
    return [m for m in modules
            if m == "scipy" or m.startswith("scipy.") or m.endswith("_flapack")]


# argv: the config path, the output directory
_RUN_ONE = """
import json, sys
from chcontrol import cli
code = cli.run(sys.argv[1], out_dir=sys.argv[2])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def test_two_dimensional_run_imports_no_scipy(tmp_path):
    # the 2D step solve works in the DCT basis and dgbsv loads at the
    # first 1D solve: a fresh process that simulates, optimizes and
    # verifies on a 2D grid imports no SciPy module
    cfg = {**TINY_CONFIG, "pipeline": "all", "verification": TINY_VERIFICATION,
           "grid": {"n": [6, 5], "extents": [1.0, 0.8]},
           "optimizer": {"max_outer_iters": 2}}
    result = run_fresh(_RUN_ONE, _write(tmp_path, cfg), tmp_path / "out")
    assert result["code"] == 0
    assert _scipy_modules(result["modules"]) == []
    assert "chcontrol.kernels" in result["modules"]


# argv: the config path, the output directory; the threads of the
# process, where /proc/self/task lists them, before and after the run
_RUN_ONE_THREADS = """
import json, os, sys
from chcontrol import cli, kernels
def threads():
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
before = threads()
code = cli.run(sys.argv[1], out_dir=sys.argv[2])
print(json.dumps({"code": code, "modules": sorted(sys.modules),
                  "threads": [before, threads()],
                  "numpy_dgbsv": kernels.numpy_dgbsv() is not None}))
"""


def test_one_dimensional_run_imports_no_scipy(tmp_path):
    # the 1D band solve calls the dgbsv of numpy's own OpenBLAS: a fresh
    # process that simulates, optimizes and verifies on a 1D grid imports
    # no SciPy module, and so loads no second OpenBLAS, which would start
    # a worker thread of its own at the first solve. Where numpy exports no
    # dgbsv, the first solve imports SciPy's
    cfg = {**TINY_CONFIG, "pipeline": "all", "verification": TINY_VERIFICATION,
           "optimizer": {"max_outer_iters": 2}}
    result = run_fresh(_RUN_ONE_THREADS, _write(tmp_path, cfg), tmp_path / "out")
    assert result["code"] == 0
    if not result["numpy_dgbsv"]:
        assert "scipy.linalg.lapack" in result["modules"]
        return
    assert _scipy_modules(result["modules"]) == []
    before, after = result["threads"]
    if before is not None:
        assert after == before


# argv: the config path
_PARSE_ONE = """
import json, sys
from chcontrol import cli
cli.parse_config(sys.argv[1])
print(json.dumps({"modules": sorted(sys.modules)}))
"""


def test_parse_config_imports_no_scipy(tmp_path):
    # a process's set-up, up to a parsed 1D config, loads no SciPy module
    result = run_fresh(_PARSE_ONE, _write(tmp_path, TINY_CONFIG))
    assert _scipy_modules(result["modules"]) == []

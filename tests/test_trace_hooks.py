"""The benchmark's span tracer (perfbench/tracer.py) wraps package functions
by name from outside the package and reads counts from their return
values. These tests pin what it relies on, so that a refactor of the
package cannot silently break a traced benchmark pass."""

import copy
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import pytest

import chcontrol as ch
from conftest import equilibrium_init, make_problem, midpoint_control, run_fresh
from test_cli import TINY_CONFIG, TINY_VERIFICATION

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(tracer):
    for module_name, attr, _ in tracer.TRACED:
        module = importlib.import_module(f"chcontrol.{module_name}")
        owner, leaf = tracer._resolve(module, attr)
        assert leaf in owner.__dict__, f"chcontrol.{module_name}.{attr}"


def test_solve_state_reports_newton_iterations():
    assert list(inspect.signature(ch.solve_state).parameters) == [
        "params", "init", "control", "steps", "polish", "prior"]
    params = make_problem(n=16, nt=4)
    traj = ch.solve_state(params, equilibrium_init(params), midpoint_control(params))
    iters = traj.diagnostics.newton_iters
    assert len(iters) == params.time_grid.steps
    assert iters.sum() >= params.time_grid.steps


# argv: tracer path, config path, output directory
_TRACED_RUN = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
from chcontrol import cli
spans = tracer.Tracer()
tracer.install(spans)
code = cli.run(sys.argv[2], out_dir=sys.argv[3])
metrics = spans.metrics()
print(json.dumps({"code": code, "metrics": metrics,
                  "reconcile": tracer.reconcile(metrics)}))
"""


def _traced_run(tmp_path, cfg, pipeline="verify"):
    """Run ``pipeline`` on ``cfg`` under the tracer and return the exit
    code, the metrics and the reconcile message. install() rebinds module
    attributes and cannot be undone, so the traced run gets a process of
    its own."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**cfg, "pipeline": pipeline}))
    return run_fresh(_TRACED_RUN, _TRACER, cfg_path, tmp_path / "out")


def test_traced_optimize_reconciles(tmp_path):
    # the trials resume from the iterate's frames, and a passing one
    # continues to the window in a second call; solve_state's diagnostics
    # cover the steps each call marched, so every step solve is counted once
    result = _traced_run(tmp_path, TINY_CONFIG, "optimize")
    assert result["code"] == 0
    assert result["metrics"]["optimizer.accepted_steps"] > 0
    assert result["reconcile"] is None


def test_traced_verify_sees_every_oracle(tmp_path):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["verification"] = TINY_VERIFICATION
    result = _traced_run(tmp_path, cfg)
    assert result["code"] == 0
    metrics = result["metrics"]
    for name in ("gradient", "duality", "lipschitz", "mass"):
        assert metrics[f"verification.{name}_s"] > 0, name
    assert metrics["verification.oracle_solves"] > 0
    # the tracer sees a transpose solve only through the keyword or the
    # fifth positional argument of StepSolver.solve
    assert metrics["system.transpose_solves"] == metrics["adjoint.steps"] > 0
    assert metrics["linearized.steps"] > 0
    # the base solve and the Lipschitz ensembles march every step, the FD
    # gradient ensembles to the snapped node; at this size each oracle's
    # perturbed controls fit one member-stacked ensemble, so each makes one
    # solve_state call
    nt = cfg["time"]["steps"]
    k_tau, _ = ch.TimeGrid(cfg["time"]["horizon"], nt).nearest_node(
        TINY_VERIFICATION["tau"])
    grad, lip = TINY_VERIFICATION["gradient"], TINY_VERIFICATION["lipschitz"]
    cells = cfg["grid"]["n"][0]

    def ensemble_bytes(pairs, steps):
        return 2 * pairs * ((steps + 1) * 3 + nt + 1) * cells * 8

    assert ensemble_bytes(grad["directions"] * len(grad["deltas"]), k_tau) \
        <= ch.verification.ENSEMBLE_BYTES
    assert ensemble_bytes(lip["pairs"] * len(lip["magnitudes"]), nt) \
        <= ch.verification.ENSEMBLE_BYTES
    assert metrics["state.solves"] == 3
    assert metrics["state.steps"] == 2 * nt + max(k_tau, 1)
    assert 1 < k_tau < nt
    assert result["reconcile"] is None
    # every 1D step solve makes exactly one band solve
    assert metrics["kernels.block_solves"] == metrics["system.solves"] > 0


def test_traced_2d_verify_stacks_and_reconciles(tmp_path):
    # the 2D FD gradient and Lipschitz oracles march their pairs in
    # member-stacked ensembles, with one step solve per stacked iteration
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["grid"] = {"n": [8, 8], "extents": [1.0, 1.0]}
    cfg["time"]["steps"] = 8
    cfg["verification"] = {**TINY_VERIFICATION, "checks": ["gradient", "lipschitz"]}
    result = _traced_run(tmp_path, cfg)
    assert result["code"] == 0
    metrics = result["metrics"]
    grad, lip = TINY_VERIFICATION["gradient"], TINY_VERIFICATION["lipschitz"]
    pairs = grad["directions"] * len(grad["deltas"]) + lip["pairs"] * len(lip["magnitudes"])
    # the base solve and one ensemble per oracle
    assert metrics["state.solves"] < pairs
    assert result["reconcile"] is None

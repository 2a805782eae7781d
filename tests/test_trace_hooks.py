"""The benchmark's span tracer (perfbench/tracer.py) wraps package functions
by name from outside the package and reads counts from their return
values. These tests pin what it relies on, so that a refactor of the
package cannot silently break a traced benchmark pass."""

import copy
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chcontrol as ch
from conftest import equilibrium_init, make_problem, midpoint_control
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
        "params", "init", "control"]
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


def test_traced_verify_sees_every_oracle(tmp_path):
    # install() rebinds module attributes and cannot be undone, so the
    # traced run gets a process of its own
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["pipeline"] = "verify"
    cfg["verification"] = TINY_VERIFICATION
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    paths = [str(Path(ch.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(_TRACER), str(cfg_path),
         str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    metrics = result["metrics"]
    for name in ("gradient", "duality", "lipschitz", "mass"):
        assert metrics[f"verification.{name}_s"] > 0, name
    assert metrics["verification.oracle_solves"] > 0
    assert result["reconcile"] is None

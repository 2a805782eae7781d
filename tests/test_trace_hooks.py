"""The benchmark's span tracer (perfbench/tracer.py) wraps package functions
by name from outside the package and reads counts from their return
values. These tests pin what it relies on, so that a refactor of the
package cannot silently break a traced benchmark pass."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import chcontrol as ch
from conftest import equilibrium_init, make_problem, midpoint_control

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

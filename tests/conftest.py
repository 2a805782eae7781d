import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chcontrol as ch


@pytest.fixture
def cell_solves(monkeypatch):
    """A list that grows by one entry per 2D step solve that solves some
    right-hand side at per-cell P and W (an exact step matrix) rather than
    at their grid means; the entry is the solve's ``transpose`` flag."""
    calls = []
    solve = ch.system.StepSolver.solve

    def counting_solve(self, p, w, rhs, transpose=False, means=False):
        if self.grid.dim == 2 and not np.all(means):
            calls.append(transpose)
        return solve(self, p, w, rhs, transpose, means)

    monkeypatch.setattr(ch.system.StepSolver, "solve", counting_solve)
    return calls


def make_problem(n=64, nt=64, horizon=1.0, potential=None, alpha=0.1, beta=0.1,
                 p0=1.0, width=0.5):
    grid = ch.Grid.line(n, 1.0)
    tg = ch.TimeGrid(horizon, nt)
    pot = potential or ch.Potential.quartic()
    pro = ch.Proliferation.smooth_ramp(p0, width)
    return ch.ModelParams(alpha, beta, pot, pro, grid, tg)


def equilibrium_init(params, c=0.2):
    grid = params.grid
    mu0 = grid.full(params.potential.dF(c))
    return ch.InitialData(mu0.copy(), grid.full(c), mu0.copy())


def tracking_cost(params, b0=1e-3, b1=1.0, b2=0.0, b3=1.0, b4=0.0, b5=0.01,
                  b6=1.0, tau_star=None, relaxation=None):
    grid, tg = params.grid, params.time_grid
    return ch.CostSpec(
        b0=b0, b1=b1, b2=b2, b3=b3, b4=b4, b5=b5, b6=b6,
        phi_q=ch.constant_trajectory(grid, tg, -0.5),
        sigma_q=ch.constant_trajectory(grid, tg, 0.375),
        phi_omega=grid.full(-0.5),
        tau_star=tg.horizon / 2 if tau_star is None else tau_star,
        relaxation=relaxation,
    )


def first_window(tg, cost, tau0):
    """The frame that ``optimize``'s first march stops at, for every cost:
    two nodes past the node of tau0, or past that of tau_star if b6 > 0 and
    it lies later, capped at nt."""
    node = tg.nearest_node(tau0)[0]
    if cost.b6 > 0:
        node = max(node, tg.nearest_node(cost.tau_star)[0])
    return min(tg.steps, node + 2)


def midpoint_control(params, lower=0.0, upper=2.0):
    return ch.constant_trajectory(params.grid, params.time_grid,
                                  0.5 * (lower + upper))


@pytest.fixture(scope="session")
def small_problem():
    params = make_problem(n=48, nt=40)
    init = equilibrium_init(params)
    cost = tracking_cost(params)
    u = midpoint_control(params)
    return params, init, cost, u


@pytest.fixture(scope="session")
def small_state(small_problem):
    params, init, cost, u = small_problem
    return ch.solve_state(params, init, u)


# Baseline experiment shared by the acceptance criteria: 1D, 128 cells,
# 256 steps, quartic potential, equilibrium start, box bounds [0, 2].
@pytest.fixture(scope="session")
def baseline_problem():
    params = make_problem(n=128, nt=256)
    init = equilibrium_init(params)
    cost = tracking_cost(params)
    u = midpoint_control(params)
    return params, init, cost, u


@pytest.fixture(scope="session")
def baseline_state(baseline_problem):
    params, init, cost, u = baseline_problem
    return ch.solve_state(params, init, u)


def run_fresh(code, *args, timeout=300):
    """Run ``python -c code *args`` in a fresh process that imports this
    checkout's package, check that it exits 0 and return the JSON object
    its last line of output prints."""
    paths = [str(Path(ch.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])

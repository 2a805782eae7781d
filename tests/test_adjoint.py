import dataclasses

import numpy as np
import pytest

import chcontrol as ch
from chcontrol.adjoint import adjoint_terminal_data
from chcontrol.errors import GridMismatchError, TimeDomainError
from chcontrol.objective import time_weights
from conftest import equilibrium_init, make_problem, midpoint_control, tracking_cost


@pytest.fixture(scope="module")
def problem():
    params = make_problem(n=48, nt=40)
    init = equilibrium_init(params)
    u = midpoint_control(params)
    state = ch.solve_state(params, init, u)
    return params, init, u, state


def test_zero_cost_gives_zero_adjoint(problem):
    params, _, _, state = problem
    cost = ch.CostSpec(b0=1.0)  # no state-dependent terms
    adj = ch.solve_adjoint(params, state, params.time_grid.steps, cost)
    assert np.all(adj.data == 0.0)


@pytest.fixture(scope="module")
def problem_2d_log():
    # an interface on 2D with the logarithmic potential, whose B'' refused
    # the empty field of a sweep of no steps
    grid = ch.Grid.rectangle(8, 6, 1.5, 0.8)
    params = ch.ModelParams(0.1, 0.1, ch.Potential.logarithmic(2.0),
                            ch.Proliferation.smooth_ramp(1.0, 0.5), grid,
                            ch.TimeGrid(0.25, 10))
    u = midpoint_control(params)
    return params, None, u, ch.solve_state(params, equilibrium_init(params), u)


@pytest.mark.parametrize("which", ["1d", "2d-log"])
def test_degenerate_tau_zero(which, problem, problem_2d_log):
    # the sweeps of no steps: the adjoint's one frame is the terminal data,
    # with the relaxed window empty, and the linearized one is zero
    params, _, _, state = problem if which == "1d" else problem_2d_log
    relax = ch.Relaxation(0.5, 0.1, params.grid.full(0.3))
    cost = tracking_cost(params, b2=0.5, b4=0.2, relaxation=relax)
    adj = ch.solve_adjoint(params, state, 0, cost)
    assert adj.nframes == 1
    p, q, r = adjoint_terminal_data(params, state, 0, cost)
    assert np.array_equal(adj.adj_phi[0], q)
    assert np.all(adj.adj_mu[0] == 0.0) and np.all(adj.adj_sigma[0] == 0.0)
    assert adj.data.tobytes() == np.stack([p, q, r])[None].tobytes()
    h = np.ones((params.time_grid.steps + 1,) + params.grid.shape)
    lin = ch.solve_linearized(params, state, h, steps=0)
    assert lin.data.tobytes() == np.zeros((1, 3) + params.grid.shape).tobytes()


def test_terminal_frame_equals_terminal_data(problem):
    params, _, _, state = problem
    cost = tracking_cost(params, b2=0.7, b4=0.3)
    k = 25
    adj = ch.solve_adjoint(params, state, k, cost)
    expected = (cost.b2 * (state.phi[k] - cost.phi_omega) + 0.5 * cost.b4) / params.beta
    assert np.array_equal(adj.adj_phi[k], expected)
    assert np.all(adj.adj_mu[k] == 0.0)
    assert np.all(adj.adj_sigma[k] == 0.0)


def test_weight_scaling_linearity(problem):
    params, _, _, state = problem
    k = 30
    c1 = tracking_cost(params, b1=1.0, b2=0.4, b3=0.8, b4=0.2)
    c2 = tracking_cost(params, b1=2.0, b2=0.8, b3=1.6, b4=0.4)
    a1 = ch.solve_adjoint(params, state, k, c1)
    a2 = ch.solve_adjoint(params, state, k, c2)
    scale = np.abs(a2.data).max()
    assert np.abs(a2.data - 2.0 * a1.data).max() <= 1e-12 * max(scale, 1.0)


def _duality_gap(params, state, k, cost, h):
    grid, tg = params.grid, params.time_grid
    adj = ch.solve_adjoint(params, state, k, cost)
    lin = ch.solve_linearized(params, state, h)
    wq = time_weights(k + 1, tg.dt)
    lhs = ch.space_time_inner(grid, tg.dt, adj.adj_sigma, h[: k + 1], weights=wq)
    theta = lin.d_phi[: k + 1]
    rho = lin.d_sigma[: k + 1]
    rhs = 0.0
    if cost.b1:
        rhs += cost.b1 * ch.space_time_inner(
            grid, tg.dt, state.phi[: k + 1] - cost.phi_q[: k + 1], theta, weights=wq)
    if cost.b2:
        rhs += cost.b2 * ch.integrate(grid, (state.phi[k] - cost.phi_omega) * theta[k])
    if cost.b3:
        rhs += cost.b3 * ch.space_time_inner(
            grid, tg.dt, state.sigma[: k + 1] - cost.sigma_q[: k + 1], rho, weights=wq)
    if cost.b4:
        rhs += 0.5 * cost.b4 * ch.integrate(grid, theta[k])
    return lhs, rhs


def test_duality_identity_random_costs(problem):
    # transpose exactness over 10 random (direction, weight) combinations
    params, _, _, state = problem
    tg = params.time_grid
    rng = np.random.default_rng(42)
    shape = (tg.steps + 1,) + params.grid.shape
    for trial in range(10):
        b1, b2, b3, b4 = rng.uniform(0.0, 2.0, 4)
        cost = tracking_cost(params, b1=b1, b2=b2, b3=b3, b4=b4)
        k = int(rng.integers(1, tg.steps + 1))
        h = rng.standard_normal(shape)
        lhs, rhs = _duality_gap(params, state, k, cost, h)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1e-12)


def test_duality_zero_weights_absolute(problem):
    params, _, _, state = problem
    cost = ch.CostSpec(b0=1.0)
    rng = np.random.default_rng(1)
    h = rng.standard_normal((params.time_grid.steps + 1,) + params.grid.shape)
    lhs, rhs = _duality_gap(params, state, 20, cost, h)
    assert abs(lhs) <= 1e-14 and abs(rhs) <= 1e-14


def test_duality_b1_only(problem):
    params, _, _, state = problem
    cost = tracking_cost(params, b0=0.0, b1=1.3, b3=0.0, b5=0.0, b6=0.0)
    rng = np.random.default_rng(2)
    h = rng.standard_normal((params.time_grid.steps + 1,) + params.grid.shape)
    lhs, rhs = _duality_gap(params, state, params.time_grid.steps, cost, h)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_invalid_tau_index(problem):
    params, _, _, state = problem
    cost = tracking_cost(params)
    with pytest.raises(TimeDomainError):
        ch.solve_adjoint(params, state, params.time_grid.steps + 1, cost)
    with pytest.raises(TimeDomainError):
        ch.solve_adjoint(params, state, -1, cost)
    with pytest.raises(TimeDomainError):
        ch.solve_adjoint(params, state, 2.5, cost)


def test_node_and_frame_errors_name_the_adjoint(problem):
    # the node must be a whole number in 0..nt, and the state must hold
    # frames 0..node; each error is headed by the reader
    params, _, _, state = problem
    cost = tracking_cost(params)
    nt = params.time_grid.steps
    for node in (-1, 2.5, nt + 1):
        with pytest.raises(TimeDomainError,
                           match=f"^adjoint: node {node} is not a whole number in "):
            ch.solve_adjoint(params, state, node, cost)
    part = ch.Trajectory(params.grid, params.time_grid, state.data[:3], state.names)
    with pytest.raises(TimeDomainError,
                       match=r"^adjoint: node 3 needs forward frames 0\.\.3, got 3$"):
        ch.solve_adjoint(params, part, 3, cost)


@pytest.mark.parametrize("other", [
    lambda p: dataclasses.replace(p, grid=ch.Grid.line(p.grid.n[0], 2.0)),
    lambda p: dataclasses.replace(p, time_grid=ch.TimeGrid(2.0, p.time_grid.steps)),
], ids=["extents", "horizon"])
def test_state_of_another_problem_is_refused(problem, other):
    # the same shapes on another grid or time grid: the sweep would march
    # the state's frames with the wrong h or dt
    params, _, _, state = problem
    with pytest.raises(GridMismatchError, match="^adjoint: "):
        ch.solve_adjoint(other(params), state, 4, tracking_cost(params))


@pytest.mark.parametrize("target, cells", [("phi_q", 1), ("sigma_q", 7)])
@pytest.mark.parametrize("oracle", ["solve_adjoint", "duality_check",
                                    "fd_gradient_check"])
def test_misshapen_target_is_refused(oracle, target, cells):
    # a running target on too few cells: the adjoint checks the targets'
    # shapes as the cost does, where numpy would broadcast a single cell
    # or fail with its own error
    params = make_problem(n=16, nt=8)
    init, u = equilibrium_init(params), midpoint_control(params)
    state = ch.solve_state(params, init, u)
    cost = dataclasses.replace(tracking_cost(params),
                               **{target: np.full((9, cells), 0.1)})
    run = {
        "solve_adjoint": lambda: ch.solve_adjoint(params, state, 4, cost),
        "duality_check": lambda: ch.duality_check(params, state, 4, cost,
                                                  directions=1),
        "fd_gradient_check": lambda: ch.fd_gradient_check(
            params, init, cost, u, 0.5, directions=1, deltas=[1e-3], state=state),
    }[oracle]
    with pytest.raises(GridMismatchError,
                       match=rf"^cost\.{target}: shape \(9, {cells}\), expected \(9, 16\)$"):
        run()


def test_relaxed_window_source(problem):
    # duality still exact with the windowed nutrient source active
    params, _, _, state = problem
    grid, tg = params.grid, params.time_grid
    relax = ch.Relaxation(0.5, 6.5 * tg.dt, grid.full(0.3))
    cost = tracking_cost(params, relaxation=relax)
    k = 30
    rng = np.random.default_rng(3)
    h = rng.standard_normal((tg.steps + 1,) + grid.shape)
    adj = ch.solve_adjoint(params, state, k, cost)
    lin = ch.solve_linearized(params, state, h)
    wq = time_weights(k + 1, tg.dt)
    win = relax.gamma / relax.eps * ch.window_weights(k, tg.dt, relax.eps)
    lhs = ch.space_time_inner(grid, tg.dt, adj.adj_sigma, h[: k + 1], weights=wq)
    rhs = cost.b1 * ch.space_time_inner(
        grid, tg.dt, state.phi[: k + 1] - cost.phi_q[: k + 1],
        lin.d_phi[: k + 1], weights=wq)
    rhs += cost.b3 * ch.space_time_inner(
        grid, tg.dt, state.sigma[: k + 1] - cost.sigma_q[: k + 1],
        lin.d_sigma[: k + 1], weights=wq)
    rhs += ch.space_time_inner(grid, tg.dt, state.sigma[: k + 1] - relax.sigma_omega,
                               lin.d_sigma[: k + 1], weights=win)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs))


def test_window_weights_normalization():
    dt = 1.0 / 64
    for k, eps in ((40, 10.5 * dt), (40, 3.0 * dt), (5, 1.0), (0, 0.1), (40, 0.25 * dt)):
        w = ch.window_weights(k, dt, eps)
        assert len(w) == k + 1
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(min(eps, k * dt), abs=1e-15)

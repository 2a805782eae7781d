import numpy as np
import pytest

import chcontrol as ch
from conftest import equilibrium_init, make_problem, midpoint_control, tracking_cost


@pytest.fixture(scope="module")
def problem():
    params = make_problem(n=48, nt=40)
    init = equilibrium_init(params)
    return params, init


def test_project_idempotent_and_clamping(problem):
    params, _ = problem
    grid, tg = params.grid, params.time_grid
    rng = np.random.default_rng(1)
    inside = ch.ControlField(rng.uniform(0.1, 1.9, (tg.steps + 1,) + grid.shape),
                             0.0, 2.0)
    proj = ch.project_control(inside)
    assert np.array_equal(proj.values, inside.values)
    above = ch.ControlField(np.full((tg.steps + 1,) + grid.shape, 3.0), 0.0, 2.0)
    assert np.all(ch.project_control(above).values == 2.0)


def test_project_with_field_bounds(problem):
    # bounds may vary in space: clamp against broadcast arrays
    params, _ = problem
    grid, tg = params.grid, params.time_grid
    lower = -0.5 + 0.2 * np.cos(np.pi * grid.axis_centers(0))
    upper = lower + 1.0
    rng = np.random.default_rng(3)
    u = ch.ControlField(rng.normal(0.0, 2.0, (tg.steps + 1,) + grid.shape),
                        lower, upper)
    proj = ch.project_control(u)
    assert np.all(proj.values >= lower) and np.all(proj.values <= upper)
    assert np.array_equal(ch.project_control(proj).values, proj.values)


def test_projection_nonexpansive(problem):
    params, _ = problem
    grid, tg = params.grid, params.time_grid
    rng = np.random.default_rng(2)
    shape = (tg.steps + 1,) + grid.shape
    for _ in range(20):
        u1 = ch.ControlField(rng.normal(1.0, 2.0, shape), 0.0, 2.0)
        u2 = ch.ControlField(rng.normal(1.0, 2.0, shape), 0.0, 2.0)
        d_proj = ch.space_time_norm(grid, tg.dt,
                                    ch.project_control(u1).values
                                    - ch.project_control(u2).values)
        d_raw = ch.space_time_norm(grid, tg.dt, u1.values - u2.values)
        assert d_proj <= d_raw + 1e-14


def test_control_energy_only_drives_u_to_zero(problem):
    params, init = problem
    cost = ch.CostSpec(b0=1e-3)
    u0 = ch.ControlField.constant(params.grid, params.time_grid, 0.5, -1.0, 2.0)
    cfg = ch.OptimizerConfig(max_outer_iters=50, grad_tol=1e-10)
    res = ch.optimize(params, init, cost, cfg, u0, tau0=0.5)
    assert res.converged
    assert ch.space_time_norm(params.grid, params.time_grid.dt,
                              res.u_opt.values) <= 1e-8


def test_linear_time_penalty_drives_tau_to_zero(problem):
    params, init = problem
    cost = ch.CostSpec(b5=1.0)
    u0 = midpoint_control(params)
    cfg = ch.OptimizerConfig(max_outer_iters=50, grad_tol=1e-8)
    res = ch.optimize(params, init, cost, cfg, u0, tau0=0.5)
    assert res.converged
    assert res.tau_opt == 0.0
    assert res.time_case == "boundary_low"
    d = ch.TauProfile(res.state, res.u_opt, cost).derivative(0.0)
    assert d == 1.0 and d >= 0.0


def test_quadratic_time_penalty_finds_target(problem):
    params, init = problem
    cost = ch.CostSpec(b6=1.0, tau_star=0.47)
    u0 = midpoint_control(params)
    cfg = ch.OptimizerConfig(max_outer_iters=50, grad_tol=1e-8)
    res = ch.optimize(params, init, cost, cfg, u0, tau0=0.9)
    assert res.converged
    assert abs(res.tau_opt - 0.47) <= params.time_grid.dt
    assert res.time_case == "interior"


def test_monotone_history_and_feasibility(problem):
    params, init = problem
    cost = tracking_cost(params)
    u0 = midpoint_control(params)
    cfg = ch.OptimizerConfig(max_outer_iters=100, grad_tol=1e-4)
    res = ch.optimize(params, init, cost, cfg, u0, tau0=0.5)
    assert res.converged
    totals = [r.breakdown.total for r in res.history]
    assert all(b <= a for a, b in zip(totals, totals[1:]))
    assert np.all(res.u_opt.values >= 0.0) and np.all(res.u_opt.values <= 2.0)
    assert 0.0 <= res.tau_opt <= params.time_grid.horizon
    for rec in res.history:
        assert 0.0 <= rec.tau <= params.time_grid.horizon
        assert rec.snap_error <= 0.5 * params.time_grid.dt + 1e-15


def test_projection_characterization_at_convergence(problem):
    params, init = problem
    grid, tg = params.grid, params.time_grid
    cost = tracking_cost(params)
    cfg = ch.OptimizerConfig(max_outer_iters=100, grad_tol=1e-5)
    res = ch.optimize(params, init, cost, cfg, midpoint_control(params), tau0=0.5)
    assert res.converged
    from chcontrol.optimizer import adj_sigma_extended
    cand = np.clip(-adj_sigma_extended(res.adjoint, tg) / cost.b0, 0.0, 2.0)
    resid = ch.space_time_norm(grid, tg.dt, res.u_opt.values - cand)
    u_norm = ch.space_time_norm(grid, tg.dt, res.u_opt.values)
    assert resid <= cfg.grad_tol * (1.0 + u_norm)


def test_classify_time_optimality(problem):
    params, init = problem
    u = midpoint_control(params)
    state = ch.solve_state(params, init, u)
    # pure linear time cost at the lower boundary
    rep = ch.classify_time_optimality(state, u, 0.0, ch.CostSpec(b5=1.0), 1e-8)
    assert rep.case == "boundary_low"
    assert rep.derivative == 1.0
    assert rep.satisfied
    # pure quadratic: interior optimum at tau_star with zero residual
    cost6 = ch.CostSpec(b6=1.0, tau_star=0.5)
    rep = ch.classify_time_optimality(state, u, 0.5, cost6, 1e-8)
    assert rep.case == "interior"
    assert rep.satisfied
    assert rep.fixed_point_residual == pytest.approx(0.0, abs=1e-14)
    # violated interior condition is reported, not raised
    rep = ch.classify_time_optimality(state, u, 0.5, ch.CostSpec(b5=1.0), 1e-8)
    assert rep.case == "interior" and not rep.satisfied
    # upper boundary: nonpositive derivative is consistent there
    cost_hi = ch.CostSpec(b6=1.0, tau_star=1.0)
    rep = ch.classify_time_optimality(state, u, 1.0, cost_hi, 1e-8)
    assert rep.case == "boundary_high" and rep.satisfied


def test_optimizer_requires_initial_control(problem):
    params, init = problem
    with pytest.raises(ch.ConfigError):
        ch.optimize(params, init, tracking_cost(params), ch.OptimizerConfig())


def test_armijo_param_validation():
    with pytest.raises(ch.ConfigError):
        ch.ArmijoParams(c1=1.5)
    with pytest.raises(ch.ConfigError):
        ch.ArmijoParams(backtrack=0.0)
    with pytest.raises(ch.ConfigError, match="max_backtracks"):
        ch.ArmijoParams(max_backtracks=0)

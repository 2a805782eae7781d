import numpy as np
import pytest

import chcontrol as ch
import chcontrol.optimizer as optimizer_module
from chcontrol.optimizer import _time_violation
from conftest import (equilibrium_init, first_window, make_problem, midpoint_control,
                      tracking_cost)


@pytest.fixture(scope="module")
def problem():
    params = make_problem(n=48, nt=40)
    init = equilibrium_init(params)
    return params, init


def _field_bounds(grid):
    lower = -0.5 + 0.2 * np.cos(np.pi * grid.axis_centers(0))
    return lower, lower + 1.0


def test_optimize_stays_inside_field_bounds(problem):
    # bounds may vary in space: the start and every step are clamped against
    # grid fields broadcast over the time nodes
    params, init = problem
    grid, tg = params.grid, params.time_grid
    lower, upper = _field_bounds(grid)
    u0 = np.random.default_rng(3).normal(0.0, 2.0, (tg.steps + 1,) + grid.shape)
    cost = tracking_cost(params)
    start = ch.optimize(params, init, cost, u0, tau0=0.5, lower=lower, upper=upper,
                        max_outer_iters=0)
    assert np.array_equal(start.u_opt, np.clip(u0, lower, upper))
    res = ch.optimize(params, init, cost, u0, tau0=0.5, lower=lower, upper=upper,
                      max_outer_iters=3)
    assert res.u_opt.shape == u0.shape
    assert np.all(res.u_opt >= lower) and np.all(res.u_opt <= upper)
    # the tracking target asks for more nutrient than the box allows
    assert np.any(res.u_opt == upper)


def test_optimize_rejects_crossed_field_bounds(problem):
    params, init = problem
    lower, upper = _field_bounds(params.grid)
    upper[7] = lower[7] - 1e-3
    u0 = ch.constant_trajectory(params.grid, params.time_grid, 0.0)
    with pytest.raises(ch.ConfigError, match="^bounds: "):
        ch.optimize(params, init, tracking_cost(params), u0, lower=lower, upper=upper)
    # a NaN bound admits no control
    field = lower + 1.0
    field[3] = np.nan
    for low, up in ((np.nan, 1.0), (lower, field)):
        with pytest.raises(ch.ConfigError, match="^bounds: "):
            ch.optimize(params, init, tracking_cost(params), u0, lower=low, upper=up)


@pytest.mark.parametrize("field, value", [
    ("max_outer_iters", -1), ("max_outer_iters", 2.5), ("grad_tol", 0.0),
    ("grad_tol", -1e-5), ("grad_tol", np.nan), ("grad_tol", np.inf),
])
def test_optimize_rejects_bad_settings(problem, field, value):
    # -1 ended in an IndexError, and a NaN tolerance ran to the cap
    params, init = problem
    u0 = ch.constant_trajectory(params.grid, params.time_grid, 0.0)
    with pytest.raises(ch.ConfigError, match=f"^optimizer.{field}: "):
        ch.optimize(params, init, tracking_cost(params), u0, lower=0.0, upper=1.0,
                    **{field: value})


def test_optimize_rejects_a_start_time_that_is_not_finite(problem):
    params, init = problem
    u0 = ch.constant_trajectory(params.grid, params.time_grid, 0.0)
    with pytest.raises(ch.TimeDomainError, match="^time nan outside"):
        ch.optimize(params, init, tracking_cost(params), u0, tau0=np.nan,
                    lower=0.0, upper=1.0)


def test_optimize_rejects_misshapen_start():
    # the start is checked before the clamp broadcasts it against the bounds
    params = make_problem(n=16, nt=4)
    u0 = np.zeros((5, 8))
    with pytest.raises(ch.ShapeMismatchError,
                       match=r"^control: shape \(5, 8\), expected \(5, 16\)$"):
        ch.optimize(params, equilibrium_init(params), tracking_cost(params), u0,
                    lower=np.zeros(16), upper=np.ones(16))


def test_zero_projected_step_leaves_the_control(monkeypatch):
    # the control enters the cost through b0 alone, so at u0 = lower = 0 the
    # gradient is 0 and the projected step is zero; the time block's
    # bisection leaves stat_tau at roundoff, above the tiny grad_tol, so the
    # loop keeps coming back to the control block without one trial solve:
    # only the initial march to the first window and the final march, which
    # resumes it to the horizon
    params = make_problem(n=16, nt=16)
    init = equilibrium_init(params)
    u0 = ch.constant_trajectory(params.grid, params.time_grid, 0.0)
    solves = []

    def counting_solve_state(*args, **kwargs):
        solves.append((kwargs.get("steps"), kwargs.get("prior") is not None))
        return ch.solve_state(*args, **kwargs)

    cost = ch.CostSpec(b0=1e-3, b6=1.0, tau_star=0.3)
    monkeypatch.setattr(optimizer_module, "solve_state", counting_solve_state)
    res = ch.optimize(params, init, cost, u0, lower=0.0, upper=1.0,
                      max_outer_iters=3, grad_tol=1e-300)
    first = first_window(params.time_grid, cost, 0.5)
    assert first < params.time_grid.steps and solves == [(first, False), (None, True)]
    assert not res.converged and res.iterations == 4
    assert np.array_equal(res.u_opt, u0) and np.array_equal(res.gradient, 0 * u0)
    assert res.stat_u == 0.0 and 0.0 < res.stat_tau <= 1e-15
    # the continuous tau is reported in a fifth row of the last iteration
    assert [rec.iteration for rec in res.history] == [0, 1, 2, 3, 3]
    assert res.tau_opt == res.history[-1].tau == pytest.approx(0.3, abs=1e-15)


def test_every_optimizer_march_is_a_tolerance_march(monkeypatch):
    # the initial march, the windowed trials and the final full march: none
    # polishes
    params = make_problem(n=32, nt=48)
    marches = []

    def recording_solve_state(*args, **kwargs):
        traj = ch.solve_state(*args, **kwargs)
        marches.append((traj.nframes - 1, kwargs.get("polish", True)))
        return traj

    monkeypatch.setattr(optimizer_module, "solve_state", recording_solve_state)
    res = ch.optimize(params, equilibrium_init(params), tracking_cost(params, tau_star=0.3),
                      midpoint_control(params), tau0=0.3, lower=0.0, upper=2.0,
                      max_outer_iters=5)
    steps = {k for k, _ in marches}
    assert len(steps) > 1 and params.time_grid.steps in steps
    assert not any(polish for _, polish in marches)
    assert res.state.nframes == params.time_grid.steps + 1


def test_control_energy_only_drives_u_to_zero(problem):
    params, init = problem
    cost = ch.CostSpec(b0=1e-3)
    u0 = ch.constant_trajectory(params.grid, params.time_grid, 0.5)
    res = ch.optimize(params, init, cost, u0, tau0=0.5, lower=-1.0, upper=2.0,
                      max_outer_iters=50, grad_tol=1e-10)
    assert res.converged
    assert ch.space_time_norm(params.grid, params.time_grid.dt, res.u_opt) <= 1e-8


def test_linear_time_penalty_drives_tau_to_zero(problem):
    params, init = problem
    cost = ch.CostSpec(b5=1.0)
    u0 = midpoint_control(params)
    res = ch.optimize(params, init, cost, u0, tau0=0.5, lower=0.0, upper=2.0,
                      max_outer_iters=50, grad_tol=1e-8)
    assert res.converged
    assert res.tau_opt == 0.0
    assert res.time_case == "boundary_low"
    d = ch.TauProfile(res.state, res.u_opt, cost).derivative(0.0)
    assert d == 1.0 and d >= 0.0


def test_quadratic_time_penalty_finds_target(problem):
    params, init = problem
    cost = ch.CostSpec(b6=1.0, tau_star=0.47)
    u0 = midpoint_control(params)
    res = ch.optimize(params, init, cost, u0, tau0=0.9, lower=0.0, upper=2.0,
                      max_outer_iters=50, grad_tol=1e-8)
    assert res.converged
    assert abs(res.tau_opt - 0.47) <= params.time_grid.dt
    assert res.time_case == "interior"


def test_monotone_history_and_feasibility(problem):
    params, init = problem
    cost = tracking_cost(params)
    u0 = midpoint_control(params)
    res = ch.optimize(params, init, cost, u0, tau0=0.5, lower=0.0, upper=2.0,
                      max_outer_iters=100, grad_tol=1e-4)
    assert res.converged
    totals = [r.breakdown.total for r in res.history]
    assert all(b <= a for a, b in zip(totals, totals[1:]))
    assert np.all(res.u_opt >= 0.0) and np.all(res.u_opt <= 2.0)
    assert 0.0 <= res.tau_opt <= params.time_grid.horizon
    for rec in res.history:
        assert 0.0 <= rec.tau <= params.time_grid.horizon
        assert rec.snap_error <= 0.5 * params.time_grid.dt + 1e-15


def test_projection_characterization_at_convergence(problem):
    params, init = problem
    grid, tg = params.grid, params.time_grid
    cost = tracking_cost(params)
    grad_tol = 1e-5
    res = ch.optimize(params, init, cost, midpoint_control(params), tau0=0.5,
                      lower=0.0, upper=2.0, max_outer_iters=100, grad_tol=grad_tol)
    assert res.converged
    from chcontrol.optimizer import adj_sigma_extended
    cand = np.clip(-adj_sigma_extended(res.adjoint, tg) / cost.b0, 0.0, 2.0)
    resid = ch.space_time_norm(grid, tg.dt, res.u_opt - cand)
    u_norm = ch.space_time_norm(grid, tg.dt, res.u_opt)
    assert resid <= grad_tol * (1.0 + u_norm)


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


@pytest.mark.parametrize("tau, met", [(0.0, 1e-3), (1.0, -1e-3)])
def test_time_violation_zero_and_nan(tau, met):
    # at either end a met condition reads +0.0, which history.csv prints as
    # 0.0; a NaN derivative is never met, there or inside
    tg = ch.TimeGrid(1.0, 10)
    for d in (0.0, -0.0, met):
        assert repr(_time_violation(tg, tau, d)[0]) == "0.0"
    for t in (tau, 0.5):
        assert np.isnan(_time_violation(tg, t, np.nan)[0])

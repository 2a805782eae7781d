import dataclasses

import numpy as np
import pytest

import chcontrol as ch
from conftest import equilibrium_init, make_problem, midpoint_control, tracking_cost


@pytest.fixture(scope="module")
def problem():
    params = make_problem(n=48, nt=40)
    init = equilibrium_init(params)
    u = midpoint_control(params)
    return params, init, u


def test_gradient_check_quadratic_only(problem):
    # b0-only cost has an exactly linear gradient: errors at the floor
    params, init, u = problem
    cost = ch.CostSpec(b0=1.0)
    rep = ch.fd_gradient_check(params, init, cost, u, 0.5, directions=2,
                               deltas=[1e-4])
    assert rep.max_rel_error(1e-4) <= 1e-10


def test_gradient_check_tracking(problem):
    params, init, u = problem
    cost = tracking_cost(params)
    rep = ch.fd_gradient_check(params, init, cost, u, 0.5, directions=2,
                               deltas=[0.5, 0.2, 0.1, 1e-4],
                               slope_deltas=[0.5, 0.2, 0.1])
    assert rep.max_rel_error(1e-4) <= 1e-6
    assert all(1.7 <= s <= 2.3 for s in rep.slopes)
    assert rep.passed(1e-4, 1e-6)


def test_gradient_check_deterministic(problem):
    params, init, u = problem
    cost = tracking_cost(params)
    a = ch.fd_gradient_check(params, init, cost, u, 0.5, directions=1,
                             deltas=[1e-3], seed=99)
    b = ch.fd_gradient_check(params, init, cost, u, 0.5, directions=1,
                             deltas=[1e-3], seed=99)
    assert a.analytic == b.analytic
    assert a.rel_errors == b.rel_errors
    assert "gradient check" in a.to_text()


def test_duality_check(problem):
    params, init, u = problem
    cost = tracking_cost(params, b2=0.4, b4=0.2)
    state = ch.solve_state(params, init, u)
    rep = ch.duality_check(params, state, 30, cost, directions=5)
    assert rep.max_mismatch <= 1e-9
    assert rep.passed(1e-9)
    again = ch.duality_check(params, state, 30, cost, directions=5)
    assert rep.mismatches == again.mismatches


def test_lipschitz_check(problem):
    params, init, u = problem
    rep = ch.lipschitz_check(params, init, u, pairs=3,
                             magnitudes=[1e-1, 1e-2, 1e-3])
    assert rep.passed(10.0, 3.0)
    assert rep.spread_across_magnitudes() <= 3.0
    # triangle sanity: the combined ratio never exceeds the weighted parts
    for i in range(3):
        for j in range(3):
            combined = rep.ratios["combined"][i, j]
            bound = (params.alpha * rep.ratios["mu"][i, j]
                     + rep.ratios["phi"][i, j] + rep.ratios["sigma"][i, j])
            assert combined <= bound + 1e-12


def test_lipschitz_identical_controls(problem):
    # zero perturbation magnitude makes both controls equal: ratio is 0
    params, init, u = problem
    rep = ch.lipschitz_check(params, init, u, pairs=1, magnitudes=[0.0])
    for table in rep.ratios.values():
        assert np.all(table == 0.0)


def test_mass_balance_unit_control(problem):
    # u == 1 injects exactly t * |Omega| of combined mass
    params, init, _ = problem
    grid, tg = params.grid, params.time_grid
    u = ch.constant_trajectory(grid, tg, 1.0)
    traj = ch.solve_state(params, init, u)
    rep = ch.mass_balance_check(traj, u, params)
    assert rep.residual <= 1e-10
    drift = ch.integrate(grid, params.alpha * traj.mu[-1] + traj.phi[-1]
                         + traj.sigma[-1]) - ch.integrate(
        grid, params.alpha * traj.mu[0] + traj.phi[0] + traj.sigma[0])
    assert drift == pytest.approx(tg.horizon, rel=1e-10)


def test_mass_balance_equilibrium(problem):
    params, init, _ = problem
    u = ch.constant_trajectory(params.grid, params.time_grid, 0.0)
    traj = ch.solve_state(params, init, u)
    assert ch.mass_balance_check(traj, u, params).residual <= 1e-12


def test_reports_render_text(problem):
    params, init, u = problem
    rep = ch.lipschitz_check(params, init, u, pairs=1, magnitudes=[1e-2])
    text = rep.to_text()
    assert "lipschitz" in text and "pair 0" in text
    traj = ch.solve_state(params, init, u)
    assert "mass balance" in ch.mass_balance_check(traj, u, params).to_text()


def test_mass_balance_nan_frame_fails(problem):
    # a NaN after the first step must not be dropped by the reduction
    params, init, u = problem
    traj = ch.solve_state(params, init, u)
    data = traj.data.copy()
    data[3, 1, 5] = np.nan
    broken = ch.Trajectory(params.grid, params.time_grid, data, traj.names)
    rep = ch.mass_balance_check(broken, u, params)
    assert np.isnan(rep.residual)
    assert not rep.passed(1e-10)


def test_duality_nan_mismatch_fails():
    rep = ch.verification.DualityCheckReport(0, [1e-12, np.nan], [1.0, 1.0],
                                             [1.0, np.nan], 0)
    assert np.isnan(rep.max_mismatch)
    assert not rep.passed(1e-9)


def test_gradient_nan_error_fails():
    rep = ch.verification.GradientCheckReport(
        0.5, 20, [1e-4], [1.0, 1.0], [[1e-9], [np.nan]], [np.nan, np.nan], [1e-4], 0)
    assert np.isnan(rep.max_rel_error(1e-4))
    assert not rep.passed(1e-4, 1e-6)


def test_checks_honour_newton_settings(problem):
    # a zero Newton budget cannot take a single step from the initial data
    params, init, u = problem
    cost = tracking_cost(params)
    params = dataclasses.replace(params, newton_max_iter=0)
    with pytest.raises(ch.NewtonDivergenceError):
        ch.fd_gradient_check(params, init, cost, u, 0.5, directions=1,
                             deltas=[1e-4])
    with pytest.raises(ch.NewtonDivergenceError):
        ch.lipschitz_check(params, init, u, pairs=1, magnitudes=[1e-2])
    with pytest.raises(ch.NewtonDivergenceError):
        ch.optimize(params, init, cost, ch.OptimizerConfig(max_outer_iters=2), u)

import numpy as np
import pytest

import chcontrol as ch


@pytest.fixture(scope="module")
def problem_2d():
    # anisotropic rectangle: catches cell-volume and spacing mistakes
    grid = ch.Grid.rectangle(12, 9, 1.5, 0.8)
    tg = ch.TimeGrid(0.25, 12)
    params = ch.ModelParams(0.1, 0.1, ch.Potential.quartic(),
                            ch.Proliferation.smooth_ramp(1.0, 0.5), grid, tg)
    mu0 = grid.full(params.potential.dF(0.2))
    init = ch.InitialData(mu0.copy(), grid.full(0.2), mu0.copy())
    u = ch.constant_trajectory(grid, tg, 1.0)
    cost = ch.CostSpec(
        b0=1e-3, b1=1.0, b2=0.4, b3=1.0, b4=0.2, b5=0.01, b6=1.0,
        phi_q=ch.constant_trajectory(grid, tg, -0.5),
        sigma_q=ch.constant_trajectory(grid, tg, 0.375),
        phi_omega=grid.full(-0.5), tau_star=0.125,
    )
    return params, init, u, cost


def test_mass_identity_2d(problem_2d):
    params, init, u, _ = problem_2d
    rng = np.random.default_rng(0)
    u_rand = rng.uniform(0, 2, u.shape)
    traj = ch.solve_state(params, init, u_rand)
    assert ch.mass_balance_check(traj, u_rand, params).residual <= 1e-10


def test_duality_2d(problem_2d):
    params, init, u, cost = problem_2d
    state = ch.solve_state(params, init, u)
    rep = ch.duality_check(params, state, 7, cost, directions=3)
    assert rep.max_mismatch <= 1e-9


def test_gradient_2d(problem_2d):
    params, init, u, cost = problem_2d
    rep = ch.fd_gradient_check(params, init, cost, u, 0.125, directions=2,
                               deltas=[1e-3])
    assert rep.max_rel_error(1e-3) <= 1e-6


def test_optimize_2d_smoke(problem_2d):
    params, init, u, cost = problem_2d
    config = ch.OptimizerConfig(max_outer_iters=40, grad_tol=1e-3)
    res = ch.optimize(params, init, cost, config, u, tau0=0.125, lower=0.0, upper=2.0)
    assert res.converged
    totals = [r.breakdown.total for r in res.history]
    assert all(b <= a for a, b in zip(totals, totals[1:]))
    assert np.all(res.u_opt >= 0.0) and np.all(res.u_opt <= 2.0)


def test_logarithmic_2d_smoke():
    # singular potential through the sparse 2D step path, with separation
    pot = ch.Potential.logarithmic(2.0)
    grid = ch.Grid.rectangle(10, 10)
    tg = ch.TimeGrid(0.2, 10)
    params = ch.ModelParams(0.1, 0.1, pot,
                            ch.Proliferation.smooth_ramp(1.0, 0.5), grid, tg)
    mu0 = grid.full(pot.dF(0.2))
    init = ch.InitialData(mu0.copy(), grid.full(0.2),
                          mu0 + 0.3 * np.cos(np.pi * grid.axis_centers(0))[:, None])
    u = ch.constant_trajectory(grid, tg, 0.5)
    traj = ch.solve_state(params, init, u)
    rep = ch.separation_report(traj, pot)
    assert rep.delta_sep >= 0.01
    assert ch.mass_balance_check(traj, u, params).residual <= 1e-10


def test_duality_2d_logarithmic(splu_calls):
    # the regime of the 2D oracle benchmark: singular potential, random
    # interior start, all directions in one truncated linearized sweep
    from chcontrol.cli import preset_initial_data

    pot = ch.Potential.logarithmic(2.0)
    grid = ch.Grid.rectangle(12, 10)
    tg = ch.TimeGrid(0.25, 16)
    params = ch.ModelParams(0.1, 0.1, pot, ch.Proliferation.smooth_ramp(1.0, 0.5),
                            grid, tg)
    init = preset_initial_data("random_interior", grid, pot, amplitude=0.3, seed=2)
    u = ch.constant_trajectory(grid, tg, 1.0)
    cost = ch.CostSpec(
        b0=1e-3, b1=1.0, b2=0.4, b3=1.0, b4=0.2, b5=0.01, b6=1.0,
        phi_q=ch.constant_trajectory(grid, tg, -0.5),
        sigma_q=ch.constant_trajectory(grid, tg, 0.375),
        phi_omega=grid.full(-0.5), tau_star=0.125,
    )
    state = ch.solve_state(params, init, u)
    # the forward march reuses one factorization over many chord iterations
    forward_factors = len(splu_calls)
    assert 1 <= forward_factors <= state.diagnostics.newton_iters.sum() // 10
    k_tau = 8
    rep = ch.duality_check(params, state, k_tau, cost, directions=4)
    assert len(rep.mismatches) == 4
    assert rep.max_mismatch <= 1e-9
    # the sweeps factor the exact A_k once per step each
    assert len(splu_calls) - forward_factors == 2 * k_tau

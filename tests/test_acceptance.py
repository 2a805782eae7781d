"""Acceptance criteria for the whole package, run at desk scale
(1D, 128 cells, 256 time steps). One printed PASS/FAIL line per criterion;
run with `pytest tests/test_acceptance.py -v -s` to see them.

Baseline problem: quartic potential, alpha = beta = 0.1, smooth-ramp
proliferation (p0 = 1), weights b0 = 1e-3, b1 = b3 = 1, b2 = b4 = 0,
b5 = 0.01, b6 = 1, target time 0.5 T, control bounds [0, 2], targets the
constant equilibrium trajectories phi = -0.5, sigma = F'(-0.5) = 0.375.
"""

import numpy as np
import pytest

import chcontrol as ch
import cost_reference as ref
from chcontrol.cli import preset_initial_data
from chcontrol.optimizer import adj_sigma_extended
from conftest import midpoint_control, tracking_cost

SEED = 20240808
GRAD_DELTAS = [0.5, 0.2, 0.1, 1e-4]
# tau_opt and J of the baseline optimum, as optimize reached them when every
# march it made was polished
BASELINE_TAU_OPT = 0.2068344623536995
BASELINE_J_OPT = 0.112835822191356


def _report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


def _assert_mass(traj, u, params, where):
    rep = ch.mass_balance_check(traj, u, params)
    assert rep.residual <= 1e-10, f"mass identity violated in {where}: {rep.residual}"
    return rep.residual


def test_a1_gradient_oracle(baseline_problem):
    params, init, cost, u = baseline_problem
    rep = ch.fd_gradient_check(params, init, cost, u, 0.5, directions=5,
                               deltas=GRAD_DELTAS, seed=SEED)
    err = rep.max_rel_error(1e-4)
    slopes_ok = all(1.7 <= s <= 2.3 for s in rep.slopes)
    _report("A1 gradient-oracle agreement", err <= 1e-6 and slopes_ok,
            f"max rel err {err:.2e} at delta=1e-4, slopes "
            + ", ".join(f"{s:.2f}" for s in rep.slopes))


def test_a2_duality_identity(baseline_problem, baseline_state):
    params, init, cost, u = baseline_problem
    k, _ = params.time_grid.nearest_node(0.5)
    rep = ch.duality_check(params, baseline_state, k, cost, directions=10,
                           seed=SEED)
    _report("A2 duality identity", rep.max_mismatch <= 1e-9,
            f"max relative mismatch {rep.max_mismatch:.2e} over 10 directions")


def test_a3_separation(baseline_problem):
    params, _, _, _ = baseline_problem
    pot = ch.Potential.logarithmic(2.0)
    params_log = ch.ModelParams(params.alpha, params.beta, pot,
                                params.proliferation, params.grid,
                                params.time_grid)
    init = preset_initial_data("random_interior", params_log.grid, pot,
                               amplitude=0.3, seed=7)
    u = ch.constant_trajectory(params_log.grid, params_log.time_grid, 0.0)
    traj = ch.solve_state(params_log, init, u)  # raises on newton divergence
    assert traj.nframes == params.time_grid.steps + 1
    per_frame = [pot.distance(phi) for phi in traj.phi]
    worst = int(np.argmin(per_frame))
    _assert_mass(traj, u, params_log, "A3")
    _report("A3 uniform separation", per_frame[worst] >= 0.01,
            f"delta_sep {per_frame[worst]:.4f} over 256 steps, "
            f"worst frame {worst}, zero newton divergences")


def test_a4_mass_identity(baseline_problem, baseline_state):
    params, init, cost, u = baseline_problem
    residuals = [_assert_mass(baseline_state, u, params, "baseline")]
    rng = np.random.default_rng(SEED)
    u_rand = rng.uniform(0.0, 2.0, u.shape)
    traj = ch.solve_state(params, init, u_rand)
    residuals.append(_assert_mass(traj, u_rand, params, "random control"))
    _report("A4 mass identity", max(residuals) <= 1e-10,
            f"max residual {max(residuals):.2e} including nonzero control")


def test_a5_time_derivative_formula(baseline_problem, baseline_state):
    params, init, cost, u = baseline_problem
    rng = np.random.default_rng(SEED)
    delta = 1e-3
    worst = 0.0
    prof = ch.TauProfile(baseline_state, u, cost)
    for tau in rng.uniform(0.2 * params.time_grid.horizon,
                           0.8 * params.time_grid.horizon, 5):
        d = prof.derivative(tau)
        fd = (ref.evaluate_cost(baseline_state, u, tau + delta, cost).total
              - ref.evaluate_cost(baseline_state, u, tau - delta, cost).total
              ) / (2 * delta)
        worst = max(worst, abs(d - fd) / max(abs(d), 1e-300))
    _report("A5 time-derivative formula", worst <= 1e-2,
            f"max rel err {worst:.2e} vs central FD at delta=1e-3, 5 interior tau")


@pytest.fixture(scope="module")
def baseline_optimum(baseline_problem):
    params, init, cost, u = baseline_problem
    res = ch.optimize(params, init, cost, u, tau0=0.5, lower=0.0, upper=2.0,
                      max_outer_iters=500, grad_tol=1e-4)
    # the optimum that polished marches reach: a change to the optimizer's
    # marches must not move it
    assert res.tau_opt == pytest.approx(BASELINE_TAU_OPT, rel=1e-8)
    assert res.history[-1].breakdown.total == pytest.approx(BASELINE_J_OPT, rel=1e-8)
    return res


def test_a6_kkt_at_convergence(baseline_problem, baseline_optimum):
    params, init, cost, _ = baseline_problem
    grid, tg = params.grid, params.time_grid
    res = baseline_optimum
    assert res.converged, "optimizer did not converge"
    _assert_mass(res.state, res.u_opt, params, "A6 optimum")

    k, _ = tg.nearest_node(res.tau_opt)
    adjoint = ch.solve_adjoint(params, res.state, k, cost)
    cand = np.clip(-adj_sigma_extended(adjoint, tg) / cost.b0, 0.0, 2.0)
    resid_u = ch.space_time_norm(grid, tg.dt, res.u_opt - cand)
    u_norm = ch.space_time_norm(grid, tg.dt, res.u_opt)
    ok_u = resid_u <= 1e-4 * (1.0 + u_norm)

    j_total = ch.reduced_cost(res.state, res.u_opt, res.tau_opt, cost).total
    rep = ch.classify_time_optimality(res.state, res.u_opt, res.tau_opt, cost,
                                      1e-4 * (1.0 + abs(j_total)))
    ok_tau = rep.satisfied
    ok_fp = True
    fp_text = "boundary case"
    if rep.case == "interior":
        ok_fp = rep.fixed_point_residual <= tg.dt
        fp_text = f"fixed-point residual {rep.fixed_point_residual:.2e} <= dt"
    _report("A6 KKT at convergence", ok_u and ok_tau and ok_fp,
            f"projection residual {resid_u:.2e} <= {1e-4 * (1 + u_norm):.2e}, "
            f"time case {rep.case} with |D_tau J| {abs(rep.derivative):.2e}, "
            + fp_text)


def test_a7_degenerate_optima(baseline_problem):
    params, init, _, _ = baseline_problem
    grid, tg = params.grid, params.time_grid
    settings = {"max_outer_iters": 100, "grad_tol": 1e-9}

    u0 = ch.constant_trajectory(grid, tg, 0.5)
    res = ch.optimize(params, init, ch.CostSpec(b0=1e-3), u0, tau0=0.5,
                      lower=-1.0, upper=2.0, **settings)
    u_norm = ch.space_time_norm(grid, tg.dt, res.u_opt)
    ok_a = res.converged and u_norm <= 1e-8

    u0 = midpoint_control(params)
    res_b = ch.optimize(params, init, ch.CostSpec(b5=1.0), u0, tau0=0.5,
                        lower=0.0, upper=2.0, **settings)
    d = ch.TauProfile(res_b.state, res_b.u_opt, ch.CostSpec(b5=1.0)).derivative(
        res_b.tau_opt)
    ok_b = res_b.converged and res_b.tau_opt == 0.0 and d >= 0.0 \
        and res_b.time_case == "boundary_low"

    res_c = ch.optimize(params, init, ch.CostSpec(b6=1.0, tau_star=0.5),
                        u0, tau0=0.9, lower=0.0, upper=2.0, **settings)
    ok_c = res_c.converged and abs(res_c.tau_opt - 0.5) <= tg.dt
    _report("A7 analytic degenerate optima", ok_a and ok_b and ok_c,
            f"b0-only |u| {u_norm:.1e}; b5-only tau {res_b.tau_opt} "
            f"(D_tau J = {d}); b6-only |tau - tau*| {abs(res_c.tau_opt - 0.5):.1e}")


def test_a8_linearized_consistency(baseline_problem, baseline_state):
    params, init, cost, u = baseline_problem
    grid, tg = params.grid, params.time_grid
    rng = np.random.default_rng(SEED)
    h = rng.standard_normal(u.shape)
    # scaled so the quadratic remainder stays above the arithmetic floor of
    # the solves at the smallest eps
    h *= 10.0 / ch.space_time_norm(grid, tg.dt, h)
    lin = ch.solve_linearized(params, baseline_state, h)
    eps_list = [1e-2, 1e-3, 1e-4]
    errs = []
    for eps in eps_list:
        up = u + eps * h
        sp = ch.solve_state(params, init, up)
        diff = (sp.data - baseline_state.data) / eps - lin.data
        errs.append(float(np.sqrt(np.sum(diff**2) * grid.cell_volume * tg.dt)))
    slope = float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0])
    _report("A8 linearized consistency", 0.7 <= slope <= 1.3,
            f"log-log slope {slope:.3f} over eps {eps_list}")


def test_a9_relaxed_functional(baseline_problem, baseline_state):
    params, init, _, u = baseline_problem
    grid, tg = params.grid, params.time_grid
    relax = ch.Relaxation(0.5, 0.05, grid.full(0.3))
    cost = tracking_cost(params, relaxation=relax)

    rep_g = ch.fd_gradient_check(params, init, cost, u, 0.5, directions=5,
                                 deltas=GRAD_DELTAS, seed=SEED)
    err = rep_g.max_rel_error(1e-4)
    ok_grad = err <= 1e-6 and all(1.7 <= s <= 2.3 for s in rep_g.slopes)

    k, _ = tg.nearest_node(0.5)
    rep_d = ch.duality_check(params, baseline_state, k, cost, directions=10,
                             seed=SEED)
    ok_dual = rep_d.max_mismatch <= 1e-9

    # constant unit residual: the window term is exactly gamma / 2
    flat = np.zeros((tg.steps + 1, 3) + grid.shape)
    flat[:, 2] = 1.3
    synth = ch.Trajectory(grid, tg, flat, ("mu", "phi", "sigma"))
    bd = ch.reduced_cost(synth, u, 0.5, cost)
    ok_norm = abs(bd.relaxed_term - relax.gamma / 2) <= 1e-12
    _report("A9 relaxed functional", ok_grad and ok_dual and ok_norm,
            f"gradient err {err:.2e}, duality {rep_d.max_mismatch:.2e}, "
            f"|relaxed - gamma/2| {abs(bd.relaxed_term - relax.gamma / 2):.2e}")


def test_a10_lipschitz_stability(baseline_problem):
    params, init, _, u = baseline_problem
    rep = ch.lipschitz_check(params, init, u, pairs=5,
                             magnitudes=[1e-1, 1e-2, 1e-3], seed=SEED)
    spread = rep.spread_across_magnitudes()
    _report("A10 Lipschitz stability", spread <= 3.0,
            f"max ratio spread across magnitudes {spread:.3f} over 5 pairs")

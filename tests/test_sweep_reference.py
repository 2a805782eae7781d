"""The linearized and adjoint sweeps against the loops as first written.

``reference_linearized`` and ``reference_adjoint`` evaluate P, P', B''
and S'' and write the explicit coupling C_k (or C_k^T) inline, each on
its own, as both sweeps did before they read the step derivative from
:mod:`chcontrol.system`. The production sweeps must reproduce them bit
for bit. The step-level test checks that ``system.coupling`` with
``transpose=True`` is the exact transpose of the forward coupling.
"""

import numpy as np
import pytest

import chcontrol as ch
from chcontrol.cli import preset_initial_data
from chcontrol.objective import time_weights, window_weights
from chcontrol.system import StepSolver, coupling, step_coefficients


def reference_linearized(params, state, hv):
    """Frames 0..nt of the linearized sweep; hv is (nt+1, [ndir,] *grid)."""
    pot = params.potential
    solver = StepSolver(params.grid, params.time_grid.dt, params.alpha, params.beta)
    a, b, c = solver.a, solver.b, solver.c
    mu, phi, sigma = state.mu, state.phi, state.sigma
    nt = params.time_grid.steps
    data = np.zeros((nt + 1, 3) + hv.shape[1:])
    for k in range(nt):
        e0, t0, r0 = data[k]
        f_old, f_new = phi[k], phi[k + 1]
        p_frozen = params.proliferation.P(f_old)
        w = params.proliferation.dP(f_old) * (sigma[k + 1] - mu[k + 1])
        pi_prime = pot.d2S(f_old)
        bpp = pot.d2B(f_new)
        rhs1 = a * e0 + c * t0 + w * t0
        rhs2 = b * t0 - pi_prime * t0
        rhs3 = c * r0 - w * t0 + hv[k]
        e1, t1, r1 = solver.solve(p_frozen, bpp, (rhs1, rhs2, rhs3))
        data[k + 1, 0], data[k + 1, 1], data[k + 1, 2] = e1, t1, r1
    return data


def reference_adjoint(params, state, k_tau, cost):
    """Frames 0..k_tau of the adjoint sweep."""
    grid, dt, pot = params.grid, params.time_grid.dt, params.potential
    mu, phi, sigma = state.mu, state.phi, state.sigma
    data = np.zeros((k_tau + 1, 3) + grid.shape)
    q_term = np.zeros(grid.shape)
    if cost.b2 > 0:
        diff = phi[k_tau] if cost.phi_omega is None else phi[k_tau] - cost.phi_omega
        q_term = q_term + cost.b2 * diff
    data[k_tau, 1] = (q_term + 0.5 * cost.b4) / params.beta
    solver = StepSolver(grid, dt, params.alpha, params.beta)
    a, b, c = solver.a, solver.b, solver.c
    wq = time_weights(k_tau + 1, dt)
    relax = cost.relaxation
    win = None
    if relax is not None and relax.gamma > 0:
        win = relax.gamma / relax.eps * window_weights(k_tau, dt, relax.eps)
    lm = np.zeros(grid.shape)
    lf = np.zeros(grid.shape)
    ls = np.zeros(grid.shape)
    riesz = time_weights(k_tau + 1, dt)[: k_tau]
    for k in range(k_tau, 0, -1):
        rhs_m = np.zeros(grid.shape)
        rhs_f = np.zeros(grid.shape)
        rhs_s = np.zeros(grid.shape)
        if k < k_tau:
            w = params.proliferation.dP(phi[k]) * (sigma[k + 1] - mu[k + 1])
            pi_prime = pot.d2S(phi[k])
            rhs_m = a * lm
            rhs_f = c * lm + w * lm + (b - pi_prime) * lf - w * ls
            rhs_s = c * ls
        if cost.b1 > 0:
            diff = phi[k] if cost.phi_q is None else phi[k] - cost.phi_q[k]
            rhs_f = rhs_f + cost.b1 * wq[k] * diff
        if k == k_tau:
            if cost.b2 > 0:
                diff = phi[k] if cost.phi_omega is None else phi[k] - cost.phi_omega
                rhs_f = rhs_f + cost.b2 * diff
            if cost.b4 > 0:
                rhs_f = rhs_f + 0.5 * cost.b4
        if cost.b3 > 0:
            diff = sigma[k] if cost.sigma_q is None else sigma[k] - cost.sigma_q[k]
            rhs_s = rhs_s + cost.b3 * wq[k] * diff
        if win is not None:
            rhs_s = rhs_s + win[k] * (sigma[k] - relax.sigma_omega)
        p_frozen = params.proliferation.P(phi[k - 1])
        bpp = pot.d2B(phi[k])
        lm, lf, ls = solver.solve(p_frozen, bpp, (rhs_m, rhs_f, rhs_s), transpose=True)
        data[k - 1, 0] = lm / riesz[k - 1]
        data[k - 1, 1] = lf / riesz[k - 1]
        data[k - 1, 2] = ls / riesz[k - 1]
    return data


def _problem(dim):
    """A solved state and a cost with b1..b4 and the relaxation on: 1D
    quartic, or 2D logarithmic on an anisotropic rectangle."""
    if dim == 1:
        grid, tg, pot = ch.Grid.line(24, 1.0), ch.TimeGrid(0.5, 12), ch.Potential.quartic()
    else:
        grid = ch.Grid.rectangle(9, 7, 1.2, 0.8)
        tg, pot = ch.TimeGrid(0.25, 10), ch.Potential.logarithmic(2.0)
    params = ch.ModelParams(0.1, 0.1, pot, ch.Proliferation.smooth_ramp(1.0, 0.5), grid, tg)
    init = preset_initial_data("random_interior", grid, pot, amplitude=0.3, seed=5)
    rng = np.random.default_rng(dim)
    u = rng.uniform(0.0, 2.0, (tg.steps + 1,) + grid.shape)
    state = ch.solve_state(params, init, u)
    cost = ch.CostSpec(
        b0=1e-3, b1=1.0, b2=0.4, b3=1.0, b4=0.2, b5=0.01, b6=1.0,
        phi_q=ch.constant_trajectory(grid, tg, -0.5),
        sigma_q=ch.constant_trajectory(grid, tg, 0.375),
        phi_omega=grid.full(-0.5), tau_star=tg.horizon / 2,
        relaxation=ch.Relaxation(0.5, 2.5 * tg.dt, grid.full(0.3)),
    )
    return params, state, cost


@pytest.fixture(scope="module", params=[1, 2], ids=["1d-quartic", "2d-logarithmic"])
def problem(request):
    return _problem(request.param)


@pytest.mark.parametrize("ndir", [None, 3], ids=["one", "stack3"])
def test_linearized_matches_reference(problem, ndir):
    params, state, _ = problem
    nodes = (params.time_grid.steps + 1,) + params.grid.shape
    rng = np.random.default_rng(11)
    if ndir is None:
        h = rng.standard_normal(nodes)
        expected = reference_linearized(params, state, h)
    else:
        h = rng.standard_normal((ndir,) + nodes)
        expected = reference_linearized(params, state, np.moveaxis(h, 0, 1))
    assert np.array_equal(ch.solve_linearized(params, state, h).data, expected)


@pytest.mark.parametrize("where", ["interior", "end"])
def test_adjoint_matches_reference(problem, where):
    params, state, cost = problem
    nt = params.time_grid.steps
    k_tau = nt // 2 + 1 if where == "interior" else nt
    got = ch.solve_adjoint(params, state, k_tau, cost).data
    assert np.array_equal(got, reference_adjoint(params, state, k_tau, cost))


@pytest.mark.parametrize("stacked", [False, True], ids=["frame", "stack3"])
def test_coupling_transpose_is_exact(problem, stacked):
    params, state, _ = problem
    solver = StepSolver(params.grid, params.time_grid.dt, params.alpha, params.beta)
    _, _, ex, spp = step_coefficients(params, state, params.time_grid.steps // 2)
    shape = (3,) + ((3,) if stacked else ()) + params.grid.shape
    rng = np.random.default_rng(7)
    y, l = rng.standard_normal(shape), rng.standard_normal(shape)
    cy = np.stack(coupling(solver, ex, spp, y))
    ctl = np.stack(coupling(solver, ex, spp, l, transpose=True))
    lhs, rhs = np.sum(cy * l), np.sum(y * ctl)
    scale = max(np.abs(cy * l).sum(), np.abs(y * ctl).sum())
    assert abs(lhs - rhs) <= 1e-12 * scale

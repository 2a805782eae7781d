import dataclasses

import numpy as np
import pytest

import chcontrol as ch
import cost_reference as ref
from chcontrol.objective import lerp_nodes
from conftest import equilibrium_init, make_problem, midpoint_control, tracking_cost


@pytest.fixture(scope="module")
def problem():
    params = make_problem(n=48, nt=40)
    init = equilibrium_init(params)
    u = midpoint_control(params)
    state = ch.solve_state(params, init, u)
    return params, init, u, state


def _flat_state(params, phi=0.0, sigma=0.0):
    grid, tg = params.grid, params.time_grid
    data = np.zeros((tg.steps + 1, 3) + grid.shape)
    data[:, 1] = phi
    data[:, 2] = sigma
    return ch.Trajectory(grid, tg, data, ("mu", "phi", "sigma"))


def test_time_quadrature_helpers():
    dt = 0.125
    g = np.ones(9)
    assert ref.quad_upto(g, 1.0, dt) == pytest.approx(1.0, abs=1e-15)
    assert ref.quad_upto(g, 0.3, dt) == pytest.approx(0.3, abs=1e-15)
    lin = np.arange(9.0)
    assert lerp_nodes(lin, 0.5, dt) == pytest.approx(4.0)
    # derivative of the running integral is the interpolated integrand
    tau, eps = 0.43, 1e-7
    fd = (ref.quad_upto(lin, tau + eps, dt) - ref.quad_upto(lin, tau - eps, dt)) / (2 * eps)
    assert fd == pytest.approx(lerp_nodes(lin, tau, dt), rel=1e-6)


def test_linear_time_term_only(problem):
    params, _, u, state = problem
    cost = ch.CostSpec(b5=1.0)
    bd = ch.reduced_cost(state, u, 0.3, cost)
    assert bd.total == 0.3
    assert bd.linear_time == 0.3


def test_perfect_tracking_zero_cost(problem):
    params, _, _, _ = problem
    grid, tg = params.grid, params.time_grid
    state = _flat_state(params, phi=-0.5, sigma=0.375)
    cost = tracking_cost(params, b0=1.0, b5=0.0, b6=1.0)
    u = ch.constant_trajectory(grid, tg, 0.0)
    bd = ch.reduced_cost(state, u, cost.tau_star, cost)
    assert bd.total == 0.0


def test_tumour_mass_normalization(problem):
    # healthy tissue everywhere: the mass term vanishes
    params, _, u, _ = problem
    state = _flat_state(params, phi=-1.0)
    cost = ch.CostSpec(b4=2.0)
    bd = ch.reduced_cost(state, u, 0.5, cost)
    assert abs(bd.tumour_mass) <= 1e-15
    assert abs(bd.total) <= 1e-15


def test_control_energy_covers_full_horizon(problem):
    params, _, _, state = problem
    grid, tg = params.grid, params.time_grid
    cost = ch.CostSpec(b0=2.0)
    u = ch.constant_trajectory(grid, tg, 1.0)
    for tau in (0.1, 0.9):
        bd = ch.reduced_cost(state, u, tau, cost)
        assert bd.control_energy == pytest.approx(1.0, rel=1e-12)


def test_cost_rejects_mismatched_targets(problem):
    params, _, u, state = problem
    other = make_problem(n=32, nt=40)
    cost = tracking_cost(other)
    with pytest.raises(ch.GridMismatchError):
        ch.reduced_cost(state, u, 0.5, cost)
    # one shape rule for validate and the evaluation, the window target too
    relax = ch.Relaxation(0.4, 0.13, other.grid.full(0.2))
    cost = tracking_cost(params, relaxation=relax)
    for check in (lambda: cost.validate(params.grid, params.time_grid),
                  lambda: ch.TauProfile(state, u, cost)):
        with pytest.raises(ch.GridMismatchError, match="^cost.relaxation.sigma_omega: "):
            check()


def test_breakdown_total_is_sum(problem):
    params, _, u, state = problem
    cost = tracking_cost(params, b2=0.3, b4=0.1)
    bd = ch.reduced_cost(state, u, 0.37, cost)
    s = sum(bd.terms().values())
    assert abs(bd.total - s) <= 1e-13 * max(abs(s), 1.0)
    # every term is nonnegative apart from the mass term, which only goes
    # negative where phi drops below -1
    for name, value in bd.terms().items():
        if name != "tumour_mass":
            assert value >= 0.0


def test_relaxed_reduces_to_plain(problem):
    params, _, u, state = problem
    relax = ch.Relaxation(0.0, 0.1, params.grid.full(0.3))
    cost = tracking_cost(params, relaxation=relax)
    plain = ch.reduced_cost(state, u, 0.4, tracking_cost(params))
    relaxed = ch.reduced_cost(state, u, 0.4, cost)
    assert relaxed.total == plain.total
    assert relaxed.relaxed_term == 0.0


def test_relaxed_zero_when_on_target(problem):
    params, _, u, _ = problem
    state = _flat_state(params, sigma=0.3)
    relax = ch.Relaxation(0.5, 0.1, params.grid.full(0.3))
    cost = tracking_cost(params, b1=0.0, b3=0.0, relaxation=relax)
    bd = ch.reduced_cost(state, u, 0.5, cost)
    assert bd.relaxed_term == 0.0


def test_relaxed_normalization_constant_residual(problem):
    # sigma - sigma_omega == 1 and tau >= eps: the window term is gamma / 2
    params, _, u, _ = problem
    state = _flat_state(params, sigma=1.3)
    relax = ch.Relaxation(0.8, 0.1, params.grid.full(0.3))
    cost = ch.CostSpec(b5=1.0, relaxation=relax)
    bd = ch.reduced_cost(state, u, 0.5, cost)
    assert bd.relaxed_term == pytest.approx(0.4, abs=1e-12)


def test_time_derivative_constant_terms(problem):
    params, _, u, state = problem
    assert ch.TauProfile(state, u, ch.CostSpec(b5=1.0)).derivative(0.42) == 1.0
    cost6 = ch.CostSpec(b6=1.0, tau_star=0.5)
    assert ch.TauProfile(state, u, cost6).derivative(0.7) == pytest.approx(0.2, abs=1e-14)


def test_minimize_returns_either_end(problem):
    # a quadratic time cost centred on an end is minimized there: the
    # derivative does not change sign inside the bracket of the best node
    _, _, u, state = problem
    horizon = state.time_grid.horizon
    for tau_star in (0.0, horizon):
        cost = ch.CostSpec(b6=1.0, tau_star=tau_star)
        assert ch.TauProfile(state, u, cost).minimize() == tau_star


def test_time_derivative_matches_fd(problem):
    params, _, u, state = problem
    cost = tracking_cost(params, b2=0.4, b4=0.2)
    prof = ch.TauProfile(state, u, cost)
    rng = np.random.default_rng(10)
    delta = 1e-3
    for tau in rng.uniform(0.2, 0.8, 5):
        d = prof.derivative(tau)
        fd = (ref.evaluate_cost(state, u, tau + delta, cost).total
              - ref.evaluate_cost(state, u, tau - delta, cost).total) / (2 * delta)
        assert abs(d - fd) <= max(1e-2 * abs(d), 1e-1 * params.time_grid.dt)


def test_time_derivative_relaxed_matches_fd(problem):
    params, _, u, state = problem
    relax = ch.Relaxation(0.6, 0.11, params.grid.full(0.3))
    cost = tracking_cost(params, relaxation=relax)
    prof = ch.TauProfile(state, u, cost)
    delta = 1e-3
    for tau in (0.3, 0.62):
        d = prof.derivative(tau)
        fd = (ref.evaluate_cost_relaxed(state, u, tau + delta, cost).total
              - ref.evaluate_cost_relaxed(state, u, tau - delta, cost).total) / (2 * delta)
        assert abs(d - fd) <= max(1e-2 * abs(d), 1e-1 * params.time_grid.dt)


def test_derivative_at_zero_is_forward_slope(problem):
    # no interval lies left of tau = 0, so the derivative there is the
    # right slope, the one the boundary_low condition D_tau J >= 0 tests
    params, _, u, state = problem
    dt = params.time_grid.dt
    cost = tracking_cost(params, b2=0.5, b4=0.2)
    j0, j_half, j1 = (ref.evaluate_cost(state, u, t, cost).total
                      for t in (0.0, 0.5 * dt, dt))
    # the cost is quadratic in tau on the first interval, so this
    # Richardson combination of two forward differences is its exact slope
    forward = 2.0 * (j_half - j0) / (0.5 * dt) - (j1 - j0) / dt
    d = ch.TauProfile(state, u, cost).derivative(0.0)
    assert d == pytest.approx(forward, rel=1e-9)
    assert d != pytest.approx((j1 - j0) / dt, rel=1e-3)  # the slope, not a chord


def test_lambda_identity(problem):
    params, _, u, state = problem
    cost = tracking_cost(params, b6=1.7, tau_star=0.4)
    prof = ch.TauProfile(state, u, cost)
    rng = np.random.default_rng(3)
    for tau in rng.uniform(0.1, 0.9, 5):
        rep = ch.classify_time_optimality(state, u, tau, cost, 1e-6)
        d = rep.derivative
        assert d == prof.derivative(tau)
        assert abs(d - (rep.lambda_value + cost.b6 * (tau - cost.tau_star))) \
            <= 1e-14 * max(abs(d), 1.0)
    rep5 = ch.classify_time_optimality(state, u, 0.3, ch.CostSpec(b5=1.0), 1e-6)
    assert rep5.lambda_value == 1.0
    rep0 = ch.classify_time_optimality(state, u, 0.3, tracking_cost(params, b6=0.0), 1e-6)
    assert rep0.lambda_value == rep0.derivative


def test_control_gradient_structure(problem):
    params, _, u, state = problem
    tg = params.time_grid
    cost = tracking_cost(params)
    k = tg.steps
    adj = ch.solve_adjoint(params, state, k, cost)
    grad = ch.control_gradient(adj, u, 0.0)
    assert np.array_equal(grad, adj.adj_sigma)
    # zero adjoint: gradient is b0 u
    adj0 = ch.solve_adjoint(params, state, k, ch.CostSpec(b0=1.0))
    grad0 = ch.control_gradient(adj0, u, 0.5)
    assert np.array_equal(grad0, 0.5 * u)
    # truncated adjoint is zero-extended
    adj_half = ch.solve_adjoint(params, state, 20, cost)
    grad_half = ch.control_gradient(adj_half, u, 0.0)
    assert np.all(grad_half[21:] == 0.0)


def test_control_gradient_rejects_longer_adjoint(problem):
    params, _, u, state = problem
    adj = ch.solve_adjoint(params, state, 20, tracking_cost(params))
    short = u[:11]
    with pytest.raises(ch.GridMismatchError):
        ch.control_gradient(adj, short, 0.0)


def test_control_gradient_directional_oracle(problem):
    params, init, u, state = problem
    grid, tg = params.grid, params.time_grid
    cost = tracking_cost(params)
    k, _ = tg.nearest_node(0.5)
    tau = tg.times[k]
    adj = ch.solve_adjoint(params, state, k, cost)
    grad = ch.control_gradient(adj, u, cost.b0)
    rng = np.random.default_rng(17)
    delta = 1e-4
    for _ in range(5):
        h = rng.standard_normal(u.shape)
        h /= ch.space_time_norm(grid, tg.dt, h)
        pairing = ch.space_time_inner(grid, tg.dt, grad, h)
        up = u + delta * h
        dn = u - delta * h
        fd = (ref.evaluate_cost(ch.solve_state(params, init, up), up, tau, cost).total
              - ref.evaluate_cost(ch.solve_state(params, init, dn), dn, tau, cost).total
              ) / (2 * delta)
        assert abs(fd - pairing) <= 1e-6 * max(abs(pairing), 1e-12)


def test_tau_profile_matches_cost(problem):
    params, _, u, state = problem
    tg = params.time_grid
    relax = ch.Relaxation(0.4, 0.13, params.grid.full(0.2))
    cost = tracking_cost(params, b2=0.3, b4=0.2, relaxation=relax)
    assert all(w > 0 for w in cost.weights())
    prof = ch.TauProfile(state, u, cost)
    rng = np.random.default_rng(23)
    taus = list(rng.uniform(0.0, 1.0, 12)) + [0.0, 0.5, 1.0] + list(tg.times[[1, 20, 39]])
    for tau in taus:
        expected = ref.evaluate_cost_relaxed(state, u, tau, cost)
        bd = prof.breakdown(tau)
        for name, value in expected.terms().items():
            assert bd.terms()[name] == pytest.approx(value, rel=1e-12, abs=1e-13), name
        assert prof.value(tau) == bd.total
        assert bd.total == pytest.approx(expected.total, rel=1e-12, abs=1e-13)
        assert prof.derivative(tau) == pytest.approx(
            ref.time_derivative(state, tau, cost), rel=1e-11, abs=1e-12)
    # roundoff past an end of [0, T] is clamped; anything more is an error
    assert prof.value(1.0 + 1e-13) == prof.value(1.0)
    for bad in (-1e-3, 1.0 + 1e-6, np.nan):
        for evaluate in (prof.breakdown, prof.value, prof.derivative):
            with pytest.raises(ch.TimeDomainError):
                evaluate(bad)
    with pytest.raises(ch.GridMismatchError):
        ch.TauProfile(state, u, tracking_cost(make_problem(n=32, nt=40)))
    # the control has the one shape rule of state.check_control_shape
    short = ch.constant_trajectory(params.grid, ch.TimeGrid(1.0, 20), 1.0)
    with pytest.raises(ch.ShapeMismatchError,
                       match=r"^control: shape \(21, 48\), expected \(41, 48\)$"):
        ch.TauProfile(state, short, cost)


@pytest.mark.parametrize("terms", [
    lambda g: dict(b2=0.3, b4=0.2), lambda g: dict(b2=0.3), lambda g: dict(b4=0.2),
    lambda g: dict(relaxation=ch.Relaxation(0.5, 0.1, g.full(0.3)))],
    ids=["b2-b4", "b2", "b4", "relaxed"])
def test_partial_profile_is_the_full_one_on_its_frames(problem, terms):
    # a cost that can fall past tau_star reads frames 0..W as the full
    # profile does on [0, t_W), last interval included, but cannot certify
    # its time minimizer from them
    params, _, u, state = problem
    tg = params.time_grid
    cost = tracking_cost(params, **terms(params.grid))
    assert not cost.monotone_tail()
    full = ch.TauProfile(state, u, cost)
    for w in (1, 2, 12, tg.steps - 1):
        part = ch.Trajectory(params.grid, tg, state.data[:w + 1], state.names)
        profile = ch.TauProfile(part, u, cost)
        taus = [tg.times[j] + s * tg.dt for j in range(w) for s in (0.0, 0.008, 0.5,
                                                                     0.992)]
        for tau in taus:
            assert repr((dataclasses.astuple(profile.breakdown(tau)),
                         profile.derivative(tau))) == repr(
                (dataclasses.astuple(full.breakdown(tau)), full.derivative(tau))), tau
        assert profile.minimize() is None
        with pytest.raises(ch.TimeDomainError, match="past the first"):
            profile.derivative(tg.times[w])

"""The optimizer's trial marches stop at a window: every reported bit is
the one that full marches give.

Each run is compared with a run whose window is forced to the horizon
through ``CostSpec.trial_window``; the partial cost profile, its
certificate and the adjoint on the first frames are checked on their
own against the full march.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chcontrol as ch
import chcontrol.optimizer as optimizer_module
from conftest import make_problem, tracking_cost


def _random_init(params, seed=4):
    # a state that is not spatially flat, so every cell's misfit differs
    grid, pot = params.grid, params.potential
    phi0 = 0.2 + 0.05 * np.random.default_rng(seed).uniform(-1.0, 1.0, grid.shape)
    mu0 = pot.dF(phi0)
    return ch.InitialData(mu0, phi0, mu0.copy())


def _problem_1d():
    params = make_problem(n=32, nt=48)
    return params, tracking_cost(params, tau_star=0.3), 0.3


def _problem_2d():
    grid = ch.Grid.rectangle(8, 6, 1.0, 0.75)
    tg = ch.TimeGrid(0.5, 24)
    params = ch.ModelParams(0.1, 0.1, ch.Potential.quartic(),
                            ch.Proliferation.smooth_ramp(1.0, 0.5), grid, tg)
    return params, tracking_cost(params, tau_star=0.15), 0.15


def _counted_runs(monkeypatch, params, cost, tau0, force_full, **kwargs):
    """One optimize run from u = 1, and the steps of each of its forward
    marches; ``force_full`` makes every march reach the horizon."""
    steps = []

    def counting_solve_state(*args, **kw):
        traj = ch.solve_state(*args, **kw)
        steps.append(traj.nframes - 1)
        return traj

    with monkeypatch.context() as m:
        m.setattr(optimizer_module, "solve_state", counting_solve_state)
        if force_full:
            m.setattr(ch.CostSpec, "trial_window", lambda cost, tg, tau: tg.steps)
        u0 = ch.constant_trajectory(params.grid, params.time_grid, 1.0)
        res = ch.optimize(params, _random_init(params), cost, u0, tau0=tau0,
                          lower=0.0, upper=2.0, **kwargs)
    return res, steps


def _assert_same_result(a, b):
    assert a.u_opt.tobytes() == b.u_opt.tobytes()
    assert repr(a.tau_opt) == repr(b.tau_opt)
    assert (a.time_case, a.converged, a.iterations) == (b.time_case, b.converged,
                                                        b.iterations)
    assert repr((a.stat_u, a.stat_tau)) == repr((b.stat_u, b.stat_tau))
    # repr compares every float of every row by its bits
    assert [repr(dataclasses.astuple(r)) for r in a.history] == \
        [repr(dataclasses.astuple(r)) for r in b.history]
    assert a.state.data.tobytes() == b.state.data.tobytes()
    assert a.adjoint.data.tobytes() == b.adjoint.data.tobytes()
    assert a.gradient.tobytes() == b.gradient.tobytes()


@pytest.mark.parametrize("make", [_problem_1d, _problem_2d], ids=["1d", "2d"])
def test_windowed_optimize_is_bitwise_the_full_one(monkeypatch, make):
    params, cost, tau0 = make()
    nt = params.time_grid.steps
    kwargs = dict(max_outer_iters=8, grad_tol=1e-300)
    windowed, w_steps = _counted_runs(monkeypatch, params, cost, tau0, False, **kwargs)
    full, f_steps = _counted_runs(monkeypatch, params, cost, tau0, True, **kwargs)
    _assert_same_result(windowed, full)
    assert set(f_steps) == {nt}
    # the trials stopped short; the first and the last march are full, and
    # every windowed state was certified, so no other march is
    assert w_steps[0] == w_steps[-1] == nt and max(w_steps[1:-1]) < nt
    assert len(w_steps) == len(f_steps) + 1
    assert windowed.state.nframes == nt + 1


def test_uncertified_window_marches_to_the_horizon(monkeypatch):
    # a tracking weight far below the certificate's slack leaves the cost
    # flat in tau to rounding, so no windowed state can be certified and
    # each outer iteration marches its control to the horizon again
    params, _, tau0 = _problem_1d()
    cost = tracking_cost(params, b1=1e-20, b3=0.0, b5=0.0, b6=0.0, tau_star=0.3)
    kwargs = dict(max_outer_iters=4, grad_tol=1e-300)
    windowed, w_steps = _counted_runs(monkeypatch, params, cost, tau0, False, **kwargs)
    full, f_steps = _counted_runs(monkeypatch, params, cost, tau0, True, **kwargs)
    _assert_same_result(windowed, full)
    # each search here accepts its first trial, so every windowed march is
    # followed by the march of the same control to the horizon
    nt = params.time_grid.steps
    pairs = [(a, b) for a, b in zip(w_steps, w_steps[1:]) if a < nt]
    assert pairs and all(b == nt for _, b in pairs)
    assert len(w_steps) == len(f_steps) + len(pairs)


@pytest.fixture(scope="module")
def marched():
    params = make_problem(n=24, nt=40)
    u = 0.6 + 0.5 * np.sin(np.linspace(0.0, 3.0, 41))[:, None] * np.ones(24)
    return params, u, ch.solve_state(params, _random_init(params), u)


def _profile_answers(profile, tau_ref):
    candidate = profile.minimize()
    if candidate is None:
        return None
    node, snap = profile.tg.nearest_node(candidate)
    tau_node = profile.tg.times[node]
    return repr((candidate, node, snap,
                 profile.value(candidate) < profile.value(tau_ref),
                 dataclasses.astuple(profile.breakdown(candidate)),
                 dataclasses.astuple(profile.breakdown(tau_node)),
                 dataclasses.astuple(profile.breakdown(tau_ref)),
                 profile.derivative(candidate), profile.derivative(tau_ref)))


weight = st.one_of(st.just(0.0), st.floats(1e-4, 10.0))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(b0=weight, b1=weight, b3=weight, b5=weight, b6=weight,
       tau_star=st.floats(0.0, 1.0), tau_ref=st.floats(0.0, 1.0))
def test_windowed_time_block_matches_the_full_one(marched, b0, b1, b3, b5, b6,
                                                  tau_star, tau_ref):
    params, u, state = marched
    tg = params.time_grid
    cost = tracking_cost(params, b0=b0, b1=b1, b3=b3, b5=b5, b6=b6,
                         tau_star=tau_star)
    w = cost.trial_window(tg, tau_ref)
    part = ch.Trajectory(params.grid, tg, state.data[:w + 1], state.names)
    windowed = ch.TauProfile(part, u, cost)
    full = ch.TauProfile(state, u, cost)
    got = _profile_answers(windowed, tau_ref)
    if got is not None:
        assert got == _profile_answers(full, tau_ref)
        assert int(np.argmin(full.node_values())) <= w - 2 or w == tg.steps


def test_windowed_time_block_certifies_the_tracking_cost(marched):
    # the shipped cost's shape: the window's certificate holds
    params, u, state = marched
    tg = params.time_grid
    cost = tracking_cost(params)
    w = cost.trial_window(tg, 0.5)
    assert w == tg.nearest_node(0.5)[0] + 2 < tg.steps
    part = ch.Trajectory(params.grid, tg, state.data[:w + 1], state.names)
    windowed = ch.TauProfile(part, u, cost)
    assert windowed.minimize() is not None
    assert _profile_answers(windowed, 0.5) == _profile_answers(
        ch.TauProfile(state, u, cost), 0.5)
    # past the frames it holds, a partial profile refuses to answer
    with pytest.raises(ch.TimeDomainError, match="past the first"):
        windowed.value(tg.times[w])
    with pytest.raises(ch.TimeDomainError, match="past the first"):
        windowed.derivative(tg.times[w] + 0.25 * tg.dt)
    # one frame holds no interval to integrate over
    first = ch.Trajectory(params.grid, tg, state.data[:1], state.names)
    with pytest.raises(ch.TimeDomainError, match="two forward frames or more"):
        ch.TauProfile(first, u, cost)


@pytest.mark.parametrize("k", [0, 1, 17, 40])
def test_adjoint_reads_only_the_frames_up_to_its_node(marched, k):
    params, _, state = marched
    cost = tracking_cost(params, b2=0.4, b4=0.3)
    tg = params.time_grid
    whole = ch.solve_adjoint(params, state, k, cost)
    part = ch.Trajectory(params.grid, tg, state.data[:k + 1], state.names)
    assert ch.solve_adjoint(params, part, k, cost).data.tobytes() == whole.data.tobytes()
    if k:
        short = ch.Trajectory(params.grid, tg, state.data[:k], state.names)
        with pytest.raises(ch.TimeDomainError, match=f"needs forward frames 0..{k}"):
            ch.solve_adjoint(params, short, k, cost)

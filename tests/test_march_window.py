"""The optimizer's trial marches stop at a window, and resume from the
iterate's frames: every reported bit is the one that full marches give.

Each run is compared with a run whose every march is fresh and reaches
the horizon, with one whose trials march fresh to the first window
``CostSpec.trial_window``, as they did before they resumed, and with one
whose windows do not follow the iterate's least certifying window
``TauProfile.least_window``; the partial cost profile, its certificate
and the adjoint on the first frames are checked on their own against
the full march.
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


def _problem_terminal(**terminal):
    # a terminal term (b2 or b4) lets the cost fall past tau_star: the
    # window is the horizon, and each trial's probe stops short of it
    def make():
        params = make_problem(n=32, nt=48)
        return params, tracking_cost(params, b1=0.2, b3=0.2, b6=5.0, tau_star=0.3,
                                     **terminal), 0.3
    return make


def _problem_2d():
    grid = ch.Grid.rectangle(8, 6, 1.0, 0.75)
    tg = ch.TimeGrid(0.5, 24)
    params = ch.ModelParams(0.1, 0.1, ch.Potential.quartic(),
                            ch.Proliferation.smooth_ramp(1.0, 0.5), grid, tg)
    return params, tracking_cost(params, tau_star=0.15), 0.15


def _counted_runs(monkeypatch, params, cost, tau0, march, **kwargs):
    """One optimize run from u = 1, and (first frame, marched steps, last
    frame) of each of its forward marches. ``march`` "resumed" runs
    optimize as it is. "fixed" keeps the windows that do not follow the
    iterate: the first march is full, and a passing trial marches on to
    :meth:`CostSpec.trial_window` at the current tau. "window" resumes
    each trial but marches it straight to the first window, as before a
    trial first stopped after its snapped node; "fresh" also drops every
    ``prior``; "full" forces the first window to the horizon and marches
    every call fresh to it. In these three, a passing trial has nothing
    left to march."""
    marches, windows = [], []
    trial_window = ch.CostSpec.trial_window

    def recording_window(cost, tg, tau):
        windows.append(tg.steps if march == "full" else trial_window(cost, tg, tau))
        return windows[-1]

    def counting_solve_state(*args, steps=None, prior=None, **kw):
        if march == "fixed" and not marches:
            steps = None
        elif march not in ("resumed", "fixed"):
            if steps is not None and prior is not None and prior[1] is args[2]:
                # a passing trial's continuation: its march reached the window
                return prior[0]
            steps = steps and windows[-1]
            prior = prior if march == "window" else None
        traj = ch.solve_state(*args, steps=steps, prior=prior, **kw)
        diag = traj.diagnostics
        marches.append((diag.first, len(diag.newton_iters), traj.nframes - 1))
        return traj

    def fixed_window(profile):
        # less the margin, so that a trial snapped at node k_idx marches on
        # to min(nt, max(node of tau_star if b6 > 0, k_idx) + 2), the
        # window trial_window gives at its tau
        return trial_window(profile.cost, profile.tg, 0.0) - optimizer_module.WINDOW_MARGIN

    with monkeypatch.context() as m:
        m.setattr(optimizer_module, "solve_state", counting_solve_state)
        m.setattr(ch.CostSpec, "trial_window", recording_window)
        if march == "fixed":
            m.setattr(ch.TauProfile, "least_window", fixed_window)
        u0 = ch.constant_trajectory(params.grid, params.time_grid, 1.0)
        res = ch.optimize(params, _random_init(params), cost, u0, tau0=tau0,
                          lower=0.0, upper=2.0, **kwargs)
    return res, marches


def _marched(marches):
    return sum(steps for _, steps, _ in marches)


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


@pytest.mark.parametrize("make", [_problem_1d, _problem_2d, _problem_terminal(b2=0.05),
                                  _problem_terminal(b4=0.02)],
                         ids=["1d", "2d", "1d-b2", "1d-b4"])
def test_windowed_optimize_is_bitwise_the_full_one(monkeypatch, make):
    params, cost, tau0 = make()
    nt = params.time_grid.steps
    # the terminal costs reject their first trials past iteration 8
    kwargs = dict(max_outer_iters=8 if cost.monotone_tail() else 16, grad_tol=1e-300)
    windowed, w = _counted_runs(monkeypatch, params, cost, tau0, "resumed", **kwargs)
    full, f = _counted_runs(monkeypatch, params, cost, tau0, "full", **kwargs)
    _assert_same_result(windowed, full)
    assert set(f) == {(0, nt, nt)}
    if not cost.monotone_tail():
        # every state is full, but a trial's probe stops after its snapped
        # node, so rejected trials march fewer steps than trials marched
        # straight to the horizon, as they were before the probe
        unprobed, p = _counted_runs(monkeypatch, params, cost, tau0, "window", **kwargs)
        _assert_same_result(windowed, unprobed)
        assert w[0] == (0, nt, nt) and min(last for _, _, last in w) < nt
        assert windowed.state.nframes == nt + 1
        assert _marched(w) < _marched(p) < _marched(f)
        return
    # the trials stopped short; the first march is fresh and stops at the
    # first window, the last resumes the optimum to the horizon, and every
    # windowed state was certified, so no other march reaches it
    first = cost.trial_window(params.time_grid, tau0)
    assert w[0] == (0, first, first) and first < nt
    assert 0 < w[-1][0] < w[-1][2] == nt
    assert max(last for _, _, last in w[1:-1]) < nt
    assert _marched(w) < _marched(f)
    assert windowed.state.nframes == nt + 1


def test_uncertified_window_marches_to_the_horizon(monkeypatch):
    # a tracking weight far below the certificate's slack leaves the cost
    # flat in tau to rounding, so no windowed state can be certified: the
    # first window is marched on to the horizon, and a profile whose
    # frames certify nothing has the horizon as its least window
    params, _, tau0 = _problem_1d()
    cost = tracking_cost(params, b1=1e-20, b3=0.0, b5=0.0, b6=0.0, tau_star=0.3)
    kwargs = dict(max_outer_iters=4, grad_tol=1e-300)
    windowed, w = _counted_runs(monkeypatch, params, cost, tau0, "resumed", **kwargs)
    full, f = _counted_runs(monkeypatch, params, cost, tau0, "full", **kwargs)
    _assert_same_result(windowed, full)
    # the first march stops at the first window and resumes to the horizon;
    # each search here accepts its first trial, whose march stops after the
    # snapped node and resumes to the horizon
    nt = params.time_grid.steps
    trials = len(f) - 1
    assert trials and len(w) == 2 + 2 * trials
    assert w[0][2] == w[1][0] < w[1][2] == nt
    for probe, horizon in zip(w[2::2], w[3::2]):
        assert probe[2] == horizon[0] < horizon[2] == nt


def _problem_late_star():
    # tau_star = 0.6 lies past the time minimizer, near node 14 of 48, so the
    # window at the node of tau_star holds frames that no certificate reads
    params = make_problem(n=32, nt=48)
    return params, tracking_cost(params, tau_star=0.6), 0.3


def test_least_window_is_bitwise_the_fixed_one(monkeypatch):
    # each passing trial marches on only to the iterate's least certifying
    # window and the margin, and the first march stops at the first window:
    # the same bits as the fixed windows give, for fewer steps
    params, cost, tau0 = _problem_late_star()
    nt = params.time_grid.steps
    kwargs = dict(max_outer_iters=8, grad_tol=1e-300)
    least, w = _counted_runs(monkeypatch, params, cost, tau0, "resumed", **kwargs)
    fixed, f = _counted_runs(monkeypatch, params, cost, tau0, "fixed", **kwargs)
    _assert_same_result(least, fixed)
    # march for march, none goes further than the fixed one, every passing
    # trial's continuation stops short of it, and no window falls back to
    # the horizon
    assert len(w) == len(f) and w[0][2] < f[0][2] == nt
    assert all(a[2] <= b[2] for a, b in zip(w, f))
    resumes = [i for i in range(1, len(w) - 1) if w[i][0] == w[i - 1][2]]
    assert resumes and all(w[i][2] < f[i][2] for i in resumes)
    assert max(last for _, _, last in w[:-1]) < nt
    assert _marched(w) < _marched(f)
    # a least window patched to k+2, k the iterate's first node minimizer,
    # leaves the accepted trials' marches too short to certify their own
    # minimizers: they fall back to the horizon, with the same bits
    with monkeypatch.context() as m:
        m.setattr(ch.TauProfile, "least_window",
                  lambda profile: int(np.argmin(profile.node_values())) + 2)
        short, s = _counted_runs(monkeypatch, params, cost, tau0, "resumed", **kwargs)
    _assert_same_result(least, short)
    assert sum(last == nt for _, _, last in s) > sum(last == nt for _, _, last in w)


@pytest.mark.parametrize("make", [_problem_1d, _problem_2d], ids=["1d", "2d"])
def test_resumed_trials_are_bitwise_the_fresh_ones(monkeypatch, make):
    # every trial marched fresh to its window gives the same bits as the
    # trials that resume from the iterate and stop after the snapped node
    params, cost, tau0 = make()
    kwargs = dict(max_outer_iters=8, grad_tol=1e-300)
    resumed, r = _counted_runs(monkeypatch, params, cost, tau0, "resumed", **kwargs)
    fresh, f = _counted_runs(monkeypatch, params, cost, tau0, "fresh", **kwargs)
    _assert_same_result(resumed, fresh)
    assert all(first == 0 for first, _, _ in f)
    assert _marched(r) < _marched(f)


def test_trials_stop_after_the_snapped_node_and_copy_the_clipped_prefix(monkeypatch):
    # an interior treatment time, so each trial first marches to the frame
    # after its snapped node, short of the window; once the box holds the
    # first nodes of the control, a trial copies the iterate's frames there
    params = make_problem(n=32, nt=64)
    cost = tracking_cost(params)
    kwargs = dict(max_outer_iters=12, grad_tol=1e-300)
    resumed, r = _counted_runs(monkeypatch, params, cost, None, "resumed", **kwargs)
    fresh, f = _counted_runs(monkeypatch, params, cost, None, "fresh", **kwargs)
    _assert_same_result(resumed, fresh)
    nodes = {rec.tau_index for rec in resumed.history}
    probes = [m for m in r[1:-1] if m[2] <= max(nodes) + 1]
    assert min(nodes) > 0 and {last - 1 for _, _, last in probes} <= nodes
    assert any(first > 0 for first, _, _ in probes)
    assert _marched(r) < _marched(f)


def test_failed_continuation_rejects_the_trial(monkeypatch):
    # a trial that passes the Armijo test on its frames up to the snapped
    # node but fails on its way to the window is a failed trial solve: the
    # search backtracks, and its failure names every such trial
    params, cost, tau0 = _problem_1d()
    continued = []

    def failing_continuation(*args, steps=None, prior=None, **kw):
        if steps is not None and prior is not None and prior[1] is args[2]:
            continued.append(steps)
            raise ch.NewtonDivergenceError(steps, 1.0, 3)
        return ch.solve_state(*args, steps=steps, prior=prior, **kw)

    monkeypatch.setattr(optimizer_module, "solve_state", failing_continuation)
    u0 = ch.constant_trajectory(params.grid, params.time_grid, 1.0)
    with pytest.raises(ch.LineSearchFailureError) as info:
        ch.optimize(params, _random_init(params), cost, u0, tau0=tau0,
                    lower=0.0, upper=2.0, max_outer_iters=8, grad_tol=1e-300)
    assert info.value.iteration == 0 and len(continued) > 1
    assert (f"{len(continued)} trial solves failed, the last with: Newton did not "
            f"converge at step {continued[-1]}") in str(info.value)


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


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(b0=weight, b1=weight, b3=weight, b5=weight, b6=weight,
       tau_star=st.floats(0.0, 1.0))
def test_least_window_is_the_least_that_certifies(marched, b0, b1, b3, b5, b6,
                                                  tau_star):
    # the march of frames 0..W, W the full profile's least window, certifies
    # its time minimizer, answers as the full profile does and has the same
    # least window; one frame fewer certifies nothing
    params, u, state = marched
    nt = params.time_grid.steps
    cost = tracking_cost(params, b0=b0, b1=b1, b3=b3, b5=b5, b6=b6, tau_star=tau_star)

    def prefix(w):
        return ch.TauProfile(ch.Trajectory(params.grid, params.time_grid,
                                           state.data[:w + 1], state.names), u, cost)

    full = ch.TauProfile(state, u, cost)
    w = full.least_window()
    if w < nt:
        part = prefix(w)
        assert part.least_window() == w
        assert _profile_answers(part, 0.0) == _profile_answers(full, 0.0) is not None
    assert prefix(w - 1).minimize() is None


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

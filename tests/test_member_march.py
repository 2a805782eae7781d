"""A march of K controls stacked along a member axis against K marches of
one control each: every member must keep the bits of its own march, its
frames and its diagnostics, and a failing member must fail the stack as it
fails alone."""

import dataclasses

import numpy as np
import pytest

import chcontrol as ch
from chcontrol.cli import preset_initial_data
from conftest import equilibrium_init, make_problem


# both kinds of march: the polished one and the optimizer's tolerance march
POLISH = pytest.mark.parametrize("polish", [True, False], ids=["polish", "tolerance"])


def _solo(params, init, controls, steps=None, polish=True):
    return [ch.solve_state(params, init, u, steps=steps, polish=polish)
            for u in controls]


def _assert_members_match(params, init, controls, steps=None, polish=True):
    stacked = ch.solve_state(params, init, controls, steps=steps, polish=polish)
    solo = _solo(params, init, controls, steps, polish)
    assert stacked.data.shape == ((solo[0].nframes, 3, len(controls))
                                  + params.grid.shape)
    for i, traj in enumerate(solo):
        assert stacked.data[:, :, i].tobytes() == traj.data.tobytes(), i
    iters = np.array([traj.diagnostics.newton_iters for traj in solo])
    # one step solve per stacked iteration, so as many as the member that
    # iterated longest
    assert np.array_equal(stacked.diagnostics.newton_iters, iters.max(axis=0))
    seps = np.array([traj.diagnostics.delta_sep for traj in solo])
    assert np.array_equal(stacked.diagnostics.delta_sep, seps.min(axis=0))
    return solo


@POLISH
def test_quartic_members_match_solo_marches(polish):
    params = make_problem(n=32, nt=12)
    shape = (params.time_grid.steps + 1,) + params.grid.shape
    controls = np.random.default_rng(11).uniform(0.0, 2.0, (4,) + shape)
    init = equilibrium_init(params)
    # every member makes as many iterations at each step as the others, so
    # they all leave the stacked iteration together
    _assert_members_match(params, init, controls, polish=polish)
    _assert_members_match(params, init, controls[:3], steps=7, polish=polish)


def _log_problem():
    """A logarithmic cosine start at dt 0.125: a strong source makes the
    Newton trials overshoot the domain, so that the clamp holds them and
    the line search backtracks."""
    pot = ch.Potential.logarithmic(2.0)
    params = make_problem(n=32, nt=4, horizon=0.5, potential=pot)
    grid = params.grid
    phi0 = 0.5 * np.cos(np.pi * grid.axis_centers(0))
    init = ch.InitialData(pot.dF(phi0), phi0, grid.full(0.5))
    return params, init


def _sources(params, values):
    return np.stack([ch.constant_trajectory(params.grid, params.time_grid, v)
                     for v in values])


@POLISH
def test_logarithmic_members_with_clamp_and_backtracking(monkeypatch, polish):
    params, init = _log_problem()
    lo, hi = params.potential.domain
    margin = 1e-6 * (hi - lo)
    stencil = ch.state.laplacian_neumann
    seen = []

    def recording_stencil(grid, f):
        # a trial the clamp held has phi exactly at a clamp bound
        seen.append((f.shape[1], bool(np.isin(f[1], (lo + margin, hi - margin)).any())))
        return stencil(grid, f)

    controls = _sources(params, (20.0, 5.0, 12.0))
    monkeypatch.setattr(ch.state, "laplacian_neumann", recording_stencil)
    solo = _solo(params, init, controls[:1], polish=polish)
    monkeypatch.undo()
    steps, iters = params.time_grid.steps, solo[0].diagnostics.newton_iters.sum()
    # one stencil call per residual: more than one per step and iteration
    # means a backtracked trial
    assert len(seen) > steps + iters
    assert any(clamped for _, clamped in seen)
    solo = _assert_members_match(params, init, controls, polish=polish)
    # the members leave the stacked iteration at different solves, so that
    # the members still iterating are compacted; in reverse order the
    # slowest member sits last
    iters = np.array([traj.diagnostics.newton_iters for traj in solo])
    assert (iters.min(axis=0) < iters.max(axis=0)).any()
    _assert_members_match(params, init, controls[::-1], polish=polish)


@POLISH
def test_two_dimensional_members_with_different_exact_steps(cell_solves, monkeypatch,
                                                            polish):
    grid = ch.Grid.rectangle(16, 16, 1.0, 1.0)
    pot = ch.Potential.logarithmic(2.0)
    tg = ch.TimeGrid(0.2, 4)
    params = ch.ModelParams(0.1, 0.1, pot, ch.Proliferation.smooth_ramp(1.0, 0.5),
                            grid, tg)
    init = preset_initial_data("random_interior", grid, pot, amplitude=0.5, seed=1)
    controls = _sources(params, (100.0, 0.0, 50.0))
    exact = []
    for u in controls:
        before = len(cell_solves)
        ch.solve_state(params, init, u, polish=polish)
        exact.append(len(cell_solves) - before)
    # the members take the exact step matrix at different iterations
    assert len(set(exact)) > 1
    flags = []
    solve = ch.system.StepSolver.solve

    def recording_solve(self, p, w, rhs, transpose=False, means=False):
        flags.append(tuple(np.atleast_1d(means)))
        return solve(self, p, w, rhs, transpose, means)

    monkeypatch.setattr(ch.system.StepSolver, "solve", recording_solve)
    _assert_members_match(params, init, controls, polish=polish)
    # so that some stacked iteration solves members both ways in one call
    assert any(len(set(f)) > 1 for f in flags)


def test_tolerance_member_converged_at_its_start_makes_no_solve():
    # from the equilibrium, source 0 starts every step converged: without
    # the polish it leaves each one after no solve, and the others do not
    params = make_problem(n=16, nt=6)
    init = equilibrium_init(params)
    controls = _sources(params, (0.0, 1e-6, 1.0))
    solo = _assert_members_match(params, init, controls, polish=False)
    iters = solo[0].diagnostics.newton_iters
    assert not iters.any()
    assert solo[0].data.tobytes() == np.repeat(solo[0].data[:1], 7, axis=0).tobytes()
    assert all(traj.diagnostics.newton_iters.all() for traj in solo[2:])


def test_diverging_member_fails_at_earliest_step():
    params, init = _log_problem()
    # alone, the 35 source fails at step 4 and the 50 source at step 3
    controls = _sources(params, (5.0, 35.0, 50.0))
    errors = []
    for u in controls[1:]:
        with pytest.raises(ch.NewtonDivergenceError) as err:
            ch.solve_state(params, init, u)
        errors.append(err.value)
    assert [e.step for e in errors] == [4, 3]
    with pytest.raises(ch.NewtonDivergenceError) as got:
        ch.solve_state(params, init, controls)
    assert got.value.step == 3
    assert got.value.residual == errors[1].residual
    assert got.value.iterations == errors[1].iterations


@pytest.mark.parametrize("max_iter", [0, 1])
def test_members_under_the_smallest_newton_budgets(max_iter):
    # from the equilibrium, source 0 starts each step converged and only
    # polishes, 1e-6 converges in one iteration, 1e-3 and 1 in more; so
    # members leave at different solves, and a member whose budget ends
    # unconverged fails the stack as it fails alone
    params = dataclasses.replace(make_problem(n=16, nt=4), newton_max_iter=max_iter)
    init = equilibrium_init(params)
    passing, failing = {0: ((0.0, 0.0), (0.0, 1.0, 1e-6)),
                        1: ((0.0, 1e-6, 0.0), (1e-6, 0.0, 1e-3))}[max_iter]
    _assert_members_match(params, init, _sources(params, passing))
    controls = _sources(params, failing)
    # the first failing member in stack order: 1 under budget 0, 1e-3 under 1
    with pytest.raises(ch.NewtonDivergenceError) as alone:
        ch.solve_state(params, init, controls[max_iter + 1])
    with pytest.raises(ch.NewtonDivergenceError) as got:
        ch.solve_state(params, init, controls)
    for err in (alone.value, got.value):
        assert (err.step, err.iterations) == (1, max_iter)
    assert got.value.residual == alone.value.residual


def test_nonfinite_control_fails_at_its_step():
    # node 2 drives step 3, whose first residual is then not finite
    params = make_problem(n=16, nt=4)
    init = equilibrium_init(params)
    controls = _sources(params, (1.0, 2.0, 3.0))
    controls[1, 2, 2] = np.nan
    for u in (controls[1], controls):
        with pytest.raises(ch.NanDetectedError, match="Newton residual at step 3"):
            ch.solve_state(params, init, u)
    grid = ch.Grid.rectangle(6, 5, 1.0, 1.0)
    params = ch.ModelParams(0.1, 0.1, ch.Potential.quartic(),
                            ch.Proliferation.smooth_ramp(1.0, 0.5), grid,
                            ch.TimeGrid(0.2, 4))
    u = _sources(params, (1.0,))[0]
    u[2].flat[2] = np.nan
    with pytest.raises(ch.NanDetectedError, match="Newton residual at step 3"):
        ch.solve_state(params, equilibrium_init(params), u)


def test_misshapen_member_stack_is_shape_mismatch(monkeypatch):
    params = make_problem(n=16, nt=4)
    init = equilibrium_init(params)
    nodes, cells = params.time_grid.steps + 1, params.grid.shape[0]
    checked = []
    check = ch.state.check_control_shape

    def recording_check(*args):
        checked.append(args[-1])
        return check(*args)

    monkeypatch.setattr(ch.state, "check_control_shape", recording_check)
    for shape in ((2, nodes - 1, cells), (2, nodes, cells + 1), (0, nodes, cells)):
        with pytest.raises(ch.ShapeMismatchError, match="^control: "):
            ch.solve_state(params, init, np.ones(shape))
    # a stack is told apart from one control by its leading member axis
    assert checked == [True] * 3


_STACK_READERS = {
    "linearized": ("linearized", lambda p, i, c, u, s: ch.solve_linearized(p, s, u)),
    "adjoint": ("adjoint", lambda p, i, c, u, s: ch.solve_adjoint(p, s, 4, c)),
    "duality": ("adjoint", lambda p, i, c, u, s: ch.duality_check(p, s, 4, c,
                                                                  directions=1)),
    "gradient": ("adjoint", lambda p, i, c, u, s: ch.fd_gradient_check(
        p, i, c, u, 0.5, directions=1, deltas=[0.1], state=s)),
    "tau-profile": ("cost", lambda p, i, c, u, s: ch.TauProfile(s, u, c)),
    "reduced-cost": ("cost", lambda p, i, c, u, s: ch.reduced_cost(s, u, 0.5, c)),
    "mass-balance": ("mass balance", lambda p, i, c, u, s: ch.mass_balance_check(
        s, u, p)),
}


@pytest.mark.parametrize("name", list(_STACK_READERS))
def test_readers_of_one_state_refuse_a_member_stack(name):
    # a stacked state lies on the model's grids; its members would otherwise
    # broadcast against one field, or add up into one cost with no error
    params = make_problem(n=16, nt=8)
    init = equilibrium_init(params)
    u = _sources(params, (1.0,))[0]
    state = ch.solve_state(params, init, np.stack([u, 0.5 * u]))
    cost = ch.CostSpec(b0=1e-3, b1=1.0, b3=1.0, b5=0.01, b6=1.0, tau_star=0.5)
    reader, call = _STACK_READERS[name]
    with pytest.raises(ch.GridMismatchError,
                       match=rf"^{reader} state: shape \(2, 16\), expected \(16,\)$"):
        call(params, init, cost, u, state)

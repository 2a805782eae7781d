"""A march resumed from a prior one is the fresh march, bitwise.

``solve_state(..., prior=(state, ctrl))`` copies frames 0..j of ``state``,
j the first node where the control's bits differ from ``ctrl``'s (capped
at the prior's last frame and at ``steps``), and marches only the steps
after it; its diagnostics cover those steps, from ``first`` = j.
"""

import functools

import numpy as np
import pytest

import chcontrol as ch
from chcontrol.state import STATE_NAMES
from conftest import make_problem

NT = 12
NODES = [0, 1, 2, 3, NT // 2, NT]


@functools.lru_cache(maxsize=None)
def _problem(dim):
    if dim == 1:
        params = make_problem(n=24, nt=NT)
    else:
        grid = ch.Grid.rectangle(8, 6, 1.0, 0.75)
        params = ch.ModelParams(0.1, 0.1, ch.Potential.quartic(),
                                ch.Proliferation.smooth_ramp(1.0, 0.5), grid,
                                ch.TimeGrid(0.5, NT))
    grid, pot = params.grid, params.potential
    rng = np.random.default_rng(dim)
    # a start and a control that differ from cell to cell and node to node
    phi0 = 0.2 + 0.05 * rng.uniform(-1.0, 1.0, grid.shape)
    init = ch.InitialData(pot.dF(phi0), phi0, pot.dF(phi0))
    u = rng.uniform(0.0, 2.0, (NT + 1,) + grid.shape)
    return params, init, u


@functools.lru_cache(maxsize=None)
def _fresh(dim, polish):
    params, init, u = _problem(dim)
    return ch.solve_state(params, init, u, polish=polish)


def _changed_at(u, j):
    v = u.copy()
    v[j].flat[0] += 0.25
    return v


def _assert_resumed(resumed, fresh, first):
    assert resumed.data.tobytes() == fresh.data[:resumed.nframes].tobytes()
    diag, ref = resumed.diagnostics, fresh.diagnostics
    assert diag.first == first
    assert np.array_equal(diag.newton_iters, ref.newton_iters[first:resumed.nframes - 1])
    assert diag.delta_sep.tobytes() == ref.delta_sep[first:resumed.nframes - 1].tobytes()


@pytest.mark.parametrize("polish", [True, False], ids=["polished", "tolerance"])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize("j", NODES)
def test_resumed_march_is_the_fresh_one(dim, polish, j):
    params, init, u = _problem(dim)
    full = _fresh(dim, polish)
    # a control that differs from the prior's at node j: frames 0..j are
    # shared; node nt drives no step, so nothing is left to march there
    v = _changed_at(u, j)
    resumed = ch.solve_state(params, init, v, polish=polish, prior=(full, u))
    _assert_resumed(resumed, ch.solve_state(params, init, v, polish=polish), j)
    assert len(resumed.diagnostics.newton_iters) == NT - j
    # the same control from a prior that holds frames 0..j only
    part = ch.Trajectory(params.grid, params.time_grid, full.data[:j + 1], STATE_NAMES)
    _assert_resumed(ch.solve_state(params, init, u, polish=polish, prior=(part, u)),
                    full, j)
    if j:
        # the prior holds every frame, and the march stops at node j
        _assert_resumed(ch.solve_state(params, init, u, j, polish=polish,
                                       prior=(full, u)), full, j)


@pytest.mark.parametrize("polish", [True, False], ids=["polished", "tolerance"])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_two_call_continuation_is_the_fresh_march(dim, polish):
    params, init, u = _problem(dim)
    full = _fresh(dim, polish)
    for k in (1, 2, 3, NT // 2, NT - 1):
        part = ch.solve_state(params, init, u, k, polish=polish)
        _assert_resumed(part, full, 0)
        _assert_resumed(ch.solve_state(params, init, u, polish=polish,
                                       prior=(part, u)), full, k)


def test_a_prior_that_does_not_fit_raises():
    params, init, u = _problem(1)
    full = _fresh(1, False)
    stacked = ch.solve_state(params, init, np.stack([u, u]), 3, polish=False)
    with pytest.raises(ch.GridMismatchError, match="^prior state: shape"):
        ch.solve_state(params, init, u, polish=False, prior=(stacked, u))
    other = make_problem(n=16, nt=NT)
    foreign = ch.solve_state(other, ch.InitialData(*full.data[0, :, :16]),
                             u[:, :16], 2, polish=False)
    with pytest.raises(ch.GridMismatchError, match="^prior: state on"):
        ch.solve_state(params, init, u, polish=False, prior=(foreign, u))
    with pytest.raises(ch.GridMismatchError, match="^control: shape"):
        ch.solve_state(params, init, u, polish=False, prior=(full, u[:-1]))
    # a prior resumes one control, not a member stack
    with pytest.raises(ch.GridMismatchError, match="^control: shape"):
        ch.solve_state(params, init, np.stack([u, u]), polish=False, prior=(full, u))


def test_a_signed_zero_is_a_difference():
    # the march reads the control's bits: -0.0 at node 3 is a new node 3
    params, init, u = _problem(1)
    u = u.copy()
    u[3] = 0.0
    v = u.copy()
    v[3, 5] = -0.0
    prior = ch.solve_state(params, init, u, polish=False)
    resumed = ch.solve_state(params, init, v, polish=False, prior=(prior, u))
    _assert_resumed(resumed, ch.solve_state(params, init, v, polish=False), 3)

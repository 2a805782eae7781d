import dataclasses

import numpy as np
import pytest

import chcontrol as ch
from chcontrol.errors import GridMismatchError, ShapeMismatchError, TimeDomainError
from conftest import equilibrium_init, make_problem, midpoint_control


@pytest.fixture(scope="module")
def problem():
    params = make_problem(n=48, nt=40)
    init = equilibrium_init(params)
    u = midpoint_control(params)
    state = ch.solve_state(params, init, u)
    return params, init, u, state


def _shape(params):
    return (params.time_grid.steps + 1,) + params.grid.shape


def test_zero_direction_gives_zero(problem):
    params, _, _, state = problem
    lin = ch.solve_linearized(params, state, np.zeros(_shape(params)))
    assert np.all(lin.data == 0.0)


def test_superposition(problem):
    params, _, _, state = problem
    rng = np.random.default_rng(1)
    for _ in range(10):
        h1 = rng.standard_normal(_shape(params))
        h2 = rng.standard_normal(_shape(params))
        l1 = ch.solve_linearized(params, state, h1)
        l2 = ch.solve_linearized(params, state, h2)
        l12 = ch.solve_linearized(params, state, h1 + h2)
        scale = np.abs(l1.data).max() + np.abs(l2.data).max()
        assert np.abs(l12.data - l1.data - l2.data).max() <= 1e-11 * max(scale, 1.0)


def test_norm_scales_linearly(problem):
    params, _, _, state = problem
    rng = np.random.default_rng(2)
    h = rng.standard_normal(_shape(params))
    n1 = np.linalg.norm(ch.solve_linearized(params, state, h).data)
    n2 = np.linalg.norm(ch.solve_linearized(params, state, 2.0 * h).data)
    n4 = np.linalg.norm(ch.solve_linearized(params, state, 4.0 * h).data)
    assert n2 / n1 == pytest.approx(2.0, abs=1e-9)
    assert n4 / n2 == pytest.approx(2.0, abs=1e-9)


def test_linearized_mass_identity(problem):
    params, _, _, state = problem
    grid, tg = params.grid, params.time_grid
    rng = np.random.default_rng(3)
    h = rng.standard_normal(_shape(params))
    lin = ch.solve_linearized(params, state, h)
    injected = 0.0
    for k in range(1, tg.steps + 1):
        injected += tg.dt * ch.integrate(grid, h[k - 1])
        mass = ch.integrate(grid, params.alpha * lin.d_mu[k] + lin.d_phi[k]
                            + lin.d_sigma[k])
        assert abs(mass - injected) <= 1e-10 * (1.0 + abs(injected))


def test_frechet_consistency(problem):
    # (S(u + eps h) - S(u)) / eps approaches the linearized solution at
    # first order in eps
    params, init, u, state = problem
    grid, tg = params.grid, params.time_grid
    rng = np.random.default_rng(4)
    h = rng.standard_normal(_shape(params))
    h /= ch.space_time_norm(grid, tg.dt, h)
    lin = ch.solve_linearized(params, state, h)
    errs = []
    eps_list = [1e-2, 1e-3, 1e-4]
    for eps in eps_list:
        up = u + eps * h
        sp = ch.solve_state(params, init, up)
        diff = (sp.data - state.data) / eps - lin.data
        errs.append(np.sqrt(np.sum(diff**2)))
    slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
    assert 0.7 <= slope <= 1.3


def test_shape_mismatch_raises(problem):
    params, _, _, state = problem
    with pytest.raises(ShapeMismatchError):
        ch.solve_linearized(params, state, np.zeros((2, 2)))
    with pytest.raises(ShapeMismatchError):
        ch.solve_linearized(params, state, np.zeros((2, 3) + _shape(params)))
    # an empty stack, as solve_state refuses it
    with pytest.raises(ShapeMismatchError, match="^control: an empty member stack$"):
        ch.solve_linearized(params, state, np.zeros((0,) + _shape(params)))
    with pytest.raises(TimeDomainError):
        ch.solve_linearized(params, state, np.zeros(_shape(params)),
                            steps=params.time_grid.steps + 1)
    with pytest.raises(TimeDomainError):
        ch.solve_linearized(params, state, np.zeros(_shape(params)), steps=2.5)


def test_node_and_frame_errors_name_the_sweep(problem):
    # the node must be a whole number in 0..nt, and the state must hold
    # frames 0..node; each error is headed by the reader
    params, _, _, state = problem
    nt = params.time_grid.steps
    h = np.zeros(_shape(params))
    for steps in (-1, 2.5, nt + 1):
        with pytest.raises(TimeDomainError,
                           match=f"^linearized: node {steps} is not a whole number in "):
            ch.solve_linearized(params, state, h, steps=steps)
    part = ch.Trajectory(params.grid, params.time_grid, state.data[:3], state.names)
    with pytest.raises(TimeDomainError,
                       match=r"^linearized: node 3 needs forward frames 0\.\.3, got 3$"):
        ch.solve_linearized(params, part, h, steps=3)


@pytest.mark.parametrize("other", [
    lambda p: dataclasses.replace(p, grid=ch.Grid.line(p.grid.n[0], 2.0)),
    lambda p: dataclasses.replace(p, time_grid=ch.TimeGrid(2.0, p.time_grid.steps)),
], ids=["extents", "horizon"])
def test_state_of_another_problem_is_refused(problem, other):
    # the same shapes on another grid or time grid: the sweep would march
    # the state's frames with the wrong h or dt
    params, _, _, state = problem
    with pytest.raises(GridMismatchError, match="^linearized: "):
        ch.solve_linearized(other(params), state, np.zeros(_shape(params)))


@pytest.fixture(scope="module")
def problem_2d():
    grid = ch.Grid.rectangle(8, 6, 1.5, 0.8)
    tg = ch.TimeGrid(0.25, 10)
    params = ch.ModelParams(0.1, 0.1, ch.Potential.logarithmic(2.0),
                            ch.Proliferation.smooth_ramp(1.0, 0.5), grid, tg)
    init = equilibrium_init(params)
    u = midpoint_control(params)
    return params, ch.solve_state(params, init, u)


@pytest.mark.parametrize("which", ["1d", "2d"])
def test_truncated_sweep_is_prefix_of_full(which, problem, problem_2d):
    params, state = (problem[0], problem[3]) if which == "1d" else problem_2d
    h = np.random.default_rng(5).standard_normal(_shape(params))
    full = ch.solve_linearized(params, state, h)
    for steps in (0, 1, params.time_grid.steps // 2, params.time_grid.steps):
        part = ch.solve_linearized(params, state, h, steps=steps)
        assert part.nframes == steps + 1
        assert part.data.tobytes() == full.data[: steps + 1].tobytes()


def test_sweep_reads_only_the_forward_frames_it_needs(problem):
    # a state marched to step m serves every sweep of at most m steps,
    # bitwise as the full state does, and a longer sweep is refused
    params, init, u, state = problem
    m = params.time_grid.steps // 2
    prefix = ch.solve_state(params, init, u, steps=m)
    h = np.random.default_rng(7).standard_normal(_shape(params))
    full = ch.solve_linearized(params, state, h)
    for steps in (0, 1, m):
        part = ch.solve_linearized(params, prefix, h, steps=steps)
        assert part.data.tobytes() == full.data[: steps + 1].tobytes()
    for steps in (m + 1, None):
        with pytest.raises(TimeDomainError, match="needs? forward frames"):
            ch.solve_linearized(params, prefix, h, steps=steps)


@pytest.mark.parametrize("which", ["1d", "2d"])
def test_direction_stack_matches_single_sweeps(which, problem, problem_2d):
    params, state = (problem[0], problem[3]) if which == "1d" else problem_2d
    hs = np.random.default_rng(6).standard_normal((3,) + _shape(params))
    steps = params.time_grid.steps - 2
    stacked = ch.solve_linearized(params, state, hs, steps=steps)
    assert stacked.data.shape == (steps + 1, 3, 3) + params.grid.shape
    for i, h in enumerate(hs):
        single = ch.solve_linearized(params, state, h, steps=steps)
        assert single.data.tobytes() == stacked.data[:, :, i].tobytes()

import dataclasses

import numpy as np
import pytest

import chcontrol as ch
from chcontrol.cli import preset_initial_data
from chcontrol.errors import (
    ConfigError,
    NanDetectedError,
    NewtonDivergenceError,
    TimeDomainError,
)
from conftest import equilibrium_init, make_problem, midpoint_control


def test_params_reject_nonpositive_constants():
    g = ch.Grid.line(16)
    tg = ch.TimeGrid(1.0, 4)
    pot = ch.Potential.quartic()
    pro = ch.Proliferation.constant(1.0)
    with pytest.raises(ConfigError):
        ch.ModelParams(0.0, 0.1, pot, pro, g, tg)
    with pytest.raises(ConfigError):
        ch.ModelParams(0.1, -1.0, pot, pro, g, tg)
    # nor non-finite ones, each named by its config field
    for value in (np.inf, -np.inf, np.nan):
        with pytest.raises(ConfigError, match="^model.alpha: "):
            ch.ModelParams(value, 0.1, pot, pro, g, tg)
        with pytest.raises(ConfigError, match="^model.beta: "):
            ch.ModelParams(0.1, value, pot, pro, g, tg)


@pytest.mark.parametrize("field, value", [
    ("newton_tol", 0.0), ("newton_tol", -1e-11), ("newton_tol", np.nan),
    ("newton_tol", np.inf), ("newton_max_iter", -1), ("newton_max_iter", 2.5),
    ("newton_max_iter", 20.0),
])
def test_params_reject_bad_newton_settings(field, value):
    params = make_problem(n=16, nt=4)
    if value == 20.0:
        # a whole float is a count, stored as the int, as Grid and TimeGrid take it
        stored = dataclasses.replace(params, **{field: value}).newton_max_iter
        assert stored == 20 and type(stored) is int
        return
    with pytest.raises(ConfigError, match=f"^solver.{field}: "):
        dataclasses.replace(params, **{field: value})


def test_initial_data_validation():
    g = ch.Grid.line(16)
    pot = ch.Potential.logarithmic(2.0)
    bad = ch.InitialData(g.zeros(), g.full(1.2), g.zeros())
    with pytest.raises(ConfigError):
        bad.validate(g, pot)
    # inside (-1, 1) but within the clip margin of the wall: the march could
    # not hold it, so it is refused before step 1
    near = ch.InitialData(g.zeros(), g.full(1.0 - 1e-6), g.zeros())
    with pytest.raises(ConfigError, match=r"^initial.phi0: the start puts phi0 outside"):
        near.validate(g, pot)
    nan = ch.InitialData(g.full(np.nan), g.zeros(), g.zeros())
    with pytest.raises(NanDetectedError):
        nan.validate(g, ch.Potential.quartic())


def test_homogeneous_equilibrium_is_stationary():
    params = make_problem(n=48, nt=32)
    c = 0.3
    init = equilibrium_init(params, c)
    u = ch.constant_trajectory(params.grid, params.time_grid, 0.0)
    traj = ch.solve_state(params, init, u)
    assert np.abs(traj.phi - c).max() <= 1e-10
    assert np.abs(traj.mu - init.mu0[0]).max() <= 1e-10


def test_frame_zero_bit_identical():
    params = make_problem(n=32, nt=8)
    init = equilibrium_init(params, 0.1)
    init.sigma0 += 0.01 * np.sin(params.grid.axis_centers(0))
    u = midpoint_control(params)
    traj = ch.solve_state(params, init, u)
    assert np.array_equal(traj.mu[0], init.mu0)
    assert np.array_equal(traj.phi[0], init.phi0)
    assert np.array_equal(traj.sigma[0], init.sigma0)


def test_mass_identity_with_random_control():
    params = make_problem(n=48, nt=48)
    init = equilibrium_init(params)
    rng = np.random.default_rng(0)
    u = rng.uniform(0, 2, (params.time_grid.steps + 1,) + params.grid.shape)
    traj = ch.solve_state(params, init, u)
    rep = ch.mass_balance_check(traj, u, params)
    assert rep.residual <= 1e-10


def test_nutrient_decouples_to_heat_equation():
    # P == 0 and u == 0: conserved nutrient mass, non-increasing L2 norm
    g = ch.Grid.line(64)
    tg = ch.TimeGrid(0.5, 32)
    params = ch.ModelParams(0.1, 0.1, ch.Potential.quartic(),
                            ch.Proliferation.constant(0.0), g, tg)
    init = equilibrium_init(params, 0.2)
    init.sigma0 = 0.5 + 0.3 * np.cos(np.pi * g.axis_centers(0))
    u = ch.constant_trajectory(g, tg, 0.0)
    traj = ch.solve_state(params, init, u)
    m0 = ch.integrate(g, traj.sigma[0])
    norms = [np.sqrt(ch.integrate(g, traj.sigma[k] ** 2)) for k in range(traj.nframes)]
    for k in range(1, traj.nframes):
        assert abs(ch.integrate(g, traj.sigma[k]) - m0) <= 1e-12 * (1 + abs(m0))
        assert norms[k] <= norms[k - 1] + 1e-14


def test_first_order_self_convergence_in_dt():
    # perturbed equilibrium; halving dt halves the self-convergence error
    def solve_at(nt):
        params = make_problem(n=48, nt=nt, horizon=0.5)
        init = equilibrium_init(params, 0.2)
        init.phi0 = init.phi0 + 0.05 * np.cos(np.pi * params.grid.axis_centers(0))
        u = midpoint_control(params)
        return params, ch.solve_state(params, init, u)

    params, coarse = solve_at(32)
    _, mid = solve_at(64)
    _, fine = solve_at(128)
    g = params.grid
    e1 = np.sqrt(ch.integrate(g, (coarse.phi[-1] - mid.phi[-1]) ** 2))
    e2 = np.sqrt(ch.integrate(g, (mid.phi[-1] - fine.phi[-1]) ** 2))
    assert 1.7 <= e1 / e2 <= 2.3


def test_lipschitz_dependence_on_control():
    params = make_problem(n=48, nt=32)
    init = equilibrium_init(params)
    base = midpoint_control(params)
    rep = ch.lipschitz_check(params, init, base, pairs=5,
                             magnitudes=[1e-1, 1e-2, 1e-3])
    # constant bounded across pairs, stable as the magnitude shrinks
    assert rep.passed()
    assert rep.spread_across_magnitudes() <= 3.0


def test_separation_violation_reported():
    # a steep logarithmic well pulls phi to the clamp margin
    g = ch.Grid.line(32)
    tg = ch.TimeGrid(1.0, 16)
    params = ch.ModelParams(0.1, 0.1, ch.Potential.logarithmic(8.0),
                            ch.Proliferation.constant(0.0), g, tg)
    init = ch.InitialData(g.zeros(), g.full(0.9), g.zeros())
    u = ch.constant_trajectory(g, tg, 0.0)
    with pytest.raises(ch.SeparationViolationError):
        ch.solve_state(params, init, u)


def test_newton_divergence_reported():
    params = make_problem(n=32, nt=4)
    init = equilibrium_init(params, 0.2)
    init.phi0 = init.phi0 + 0.2 * np.cos(np.pi * params.grid.axis_centers(0))
    u = midpoint_control(params)
    with pytest.raises(NewtonDivergenceError):
        ch.solve_state(dataclasses.replace(params, newton_max_iter=1), init, u)


def test_tanh_front_run():
    # a sharp front between the pure phases relaxes smoothly (its width is
    # far below the equilibrium interface width at this scaling)
    from chcontrol.cli import preset_initial_data

    params = make_problem(n=64, nt=24, horizon=0.25)
    init = preset_initial_data("tanh_front", params.grid, params.potential,
                               width=0.08, position=0.5)
    assert init.phi0[0] < 0 < init.phi0[-1]
    u = ch.constant_trajectory(params.grid, params.time_grid, 0.0)
    traj = ch.solve_state(params, init, u)
    assert np.all(np.isfinite(traj.data))
    assert np.abs(traj.phi).max() <= 1.0
    assert ch.mass_balance_check(traj, u, params).residual <= 1e-10


def test_logarithmic_run_stays_separated():
    from chcontrol.cli import preset_initial_data

    pot = ch.Potential.logarithmic(2.0)
    params = make_problem(n=48, nt=48, potential=pot)
    init = preset_initial_data("random_interior", params.grid, pot,
                               amplitude=0.3, seed=7)
    u = ch.constant_trajectory(params.grid, params.time_grid, 0.0)
    traj = ch.solve_state(params, init, u)
    assert min(pot.distance(phi) for phi in traj.phi) >= 0.01
    assert np.all(np.isfinite(traj.data))


def test_control_shape_validation():
    params = make_problem(n=32, nt=8)
    init = equilibrium_init(params)
    bad = np.zeros((3,) + params.grid.shape)
    with pytest.raises(ch.ShapeMismatchError):
        ch.solve_state(params, init, bad)


def _assert_prefix_march(params, init, u, steps_list, polish=True):
    full = ch.solve_state(params, init, u, polish=polish)
    for k in steps_list:
        part = ch.solve_state(params, init, u, steps=k, polish=polish)
        assert part.nframes == k + 1
        assert part.data.tobytes() == full.data[: k + 1].tobytes(), k
        iters = part.diagnostics.newton_iters
        assert len(iters) == len(part.diagnostics.delta_sep) == k
        assert np.array_equal(iters, full.diagnostics.newton_iters[:k])


def test_prefix_march_1d():
    params = make_problem(n=32, nt=24)
    u = np.random.default_rng(5).uniform(0.0, 2.0, (25,) + params.grid.shape)
    _assert_prefix_march(params, equilibrium_init(params), u, (1, 7, 23, 24))


def test_prefix_tolerance_march_1d():
    # the prefixes end before, at and after the first extrapolated start
    params = make_problem(n=32, nt=24)
    u = np.random.default_rng(5).uniform(0.0, 2.0, (25,) + params.grid.shape)
    _assert_prefix_march(params, equilibrium_init(params), u, (1, 2, 3, 7, 23, 24),
                         polish=False)


def test_tolerance_march_on_the_baseline_problem(baseline_problem, baseline_state):
    # the optimizer's march: no polish and an extrapolated start, at the
    # acceptance criteria's size (128 cells, 256 steps)
    params, init, _, u = baseline_problem
    traj = ch.solve_state(params, init, u, polish=False)
    assert np.abs(traj.data - baseline_state.data).max() <= 1e-9
    assert ch.mass_balance_check(traj, u, params).residual <= 1e-10
    iters = traj.diagnostics.newton_iters.sum()
    assert iters <= 0.5 * baseline_state.diagnostics.newton_iters.sum()


def test_prefix_march_2d_chord(cell_solves):
    # a march whose CHORD_CONTRACTION rule sends iterations of its last step
    # to the exact step matrix, so that the prefixes end before and at it
    grid = ch.Grid.rectangle(16, 16)
    tg = ch.TimeGrid(0.2, 4)
    pot = ch.Potential.logarithmic(2.0)
    params = ch.ModelParams(0.1, 0.1, pot, ch.Proliferation.smooth_ramp(1.0, 0.5),
                            grid, tg)
    init = preset_initial_data("random_interior", grid, pot, amplitude=0.5, seed=1)
    u = ch.constant_trajectory(grid, tg, 100.0)
    ch.solve_state(params, init, u)
    assert len(cell_solves) >= 3
    _assert_prefix_march(params, init, u, range(1, tg.steps + 1))


def test_prefix_march_rejects_steps_outside_grid():
    params = make_problem(n=16, nt=4)
    init, u = equilibrium_init(params), midpoint_control(params)
    for steps in (0, -1, 5, 2.5):
        with pytest.raises(TimeDomainError, match="steps"):
            ch.solve_state(params, init, u, steps=steps)


@pytest.mark.parametrize("node", [True, 2.0, -1, 5], ids=["bool", "float", "negative",
                                                         "past-nt"])
def test_node_indices_meet_one_node_rule(node):
    # errors.check_node: a whole number that is not a bool, in range (here
    # nt = 4); each refusal is headed by its reader
    params = make_problem(n=16, nt=4)
    init, u = equilibrium_init(params), midpoint_control(params)
    nt = params.time_grid.steps
    state = ch.solve_state(params, init, u)
    with pytest.raises(TimeDomainError,
                       match=f"^state steps: node {node} is not a whole number in 1..{nt}$"):
        ch.solve_state(params, init, u, steps=node)
    with pytest.raises(TimeDomainError,
                       match=f"^adjoint: node {node} is not a whole number in 0..{nt}$"):
        ch.state.check_state(params, state, "adjoint", node)


def test_numpy_integer_is_a_node():
    params = make_problem(n=16, nt=4)
    init, u = equilibrium_init(params), midpoint_control(params)
    part = ch.solve_state(params, init, u, steps=np.int64(2))
    assert part.nframes == 3
    last = ch.state.check_state(params, part, "adjoint", np.int64(2))
    assert last == 2 and type(last) is int

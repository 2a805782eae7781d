import copy
import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import chcontrol as ch
from chcontrol.cli import _FIELDS, parse_config, preset_initial_data, run
from chcontrol.errors import ConfigError, GridMismatchError, ShapeMismatchError
from chcontrol.verification import (
    CHECKS,
    SLOPE_FLOOR,
    SLOPE_MIN_DELTA,
    _fit_slope,
    _random_direction,
    _cost_difference,
)
from conftest import equilibrium_init, make_problem, midpoint_control, tracking_cost
from test_cli import TINY_CONFIG
from test_config_fields import _invalid

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def problem():
    params = make_problem(n=48, nt=40)
    init = equilibrium_init(params)
    u = midpoint_control(params)
    return params, init, u


def test_gradient_check_quadratic_only(problem):
    # b0-only cost has an exactly linear gradient: errors at the floor
    params, init, u = problem
    cost = ch.CostSpec(b0=1.0)
    rep = ch.fd_gradient_check(params, init, cost, u, 0.5, directions=2,
                               deltas=[1e-4])
    assert rep.max_rel_error(1e-4) <= 1e-10


def test_gradient_check_tracking(problem):
    params, init, u = problem
    cost = tracking_cost(params)
    rep = ch.fd_gradient_check(params, init, cost, u, 0.5, directions=2,
                               deltas=[0.5, 0.2, 0.1, 1e-4])
    # the slope is fit on the deltas >= 0.1 alone
    assert rep.slope_deltas == [0.5, 0.2, 0.1]
    assert rep.max_rel_error(1e-4) <= 1e-6
    assert all(1.7 <= s <= 2.3 for s in rep.slopes)
    assert rep.passed(1e-4, 1e-6)


def test_gradient_check_deterministic(problem):
    params, init, u = problem
    cost = tracking_cost(params)
    a = ch.fd_gradient_check(params, init, cost, u, 0.5, directions=1,
                             deltas=[1e-3], seed=99)
    b = ch.fd_gradient_check(params, init, cost, u, 0.5, directions=1,
                             deltas=[1e-3], seed=99)
    assert a.analytic == b.analytic
    assert a.rel_errors == b.rel_errors
    assert "gradient check" in a.to_text()


def test_duality_check(problem):
    params, init, u = problem
    cost = tracking_cost(params, b2=0.4, b4=0.2)
    state = ch.solve_state(params, init, u)
    rep = ch.duality_check(params, state, 30, cost, directions=5)
    assert rep.max_mismatch <= 1e-9
    assert rep.passed(1e-9)
    again = ch.duality_check(params, state, 30, cost, directions=5)
    assert rep.mismatches == again.mismatches


def test_lipschitz_check(problem):
    params, init, u = problem
    rep = ch.lipschitz_check(params, init, u, pairs=3,
                             magnitudes=[1e-1, 1e-2, 1e-3])
    assert rep.passed()
    assert rep.spread_across_magnitudes() <= 3.0
    # triangle sanity: the combined ratio never exceeds the weighted parts
    for i in range(3):
        for j in range(3):
            combined = rep.ratios["combined"][i, j]
            bound = (params.alpha * rep.ratios["mu"][i, j]
                     + rep.ratios["phi"][i, j] + rep.ratios["sigma"][i, j])
            assert combined <= bound + 1e-12


def test_only_the_lipschitz_oracle_marches_to_tolerance(problem, monkeypatch):
    # the Lipschitz spreads cannot see the polish, so its ensembles make the
    # tolerance march. The FD gradient oracle's base march and ensembles
    # polish: without it the error on seed 116 reads 6.89e-7, still under
    # the 1e-6 gate, so no other test would notice the polish gone
    params, init, u = problem
    polish = []
    solve_state = ch.verification.solve_state

    def recording_solve_state(params, init, control, steps=None, **kw):
        polish.append(kw.get("polish", True))
        return solve_state(params, init, control, steps, **kw)

    monkeypatch.setattr(ch.verification, "solve_state", recording_solve_state)
    ch.lipschitz_check(params, init, u, pairs=2, magnitudes=[1e-2])
    assert polish and not any(polish)
    polish.clear()
    ch.fd_gradient_check(params, init, tracking_cost(params), u, 0.5, directions=1,
                         deltas=[1e-3])
    assert len(polish) >= 2 and all(polish)


def test_lipschitz_tolerance_march_matches_polished(problem, monkeypatch):
    # the tolerance march moves every ratio and both spreads by less than
    # 1e-8 relative from those of polished marches, and no verdict
    params, init, u = problem

    def check():
        return ch.lipschitz_check(params, init, u, pairs=3,
                                  magnitudes=[1e-1, 1e-2, 1e-3])

    marched = check()
    solve_state = ch.verification.solve_state
    monkeypatch.setattr(ch.verification, "solve_state",
                        lambda params, init, control, steps=None, **kw:
                        solve_state(params, init, control, steps, polish=True))
    polished = check()
    for name, table in polished.ratios.items():
        np.testing.assert_allclose(marched.ratios[name], table, rtol=1e-8, atol=0)
    for spread in ("spread_across_pairs", "spread_across_magnitudes"):
        assert getattr(marched, spread)() == pytest.approx(getattr(polished, spread)(),
                                                           rel=1e-8, abs=0)
    assert marched.passed() == polished.passed()


@pytest.mark.parametrize("value", [0, 2.5, True, 10**400, "1", np.nan, np.inf],
                         ids=["zero", "fraction", "bool", "beyond-float", "string", "nan",
                              "inf"])
@pytest.mark.parametrize("field", ["verification.gradient.directions",
                                   "verification.duality.directions",
                                   "verification.lipschitz.pairs"])
def test_oracles_range_their_counts(field, value):
    # a library caller's bad count is named, not left to an empty reduction
    params = make_problem(n=16, nt=4)
    init, u, cost = equilibrium_init(params), midpoint_control(params), tracking_cost(params)
    oracle = {
        "verification.gradient.directions": lambda: ch.fd_gradient_check(
            params, init, cost, u, 0.5, directions=value, deltas=[0.1]),
        "verification.duality.directions": lambda: ch.duality_check(
            params, ch.solve_state(params, init, u), 2, cost, directions=value),
        "verification.lipschitz.pairs": lambda: ch.lipschitz_check(
            params, init, u, pairs=value, magnitudes=[0.1]),
    }[field]
    with pytest.raises(ConfigError, match=f"^{field}: "):
        oracle()


@pytest.mark.parametrize("value, expected", [
    ([0.0, 0.1], "a finite positive number, got 0.0"),
    ([-0.1, 0.2], "a finite positive number, got -0.1"),
    ([0.1, np.nan], "a finite positive number, got nan"),
    ([0.1, True], "a finite positive number, got True"),
    ([0.1, 0.1], "a non-empty list of distinct entries, got [0.1, 0.1]"),
    ([], "a non-empty list of distinct entries, got []"),
], ids=["zero", "negative", "nan", "bool", "repeated", "empty"])
@pytest.mark.parametrize("field", ["verification.gradient.deltas",
                                   "verification.lipschitz.magnitudes"])
def test_oracles_range_their_list_options(field, value, expected):
    # as the config table ranges the two lists: a zero delta divided by zero,
    # a repeated one made the slope fit singular, a negative one gave a NaN
    # slope, and a zero magnitude a 0/0 ratio that blew up the pair spread
    params = make_problem(n=16, nt=8)
    init, u, cost = equilibrium_init(params), midpoint_control(params), tracking_cost(params)
    oracle = {
        "verification.gradient.deltas": lambda: ch.fd_gradient_check(
            params, init, cost, u, 0.5, directions=1, deltas=value),
        "verification.lipschitz.magnitudes": lambda: ch.lipschitz_check(
            params, init, u, pairs=1, magnitudes=value),
    }[field]
    with pytest.raises(ConfigError) as caught:
        oracle()
    assert str(caught.value) == f"{field}: expected {expected}"


def test_lipschitz_identical_controls(problem):
    # zero perturbation magnitude makes both controls equal, a ratio 0/0 that
    # the check would read as 0 and pass on: the magnitude is refused
    params, init, u = problem
    with pytest.raises(ConfigError, match="^verification.lipschitz.magnitudes: expected "
                                          "a finite positive number, got 0.0$"):
        ch.lipschitz_check(params, init, u, pairs=1, magnitudes=[0.0])



def _oracles():
    """(check, option) -> a call of that check's oracle on a 16-cell,
    4-step problem with that option set to its argument: each count and
    list option an oracle takes."""
    params = make_problem(n=16, nt=4)
    init, u, cost = equilibrium_init(params), midpoint_control(params), tracking_cost(params)
    state = ch.solve_state(params, init, u)
    return {
        ("gradient", "directions"): lambda v: ch.fd_gradient_check(
            params, init, cost, u, 0.5, directions=v, deltas=[0.2, 0.1]),
        ("gradient", "deltas"): lambda v: ch.fd_gradient_check(
            params, init, cost, u, 0.5, directions=1, deltas=v),
        ("duality", "directions"): lambda v: ch.duality_check(
            params, state, 2, cost, directions=v),
        ("lipschitz", "pairs"): lambda v: ch.lipschitz_check(
            params, init, u, pairs=v, magnitudes=[0.1, 0.01]),
        ("lipschitz", "magnitudes"): lambda v: ch.lipschitz_check(
            params, init, u, pairs=1, magnitudes=v),
    }


def test_config_table_reads_the_oracles_option_rows():
    # one row per option: the table holds the row of CHECKS itself
    for check, (_, _, options) in CHECKS.items():
        assert _FIELDS[f"verification.{check}"] == ("object", None, {})
        for option, row in options.items():
            assert _FIELDS[f"verification.{check}.{option}"] is row
    # every count and list option is one an oracle takes
    assert set(_oracles()) == {(c, o) for c, (_, _, opts) in CHECKS.items()
                               for o, (kind, _, _) in opts.items()
                               if kind == "integer" or kind.endswith(" set")}


@pytest.mark.parametrize("check, option", list(_oracles()))
def test_oracle_refuses_what_the_config_refuses(tmp_path, capsys, check, option):
    # the oracle and the config table apply one rule, word for word
    call = _oracles()[check, option]
    kind, limit, default = CHECKS[check][2][option]
    # the table's mutations of the row, and 0, -1, 2.5, NaN, an empty list and
    # a repeated entry, bare or listed, for either kind
    values = _invalid(kind, limit, default) + [0, -1, 2.5, math.nan, [], [1, 1]]
    for value in values:
        cfg = copy.deepcopy(TINY_CONFIG)
        cfg["pipeline"] = "verify"
        cfg["verification"] = {check: {option: value}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(path, out_dir=tmp_path / "out") == 2, value
        printed = capsys.readouterr().err
        assert printed.startswith(f"config error: verification.{check}.{option}: ")
        with pytest.raises(ConfigError) as caught:
            call(value)
        assert f"config error: {caught.value}\n" == printed


@pytest.mark.parametrize("check, option", [("gradient", "deltas"),
                                           ("lipschitz", "magnitudes")])
def test_list_options_take_a_tuple_or_a_1d_array(check, option):
    call = _oracles()[check, option]
    expected = call([0.2, 0.1]).to_text()
    assert call((0.2, 0.1)).to_text() == expected
    assert call(np.array([0.2, 0.1])).to_text() == expected
    for value in (0.1, np.float64(0.1), np.array([[0.2, 0.1]]), "0.1"):
        with pytest.raises(ConfigError, match=f"^verification.{check}.{option}: expected "
                                              f"a non-empty list of distinct entries, "):
            call(value)

def test_mass_balance_unit_control(problem):
    # u == 1 injects exactly t * |Omega| of combined mass
    params, init, _ = problem
    grid, tg = params.grid, params.time_grid
    u = ch.constant_trajectory(grid, tg, 1.0)
    traj = ch.solve_state(params, init, u)
    rep = ch.mass_balance_check(traj, u, params)
    assert rep.residual <= 1e-10
    drift = ch.integrate(grid, params.alpha * traj.mu[-1] + traj.phi[-1]
                         + traj.sigma[-1]) - ch.integrate(
        grid, params.alpha * traj.mu[0] + traj.phi[0] + traj.sigma[0])
    assert drift == pytest.approx(tg.horizon, rel=1e-10)


def test_mass_balance_equilibrium(problem):
    params, init, _ = problem
    u = ch.constant_trajectory(params.grid, params.time_grid, 0.0)
    traj = ch.solve_state(params, init, u)
    assert ch.mass_balance_check(traj, u, params).residual <= 1e-12


def test_reports_render_text(problem):
    params, init, u = problem
    rep = ch.lipschitz_check(params, init, u, pairs=1, magnitudes=[1e-2])
    text = rep.to_text()
    assert "lipschitz" in text and "pair 0" in text
    traj = ch.solve_state(params, init, u)
    assert "mass balance" in ch.mass_balance_check(traj, u, params).to_text()


def test_mass_balance_nan_frame_fails(problem):
    # a NaN after the first step must not be dropped by the reduction
    params, init, u = problem
    traj = ch.solve_state(params, init, u)
    data = traj.data.copy()
    data[3, 1, 5] = np.nan
    broken = ch.Trajectory(params.grid, params.time_grid, data, traj.names)
    rep = ch.mass_balance_check(broken, u, params)
    assert np.isnan(rep.residual)
    assert not rep.passed(1e-10)


def test_mass_balance_reads_the_frames_it_is_given(problem):
    # a march stopped at step m reports steps 1..m, bitwise the first
    # entries of the full march's series; one frame has no step to report
    params, init, u = problem
    full = ch.mass_balance_check(ch.solve_state(params, init, u), u, params)
    m = params.time_grid.steps // 2
    part = ch.mass_balance_check(ch.solve_state(params, init, u, steps=m), u, params)
    assert len(part.residuals) == m
    assert part.residuals.tobytes() == full.residuals[:m].tobytes()
    traj = ch.solve_state(params, init, u, steps=1)
    first = ch.Trajectory(params.grid, params.time_grid, traj.data[:1], traj.names)
    with pytest.raises(ch.errors.TimeDomainError,
                       match=r"^mass balance: node 1 needs forward frames 0\.\.1, got 1$"):
        ch.mass_balance_check(first, u, params)


@pytest.mark.parametrize("other", [
    lambda p: dataclasses.replace(p, grid=ch.Grid.line(p.grid.n[0], 2.0)),
    lambda p: dataclasses.replace(p, time_grid=ch.TimeGrid(0.5, p.time_grid.steps)),
], ids=["extents", "horizon"])
def test_state_of_another_problem_is_refused(other):
    # the same shapes on another grid or time grid: the balance would read
    # the march with the wrong h or dt
    params = make_problem(n=16, nt=8, horizon=0.25)
    init, u = equilibrium_init(params), midpoint_control(params)
    traj = ch.solve_state(params, init, u)
    assert ch.mass_balance_check(traj, u, params).residual <= 1e-12
    with pytest.raises(GridMismatchError, match="^mass balance: "):
        ch.mass_balance_check(traj, u, other(params))
    # a control with 3 of its 9 nodes
    with pytest.raises(ShapeMismatchError, match="^control: shape"):
        ch.mass_balance_check(traj, u[:3], params)


def test_duality_nan_mismatch_fails():
    rep = ch.verification.DualityCheckReport(0, [1e-12, np.nan], [1.0, 1.0],
                                             [1.0, np.nan], 0)
    assert np.isnan(rep.max_mismatch)
    assert not rep.passed(1e-9)


def test_gradient_nan_error_fails():
    rep = ch.verification.GradientCheckReport(
        0.5, 20, [1e-4], [1.0, 1.0], [[1e-9], [np.nan]], [np.nan, np.nan], [1e-4], 0)
    assert np.isnan(rep.max_rel_error(1e-4))
    assert not rep.passed(1e-4, 1e-6)


def _slope_report(slope_delta_error, slope):
    """A report of one direction whose errors at the slope deltas are all
    ``slope_delta_error``, with ``slope`` fit on them."""
    e = slope_delta_error
    return ch.verification.GradientCheckReport(
        0.5, 20, [0.5, 0.2, 0.1, 1e-4], [1.0], [[e, e, e, 1e-11]], [slope],
        [0.5, 0.2, 0.1], 0)


def test_gradient_slope_not_gated_at_exact_differences():
    # central differences exact to the floor leave a slope of noise; the
    # direction already matches the gradient far inside the gate
    assert SLOPE_FLOOR == 1e-10
    assert _slope_report(SLOPE_FLOOR, -1.0).passed(1e-4, 1e-6)
    assert _slope_report(3e-14, -1.0).passed(1e-4, 1e-6)
    # above the floor the slope is gated as before, and NaN is above it
    assert not _slope_report(1e-9, 0.0).passed(1e-4, 1e-6)
    assert not _slope_report(np.nan, 0.0).passed(1e-4, 1e-6)
    assert _slope_report(1e-9, 2.0).passed(1e-4, 1e-6)


def test_checks_honour_newton_settings(problem):
    # a zero Newton budget cannot take a single step from the initial data
    params, init, u = problem
    cost = tracking_cost(params)
    params = dataclasses.replace(params, newton_max_iter=0)
    with pytest.raises(ch.NewtonDivergenceError):
        ch.fd_gradient_check(params, init, cost, u, 0.5, directions=1,
                             deltas=[1e-4])
    with pytest.raises(ch.NewtonDivergenceError):
        ch.lipschitz_check(params, init, u, pairs=1, magnitudes=[1e-2])
    with pytest.raises(ch.NewtonDivergenceError):
        ch.optimize(params, init, cost, u, max_outer_iters=2)


def _fd_reference(params, init, cost, u, tau, directions, deltas, seed):
    """fd_gradient_check's figures, rebuilt from full-length forward solves
    with the slope fit on the deltas >= SLOPE_MIN_DELTA."""
    grid, tg = params.grid, params.time_grid
    k_tau, _ = tg.nearest_node(tau)
    adjoint = ch.solve_adjoint(params, ch.solve_state(params, init, u), k_tau, cost)
    grad = ch.control_gradient(adjoint, u, cost.b0)
    rng = np.random.default_rng(seed)
    analytic, rel_errors, slopes = [], [], []
    for _ in range(directions):
        h = _random_direction(rng, u.shape, grid, tg.dt)
        pairing = ch.space_time_inner(grid, tg.dt, grad, h)
        errs = []
        for delta in deltas:
            up, dn = u + delta * h, u - delta * h
            fd = _cost_difference(params, cost, k_tau, up, dn,
                                 ch.solve_state(params, init, up),
                                 ch.solve_state(params, init, dn)) / (2.0 * delta)
            errs.append(abs(fd - pairing) / max(abs(pairing), 1e-300))
        analytic.append(pairing)
        rel_errors.append(errs)
        kept = [(d, e) for d, e in zip(deltas, errs) if d >= SLOPE_MIN_DELTA]
        slopes.append(_fit_slope([d for d, _ in kept], [e for _, e in kept]))
    return analytic, rel_errors, slopes


def _problem_1d():
    params = make_problem(n=24, nt=20)
    grid, tg = params.grid, params.time_grid
    u = np.random.default_rng(4).uniform(0.0, 2.0, (tg.steps + 1,) + grid.shape)
    relax = ch.Relaxation(0.4, 0.13, grid.full(0.2))
    return params, equilibrium_init(params), u, tracking_cost(
        params, b2=0.3, b4=0.2, relaxation=relax)


def _problem_2d():
    grid = ch.Grid.rectangle(9, 7, 1.5, 0.8)
    tg = ch.TimeGrid(0.25, 13)
    params = ch.ModelParams(0.1, 0.1, ch.Potential.quartic(),
                            ch.Proliferation.smooth_ramp(1.0, 0.5), grid, tg)
    u = np.random.default_rng(4).uniform(0.0, 2.0, (tg.steps + 1,) + grid.shape)
    cost = ch.CostSpec(
        b0=1e-3, b1=1.0, b2=0.4, b3=1.0, b4=0.2, b5=0.01, b6=1.0,
        phi_q=ch.constant_trajectory(grid, tg, -0.5),
        sigma_q=ch.constant_trajectory(grid, tg, 0.375),
        phi_omega=grid.full(-0.5), tau_star=0.125,
        relaxation=ch.Relaxation(0.4, 0.05, grid.full(0.2)),
    )
    return params, equilibrium_init(params), u, cost


@pytest.mark.parametrize("make", [_problem_1d, _problem_2d], ids=["1d", "2d"])
def test_gradient_check_truncated_solves_match_full(make):
    # the oracle marches each perturbed control to frame max(k_tau, 1); its
    # figures must be the bits of full-length solves. The interior node is
    # one whose t_k / dt rounds above k (dt is not a power of two). Two
    # deltas >= 0.1 give a slope that is a number, which == can compare.
    params, init, u, cost = make()
    tg = params.time_grid
    k_mid = next(k for k in range(1, tg.steps) if tg.times[k] / tg.dt > k)
    deltas = [0.2, 0.1, 1e-3]
    for tau in (0.0, tg.times[k_mid], tg.horizon):
        rep = ch.fd_gradient_check(params, init, cost, u, tau, directions=2,
                                   deltas=deltas, seed=5)
        analytic, rel_errors, slopes = _fd_reference(params, init, cost, u, tau, 2,
                                                     deltas, 5)
        assert rep.analytic == analytic, tau
        assert rep.rel_errors == rel_errors, tau
        assert rep.slopes == slopes, tau


@pytest.mark.parametrize("make", [_problem_1d, _problem_2d], ids=["1d", "2d"])
def test_polarized_difference_matches_cost_values(make):
    # the oracle's J(u+) - J(u-) is the difference of the cost's own values
    # at every node, with every weight and the relaxed term on; the values
    # themselves round by a few ulps of the totals, which bounds the match
    # where the difference is small
    params, init, u, cost = make()
    assert all(w > 0 for w in cost.weights()) and cost.relaxation.gamma > 0
    grid, tg = params.grid, params.time_grid
    h = _random_direction(np.random.default_rng(8), u.shape, grid, tg.dt)
    up, dn = u + 0.5 * h, u - 0.5 * h
    s_up, s_dn = ch.solve_state(params, init, up), ch.solve_state(params, init, dn)
    prof_up, prof_dn = ch.TauProfile(s_up, up, cost), ch.TauProfile(s_dn, dn, cost)
    eps = np.finfo(float).eps
    for k, tau in enumerate(tg.times):
        j_up, j_dn = prof_up.value(tau), prof_dn.value(tau)
        got = _cost_difference(params, cost, k, up, dn, s_up, s_dn)
        tol = 1e-12 * abs(j_up - j_dn) + 4 * eps * (abs(j_up) + abs(j_dn))
        assert abs(got - (j_up - j_dn)) <= tol, k
        assert got != 0.0, k


def test_gradient_check_at_seed_116():
    # the shipped verify suite's gradient oracle at a seed whose direction 1
    # is nearly orthogonal to the gradient (pairing -4.2e-8): a difference of
    # two cost totals put its error at 1.1e-6, above the gate
    cfg = parse_config(CONFIGS / "verify-suite.json", seed=116)
    opts = cfg.verification["gradient"]
    rep = ch.fd_gradient_check(cfg.params, cfg.init, cfg.cost, cfg.u0,
                               cfg.verification["tau"],
                               directions=opts["directions"], deltas=opts["deltas"],
                               seed=cfg.seed)
    delta = min(opts["deltas"])
    assert abs(rep.analytic[1]) < 1e-7
    assert rep.max_rel_error(delta) < 1e-7
    assert rep.passed(delta, opts["tol"])


def _problem_2d_logarithmic():
    """A logarithmic random start on 12x10 cells under a strong source: at
    the Lipschitz check's magnitude 10, the members of an ensemble leave
    the mean-coefficient step at different iterations."""
    grid = ch.Grid.rectangle(12, 10, 1.0, 0.8)
    tg = ch.TimeGrid(0.2, 4)
    pot = ch.Potential.logarithmic(2.0)
    params = ch.ModelParams(0.1, 0.1, pot, ch.Proliferation.smooth_ramp(1.0, 0.5),
                            grid, tg)
    init = preset_initial_data("random_interior", grid, pot, amplitude=0.5, seed=1)
    cost = ch.CostSpec(
        b0=1e-3, b1=1.0, b2=0.0, b3=1.0, b4=0.0, b5=0.01, b6=1.0,
        phi_q=ch.constant_trajectory(grid, tg, -0.5),
        sigma_q=ch.constant_trajectory(grid, tg, 0.375),
        phi_omega=grid.full(-0.5), tau_star=0.1,
    )
    return params, init, ch.constant_trajectory(grid, tg, 100.0), cost


@pytest.mark.parametrize("make", [_problem_1d, _problem_2d_logarithmic], ids=["1d", "2d"])
def test_oracle_reports_do_not_depend_on_grouping(make, monkeypatch):
    # the FD gradient and Lipschitz reports are the same bits whether the
    # pairs march in the default ensembles or one pair per ensemble
    params, init, u, cost = make()
    sizes, flags = [], []
    solve_state, solve = ch.verification.solve_state, ch.system.StepSolver.solve

    def recording_solve_state(params, init, control, steps=None, **kw):
        sizes.append(len(control) if control.ndim > params.grid.dim + 1 else 1)
        return solve_state(params, init, control, steps, **kw)

    def recording_solve(self, p, w, rhs, transpose=False, means=False):
        flags.append(len(set(np.atleast_1d(means))))
        return solve(self, p, w, rhs, transpose, means)

    monkeypatch.setattr(ch.verification, "solve_state", recording_solve_state)
    monkeypatch.setattr(ch.system.StepSolver, "solve", recording_solve)

    def reports():
        grad = ch.fd_gradient_check(params, init, cost, u, 0.1, directions=2,
                                    deltas=[0.2, 0.1, 1e-3], seed=5)
        lip = ch.lipschitz_check(params, init, u, pairs=2, magnitudes=[10.0, 1e-2],
                                 seed=5)
        return ((grad.analytic, grad.rel_errors, grad.slopes),
                {name: table.tobytes() for name, table in lip.ratios.items()})

    grouped = reports()
    # the base state solve has one member, each ensemble an even number
    assert max(sizes) > 2
    # in 2D, some stacked iteration solves members both ways in one call
    assert (max(flags) > 1) == (params.grid.dim == 2)
    sizes.clear()
    monkeypatch.setattr(ch.verification, "ENSEMBLE_BYTES", 1)
    assert reports() == grouped
    assert set(sizes) == {1, 2}


def test_pair_oracles_hold_one_ensemble_at_a_time(monkeypatch):
    # with room for two pairs, 6 pairs march in 3 ensembles; only the
    # figures of each pair outlive its ensemble, so the traced peak of either
    # oracle stays below two ensembles' bytes (about 1.46 and 1.52 of one)
    params = make_problem(n=64, nt=64)
    grid, tg = params.grid, params.time_grid
    init, u, cost = equilibrium_init(params), midpoint_control(params), tracking_cost(params)
    state = ch.solve_state(params, init, u)
    member = (3 * (tg.steps + 1) + tg.steps + 1) * grid.cell_count * 8
    monkeypatch.setattr(ch.verification, "ENSEMBLE_BYTES", 2 * 2 * member)
    sizes = []
    solve_state = ch.verification.solve_state

    def recording_solve_state(params, init, control, steps=None, **kw):
        sizes.append(len(control))
        return solve_state(params, init, control, steps, **kw)

    monkeypatch.setattr(ch.verification, "solve_state", recording_solve_state)
    runs = {
        "lipschitz": lambda: ch.lipschitz_check(params, init, u, pairs=3,
                                                magnitudes=[1e-1, 1e-2]),
        # at the horizon the perturbed solves march every step
        "gradient": lambda: ch.fd_gradient_check(params, init, cost, u, tg.horizon,
                                                 directions=2, deltas=[0.2, 0.1, 1e-3],
                                                 state=state),
    }
    for name, run in runs.items():
        run()  # the first call loads what the process keeps for later solves
        sizes.clear()
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [4, 4, 4], name
        assert peak < 2 * ch.verification.ENSEMBLE_BYTES, (name, peak / (4 * member))

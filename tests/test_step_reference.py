"""The forward march against an independent three-field reference.

``reference_march`` is the step as first written: the Newton iterate is
three separate fields, each residual applies the stencil to mu, phi and
sigma one at a time, and Newton solves A dX = -R. The production step
stacks the iterate, applies the stencil once per residual and solves
A y = R; it must reproduce the reference bit for bit, in its
trajectories, its diagnostics and its failures.

In 2D the reference takes the production's chord rule: it solves against
the factorization kept from an earlier iteration or step, and refactors
at the iteration after a full step that did not contract the residual by
``CHORD_CONTRACTION``. With ``lagged=False`` it is exact Newton, the 1D
rule, which the lagged march must match to roundoff.
"""

import numpy as np
import pytest

import chcontrol as ch
from chcontrol.cli import preset_initial_data
from chcontrol.errors import NanDetectedError, NewtonDivergenceError
from chcontrol.fields import integrate, laplacian_neumann
from chcontrol.system import StepSolver
from conftest import make_problem


def _reference_newton_step(solver, pot, p_frozen, m0, f0, s0, pi_old, u_k, grid,
                           tol, max_iter, clamp_lo, clamp_hi, lagged, refactor):
    a, b, c = solver.a, solver.b, solver.c
    contraction = ch.state.CHORD_CONTRACTION

    def newton_direction(f, r1, r2, r3):
        nonlocal refactor
        if lagged and not refactor:
            return solver.solve(None, None, (-r1, -r2, -r3))
        refactor = False
        bpp = pot.d2B(f)
        return solver.solve(p_frozen, bpp, (-r1, -r2, -r3))

    m, f, s = m0.copy(), f0.copy(), s0.copy()

    def residual(m, f, s):
        r1 = a * (m - m0) + c * (f - f0) - laplacian_neumann(grid, m) - p_frozen * (s - m)
        r2 = (b * (f - f0) - laplacian_neumann(grid, f)
              + pot.dB(f) + pi_old - m)
        r3 = c * (s - s0) - laplacian_neumann(grid, s) + p_frozen * (s - m) - u_k
        return r1, r2, r3

    r1, r2, r3 = residual(m, f, s)
    res = max(np.abs(r1).max(), np.abs(r2).max(), np.abs(r3).max())
    iters = 0
    converged = res < tol
    while iters < max_iter and not converged:
        if not (np.isfinite(res)):
            raise NanDetectedError("Newton residual")
        dm, df, ds = newton_direction(f, r1, r2, r3)
        lam = 1.0
        best = None
        for _ in range(10):
            mt, ft, st = m + lam * dm, f + lam * df, s + lam * ds
            if clamp_lo is not None:
                ft = np.clip(ft, clamp_lo, clamp_hi)
            r1t, r2t, r3t = residual(mt, ft, st)
            rest = max(np.abs(r1t).max(), np.abs(r2t).max(), np.abs(r3t).max())
            if best is None or rest < best[0]:
                best = (rest, mt, ft, st, r1t, r2t, r3t)
            if lam == 1.0 and rest >= contraction * res and rest >= tol:
                refactor = True
            if rest < res or rest < tol:
                break
            lam *= 0.5
        res, m, f, s, r1, r2, r3 = best
        iters += 1
        converged = res < tol
    if not converged:
        return m, f, s, res, iters, False, refactor
    dm, df, ds = newton_direction(f, r1, r2, r3)
    mt, ft, st = m + dm, f + df, s + ds
    if clamp_lo is not None:
        ft = np.clip(ft, clamp_lo, clamp_hi)
    r1t, r2t, r3t = residual(mt, ft, st)
    rest = max(np.abs(r1t).max(), np.abs(r2t).max(), np.abs(r3t).max())
    if rest >= contraction * res and rest >= tol:
        refactor = True
    if rest < res:
        m, f, s, res = mt, ft, st, rest
    return m, f, s, res, iters + 1, True, refactor


def reference_march(params, init, control, tol=ch.state.NEWTON_TOL,
                    max_iter=ch.state.NEWTON_MAX_ITER, lagged=None):
    """Returns (data, newton_iters, mass_residual, delta_sep). ``lagged``
    defaults to the production rule: chord iterations in 2D only."""
    grid, tg, pot = params.grid, params.time_grid, params.potential
    if lagged is None:
        lagged = grid.dim == 2
    refactor = True
    nt, dt = tg.steps, tg.dt
    solver = StepSolver(grid, dt, params.alpha, params.beta)
    clamp_lo = clamp_hi = None
    if pot.singular:
        lo, hi = pot.domain
        margin = 1e-6 * (hi - lo)
        clamp_lo, clamp_hi = lo + margin, hi - margin

    data = np.empty((nt + 1, 3) + grid.shape)
    data[0, 0], data[0, 1], data[0, 2] = init.mu0, init.phi0, init.sigma0
    newton_iters = np.zeros(nt, dtype=int)
    mass_residual = np.zeros(nt)
    delta_sep = np.full(nt, np.inf)
    mass0 = integrate(grid, params.alpha * init.mu0 + init.phi0 + init.sigma0)
    injected = 0.0
    for k in range(nt):
        m0, f0, s0 = data[k]
        p_frozen = params.proliferation.P(f0)
        pi_old = pot.dS(f0)
        u_k = control[k]
        m, f, s, res, iters, ok, refactor = _reference_newton_step(
            solver, pot, p_frozen, m0, f0, s0, pi_old, u_k, grid, tol, max_iter,
            clamp_lo, clamp_hi, lagged, refactor)
        if not ok:
            raise NewtonDivergenceError(k + 1, res, iters)
        if pot.singular:
            lo, hi = pot.domain
            delta_sep[k] = float(min((f - lo).min(), (hi - f).min()))
        data[k + 1, 0], data[k + 1, 1], data[k + 1, 2] = m, f, s
        injected += dt * integrate(grid, u_k)
        mass_k = integrate(grid, params.alpha * m + f + s)
        mass_residual[k] = abs(mass_k - mass0 - injected) / (1.0 + abs(mass0))
        newton_iters[k] = iters
    return data, newton_iters, mass_residual, delta_sep


def _assert_same_march(params, init, control):
    traj = ch.solve_state(params, init, control)
    data, iters, mass, sep = reference_march(params, init, control)
    diag = traj.diagnostics
    assert traj.data.tobytes() == data.tobytes()
    assert np.array_equal(diag.newton_iters, iters)
    assert ch.mass_balance_check(traj, control, params).residuals.tobytes() \
        == mass.tobytes()
    assert diag.delta_sep.tobytes() == sep.tobytes()
    return traj


def test_quartic_baseline_bitwise(baseline_problem):
    params, init, _, u = baseline_problem
    _assert_same_march(params, init, u)


def test_logarithmic_clamp_path_bitwise():
    pot = ch.Potential.logarithmic(2.0)
    params = make_problem(n=48, nt=48, potential=pot)
    init = preset_initial_data("random_interior", params.grid, pot,
                               amplitude=0.9, seed=3)
    u = ch.constant_trajectory(params.grid, params.time_grid, 0.0)
    _assert_same_march(params, init, u)


@pytest.mark.parametrize("potential", [ch.Potential.quartic(),
                                       ch.Potential.logarithmic(2.0)],
                         ids=["quartic", "logarithmic"])
def test_two_dimensional_bitwise(potential):
    grid = ch.Grid.rectangle(10, 8, 1.0, 0.8)
    tg = ch.TimeGrid(0.1, 6)
    params = ch.ModelParams(0.1, 0.1, potential,
                            ch.Proliferation.smooth_ramp(1.0, 0.5), grid, tg)
    init = preset_initial_data("random_interior", grid, potential,
                               amplitude=0.5, seed=4)
    u = ch.constant_trajectory(grid, tg, 1.0)
    traj = _assert_same_march(params, init, u)
    _assert_near_exact(traj, params, init, u)


def _assert_near_exact(traj, params, init, control):
    """The chord march converges to the exact-Newton march's answer."""
    exact, *_ = reference_march(params, init, control, lagged=False)
    scale = np.abs(exact).max()
    assert np.abs(traj.data - exact).max() <= 1e-12 * scale


def _refactor_problem(potential, amplitude, source, steps):
    """16x16 cells, dt 0.05 and a strong constant source: P and B''(phi)
    move enough that a kept factorization stops contracting."""
    grid = ch.Grid.rectangle(16, 16, 1.0, 1.0)
    tg = ch.TimeGrid(0.05 * steps, steps)
    params = ch.ModelParams(0.1, 0.1, potential,
                            ch.Proliferation.smooth_ramp(1.0, 0.5), grid, tg)
    init = preset_initial_data("random_interior", grid, potential,
                               amplitude=amplitude, seed=1)
    return params, init, ch.constant_trajectory(grid, tg, source)


def test_two_dimensional_refactor_path(splu_calls):
    params, init, u = _refactor_problem(ch.Potential.quartic(), 0.5, 50.0, 4)
    traj = ch.solve_state(params, init, u)
    factors = len(splu_calls)
    assert 1 < factors < traj.diagnostics.newton_iters.sum()
    _assert_near_exact(traj, params, init, u)
    _assert_same_march(params, init, u)


def test_two_dimensional_divergence_matches_exact():
    params, init, u = _refactor_problem(ch.Potential.logarithmic(2.0), 0.9, 200.0, 4)
    with pytest.raises(NewtonDivergenceError) as exact:
        reference_march(params, init, u, lagged=False)
    with pytest.raises(NewtonDivergenceError) as got:
        ch.solve_state(params, init, u)
    assert got.value.step == exact.value.step == 4


def _damping_problem(potential):
    """A steep start under a strong source: Newton's full step overshoots
    and the line search halves it."""
    params = make_problem(n=32, nt=2, potential=potential)
    grid = params.grid
    phi0 = 0.5 * np.cos(np.pi * grid.axis_centers(0))
    mu0 = potential.dF(phi0)
    init = ch.InitialData(mu0, phi0, grid.full(0.5))
    u = ch.constant_trajectory(grid, params.time_grid, 50.0)
    return params, init, u


def test_damping_path_bitwise(monkeypatch):
    params, init, u = _damping_problem(ch.Potential.quartic())
    calls = []
    stencil = ch.state.laplacian_neumann

    def counting_stencil(grid, f):
        calls.append(f.shape)
        return stencil(grid, f)

    # one stencil call per residual evaluation: one per step to start, one
    # per Newton trial; more trials than Newton iterations means the line
    # search backtracked
    monkeypatch.setattr(ch.state, "laplacian_neumann", counting_stencil)
    traj = ch.solve_state(params, init, u)
    monkeypatch.undo()
    assert set(calls) == {(3,) + params.grid.shape}
    steps, iters = params.time_grid.steps, traj.diagnostics.newton_iters.sum()
    assert len(calls) > steps + iters
    _assert_same_march(params, init, u)


def test_damping_divergence_matches_reference():
    params, init, u = _damping_problem(ch.Potential.logarithmic(2.0))
    with pytest.raises(NewtonDivergenceError) as ref:
        reference_march(params, init, u)
    with pytest.raises(NewtonDivergenceError) as got:
        ch.solve_state(params, init, u)
    assert got.value.step == ref.value.step
    assert got.value.iterations == ref.value.iterations
    assert got.value.residual == ref.value.residual

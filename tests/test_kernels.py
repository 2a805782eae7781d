import ctypes

import numpy as np
import pytest
from scipy.linalg import block_diag, lapack, solve_banded

import chcontrol as ch
from chcontrol import kernels
from chcontrol.system import StepSolver
from conftest import equilibrium_init, midpoint_control, run_fresh, tracking_cost


def neumann_laplacian_matrix(grid):
    """The dense Neumann Laplacian on the row-major flattened cells: the
    stencils' reference."""
    axes = []
    for n, inv_h2 in zip(grid.n, grid.inv_h2):
        lap = inv_h2 * (np.eye(n, k=-1) + np.eye(n, k=1) - 2.0 * np.eye(n))
        lap[0, 0] = lap[-1, -1] = -inv_h2
        axes.append(lap)
    if grid.dim == 1:
        return axes[0]
    lx, ly = axes
    return np.kron(lx, np.eye(grid.n[1])) + np.kron(np.eye(grid.n[0]), ly)


def _lap1d_reference(f, inv_h2):
    """The 1D stencil written for one axis, in place over the flat stack:
    the bits the stencil keeps."""
    n = f.shape[-1]
    flat = f.reshape(-1)
    out = np.empty(flat.shape)
    mid = out[1:-1]
    np.multiply(flat[1:-1], 2.0, out=mid)
    np.subtract(flat[:-2], mid, out=mid)
    mid += flat[2:]
    mid *= inv_h2
    for ends, inner, edge in ((out[::n], flat[1::n], flat[::n]),
                              (out[n - 1::n], flat[n - 2::n], flat[n - 1::n])):
        np.subtract(inner, edge, out=ends)
        ends *= inv_h2
    return out.reshape(f.shape)


def _lap2d_reference(f, inv_hx2, inv_hy2):
    """The 2D stencil written for two axes: the bits the stencil keeps."""
    out = np.empty(f.shape)
    out[..., 0, :] = (f[..., 1, :] - f[..., 0, :]) * inv_hx2
    out[..., 1:-1, :] = (f[..., :-2, :] - 2.0 * f[..., 1:-1, :]
                         + f[..., 2:, :]) * inv_hx2
    out[..., -1, :] = (f[..., -2, :] - f[..., -1, :]) * inv_hx2
    out[..., 0] += (f[..., 1] - f[..., 0]) * inv_hy2
    out[..., 1:-1] += (f[..., :-2] - 2.0 * f[..., 1:-1] + f[..., 2:]) * inv_hy2
    out[..., -1] += (f[..., -2] - f[..., -1]) * inv_hy2
    return out


def _dominant_blocks(rng, n):
    diag = rng.standard_normal((n, 3, 3))
    diag += np.eye(3) * 10.0  # make blocks safely dominant
    return diag


def _gbsv_storage(mat):
    """``gbsv`` storage (kl = ku = 3 plus 3 fill rows) of a dense matrix
    whose entries outside the band are zero."""
    ab = np.zeros((kernels.KL + kernels.MAIN + 1, mat.shape[1]), order="F")
    i, j = np.indices(mat.shape)
    band = np.abs(i - j) <= kernels.KL
    ab[kernels.MAIN + i[band] - j[band], j[band]] = mat[band]
    return ab


def _block_tridiag(diag, off):
    """The dense interleaved block-tridiagonal matrix with (n, 3, 3)
    diagonal blocks ``diag`` and scalar neighbour coupling ``off``."""
    size = 3 * diag.shape[0]
    return block_diag(*diag) + off * (np.eye(size, k=3) + np.eye(size, k=-3))


def _block_residual(diag, off, x, rhs):
    res = (diag @ x[:, :, None])[:, :, 0]
    res[1:] += off * x[:-1]
    res[:-1] += off * x[1:]
    return res - rhs


@pytest.mark.parametrize("transpose", [False, True])
def test_band_solve_matches_solve_banded_bitwise(transpose):
    rng = np.random.default_rng(1)
    n, off = 40, -1.7
    diag = _dominant_blocks(rng, n)
    if transpose:
        diag = diag.transpose(0, 2, 1)
    rhs = rng.standard_normal((n, 3))
    ab = _gbsv_storage(_block_tridiag(diag, off))
    # rows below the fill rows are exactly solve_banded's (l = u = 3) storage
    expected = solve_banded((3, 3), ab[kernels.KL:], rhs.reshape(-1))
    x = kernels.solve_block_tridiag(ab.copy(order="F"), rhs.reshape(-1).copy())
    assert x.tobytes() == expected.tobytes()
    assert np.abs(_block_residual(diag, off, x.reshape(n, 3), rhs)).max() <= 1e-10


def _dense_step_matrix(solver, p, w):
    n = solver.grid.n[0]
    inv_h2 = 1.0 / solver.grid.h[0] ** 2
    lap = inv_h2 * (np.diag(np.full(n - 1, 1.0), -1) + np.diag(np.full(n - 1, 1.0), 1)
                    - 2.0 * np.eye(n))
    lap[0, 0] = lap[-1, -1] = -inv_h2
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([
        [solver.a * eye - lap + np.diag(p), solver.c * eye, -np.diag(p)],
        [-eye, solver.b * eye - lap + np.diag(w), zero],
        [-np.diag(p), zero, solver.c * eye - lap + np.diag(p)],
    ])


def _step_band(solver, p, w, transpose):
    """``gbsv`` storage of the 1D step matrices of the members' (K, n) P
    and W, or of their transposes, cell-major, side by side."""
    n = solver.grid.n[0]
    cell_major = (np.arange(n)[:, None] + n * np.arange(3)).ravel()
    # adding zero turns the -0.0 of -P off its diagonal into the band's 0.0
    mats = [_dense_step_matrix(solver, pk, wk)[cell_major][:, cell_major] + 0.0
            for pk, wk in zip(p, w)]
    return _gbsv_storage(block_diag(*[m.T if transpose else m for m in mats]))


@pytest.mark.parametrize("n", [3, 24])
def test_band_templates_are_gbsv_storage_of_step_matrix(n, monkeypatch):
    # the 1D templates are the step matrix at P = W = 0 and its transpose,
    # cell-major, in gbsv storage
    solver = StepSolver(ch.Grid.line(n, 1.0), 1.0 / 64, 0.1, 0.2)
    zero = np.zeros((1, n))
    assert solver._band.tobytes() == _step_band(solver, zero, zero, False).tobytes()
    assert solver._band_t.tobytes() == _step_band(solver, zero, zero, True).tobytes()
    # and the band a solve hands to dgbsv, at nonzero P and W, is that of
    # each member's matrix, side by side
    bands, solve = [], kernels.solve_block_tridiag

    def capture(ab, b, bound=None):
        bands.append(ab.copy(order="F"))
        return solve(ab, b, bound)

    monkeypatch.setattr(kernels, "solve_block_tridiag", capture)
    rng = np.random.default_rng(n)
    for members in (1, 3):
        p = rng.uniform(0.5, 2.0, (members, n))
        w = rng.uniform(0.5, 3.0, (members, n))
        rhs = rng.standard_normal((3, members, n))
        for transpose in (False, True):
            solver.solve(p, w, rhs, transpose=transpose)
            assert bands.pop().tobytes() == _step_band(solver, p, w, transpose).tobytes()


@pytest.mark.parametrize("transpose", [False, True])
def test_step_solve_matches_dense(transpose):
    rng = np.random.default_rng(2)
    grid = ch.Grid.line(24, 1.0)
    solver = StepSolver(grid, 1.0 / 64, 0.1, 0.2)
    p = rng.uniform(0.0, 2.0, 24)
    w = rng.uniform(0.0, 3.0, 24)
    rhs = tuple(rng.standard_normal(24) for _ in range(3))
    mat = _dense_step_matrix(solver, p, w)
    ref = np.linalg.solve(mat.T if transpose else mat, np.concatenate(rhs))
    got = np.concatenate(solver.solve(p, w, rhs, transpose=transpose))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_step_solve_leaves_templates_unchanged():
    rng = np.random.default_rng(3)
    grid = ch.Grid.line(32, 1.0)
    solver = StepSolver(grid, 1.0 / 128, 0.1, 0.1)
    p1, p2 = rng.uniform(0.0, 1.0, (2, 32))
    w1, w2 = rng.uniform(0.0, 2.0, (2, 32))
    rhs = tuple(rng.standard_normal(32) for _ in range(3))
    for transpose in (False, True):
        first = solver.solve(p1, w1, rhs, transpose=transpose)
        solver.solve(p2, w2, rhs, transpose=transpose)
        again = solver.solve(p1, w1, rhs, transpose=transpose)
        for a, b in zip(first, again):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims", [1, 2])
def test_nonfinite_step_data_is_reported_by_the_sweeps(dims):
    # the step solve does not scan its data: a non-finite right-hand side
    # gives non-finite entries in the solution, in both dimensions
    grid = ch.Grid.line(16, 1.0) if dims == 1 else ch.Grid.rectangle(5, 4, 1.0, 0.8)
    solver = StepSolver(grid, 1.0 / 32, 0.1, 0.1)
    p, w = grid.full(0.5), grid.full(1.0)
    for bad, transpose in ((np.nan, False), (np.inf, True)):
        rhs = [grid.full(1.0), grid.full(0.0), grid.full(0.0)]
        rhs[1].flat[7] = bad
        assert not np.isfinite(solver.solve(p, w, tuple(rhs), transpose=transpose)).all()
    # so does a non-finite P, per cell or, in 2D, in its grid mean
    bad = p.copy()
    bad.flat[3] = np.nan
    rhs = (grid.full(1.0), grid.full(0.0), grid.full(0.0))
    for means in ((False, True) if dims == 2 else (False,)):
        for transpose in (False, True):
            got = solver.solve(bad, w, rhs, transpose=transpose, means=means)
            assert not np.isfinite(got).all()
    # and the sweeps that read it name the frame of that solve
    tg = ch.TimeGrid(0.25, 6)
    params = ch.ModelParams(0.1, 0.1, ch.Potential.quartic(),
                            ch.Proliferation.smooth_ramp(1.0, 0.5), grid, tg)
    state = ch.solve_state(params, equilibrium_init(params), midpoint_control(params))
    h = np.zeros((tg.steps + 1,) + grid.shape)
    h[1].flat[1] = np.nan
    with pytest.raises(ch.NanDetectedError, match="linearized frame 2"):
        ch.solve_linearized(params, state, h)
    cost = tracking_cost(params)
    cost.phi_q[3].flat[1] = np.nan
    with pytest.raises(ch.NanDetectedError, match="adjoint frame 2"):
        ch.solve_adjoint(params, state, tg.steps, cost)
    # a state trajectory with a NaN phase at node 4: the linearized sweep
    # first meets it in W of step 3 -> 4, the adjoint sweep, marching
    # backward, in P of step 4 -> 5
    state.data[4, 1].flat[1] = np.nan
    with pytest.raises(ch.NanDetectedError, match="linearized frame 4"):
        ch.solve_linearized(params, state, np.zeros_like(h))
    with pytest.raises(ch.NanDetectedError, match="adjoint frame 4"):
        ch.solve_adjoint(params, state, tg.steps, tracking_cost(params))


def test_band_solve_singular_raises():
    ab = _gbsv_storage(np.zeros((24, 24)))
    with pytest.raises(np.linalg.LinAlgError):
        kernels.solve_block_tridiag(ab, np.ones(24))


def _numpy_dgbsv(ab, b):
    """numpy's dgbsv on ``ab`` and the (n, nrhs) ``b``, called through ctypes
    with arguments of its own, in place: (ab, ipiv, b, info) like the f2py
    wrapper's result."""
    n, nrhs = b.shape
    ints = [ctypes.c_int64(v) for v in (n, kernels.KL, kernels.KU, nrhs,
                                        ab.shape[0], n, 0)]
    ipiv = np.empty(n, np.int64)
    n, kl, ku, nrhs, ldab, ldb, info = map(ctypes.byref, ints)
    data = [arr.ctypes.data_as(ctypes.c_void_p) for arr in (ab, ipiv, b)]
    kernels.numpy_dgbsv()(n, kl, ku, nrhs, data[0], ldab, data[1], data[2],
                          ldb, info)
    return ab, ipiv, b, ints[-1].value


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("members", [1, 3])
@pytest.mark.parametrize("nrhs", [1, 4])
def test_loaded_dgbsv_solves_like_scipy_bitwise(transpose, members, nrhs):
    # kernels calls the dgbsv of numpy's own OpenBLAS and, where that
    # library lacks it, imports SciPy's at the first 1D solve; on the step
    # bands, members side by side, numpy's gives the bits of the public
    # scipy.linalg.lapack.dgbsv: factors, pivots (int64 and int32, by
    # value) and solution
    rng = np.random.default_rng(7)
    n = 24
    solver = StepSolver(ch.Grid.line(n, 1.0), 1.0 / 64, 0.1, 0.05)
    p, w = rng.uniform(0.0, 2.0, (2, members, n))
    ab = _step_band(solver, p, w, transpose)
    rhs = np.asfortranarray(rng.standard_normal((3 * n * members, nrhs)))
    # the SciPy fallback is the public routine itself
    assert kernels.load_dgbsv() is lapack.dgbsv
    ref = lapack.dgbsv(kernels.KL, kernels.KU, ab.copy(order="F"),
                       rhs.copy(order="F"))
    assert ref[3] == 0
    if kernels.numpy_dgbsv() is not None:
        own = _numpy_dgbsv(ab.copy(order="F"), rhs.copy(order="F"))
        assert own[0].tobytes() == ref[0].tobytes()
        assert own[1].dtype == np.int64 and ref[1].dtype == np.int32
        # LAPACK's pivots count from 1, the f2py wrapper's from 0
        assert (own[1] - 1).tolist() == ref[1].tolist()
        assert own[2].tobytes() == ref[2].tobytes()
        assert own[3] == 0
    x = kernels.solve_block_tridiag(ab.copy(order="F"), rhs.copy(order="F"))
    assert x.tobytes() == ref[2].tobytes()


@pytest.mark.parametrize("routine", ["numpy", "scipy"])
def test_band_solve_checks_layout(routine, monkeypatch):
    # dgbsv reads its arrays through raw pointers: a layout it would
    # misread is refused before the call, on either routine, also for a
    # band already solved with a well-laid-out right-hand side
    if routine == "scipy":
        monkeypatch.setattr(kernels, "numpy_dgbsv", lambda: None)
    assert (kernels.numpy_dgbsv() is None) == (routine == "scipy")
    n = 24
    ab = _gbsv_storage(_block_tridiag(_dominant_blocks(np.random.default_rng(9),
                                                       n // 3), -1.7))
    rhs = np.random.default_rng(9).standard_normal((n, 3))
    ref = solve_banded((3, 3), ab[kernels.KL:], rhs)
    x = kernels.solve_block_tridiag(ab.copy(order="F"), np.asfortranarray(rhs))
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    band = ab.copy(order="F")
    kernels.solve_block_tridiag(band, np.asfortranarray(rhs))
    readonly = np.asfortranarray(rhs)
    readonly.flags.writeable = False
    bad_b = {
        "C-ordered": np.ascontiguousarray(rhs),
        "float32": np.asfortranarray(rhs, dtype=np.float32),
        "rows": np.ones(n - 3),
        "read-only": readonly,
        "3-dimensional": np.ones((n, 1, 1), order="F"),
    }
    for name, b in bad_b.items():
        kept = b.tobytes()
        with pytest.raises(ValueError, match="^b "):
            kernels.solve_block_tridiag(band, b)
        assert b.tobytes() == kept, name
    bad_ab = {
        "rows": ab[1:].copy(order="F"),
        "C-ordered": np.ascontiguousarray(ab),
        "float32": ab.astype(np.float32, order="F"),
        "1-dimensional": ab[kernels.MAIN].copy(),
    }
    for name, a in bad_ab.items():
        with pytest.raises(ValueError, match="^ab "):
            kernels.solve_block_tridiag(a, np.ones(n))


# The lookup of numpy's dgbsv finds no symbol, as in a numpy whose BLAS
# library lacks it, so that the first 1D solve imports SciPy's
_FALLBACK_RUN = """
import ctypes, json, sys
getattr_, hidden = ctypes.CDLL.__getattr__, []
def hide_numpy_dgbsv(lib, name):
    if name == "scipy_dgbsv_64_":
        hidden.append(name)
        raise AttributeError(name)
    return getattr_(lib, name)
ctypes.CDLL.__getattr__ = hide_numpy_dgbsv
import numpy as np
from chcontrol import kernels
ab = np.zeros((kernels.KL + kernels.MAIN + 1, 6), order="F")
ab[kernels.MAIN] = 2.0
x = kernels.solve_block_tridiag(ab, np.ones(6))
print(json.dumps({
    "hidden": hidden, "numpy": kernels.numpy_dgbsv() is not None,
    "loaded": kernels.load_dgbsv.cache_info().currsize,
    "public": "scipy.linalg.lapack" in sys.modules, "x": x.tolist()}))
"""


def test_dgbsv_falls_back_to_public_import():
    result = run_fresh(_FALLBACK_RUN)
    assert result == {"hidden": ["scipy_dgbsv_64_"], "numpy": False, "loaded": 1,
                      "public": True, "x": [0.5] * 6}


def _dense_step_matrix_2d(solver, p, w):
    n = solver.grid.cell_count
    lap = neumann_laplacian_matrix(solver.grid)
    eye, zero = np.eye(n), np.zeros((n, n))
    p, w = np.diag(p.ravel()), np.diag(w.ravel())
    return np.block([
        [solver.a * eye - lap + p, solver.c * eye, -p],
        [-eye, solver.b * eye - lap + w, zero],
        [-p, zero, solver.c * eye - lap + p],
    ])


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("batch", [(), (4,)])
def test_step_solve_2d_matches_dense(transpose, batch):
    rng = np.random.default_rng(4)
    grid = ch.Grid.rectangle(7, 5, 1.5, 0.8)
    solver = StepSolver(grid, 1.0 / 32, 0.1, 0.2)
    p = rng.uniform(0.0, 2.0, grid.shape)
    p[0, 0] = 0.0  # a vanishing exchange rate keeps its slot in the pattern
    w = rng.uniform(0.0, 3.0, grid.shape)
    rhs = tuple(rng.standard_normal(batch + grid.shape) for _ in range(3))
    mat = _dense_step_matrix_2d(solver, p, w)
    if transpose:
        mat = mat.T
    # the GMRES stopping test scales by the exact ||A||_inf of the matrix solved
    norm = np.abs(mat).sum(axis=1).max()
    assert abs(solver._norm(p, w, transpose) - norm) <= 1e-14 * norm
    n = grid.cell_count
    b = np.concatenate([r.reshape(-1, n) for r in rhs], axis=1).T
    ref = np.linalg.solve(mat, b)
    got = solver.solve(p, w, rhs, transpose=transpose)
    assert all(x.shape == batch + grid.shape for x in got)
    got = np.concatenate([x.reshape(-1, n) for x in got], axis=1).T
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _dense_solve(mat, rhs):
    """Solve with a component-major dense matrix for a stacked right-hand
    side of shape (3, [ndir,] *grid)."""
    n = mat.shape[0] // 3
    b = rhs.reshape(3, -1, n).transpose(0, 2, 1).reshape(3 * n, -1)
    x = np.linalg.solve(mat, b)
    return x.reshape(3, n, -1).transpose(0, 2, 1).reshape(rhs.shape)


@pytest.mark.parametrize("transpose", [False, True])
def test_step_solve_2d_grid_means_match_dense(transpose):
    # flagged, a solve takes the step matrix at the grid means of P and W,
    # for one and for several directions; per member, one call may solve
    # some members at their means and the others at their per-cell values,
    # each member the bits of its own solve
    rng = np.random.default_rng(10)
    grid = ch.Grid.rectangle(16, 12, 1.5, 0.8)
    solver = StepSolver(grid, 1.0 / 32, 0.1, 0.2)
    p = rng.uniform(0.0, 2.0, (2,) + grid.shape)
    w = rng.uniform(0.0, 3.0, (2,) + grid.shape)

    def dense(i, means):
        pc, wc = (grid.full(f[i].mean()) if means else f[i] for f in (p, w))
        mat = _dense_step_matrix_2d(solver, pc, wc)
        return mat.T if transpose else mat

    for batch in ((), (3,)):
        rhs = rng.standard_normal((3,) + batch + grid.shape)
        got = solver.solve(p[0], w[0], rhs, transpose=transpose, means=True)
        ref = _dense_solve(dense(0, True), rhs)
        assert got.shape == rhs.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    rhs = rng.standard_normal((3, 2) + grid.shape)
    for means in ([True, True], [False, True]):
        got = solver.solve(p, w, rhs, transpose=transpose, means=means)
        for i, flag in enumerate(means):
            single = solver.solve(p[i:i + 1], w[i:i + 1], rhs[:, i:i + 1],
                                  transpose=transpose, means=flag)
            assert got[:, i:i + 1].tobytes() == single.tobytes(), (means, i)
            ref = _dense_solve(dense(i, flag), rhs[:, i])
            assert np.abs(got[:, i] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("grid", [ch.Grid.line(24), ch.Grid.rectangle(6, 5)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("transpose", [False, True])
def test_step_solve_batch_matches_single_bitwise(grid, transpose):
    rng = np.random.default_rng(5)
    solver = StepSolver(grid, 1.0 / 64, 0.1, 0.2)
    p = rng.uniform(0.0, 2.0, grid.shape)
    w = rng.uniform(0.0, 3.0, grid.shape)
    rhs = tuple(rng.standard_normal((3,) + grid.shape) for _ in range(3))
    stacked = solver.solve(p, w, rhs, transpose=transpose)
    for i in range(3):
        single = solver.solve(p, w, tuple(r[i] for r in rhs), transpose=transpose)
        for a, b in zip(single, stacked):
            assert a.tobytes() == b[i].tobytes()


@pytest.mark.parametrize("transpose", [False, True])
def test_step_solve_2d_columns_stop_on_their_own(transpose):
    # a zero, a smooth and a rough right-hand side under a strongly varying
    # W: each column of one solve keeps the bits of its own solve
    rng = np.random.default_rng(12)
    grid = ch.Grid.rectangle(12, 10, 1.0, 0.8)
    solver = StepSolver(grid, 1.0 / 32, 0.1, 0.1)
    p = rng.uniform(0.0, 2.0, grid.shape)
    w = np.exp(rng.uniform(0.0, 8.0, grid.shape))
    x = grid.axis_centers(0)[:, None] + grid.axis_centers(1)
    rhs = np.zeros((3, 3) + grid.shape)
    rhs[:, 1] = np.cos(np.pi * x)
    rhs[:, 2] = rng.standard_normal((3,) + grid.shape)
    stacked = solver.solve(p, w, rhs, transpose=transpose)
    assert not stacked[:, 0].any()
    for i in range(3):
        single = solver.solve(p, w, rhs[:, i], transpose=transpose)
        assert stacked[:, i].tobytes() == single.tobytes()
    mat = _dense_step_matrix_2d(solver, p, w)
    ref = _dense_solve(mat.T if transpose else mat, rhs)
    assert np.abs(stacked - ref).max() <= 1e-12 * np.abs(ref).max()


def test_member_solve_matches_single_solves_bitwise():
    # K members, each with its own P and W, in one band solve: member i
    # gets the bits of a solve of its own; the workspace grows to 3 members
    # and then serves 2 and 1 from its first columns
    rng = np.random.default_rng(10)
    grid = ch.Grid.line(24)
    solver = StepSolver(grid, 1.0 / 64, 0.1, 0.2)
    p = rng.uniform(0.0, 2.0, (3, 24))
    w = rng.uniform(0.0, 3.0, (3, 24))
    rhs = rng.standard_normal((3, 3, 24))
    for members in (3, 2, 1):
        got = solver.solve(p[:members], w[:members], rhs[:, :members])
        assert got.shape == (3, members, 24)
        for i in range(members):
            single = solver.solve(p[i], w[i], rhs[:, i])
            assert got[:, i].tobytes() == single.tobytes(), (members, i)


def test_reused_step_solver_solves_like_a_fresh_one_bitwise():
    # one solver's band workspace grows from 1 to 3 members and then
    # serves 1 member with one and with four right-hand sides; every solve
    # gives the bits of a fresh solver's, and the arrays the solver keeps
    # all lie in its current workspace, those bound to the one it
    # outgrew dropped
    rng = np.random.default_rng(11)
    grid = ch.Grid.line(24)
    solver = StepSolver(grid, 1.0 / 64, 0.1, 0.2)
    for members, ndir in ((1, 1), (3, 1), (1, 1), (1, 4)):
        p = rng.uniform(0.0, 2.0, (members, 24))
        w = rng.uniform(0.0, 3.0, (members, 24))
        if members == 1:
            p, w = p[0], w[0]
        rhs = rng.standard_normal((3, max(members, ndir), 24))
        for transpose in (False, True):
            got = solver.solve(p, w, rhs, transpose=transpose)
            fresh = StepSolver(grid, 1.0 / 64, 0.1, 0.2).solve(p, w, rhs,
                                                                transpose=transpose)
            assert got.tobytes() == fresh.tobytes(), (members, ndir, transpose)
        assert all(ab.base is solver._ab for ab, *_ in solver._arrays.values())
    assert solver._ab.shape[1] == 3 * 3 * 24


def test_step_solve_2d_leaves_template_unchanged():
    rng = np.random.default_rng(6)
    grid = ch.Grid.rectangle(6, 5)
    solver = StepSolver(grid, 1.0 / 32, 0.1, 0.1)
    template = _templates(solver)
    p1, p2 = rng.uniform(0.0, 1.0, (2,) + grid.shape)
    w1, w2 = rng.uniform(0.0, 2.0, (2,) + grid.shape)
    rhs = tuple(rng.standard_normal(grid.shape) for _ in range(3))
    for transpose in (False, True):
        first = solver.solve(p1, w1, rhs, transpose=transpose)
        solver.solve(p2, w2, rhs, transpose=transpose)
        again = solver.solve(p1, w1, rhs, transpose=transpose)
        for a, b in zip(first, again):
            assert a.tobytes() == b.tobytes()
    assert _templates(solver) == template
    # solvers on one grid share the DCT basis, which is read-only
    other = StepSolver(grid, 1.0 / 16, 0.2, 0.1)
    assert all(a is b for a, b in zip(other._basis, solver._basis))
    assert not any(arr.flags.writeable for arr in solver._basis)


def _templates(solver):
    if solver.grid.dim == 1:
        return solver._band.tobytes() + solver._band_t.tobytes()
    return b"".join(arr.tobytes() for arr in solver._basis)


@pytest.mark.parametrize("grid", [ch.Grid.line(24), ch.Grid.rectangle(6, 5)],
                         ids=["1d", "2d"])
def test_step_solve_returns_independent_arrays(grid):
    # the 1D solve factors in a workspace kept by the solver; what it
    # returns must not alias that workspace or an earlier result
    rng = np.random.default_rng(7)
    solver = StepSolver(grid, 1.0 / 64, 0.1, 0.2)
    templates = _templates(solver)
    p1, p2 = rng.uniform(0.0, 2.0, (2,) + grid.shape)
    w1, w2 = rng.uniform(0.0, 3.0, (2,) + grid.shape)
    rhs1, rhs2 = rng.standard_normal((2, 3) + grid.shape)
    for transpose in (False, True):
        first = solver.solve(p1, w1, rhs1, transpose=transpose)
        kept = first.copy()
        second = solver.solve(p2, w2, rhs2, transpose=not transpose)
        assert first.shape == second.shape == (3,) + grid.shape
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()
        # a stacked right-hand side and its three fields give the same bits
        single = solver.solve(p1, w1, tuple(rhs1), transpose=transpose)
        assert single.tobytes() == kept.tobytes()
    assert _templates(solver) == templates


@pytest.mark.parametrize("grid", [ch.Grid.line(24), ch.Grid.rectangle(6, 5)],
                         ids=["1d", "2d"])
def test_laplacian_of_stack_matches_each_field(grid):
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((2, 3) + grid.shape)
    lap = ch.laplacian_neumann(grid, stack)
    mat = neumann_laplacian_matrix(grid)
    for i in range(2):
        for j in range(3):
            field = stack[i, j].copy()
            assert lap[i, j].tobytes() == ch.laplacian_neumann(grid, field).tobytes()
            ref = (mat @ field.ravel()).reshape(grid.shape)
            assert np.abs(lap[i, j] - ref).max() <= 1e-12 * np.abs(ref).max()
    with pytest.raises(ch.GridMismatchError):
        ch.laplacian_neumann(grid, stack[..., :-1])


@pytest.mark.parametrize("grid, stack", [
    (ch.Grid.line(3), (3, 4)), (ch.Grid.line(128), (3, 1)), (ch.Grid.line(128), (3, 8)),
    (ch.Grid((12, 7), (1.0, 0.3)), (5, 3)), (ch.Grid((32, 32), (1.0, 0.7)), (2, 3)),
], ids=["1d-3", "1d-128", "1d-128x8", "2d-12x7", "2d-32x32"])
def test_laplacian_keeps_per_dimension_stencil_bits(grid, stack):
    # one stencil serves every dimension; it forms each axis's term as the
    # per-dimension stencils did, bit for bit (hx != hy in 2D)
    f = np.random.default_rng(11).standard_normal(stack + grid.shape)
    if grid.dim == 1:
        ref = _lap1d_reference(f, *grid.inv_h2)
    else:
        ref = _lap2d_reference(f, *grid.inv_h2)
    assert ch.laplacian_neumann(grid, f).tobytes() == ref.tobytes()

import copy
import json
import struct

import numpy as np
import pytest

import chcontrol as ch
from chcontrol.cli import parse_config
from chcontrol.errors import (
    ConfigError,
    GridMismatchError,
    ShapeMismatchError,
    TimeDomainError,
)
from chcontrol.fields import _HEADER_FMT
from chcontrol.optimizer import check_settings
from cost_reference import interpolate_in_time
from test_cli import TINY_CONFIG


def test_grid_invariants():
    g = ch.Grid.line(64, 2.0)
    assert g.dim == 1
    assert g.h == (2.0 / 64,)
    assert g.cell_count == 64
    assert g.cell_volume == 2.0 / 64
    g2 = ch.Grid.rectangle(8, 16, 1.0, 2.0)
    assert g2.cell_count == 128
    assert g2.cell_volume == (1.0 / 8) * (2.0 / 16)
    # exact past int64: the memory check multiplies it, and a wrapped count
    # would pass a grid that cannot fit
    for n in (2**32, 10**10):
        assert ch.Grid((n, n), (1.0, 1.0)).cell_count == n * n
    with pytest.raises(ConfigError, match="^grid.n: "):
        ch.Grid.line(2)
    with pytest.raises(ConfigError, match="^grid.n: "):
        ch.Grid((8, 8, 8), (1.0, 1.0, 1.0))


@pytest.mark.parametrize("n", [24.9, float("nan"), float("inf"), (16, 8.5)])
def test_grid_rejects_a_cell_count_that_is_not_whole(n):
    # a fractional count is not rounded down, a NaN one is not Python's error
    with pytest.raises(ConfigError, match="^grid.n: expected an integer >= 3, got "):
        if isinstance(n, tuple):
            ch.Grid.rectangle(*n)
        else:
            ch.Grid.line(n, 1.0)
    assert ch.Grid.line(24.0, 1.0).n == (24,)


def test_laplacian_of_constant_is_zero():
    g = ch.Grid.line(32)
    out = ch.laplacian_neumann(g, g.full(3.7))
    assert np.all(out == 0.0)
    g2 = ch.Grid.rectangle(8, 8)
    assert np.all(ch.laplacian_neumann(g2, g2.full(-1.5)) == 0.0)


def test_laplacian_exact_on_quadratics():
    g = ch.Grid.line(64)
    x = g.axis_centers(0)
    out = ch.laplacian_neumann(g, x**2)
    assert np.allclose(out[1:-1], 2.0, rtol=1e-9, atol=1e-9)


def test_laplacian_conservation_random_fields():
    # discrete divergence theorem with reflecting ghosts, 100 fields
    rng = np.random.default_rng(11)
    for g in (ch.Grid.line(64), ch.Grid.rectangle(12, 9)):
        for _ in range(100):
            f = rng.standard_normal(g.shape)
            total = ch.integrate(g, ch.laplacian_neumann(g, f))
            assert abs(total) <= 1e-12 * max(np.abs(f).max(), 1.0)


def test_laplacian_stencil_symmetry():
    rng = np.random.default_rng(5)
    for g in (ch.Grid.line(48), ch.Grid.rectangle(9, 7)):
        for _ in range(25):
            f = rng.standard_normal(g.shape)
            h = rng.standard_normal(g.shape)
            a = ch.integrate(g, ch.laplacian_neumann(g, f) * h)
            b = ch.integrate(g, f * ch.laplacian_neumann(g, h))
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def test_integrate_examples():
    g = ch.Grid.line(64)
    assert ch.integrate(g, g.full(1.0)) == 1.0
    assert ch.integrate(g, g.zeros()) == 0.0
    x = g.axis_centers(0)
    assert ch.integrate(g, x) == 0.5  # midpoint rule exact for linears


def test_time_grid():
    tg = ch.TimeGrid(2.0, 8)
    assert tg.dt == 0.25
    assert tg.times[0] == 0.0 and tg.times[-1] == 2.0
    assert tg.nearest_node(0.26) == (1, pytest.approx(0.01))
    with pytest.raises(ConfigError, match="^time.steps: "):
        ch.TimeGrid(1.0, 0)
    for tau in (2.5, np.nan, np.inf, -np.inf):
        for call in (tg.clamp, tg.nearest_node):
            with pytest.raises(TimeDomainError, match=r"^time \S+ outside \[0, 2.0\]$"):
                call(tau)


@pytest.mark.parametrize("make, field", [
    (lambda: ch.TimeGrid(np.nan, 4), "time.horizon"),
    (lambda: ch.TimeGrid(np.inf, 4), "time.horizon"),
    (lambda: ch.TimeGrid(1.0, 2.5), "time.steps"),
    (lambda: ch.TimeGrid(1.0, np.inf), "time.steps"),
    (lambda: ch.Potential.logarithmic(np.nan), "model.potential.lam"),
    (lambda: ch.Proliferation.constant(np.nan), "model.proliferation.p0"),
    (lambda: ch.Proliferation.smooth_ramp(np.inf), "model.proliferation.p0"),
    (lambda: ch.Proliferation.smooth_ramp(1.0, np.nan), "model.proliferation.width"),
], ids=["horizon-nan", "horizon-inf", "steps-fraction", "steps-inf", "lam-nan",
        "p0-nan", "p0-inf", "width-nan"])
def test_library_inputs_must_be_finite(make, field):
    # the config parser refuses a non-finite number first; a library caller
    # gets the error naming the field rather than a NaN time step or rate
    with pytest.raises(ConfigError, match=f"^{field}: "):
        make()


def _linear_trajectory(g, tg, field):
    data = np.zeros((tg.steps + 1, 3) + g.shape)
    for k, t in enumerate(tg.times):
        data[k, 1] = t * field
    return ch.Trajectory(g, tg, data, ("mu", "phi", "sigma"))


def test_interpolation_exact_at_nodes():
    g = ch.Grid.line(16)
    tg = ch.TimeGrid(1.0, 10)
    rng = np.random.default_rng(7)
    data = rng.standard_normal((11, 3) + g.shape)
    traj = ch.Trajectory(g, tg, data, ("mu", "phi", "sigma"))
    for k in (0, 3, 10):
        out = interpolate_in_time(traj, "phi", tg.times[k])
        assert np.array_equal(out, data[k, 1])


def test_interpolation_linear_in_time():
    g = ch.Grid.line(16)
    tg = ch.TimeGrid(1.0, 10)
    rng = np.random.default_rng(8)
    field = rng.standard_normal(g.shape)
    traj = _linear_trajectory(g, tg, field)
    out = interpolate_in_time(traj, "phi", 0.3)
    assert np.abs(out - 0.3 * field).max() <= 1e-14


def test_interpolation_convexity_and_domain():
    g = ch.Grid.line(8)
    tg = ch.TimeGrid(1.0, 5)
    rng = np.random.default_rng(9)
    data = rng.standard_normal((6, 3) + g.shape)
    traj = ch.Trajectory(g, tg, data, ("mu", "phi", "sigma"))
    for tau in rng.uniform(0, 1, 20):
        out = interpolate_in_time(traj, "phi", tau)
        k = min(int(tau / tg.dt), 4)
        lo = np.minimum(data[k, 1], data[k + 1, 1])
        hi = np.maximum(data[k, 1], data[k + 1, 1])
        assert np.all(out >= lo - 1e-14) and np.all(out <= hi + 1e-14)
    with pytest.raises(TimeDomainError):
        interpolate_in_time(traj, "phi", 1.5)


def test_snapshot_roundtrip(tmp_path):
    for g in (ch.Grid.line(16), ch.Grid.rectangle(5, 7)):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(g.shape)
        path = tmp_path / f"f{g.dim}.fld"
        ch.write_snapshot(path, g, f)
        back = ch.read_snapshot(path, g)
        assert np.array_equal(back, f)
        raw = path.read_bytes()
        assert raw[:6] == b"CHFLD1"
        assert len(raw) == 32 + 8 * g.cell_count


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fld"
    path.write_bytes(b"NOTFLD" + b"\0" * 100)
    with pytest.raises(ShapeMismatchError):
        ch.read_snapshot(path)


def test_snapshot_rejects_bad_length(tmp_path):
    g = ch.Grid.rectangle(5, 7)
    path = tmp_path / "f.fld"
    ch.write_snapshot(path, g, g.full(1.0))
    raw = path.read_bytes()
    for name, blob in (("short.fld", raw[:20]), ("cut.fld", raw[:-8]),
                       ("long.fld", raw + b"\0" * 8)):
        bad = tmp_path / name
        bad.write_bytes(blob)
        with pytest.raises(ShapeMismatchError, match=name):
            ch.read_snapshot(bad)


def test_trajectory_direction_axis():
    g = ch.Grid.rectangle(4, 3)
    tg = ch.TimeGrid(0.5, 4)
    data = np.zeros((3, 3, 2) + g.shape)
    traj = ch.Trajectory(g, tg, data, ("a", "b", "c"))
    assert traj.nframes == 3
    assert traj.b.shape == (3, 2) + g.shape
    for shape in ((3, 3, 4), (3, 3, 2, 2) + g.shape, (3, 2) + g.shape):
        with pytest.raises(ShapeMismatchError):
            ch.Trajectory(g, tg, np.zeros(shape), ("a", "b", "c"))
    # the component axis holds one entry per name, at least one
    assert ch.Trajectory(g, tg, np.zeros((3, 1) + g.shape), ("u",)).u.shape == (
        (3,) + g.shape)
    for names in ((), ("a", "b")):
        with pytest.raises(ShapeMismatchError):
            ch.Trajectory(g, tg, np.zeros((3, 3) + g.shape), names)


def test_trajectory_manifest_roundtrip(tmp_path):
    g = ch.Grid.line(12)
    tg = ch.TimeGrid(0.5, 4)
    rng = np.random.default_rng(4)
    data = rng.standard_normal((5, 3) + g.shape)
    traj = ch.Trajectory(g, tg, data, ("mu", "phi", "sigma"))
    manifest = ch.write_trajectory(tmp_path / "traj", traj)
    back = ch.read_trajectory(manifest)
    assert back.names == traj.names
    assert back.grid == traj.grid
    assert np.array_equal(back.data, traj.data)


_G, _TG = ch.Grid.line(4), ch.TimeGrid(1.0, 2)


def _header_of_dimension(path, dim):
    path.write_bytes(struct.pack(_HEADER_FMT, b"CHFLD1", dim, 4, 4) + bytes(128))
    return path


def _ragged_manifest(directory):
    traj = ch.Trajectory(_G, _TG, np.zeros((3, 1) + _G.shape), ("u",))
    manifest = ch.write_trajectory(directory, traj)
    index = json.loads(manifest.read_text())
    index["components"]["u"].pop()
    manifest.write_text(json.dumps(index))
    return manifest


@pytest.mark.parametrize("call, error, match", [
    (lambda tmp: ch.Grid((4,), (0.0,)), ConfigError, "^grid.extents: "),
    (lambda tmp: ch.Grid.rectangle(4, 4, 1.0, -1.0), ConfigError, "^grid.extents: "),
    (lambda tmp: ch.integrate(_G, np.zeros(5)), GridMismatchError,
     "does not match grid"),
    (lambda tmp: ch.Trajectory(_G, _TG, np.zeros((4, 1) + _G.shape), ("u",)),
     ShapeMismatchError, "4 frames incompatible with 2 steps"),
    (lambda tmp: ch.Trajectory(_G, _TG, np.zeros((3, 1) + _G.shape), ("u",)).v,
     AttributeError, "v"),
    (lambda tmp: ch.write_snapshot(tmp / "f.fld", _G, np.zeros(5)), GridMismatchError,
     "snapshot values do not match"),
    (lambda tmp: ch.read_snapshot(_header_of_dimension(tmp / "f.fld", 0)),
     ShapeMismatchError, "snapshot dimension 0"),
    (lambda tmp: ch.read_snapshot(_header_of_dimension(tmp / "f.fld", 3)),
     ShapeMismatchError, "snapshot dimension 3"),
    (lambda tmp: ch.read_trajectory(_ragged_manifest(tmp / "traj")),
     ShapeMismatchError, "ragged component u"),
    (lambda tmp: ch.space_time_inner(_G, 0.5, np.zeros((3, 4)), np.zeros((2, 4))),
     GridMismatchError, "space-time shapes differ"),
    (lambda tmp: ch.InitialData(np.zeros(5), _G.zeros(), _G.zeros()).validate(
        _G, ch.Potential.quartic()), ShapeMismatchError, "initial.mu0: shape"),
    (lambda tmp: ch.CostSpec(b1=np.inf).validate(_G, _TG), ConfigError, "^cost.b1: "),
    (lambda tmp: ch.CostSpec(b0=np.inf).validate(_G, _TG), ConfigError, "^cost.b0: "),
    (lambda tmp: ch.Relaxation(np.inf, 0.1, _G.zeros()), ConfigError,
     "^cost.relaxation.gamma: "),
    (lambda tmp: ch.Relaxation(0.5, np.inf, _G.zeros()), ConfigError,
     "^cost.relaxation.eps: "),
    # counts beyond the float range
    (lambda tmp: ch.Grid.line(10**400), ConfigError, "^grid.n: "),
    (lambda tmp: ch.TimeGrid(1.0, 10**400), ConfigError, "^time.steps: "),
], ids=["grid-zero-extent", "grid-negative-extent", "integrate-shape",
        "trajectory-frames", "trajectory-attribute", "write-snapshot-shape",
        "snapshot-dim-0", "snapshot-dim-3", "manifest-ragged", "space-time-shape",
        "initial-shape", "cost-weight-inf", "cost-b0-inf", "relaxation-gamma-inf",
        "relaxation-eps-inf", "grid-count-beyond-float", "time-steps-beyond-float"])
def test_library_guards_raise_their_errors(call, error, match, tmp_path):
    # the guards of library calls that no pipeline reaches with bad input
    with pytest.raises(error, match=match):
        call(tmp_path)


def _params(**numbers):
    """ModelParams on _G and _TG with ``numbers`` in place of valid ones."""
    given = {"alpha": 0.1, "beta": 0.1, "newton_tol": 1e-11, "newton_max_iter": 5,
             **numbers}
    return ch.ModelParams(given.pop("alpha"), given.pop("beta"), ch.Potential.quartic(),
                          ch.Proliferation.constant(1.0), _G, _TG, **given)


def _parse(tmp, section, key, value):
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg.setdefault(section, {})[key] = value
    path = tmp / "config.json"
    path.write_text(json.dumps(cfg))
    return parse_config(path)


_BELOW_ZERO = np.nextafter(0.0, -1.0)
# field -> (build with the value, a value just outside its range, a count)
_NUMBERS = {
    "grid.n": (lambda tmp, v: ch.Grid((v,), (1.0,)), 2, True),
    "grid.extents": (lambda tmp, v: ch.Grid((4,), (v,)), 0.0, False),
    "time.steps": (lambda tmp, v: ch.TimeGrid(1.0, v), 0, True),
    "time.horizon": (lambda tmp, v: ch.TimeGrid(v, 4), 0.0, False),
    "model.potential.lam": (lambda tmp, v: ch.Potential.logarithmic(v), 0.0, False),
    "model.proliferation.p0": (lambda tmp, v: ch.Proliferation.constant(v),
                               _BELOW_ZERO, False),
    "model.proliferation.width": (lambda tmp, v: ch.Proliferation.smooth_ramp(1.0, v),
                                  0.0, False),
    "model.alpha": (lambda tmp, v: _params(alpha=v), 0.0, False),
    "model.beta": (lambda tmp, v: _params(beta=v), 0.0, False),
    "solver.newton_tol": (lambda tmp, v: _params(newton_tol=v), 0.0, False),
    "solver.newton_max_iter": (lambda tmp, v: _params(newton_max_iter=v), -1, True),
    "optimizer.max_outer_iters": (lambda tmp, v: check_settings(v, 1e-5), -1, True),
    "optimizer.grad_tol": (lambda tmp, v: check_settings(5, v), 0.0, False),
    "cost.relaxation.gamma": (lambda tmp, v: ch.Relaxation(v, 0.1, _G.zeros()),
                              _BELOW_ZERO, False),
    "cost.relaxation.eps": (lambda tmp, v: ch.Relaxation(0.5, v, _G.zeros()), 0.0,
                            False),
    **{f"cost.b{i}": (lambda tmp, v, i=i: ch.CostSpec(**{f"b{i}": v}).validate(_G, _TG),
                      _BELOW_ZERO, False) for i in range(7)},
    "cost.tau_star": (lambda tmp, v: ch.CostSpec(b1=1.0, tau_star=v).validate(_G, _TG),
                      np.nextafter(_TG.horizon, np.inf), False),
    "control.tau0": (lambda tmp, v: _parse(tmp, "control", "tau0", v),
                     np.nextafter(TINY_CONFIG["time"]["horizon"], np.inf), False),
    "verification.tau": (lambda tmp, v: _parse(tmp, "verification", "tau", v),
                         np.nextafter(TINY_CONFIG["time"]["horizon"], np.inf), False),
}
_BAD = {"bool": True, "beyond-float": 10**400, "string": "1", "nan": np.nan,
        "inf": np.inf}


@pytest.mark.parametrize("field, value", [
    pytest.param(field, value, id=f"{field}-{name}")
    for field, (_, outside, count) in _NUMBERS.items()
    for name, value in {**_BAD, "outside": outside,
                        **({"fraction": 2.5} if count else {})}.items()])
def test_every_config_number_passes_one_rule(field, value, tmp_path):
    # a library caller meets the rule the config table applies: no bool,
    # no overflow, no string, nothing non-finite or out of range, and no
    # fraction for a count, each a ConfigError headed by its field
    with pytest.raises(ConfigError, match=f"^{field}: "):
        _NUMBERS[field][0](tmp_path, value)

"""Grids, time grids, trajectories and the discrete calculus they share.

Space is a cell-centered tensor grid on an interval (1D) or rectangle (2D)
with homogeneous Neumann faces realised by reflecting ghost cells: the
ghost value equals the adjacent interior value, which makes the discrete
Laplacian symmetric and exactly conservative (its integral vanishes to
roundoff). One stencil, :func:`chcontrol.kernels.lap`, serves every
dimension. Fields are plain float64 numpy arrays of shape ``grid.shape``.
Integrals over the grid have one rule, the midpoint rule
:func:`integrate`, the only reader of ``Grid.cell_volume``: it takes one
field or a stack of them, and keeps each field's bits in a stack, so the
costs, pairings, norms and masses built on it agree to the bit whichever
form they take.

Time is a uniform grid on [0, T]. A :class:`Trajectory` stores the same
named components, one field each, per node; the same container is used
for the state (mu, phi, sigma), for sensitivities (d_mu, d_phi, d_sigma),
for adjoint multipliers (adj_mu, adj_phi, adj_sigma) and for the control
(u), with component names bound at construction.

A snapshot holds one field or a stack of frames: a fixed 32-byte header
(magic ``CHFLD1``, dimension, cells per axis, frame count, 0 for one
field) followed by little-endian float64 values in row-major order. A
trajectory is written as one stacked snapshot per component, all its
frames, beside a JSON manifest of the grids, the node times and each
component's file; the state and the optimal control are both written in
this one format.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .errors import (
    ConfigError,
    ShapeMismatchError,
    TimeDomainError,
    check_number,
    check_shape,
)

_SNAPSHOT_MAGIC = b"CHFLD1"
# magic, dim, n per axis (second 0 in 1D), frames (0: one field), zero
# padding; 32 bytes
_HEADER_FMT = "<6sHIII12s"
MANIFEST_FORMAT = "chcontrol-trajectory-2"


@dataclass(frozen=True)
class Grid:
    """Cell-centered tensor grid on (0, L1) or (0, L1) x (0, L2).

    A bad grid raises :class:`ConfigError` headed by the config field it
    breaks: ``grid.n`` unless it holds 1 or 2 counts, each an integer >= 3
    (a whole float counts), ``grid.extents`` unless it holds one length
    per axis, each a finite positive number, whose stencil weight 1/h^2 is
    a finite positive number. :func:`~chcontrol.errors.check_number` ranges
    each count and length, and the grid stores what it returns: ints and
    floats."""

    n: tuple
    extents: tuple
    # 1 / h^2 per axis, the Laplacian stencil weight
    inv_h2: tuple = field(init=False, repr=False, compare=False)
    # product of the cell widths, the midpoint-rule weight
    cell_volume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.n) not in (1, 2):
            raise ConfigError(f"grid.n: {list(self.n)} must hold 1 or 2 cell counts")
        n = tuple(check_number("grid.n", v, 3, whole=True) for v in self.n)
        if len(self.extents) != len(n):
            raise ConfigError(f"grid.extents: {list(self.extents)} must hold one length "
                              f"per axis of grid.n")
        extents = tuple(check_number("grid.extents", v, 0, above=True)
                        for v in self.extents)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "extents", extents)
        try:
            inv_h2 = tuple(1.0 / h**2 for h in self.h)
        except (OverflowError, ZeroDivisionError):  # h**2 overflows or underflows to 0
            inv_h2 = (math.nan,)
        if not all(math.isfinite(w) and w > 0 for w in inv_h2):
            raise ConfigError(f"grid.extents: cell widths {self.h} give a stencil weight "
                              f"1/h^2 that is not a finite positive number")
        object.__setattr__(self, "inv_h2", inv_h2)
        object.__setattr__(self, "cell_volume", float(np.prod(self.h)))

    @classmethod
    def line(cls, n: int, length: float = 1.0) -> "Grid":
        return cls((n,), (length,))

    @classmethod
    def rectangle(cls, nx: int, ny: int, lx: float = 1.0, ly: float = 1.0) -> "Grid":
        return cls((nx, ny), (lx, ly))

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple:
        return self.n

    @property
    def h(self) -> tuple:
        return tuple(l / m for l, m in zip(self.extents, self.n))

    @property
    def cell_count(self) -> int:
        return math.prod(self.n)

    def axis_centers(self, axis: int = 0) -> np.ndarray:
        h = self.h[axis]
        return (np.arange(self.n[axis]) + 0.5) * h

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    def full(self, value: float) -> np.ndarray:
        return np.full(self.shape, float(value))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = k dt on [0, T] with dt = T / nt.

    :func:`~chcontrol.errors.check_number` ranges both fields, and the
    grid stores what it returns: ``steps`` must be an integer >= 1 (a whole
    float counts), else :class:`ConfigError` headed ``time.steps``, and
    ``horizon`` a finite positive number, else one headed
    ``time.horizon``."""

    horizon: float
    steps: int
    dt: float = field(init=False, repr=False, compare=False)
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        steps = check_number("time.steps", self.steps, 1, whole=True)
        horizon = check_number("time.horizon", self.horizon, 0, above=True)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "dt", horizon / steps)
        object.__setattr__(self, "times", np.linspace(0.0, horizon, steps + 1))

    def clamp(self, tau: float) -> float:
        """``tau`` moved onto [0, T] from roundoff past either end; a time
        further out, or not finite, raises :class:`TimeDomainError`."""
        if not -1e-12 <= tau <= self.horizon * (1 + 1e-12):
            raise TimeDomainError(f"time {tau} outside [0, {self.horizon}]")
        return min(max(tau, 0.0), self.horizon)

    def nearest_node(self, tau: float):
        """Snap tau to the nearest node; returns (index, snap_error)."""
        tau = self.clamp(tau)
        k = int(round(tau / self.dt))
        k = min(max(k, 0), self.steps)
        return k, abs(tau - self.times[k])


def laplacian_neumann(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Second-order Laplacian with reflecting ghost cells (zero normal
    derivative on every face).

    ``f`` is one field or a stack of fields along leading axes, e.g. the
    (3, *grid.shape) frame of a trajectory; each is treated alike. Each
    grid axis contributes (f[i-1] - 2 f[i] + f[i+1]) / h^2 along it, and
    (f[1] - f[0]) / h^2 and (f[n-2] - f[n-1]) / h^2 at its two walls."""
    check_shape("field", f.shape[-grid.dim:], grid.shape)
    return kernels.lap(f, grid.inv_h2)


def integrate(grid: Grid, f: np.ndarray) -> float | np.ndarray:
    """The midpoint rule: the cell volume times the sum of ``f`` over the
    grid axes, in numpy's reduction order.

    ``f`` is one field, whose integral is returned as a float, or a stack
    of fields along leading axes, e.g. the (frames, *grid.shape) series of
    a state component, whose integrals are returned as an array of the
    leading shape. numpy sums each field of a stack exactly as it sums
    that field alone, so each entry is bitwise the integral of its field.
    A trailing shape other than the grid's raises :class:`GridMismatchError`
    through :func:`~chcontrol.errors.check_shape`, headed ``field``."""
    check_shape("field", f.shape[-grid.dim:], grid.shape)
    total = np.sum(f, axis=tuple(range(f.ndim - grid.dim, f.ndim)))
    return grid.cell_volume * (float(total) if f.ndim == grid.dim else total)


class Trajectory:
    """Time-indexed fields with per-kind component names.

    ``data`` has shape (nframes, ncomp, *grid.shape), or (nframes, ncomp,
    ndir, *grid.shape) for a stack of ndir trajectories marched together
    (the linearized solutions along several directions, or the states of
    an ensemble of controls), with one
    component name per entry of the second axis, at least one. Component
    arrays are exposed as attributes named at construction, e.g.
    ``traj.phi[k]``, with the direction axis, if any, after the frame axis.
    """

    def __init__(self, grid: Grid, time_grid: TimeGrid, data: np.ndarray, names,
                 diagnostics=None):
        names = tuple(names)
        if not names:
            raise ShapeMismatchError("a trajectory has at least one component")
        if data.ndim < 2 or data.shape[1] != len(names) or grid.shape not in (
                data.shape[2:], data.shape[3:]):
            raise ShapeMismatchError(
                f"trajectory data shape {data.shape} does not match (frames, "
                f"{len(names)}, [ndir,] {grid.shape})"
            )
        if data.shape[0] > time_grid.steps + 1 or data.shape[0] < 1:
            raise ShapeMismatchError(
                f"{data.shape[0]} frames incompatible with {time_grid.steps} steps"
            )
        self.grid = grid
        self.time_grid = time_grid
        self.data = data
        self.names = names
        self.diagnostics = diagnostics

    @property
    def nframes(self) -> int:
        return self.data.shape[0]

    @property
    def times(self) -> np.ndarray:
        return self.time_grid.times[: self.nframes]

    def component(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise ShapeMismatchError(f"no component {name!r} among {list(self.names)}")
        return self.data[:, self.names.index(name)]

    def __getattr__(self, name):
        names = self.__dict__.get("names", ())
        if name in names:
            return self.__dict__["data"][:, names.index(name)]
        raise AttributeError(name)


# ---------------------------------------------------------------------------
# Snapshot and manifest I/O
# ---------------------------------------------------------------------------


def write_snapshot(path, grid: Grid, values: np.ndarray) -> None:
    """Write ``values``, one field of ``grid.shape`` or a stack of frames of
    shape (frames, *grid.shape), frames >= 1, as one snapshot, from one
    contiguous little-endian copy at most."""
    frames = values.shape[0] if values.ndim == grid.dim + 1 else 0
    check_shape("snapshot values", values.shape[1:] if frames else values.shape,
                grid.shape)
    n = grid.n + (0,) * (2 - grid.dim)
    header = struct.pack(_HEADER_FMT, _SNAPSHOT_MAGIC, grid.dim, *n, frames, b"")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f8"))


def read_snapshot(path, grid: Grid | None = None) -> np.ndarray:
    """Read one snapshot: the field, or the (frames, *shape) stack, that its
    header declares. Raises ``OSError`` if the file cannot be read,
    :class:`ShapeMismatchError` on a header that :func:`write_snapshot`
    cannot have written (bad magic, a dimension other than 1 or 2, a second
    cell count in 1D, nonzero padding) or a payload that does not hold
    exactly the header's number of values, and :class:`GridMismatchError`
    (a ShapeMismatchError, from :func:`~chcontrol.errors.check_shape`) if
    ``grid`` is given and the snapshot is not one field of its shape, a
    stack included."""
    with open(path, "rb") as fh:
        raw = fh.read()
    header_size = struct.calcsize(_HEADER_FMT)
    if len(raw) < header_size:
        raise ShapeMismatchError(f"{path}: {len(raw)} bytes, shorter than the "
                                 f"{header_size}-byte snapshot header")
    magic, dim, n0, n1, frames, pad = struct.unpack(_HEADER_FMT, raw[:header_size])
    if magic != _SNAPSHOT_MAGIC:
        raise ShapeMismatchError(f"{path}: not a field snapshot (bad magic)")
    if dim not in (1, 2):
        raise ShapeMismatchError(f"{path}: snapshot dimension {dim}, expected 1 or 2")
    if any(pad) or (dim == 1 and n1):
        raise ShapeMismatchError(f"{path}: snapshot header with nonzero bytes where "
                                 f"the writer leaves 0")
    shape = ((frames,) if frames else ()) + (n0, n1)[:dim]
    payload, count = len(raw) - header_size, math.prod(shape)
    if payload != 8 * count:
        raise ShapeMismatchError(
            f"{path}: payload of {payload} bytes, expected {count} float64 values "
            f"for shape {shape}")
    if grid is not None:
        check_shape(path, shape, grid.shape)
    return np.frombuffer(raw, dtype="<f8", offset=header_size).reshape(shape).copy()


def write_json(path, obj) -> Path:
    """Write ``obj`` to ``path`` as JSON: sorted keys, indent 1, final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def write_trajectory(directory, traj: Trajectory) -> Path:
    """Write each component as one stacked snapshot, ``<name>.fld``, plus a
    JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for j, name in enumerate(traj.names):
        write_snapshot(directory / f"{name}.fld", traj.grid, traj.data[:, j])
    manifest = {
        "format": MANIFEST_FORMAT,
        "grid": {"n": list(traj.grid.n), "extents": list(traj.grid.extents)},
        "time": {"horizon": traj.time_grid.horizon, "steps": traj.time_grid.steps},
        "times": [float(t) for t in traj.times],
        "components": {name: f"{name}.fld" for name in traj.names},
    }
    return write_json(directory / "manifest.json", manifest)


def read_trajectory(manifest_path) -> Trajectory:
    """Read the trajectory that :func:`write_trajectory` wrote. Raises
    ``OSError`` if a file cannot be read, :class:`ShapeMismatchError`
    "<manifest>: not a chcontrol-trajectory-2 manifest (...)" for a
    manifest that is not JSON, lacks a key, holds a value of the wrong type
    or holds bad grids, the errors of :func:`read_snapshot` for a component
    file, a :class:`GridMismatchError` naming the file for one that does
    not hold a stack of one frame per manifest time on the manifest's grid,
    and the errors of :class:`Trajectory`."""
    manifest_path = Path(manifest_path)
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        if manifest["format"] != MANIFEST_FORMAT:
            raise ValueError(f"format {manifest['format']!r}")
        grid = Grid(tuple(manifest["grid"]["n"]), tuple(manifest["grid"]["extents"]))
        time_grid = TimeGrid(manifest["time"]["horizon"], manifest["time"]["steps"])
        nframes = len(manifest["times"])
        files = {name: manifest_path.parent / rel
                 for name, rel in dict(manifest["components"]).items()}
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        detail = f"no key {exc}" if isinstance(exc, KeyError) else exc
        raise ShapeMismatchError(f"{manifest_path}: not a {MANIFEST_FORMAT} manifest "
                                 f"({detail})")
    data = np.empty((nframes, len(files)) + grid.shape)
    for j, path in enumerate(files.values()):
        values = read_snapshot(path)
        check_shape(path, values.shape, data[:, j].shape)
        data[:, j] = values
    return Trajectory(grid, time_grid, data, tuple(files))

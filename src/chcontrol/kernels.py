"""Hot numeric kernels: the Neumann Laplacian stencil and the 1D band solve.

The solvers spend essentially all their time in two places: applying the
reflecting-ghost Neumann Laplacian stencil and solving the coupled
three-field linear system of each implicit time step. The stencil,
:func:`lap`, works on stacks of fields on a grid of any dimension: one
in-place pass along the last axis, then one added term per leading grid
axis. :mod:`chcontrol.system` assembles the 1D step matrix cell by
cell (the three unknowns of a cell adjacent), a band with three sub- and
three superdiagonals, directly in ``gbsv`` storage:
:func:`solve_block_tridiag` solves it by one direct call to LAPACK
``dgbsv``, that of the OpenBLAS numpy already has loaded
(:func:`numpy_dgbsv`), with its arguments bound by :func:`bind` once per
band workspace and right-hand-side array of a step solver, which keeps
the binding. A 1D run thus loads no second BLAS library (about
3.6 MB of peak memory, and a worker thread that spun for about 0.13 s of
CPU after loading) and imports no SciPy module. Where numpy's library
does not export the routine (numpy 1.x, a system or MKL BLAS, Windows),
the one fallback, :func:`load_dgbsv`, imports SciPy's public ``dgbsv``
at the first 1D solve; the ``scipy.linalg`` import loads every lazy
numpy submodule and adds about 0.3 s and 18 MB to such a run. The 2D
step solve needs no matrix: it works in the DCT basis of the grid and
applies the step matrix by :func:`lap` (see :mod:`chcontrol.system`), so
a 2D run imports no SciPy module at all.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np
from numpy.linalg import LinAlgError

# sub- and superdiagonals of the interleaved 1D step matrix
KL = KU = 3
# gbsv storage row of the main diagonal: A[i, j] sits at ab[MAIN + i - j, j];
# rows 0..KL-1 are the fill rows LAPACK needs for the pivoted LU
MAIN = KL + KU


# ---------------------------------------------------------------------------
# Neumann Laplacian stencil (ghost value = adjacent interior value)
# ---------------------------------------------------------------------------


def lap(f, inv_h2):
    """Stencil over the last ``len(inv_h2)`` axes, ``inv_h2`` holding 1/h^2
    per grid axis; leading axes are a stack of fields."""
    n, w = f.shape[-1], inv_h2[-1]
    flat = f.reshape(-1)
    out = np.empty(flat.shape)
    # (f[i-1] - 2 f[i] + f[i+1]) / h^2 along the last axis over the whole
    # stack at once, each operation in place in the output; where a row
    # ends it mixes two rows, and the boundary entries below, every n-th
    # entry of the flat stack and the one before it, overwrite it
    mid = out[1:-1]
    np.multiply(flat[1:-1], 2.0, out=mid)
    np.subtract(flat[:-2], mid, out=mid)
    mid += flat[2:]
    mid *= w
    for ends, inner, edge in ((out[::n], flat[1::n], flat[::n]),
                              (out[n - 1::n], flat[n - 2::n], flat[n - 1::n])):
        np.subtract(inner, edge, out=ends)
        ends *= w
    out = out.reshape(f.shape)
    # each leading grid axis adds its term, formed as along the last axis
    for axis, w in enumerate(inv_h2[:-1], start=-len(inv_h2)):
        g, acc = f.swapaxes(axis, 0), out.swapaxes(axis, 0)
        acc[0] += (g[1] - g[0]) * w
        acc[1:-1] += (g[:-2] - 2.0 * g[1:-1] + g[2:]) * w
        acc[-1] += (g[-2] - g[-1]) * w
    return out


# ---------------------------------------------------------------------------
# Coupled per-step linear system, 1D: the LAPACK band solve.
# ---------------------------------------------------------------------------


@functools.cache
def load_dgbsv():
    """SciPy's LAPACK ``dgbsv``, imported on the first call: the routine
    where numpy's library lacks its own."""
    from scipy.linalg.lapack import dgbsv
    return dgbsv


@functools.cache
def numpy_dgbsv():
    """LAPACK ``dgbsv`` of the OpenBLAS numpy is linked with, or None.

    numpy's OpenBLAS wheels (numpy >= 2) export it as the ILP64 routine
    ``scipy_dgbsv_64_``: every integer argument an int64, all passed by
    reference. ``dlsym`` on the handle of numpy's core extension also
    searches the libraries that extension links, so the lookup loads
    nothing new. None where the symbol is missing.
    """
    try:
        from numpy._core import _multiarray_umath
        routine = ctypes.CDLL(_multiarray_umath.__file__).scipy_dgbsv_64_
    except (ImportError, OSError, AttributeError):
        return None
    # no argtypes: every argument is a ready pointer (see bind), which
    # ctypes passes as it is, where a converter per argument would add
    # about 1 us to each call
    routine.restype = None
    return routine


def _pointer(arr):
    """A ready ctypes pointer argument to the data of ``arr``; it does not
    keep ``arr`` alive."""
    return ctypes.byref(ctypes.c_char.from_address(arr.ctypes.data))


def bind(ab, b):
    """Check and bind the arguments of a ``dgbsv`` solve of ``ab`` against
    ``b``, for :func:`solve_block_tridiag` to call on them again and again.

    Raises ``ValueError`` unless ``dgbsv`` can work on both in place, which
    ctypes does not check: writeable Fortran-ordered float64 arrays whose
    rows fit. Returns (ipiv, info, args): the pivots, the ``c_int64`` LAPACK
    sets to its status, and N, KL, KU, NRHS, AB, LDAB, IPIV, B, LDB, INFO as
    ready pointers. The binding keeps ``ipiv`` and ``info`` alive but not
    ``ab`` or ``b``, which the caller keeps while it solves with it.
    """
    for name, arr, dims in (("ab", ab, (2,)), ("b", b, (1, 2))):
        flags = arr.flags
        if (arr.dtype != np.float64 or arr.ndim not in dims
                or not (flags.f_contiguous and flags.writeable)):
            raise ValueError(f"{name} must be a writeable Fortran-ordered "
                             f"float64 array of {' or '.join(map(str, dims))} "
                             f"dimensions")
    rows, size = ab.shape
    if rows < KL + MAIN + 1:
        raise ValueError(f"ab has {rows} rows; gbsv storage needs {KL + MAIN + 1}")
    if b.shape[0] != size:
        raise ValueError(f"b has {b.shape[0]} rows for {size} unknowns")
    ipiv, info = np.empty(size, np.int64), ctypes.c_int64()
    n, kl, ku, nrhs, ldab = (ctypes.byref(ctypes.c_int64(v)) for v in (
        size, KL, KU, b.shape[1] if b.ndim == 2 else 1, rows))
    # LDB is N: b is Fortran-ordered with N rows
    return ipiv, info, (n, kl, ku, nrhs, _pointer(ab), ldab, _pointer(ipiv),
                        _pointer(b), n, ctypes.byref(info))


def solve_block_tridiag(ab, b, bound=None):
    """Solve the interleaved block-tridiagonal system in place.

    Parameters
    ----------
    ab : (KL + MAIN + 1, 3n) Fortran-ordered float64 array
        The matrix in ``gbsv`` storage: A[i, j] at ``ab[MAIN + i - j, j]``,
        zero elsewhere. Overwritten by its LU factors. The n cells may be
        those of K uncoupled blocks side by side (K members of n / K cells
        each): the zero couplings between them keep the band at kl = ku =
        3, and the pivot search never leaves a block.
    b : (3n,) or (3n, nrhs) Fortran-ordered float64 array
        Interleaved right-hand sides (m_0, f_0, s_0, m_1, ...), one per
        column, all solved against one factorization. Overwritten by the
        solution, which is returned.
    bound : the result of ``bind(ab, b)``, or None
        The checked arguments of a solve of these two arrays, which a
        caller solving them again and again keeps: binding adds 10-15 us
        to a solve, about a quarter of a 128-cell step solve. None binds
        them for this call.

    The routine is numpy's (:func:`numpy_dgbsv`), and where numpy's
    library lacks it SciPy's public ``scipy.linalg.lapack.dgbsv``
    (:func:`load_dgbsv`), whose import at the first call costs about 0.3 s
    and 18 MB; the two give the same bits. Raises ``ValueError``
    where either array is not writeable, Fortran-ordered float64, or its
    rows do not fit (checked by :func:`bind`), and ``LinAlgError`` on a singular matrix, as
    :func:`scipy.linalg.solve_banded` does. As in the 2D solve, the input
    is not scanned for non-finite values: they give non-finite entries in
    the solution, which the callers check.
    """
    if bound is None:
        bound = bind(ab, b)
    dgbsv = numpy_dgbsv()
    if dgbsv is None:
        # overwrite_ab and overwrite_b passed by position, which the f2py
        # wrapper parses faster than keywords
        _, _, x, info = load_dgbsv()(KL, KU, ab, b, 1, 1)
    else:
        dgbsv(*bound[2])
        x, info = b, bound[1].value
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
    return x

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
``dgbsv``. :func:`load_dgbsv` loads that routine at the first 1D solve,
as a file from SciPy's ``scipy/linalg/_flapack`` (in every SciPy >= 1.10;
the public import where it is not found, as in an editable install):
importing ``scipy.linalg`` would load every lazy numpy submodule and add
about 0.3 s and 18 MB to each start-up. The 2D step solve needs no
matrix: it works in the DCT basis of the grid and applies the step matrix
by :func:`lap` (see :mod:`chcontrol.system`), so a 2D run imports no SciPy
module at all.
"""

from __future__ import annotations

import functools
import os
import sys
from importlib import machinery, util

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
    """LAPACK ``dgbsv`` from SciPy's compiled module, loaded on the first call.

    ``import scipy`` is light and on Windows sets up the DLL paths; the
    module file is then run without the ``scipy.linalg`` package.
    """
    import scipy

    name = "scipy.linalg._flapack"
    spec = machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.__path__[0], "linalg")])
    if spec is None:  # no such file, as in an editable SciPy install
        from scipy.linalg.lapack import dgbsv
        return dgbsv
    registered = name in sys.modules
    flapack = util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    if not registered:
        # the extension loader registered the module without binding it
        # on scipy.linalg; without the entry, a later import of
        # scipy.linalg loads and binds it, with the same routines
        sys.modules.pop(name, None)
    return flapack.dgbsv


def solve_block_tridiag(ab, b):
    """Solve the interleaved block-tridiagonal system in place.

    Parameters
    ----------
    ab : (KL + MAIN + 1, 3n) Fortran-ordered array
        The matrix in ``gbsv`` storage: A[i, j] at ``ab[MAIN + i - j, j]``,
        zero elsewhere. Overwritten by its LU factors. The n cells may be
        those of K uncoupled blocks side by side (K members of n / K cells
        each): the zero couplings between them keep the band at kl = ku =
        3, and the pivot search never leaves a block.
    b : (3n,) or (3n, nrhs) Fortran-ordered array
        Interleaved right-hand sides (m_0, f_0, s_0, m_1, ...), one per
        column, all solved against one factorization. Overwritten by the
        solution, which is returned.

    Raises ``LinAlgError`` on a singular matrix, as
    :func:`scipy.linalg.solve_banded` does. As in the 2D solve, the input
    is not scanned for non-finite values: they give non-finite entries in
    the solution, which the callers check.
    """
    # overwrite_ab and overwrite_b passed by position, which the f2py
    # wrapper parses faster than keywords
    _, _, x, info = load_dgbsv()(KL, KU, ab, b, 1, 1)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
    return x

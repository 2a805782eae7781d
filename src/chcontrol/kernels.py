"""Hot numeric kernels: Neumann Laplacian stencils, the 1D step solve and
the 2D cell ordering.

The solvers spend essentially all their time in two places: applying the
reflecting-ghost Neumann Laplacian stencil and solving the coupled
three-field linear system of each implicit time step. Both dimensions
hold that system cell-major, the three unknowns of a cell adjacent. In
1D the cells stay in their natural order, and the system is block
tridiagonal with 3x3 blocks: a band matrix with three sub- and three
superdiagonals, solved by one direct call to LAPACK ``dgbsv`` on a band
already in ``gbsv`` storage (see :func:`assemble_band`). The caller
builds the constant part of the band once and patches only the
state-dependent entries per solve. In 2D the cells follow the
fill-reducing ordering of :func:`cell_order`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sps
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv
from scipy.sparse.linalg import splu

# sub- and superdiagonals of the interleaved 1D step matrix
KL = KU = 3
# gbsv storage row of the main diagonal: A[i, j] sits at ab[MAIN + i - j, j];
# rows 0..KL-1 are the fill rows LAPACK needs for the pivoted LU
MAIN = KL + KU


# ---------------------------------------------------------------------------
# Neumann Laplacian stencils (ghost value = adjacent interior value)
# ---------------------------------------------------------------------------


def lap1d(f, inv_h2):
    """Stencil along the last axis; leading axes are a stack of fields."""
    out = np.empty(f.shape)
    flat, out_flat = f.reshape(-1), out.reshape(-1)
    # the interior formula over the whole stack at once; where a field
    # ends it mixes two fields, and the boundary entries below overwrite it
    out_flat[1:-1] = (flat[:-2] - 2.0 * flat[1:-1] + flat[2:]) * inv_h2
    out[..., 0] = (f[..., 1] - f[..., 0]) * inv_h2
    out[..., -1] = (f[..., -2] - f[..., -1]) * inv_h2
    return out


def lap2d(f, inv_hx2, inv_hy2):
    """Stencil over the last two axes; leading axes are a stack of fields."""
    out = np.empty(f.shape)
    out[..., 0, :] = (f[..., 1, :] - f[..., 0, :]) * inv_hx2
    out[..., 1:-1, :] = (f[..., :-2, :] - 2.0 * f[..., 1:-1, :]
                         + f[..., 2:, :]) * inv_hx2
    out[..., -1, :] = (f[..., -2, :] - f[..., -1, :]) * inv_hx2
    out[..., 0] += (f[..., 1] - f[..., 0]) * inv_hy2
    out[..., 1:-1] += (f[..., :-2] - 2.0 * f[..., 1:-1] + f[..., 2:]) * inv_hy2
    out[..., -1] += (f[..., -2] - f[..., -1]) * inv_hy2
    return out


# ---------------------------------------------------------------------------
# Coupled per-step linear system, 1D: block tridiagonal with 3x3 blocks.
#
# Cell-major ordering (m_i, f_i, s_i); the off-diagonal coupling between
# neighbouring cells is the same scalar (the -1/h^2 stencil weight) for all
# three fields, so it lands on the third sub- and superdiagonal.
# ---------------------------------------------------------------------------


def assemble_band(diag, off):
    """``gbsv`` storage (kl = ku = 3 plus 3 fill rows) of the interleaved
    block-tridiagonal matrix with (n, 3, 3) diagonal blocks ``diag`` and
    scalar neighbour coupling ``off``. Fortran-ordered, so LAPACK works on
    it without a copy."""
    n = diag.shape[0]
    ab = np.zeros((KL + MAIN + 1, 3 * n), order="F")
    band = ab[KL:]  # the (l = u = 3) storage of scipy.linalg.solve_banded
    band[3, 0::3] = diag[:, 0, 0]
    band[3, 1::3] = diag[:, 1, 1]
    band[3, 2::3] = diag[:, 2, 2]
    # superdiagonal +1: A[j-1, j]
    band[2, 1::3] = diag[:, 0, 1]
    band[2, 2::3] = diag[:, 1, 2]
    # subdiagonal -1: A[j+1, j]
    band[4, 0::3] = diag[:, 1, 0]
    band[4, 1::3] = diag[:, 2, 1]
    # +2 / -2: chemical potential <-> nutrient coupling
    band[1, 2::3] = diag[:, 0, 2]
    band[5, 0::3] = diag[:, 2, 0]
    # +3 / -3: same-field neighbour-cell stencil weight
    band[0, 3:] = off
    band[6, :-3] = off
    return ab


def solve_block_tridiag(ab, b):
    """Solve the interleaved block-tridiagonal system in place.

    Parameters
    ----------
    ab : (10, 3n) Fortran-ordered array
        The matrix in ``gbsv`` storage, as built by :func:`assemble_band`.
        Overwritten by its LU factors.
    b : (3n,) or (3n, nrhs) Fortran-ordered array
        Interleaved right-hand sides (m_0, f_0, s_0, m_1, ...), one per
        column, all solved against one factorization. Overwritten by the
        solution, which is returned.

    Raises ``ValueError`` on non-finite input and ``LinAlgError`` on a
    singular matrix, as :func:`scipy.linalg.solve_banded` does.
    """
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    _, _, x, info = dgbsv(KL, KU, ab, b, overwrite_ab=1, overwrite_b=1)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
    return x


# ---------------------------------------------------------------------------
# Coupled per-step linear system, 2D: the cell ordering of the sparse LU.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def cell_order(shape: tuple) -> np.ndarray:
    """SuperLU's ``MMD_AT_PLUS_A`` ordering of the cells of a 2D grid.

    The multiple minimum degree ordering (Liu, ACM TOMS 11, 1985) of the
    pattern of I - Lap on the row-major flattened cells, with the
    elimination-tree postorder SuperLU composes into it: ``order[k]`` is
    the cell eliminated k-th. Only the pattern matters, so the grid
    spacing does not enter. Computed once per grid shape; the array is
    read-only because it is shared.
    """
    nx, ny = shape

    def path(n):
        return sps.diags([np.ones(n - 1), np.ones(n - 1)], offsets=[-1, 1])

    adj = sps.kron(path(nx), sps.eye(ny)) + sps.kron(sps.eye(nx), path(ny))
    degree = np.asarray(adj.sum(axis=1)).ravel()
    # I - Lap at unit spacing: nonsingular, so SuperLU can factor it
    lu = splu(sps.csc_matrix(sps.diags(1.0 + degree) - adj),
              permc_spec="MMD_AT_PLUS_A")
    # perm_c maps a column to its position, so the order is its inverse
    order = np.argsort(lu.perm_c)
    order.setflags(write=False)
    return order

"""Per-step coupled linear systems shared by the three solvers.

Every implicit step of the state, linearized and adjoint solvers solves a
linear system in the stacked unknown (m, f, s) per cell whose matrix is

    [ a - Lap + P    1/dt        -P        ]
    [ -1             b - Lap + W  0        ]
    [ -P             0            c - Lap + P ]

with a = alpha/dt, b = beta/dt, c = 1/dt, P the frozen exchange rate
(diagonal), W the implicit second derivative of the convex potential part
(diagonal), and Lap the Neumann Laplacian. The adjoint marches with the
transpose of the same matrix, so a single assembly routine serves all
three solvers.

In 1D the system is block tridiagonal with 3x3 blocks and a scalar
neighbour coupling, a band matrix with three sub- and superdiagonals. The
constant part (time terms and stencil) of the matrix and of its transpose
is assembled once per solver in LAPACK ``gbsv`` band storage; each solve
copies one of them, adds P and W in place and calls ``dgbsv`` through
:func:`kernels.solve_block_tridiag`. In 2D the matrix is assembled sparse
and factorized with SuperLU; the transpose solve reuses the same
factorization.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from . import kernels
from .fields import Grid


def _neumann_lap_1d(n: int, inv_h2: float) -> sps.csr_matrix:
    main = np.full(n, -2.0 * inv_h2)
    main[0] = main[-1] = -inv_h2
    off = np.full(n - 1, inv_h2)
    return sps.diags([off, main, off], offsets=[-1, 0, 1], format="csr")


def neumann_laplacian_matrix(grid: Grid) -> sps.csr_matrix:
    """Sparse Neumann Laplacian on the flattened (row-major) grid."""
    h = grid.h
    lx = _neumann_lap_1d(grid.n[0], 1.0 / h[0] ** 2)
    if grid.dim == 1:
        return lx
    ly = _neumann_lap_1d(grid.n[1], 1.0 / h[1] ** 2)
    ix = sps.eye(grid.n[0], format="csr")
    iy = sps.eye(grid.n[1], format="csr")
    return (sps.kron(lx, iy) + sps.kron(ix, ly)).tocsr()


class StepSolver:
    """Assembles and solves the coupled implicit-step systems on one grid."""

    def __init__(self, grid: Grid, dt: float, alpha: float, beta: float):
        self.grid = grid
        self.dt = dt
        self.a = alpha / dt
        self.b = beta / dt
        self.c = 1.0 / dt
        if grid.dim == 1:
            inv_h2 = grid.inv_h2[0]
            lapdiag = np.full(grid.n[0], 2.0 * inv_h2)
            lapdiag[0] = lapdiag[-1] = inv_h2
            # the step matrix with P = W = 0; solve() adds P and W in place
            # to a copy, so the two templates are built once per solver
            blocks = np.zeros((grid.n[0], 3, 3))
            blocks[:, 0, 0] = self.a + lapdiag
            blocks[:, 0, 1] = self.c
            blocks[:, 1, 0] = -1.0
            blocks[:, 1, 1] = self.b + lapdiag
            blocks[:, 2, 2] = self.c + lapdiag
            self._band = kernels.assemble_band(blocks, -inv_h2)
            self._band_t = kernels.assemble_band(blocks.transpose(0, 2, 1), -inv_h2)
        else:
            self.neg_lap = (-neumann_laplacian_matrix(grid)).tocsr()
            self.eye = sps.eye(grid.cell_count, format="csr")

    def solve(self, p, w, rhs, transpose: bool = False):
        """Solve for (m, f, s) given diagonal data and a right-hand side.

        Parameters
        ----------
        p : array, grid-shaped
            Frozen exchange rate P(phi_old).
        w : array, grid-shaped
            Implicit diagonal of the phase equation, B''(phi).
        rhs : tuple of three grid-shaped arrays
        transpose : bool
            Solve with the transposed matrix (adjoint marching).
        """
        p_flat = np.ravel(p)
        w_flat = np.ravel(w)
        r0, r1, r2 = (np.ravel(r) for r in rhs)
        if self.grid.dim == 1:
            main = kernels.MAIN
            ab = (self._band_t if transpose else self._band).copy(order="F")
            ab[main, 0::3] += p_flat
            ab[main, 1::3] += w_flat
            ab[main, 2::3] += p_flat
            # the -P couplings (0, 2) and (2, 0) are symmetric, so the
            # transposed band holds them at the same place
            ab[main - 2, 2::3] = -p_flat
            ab[main + 2, 0::3] = -p_flat
            b = np.empty(ab.shape[1])
            b[0::3], b[1::3], b[2::3] = r0, r1, r2
            x = kernels.solve_block_tridiag(ab, b)
            m, f, s = x[0::3], x[1::3], x[2::3]
        else:
            n = self.grid.cell_count
            mat = sps.bmat(
                [
                    [
                        sps.diags(self.a + p_flat) + self.neg_lap,
                        self.c * self.eye,
                        sps.diags(-p_flat),
                    ],
                    [-self.eye, sps.diags(self.b + w_flat) + self.neg_lap, None],
                    [sps.diags(-p_flat), None, sps.diags(self.c + p_flat) + self.neg_lap],
                ],
                format="csc",
            )
            lu = splu(mat)
            x = lu.solve(np.concatenate([r0, r1, r2]), trans="T" if transpose else "N")
            m, f, s = x[:n], x[n : 2 * n], x[2 * n :]
        shape = self.grid.shape
        return m.reshape(shape), f.reshape(shape), s.reshape(shape)

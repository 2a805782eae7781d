"""Per-step coupled linear systems shared by the three solvers.

Every implicit step of the state, linearized and adjoint solvers solves a
linear system in the stacked unknown (m, f, s) per cell whose matrix is

    [ a - Lap + P    1/dt        -P        ]
    [ -1             b - Lap + W  0        ]
    [ -P             0            c - Lap + P ]

with a = alpha/dt, b = beta/dt, c = 1/dt, P the frozen exchange rate
(diagonal), W the implicit second derivative of the convex potential part
(diagonal), and Lap the Neumann Laplacian. The adjoint marches with the
transpose of the same matrix, so one assembly serves all three solvers.

The linearized and adjoint sweeps read the derivative of the discrete
forward step from here. At a solved trajectory, step j -> j+1 is

    A_{j+1} y_{j+1} = C_j y_j + (0, 0, h_j),

A_{j+1} being the matrix above at P = P(phi_j) and W = B''(phi_{j+1}), and

    C_j   (m, f, s) = (a m + c f + E f,  b f - S f,  c s - E f),
    C_j^T (m, f, s) = (a m,  c m + E m + (b - S) f - E s,  c s),

with E = P'(phi_j)(sigma_{j+1} - mu_{j+1}) and S = S''(phi_j) the explicit
smooth potential part. :func:`step_coefficients` gives (P, W, E, S) of
step j and :func:`coupling` applies C_j or C_j^T.

The matrix is held in nodal order: cell by cell, the three unknowns
(m, f, s) of a cell adjacent, so that it is a grid of 3x3 blocks coupled
by the scalar stencil weights. Its constant part (time terms and
stencil) is assembled for both dimensions from one template, cached per
grid and set of coefficients, so that the many solvers of a run share
it: kron(-Lap, I3) + kron(I, block) in CSC form, Lap being
:func:`kernels.neumann_laplacian_matrix` with its cells in nodal order
and block the 3x3 cell block at P = W = 0. Its pattern stores every P
and W entry, even where P vanishes, and one slot table gives the
positions of the P, W and -P entries: each solve patches them into a
copy. A solve takes right-hand sides with an optional leading direction
axis and solves them all against one factorization, so a sweep along
many directions factors each step matrix once. The right-hand side may
come stacked like a trajectory frame, (3, [ndir,] *grid), and the
solution always does, in a new array.

The dimensions differ only in storage, backend and the packing of the
right-hand side. In 1D the cells keep their natural order, and the
matrix is a band with three sub- and superdiagonals. The template's
entries are scattered, per solver, into LAPACK ``gbsv`` band storage of
the matrix and of its transpose, and the slots become flat positions in
that band: the diagonal ones are the same in both, and the two -P
couplings of a cell swap places under transposition, both taking -P. A
solve copies a template into a band workspace kept by the solver and
patches it; the right-hand side is interleaved cell by cell, and one
``dgbsv`` call with one column per direction
(:func:`kernels.solve_block_tridiag`) factors it in place and solves. A
1D solve may also take K members, each with a matrix of its own (P and W
of shape (K, n), the right-hand side (3, K, n)): the K bands sit side by
side in one workspace, each member's slots shifted by its block, and one
``dgbsv`` call factors the block-diagonal band, whose zero couplings keep
kl = ku = 3 and every pivot inside its block. This is how the forward
march advances an ensemble (see :mod:`chcontrol.state`). In
2D the cells follow :func:`kernels.cell_order`, SuperLU's
``MMD_AT_PLUS_A`` minimum-degree ordering of the scalar cell graph,
computed once per grid shape, and SuperLU factors the patched CSC matrix
with the ``NATURAL`` column ordering, so no factorization computes an
ordering, and the dense cell blocks form its supernodes. On a 2-vCPU
machine (scipy 1.17) the factors hold 189k nonzeros at 32x32 and a
factorization takes 5.5 ms. Ordering the component-major matrix by
``MMD_AT_PLUS_A`` per factorization gave 175k nonzeros in 9.1 ms, and
the default COLAMD 342k in 13.7 ms. At 64x64 the figures are 1.07M in 34
ms, against 1.02M in 46 ms and 2.17M in 90 ms. The slightly larger
factors make a solve with a kept factorization dearer: 0.24 against 0.21
ms at 32x32, 1.09 against 0.99 ms at 64x64. A 2D solve gathers its
right-hand side into nodal order and scatters the solution back, one
precomputed index for both. The transpose solve reuses the same
factorization.

A 2D solver also keeps its last factorization, and a solve given no P
and W solves against it. The forward march uses this for a chord Newton
iteration that refactors only when a step stops contracting; the
linearized and adjoint sweeps factor every step exactly, because the
duality identity between them holds only with the exact A_k. In 1D one
``dgbsv`` call factors and solves together, so nothing is kept and the
forward march stays exact Newton.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from . import kernels
from .fields import Grid


@lru_cache(maxsize=8)
def _step_template(grid: Grid, a: float, b: float, c: float):
    """The step matrix at P = W = 0 in nodal order, in CSC form with sorted
    indices, and the positions in its data of P at (m, m) and (s, s), of W
    at (f, f), and of the -P couplings (m, s) and (s, m), each indexed by
    grid cell. Built once per grid and set of coefficients, because every
    march and sweep builds its own solver and the sparse assembly costs
    about as much as 35 1D step solves (1.4 ms at 128 cells on a 2-vCPU
    machine); the data is read-only because it is shared."""
    n = grid.cell_count
    order = kernels.cell_order(grid.n) if grid.dim == 2 else np.arange(n)
    lap = kernels.neumann_laplacian_matrix(grid.n, grid.inv_h2)
    neg_lap = -lap[order][:, order]
    # the 3x3 cell block with P = W = 0 and unit placeholders at the -P
    # couplings, so that the pattern holds every P entry; zeroed below
    block = np.array([[a, c, 1.0],
                      [-1.0, b, 0.0],
                      [1.0, 0.0, c]])
    # unknown 3k + c is component c of cell order[k]
    mat = sps.csc_matrix(sps.kron(neg_lap, sps.eye(3))
                         + sps.kron(sps.eye(n), block))
    mat.sort_indices()
    size = 3 * n
    col_of = np.repeat(np.arange(size), np.diff(mat.indptr))
    # row 3k + c of each grid cell, so that the slots take P and W in grid
    # order; the column-major keys increase along data, so a search finds
    # each entry
    k3 = 3 * np.argsort(order)
    keys = col_of * size + mat.indices
    slots = tuple(
        np.searchsorted(keys, col * size + row)
        for row, col in ((k3, k3), (k3 + 1, k3 + 1), (k3 + 2, k3 + 2),
                         (k3, k3 + 2), (k3 + 2, k3))
    )
    mat.data[slots[3]] = 0.0
    mat.data[slots[4]] = 0.0
    mat.data.setflags(write=False)
    return mat, slots


class StepSolver:
    """Assembles and solves the coupled implicit-step systems on one grid."""

    def __init__(self, grid: Grid, dt: float, alpha: float, beta: float):
        self.grid = grid
        self.dt = dt
        self.a = alpha / dt
        self.b = beta / dt
        self.c = 1.0 / dt
        self._ncell = grid.cell_count
        # the last 2D factorization, which solve(None, None, rhs) reuses
        self._lu = None
        mat, slots = _step_template(grid, self.a, self.b, self.c)
        if grid.dim == 2:
            n = self._ncell
            order = kernels.cell_order(grid.n)
            # component c of cell order[k] is at index c * n + order[k] of
            # the component-major vector
            self._nodal = (np.arange(3) * n + order[:, None]).ravel()
            self._csc = mat
            self._slots = slots
            return
        # gbsv storage of the matrix and of its transpose, A[i, j] at
        # ab[MAIN + i - j, j] and at ab_t[MAIN + j - i, i]
        size = mat.shape[1]
        rows, cols = mat.indices, np.repeat(np.arange(size), np.diff(mat.indptr))
        self._band = np.zeros((kernels.KL + kernels.MAIN + 1, size), order="F")
        self._band_t = np.zeros_like(self._band, order="F")
        self._band[kernels.MAIN + rows - cols, cols] = mat.data
        self._band_t[kernels.MAIN + cols - rows, rows] = mat.data
        # the slots as flat positions of the band; the diagonal ones are
        # the same in the transposed band, and the two -P couplings of a
        # cell swap places there, both taking -P
        flat = kernels.MAIN + rows - cols + cols * self._band.shape[0]
        self._slots = tuple(flat[s] for s in slots)
        # the templates cell by cell, each cell's three band columns in a row
        self._cells = (self._band.T.reshape(grid.cell_count, -1),
                       self._band_t.T.reshape(grid.cell_count, -1))
        self._grow(1)

    def _grow(self, members: int) -> None:
        """Make the band workspace hold ``members`` matrices side by side.
        Each solve copies a template into it, once per member, patches it
        at the slots of each member and has LAPACK factor it in place. The
        workspace only grows; a solve for fewer members uses its first
        columns, and its views are kept per member count."""
        rows, size = self._band.shape
        self._ab = np.empty((rows, size * members), order="F")
        flat = self._ab.reshape(-1, order="F")
        offsets = np.arange(members)[:, None] * (rows * size)
        slots = [(s + offsets).ravel() for s in self._slots]
        # the template's entries at the P and W slots, to which a solve
        # adds P and W
        diagonal = [np.tile(self._band.reshape(-1, order="F")[s], members)
                    for s in self._slots[:3]]
        self._views = {}
        for k in range(1, members + 1):
            ab = self._ab[:, :size * k]
            cut = k * self._ncell
            self._views[k] = (ab, ab.T.reshape(k, self._ncell, -1), flat,
                              [s[:cut] for s in slots], [d[:cut] for d in diagonal])

    def solve(self, p, w, rhs, transpose: bool = False):
        """Solve for (m, f, s) given diagonal data and a right-hand side.

        With ``p`` and ``w`` given, the matrix A(p, w) is factored and
        then solved with. In 2D the factorization is kept, and
        ``solve(None, None, rhs)`` solves against it without factoring:
        the chord iteration of the forward march (see
        :mod:`chcontrol.state`). A 1D solver keeps no factorization.

        Parameters
        ----------
        p : array, grid-shaped or (K, *grid.shape), or None
            Frozen exchange rate P(phi_old); None to reuse the kept
            2D factorization. With a leading member axis (1D, or K = 1 in
            2D) each of the K members has a matrix of its own, and one
            call factors and solves them all.
        w : array, shaped like ``p``, or None
            Implicit diagonal of the phase equation, B''(phi); None
            together with ``p``.
        rhs : three arrays, as a sequence or stacked along a leading axis
            Each grid-shaped, or of shape (ndir, *grid.shape) to solve
            ndir right-hand sides against one factorization, or, with
            members, of shape (K, *grid.shape), one per member.
        transpose : bool
            Solve with the transposed matrix (adjoint marching).

        Returns the solution stacked like a trajectory frame: shape
        (3, *rhs[0].shape), components (m, f, s) along the first axis.
        Every call returns a new array. The data is not scanned for
        non-finite values, in either dimension: a non-finite right-hand
        side gives non-finite entries in the solution, and the callers
        (the forward march on its residual, the sweeps on each frame)
        raise :class:`~chcontrol.errors.NanDetectedError`.
        """
        ncell = self._ncell
        shape = (3,) + rhs[0].shape
        ndir = rhs[0].size // ncell
        if p is None and self._lu is None:
            raise ValueError("no kept factorization to solve against: only a "
                             "2D solver keeps one, from its last solve with P")
        if self.grid.dim == 1:
            return self._solve_band(p, w, rhs, transpose, ndir, shape)
        if p is None:
            lu = self._lu
        else:
            data = self._csc.data.copy()
            p_flat = np.ravel(p)
            neg_p = -p_flat
            slots = self._slots
            data[slots[0]] += p_flat
            data[slots[1]] += np.ravel(w)
            data[slots[2]] += p_flat
            data[slots[3]] = neg_p
            data[slots[4]] = neg_p
            mat = sps.csc_matrix((data, self._csc.indices, self._csc.indptr),
                                 shape=self._csc.shape)
            # drop the kept factorization first, so two never coexist
            self._lu = None
            lu = self._lu = splu(mat, permc_spec="NATURAL")
        # component-major (m, f, s) blocks, one row per direction, gathered
        # into nodal order for the solve and scattered back
        nodal = self._nodal
        b = np.reshape(rhs, (3, ndir, ncell)).transpose(1, 0, 2).reshape(ndir, -1)
        x = np.empty((ndir, 3 * ncell))
        x[:, nodal] = lu.solve(b[:, nodal].T, trans="T" if transpose else "N").T
        return x.reshape(ndir, 3, ncell).transpose(1, 0, 2).reshape(shape)

    def _solve_band(self, p, w, rhs, transpose, ndir, shape):
        """The 1D solve: the bands of the members' matrices side by side
        along the columns of one ``gbsv`` array (zero couplings between
        them, so kl = ku = 3 still hold) and one ``dgbsv`` call."""
        members = len(p) if p.ndim == 2 else 1
        if members not in self._views:
            self._grow(members)
        ab, cells, data, (s0, s1, s2, s3, s4), (d0, d1, d2) = self._views[members]
        np.copyto(cells, self._cells[transpose])
        p_flat = p.reshape(-1)
        neg_p = -p_flat
        data[s0] = d0 + p_flat
        data[s1] = d1 + w.reshape(-1)
        data[s2] = d2 + p_flat
        data[s3] = neg_p
        data[s4] = neg_p
        # interleaved cell-major, members one after another, one Fortran
        # column per direction; LAPACK overwrites b with the solution
        cols = ndir // members
        k = len(p_flat)
        b = np.asarray(rhs).reshape(3, cols, k).transpose(1, 2, 0).copy()
        x = kernels.solve_block_tridiag(ab, b.reshape(cols, -1).T).T
        return x.reshape(cols, -1, 3).transpose(2, 0, 1).reshape(shape)


def step_coefficients(params, state, j: int):
    """(P, W, E, S) of step j -> j+1 at a solved trajectory, as defined in
    the module docstring: A_{j+1} takes (P, W) and C_j takes (E, S)."""
    prolif, pot, phi = params.proliferation, params.potential, state.phi
    p = prolif.P(phi[j])
    w = pot.d2B(phi[j + 1])
    ex = prolif.dP(phi[j]) * (state.sigma[j + 1] - state.mu[j + 1])
    spp = pot.d2S(phi[j])
    return p, w, ex, spp


def coupling(solver: StepSolver, ex, spp, y, transpose: bool = False):
    """C_j y, or C_j^T y, as three fields, given E and S of step j; the
    fields of y = (m, f, s) may carry a direction axis."""
    a, b, c = solver.a, solver.b, solver.c
    m, f, s = y
    if transpose:
        return a * m, c * m + ex * m + (b - spp) * f - ex * s, c * s
    return a * m + c * f + ex * f, b * f - spp * f, c * s - ex * f

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
steps 0..steps-1 at once, stacked, and :func:`coupling` applies C_j or
C_j^T. Each sweep evaluates them once and reads step j's slice; a sweep
of no steps gets empty stacks and runs its loop zero times.

The dimensions differ only in how they solve. In 1D the matrix is held
cell by cell, the three unknowns (m, f, s) of a cell adjacent, so that it
is a band with three sub- and superdiagonals. Its constant part (time
terms and stencil) is assembled once per grid and set of coefficients,
directly in LAPACK ``gbsv`` band storage of the matrix and of its
transpose, so that the many solvers of a run share it. A solve copies a
template into a band workspace kept by the solver and patches it by band
rows: in that storage each entry of the 3x3 cell block is one band row
at every third column, so P and W are added to three rows and -P is
written to two, the same two in the transposed band, where the
couplings (m, s) and (s, m) swap places. The right-hand side is
interleaved cell by cell into a buffer kept alike, per member and
right-hand-side count, and the solver keeps the LAPACK arguments of each
such pair of arrays, bound once by :func:`kernels.bind`; the workspace
only grows, and when it does, the pairs bound to the old one are
dropped. One ``dgbsv`` call with one column per direction
(:func:`kernels.solve_block_tridiag`) factors it in place and solves, so
a sweep along many directions factors each step matrix once. A 1D solve
may also take K members, each with a matrix of its own (P and W of shape
(K, n), the right-hand side (3, K, n)): the K bands sit side by side in
one workspace, so that the same band rows run on through the columns of
every member, and one ``dgbsv`` call factors the block-diagonal band,
whose zero couplings keep kl = ku = 3 and every pivot inside its block.
This is how the forward march advances an ensemble (see
:mod:`chcontrol.state`).

In 2D nothing is factored. On the uniform cell-centred grid the
orthonormal type-II DCT of each axis diagonalises the Neumann Laplacian
(Strang, SIAM Review 41, 1999): row k of the DCT-II matrix, cos(pi k (i +
1/2) / n) scaled to unit length, is an eigenvector of the axis's
Laplacian with eigenvalue -(4/h^2) sin^2(pi k / 2n), so mode (k, l) of
the grid has the eigenvalue lam = (4/h_x^2) sin^2(pi k / 2n_x) +
(4/h_y^2) sin^2(pi l / 2n_y) of -Lap. With P and W constant, at the
grid means of a member's P and W, A is a 3x3 block per mode,

    [ A    c    -P ]      A = a + lam + P
    [ -1   B     0 ]      B = b + lam + W
    [ -P   0     C ]      C = c + lam + P,

and a solve is one transform of the right-hand side, the elimination

    m = (r1 - c r2/B + P r3/C) / (A + c/B - P^2/C),
    f = (r2 + m)/B,   s = (r3 + P m)/C

per mode (the transpose takes m = (r1 + r2/B + P r3/C) / (A + c/B -
P^2/C) and f = (r2 - c m)/B), and one inverse transform. The transforms
are products with the per-axis DCT matrices, cached per grid: at these
sizes they cost less than the 70-90 ms import of ``scipy.fft`` would add
to every run's start.

With per-cell P and W, the DCT solve at their grid means
right-preconditions a restarted GMRES on the exact A, applied matrix-free
by the stencil (Newton-Krylov with a physics-based preconditioner; Knoll
& Keyes, J. Comput. Phys. 193, 2004). The right-hand sides of one call
iterate together, but each keeps its own Krylov space and stopping test
and leaves the arrays once it stops, so that a batch keeps the bits of
its single solves. A column stops at a normwise backward error of at most
ETA (Rigal & Gaches, J. ACM 14, 1967),

    ||b - A y||_2 <= ETA (||A||_inf ||y||_2 + ||b||_2),

with ||A||_inf the exact largest absolute row sum of the matrix solved,
tested on the residual recomputed by the stencil whenever the GMRES
estimate of its norm meets the bound. ETA = 1e-16 keeps the sweeps as
close to a direct solve as rounding lets the stencil residual show. The
duality identity between the linearized and adjoint sweeps holds only to
the accuracy of their solves: a relative tolerance of 1e-12 left
``verify-2d`` seed 11's duality mismatch at 1.36e-10, 7x under its 1e-9
gate, and 1e-13 and 1e-14 stalled at 128^2 and 64^2. At ETA the
mismatch of ``verify-2d.json`` seeds 1-12 reads 8.5e-15 to 1.3e-13, and
of its duality check refined to 64^2 and 128^2 4.8e-14 and 3.3e-13, at
least 3000x under the gate (a direct sparse LU solve read 2.7e-16 to
5.5e-15); a sweep solve takes about five GMRES iterations there. Where W
varies by orders of magnitude the mean operator preconditions poorly,
and GMRES takes tens of iterations: up to 65, with W from 8.0e2 to
1.6e4, in the exact Newton march of ``tests/test_step_reference.py``
that diverges at step 4 on 16^2, where the median solve takes 3. A
column still above the bound after CYCLES cycles of RESTART iterations
raises :class:`~chcontrol.errors.StepSolveError`.

A 2D ``StepSolver.solve`` has one rule per column (a direction or a
member): it holds P and W and their grid means at one value per column,
solves the columns flagged by ``means`` by the DCT solve at their means
and the others by GMRES at their per-cell values, in the same call, each
column with the bits of its own solve. The forward march flags a member
unless its last iteration failed to contract (see
:mod:`chcontrol.state`); the linearized and adjoint sweeps flag none and
solve with the exact A_k, because the duality identity between them
holds only for it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import kernels
from .errors import StepSolveError
from .fields import Grid

# the normwise backward error at which the 2D GMRES stops
ETA = 1e-16
# Krylov vectors per GMRES cycle, and cycles per solve
RESTART = 20
CYCLES = 5


def _lap_diagonals(grid: Grid):
    """Per axis, the diagonal of -Lap along it: 2/h^2, and 1/h^2 at the
    walls."""
    return [np.concatenate(([inv_h2], np.full(n - 2, 2.0 * inv_h2), [inv_h2]))
            for n, inv_h2 in zip(grid.n, grid.inv_h2)]


@lru_cache(maxsize=8)
def _band_template(grid: Grid, a: float, b: float, c: float):
    """The 1D step matrix at P = W = 0, its cells in natural order and the
    three unknowns of a cell adjacent, in ``gbsv`` storage, A[i, j] at
    band[MAIN + i - j, j], and so its transpose, at band_t[MAIN + j - i,
    i]. Entry (i, j) of every cell block lies on one band row at every
    third column, and the couplings of each unknown to the same unknown of
    the neighbour cells on the rows MAIN - 3 and MAIN + 3. Built once per grid and set of
    coefficients, because every march and sweep builds its own solver; the
    arrays are read-only because they are shared."""
    main = kernels.MAIN
    (lap,) = _lap_diagonals(grid)
    band = np.zeros((kernels.KL + main + 1, 3 * grid.cell_count), order="F")
    band_t = np.zeros_like(band, order="F")
    # the nonzero entries of the 3x3 cell block at P = W = 0: row, column
    # and value
    for i, j, v in ((0, 0, a + lap), (0, 1, c), (1, 0, -1.0), (1, 1, b + lap),
                    (2, 2, c + lap)):
        band[main + i - j, j::3] = v
        band_t[main + j - i, i::3] = v
    # -Lap couples each unknown to the same one of each neighbour cell by
    # -1/h^2, symmetrically
    for arr in (band, band_t):
        arr[main - 3, 3:] = arr[main + 3, :-3] = -grid.inv_h2[0]
        arr.setflags(write=False)
    return band, band_t


@lru_cache(maxsize=8)
def _dct_basis(grid: Grid):
    """The orthonormal DCT-II matrix of each axis of a 2D grid, whose rows
    are the eigenvectors of that axis's Neumann Laplacian, and, per cell,
    the eigenvalues (4/h_x^2) sin^2(pi k/2n_x) + (4/h_y^2) sin^2(pi l/2n_y)
    of -Lap for mode (k, l) and the diagonal of -Lap. Built once per grid;
    the arrays are read-only because they are shared."""
    mats, eigs = [], []
    for n, inv_h2 in zip(grid.n, grid.inv_h2):
        k = np.arange(n)
        mat = np.sqrt(2.0 / n) * np.cos(np.pi / n * np.outer(k, k + 0.5))
        mat[0] = np.sqrt(1.0 / n)
        mats.append(mat)
        eigs.append(4.0 * inv_h2 * np.sin(0.5 * np.pi / n * k) ** 2)
    diags = _lap_diagonals(grid)
    cx, cy = mats
    basis = (cx, cx.T.copy(), cy.T.copy(), cy,
             eigs[0][:, None] + eigs[1], diags[0][:, None] + diags[1])
    for arr in basis:
        arr.setflags(write=False)
    return basis


def _dot(u, v):
    """Per-column inner products of two (ncol, 3, *grid) stacks, each
    column summed on its own, so that a column's bits do not depend on the
    others."""
    return (u * v).reshape(len(u), -1).sum(axis=1)


def _norm2(y):
    return np.sqrt(_dot(y, y))


class StepSolver:
    """Assembles and solves the coupled implicit-step systems on one grid."""

    def __init__(self, grid: Grid, dt: float, alpha: float, beta: float):
        self.grid = grid
        self.dt = dt
        self.a = alpha / dt
        self.b = beta / dt
        self.c = 1.0 / dt
        self._ncell = grid.cell_count
        if grid.dim == 2:
            self._basis = _dct_basis(grid)
            return
        self._band, self._band_t = _band_template(grid, self.a, self.b, self.c)
        # the templates cell by cell, each cell's three band columns in a row
        self._cells = (self._band.T.reshape(grid.cell_count, -1),
                       self._band_t.T.reshape(grid.cell_count, -1))
        # the band workspace, the members' bands side by side, and per
        # member and right-hand-side count the arrays of a solve: its first
        # columns as a gbsv array and cell by cell, the right-hand-side
        # buffer and its Fortran view, and their LAPACK binding
        self._ab = np.empty((len(self._band), 0), order="F")
        self._arrays = {}

    def solve(self, p, w, rhs, transpose: bool = False, means=False):
        """Solve A(p, w) (m, f, s) = rhs, or its transpose.

        Parameters
        ----------
        p : array, grid-shaped or (K, *grid.shape)
            Frozen exchange rate P(phi_old). With a leading member axis
            each of the K members has a matrix of its own, and one call
            solves them all.
        w : array, shaped like ``p``
            Implicit diagonal of the phase equation, B''(phi).
        rhs : three arrays, as a sequence or stacked along a leading axis
            Each grid-shaped, or of shape (ndir, *grid.shape) to solve
            ndir right-hand sides against one matrix, or, with members,
            of shape (K, *grid.shape), one per member.
        transpose : bool
            Solve with the transposed matrix (adjoint marching).
        means : bool, or a sequence of K bools
            2D only: solve with A at the grid means of P and W, which the
            DCT diagonalises, rather than at their per-cell values, for
            every right-hand side or, per member, for the flagged ones. A
            call that mixes the two takes member-stacked ``p`` and ``w``.
            A 1D solve is always at the per-cell values.

        Returns the solution stacked like a trajectory frame: shape
        (3, *rhs[0].shape), components (m, f, s) along the first axis.
        Every call returns a new array. The data is not scanned for
        non-finite values: a non-finite P, W or right-hand side gives
        non-finite entries in the solution, without a numpy warning, and
        the callers (the forward march on its residual, the sweeps on each
        frame) raise :class:`~chcontrol.errors.NanDetectedError`. A 2D
        solve at per-cell P and W that misses its backward error bound
        raises :class:`~chcontrol.errors.StepSolveError`.
        """
        shape = (3,) + rhs[0].shape
        ndir = rhs[0].size // self._ncell
        if self.grid.dim == 1:
            return self._solve_band(p, w, rhs, transpose, ndir, shape)
        # one column per direction or member, its three components together,
        # and P and W with their grid means at one value per column
        b = np.reshape(rhs, (3, ndir) + self.grid.shape).transpose(1, 0, 2, 3)
        p, w = (np.broadcast_to(f, b[:, 0].shape) for f in (p, w))
        pm, wm = (f.mean(axis=(-2, -1), keepdims=True) for f in (p, w))
        flags = np.broadcast_to(means, (ndir,))
        x = np.empty(b.shape)
        with np.errstate(all="ignore"):
            if flags.any():
                x[flags] = self._dct_solve(pm[flags], wm[flags], b[flags], transpose)
            rest = ~flags
            if rest.any():
                x[rest] = self._gmres(p[rest], w[rest], pm[rest], wm[rest], b[rest],
                                      transpose)
        return x.transpose(1, 0, 2, 3).reshape(shape)

    def _dct_solve(self, p, w, b, transpose):
        """Solve with A at constant P and W (one value per column, shape
        (ncol, 1, 1)) for the columns of b, (ncol, 3, *grid): in the DCT
        basis a 3x3 system per mode, eliminated in closed form."""
        cx, cxt, cyt, cy, lam, _ = self._basis
        r = cx @ b @ cyt
        r1, r2, r3 = r[:, 0], r[:, 1], r[:, 2]
        inv_b = 1.0 / (self.b + lam + w)
        inv_c = 1.0 / (self.c + lam + p)
        den = self.a + lam + p + self.c * inv_b - p * p * inv_c
        if transpose:
            m = (r1 + r2 * inv_b + p * r3 * inv_c) / den
            f = (r2 - self.c * m) * inv_b
        else:
            m = (r1 - self.c * r2 * inv_b + p * r3 * inv_c) / den
            f = (r2 + m) * inv_b
        r[:, 2] = (r3 + p * m) * inv_c
        r[:, 0] = m
        r[:, 1] = f
        return cxt @ r @ cy

    def _apply(self, p, w, y, transpose):
        """A y, or A^T y, for the columns of y, with Lap applied by
        :func:`kernels.lap`, the stencil of the forward residual."""
        a, b, c = self.a, self.b, self.c
        lap = kernels.lap(y, self.grid.inv_h2)
        m, f, s = y[:, 0], y[:, 1], y[:, 2]
        out = np.empty(y.shape)
        exchange = p * (s - m)
        if transpose:
            out[:, 0] = a * m - f - lap[:, 0] - exchange
            out[:, 1] = c * m + b * f - lap[:, 1] + w * f
        else:
            out[:, 0] = a * m + c * f - lap[:, 0] - exchange
            out[:, 1] = b * f - lap[:, 1] + w * f - m
        out[:, 2] = c * s - lap[:, 2] + exchange
        return out

    def _norm(self, p, w, transpose):
        """||A||_inf, the largest absolute row sum, per column or at once."""
        d = self._basis[5]
        near = (1.0, self.c) if transpose else (self.c, 1.0)
        ap = np.abs(p)
        rows = (np.abs(self.a + d + p) + ap + (d + near[0]),
                np.abs(self.b + d + w) + (d + near[1]),
                np.abs(self.c + d + p) + ap + d)
        return np.maximum.reduce([row.max(axis=(-2, -1)) for row in rows])

    def _gmres(self, p, w, pm, wm, b, transpose):
        """Solve with per-cell P and W by restarted GMRES on the stencil,
        right-preconditioned by the DCT solve at their grid means pm and wm.

        P and W hold one field per column of b, (ncol, *grid), pm and wm
        one value, (ncol, 1, 1). Each column of b, (ncol, 3, *grid), keeps
        its own Krylov space and stops on its own at a normwise backward
        error of at most ETA, ||b - A y||_2 <= ETA (||A||_inf ||y||_2 +
        ||b||_2), tested on the residual recomputed by the stencil once the
        GMRES estimate of its norm meets the bound; a column that stops
        leaves the arrays of the others, so that each column's bits do not
        depend on the rest of the batch. A column with non-finite data is
        returned as NaN; a column still above the bound after CYCLES cycles
        of RESTART iterations raises :class:`StepSolveError`."""
        norm_a = self._norm(p, w, transpose)
        norm_b = _norm2(b)
        x = np.zeros(b.shape)
        finite = np.isfinite(norm_a) & np.isfinite(norm_b)
        x[~finite] = np.nan
        # a zero right-hand side has the solution 0
        cols = np.flatnonzero(finite & (norm_b > 0))
        if not len(cols):
            return x
        # per column: the right-hand side, ||A||, ||b||, P, W and their means
        coef = [f[cols] for f in (b, norm_a, norm_b, p, w, pm, wm)]
        y, r = x[cols], coef[0]
        for _ in range(CYCLES):
            beta = _norm2(r)
            basis = [r / beta[:, None, None, None]]
            precond = []
            g = np.zeros((len(cols), RESTART + 1))
            g[:, 0] = beta
            h = np.zeros((len(cols), RESTART + 1, RESTART))
            rot = np.zeros((len(cols), 2, RESTART))
            for j in range(RESTART):
                bc, scale, nb, pc, wc, pm, wm = coef
                z = self._dct_solve(pm, wm, basis[j], transpose)
                precond.append(z)
                v = self._apply(pc, wc, z, transpose)
                # modified Gram-Schmidt against the basis so far
                for i, q in enumerate(basis):
                    h[:, i, j] = _dot(v, q)
                    v -= h[:, i, j, None, None, None] * q
                h[:, j + 1, j] = _norm2(v)
                basis.append(v / h[:, j + 1, j, None, None, None])
                # the earlier Givens rotations, then the one that zeroes
                # h[j + 1, j], applied to column j and to g
                for i in range(j):
                    cs, sn = rot[:, 0, i], rot[:, 1, i]
                    h[:, i, j], h[:, i + 1, j] = (cs * h[:, i, j] + sn * h[:, i + 1, j],
                                                  cs * h[:, i + 1, j] - sn * h[:, i, j])
                rho = np.hypot(h[:, j, j], h[:, j + 1, j])
                rot[:, 0, j] = cs = h[:, j, j] / rho
                rot[:, 1, j] = sn = h[:, j + 1, j] / rho
                h[:, j, j] = rho
                g[:, j + 1] = -sn * g[:, j]
                g[:, j] *= cs
                # the iterate y + Z t, with t from the triangle H t = g
                t = np.zeros((len(cols), j + 1))
                for i in range(j, -1, -1):
                    t[:, i] = (g[:, i] - (h[:, i, i + 1:j + 1] * t[:, i + 1:]).sum(axis=1)
                               ) / h[:, i, i]
                yj = y.copy()
                for i, zi in enumerate(precond):
                    yj += t[:, i, None, None, None] * zi
                # |g[j + 1]| is the residual norm in exact arithmetic, so
                # only a column whose estimate meets the bound can pass; the
                # residual is recomputed when one can, and for the restart
                scaled = scale * _norm2(yj) + nb
                done = np.abs(g[:, j + 1]) <= ETA * scaled
                if done.any() or j == RESTART - 1:
                    r = bc - self._apply(pc, wc, yj, transpose)
                    err = _norm2(r) / scaled
                    done &= err <= ETA
                if done.any():
                    x[cols[done]] = yj[done]
                    keep = ~done
                    if not keep.any():
                        return x
                    cols, y, yj, r, err, g, h, rot = (
                        f[keep] for f in (cols, y, yj, r, err, g, h, rot))
                    coef = [f[keep] for f in coef]
                    basis = [f[keep] for f in basis]
                    precond = [f[keep] for f in precond]
            y = yj
        raise StepSolveError(float(err.max()), CYCLES * RESTART, ETA)

    def _solve_band(self, p, w, rhs, transpose, ndir, shape):
        """The 1D solve: the bands of the members' matrices side by side
        along the columns of one ``gbsv`` array (zero couplings between
        them, so kl = ku = 3 still hold) and one ``dgbsv`` call."""
        members = len(p) if p.ndim == 2 else 1
        cols = ndir // members
        if (members, cols) not in self._arrays:
            # the workspace grows to the most members solved so far; the
            # arrays bound to the old one go with it
            rows, size = self._band.shape
            if self._ab.shape[1] < size * members:
                self._ab = np.empty((rows, size * members), order="F")
                self._arrays.clear()
            ab = self._ab[:, :size * members]
            # interleaved cell-major, members one after another, one
            # Fortran column per direction; LAPACK overwrites b with the
            # solution
            buf = np.empty((cols, members * self._ncell, 3))
            b = buf.reshape(cols, -1).T
            self._arrays[members, cols] = (ab, ab.T.reshape(members, self._ncell, -1),
                                           buf, b, kernels.bind(ab, b))
        ab, cells, buf, b, bound = self._arrays[members, cols]
        np.copyto(cells, self._cells[transpose])
        # P at (m, m) and (s, s), W at (f, f) and -P at (m, s) and (s, m) of
        # each cell: one band row each, at every third column, in the same
        # place in the transposed band, where the two -P swap places
        p = p.reshape(-1)
        main = kernels.MAIN
        ab[main, 0::3] += p
        ab[main, 1::3] += w.reshape(-1)
        ab[main, 2::3] += p
        ab[main - 2, 2::3] = ab[main + 2, 0::3] = -p
        np.copyto(buf, np.asarray(rhs).reshape(3, cols, len(p)).transpose(1, 2, 0))
        kernels.solve_block_tridiag(ab, b, bound)
        return buf.transpose(2, 0, 1).reshape(shape).copy()


def step_coefficients(params, state, steps: int):
    """(P, W, E, S) of steps 0..steps-1 at a solved trajectory, as defined
    in the module docstring, each stacked along a leading step axis: slice
    j is step j -> j+1, whose A_{j+1} takes (P, W) and C_j takes (E, S). A
    sweep sets them up once and reads a slice per step; at ``steps`` = 0
    the stacks are empty."""
    prolif, pot, phi = params.proliferation, params.potential, state.phi
    old, new = slice(0, steps), slice(1, steps + 1)
    p = prolif.P(phi[old])
    w = pot.d2B(phi[new])
    ex = prolif.dP(phi[old]) * (state.sigma[new] - state.mu[new])
    spp = pot.d2S(phi[old])
    return p, w, ex, spp


def coupling(solver: StepSolver, ex, spp, y, transpose: bool = False):
    """C_j y, or C_j^T y, as three fields, given E and S of step j; the
    fields of y = (m, f, s) may carry a direction axis."""
    a, b, c = solver.a, solver.b, solver.c
    m, f, s = y
    if transpose:
        return a * m, c * m + ex * m + (b - spp) * f - ex * s, c * s
    return a * m + c * f + ex * f, b * f - spp * f, c * s - ex * f

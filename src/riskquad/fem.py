"""Structured bilinear finite elements on a rectangle.

Q1 quadrilateral elements on a uniform grid with 2x2 Gauss quadrature,
sparse symmetric assembly into a CSR pattern cached per mesh, symmetric
Dirichlet elimination with lifted right-hand sides, cached banded Cholesky
factorizations in a band order that numbers the shorter side of the mesh
fastest, and kernels for blocks of probe fields.  The index work of a
factorization that depends only on the pattern, the Dirichlet nodes and the
order is a read-only ``BandPlan``, shared by every solver of matrices
assembled on one mesh (their index arrays are the mesh's read-only ones).
Assembled matrices and every vector in and out of a solver stay in the
mesh's native node order.
All elements are congruent axis-aligned rectangles, so the reference-element
tables are shared and every loop is vectorized over elements.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import NumericalError

PAIR_CHUNK = 256  # elements per chunk of the products in _pair_sums
UPPER_MIN_COLUMNS = 8  # narrowest block solved on the upper-storage copy


class Mesh:
    """Uniform nx-by-ny grid of rectangular Q1 elements on (0,lx) x (0,ly).

    Nodes are ordered lexicographically with x fastest; element k lists its
    four nodes counterclockwise starting at the lower-left corner.  Both
    model problems pin the left and right sides, so their nodes (corners
    included) are the Dirichlet nodes; the bottom and top sides are natural.

    ``band_order`` lists the nodes with the shorter side fastest (node
    ``band_order[k]`` is the k-th one), so a Q1 operator factorized in that
    order has bandwidth min(nx, ny) + 2; it is None when nx <= ny, where the
    native order already runs along the shorter side.
    """

    def __init__(self, nx, ny, lx, ly):
        if nx < 1 or ny < 1:
            raise ValueError("mesh needs at least one element per axis")
        if lx <= 0.0 or ly <= 0.0:
            raise ValueError("domain extents must be positive")

        self.nx, self.ny = int(nx), int(ny)
        self.lx, self.ly = float(lx), float(ly)
        self.hx = self.lx / self.nx
        self.hy = self.ly / self.ny

        xs = np.linspace(0.0, self.lx, self.nx + 1)
        ys = np.linspace(0.0, self.ly, self.ny + 1)
        X, Y = np.meshgrid(xs, ys)
        self.node_x = X.ravel()
        self.node_y = Y.ravel()

        ex, ey = np.meshgrid(np.arange(self.nx), np.arange(self.ny))
        n00 = (ey * (self.nx + 1) + ex).ravel()
        self.conn = np.column_stack(
            [n00, n00 + 1, n00 + self.nx + 2, n00 + self.nx + 1]
        )

        self.dirichlet_nodes = np.union1d(self.side_nodes("left"),
                                          self.side_nodes("right"))

        self.band_order = None
        if self.nx > self.ny:
            grid = np.arange(self.n_nodes).reshape(self.ny + 1, self.nx + 1)
            self.band_order = grid.T.ravel()
            self.band_order.flags.writeable = False

        self._build_reference_tables()
        self._build_csr_pattern()

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_elems(self):
        return self.nx * self.ny

    def side_nodes(self, side):
        """Node indices along one side, ordered along the side."""
        nxp = self.nx + 1
        if side == "left":
            return np.arange(self.ny + 1) * nxp
        if side == "right":
            return np.arange(self.ny + 1) * nxp + self.nx
        if side == "bottom":
            return np.arange(nxp)
        if side == "top":
            return self.ny * nxp + np.arange(nxp)
        raise ValueError(f"unknown side {side!r}")

    def _build_reference_tables(self):
        g = 1.0 / np.sqrt(3.0)
        pts = [(-g, -g), (g, -g), (g, g), (-g, g)]
        phi = np.empty((4, 4))
        dphx = np.empty((4, 4))
        dphy = np.empty((4, 4))
        for q, (xi, eta) in enumerate(pts):
            phi[q] = 0.25 * np.array(
                [
                    (1 - xi) * (1 - eta),
                    (1 + xi) * (1 - eta),
                    (1 + xi) * (1 + eta),
                    (1 - xi) * (1 + eta),
                ]
            )
            dxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
            deta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
            dphx[q] = dxi * 2.0 / self.hx
            dphy[q] = deta * 2.0 / self.hy
        # phi[q, a]: shape function a at Gauss point q; qw includes det J
        self.phi = phi
        self.dphx = dphx
        self.dphy = dphy
        self.qw = self.hx * self.hy / 4.0
        self.stiff_tab = np.einsum("qa,qb->qab", dphx, dphx) + np.einsum(
            "qa,qb->qab", dphy, dphy
        )
        self.mass_tab = np.einsum("qa,qb->qab", phi, phi)
        # coupling_tab[q (+4 for y), 4a + b] = d_{x,y}phi[q, a] * phi[q, b]
        self.coupling_tab = np.vstack([
            np.einsum("qa,qb->qab", dphx, phi).reshape(4, 16),
            np.einsum("qa,qb->qab", dphy, phi).reshape(4, 16),
        ])
        # pair_tab[4a + b, q (+4 for x, +8 for y)]: phi[q, a] times phi, dphx,
        # dphy at [q, b], mapping element products of two fields to Gauss sums
        self.pair_tab = np.hstack([
            np.einsum("qa,qb->abq", phi, d).reshape(16, 4)
            for d in (phi, dphx, dphy)
        ])

    def _build_csr_pattern(self):
        # Entry (e, a, b) of an element table lands at row conn[e, a] and
        # column conn[e, b]; csr_slot[16 e + 4 a + b] is its position in the
        # CSR data array, so assembly is one bincount.  The index arrays are
        # shared by every matrix assembled on this mesh and kept read-only.
        n = self.n_nodes
        rows = np.repeat(self.conn, 4, axis=1).ravel()
        cols = np.tile(self.conn, (1, 4)).ravel()
        keys, self.csr_slot = np.unique(rows * n + cols, return_inverse=True)
        self.csr_indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        self.csr_indices = (keys % n).astype(np.int32)
        self.csr_indptr.flags.writeable = False
        self.csr_indices.flags.writeable = False

    # -- pointwise evaluation at quadrature points -------------------------

    def interp_gauss(self, f):
        """Nodal field -> values at the 4 Gauss points of every element."""
        return np.asarray(f)[self.conn] @ self.phi.T

    def grad_gauss(self, u):
        """Nodal field -> gradient components at Gauss points, (gx, gy)."""
        uc = np.asarray(u)[self.conn]
        return uc @ self.dphx.T, uc @ self.dphy.T


def build_mesh(nx, ny, lx, ly):
    """Build a structured rectangle mesh with tagged boundary."""
    return Mesh(nx, ny, lx, ly)


# -- assembly ---------------------------------------------------------------


def _scatter_matrix(mesh, loc):
    data = np.bincount(mesh.csr_slot, weights=loc.ravel(),
                       minlength=len(mesh.csr_indices))
    n = mesh.n_nodes
    return sp.csr_matrix((data, mesh.csr_indices, mesh.csr_indptr), shape=(n, n))


def assemble_mass(mesh):
    """Q1 mass matrix; exact for bilinear integrands under 2x2 Gauss."""
    loc = mesh.qw * mesh.mass_tab.sum(axis=0)
    return _scatter_matrix(mesh, np.broadcast_to(loc, (mesh.n_elems, 4, 4)))


def assemble_weighted_stiffness(mesh, m):
    """Stiffness matrix of the form (exp(m) grad u, grad v).

    The log coefficient ``m`` is a nodal field; exp(m) is evaluated at the
    quadrature points of each element.  No boundary conditions are applied.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (mesh.n_nodes,):
        raise ValueError("coefficient field has wrong length")
    if not np.all(np.isfinite(m)):
        raise ValueError("coefficient field must be finite")
    coef = np.exp(mesh.interp_gauss(m))
    return _scatter_matrix(mesh, (mesh.qw * coef) @ mesh.stiff_tab.reshape(4, 16))


def _scatter_vector(mesh, loc):
    return np.bincount(mesh.conn.ravel(), weights=loc.ravel(),
                       minlength=mesh.n_nodes)


def weighted_stiffness_apply(mesh, coef_gauss, u):
    """Load vector of v -> integral coef * grad(u).grad(v).

    ``coef_gauss`` holds the full scalar weight at Gauss points, shape
    (n_elems, 4).  Equivalent to assembling the coef-weighted stiffness and
    multiplying by ``u``, without forming the matrix.
    """
    gx, gy = mesh.grad_gauss(u)
    tx = mesh.qw * coef_gauss * gx
    ty = mesh.qw * coef_gauss * gy
    return _scatter_vector(mesh, tx @ mesh.dphx + ty @ mesh.dphy)


def grad_dot_load(mesh, coef_gauss, u, v):
    """Load vector w with w_i = integral coef * (grad u . grad v) phi_i."""
    gux, guy = mesh.grad_gauss(u)
    gvx, gvy = mesh.grad_gauss(v)
    s = mesh.qw * coef_gauss * (gux * gvx + guy * gvy)
    return _scatter_vector(mesh, s @ mesh.phi)


def assemble_coupling(mesh, coef_gauss, u):
    """Matrix B with B z = weighted_stiffness_apply(mesh, coef_gauss * z_gauss, u)
    for every nodal field z; its transpose gives B^T w = grad_dot_load(mesh,
    coef_gauss, w, u).
    """
    gx, gy = mesh.grad_gauss(u)
    t = mesh.qw * coef_gauss
    return _scatter_matrix(mesh, np.hstack([t * gx, t * gy]) @ mesh.coupling_tab)


def _pair_sums(mesh, A, V):
    """Gauss-point sums over columns k of interp(A_k) times interp(V_k),
    d/dx V_k and d/dy V_k, as three (n_elems, 4) arrays.

    The element products P[e, a, b] = sum_k A[conn[e, a], k] V[conn[e, b], k]
    are formed over fixed chunks of elements, so the gathered temporaries
    stay small whatever the number of columns.
    """
    P = np.empty((mesh.n_elems, 16))
    for j in range(0, mesh.n_elems, PAIR_CHUNK):
        conn = mesh.conn[j:j + PAIR_CHUNK]
        P[j:j + PAIR_CHUNK] = (A[conn] @ V[conn].transpose(0, 2, 1)).reshape(-1, 16)
    return np.split(P @ mesh.pair_tab, 3, axis=1)


def interp_dot(mesh, A, V):
    """Sum over columns k of interp_gauss(A[:, k]) * interp_gauss(V[:, k])."""
    return _pair_sums(mesh, A, V)[0]


def weighted_stiffness_sum(mesh, coef_gauss, A, V):
    """Sum over columns k of weighted_stiffness_apply(mesh,
    coef_gauss * interp_gauss(A[:, k]), V[:, k]) for (n, k) blocks A and V."""
    _, sx, sy = _pair_sums(mesh, A, V)
    t = mesh.qw * coef_gauss
    return _scatter_vector(mesh, (t * sx) @ mesh.dphx + (t * sy) @ mesh.dphy)


def nodal_load(mesh, values_gauss):
    """Load vector w with w_i = integral f phi_i, f given at Gauss points."""
    return _scatter_vector(mesh, (mesh.qw * values_gauss) @ mesh.phi)


def assemble_weighted_mass(mesh, q_gauss):
    """Matrix of (q u, v) with the weight q given at Gauss points."""
    return _scatter_matrix(mesh, (mesh.qw * q_gauss) @ mesh.mass_tab.reshape(4, 16))


# -- 1D operators for boundary traces --------------------------------------


def mass_matrix_1d(n_elems, h):
    """Linear-element mass matrix on a segment of n_elems elements."""
    main = np.full(n_elems + 1, 4.0)
    main[0] = main[-1] = 2.0
    off = np.ones(n_elems)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr() * (h / 6.0)


def stiffness_matrix_1d(n_elems, h):
    """Linear-element stiffness matrix on a segment of n_elems elements."""
    main = np.full(n_elems + 1, 2.0)
    main[0] = main[-1] = 1.0
    off = -np.ones(n_elems)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr() / h


def cholesky_sparse(spd_dense):
    """Lower Cholesky factor of a small dense SPD matrix, as sparse CSR."""
    return sp.csr_matrix(np.linalg.cholesky(spd_dense))


def mass_cholesky(mesh):
    """Exact sparse lower factor L with L L^T = assembled Q1 mass matrix.

    Uses the tensor-product structure of the structured grid: the 2D mass
    matrix is the Kronecker product of the two 1D mass matrices, so its
    Cholesky factor is the Kronecker product of their (bidiagonal) factors.
    """
    lx = cholesky_sparse(mass_matrix_1d(mesh.nx, mesh.hx).toarray())
    ly = cholesky_sparse(mass_matrix_1d(mesh.ny, mesh.hy).toarray())
    return sp.kron(ly, lx).tocsr()


# -- solving ----------------------------------------------------------------


class SolveCounter:
    """Counts PDE solves; can be paused while auxiliary work runs.

    Ticks are serialized by a lock.  The library itself solves on one
    thread, but a caller may share a problem and its solvers across threads
    of its own, and the count must stay exact then too: a pause holds only
    for the thread that entered it.
    """

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def tick(self, n=1):
        if getattr(self._local, "paused", False):
            return
        with self._lock:
            self.count += n

    @contextmanager
    def paused(self):
        prev = getattr(self._local, "paused", False)
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = prev


def _same_memory(a, b):
    """True when ``a`` and ``b`` are read-only arrays over the same memory."""
    return (not a.flags.writeable and not b.flags.writeable
            and a.ctypes.data == b.ctypes.data and a.shape == b.shape
            and a.strides == b.strides and a.dtype == b.dtype)


def _same_nodes(a, b):
    """True when two node lists (or two Nones) are equal."""
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


class BandPlan:
    """Index work of ``SpdSolver`` that depends only on the operator's CSR
    pattern, the Dirichlet nodes and the band order.

    It holds the data entries zeroed by Dirichlet elimination and the pinned
    diagonal entries, the lower-triangle entries and their flat positions in
    the C-ordered (n, bw + 1) band, the bandwidth, and the order with its
    inverse permutation.  A plan is read-only and shared by every solver
    with its Dirichlet nodes and order whose operator's ``indptr`` and
    ``indices`` are read-only arrays over the memory the plan was built on,
    as for every matrix assembled on one ``Mesh`` (``fits``).  The plan
    keeps those arrays alive, so their memory cannot pass to another
    pattern.
    """

    def __init__(self, op, dirichlet, order):
        self.n = n = op.shape[0]
        self.indptr, self.indices = op.indptr, op.indices
        self.dirichlet = dirichlet
        rows = np.repeat(np.arange(n), np.diff(op.indptr))
        cols = op.indices
        if dirichlet.size:
            pinned = np.zeros(n, dtype=bool)
            pinned[dirichlet] = True
            self.zeroed = np.flatnonzero(pinned[rows] | pinned[cols])
            self.pinned_diag = np.flatnonzero(pinned[rows] & (rows == cols))
            if len(self.pinned_diag) != np.count_nonzero(pinned):
                raise ValueError("operator has no diagonal entry at a Dirichlet node")
        self.order = order
        self.position = None
        if order is not None:
            self.position = np.empty(n, dtype=int)
            self.position[order] = np.arange(n)
            rows, cols = self.position[rows], self.position[cols]
        # Entry (i, j <= i) in band positions goes to row j, position i - j,
        # of a C-ordered (n, bw + 1) array; its transpose is LAPACK's lower
        # band storage.
        offset = rows - cols
        self.bandwidth = int(offset.max(initial=0))
        self.lower = np.flatnonzero(offset >= 0)
        self.band_slots = (cols[self.lower] * (self.bandwidth + 1)
                           + offset[self.lower])

    def fits(self, op, dirichlet, order):
        """True when ``op`` has the pattern this plan was built on and the
        Dirichlet nodes and order are the plan's."""
        return (op.shape == (self.n, self.n)
                and _same_memory(op.indptr, self.indptr)
                and _same_memory(op.indices, self.indices)
                and _same_nodes(dirichlet, self.dirichlet)
                and _same_nodes(order, self.order))


class SpdSolver:
    """Cached factorization of an SPD operator with Dirichlet elimination.

    Dirichlet rows and columns are eliminated symmetrically on the CSR data
    (unit diagonal, lifted right-hand side), so the constrained operator
    stays SPD.  It is factorized by LAPACK banded Cholesky with the unknowns
    numbered by ``order`` (a permutation of the nodes, ``Mesh.band_order``
    for volume operators; native order when None), with the bandwidth
    read from the permuted sparsity pattern; an operator that is not
    positive definite raises ``NumericalError``.  Right-hand sides are
    permuted in and solutions out, so callers see native order only.  Every
    solve, block solves included, verifies the residual of each right-hand
    side against ``rtol`` on the native-order constrained operator and ticks
    the optional counter once per right-hand side.  A single right-hand
    side or a block of fewer than ``UPPER_MIN_COLUMNS`` columns is solved on
    the lower factor, a wider block on an upper-storage copy made at the
    first such solve.  The solver's results do not change after
    construction and it may be shared across independent right-hand sides.

    The pattern-only index work lives in a ``BandPlan`` (``self.plan``).
    Given another solver's ``plan`` that fits the operator, the Dirichlet
    nodes and the order (see ``BandPlan.fits``), the solver only copies the
    data array, applies the Dirichlet index sets, scatters the lower
    triangle into the band and calls LAPACK; otherwise it builds its own
    plan, so a plan never changes a result.
    """

    def __init__(self, op, dirichlet_nodes=None, rtol=1e-10, counter=None,
                 order=None, plan=None):
        op = op.tocsr()
        if not op.has_canonical_format:
            op = op.copy()
            op.sum_duplicates()
        self.op = op
        self.n = op.shape[0]
        self.rtol = float(rtol)
        self.counter = counter
        dirichlet = (np.empty(0, dtype=int) if dirichlet_nodes is None
                     else np.asarray(dirichlet_nodes, dtype=int))
        if plan is None or not plan.fits(op, dirichlet, order):
            plan = BandPlan(op, dirichlet, order)
        self.plan = plan
        self.dirichlet = plan.dirichlet
        if not self.dirichlet.size:
            self.constrained = op
        else:
            data = op.data.copy()
            data[plan.zeroed] = 0.0
            data[plan.pinned_diag] = 1.0
            self.constrained = sp.csr_matrix((data, op.indices, op.indptr),
                                             shape=op.shape)
        self._factor = self._banded_cholesky()

    def _banded_cholesky(self):
        # Below bandwidth 65 LAPACK's band Cholesky makes one rank-1 update
        # per column, with unit stride only on lower storage; with a
        # multithreaded OpenBLAS, bandwidth 41 took 8 ms on upper and 2 ms on
        # lower storage (3200 unknowns, 2 cores).
        plan = self.plan
        band = np.zeros((self.n, plan.bandwidth + 1))
        band.ravel()[plan.band_slots] = self.constrained.data[plan.lower]
        try:
            return cholesky_banded(band.T, overwrite_ab=True, lower=True,
                                   check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"operator is not positive definite: {exc}") from exc

    @cached_property
    def _upper_factor(self):
        # U = L^T in upper band storage, built on the first wide block solve.
        # At bandwidth 41 and one BLAS thread, triangular solves on it take
        # 3.7 ms for 40 columns against 9.0 ms on lower storage (0.16 vs
        # 0.36 ms for one); the copy takes 0.2-1.1 ms, so a single block pays
        # for it only from about UPPER_MIN_COLUMNS columns on (a Monte Carlo
        # draw's factor serves one vector or one narrow block).  Read as a
        # C-ordered (n, bw + 1) array, upper storage holds U[j - k, j] =
        # L[j, j - k] at [j, bw - k], which sits at j (bw + 1) - k bw in the
        # memory of the lower factor; a view with element strides
        # (bw + 1, bw) over that memory, after bw * bw leading zeros, reads
        # it, and the zeros land in the unused corner.
        bw = self._factor.shape[0] - 1
        flat = np.concatenate([np.zeros(bw * bw), self._factor.ravel(order="F")])
        step = flat.itemsize
        skewed = as_strided(flat, (self.n, bw + 1), (step * (bw + 1), step * bw))
        return np.ascontiguousarray(skewed).T

    def _raw_solve(self, b):
        order = self.plan.order
        if order is not None:
            b = b[order]
        if b.ndim == 1 or b.shape[1] < UPPER_MIN_COLUMNS:
            x = cho_solve_banded((self._factor, True), b, check_finite=False)
        else:
            x = cho_solve_banded((self._upper_factor, False), b,
                                 check_finite=False)
        if order is not None:
            x = x[self.plan.position]
        # C order, so that later sparse products need not copy the block
        return np.ascontiguousarray(x)

    def _checked(self, x, b):
        """Verify every column's residual, tick once per column, return x."""
        res = np.linalg.norm(self.constrained @ x - b, axis=0)
        ref = np.maximum(np.linalg.norm(b, axis=0), 1e-300)
        if not np.all(res <= self.rtol * ref):
            worst = float(np.max(res))
            raise NumericalError(
                f"linear solve residual {worst:.3e} exceeds tolerance",
                residual=worst,
            )
        if self.counter is not None:
            self.counter.tick(1 if x.ndim == 1 else x.shape[1])
        return x

    def _lifted(self, loads, bc_values):
        """Right-hand side (n,) or (n, k) with the Dirichlet data lifted out
        of every column and imposed on its Dirichlet rows."""
        b = np.array(loads, dtype=float)
        d = self.dirichlet
        if d.size:
            vals = np.broadcast_to(np.asarray(bc_values, dtype=float), d.shape)
            bt = b.T  # a view with one column per row, or the vector itself
            if np.any(vals != 0.0):
                lift = np.zeros(self.n)
                lift[d] = vals
                bt -= self.op @ lift
            bt[..., d] = vals
        return b

    def solve(self, load, bc_values=0.0):
        """Solve the constrained system for one right-hand side.

        ``bc_values`` holds the Dirichlet data, either a scalar or one value
        per Dirichlet node; the returned vector contains them exactly.
        """
        b = self._lifted(load, bc_values)
        return self._checked(self._raw_solve(b), b)

    def solve_many(self, loads, bc_values=0.0):
        """Solve for a (n, k) block of right-hand sides that share the
        Dirichlet data ``bc_values`` (as in ``solve``; homogeneous by default).

        Each column is checked and counted exactly like a ``solve``.
        """
        B = self._lifted(loads, bc_values)
        return self._checked(self._raw_solve(B), B)

    def apply_inverse(self, b):
        """Homogeneous-BC solve of a vector (n,) or of each column of (n, k)."""
        return self.solve(b) if np.ndim(b) == 1 else self.solve_many(b)


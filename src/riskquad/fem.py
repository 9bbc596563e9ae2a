"""Structured bilinear finite elements on a rectangle.

Q1 quadrilateral elements on a uniform grid with 2x2 Gauss quadrature,
sparse symmetric assembly into a CSR pattern cached per mesh, symmetric
Dirichlet elimination with lifted right-hand sides, cached banded Cholesky
factorizations in a band order that numbers the shorter side of the mesh
fastest, triangular solves that call LAPACK ``dpbtrs`` directly on one
column-major copy of the right-hand sides, and kernels for blocks of probe
fields.  The index work of a factorization depends only on the mesh (its
pattern, Dirichlet nodes and band order), so each mesh builds it once as
the read-only ``Mesh.band_plan`` that every ``SpdSolver`` on the mesh uses.
Constant-coefficient operators without Dirichlet rows, such as the mass
matrix and the shifted stiffness of a covariance, are Kronecker sums and
products of 1D tridiagonal matrices; ``SeparableSolver`` solves them by
fast diagonalization instead.  Every solver checks each column's residual
with the one function ``_check_residuals``.
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
from scipy.linalg import cholesky_banded, eigh, get_lapack_funcs

from .errors import NumericalError

PAIR_CHUNK = 256  # elements per chunk of the products in _pair_sums
UPPER_MIN_COLUMNS = 8  # narrowest block solved on the upper-storage copy
_PBTRS = get_lapack_funcs("pbtrs", dtype=np.float64)


class Mesh:
    """Uniform nx-by-ny grid of rectangular Q1 elements on (0,lx) x (0,ly).

    Nodes are ordered lexicographically with x fastest; element k lists its
    four nodes counterclockwise starting at the lower-left corner.  Both
    model problems pin the left and right sides, so their nodes (corners
    included) are the Dirichlet nodes; the bottom and top sides are natural.

    ``band_order`` lists the nodes with the shorter side fastest (node
    ``band_order[k]`` is the k-th one), so a Q1 operator factorized in that
    order has bandwidth min(nx, ny) + 2; it is None when nx <= ny, where the
    native order already runs along the shorter side.  ``dirichlet_nodes``
    and ``band_order`` are read-only, as are the CSR index arrays that every
    matrix assembled on the mesh shares, since ``band_plan`` is built from
    them once.
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
        self.dirichlet_nodes.flags.writeable = False

        self.band_order = None
        if self.nx > self.ny:
            grid = np.arange(self.n_nodes).reshape(self.ny + 1, self.nx + 1)
            self.band_order = grid.T.ravel()
            self.band_order.flags.writeable = False

        self._build_reference_tables()
        self._build_csr_pattern()

    @cached_property
    def band_plan(self):
        """The ``BandPlan`` of every ``SpdSolver`` on this mesh."""
        return BandPlan(self)

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


def _check_residuals(op, x, b, rtol):
    """Raise ``NumericalError`` unless every column of ``x`` (or the vector
    itself) solves ``op x = b`` to relative residual ``rtol``; a NaN fails."""
    r = op @ x
    r -= b
    if x.ndim == 1:
        res2, ref2 = r @ r, b @ b
    else:
        res2, ref2 = np.einsum("ij,ij->j", r, r), np.einsum("ij,ij->j", b, b)
    if not (res2 <= rtol**2 * ref2).all():
        worst = float(np.sqrt(np.max(res2)))
        raise NumericalError(
            f"linear solve residual {worst:.3e} exceeds tolerance",
            residual=worst,
        )


def _same_memory(a, b):
    """True when ``a`` and ``b`` are read-only arrays over the same memory."""
    return (not a.flags.writeable and not b.flags.writeable
            and a.ctypes.data == b.ctypes.data and a.shape == b.shape
            and a.strides == b.strides and a.dtype == b.dtype)


class BandPlan:
    """Index work of ``SpdSolver`` that depends only on a mesh: its CSR
    pattern, Dirichlet nodes and band order (``Mesh.band_plan``).

    It holds the data entries zeroed by Dirichlet elimination and the pinned
    diagonal entries, the lower-triangle entries and their flat positions in
    the C-ordered (n, bw + 1) band, the bandwidth, and the order with its
    inverse permutation.
    """

    def __init__(self, mesh):
        n = mesh.n_nodes
        rows = np.repeat(np.arange(n), np.diff(mesh.csr_indptr))
        cols = mesh.csr_indices
        pinned = np.zeros(n, dtype=bool)
        pinned[mesh.dirichlet_nodes] = True
        self.zeroed = np.flatnonzero(pinned[rows] | pinned[cols])
        self.pinned_diag = np.flatnonzero(pinned[rows] & (rows == cols))
        self.order = mesh.band_order
        self.position = None
        if self.order is not None:
            self.position = np.empty(n, dtype=int)
            self.position[self.order] = np.arange(n)
            rows, cols = self.position[rows], self.position[cols]
        # Entry (i, j <= i) in band positions goes to row j, position i - j,
        # of a C-ordered (n, bw + 1) array; its transpose is LAPACK's lower
        # band storage.
        offset = rows - cols
        self.bandwidth = int(offset.max(initial=0))
        self.lower = np.flatnonzero(offset >= 0)
        self.band_slots = (cols[self.lower] * (self.bandwidth + 1)
                           + offset[self.lower])


class SpdSolver:
    """Cached factorization of an SPD operator assembled on a mesh, with
    Dirichlet elimination at the mesh's Dirichlet nodes.

    Dirichlet rows and columns are eliminated symmetrically on the CSR data
    (unit diagonal, lifted right-hand side), so the constrained operator
    stays SPD.  It is factorized by LAPACK banded Cholesky with the unknowns
    numbered by ``Mesh.band_order`` (native order when None), with the
    bandwidth read from the permuted sparsity pattern; an operator that is
    not positive definite raises ``NumericalError``.  Right-hand sides are
    permuted in and solutions out, so callers see native order only.  Every
    solve, block solves included, verifies the residual of each right-hand
    side against ``rtol`` (1e-10) on the native-order constrained operator
    and ticks the optional counter once per right-hand side.  A single
    right-hand side or a block of fewer than ``UPPER_MIN_COLUMNS`` columns is
    solved on the lower factor, a wider block on an upper-storage copy made
    at the first such solve.  A solve copies the right-hand sides once,
    gathered into band order and column-major layout, lets ``dpbtrs``
    overwrite that copy with the solution, and gathers it back to native
    order; the caller's array is never written.  The solver's results do not
    change after construction and it may be shared across independent
    right-hand sides.

    ``op`` must be a CSR matrix on the mesh's read-only pattern, as every
    matrix assembled on the mesh is; any other operator raises
    ``ValueError``.  The index work is the mesh's ``band_plan``
    (``self.plan``), so a solver only copies the data array, applies the
    Dirichlet index sets, scatters the lower triangle into the band and
    calls LAPACK.
    """

    rtol = 1e-10

    def __init__(self, mesh, op, counter=None):
        if not (getattr(op, "format", None) == "csr"
                and op.shape == (mesh.n_nodes, mesh.n_nodes)
                and _same_memory(op.indptr, mesh.csr_indptr)
                and _same_memory(op.indices, mesh.csr_indices)):
            raise ValueError("operator is not on the mesh's CSR pattern")
        self.op = op
        self.n = mesh.n_nodes
        self.counter = counter
        self.dirichlet = mesh.dirichlet_nodes
        self.plan = plan = mesh.band_plan
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
        # 0.36 ms for one); the copy takes about 0.4 ms, so a single block
        # pays for it only from about UPPER_MIN_COLUMNS columns on (a Monte
        # Carlo draw's factor serves one vector or one narrow block).  Row
        # bw - k of upper storage is row k of lower storage shifted right by k.
        lower = self._factor
        bw = lower.shape[0] - 1
        upper = np.zeros(lower.shape, order="F")
        for k in range(bw + 1):
            upper[bw - k, k:] = lower[k, :self.n - k]
        return upper

    def _raw_solve(self, b):
        """Solution of the constrained system for ``b`` (n,) or (n, k), in C
        order so that later sparse products need not copy the block; ``b``
        is left unchanged."""
        order = self.plan.order
        if b.ndim == 1 or b.shape[1] < UPPER_MIN_COLUMNS:
            factor, lower = self._factor, 1
        else:
            factor, lower = self._upper_factor, 0
        # the one copy in, already in LAPACK's column-major layout, which
        # dpbtrs then overwrites with the solution
        x = np.empty(b.shape, order="F")
        if order is None:
            x[...] = b
        else:
            np.take(b, order, axis=0, out=x)
        x, info = _PBTRS(factor, x, lower=lower, overwrite_b=1)
        if info != 0:
            raise ValueError(f"dpbtrs rejected argument {-info}")
        if order is None:
            return np.ascontiguousarray(x)
        return x[self.plan.position]

    def _checked(self, x, b):
        """Verify every column's residual, tick once per column, return x."""
        _check_residuals(self.constrained, x, b, self.rtol)
        if self.counter is not None:
            self.counter.tick(1 if x.ndim == 1 else x.shape[1])
        return x

    def _lifted(self, loads, bc_values):
        """Right-hand side (n,) or (n, k) with the Dirichlet data lifted out
        of every column and imposed on its Dirichlet rows."""
        b = np.array(loads, dtype=float)
        d = self.dirichlet
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


class SeparableSolver:
    """Direct solver for ``op = s (K_y (x) M_x + M_y (x) K_x) + t M_y (x) M_x``
    on a tensor-product grid with x numbered fastest, by fast
    diagonalization (Lynch, Rice and Thomas 1964, Numer. Math. 6).

    ``factors`` holds the 1D ``(mass, stiffness)`` pairs of the x axis, then
    of the y axis.  Their generalized eigenbases ``K V = M V diag(lam)``
    with ``V^T M V = I`` make ``V = V_y (x) V_x`` diagonalize ``op``:
    ``V^T op V = D`` with ``D = s (lam_y + lam_x) + t``, so
    ``op^{-1} = V D^{-1} V^T``: two small dense products per axis and one
    diagonal scaling, as batched ``matmul`` over an (ny, nx) grid per
    column, so a column has the same bits in a block of any width.  There
    are no Dirichlet rows and no counter.  Every solve checks each column's
    residual against the assembled ``op`` at ``rtol`` (1e-12) and raises
    ``NumericalError`` on a miss, also when the factors do not build ``op``.
    """

    rtol = 1e-12

    def __init__(self, op, factors, s, t):
        self.op = op
        (mass_x, stiff_x), (mass_y, stiff_y) = factors
        lam_x, self._vx = eigh(stiff_x.toarray(), mass_x.toarray())
        lam_y, self._vy = eigh(stiff_y.toarray(), mass_y.toarray())
        # contiguous transposes: 3.0 ms against 3.5 ms on transposed views
        # for 41 columns at 79x39 (one BLAS thread, 2-core x86-64)
        self._vxt = np.ascontiguousarray(self._vx.T)
        self._vyt = np.ascontiguousarray(self._vy.T)
        self._diag = s * (lam_y[:, None] + lam_x) + t

    def solve(self, b):
        """Solution for a vector (n,) or for each column of an (n, k) block,
        in C order; ``b`` is left unchanged."""
        b = np.asarray(b, dtype=float)
        k = 1 if b.ndim == 1 else b.shape[1]
        grids = b.T.reshape(k, *self._diag.shape)
        x = self._vy @ ((self._vyt @ grids @ self._vx) / self._diag) @ self._vxt
        x = np.ascontiguousarray(x.reshape(b.shape[::-1]).T)
        _check_residuals(self.op, x, b, self.rtol)
        return x

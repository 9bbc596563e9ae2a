"""Structured bilinear finite elements on a rectangle.

Q1 quadrilateral elements on a uniform grid with 2x2 Gauss quadrature,
sparse symmetric assembly into a CSR pattern cached per mesh, symmetric
Dirichlet elimination with lifted right-hand sides, cached banded Cholesky
factorizations in a band order that numbers the shorter side of the mesh
fastest, triangular solves that call LAPACK ``dpbtrs`` directly on one
column-major copy of the right-hand sides, and kernels for blocks of probe
fields.  The index work of a factorization depends only on the mesh (its
pattern, Dirichlet nodes and band order), so each mesh builds it once as
the read-only ``Mesh.dirichlet_slots`` and ``Mesh.band_plan`` that every
``SpdSolver`` on the mesh uses.  ``SpdSolver`` is the one solver front
end: every SPD solve of the library, with or without Dirichlet rows,
goes through it and through its one residual check and solve count.
Constant-coefficient operators are Kronecker sums and products of 1D
tridiagonal matrices, and its ``FastDiagonalization`` backend solves them
in their ``TensorBasis`` instead of a factorization: the mass matrix and
the shifted stiffness of a covariance, which have no Dirichlet rows, and
the stiffness of a constant coefficient with the left and right sides
pinned.  Only variable-coefficient operators are factorized.
Assembled matrices and every vector in and out of a solver stay in the
mesh's native node order.
All elements are congruent axis-aligned rectangles, so the reference-element
tables are shared and every loop is vectorized over elements.
"""

from __future__ import annotations

import threading
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
    order has bandwidth min(nx, ny) + 2; it is the identity when nx <= ny,
    where the native order already runs along the shorter side.
    ``dirichlet_nodes`` and ``band_order`` are read-only, as are the CSR
    index arrays that every matrix assembled on the mesh shares, since
    ``band_plan`` is built from them once.
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

        grid = np.arange(self.n_nodes).reshape(self.ny + 1, self.nx + 1)
        self.band_order = (grid.T if self.nx > self.ny else grid).ravel()
        self.band_order.flags.writeable = False

        self._build_reference_tables()
        self._build_csr_pattern()

    @cached_property
    def band_plan(self):
        """The ``BandPlan`` of every banded ``SpdSolver`` on this mesh."""
        return BandPlan(self)

    @cached_property
    def factors(self):
        """1D ``(mass, stiffness)`` pairs of the x axis, then of the y axis,
        whose Kronecker products and sums are the Q1 mass and stiffness."""
        return tuple((mass_matrix_1d(n, h), stiffness_matrix_1d(n, h))
                     for n, h in ((self.nx, self.hx), (self.ny, self.hy)))

    @cached_property
    def free_basis(self):
        """The ``TensorBasis`` of the x nodes between the pinned left and
        right sides, shared by every fast ``SpdSolver`` on the mesh."""
        return TensorBasis(self.factors, slice(1, -1))

    @cached_property
    def dirichlet_slots(self):
        """Positions in the CSR data of the entries that Dirichlet elimination
        zeroes (those in a Dirichlet row or column) and of the Dirichlet
        diagonal entries, which it sets to one."""
        rows = np.repeat(np.arange(self.n_nodes), np.diff(self.csr_indptr))
        cols = self.csr_indices
        pinned = np.zeros(self.n_nodes, dtype=bool)
        pinned[self.dirichlet_nodes] = True
        return (np.flatnonzero(pinned[rows] | pinned[cols]),
                np.flatnonzero(pinned[rows] & (rows == cols)))

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

    # np.take(..., axis=0) gathers the same bits as fancy indexing, faster:
    # 13 against 17 us per field at 79x39, 17 against 25 us per chunk of
    # _pair_sums at 40 columns (one BLAS thread, 2-core x86-64 VM)

    def interp_gauss(self, f):
        """Nodal field -> values at the 4 Gauss points of every element."""
        return np.take(f, self.conn, axis=0) @ self.phi.T

    def grad_gauss(self, u):
        """Nodal field -> gradient components at Gauss points, (gx, gy)."""
        uc = np.take(u, self.conn, axis=0)
        return uc @ self.dphx.T, uc @ self.dphy.T


def build_mesh(nx, ny, lx, ly):
    """Build a structured rectangle mesh."""
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
        Ac, Vc = np.take(A, conn, axis=0), np.take(V, conn, axis=0)
        P[j:j + PAIR_CHUNK] = (Ac @ Vc.transpose(0, 2, 1)).reshape(-1, 16)
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
    """Counts PDE solves; a cost is the difference of two readings.

    Every solve ticks, auxiliary work (the eigenbasis set-up) included.
    Ticks are serialized by a lock.  The library itself solves on one
    thread, but a caller may share a problem and its solvers across threads
    of its own, and the count must stay exact then too.
    """

    def __init__(self):
        self.count = 0
        self._lock = threading.Lock()

    def tick(self, n=1):
        with self._lock:
            self.count += n


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
    """Index work of a banded ``SpdSolver`` that depends only on a mesh: its
    CSR pattern and band order (``Mesh.band_plan``).

    It holds the lower-triangle entries and their flat positions in the
    C-ordered (n, bw + 1) band, the bandwidth, and the order with its
    inverse permutation.
    """

    def __init__(self, mesh):
        n = mesh.n_nodes
        rows = np.repeat(np.arange(n), np.diff(mesh.csr_indptr))
        cols = mesh.csr_indices
        self.order = mesh.band_order
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
    """The one solver of the library: an SPD operator ``op`` on a mesh, with
    Dirichlet elimination at the mesh's Dirichlet nodes, or on a field space
    (the mass matrix or a covariance operator) when ``mesh`` is None.

    On a mesh, Dirichlet rows and columns are eliminated symmetrically on the
    CSR data (unit diagonal, lifted right-hand side), so the constrained
    operator stays SPD; ``op`` must be a CSR matrix on the mesh's read-only
    pattern, as every matrix assembled on the mesh is, and any other
    operator raises ``ValueError``.  On a field space nothing is pinned and
    the right-hand sides are solved as given.

    The raw solve has two backends.  ``fast=(basis, s, t)`` selects
    ``FastDiagonalization`` in a ``TensorBasis``, for an operator whose free
    block is ``s (K_y (x) M_x + M_y (x) K_x) + t M_y (x) M_x``: on a mesh
    the basis is ``mesh.free_basis``, of the interior x nodes (the left and
    right sides are the Dirichlet nodes), and the Dirichlet rows are copied
    from the lifted right-hand side; on a field space it is the space's
    ``basis``.  Otherwise the constrained operator is factorized by LAPACK
    banded Cholesky on the mesh's ``band_plan`` (``self.plan``), with the
    unknowns numbered by ``Mesh.band_order``;
    an operator that is not positive definite raises ``NumericalError``.  A
    single right-hand side or a block of fewer than ``UPPER_MIN_COLUMNS``
    columns is solved on the lower factor, a wider block on an
    upper-storage copy made at the first such solve.  A banded solve copies
    the right-hand sides once, gathered into band order and column-major
    layout, lets ``dpbtrs`` overwrite that copy with the solution, and
    gathers it back to native order; the caller's array is never written.

    Every solve, block solves included, goes through ``_checked``: it
    verifies the residual of each right-hand side on the constrained
    operator against ``rtol`` (1e-10 on a mesh, 1e-12 on a field space) and
    ticks the optional counter once per right-hand side.  The solver's
    results do not change after construction and it may be shared across
    independent right-hand sides.
    """

    def __init__(self, mesh, op, counter=None, fast=None):
        self.op = op
        self.n = op.shape[0]
        self.counter = counter
        if mesh is None:
            self.rtol, self.dirichlet, self.constrained = 1e-12, None, op
        else:
            self.rtol, self.dirichlet = 1e-10, mesh.dirichlet_nodes
            self.constrained = _eliminated(mesh, op)
        self.fast = None
        if fast is not None:
            basis, s, t = fast
            self.fast = FastDiagonalization(basis, basis.eigenvalues(s, t))
        else:
            self.plan = mesh.band_plan
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
        if self.fast is not None:
            return self.fast.solve(b)
        if b.ndim == 1 or b.shape[1] < UPPER_MIN_COLUMNS:
            factor, lower = self._factor, 1
        else:
            factor, lower = self._upper_factor, 0
        # the one copy in, already in LAPACK's column-major layout, which
        # dpbtrs then overwrites with the solution
        x = np.empty(b.shape, order="F")
        np.take(b, self.plan.order, axis=0, out=x)
        x, info = _PBTRS(factor, x, lower=lower, overwrite_b=1)
        if info != 0:
            raise ValueError(f"dpbtrs rejected argument {-info}")
        return x[self.plan.position]

    def _checked(self, x, b):
        """Verify every column's residual, tick once per column, return x."""
        _check_residuals(self.constrained, x, b, self.rtol)
        if self.counter is not None:
            self.counter.tick(1 if x.ndim == 1 else x.shape[1])
        return x

    def _lifted(self, loads, bc_values):
        """Right-hand side (n,) or (n, k) with the Dirichlet data lifted out
        of every column and imposed on its Dirichlet rows; on a field space,
        the loads themselves, uncopied."""
        d = self.dirichlet
        if d is None:
            return np.asarray(loads, dtype=float)
        b = np.array(loads, dtype=float)
        bt = b.T  # a view with one column per row, or the vector itself
        if np.any(bc_values):
            lift = np.zeros(self.n)
            lift[d] = bc_values
            bt -= self.op @ lift
        bt[..., d] = bc_values
        return b

    def solve(self, loads, bc_values=0.0):
        """Solve the constrained system for one right-hand side (n,) or for
        each column of an (n, k) block; every column is checked and counted
        alike.

        ``bc_values`` holds the Dirichlet data on a mesh that every column
        shares, either a scalar or one value per Dirichlet node
        (homogeneous by default); the result contains them exactly.
        """
        b = self._lifted(loads, bc_values)
        return self._checked(self._raw_solve(b), b)

    # block solves keep their own name, by which bench/tracer.py counts columns
    solve_many = solve

    def apply_inverse(self, b):
        """Homogeneous-BC solve of a vector (n,) or of each column of (n, k)."""
        return self.solve(b) if np.ndim(b) == 1 else self.solve_many(b)


def _eliminated(mesh, op):
    """``op`` with the mesh's Dirichlet rows and columns zeroed and a unit
    diagonal at the Dirichlet nodes, on the same read-only CSR pattern."""
    if not (getattr(op, "format", None) == "csr"
            and op.shape == (mesh.n_nodes, mesh.n_nodes)
            and _same_memory(op.indptr, mesh.csr_indptr)
            and _same_memory(op.indices, mesh.csr_indices)):
        raise ValueError("operator is not on the mesh's CSR pattern")
    zeroed, pinned_diag = mesh.dirichlet_slots
    data = op.data.copy()
    data[zeroed] = 0.0
    data[pinned_diag] = 1.0
    return sp.csr_matrix((data, op.indices, op.indptr), shape=op.shape)


class TensorBasis:
    """The M-orthonormal eigenbasis ``Phi = V_y (x) V_x`` of the 1D
    ``(mass, stiffness)`` pairs ``factors`` (x axis, then y axis) on a grid
    with x numbered fastest, over the x nodes ``x_free`` (all by default,
    ``slice(1, -1)`` when the x end nodes are pinned).  With ``K V = M V
    diag(lam)`` and ``V^T M V = I`` per axis, ``Phi^T M Phi = I`` and
    ``Phi^T K Phi = lam_y + lam_x`` for ``M = M_y (x) M_x`` and ``K =
    K_y (x) M_x + M_y (x) K_x`` (Lynch, Rice and Thomas 1964, Numer. Math.
    6).  A transform is two small dense products per column, as batched
    ``matmul`` over an (ny, nx) grid read from a strided view, so a column
    has the same bits in a block of any width.
    """

    def __init__(self, factors, x_free=slice(None)):
        (mass_x, stiff_x), (mass_y, stiff_y) = factors
        self.grid, self.x_free = (mass_y.shape[0], mass_x.shape[0]), x_free
        free = (x_free, x_free)
        self.lam_x, vx = eigh(stiff_x.toarray()[free], mass_x.toarray()[free])
        self.lam_y, vy = eigh(stiff_y.toarray(), mass_y.toarray())
        # eigh returns Fortran-ordered factors, on which the stacked matmuls
        # take a slower path: with all four factors C-contiguous a 40-column
        # solve at 79x39 takes 2.47 against 2.82 ms, and a vector 52 against
        # 60 us (interleaved runs, one BLAS thread, 2-core x86-64 VM)
        self.vx, self.vy = np.ascontiguousarray(vx), np.ascontiguousarray(vy)
        self.vxt = np.ascontiguousarray(vx.T)
        self.vyt = np.ascontiguousarray(vy.T)
        x = np.arange(self.grid[1])
        self.x_pinned = np.setdiff1d(x, x[x_free])

    def eigenvalues(self, s, t):
        """(ny, free nx) grid of the eigenvalues of ``s K + t M``."""
        return s * (self.lam_y[:, None] + self.lam_x) + t

    def full_grid(self, b):
        """(k, ny, nx) view of the unknowns of (n,) or (n, k)."""
        k = 1 if b.ndim == 1 else b.shape[1]
        return b.T.reshape(k, *self.grid)

    def free_grid(self, b):
        """(k, ny, free nx) view of the free unknowns of (n,) or (n, k)."""
        return self.full_grid(b)[..., self.x_free]

    def to_coefficients(self, b):
        """``Phi^T b`` for loads (n,) or (n, k) when every node is free, in
        the shape of ``b`` and C order; ``to_fields`` is ``Phi c`` likewise."""
        return _flat(self.vyt @ self.free_grid(b) @ self.vx, b.shape)

    def to_fields(self, c):
        return _flat(self.vy @ self.free_grid(c) @ self.vxt, c.shape)


def _flat(grid, shape):
    return np.ascontiguousarray(grid.reshape(grid.shape[0], -1).T).reshape(shape)


class FastDiagonalization:
    """``Phi diag^{-1} Phi^T`` on the free unknowns, for a (ny, free nx) grid
    ``diag`` in a ``TensorBasis``.  As the fast backend of ``SpdSolver`` it
    solves with ``s K + t M``, whose diagonal is ``basis.eigenvalues(s, t)``;
    with the squared diagonal of a covariance's A it is C M^{-1}."""

    def __init__(self, basis, diag):
        self.basis = basis
        self.diag = diag

    def solve(self, b):
        """C-ordered array of the shape of ``b`` (n,) or (n, k) with the free
        unknowns of every column solved for and the pinned ones copied from
        ``b``, which is left unchanged.

        The free grid is copied into one of two buffers that the four
        transforms alternate between, and the diagonal divides in place."""
        p = self.basis
        g = np.array(p.free_grid(b), dtype=float, order="C")
        c = p.vyt @ g
        np.matmul(c, p.vx, out=g)
        g /= self.diag
        np.matmul(p.vy, g, out=c)
        np.matmul(c, p.vxt, out=g)
        out = np.empty(b.shape)
        grid = p.full_grid(out)  # a view, since out is C-ordered
        grid[..., p.x_free] = g
        grid[..., p.x_pinned] = p.full_grid(b)[..., p.x_pinned]
        return out

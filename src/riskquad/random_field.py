"""Gaussian random fields with squared-inverse-elliptic covariance.

The law is N(mean, s*C) with C discretized as A^{-1} M A^{-1} where
A = kappa*K + alpha*M is a shifted stiffness with natural boundary
conditions and M is the mass matrix.  All inner products are M-weighted, so
the covariance action on a field f is A^{-1} M A^{-1} M f, which is
self-adjoint and positive in the M inner product, and A^{-1} M is its exact
M-self-adjoint square root.

On the structured grid, M and K are Kronecker products and sums of 1D
tridiagonal matrices, so solves with A and with M are made by fast
diagonalization (``fem.SeparableSolver``), not by a factorization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .fem import (
    SeparableSolver,
    assemble_mass,
    assemble_weighted_stiffness,
    mass_matrix_1d,
    stiffness_matrix_1d,
)

EIG_TOL = 1e-8     # relative accuracy of the Lanczos eigenvalues
COLOR_CHUNK = 256  # most draws colored per block solve in sample_batch


class FieldSpace:
    """Discrete L2 space: mass matrix, its exact Cholesky factor, and the
    natural-boundary stiffness used to build covariance operators.

    ``factors`` holds the 1D ``(mass, stiffness)`` pairs of the x axis and
    of the y axis (x numbered fastest) whose Kronecker products and sums are
    the assembled ``mass = M_y (x) M_x`` and ``natural_stiffness =
    K_y (x) M_x + M_y (x) K_x``.  They give the Cholesky factor
    ``sqrt_mass = L_y (x) L_x`` and the ``SeparableSolver`` of the mass
    projection and of every covariance operator on the space.
    ``node_index`` maps local degrees of freedom to nodes of the parent mesh
    (identity for volume spaces, a boundary gather for trace spaces).
    """

    def __init__(self, mass, natural_stiffness, factors, node_index=None):
        self.mass = mass.tocsr()
        self.natural_stiffness = natural_stiffness.tocsr()
        self.factors = factors
        (mass_x, _), (mass_y, _) = factors
        self.sqrt_mass = sp.kron(_cholesky(mass_y), _cholesky(mass_x)).tocsr()
        self._sqrt_mass_t = self.sqrt_mass.T.tocsr()
        self.dim = self.mass.shape[0]
        self.node_index = (
            np.arange(self.dim) if node_index is None else np.asarray(node_index)
        )
        self._projector = SeparableSolver(self.mass, factors, 0.0, 1.0)

    def inner(self, u, v):
        """Discrete L2 inner product <u, M v>."""
        return float(np.asarray(u) @ (self.mass @ np.asarray(v)))

    def norm(self, u):
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def project(self, load):
        """Nodal representation of a linear functional (n,) or of each column
        of an (n, k) block: solve M g = load."""
        return self._projector.solve(load)

    def orthonormalize(self, B):
        """M-orthonormalize the columns of B via QR in the L^T image."""
        W = self._sqrt_mass_t @ B
        Qw, R = np.linalg.qr(W)
        if np.min(np.abs(np.diag(R))) < 1e-12 * max(np.max(np.abs(np.diag(R))), 1e-30):
            raise NumericalError("rank-deficient block in M-orthonormalization")
        return spla.spsolve_triangular(self._sqrt_mass_t, Qw, lower=False)

    def eigenpairs(self, op, k, seed):
        """The k eigenpairs of largest |eigenvalue| of a linear map ``op`` on
        fields that is self-adjoint in the M inner product.

        ARPACK Lanczos (``eigsh`` mode 2 on M op x = lambda M x) from a normal
        vector drawn with ``seed``, to relative accuracy ``EIG_TOL``, at one
        action of ``op`` per step; k = dim, which ARPACK cannot take, is a
        dense Rayleigh-Ritz on an M-orthonormal basis.
        """
        n = self.dim
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= dimension")
        v0 = np.random.default_rng(seed).standard_normal(n)
        if np.max(np.abs(op(v0))) < 1e-300:
            return EigenBasis(np.zeros(k), self.orthonormalize(np.eye(n, k)))
        if k == n:
            Q = self.orthonormalize(np.eye(n))
            lam, V = np.linalg.eigh(Q.T @ (self.mass @ op(Q)))
            vectors = Q @ V
        else:
            A = spla.LinearOperator((n, n), lambda x: self.mass @ op(x), dtype=float)
            Minv = spla.LinearOperator((n, n), self.project, dtype=float)
            try:
                lam, vectors = spla.eigsh(A, k, M=self.mass, Minv=Minv, which="LM",
                                          tol=EIG_TOL, v0=v0)
            except spla.ArpackNoConvergence as exc:
                raise NumericalError(f"Lanczos eigensolver: {exc}") from exc
        order = np.argsort(-lam)
        return EigenBasis(lam[order], vectors[:, order])


def _cholesky(spd):
    """Lower Cholesky factor of a small sparse SPD matrix, as sparse CSR."""
    return sp.csr_matrix(np.linalg.cholesky(spd.toarray()))


def _segment(n_elems, h):
    """The 1D (mass, stiffness) pair of a segment of linear elements."""
    return mass_matrix_1d(n_elems, h), stiffness_matrix_1d(n_elems, h)


def volume_space(mesh):
    """Q1 space over all mesh nodes."""
    return FieldSpace(
        mass=assemble_mass(mesh),
        natural_stiffness=assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes)),
        factors=(_segment(mesh.nx, mesh.hx), _segment(mesh.ny, mesh.hy)),
    )


def neumann_trace_space(mesh):
    """1D space over the nodes of the Neumann (bottom and top) sides.

    Each side contributes an independent segment (its own 1D mass and
    stiffness block); degrees of freedom are the bottom nodes, then the top
    nodes.  The side is the y axis of the factors, with mass I_2 and no
    stiffness.
    """
    mass, stiff = _segment(mesh.nx, mesh.hx)
    sides = (sp.identity(2, format="csr"), sp.csr_matrix((2, 2)))
    return FieldSpace(
        mass=sp.block_diag([mass, mass]),
        natural_stiffness=sp.block_diag([stiff, stiff]),
        factors=((mass, stiff), sides),
        node_index=np.concatenate([mesh.side_nodes("bottom"),
                                   mesh.side_nodes("top")]),
    )


@dataclass
class EigenBasis:
    """M-orthonormal eigenvectors (columns) with eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


class GaussianField:
    """Gaussian measure N(mean, scale*C) on a FieldSpace, C = A^{-1} M A^{-1}.

    ``solver_A`` solves with A by fast diagonalization on the space's 1D
    factors; it serves every covariance action and every draw.
    Immutable after construction: ``scale`` starts at 1 and only
    ``scaled`` changes it, on a new view.  Every draw takes an explicit
    seed or generator, so concurrent batches can partition the seed space.
    """

    def __init__(self, space, kappa, alpha, mean=None):
        if kappa <= 0.0 or alpha <= 0.0:
            raise ValueError("kappa and alpha must be positive")
        self.space = space
        self.kappa = float(kappa)
        self.alpha = float(alpha)
        self.scale = 1.0
        self.mean = (
            np.zeros(space.dim) if mean is None else np.asarray(mean, dtype=float)
        )
        if self.mean.shape != (space.dim,):
            raise ValueError("mean has wrong length")
        A = kappa * space.natural_stiffness + alpha * space.mass
        self.solver_A = SeparableSolver(A, space.factors, self.kappa, self.alpha)

    @property
    def dim(self):
        return self.space.dim

    def scaled(self, factor):
        """A view of the same field with covariance multiplied by ``factor``."""
        if not factor >= 0.0:
            raise ValueError("covariance scale factor must be nonnegative")
        other = object.__new__(GaussianField)
        other.__dict__.update(self.__dict__)
        other.scale = self.scale * float(factor)
        return other

    # -- covariance actions -------------------------------------------------

    def apply_C(self, f):
        """Covariance action on a field or on each column of a block:
        scale * A^{-1} M A^{-1} M f."""
        return self.apply_C_to_loads(self.space.mass @ np.asarray(f))

    def apply_C_to_loads(self, loads):
        """Covariance action on the dual vectors (loads) in a vector or in
        the columns of a block: C M^{-1} load = scale * A^{-1} M A^{-1} load,
        as fields."""
        y = self.solver_A.solve(loads)
        return self.scale * self.solver_A.solve(self.space.mass @ y)

    def apply_sqrt_C(self, f):
        """M-self-adjoint square root action on a field or on each column of
        a block: sqrt(scale) * A^{-1} M f."""
        y = self.solver_A.solve(self.space.mass @ np.asarray(f))
        return np.sqrt(self.scale) * y

    # -- sampling -------------------------------------------------------------

    def _colored(self, normals):
        """Map standard normals to zero-mean draws with covariance matrix
        scale * A^{-1} M A^{-1} (nodal values)."""
        y = self.solver_A.solve(self.space.sqrt_mass @ normals)
        return np.sqrt(self.scale) * y

    def sample(self, rng):
        """One draw from N(mean, scale*C) with the generator ``rng``."""
        return self.mean + self._colored(rng.standard_normal(self.dim))

    def sample_batch(self, n, seed):
        """(dim, n) matrix of independent draws, deterministic per seed."""
        draws = self.zero_mean_batch(n, seed)
        draws += self.mean[:, None]
        return draws

    def zero_mean_batch(self, n, seed):
        """(dim, n) zero-mean draws with covariance scale*C.

        The normals are drawn in one piece, so the random stream does not
        depend on the chunking, and are colored in place in chunks of at most
        ``COLOR_CHUNK`` columns: the peak memory is the output plus one
        chunk's temporaries.
        """
        draws = np.random.default_rng(seed).standard_normal((self.dim, n))
        for a in range(0, n, COLOR_CHUNK):
            chunk = draws[:, a:a + COLOR_CHUNK]
            chunk[...] = self._colored(chunk)
        return draws

    # -- spectral machinery ---------------------------------------------------

    def preconditioned_eigenpairs(self, hess_action, k, seed=7):
        """Dominant eigenpairs of sqrt(C) H sqrt(C) without forming matrices,
        by ``FieldSpace.eigenpairs``; ``hess_action`` must be self-adjoint in
        the M inner product and act on a field and on a block of fields."""
        return self.space.eigenpairs(
            lambda f: self.apply_sqrt_C(hess_action(self.apply_sqrt_C(f))), k, seed
        )


def field_on_mesh(mesh, kappa, alpha, mean=None):
    """Gaussian field over the volume nodes of a mesh."""
    return GaussianField(volume_space(mesh), kappa, alpha, mean=mean)


def field_on_neumann_boundary(mesh, kappa, alpha, mean=None):
    """Gaussian field over the Neumann-boundary trace space of a mesh."""
    return GaussianField(neumann_trace_space(mesh), kappa, alpha, mean=mean)

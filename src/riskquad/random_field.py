"""Gaussian random fields with squared-inverse-elliptic covariance.

The law is N(mean, s*C) with C discretized as A^{-1} M A^{-1} where
A = kappa*K + alpha*M is a shifted stiffness with natural boundary
conditions and M is the mass matrix.  All inner products are M-weighted, so
the covariance action on a field f is A^{-1} M A^{-1} M f, which is
self-adjoint and positive in the M inner product, and A^{-1} M is its exact
M-self-adjoint square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .fem import (
    SpdSolver,
    assemble_mass,
    assemble_weighted_stiffness,
    cholesky_sparse,
    mass_cholesky,
    mass_matrix_1d,
    stiffness_matrix_1d,
)

EIG_TOL = 1e-8        # relative change of the leading Ritz values at convergence
EIG_MAX_SWEEPS = 300  # subspace sweeps before the eigensolver gives up
EIG_OVERSAMPLE = 8    # extra subspace vectors beyond the k requested
COLOR_CHUNK = 256     # most draws colored per block solve in sample_batch


class FieldSpace:
    """Discrete L2 space: mass matrix, its exact Cholesky factor, and the
    natural-boundary stiffness used to build covariance operators.

    ``node_index`` maps local degrees of freedom to nodes of the parent mesh
    (identity for volume spaces, a boundary gather for trace spaces).
    ``order`` is the band order its solvers factorize in (``Mesh.band_order``
    for volume spaces; None keeps the native order of the tridiagonal trace
    spaces).
    """

    def __init__(self, mass, sqrt_mass, natural_stiffness, node_index=None,
                 order=None):
        self.mass = mass.tocsr()
        self.sqrt_mass = sqrt_mass.tocsr()
        self._sqrt_mass_t = self.sqrt_mass.T.tocsr()
        self.natural_stiffness = natural_stiffness.tocsr()
        self.dim = self.mass.shape[0]
        self.node_index = (
            np.arange(self.dim) if node_index is None else np.asarray(node_index)
        )
        self.order = order
        self._projector = SpdSolver(self.mass, rtol=1e-12, order=order)

    def inner(self, u, v):
        """Discrete L2 inner product <u, M v>."""
        return float(np.asarray(u) @ (self.mass @ np.asarray(v)))

    def norm(self, u):
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def project(self, load):
        """Nodal representation of a linear functional (n,) or of each column
        of an (n, k) block: solve M g = load."""
        return self._projector.apply_inverse(load)

    def orthonormalize(self, B):
        """M-orthonormalize the columns of B via QR in the L^T image."""
        W = self._sqrt_mass_t @ B
        Qw, R = np.linalg.qr(W)
        if np.min(np.abs(np.diag(R))) < 1e-12 * max(np.max(np.abs(np.diag(R))), 1e-30):
            raise NumericalError("rank-deficient block in M-orthonormalization")
        return spla.spsolve_triangular(self._sqrt_mass_t, Qw, lower=False)


def volume_space(mesh):
    """Q1 space over all mesh nodes."""
    return FieldSpace(
        mass=assemble_mass(mesh),
        sqrt_mass=mass_cholesky(mesh),
        natural_stiffness=assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes)),
        order=mesh.band_order,
    )


def neumann_trace_space(mesh):
    """1D space over the nodes of the Neumann (bottom and top) sides.

    Each side contributes an independent segment (its own 1D mass and
    stiffness block); degrees of freedom are the bottom nodes, then the top
    nodes.
    """
    mass = mass_matrix_1d(mesh.nx, mesh.hx)
    chol = cholesky_sparse(mass.toarray())
    stiff = stiffness_matrix_1d(mesh.nx, mesh.hx)
    return FieldSpace(
        mass=sp.block_diag([mass, mass]),
        sqrt_mass=sp.block_diag([chol, chol]),
        natural_stiffness=sp.block_diag([stiff, stiff]),
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
        self.solver_A = SpdSolver(A, rtol=1e-12, order=space.order)

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
        y = self.solver_A.apply_inverse(loads)
        return self.scale * self.solver_A.apply_inverse(self.space.mass @ y)

    def apply_sqrt_C(self, f):
        """M-self-adjoint square root action on a field or on each column of
        a block: sqrt(scale) * A^{-1} M f."""
        y = self.solver_A.apply_inverse(self.space.mass @ np.asarray(f))
        return np.sqrt(self.scale) * y

    # -- sampling -------------------------------------------------------------

    def _colored(self, normals):
        """Map standard normals to zero-mean draws with covariance matrix
        scale * A^{-1} M A^{-1} (nodal values)."""
        y = self.solver_A.apply_inverse(self.space.sqrt_mass @ normals)
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
        depend on the chunking, and are colored in place in near-equal
        chunks of at most ``COLOR_CHUNK`` columns: the peak memory is the
        output plus one chunk's temporaries.  A chunk is narrower than
        ``COLOR_CHUNK / 2`` only when n is, so each column gets the same
        block solve, and the same bits, as a one-shot coloring.
        """
        draws = np.random.default_rng(seed).standard_normal((self.dim, n))
        k = max(1, -(-n // COLOR_CHUNK))
        bounds = [n * i // k for i in range(k + 1)]
        for a, b in zip(bounds, bounds[1:]):
            draws[:, a:b] = self._colored(draws[:, a:b])
        return draws

    # -- spectral machinery ---------------------------------------------------

    def preconditioned_eigenpairs(self, hess_action, k, seed=7):
        """Dominant eigenpairs of sqrt(C) H sqrt(C) without forming matrices.

        ``hess_action`` must be self-adjoint in the M inner product and act
        on each column of an (n, b) block.  Block subspace iteration on
        k + ``EIG_OVERSAMPLE`` vectors with M-orthonormalization and
        Rayleigh-Ritz extraction, one block Hessian action per sweep, until
        the leading k Ritz values change by less than ``EIG_TOL`` relatively
        (at most ``EIG_MAX_SWEEPS``).  Returned vectors are M-orthonormal.
        """
        n = self.dim
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= dimension")
        b = min(n, k + EIG_OVERSAMPLE)
        rng = np.random.default_rng(seed)
        Q = self.space.orthonormalize(rng.standard_normal((n, b)))
        lam_prev = None
        for _ in range(EIG_MAX_SWEEPS):
            Y = self.apply_sqrt_C(hess_action(self.apply_sqrt_C(Q)))
            if np.max(np.abs(Y)) < 1e-300:
                return EigenBasis(np.zeros(k), Q[:, :k])
            S = Q.T @ (self.space.mass @ Y)
            S = 0.5 * (S + S.T)
            lam, V = np.linalg.eigh(S)
            order = np.argsort(-np.abs(lam))
            lam, V = lam[order], V[:, order]
            if lam_prev is not None:
                denom = np.maximum(np.abs(lam[:k]), 1e-300)
                if np.max(np.abs(lam[:k] - lam_prev) / denom) <= EIG_TOL:
                    ritz = Q @ V[:, :k]
                    final = np.argsort(-lam[:k])
                    return EigenBasis(lam[:k][final], ritz[:, final])
            lam_prev = lam[:k]
            Q = self.space.orthonormalize(Y @ V)
        raise NumericalError("subspace iteration exhausted its budget")


def field_on_mesh(mesh, kappa, alpha, mean=None):
    """Gaussian field over the volume nodes of a mesh."""
    return GaussianField(volume_space(mesh), kappa, alpha, mean=mean)


def field_on_neumann_boundary(mesh, kappa, alpha, mean=None):
    """Gaussian field over the Neumann-boundary trace space of a mesh."""
    return GaussianField(neumann_trace_space(mesh), kappa, alpha, mean=mean)

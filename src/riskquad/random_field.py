"""Gaussian random fields with squared-inverse-elliptic covariance.

The law is N(mean, s*C) with C discretized as A^{-1} M A^{-1} where
A = kappa*K + alpha*M is a shifted stiffness with natural boundary
conditions and M is the mass matrix.  All inner products are M-weighted, so
the covariance action on a field f is A^{-1} M A^{-1} M f, which is
self-adjoint and positive in the M inner product, and A^{-1} M is its exact
M-self-adjoint square root.

On the structured grid, M and K are Kronecker products and sums of 1D
tridiagonal matrices, so each space owns the M-orthonormal eigenbasis
Phi = V_y (x) V_x of its 1D factors (``fem.TensorBasis``): Phi^T M Phi = I
and Phi^T A Phi = D is diagonal.  Solves with A and with M are made in it
by the fast-diagonalization backend of ``fem.SpdSolver``; the solves with
A color the draws.  The covariance actions need no solve: s C M^{-1} =
s Phi D^{-2} Phi^T and sqrt(s C) = sqrt(s) Phi D^{-1} Phi^T M, two basis
transforms each (``fem.FastDiagonalization``).  In Phi coefficients
sqrt(C) is the diagonal d = sqrt(s) / D and an M-self-adjoint operator is
a symmetric matrix, so the covariance-preconditioned eigenproblem is a
standard symmetric one that needs no mass or covariance solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .fem import (
    FastDiagonalization,
    SpdSolver,
    TensorBasis,
    assemble_mass,
    assemble_weighted_stiffness,
)

EIG_TOL = 1e-8     # relative accuracy of the Lanczos eigenvalues
COLOR_CHUNK = 256  # most draws colored per block solve in sample_batch


class FieldSpace:
    """Discrete L2 space: mass matrix, its exact Cholesky factor, the
    natural-boundary stiffness used to build covariance operators, and the
    eigenbasis of both.

    ``factors`` holds the 1D ``(mass, stiffness)`` pairs of the x axis and
    of the y axis (x numbered fastest) whose Kronecker products and sums are
    the assembled ``mass = M_y (x) M_x`` and ``natural_stiffness =
    K_y (x) M_x + M_y (x) K_x``.  They give the Cholesky factor
    ``sqrt_mass = L_y (x) L_x`` and the ``TensorBasis`` ``basis`` (Phi, with
    the transforms ``to_coefficients`` and ``to_fields``) that the mass
    projection (``_projector``) and every covariance operator on the space
    solve in; a space whose matrices Phi does not diagonalize raises
    ``NumericalError`` (checked once, on a seeded block).
    ``node_index`` maps local degrees of freedom to nodes of the parent mesh
    (identity for volume spaces, a boundary gather for trace spaces).
    """

    def __init__(self, mass, natural_stiffness, factors, node_index=None):
        self.mass = mass.tocsr()
        self.natural_stiffness = natural_stiffness.tocsr()
        self.factors = factors
        (mass_x, _), (mass_y, _) = factors
        self.sqrt_mass = sp.kron(_cholesky(mass_y), _cholesky(mass_x)).tocsr()
        self.dim = self.mass.shape[0]
        self.node_index = (
            np.arange(self.dim) if node_index is None else np.asarray(node_index)
        )
        self.basis = TensorBasis(factors)
        self.to_coefficients = self.basis.to_coefficients
        self.to_fields = self.basis.to_fields
        _check_diagonal(self.basis, self.natural_stiffness + self.mass,
                        self.basis.eigenvalues(1.0, 1.0))
        self._projector = SpdSolver(None, self.mass, fast=(self.basis, 0.0, 1.0))

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
        """M-orthonormalize the columns of B via QR in Phi coefficients."""
        Q, R = np.linalg.qr(self.to_coefficients(self.mass @ B))
        if np.min(np.abs(np.diag(R))) < 1e-12 * max(np.max(np.abs(np.diag(R))), 1e-30):
            raise NumericalError("rank-deficient block in M-orthonormalization")
        return self.to_fields(Q)

    def eigenpairs(self, form, k, seed, weights=None):
        """The k eigenpairs of largest |eigenvalue| of the M-self-adjoint
        ``W M^{-1} form W``, for a symmetric ``form`` from fields (a vector or
        a block) to loads and ``W = Phi diag(weights) Phi^T M`` (identity
        without ``weights``).

        In Phi coefficients the map is the symmetric ``y -> w * Phi^T
        form(Phi (w * y))``, so ARPACK Lanczos runs in standard mode (mode 1)
        from ``Phi^T M v0``, v0 normal with ``seed``, to relative accuracy
        ``EIG_TOL`` at one action of ``form`` per step; k = dim, which ARPACK
        cannot take, is a dense Rayleigh-Ritz on Phi.  A zero operator
        (ARPACK error -9: its start vector, the first action, is zero) gives
        zero eigenvalues and the first k columns of Phi; a non-finite action
        raises ``NumericalError``.
        """
        n = self.dim
        if not 1 <= k <= n:
            raise ValueError("need 1 <= k <= dimension")
        w = np.ones(n) if weights is None else np.asarray(weights)

        def op(y):
            load = form(self.to_fields((w * y.T).T))
            if not np.all(np.isfinite(load)):
                raise NumericalError("non-finite operator action in the eigensolve")
            return (w * self.to_coefficients(load).T).T

        if k == n:
            lam, Y = np.linalg.eigh(op(np.eye(n)))
        else:
            A = spla.LinearOperator((n, n), op, dtype=float)
            v0 = np.random.default_rng(seed).standard_normal(n)
            try:
                lam, Y = spla.eigsh(A, k, which="LM", tol=EIG_TOL,
                                    v0=self.to_coefficients(self.mass @ v0))
            except spla.ArpackNoConvergence as exc:
                raise NumericalError(f"Lanczos eigensolver: {exc}") from exc
            except spla.ArpackError as exc:
                if not str(exc).startswith("ARPACK error -9:"):
                    raise
                lam, Y = np.zeros(k), np.eye(n, k)
        order = np.argsort(-lam, kind="stable")
        Y = Y[:, order]
        return EigenBasis(lam[order], Y)


def _check_diagonal(basis, op, diag):
    """Raise ``NumericalError`` unless ``Phi^T op Phi y = diag * y`` to 1e-12
    on a seeded block: every solve and covariance action made in the basis
    trusts it."""
    y = np.random.default_rng(0).standard_normal((op.shape[0], 2))
    want = diag.reshape(-1, 1) * y
    error = np.linalg.norm(basis.to_coefficients(op @ basis.to_fields(y)) - want)
    if not error <= 1e-12 * np.linalg.norm(want):
        raise NumericalError("Phi does not diagonalize the operator",
                             residual=error)


def _finite(x):
    """``x``, unless it holds a NaN or an infinity (``NumericalError``); a
    covariance action checks its input, which its transforms would turn into
    NaN with a floating-point warning, and its result."""
    if not np.isfinite(x).all():
        raise NumericalError("non-finite covariance action")
    return x


def _cholesky(spd):
    """Lower Cholesky factor of a small sparse SPD matrix, as sparse CSR."""
    return sp.csr_matrix(np.linalg.cholesky(spd.toarray()))


def volume_space(mesh):
    """Q1 space over all mesh nodes."""
    return FieldSpace(
        mass=assemble_mass(mesh),
        natural_stiffness=assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes)),
        factors=mesh.factors,
    )


def neumann_trace_space(mesh):
    """1D space over the nodes of the Neumann (bottom and top) sides.

    Each side contributes an independent segment (its own 1D mass and
    stiffness block); degrees of freedom are the bottom nodes, then the top
    nodes.  The side is the y axis of the factors, with mass I_2 and no
    stiffness.
    """
    mass, stiff = mesh.factors[0]
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
    """Eigenvalues sorted descending and the orthonormal Phi coefficients of
    the M-orthonormal eigenvectors, ``space.to_fields(coefficients)``."""

    eigenvalues: np.ndarray
    coefficients: np.ndarray


class GaussianField:
    """Gaussian measure N(mean, scale*C) on a FieldSpace, C = A^{-1} M A^{-1}.

    ``solver_A`` is the ``SpdSolver`` of A on the space, by fast
    diagonalization in the space's basis Phi; it colors every draw,
    uncounted, like the space's mass projection.  The covariance actions
    make no solve: they are diagonals in Phi (checked once, on a seeded
    block, to diagonalize A), and a non-finite result raises
    ``NumericalError``.  ``sqrt_C_diagonal`` is sqrt(C) in Phi coefficients.
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
        self.solver_A = SpdSolver(None, A, fast=(space.basis, self.kappa,
                                                 self.alpha))
        D = self.solver_A.fast.diag
        _check_diagonal(space.basis, A, D)
        self._cov = FastDiagonalization(space.basis, D * D)

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
        the columns of a block: C M^{-1} load = scale * A^{-1} M A^{-1} load
        = scale * Phi D^{-2} Phi^T load, as fields."""
        out = self._cov.solve(_finite(np.asarray(loads, dtype=float)))
        out *= self.scale
        return _finite(out)

    @property
    def sqrt_C_diagonal(self):
        """d with sqrt(C) = Phi diag(d) Phi^T M: sqrt(scale) / D for the
        diagonal D = Phi^T A Phi, in coefficient order."""
        return np.sqrt(self.scale) / self.solver_A.fast.diag.ravel()

    def apply_sqrt_C(self, f):
        """M-self-adjoint square root action on a field or on each column of
        a block: sqrt(scale) * A^{-1} M f = sqrt(scale) * Phi D^{-1} Phi^T M f,
        on the transforms of ``solver_A`` without its residual check."""
        y = self.solver_A.fast.solve(_finite(self.space.mass @ np.asarray(f)))
        return _finite(np.sqrt(self.scale) * y)

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

    def preconditioned_eigenpairs(self, hess_load, k, seed=7):
        """Dominant eigenpairs of sqrt(C) H sqrt(C) without forming matrices,
        by ``FieldSpace.eigenpairs`` with the weights ``sqrt_C_diagonal``.
        ``hess_load`` is the symmetric form M H (fields to loads) on a field
        and on a block of fields; the sqrt(C) image of an eigenvector is
        ``space.to_fields(sqrt_C_diagonal * coefficients)``.
        """
        return self.space.eigenpairs(hess_load, k, seed,
                                     weights=self.sqrt_C_diagonal)


def field_on_mesh(mesh, kappa, alpha, mean=None):
    """Gaussian field over the volume nodes of a mesh."""
    return GaussianField(volume_space(mesh), kappa, alpha, mean=mean)

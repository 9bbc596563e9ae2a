"""Tracking control of a semilinear PDE with uncertain Neumann flux.

State equation: -lap(u) + c u^3 = z with u = 0 on the left/right sides and
prescribed normal flux m on the top/bottom sides of a unit square; the
state tracks the fixed target ``default_desired_state``.  The cubic term is
monotone, so Newton's method from a zero initial guess converges without
globalization at desk scale, well within its ``newton_max_iter`` steps.
The gradient of the tracking objective with respect to the boundary flux
is the negative trace of the adjoint on the Neumann boundary; a Hessian
action costs two linearized solves.  For c = 0 the map from flux to
objective is exactly quadratic, which makes this problem the sharpest
end-to-end check of the derivative stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NONNEGATIVE, NumericalError
from .fem import (
    SolveCounter,
    SpdSolver,
    assemble_weighted_mass,
    nodal_load,
)
from .random_field import neumann_trace_space, volume_space
from .surrogate import QuadraticSurrogate


def default_desired_state(mesh):
    """Artifact convention for the tracking target: 0.5 x (2 - x)."""
    return 0.5 * mesh.node_x * (2.0 - mesh.node_x)


@dataclass
class SemilinearWorkspace:
    """State, adjoint, and linearized solver at one (control, flux) pair,
    with the Hessian's weighted mass once ``hess_action`` has built it."""

    z: np.ndarray
    m: np.ndarray
    u: np.ndarray
    p: np.ndarray
    solver: SpdSolver
    weighted_mass: object = None


class SemilinearProblem:
    """Semilinear control problem on a unit square with top/bottom flux.

    Boundary flux fields live on the Neumann trace space (bottom nodes then
    top nodes, each side a 1D segment including its corner nodes).
    """

    newton_tol = 1e-10  # dual-norm residual at which Newton stops
    newton_max_iter = 25  # Newton steps before the solve raises

    def __init__(self, mesh, c=1.0):
        NONNEGATIVE("c", c)
        self.mesh = mesh
        self.c = float(c)
        self.space = volume_space(self.mesh)
        self.trace_space = neumann_trace_space(self.mesh)
        self.desired = default_desired_state(self.mesh)
        # the flux that m=None means, as PoissonFlowProblem.mean is the field
        self.mean = np.zeros(self.trace_space.dim)
        self.counter = SolveCounter()
        # the Laplacian, on the mesh's read-only CSR pattern
        self.stiffness = self.space.natural_stiffness
        laplacian = (mesh.free_basis, 1.0, 0.0)
        # Laplacian solve used only for the dual norm of Newton residuals
        self._norm_solver = SpdSolver(mesh, self.stiffness, fast=laplacian)
        # at c = 0 the linearized operator is the Laplacian itself, so one
        # counted solver serves every Newton step, adjoint and Hessian action
        self._laplacian_solver = None
        if self.c == 0.0:
            self._laplacian_solver = SpdSolver(mesh, self.stiffness,
                                               self.counter, fast=laplacian)

    def boundary_load(self, m_bnd):
        """Volume load of the Neumann boundary term <m, v> on the trace, for a
        flux (nb,) or for each column of an (nb, k) block."""
        m_bnd = np.asarray(m_bnd, float)
        out = np.zeros((self.mesh.n_nodes,) + m_bnd.shape[1:])
        out[self.trace_space.node_index] = self.trace_space.mass @ m_bnd
        return out

    def boundary_trace(self, u):
        return np.asarray(u)[self.trace_space.node_index]

    def _dual_norm(self, residual):
        r = residual.copy()
        r[self.mesh.dirichlet_nodes] = 0.0
        return float(np.sqrt(max(r @ self._norm_solver.solve(r), 0.0)))

    def _linearized_solver(self, u):
        if self.c == 0.0:
            return self._laplacian_solver
        # built on the mesh's read-only CSR pattern, which SpdSolver requires
        # (a sparse sum would copy it)
        ug = self.mesh.interp_gauss(u)
        data = (self.stiffness.data
                + assemble_weighted_mass(self.mesh, 3.0 * self.c * ug**2).data)
        op = sp.csr_matrix((data, self.mesh.csr_indices, self.mesh.csr_indptr),
                           shape=self.stiffness.shape)
        return SpdSolver(self.mesh, op, self.counter)

    def solve_state(self, z, m=None):
        """Newton solve of the state equation at control z and flux m (None:
        the zero flux ``mean``) from a zero initial guess.

        Returns the state, the linearized solver at the solution (reused by
        adjoint and incremental equations), and the residual history in the
        discrete dual norm.
        """
        z = np.asarray(z, float)
        if z.shape != (self.mesh.n_nodes,):
            raise ValueError(f"source of shape {z.shape}: n_nodes is {self.mesh.n_nodes}")
        rhs = self.space.mass @ z + self.boundary_load(self.mean if m is None else m)
        u = np.zeros(self.mesh.n_nodes)
        history = []
        solver = None
        for _ in range(self.newton_max_iter):
            ug = self.mesh.interp_gauss(u)
            residual = self.stiffness @ u + self.c * nodal_load(self.mesh, ug**3) - rhs
            rnorm = self._dual_norm(residual)
            history.append(rnorm)
            solver = self._linearized_solver(u)
            if rnorm <= self.newton_tol:
                return u, solver, history
            u = u + solver.solve(-residual)
        raise NumericalError(
            f"Newton stalled at residual {history[-1]:.3e}", residual=history
        )

    # -- objective and derivatives ---------------------------------------------

    def objective_of_state(self, u):
        d = u - self.desired
        return 0.5 * self.space.inner(d, d)

    def objective(self, z, m=None):
        """Tracking objective at (z, m); m=None is the zero flux."""
        return self.objective_of_state(self.solve_state(z, m)[0])

    def workspace(self, z, m=None):
        """State and adjoint at (z, m), m=None being the zero flux; the
        linearized operator is cached."""
        m = self.mean if m is None else np.asarray(m, float)
        u, solver, _ = self.solve_state(z, m)
        p = solver.solve(-(self.space.mass @ (u - self.desired)))
        return SemilinearWorkspace(z=np.asarray(z, float), m=m, u=u, p=p,
                                   solver=solver)

    def grad_boundary(self, ws):
        """Gradient of the objective with respect to the boundary flux."""
        return -self.boundary_trace(ws.p)

    def hess_action(self, ws, m_hat):
        """Hessian action on a boundary flux direction (nb,) or on each column
        of an (nb, k) block (2 linearized solves per direction).  For c > 0
        the mass weighted by 6c u p is built once per workspace."""
        solve = ws.solver.apply_inverse
        inc_u = solve(self.boundary_load(m_hat))
        load = self.space.mass @ inc_u
        if self.c > 0.0:
            if ws.weighted_mass is None:
                up = self.mesh.interp_gauss(ws.u) * self.mesh.interp_gauss(ws.p)
                ws.weighted_mass = assemble_weighted_mass(self.mesh,
                                                          6.0 * self.c * up)
            load = load + ws.weighted_mass @ inc_u
        inc_p = solve(-load)
        return -self.boundary_trace(inc_p)

    def surrogate(self, z, m=None):
        """Quadratic expansion of flux -> objective about m, with m=None the
        zero flux (see ``workspace``)."""
        ws, mass = self.workspace(z, m), self.trace_space.mass
        return QuadraticSurrogate(
            space=self.trace_space,
            theta_bar=self.objective_of_state(ws.u),
            grad_load=mass @ self.grad_boundary(ws),
            hess_load=lambda m_hat: mass @ self.hess_action(ws, m_hat),
            anchor=ws.m,
        )

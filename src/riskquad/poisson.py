"""Well-rate control of Darcy pressure with uncertain log conductivity.

State equation: -div(exp(m) grad u) = sum_i z_i f_i on a rectangle, with
fixed pressure on the left/right sides and no-flux top/bottom.  The f_i are
mollified point sources at injection wells; observations are mollified
averages at production wells.  The tracking objective, its gradient with
respect to the log-conductivity field, and Hessian actions via incremental
solves are all exact derivatives of the discrete objective, so finite
difference checks hold to quadrature precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fem import (
    SolveCounter,
    SpdSolver,
    assemble_coupling,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    grad_dot_load,
)
from .random_field import volume_space
from .surrogate import QuadraticSurrogate


def grid_points(xs, ys):
    """Cartesian product of coordinates, ordered y-major then x."""
    pts = [(x, y) for y in ys for x in xs]
    return np.array(pts)


def parabolic_target_profile(points):
    """Target pressure q(x, y) = 3 - 4(x-1)^2 - 8(y-0.5)^2 at given points."""
    pts = np.asarray(points)
    return 3.0 - 4.0 * (pts[:, 0] - 1.0) ** 2 - 8.0 * (pts[:, 1] - 0.5) ** 2


@dataclass
class WellConfig:
    """Injection/production well layout with a shared mollifier width."""

    control_points: np.ndarray
    production_points: np.ndarray
    sigma: float
    targets: np.ndarray

    def __post_init__(self):
        self.control_points = np.atleast_2d(np.asarray(self.control_points, float))
        self.production_points = np.atleast_2d(
            np.asarray(self.production_points, float)
        )
        self.targets = np.asarray(self.targets, dtype=float)
        if self.sigma <= 0.0:
            raise ValueError("mollifier width must be positive")
        if self.targets.shape != (len(self.production_points),):
            raise ValueError("one target per production well required")

    @property
    def n_controls(self):
        return len(self.control_points)


def default_wells(sigma=0.05):
    """Canonical layout: 20 injection wells on a 5x4 interior grid and 12
    production wells on a 4x3 grid of the (0,2)x(0,1) domain, with the
    parabolic target profile."""
    control = grid_points(
        [1.0 / 3.0, 2.0 / 3.0, 1.0, 4.0 / 3.0, 5.0 / 3.0], [0.2, 0.4, 0.6, 0.8]
    )
    production = grid_points([0.4, 0.8, 1.2, 1.6], [0.25, 0.5, 0.75])
    return WellConfig(
        control_points=control,
        production_points=production,
        sigma=sigma,
        targets=parabolic_target_profile(production),
    )


def mollifier_fields(mesh, space, points, sigma):
    """(n_nodes, n_points) matrix of truncated Gaussian bumps.

    Each column is a radial Gaussian of width sigma truncated at 4*sigma and
    normalized to unit discrete integral, so observing a constant field
    returns that constant exactly.  A bump that covers no node of the mesh
    is a flaw of the configured mesh or wells and raises ``ConfigError``.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    cols = np.zeros((mesh.n_nodes, len(pts)))
    ones = np.ones(mesh.n_nodes)
    for k, (px, py) in enumerate(pts):
        r2 = (mesh.node_x - px) ** 2 + (mesh.node_y - py) ** 2
        w = np.where(r2 <= (4.0 * sigma) ** 2, np.exp(-0.5 * r2 / sigma**2), 0.0)
        total = float(w @ (space.mass @ ones))
        if total < 1e-12:
            raise ConfigError(
                f"mollifier at ({px}, {py}) is unresolved on this mesh"
            )
        cols[:, k] = w / total
    return cols


@dataclass
class PdeWorkspace:
    """State/adjoint pair at the anchor field for one control vector, with
    the incremental coupling matrices once ``incremental`` has built them."""

    z: np.ndarray
    u: np.ndarray
    p: np.ndarray
    misfit: np.ndarray
    couplings: tuple = None


class PoissonFlowProblem:
    """Discrete control problem bound to a mesh, well layout, and anchor field.

    The anchor log-conductivity (the field about which surrogates are built)
    is factorized once and reused for every state, adjoint, and incremental
    solve; the shared counter ticks once per SPD solve.
    """

    def __init__(self, mesh, wells=None, mean=None, dirichlet_values=(1.0, 0.0)):
        self.mesh = mesh
        self.space = volume_space(mesh)
        self.wells = default_wells() if wells is None else wells
        self._check_wells_inside()
        self.mean = (
            np.zeros(mesh.n_nodes) if mean is None else np.asarray(mean, float)
        )
        self.counter = SolveCounter()

        self.source_fields = mollifier_fields(
            mesh, self.space, self.wells.control_points, self.wells.sigma
        )
        self.obs_fields = mollifier_fields(
            mesh, self.space, self.wells.production_points, self.wells.sigma
        )

        self.em_gauss = np.exp(mesh.interp_gauss(self.mean))
        self.anchor_solver = SpdSolver(
            mesh, assemble_weighted_stiffness(mesh, self.mean), self.counter
        )
        g_left, g_right = dirichlet_values
        bc = np.where(
            np.isclose(mesh.node_x[mesh.dirichlet_nodes], 0.0), g_left, g_right
        )
        self.dirichlet_bc = bc

    def _check_wells_inside(self):
        for pts in (self.wells.control_points, self.wells.production_points):
            x, y = pts[:, 0], pts[:, 1]
            inside = (x > 0) & (x < self.mesh.lx) & (y > 0) & (y < self.mesh.ly)
            if not np.all(inside):
                raise ConfigError("well locations must lie strictly inside the domain")

    @property
    def n_controls(self):
        return self.wells.n_controls

    # -- forward machinery ----------------------------------------------------

    def source_load(self, z):
        return self.space.mass @ (self.source_fields @ np.asarray(z, float))

    def observe(self, u):
        """Mollified-average observations Qu at the production wells."""
        return self.obs_fields.T @ (self.space.mass @ u)

    def solver_for(self, m):
        """Fresh factorization of the operator at log conductivity m.

        The solver uses the mesh's band plan: a draw costs one assembly, one
        band scatter and one LAPACK factorization.
        """
        return SpdSolver(
            self.mesh, assemble_weighted_stiffness(self.mesh, m), self.counter
        )

    def solve_state(self, z, solver=None):
        """State of a control (n_controls,), or the states of the columns of
        an (n_controls, k) block as one lifted ``solve_many``."""
        solver = self.anchor_solver if solver is None else solver
        solve = solver.solve if np.ndim(z) == 1 else solver.solve_many
        return solve(self.source_load(z), self.dirichlet_bc)

    def objective_of_state(self, u):
        """Misfit 1/2 |Qu - q|^2 of a state (n,), or of each column of (n, k)."""
        r = (self.observe(u).T - self.wells.targets).T
        return 0.5 * float(r @ r) if r.ndim == 1 else 0.5 * np.sum(r**2, axis=0)

    def objective(self, z, m=None):
        """Full control objective at (z, m); for m=None uses the anchor.  A
        block ``z`` (n_controls, k) gives one value per column, all solved on
        the one factorization at m."""
        solver = self.anchor_solver if m is None else self.solver_for(m)
        return self.objective_of_state(self.solve_state(z, solver))

    # -- derivatives with respect to the parameter field -----------------------

    def workspace(self, z):
        """Solve state and adjoint at the anchor field (2 counted solves)."""
        z = np.asarray(z, dtype=float)
        u = self.solve_state(z)
        misfit = self.observe(u) - self.wells.targets
        p = self.anchor_solver.solve(
            -(self.space.mass @ (self.obs_fields @ misfit))
        )
        return PdeWorkspace(z=z, u=u, p=p, misfit=misfit)

    def grad_field(self, ws):
        """Nodal L2 representation of the parameter gradient at the anchor."""
        return self.space.project(
            grad_dot_load(self.mesh, self.em_gauss, ws.u, ws.p)
        )

    def incremental(self, ws, zeta):
        """Incremental states and adjoints for a direction (n,) or for each
        column of an (n, k) block (2 counted solves per column).

        With B_u zeta = weighted_stiffness_apply(em * zeta_gauss, u), B_p the
        same with p, and M_w the mass matrix weighted by em grad u . grad p
        (for ``hessian_load``), the three matrices are built once per
        workspace and cached on it.
        """
        if ws.couplings is None:
            mesh, em = self.mesh, self.em_gauss
            (ux, uy), (px, py) = mesh.grad_gauss(ws.u), mesh.grad_gauss(ws.p)
            ws.couplings = (
                assemble_coupling(mesh, em, ws.u),
                assemble_coupling(mesh, em, ws.p),
                assemble_weighted_mass(mesh, em * (ux * px + uy * py)),
            )
        B_u, B_p, _ = ws.couplings
        solve = self.anchor_solver.apply_inverse
        inc_u = solve(-(B_u @ zeta))
        inc_p = solve(
            -(self.space.mass @ (self.obs_fields @ self.observe(inc_u))) - B_p @ zeta
        )
        return inc_u, inc_p

    def hessian_load(self, ws, zeta, inc_u, inc_p):
        """Hessian load M_w zeta + B_p^T inc_u + B_u^T inc_p of a direction or
        block ``zeta`` whose ``incremental`` pair on ``ws`` is (inc_u, inc_p)."""
        B_u, B_p, M_w = ws.couplings
        return M_w @ zeta + B_p.T @ inc_u + B_u.T @ inc_p

    def hess_action(self, ws, zeta):
        """Hessian action on a direction (n,) or on each column of an (n, k)
        block, via the incremental state/adjoint pair (2 solves per column)."""
        inc_u, inc_p = self.incremental(ws, zeta)
        return self.space.project(self.hessian_load(ws, zeta, inc_u, inc_p))

    def surrogate(self, z):
        """Quadratic expansion of m -> objective about the anchor field."""
        ws = self.workspace(z)
        return QuadraticSurrogate(
            space=self.space,
            theta_bar=self.objective_of_state(ws.u),
            grad=self.grad_field(ws),
            hess_action=lambda zeta: self.hess_action(ws, zeta),
            anchor=self.mean,
            counter=self.counter,
        )

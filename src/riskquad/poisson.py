"""Well-rate control of Darcy pressure with uncertain log conductivity.

State equation: -div(exp(m) grad u) = sum_i z_i f_i on a rectangle, with
pressure 1 on the left side, 0 on the right and no flux top/bottom.  The
f_i are mollified point sources at injection wells; observations are
mollified averages at production wells.  The tracking objective, its
gradient with respect to the log-conductivity field, and Hessian actions
via incremental solves are all exact derivatives of the discrete
objective, so finite difference checks hold to quadrature precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (POSITIVE, REAL, ConfigError, check_settings, choice, list_of,
                     setting)
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
    return np.array(pts, dtype=float)


def parabolic_target_profile(points):
    """Target pressure q(x, y) = 3 - 4(x-1)^2 - 8(y-0.5)^2 at given points."""
    pts = np.asarray(points)
    return 3.0 - 4.0 * (pts[:, 0] - 1.0) ** 2 - 8.0 * (pts[:, 1] - 0.5) ** 2


COORDINATES = list_of(REAL, nonempty=True)


def _targets(key, v):
    """The name of a target profile, or a list of target values."""
    (choice("target profile", "parabolic") if isinstance(v, str)
     else list_of(REAL))(key, v)


@dataclass
class WellConfig:
    """A well layout with a shared mollifier width ``sigma``, by default the
    canonical one on (0,2)x(0,1): 20 injection wells on a 5x4 interior grid
    and 12 production wells on a 4x3 grid.  ``targets`` is the name of a
    target profile or one target per production well.

    Every key is checked by kind when the layout is built, which then derives
    ``control_points`` and ``production_points`` (``grid_points``) and the
    target array ``target_values`` once; ``dataclasses.replace`` builds a
    changed layout.
    """

    sigma: float = setting(POSITIVE, 0.05)
    control_xs: list = setting(COORDINATES,
                               [1.0 / 3.0, 2.0 / 3.0, 1.0, 4.0 / 3.0, 5.0 / 3.0])
    control_ys: list = setting(COORDINATES, [0.2, 0.4, 0.6, 0.8])
    production_xs: list = setting(COORDINATES, [0.4, 0.8, 1.2, 1.6])
    production_ys: list = setting(COORDINATES, [0.25, 0.5, 0.75])
    targets: object = setting(_targets, "parabolic")

    def __post_init__(self):
        check_settings(self)
        self.control_points = grid_points(self.control_xs, self.control_ys)
        self.production_points = grid_points(self.production_xs, self.production_ys)
        if isinstance(self.targets, str):  # the only profile is "parabolic"
            self.target_values = parabolic_target_profile(self.production_points)
        elif len(self.targets) == len(self.production_points):
            self.target_values = np.asarray(self.targets, dtype=float)
        else:
            raise ValueError(f"targets: {len(self.targets)} values for "
                             f"{len(self.production_points)} production wells")

    @property
    def n_controls(self):
        return len(self.control_points)


def mollifier_fields(mesh, space, points, sigma):
    """(n_nodes, n_points) matrix of truncated Gaussian bumps.

    Each column is a radial Gaussian of width sigma truncated at 4*sigma and
    normalized to unit discrete integral, so observing a constant field
    returns that constant exactly.  A bump that covers no node of the mesh
    is a flaw of the configured mesh or wells and raises ``ConfigError``.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    cols = np.zeros((mesh.n_nodes, len(pts)))
    lumped = space.mass @ np.ones(mesh.n_nodes)
    for k, (px, py) in enumerate(pts):
        r2 = (mesh.node_x - px) ** 2 + (mesh.node_y - py) ** 2
        w = np.where(r2 <= (4.0 * sigma) ** 2, np.exp(-0.5 * r2 / sigma**2), 0.0)
        total = float(w @ lumped)
        if total < 1e-12:
            raise ConfigError(
                f"mollifier at ({px}, {py}) is unresolved on this mesh"
            )
        cols[:, k] = w / total
    return cols


@dataclass
class HessianKernel:
    """The matrices of the incremental equations and the Hessian load at one
    state/adjoint pair (u, p): B_u with B_u zeta =
    weighted_stiffness_apply(em * zeta_gauss, u), B_p the same with p, the
    mass matrix M_w weighted by em grad u . grad p, and CSR copies of B_u^T
    and B_p^T (the pattern is symmetric), whose products have the bits of
    those through the transposed (CSC) views at about half their cost."""

    B_u: object
    B_p: object
    M_w: object
    B_uT: object
    B_pT: object


@dataclass
class PdeWorkspace:
    """State/adjoint pair at (z, m), with m's solver and exp(m) at the Gauss
    points, which every derivative on it reads.  Its Hessian ``kernel`` is
    built by the first ``incremental`` on it and serves every later
    incremental pair and Hessian load, for vectors and blocks alike."""

    m: np.ndarray
    u: np.ndarray
    p: np.ndarray
    misfit: np.ndarray
    solver: SpdSolver
    em: np.ndarray
    kernel: HessianKernel = None


class PoissonFlowProblem:
    """Discrete control problem bound to a mesh, well layout (by default
    ``WellConfig()``), and anchor field.  Every misfit reads the layout's
    target array, stored once as ``targets``.

    The anchor log-conductivity ``mean`` (the field that m=None means) gets
    one solver, reused for every state, adjoint, and incremental solve;
    the shared counter ticks once per SPD solve.  A constant anchor, such as
    every configured mean with no centers, is solved by the
    fast-diagonalization backend of ``SpdSolver``, any other by banded
    Cholesky, as is every field passed to ``solver_for``.
    """

    def __init__(self, mesh, wells=None, mean=None):
        self.mesh = mesh
        self.space = volume_space(mesh)
        self.wells = WellConfig() if wells is None else wells
        self._check_wells_inside()
        self.targets = self.wells.target_values
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
        # W = M Q: observations are W^T u and the load of a misfit r is W r
        self.obs_operator = self.space.mass @ self.obs_fields

        self.em_gauss = np.exp(mesh.interp_gauss(self.mean))
        op = assemble_weighted_stiffness(mesh, self.mean)
        fast = None
        if np.ptp(self.mean) == 0.0:
            fast = (mesh.free_basis, np.exp(self.mean[0]), 0.0)
        self.anchor_solver = SpdSolver(mesh, op, self.counter, fast=fast)
        self.dirichlet_bc = np.where(
            np.isclose(mesh.node_x[mesh.dirichlet_nodes], 0.0), 1.0, 0.0)

    def _check_wells_inside(self):
        lx, ly = self.mesh.lx, self.mesh.ly
        for kind, pts in (("control", self.wells.control_points),
                          ("production", self.wells.production_points)):
            for x, y in pts:
                if not (0 < x < lx and 0 < y < ly):
                    raise ConfigError(
                        f"{kind} point ({x}, {y}) must lie strictly inside the "
                        f"domain (0, {lx}) x (0, {ly})")

    @property
    def n_controls(self):
        return self.wells.n_controls

    # -- forward machinery ----------------------------------------------------

    def source_load(self, z):
        z = np.asarray(z, float)
        if z.shape[:1] != (self.n_controls,):
            raise ValueError(f"control of shape {z.shape}: n_controls is {self.n_controls}")
        return self.space.mass @ (self.source_fields @ z)

    def observe(self, u):
        """Mollified-average observations W^T u at the production wells, of a
        state (n,) or of each column of (n, k)."""
        return self.obs_operator.T @ u

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
        r = (self.observe(u).T - self.targets).T
        return 0.5 * float(r @ r) if r.ndim == 1 else 0.5 * np.sum(r**2, axis=0)

    def objective(self, z, m=None):
        """Full control objective at (z, m); for m=None uses the anchor.  A
        block ``z`` (n_controls, k) gives one value per column, all solved by
        the one solver at m."""
        solver = self.anchor_solver if m is None else self.solver_for(m)
        return self.objective_of_state(self.solve_state(z, solver))

    # -- derivatives with respect to the parameter field -----------------------

    def workspace(self, z, m=None):
        """Solve state and adjoint at (z, m) (2 counted solves); m=None is
        the anchor field and its solver, any other m gets ``solver_for(m)``."""
        if m is None:
            m, solver, em = self.mean, self.anchor_solver, self.em_gauss
        else:
            m = np.asarray(m, float)
            solver, em = self.solver_for(m), np.exp(self.mesh.interp_gauss(m))
        u = self.solve_state(z, solver)
        misfit = self.observe(u) - self.targets
        p = solver.solve(-(self.obs_operator @ misfit))
        return PdeWorkspace(m=m, u=u, p=p, misfit=misfit, solver=solver, em=em)

    def incremental(self, ws, zeta):
        """Incremental states and adjoints for a direction (n,) or for each
        column of an (n, k) block (2 counted solves per column):
        inc_u = -A^{-1} B_u zeta and inc_p = -A^{-1} (W W^T inc_u + B_p zeta),
        with ``ws.solver`` and ``ws.kernel``, built here on first use."""
        if ws.kernel is None:
            mesh, em = self.mesh, ws.em
            (ux, uy), (px, py) = mesh.grad_gauss(ws.u), mesh.grad_gauss(ws.p)
            B_u = assemble_coupling(mesh, em, ws.u)
            B_p = assemble_coupling(mesh, em, ws.p)
            ws.kernel = HessianKernel(
                B_u=B_u, B_p=B_p,
                M_w=assemble_weighted_mass(mesh, em * (ux * px + uy * py)),
                B_uT=B_u.T.tocsr(), B_pT=B_p.T.tocsr(),
            )
        k, W = ws.kernel, self.obs_operator
        solve = ws.solver.apply_inverse
        rhs = k.B_u @ zeta
        inc_u = solve(np.negative(rhs, out=rhs))
        rhs = W @ (W.T @ inc_u)
        rhs += k.B_p @ zeta
        inc_p = solve(np.negative(rhs, out=rhs))
        return inc_u, inc_p

    def hessian_load(self, ws, zeta, inc_u, inc_p):
        """Hessian load M_w zeta + B_p^T inc_u + B_u^T inc_p of a direction or
        block ``zeta`` whose ``incremental`` pair on ``ws`` is (inc_u, inc_p)."""
        k = ws.kernel
        load = k.M_w @ zeta
        load += k.B_pT @ inc_u
        load += k.B_uT @ inc_p
        return load

    def hess_action(self, ws, zeta):
        """Hessian action on a direction (n,) or on each column of an (n, k)
        block, via the incremental state/adjoint pair (2 solves per column)."""
        inc_u, inc_p = self.incremental(ws, zeta)
        return self.space.project(self.hessian_load(ws, zeta, inc_u, inc_p))

    def surrogate(self, z, m=None):
        """Quadratic expansion of the objective in the field about m, with
        m=None the anchor field (see ``workspace``)."""
        ws = self.workspace(z, m)
        return QuadraticSurrogate(
            space=self.space,
            theta_bar=self.objective_of_state(ws.u),
            grad_load=grad_dot_load(self.mesh, ws.em, ws.u, ws.p),
            hess_load=lambda zeta: self.hessian_load(
                ws, zeta, *self.incremental(ws, zeta)),
            anchor=ws.m,
        )

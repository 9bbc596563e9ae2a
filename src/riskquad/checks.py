"""Central-difference validation of the whole derivative stack.

Each check compares an adjoint-based derivative against a second-order
finite difference at step h = 1e-4 and reports the relative error.  These
are the same checks the test suite runs; the CLI exposes them so a modified
build can be revalidated in seconds.
"""

from __future__ import annotations

import numpy as np

from .fem import build_mesh
from .ouu import OuuConfig, RiskAverseObjective, SaaObjective
from .poisson import PoissonFlowProblem, default_wells
from .random_field import field_on_mesh, field_on_neumann_boundary
from .semilinear import SemilinearProblem

FD_STEP = 1e-4
FD_TOL = 1e-5


def _rel(err, ref):
    return err / max(ref, 1e-300)


def _central(f, h):
    """Second-order central difference of f at 0."""
    return (f(h) - f(-h)) / (2.0 * h)


def _gradient_error(surr, gf, objective_at, n_dirs, seed, h):
    """Max relative FD error of <grad, d> over random directions d, with
    ``objective_at(d)`` the objective at the anchor plus d."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_dirs):
        d = gf.sample(rng) - gf.mean
        fd = _central(lambda t: objective_at(t * d), h)
        worst = max(worst, _rel(abs(surr.space.inner(surr.grad, d) - fd), abs(fd)))
    return worst


def _hessian_error(surr, gf, grad_at, n_dirs, seed, h):
    """Max relative FD error of the Hessian action against differences of
    ``grad_at(d)``, the parameter gradient at the anchor plus d."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_dirs):
        d = gf.sample(rng) - gf.mean
        psi = surr.hess_action(d)
        err = surr.space.norm(psi - _central(lambda t: grad_at(t * d), h))
        worst = max(worst, _rel(err, surr.space.norm(psi)))
    return worst


def _control_error(value, grad, z, components, h):
    """Max relative componentwise FD error of a control gradient."""
    worst = 0.0
    for i in components:
        e = np.zeros(len(z))
        e[i] = 1.0
        fd = _central(lambda t: value(np.asarray(z, dtype=float) + t * e), h)
        worst = max(worst, _rel(abs(grad[i] - fd), abs(fd)))
    return worst


def check_flow_gradient(problem, gf, z, n_dirs=3, seed=0, h=FD_STEP):
    """Max relative FD error of the parameter gradient of the flow objective."""
    return _gradient_error(
        problem.surrogate(z), gf, lambda d: problem.objective(z, problem.mean + d),
        n_dirs, seed, h,
    )


def check_flow_hessian(problem, gf, z, n_dirs=2, seed=1, h=FD_STEP):
    """Max relative FD error of the Hessian action against gradient differences."""
    def grad_at(d):
        moved = PoissonFlowProblem(problem.mesh, wells=problem.wells,
                                   mean=problem.mean + d)
        return moved.surrogate(z).grad
    return _hessian_error(problem.surrogate(z), gf, grad_at, n_dirs, seed, h)


def check_semilinear_gradient(problem, gf, z, n_dirs=3, seed=2, h=FD_STEP):
    return _gradient_error(
        problem.surrogate(z, gf.mean), gf,
        lambda d: problem.objective(z, gf.mean + d), n_dirs, seed, h,
    )


def check_semilinear_hessian(problem, gf, z, n_dirs=2, seed=3, h=FD_STEP):
    return _hessian_error(
        problem.surrogate(z, gf.mean), gf,
        lambda d: problem.surrogate(z, gf.mean + d).grad, n_dirs, seed, h,
    )


def check_ouu_gradient(problem, gf, cfg, z, components=None, h=FD_STEP):
    """Max relative componentwise FD error of the risk-objective gradient."""
    obj = RiskAverseObjective(problem, gf, cfg, nominal_control=z)
    grad = obj.value_and_grad(z)[1]
    idx = range(len(z)) if components is None else components
    return _control_error(lambda zk: obj.evaluate(zk)[0].value, grad, z, idx, h)


def check_saa_gradient(problem, gf, z, n_mc=6, components=(0, 7), seed=4,
                       h=FD_STEP, beta=1.0, gamma=1e-5):
    saa = SaaObjective(problem, gf, n_mc, beta, gamma, seed=seed)
    grad = saa.value_and_grad(z)[1]
    return _control_error(lambda zk: saa.evaluate(zk)[0], grad, z, components, h)


def run_derivative_checks(seed=0):
    """The full tower on a 16x8 mesh; returns (name, rel_err, tol) triples."""
    mesh = build_mesh(16, 8, 2.0, 1.0)
    wells = default_wells(sigma=0.1)
    problem = PoissonFlowProblem(mesh, wells=wells)
    gf = field_on_mesh(mesh, 2e-2, 4.0, space=problem.space)
    z = np.full(problem.n_controls, 4.0)

    sl_mesh = build_mesh(12, 12, 1.0, 1.0)
    sl = SemilinearProblem(sl_mesh, c=1.0)
    sl_gf = field_on_neumann_boundary(sl_mesh, 5e-2, 2.0, space=sl.trace_space)
    sl_z = np.ones(sl_mesh.n_nodes)

    cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=4, beta_schedule=(1.0,), seed=seed)
    results = [
        ("flow parameter gradient", check_flow_gradient(problem, gf, z), FD_TOL),
        ("flow Hessian action", check_flow_hessian(problem, gf, z), FD_TOL),
        ("semilinear gradient", check_semilinear_gradient(sl, sl_gf, sl_z), FD_TOL),
        ("semilinear Hessian action", check_semilinear_hessian(sl, sl_gf, sl_z), FD_TOL),
        (
            "risk objective control gradient",
            check_ouu_gradient(problem, gf, cfg, z, components=(0, 9, 19)),
            FD_TOL,
        ),
        ("sample-average control gradient", check_saa_gradient(problem, gf, z), FD_TOL),
    ]
    return results

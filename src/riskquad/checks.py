"""Central-difference validation of the whole derivative stack.

Each check compares an adjoint-based derivative against a second-order
finite difference at step h = 1e-4 and reports the relative error.  The
field checks ``check_gradient`` and ``check_hessian`` take either model
problem, since both expand about a field m through ``objective(z, m)`` and
``surrogate(z, m)``; the Hessian check differences the gradient loads of the
expansions about anchor +- h d, in the M-norm of their fields, which is the
norm of their coefficients in the space's M-orthonormal basis.  The CLI runs
the test suite's checks so that a modified build is revalidated in seconds.
"""

from __future__ import annotations

import numpy as np

from .config import build_setup, config_from_dict
from .ouu import OuuConfig, RiskAverseObjective, SaaObjective

FD_STEP = 1e-4
FD_TOL = 1e-5


def _rel(err, ref):
    return float(err / max(ref, 1e-300))


def _central(f):
    """Second-order central difference of f at 0, at step ``FD_STEP``."""
    return (f(FD_STEP) - f(-FD_STEP)) / (2.0 * FD_STEP)


def _fold(worst, err):
    """``max(worst, err)``, except that a NaN on either side is the result
    (``max(0.0, nan)`` is 0.0, which would pass a NaN derivative)."""
    return err if np.isnan(err) or err > worst else worst


def check_gradient(problem, gf, z, n_dirs=3, seed=0):
    """Max relative FD error of <grad_load, d> over random directions d of
    the field's law, for either model problem, expanded about its anchor."""
    surr = problem.surrogate(z)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_dirs):
        d = gf.sample(rng)
        fd = _central(lambda t: problem.objective(z, surr.anchor + t * d))
        worst = _fold(worst, _rel(abs(float(surr.grad_load @ d) - fd), abs(fd)))
    return worst


def check_hessian(problem, gf, z, n_dirs=2, seed=1):
    """Max relative M-norm error of the Hessian load at the anchor against the
    difference of the gradient loads about anchor +- h d (|Phi^T load|)."""
    surr = problem.surrogate(z)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_dirs):
        d = gf.sample(rng)
        psi = surr.space.to_coefficients(surr.hess_load(d))
        fd = surr.space.to_coefficients(_central(
            lambda t: problem.surrogate(z, surr.anchor + t * d).grad_load))
        worst = _fold(worst, _rel(np.linalg.norm(psi - fd), np.linalg.norm(psi)))
    return worst


def check_control_gradient(objective, z, components):
    """Max relative componentwise FD error of the gradient of a control
    objective, ``RiskAverseObjective`` or ``SaaObjective``, over the given
    control components."""
    z = np.asarray(z, dtype=float)
    grad = objective.gradient(objective.evaluate(z)[1])
    worst = 0.0
    for i in components:
        e = np.zeros(len(z))
        e[i] = 1.0
        fd = _central(lambda t: objective.evaluate(z + t * e)[0].value)
        worst = _fold(worst, _rel(abs(grad[i] - fd), abs(fd)))
    return worst


def run_derivative_checks(seed=0):
    """The full tower on a 16x8 flow mesh and a 12x12 semilinear one;
    returns (name, rel_err, tol) triples."""
    _, gf, problem = build_setup(config_from_dict(
        {"mesh": {"nx": 16, "ny": 8}, "wells": {"sigma": 0.1}}))
    z = np.full(problem.n_controls, 4.0)

    sl_mesh, sl_gf, sl = build_setup(config_from_dict(
        {"mesh": {"nx": 12, "ny": 12}, "experiment": {"problem": "semilinear"},
         "random_field": {"kappa": 5e-2, "alpha": 2.0}}))
    sl_z = np.ones(sl_mesh.n_nodes)

    cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=4, beta_schedule=(1.0,), seed=seed)
    risk = RiskAverseObjective(problem, gf, cfg, nominal_control=z)
    saa = SaaObjective(problem, gf, 6, 1.0, 1e-5, seed=4)
    return [
        ("flow parameter gradient", check_gradient(problem, gf, z), FD_TOL),
        ("flow Hessian action", check_hessian(problem, gf, z), FD_TOL),
        ("semilinear gradient", check_gradient(sl, sl_gf, sl_z, seed=2), FD_TOL),
        ("semilinear Hessian action", check_hessian(sl, sl_gf, sl_z, seed=3), FD_TOL),
        ("risk objective control gradient",
         check_control_gradient(risk, z, (0, 9, 19)), FD_TOL),
        ("sample-average control gradient",
         check_control_gradient(saa, z, (0, 7)), FD_TOL),
    ]

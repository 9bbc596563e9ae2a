"""Projected L-BFGS for box-constrained minimization.

Limited-memory BFGS directions restricted to the free variables, projected
backtracking line search with an Armijo decrease condition, and curvature
pairs accepted only when they keep the inverse Hessian approximation
positive.  Progress is measured by the norm of the projected gradient
z - P(z - g); iterations stop once it falls below a relative reduction of
its starting value.  Everything is deterministic for fixed inputs, and
accepted steps never increase the objective.  The objective is called by the
protocol of ``ouu``: ``evaluate(z) -> (report, state)`` at every trial point,
minimizing ``report.value``, and ``gradient(state)`` at accepted points only.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

ABS_TOL = 1e-14       # projected-gradient norm that counts as converged outright
MEMORY = 10           # curvature pairs kept by L-BFGS
ARMIJO_C1 = 1e-4      # sufficient-decrease constant of the line search
MAX_BACKTRACKS = 40   # step halvings before a line search gives up


@dataclass
class IterRow:
    iteration: int
    value: float
    grad_norm: float
    solves: int
    active_bounds: int


@dataclass
class BoxResult:
    """The last accepted iterate, its report, and one row per iterate."""

    z: np.ndarray
    report: object
    converged: bool
    degraded: bool
    rows: list


def _project(z, lower, upper):
    return np.minimum(np.maximum(z, lower), upper)


def _two_loop(grad, mem):
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(mem):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if mem:
        s, y, _ = mem[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(mem, reversed(alphas)):
        b = rho * (y @ q)
        q += (a - b) * s
    return q


def minimize_box_lbfgs(evaluate, gradient, z0, lower, upper, *, rel_tol=5e-4,
                       max_iter=100, solve_count=None):
    """Minimize ``report.value`` of ``evaluate`` over a box.

    ``evaluate(z) -> (report, state)`` scores a point (line-search trials
    use only this); ``gradient(state) -> g`` finishes the gradient at an
    accepted point from the state its evaluation produced.  ``solve_count``
    is an optional zero-argument callable sampled for the iterate trace.
    The module constants ``ABS_TOL``, ``MEMORY``, ``ARMIJO_C1`` and
    ``MAX_BACKTRACKS`` fix the remaining settings.
    """
    lower = np.broadcast_to(np.asarray(lower, float), np.shape(z0)).copy()
    upper = np.broadcast_to(np.asarray(upper, float), np.shape(z0)).copy()
    z = _project(np.asarray(z0, dtype=float).copy(), lower, upper)
    count = solve_count if solve_count is not None else (lambda: 0)

    report, state = evaluate(z)
    g = gradient(state)
    mem = deque(maxlen=MEMORY)
    rows = []
    edge = 1e-10 * np.maximum(upper - lower, 1.0)

    def projected_gradient_norm(zk, gk):
        return float(np.linalg.norm(zk - _project(zk - gk, lower, upper)))

    def n_active(zk):
        return int(np.sum((zk <= lower + edge) | (zk >= upper - edge)))

    pg0 = projected_gradient_norm(z, g)
    rows.append(IterRow(0, report.value, pg0, count(), n_active(z)))
    if pg0 <= ABS_TOL:
        return BoxResult(z, report, True, False, rows)
    target = max(rel_tol * pg0, ABS_TOL)

    degraded = False
    converged = False
    for it in range(1, max_iter + 1):
        active = ((z <= lower + edge) & (g > 0)) | ((z >= upper - edge) & (g < 0))
        g_free = np.where(active, 0.0, g)
        d = -_two_loop(g_free, list(mem))
        d[active] = 0.0
        if d @ g_free >= 0.0 or not np.all(np.isfinite(d)):
            d = -g_free
        if np.linalg.norm(d) == 0.0:
            converged = True
            break

        # hold the accepted state: freed, glibc trims it and each trial faults it back
        alpha = 1.0
        trial = None
        for _ in range(MAX_BACKTRACKS):
            z_trial = _project(z + alpha * d, lower, upper)
            step = z_trial - z
            if np.linalg.norm(step) == 0.0:
                break
            report_trial, state_trial = evaluate(z_trial)
            if report_trial.value <= report.value + ARMIJO_C1 * (g @ step):
                trial = z_trial, report_trial, state_trial
                break
            alpha *= 0.5
        if trial is None:
            degraded = True
            break

        z_new, report, state = trial
        g_new = gradient(state)
        s = z_new - z
        y = g_new - g
        sy = s @ y
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            mem.append((s, y, 1.0 / sy))
        z, g = z_new, g_new

        pg = projected_gradient_norm(z, g)
        rows.append(IterRow(it, report.value, pg, count(), n_active(z)))
        if pg <= target:
            converged = True
            break

    return BoxResult(z, report, converged, degraded, rows)

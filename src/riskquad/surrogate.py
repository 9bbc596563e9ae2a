"""Quadratic expansion of the parameter-to-objective map and its moments.

For a Gaussian parameter with covariance C and an expansion with gradient g
and Hessian action H about the mean, the expansion's mean and variance are
available in closed form:

    mean     = theta_bar + 1/2 tr(sqrt(C) H sqrt(C))
    variance = <g, C g>   + 1/2 tr((sqrt(C) H sqrt(C))^2)

The traces are estimated either with Gaussian probe vectors drawn from
N(0, C) (unbiased, averaged) or by summing over sqrt(C) images of dominant
eigenvectors of the covariance-preconditioned Hessian (accurate for rapidly
decaying spectra, exact with a complete basis).

The moments pair g and H only with fields, so the expansion keeps them as
loads (dual vectors M f): ``grad_load``, ``hess_load`` and the input of
``apply_C_to_loads`` are loads, ``hess_action`` and ``project`` fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError

DRAW_CHUNK = 64  # Monte Carlo draws per block Hessian action


@dataclass
class QuadraticSurrogate:
    """Second-order expansion of the parameter-to-objective map.

    ``grad_load`` is the load M g of the gradient g, and the symmetric form
    ``hess_load`` maps a field (n,), or each column of (n, k), to M H m.
    """

    space: object
    theta_bar: float
    grad_load: np.ndarray
    hess_load: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray

    def hess_action(self, m):
        """Hessian action H m on a field (n,) or on each column of (n, k)."""
        return self.space.project(self.hess_load(m))

    def _offset(self, m):
        m = np.asarray(m)
        return m - (self.anchor if m.ndim == 1 else self.anchor[:, None])

    def eval_lin(self, m):
        """First-order value at a parameter field (n,), or the values at each
        column of an (n, k) block."""
        return self.theta_bar + self.grad_load @ self._offset(m)

    def eval_quad(self, m):
        """Second-order value at a field (n,), or the values at each column of
        an (n, k) block; costs exactly one (block) Hessian load and no mass
        solve, since <d, H d>_M is the sum of d times its load M H d."""
        d = self._offset(m)
        return self.eval_lin(m) + 0.5 * np.sum(d * self.hess_load(d), axis=0)


def over_draw_chunks(fn, fields):
    """``fn`` applied to consecutive blocks of at most ``DRAW_CHUNK`` columns
    of ``fields``, with the per-column results concatenated in order."""
    return np.concatenate([
        fn(fields[:, j:j + DRAW_CHUNK])
        for j in range(0, fields.shape[1], DRAW_CHUNK)
    ])


@dataclass
class RiskReport:
    """Expansion moments in their defining parts; the risk objective adds
    its value, control cost and solve accounting."""

    theta_bar: float
    tr_hc: float
    tr_hc_sq: float
    grad_term: float
    mean_term: float
    variance_term: float
    value: float = float("nan")
    control_cost: float = 0.0
    pde_solves: int = 0
    grad_norm: float = float("nan")


def trace_probes(surr, gf, mode, n_tr, seed):
    """(n_tr, dim) array of trace probes, one per row, and the term weight.

    randomized: draws from N(0, C), weight 1/n_tr (unbiased for both traces).
    eigenbasis: sqrt(C) images of the n_tr eigenvectors of sqrt(C) H sqrt(C)
    of largest |eigenvalue| (Lanczos on the Hessian form ``hess_load``, one
    Hessian action per step), weight 1; the eigensolve's solves tick the
    problem's counter like any other.  In the space's basis Phi an
    eigenvector has coefficients y and its image is Phi (d * y), with d the
    diagonal of sqrt(C), so no covariance solve is made.
    """
    if n_tr < 1:
        raise ValueError("n_tr must be at least 1")
    if mode == "randomized":
        return gf.sample_batch(n_tr, seed).T, 1.0 / n_tr
    if mode != "eigenbasis":
        raise ValueError(f"unknown trace mode {mode!r}")
    basis = gf.preconditioned_eigenpairs(surr.hess_load, n_tr, seed=seed)
    d = gf.sqrt_C_diagonal[:, None]
    return gf.space.to_fields(d * basis.coefficients).T, 1.0


def expansion_moments(gf, theta_bar, grad_load, probes, loads, weight):
    """Mean and variance of the quadratic expansion from its gradient load,
    an (n, k) probe block and the probes' Hessian loads, with ``weight``
    times the probe sums as traces; one block covariance action, two basis
    transforms and no solve (``GaussianField.apply_C_to_loads``).  Raises
    ``NumericalError`` below -1e-12 * max(1, |theta_bar|) and clamps smaller
    negative rounding to 0.  Returns the moments' ``RiskReport`` and the
    covariance images C g and C H zeta that the control gradient reuses.
    """
    c_all = gf.apply_C_to_loads(np.column_stack([grad_load, loads]))
    c_grad, c_loads = c_all[:, 0], c_all[:, 1:]
    grad_term = float(grad_load @ c_grad)
    tr_hc = weight * float(np.sum(probes * loads))
    tr_hc_sq = weight * float(np.sum(loads * c_loads))
    variance = grad_term + 0.5 * tr_hc_sq
    if variance < -1e-12 * max(1.0, abs(theta_bar)):
        raise NumericalError(
            f"negative variance {variance:.3e}: Hessian self-adjointness broken"
        )
    report = RiskReport(
        theta_bar=theta_bar, tr_hc=tr_hc, tr_hc_sq=tr_hc_sq,
        grad_term=grad_term, mean_term=theta_bar + 0.5 * tr_hc,
        variance_term=max(variance, 0.0),
    )
    return report, c_grad, c_loads


def estimate_traces(surr, gf, mode="randomized", n_tr=40, seed=0):
    """Both covariance-preconditioned traces and the expansion's moments
    (``expansion_moments``) with the probes of ``trace_probes``; one block
    Hessian form, i.e. 2*n_tr PDE solves, plus the eigensolve's Hessian
    actions in eigenbasis mode."""
    probes, weight = trace_probes(surr, gf, mode, n_tr, seed)
    return expansion_moments(
        gf, surr.theta_bar, surr.grad_load, probes.T,
        surr.hess_load(probes.T), weight,
    )[0]

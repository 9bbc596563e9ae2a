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
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError

DRAW_CHUNK = 64  # Monte Carlo draws per block Hessian action


@dataclass
class QuadraticSurrogate:
    """Second-order expansion of the parameter-to-objective map.

    ``hess_action`` maps a field (n,) to the Hessian-vector product, or an
    (n, k) block to the products with each column, and must be self-adjoint
    in the M inner product of ``space``.  ``counter`` points at
    the owning problem's solve counter when there is one, so auxiliary work
    (eigenbasis construction) can be excluded from solve accounting.
    """

    space: object
    theta_bar: float
    grad: np.ndarray
    hess_action: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray
    counter: object = None

    def _offset(self, m):
        m = np.asarray(m)
        return m - (self.anchor if m.ndim == 1 else self.anchor[:, None])

    def eval_lin(self, m):
        """First-order value at a parameter field (n,), or the values at each
        column of an (n, k) block."""
        return self.theta_bar + self.grad @ (self.space.mass @ self._offset(m))

    def eval_quad(self, m):
        """Second-order value at a field (n,), or the values at each column of
        an (n, k) block; costs exactly one (block) Hessian action."""
        d = self._offset(m)
        md = self.space.mass @ d
        return (
            self.theta_bar
            + self.grad @ md
            + 0.5 * np.sum(self.hess_action(d) * md, axis=0)
        )


def over_draw_chunks(fn, fields):
    """``fn`` applied to consecutive blocks of at most ``DRAW_CHUNK`` columns
    of ``fields``, with the per-column results concatenated in order."""
    return np.concatenate([
        fn(fields[:, j:j + DRAW_CHUNK])
        for j in range(0, fields.shape[1], DRAW_CHUNK)
    ])


@dataclass
class TraceEstimate:
    """Estimates of tr(sqrt(C) H sqrt(C)) and of the trace of its square."""

    tr_hc: float
    tr_hc_sq: float


def trace_probes(surr, gf, mode, n_tr, seed):
    """(n_tr, dim) array of trace probes, one per row, and the term weight.

    randomized: draws from N(0, C), weight 1/n_tr (unbiased for both traces).
    eigenbasis: sqrt(C) images of the dominant eigenvectors of sqrt(C) H
    sqrt(C), weight 1; computed here, outside solve accounting.
    """
    if n_tr < 1:
        raise ValueError("n_tr must be at least 1")
    if mode == "randomized":
        return gf.zero_mean_batch(n_tr, seed).T, 1.0 / n_tr
    if mode != "eigenbasis":
        raise ValueError(f"unknown trace mode {mode!r}")
    pause = surr.counter.paused() if surr.counter is not None else nullcontext()
    with pause:
        basis = gf.preconditioned_eigenpairs(surr.hess_action, n_tr, seed=seed)
    return gf.apply_sqrt_C(basis.vectors).T, 1.0


def estimate_traces(surr, gf, mode="randomized", n_tr=40, seed=0):
    """Estimate both covariance-preconditioned traces of the Hessian with the
    probes of ``trace_probes``; the Hessian is applied to the probe block
    once, i.e. 2*n_tr PDE solves.
    """
    probes, weight = trace_probes(surr, gf, mode, n_tr, seed)
    psi = surr.hess_action(probes.T)
    mass = surr.space.mass
    tr_hc = weight * float(np.sum(probes.T * (mass @ psi)))
    tr_hc_sq = weight * float(np.sum(psi * (mass @ gf.apply_C(psi))))
    return TraceEstimate(tr_hc=tr_hc, tr_hc_sq=tr_hc_sq)


def analytic_mean(surr, gf, tr):
    """Closed-form mean of the quadratic expansion under N(mean, C)."""
    return surr.theta_bar + 0.5 * tr.tr_hc


def analytic_variance(surr, gf, tr):
    """Closed-form variance of the quadratic expansion under N(mean, C)."""
    grad_term = surr.space.inner(surr.grad, gf.apply_C(surr.grad))
    var = grad_term + 0.5 * tr.tr_hc_sq
    if var < -1e-12 * max(1.0, abs(surr.theta_bar)):
        raise NumericalError(
            f"negative variance {var:.3e}: Hessian self-adjointness broken"
        )
    return max(var, 0.0)


@dataclass
class RateStudy:
    """Mean absolute expansion errors against the covariance scaling."""

    eps: np.ndarray
    err_lin: np.ndarray
    err_quad: np.ndarray
    slope_lin: float
    slope_quad: float
    n_mc: int
    seed: int


def _loglog_slope(eps, err):
    err = np.maximum(np.asarray(err), 1e-300)
    if len(eps) < 2:
        return float("nan")
    return float(np.polyfit(np.log(eps), np.log(err), 1)[0])


def truncation_rate_study(problem, gf, z, eps_list, n_mc, seed=0):
    """Mean absolute errors of the linear and quadratic expansions under
    N(mean, eps*C) for each eps, with one frozen Monte Carlo sample.

    The same colored noise b_i is reused across eps values (common random
    numbers), so the decay of the error columns is smooth in eps.  The draw
    at eps is then anchor + sqrt(eps) b_i, and both expansions are
    polynomials in sqrt(eps) with coefficients <g, b_i> and <H b_i, b_i>,
    so each draw costs one Hessian action for the whole eps range; the
    draws are taken ``DRAW_CHUNK`` at a time, one block Hessian action per
    chunk.  The true objective costs one factorization and one solve per
    draw and eps, taken serially.  Also returns least-squares log-log slopes
    over the eps range.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    if np.any(eps <= 0.0):
        raise ValueError("eps values must be positive")
    surr = problem.surrogate(z)
    if not np.allclose(surr.anchor, gf.mean, atol=1e-12):
        raise ValueError("expansion anchor must match the field mean")
    base = gf.zero_mean_batch(n_mc, seed)
    mass = surr.space.mass
    grad_b = surr.grad @ (mass @ base)
    hess_bb = over_draw_chunks(
        lambda B: np.sum(surr.hess_action(B) * (mass @ B), axis=0), base
    )
    err_lin = np.empty(len(eps))
    err_quad = np.empty(len(eps))
    for k, e in enumerate(eps):
        fields = gf.mean[:, None] + np.sqrt(e) * base
        theta = np.array([problem.objective(z, fields[:, i]) for i in range(n_mc)])
        lin = surr.theta_bar + np.sqrt(e) * grad_b
        quad = lin + 0.5 * e * hess_bb
        err_lin[k] = np.mean(np.abs(theta - lin))
        err_quad[k] = np.mean(np.abs(theta - quad))
    return RateStudy(
        eps=eps,
        err_lin=err_lin,
        err_quad=err_quad,
        slope_lin=_loglog_slope(eps, err_lin),
        slope_quad=_loglog_slope(eps, err_quad),
        n_mc=n_mc,
        seed=seed,
    )

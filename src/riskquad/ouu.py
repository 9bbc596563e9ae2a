"""Risk-averse objective over injection rates, its control gradient, and
baselines.

The objective combines the tracking misfit at the mean field, the analytic
mean/variance corrections of the quadratic expansion with their traces
replaced by fixed-probe estimates, and a quadratic control cost:

    J(z) = theta(z) + w/2 sum_j <zeta_j, psi_j>
         + beta/2 ( <g, C g> + w/2 sum_j <psi_j, C psi_j> ) + gamma/2 |z|^2

with psi_j the Hessian action on probe j and w the probe weight, as computed
by ``surrogate.expansion_moments``.  The probe vectors are drawn once per
optimization, so J is a smooth deterministic function of z.  Its exact
gradient is assembled from a cascade of adjoint solves (one incremental pair
per probe, applied to the probe block at once, then two aggregate solves),
which makes the cost of one objective-plus-gradient evaluation exactly
4 + 4*n_tr PDE solves regardless of the parameter dimension.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import (COUNT, NATURAL, NONNEGATIVE, POSITIVE, REAL, UNIT,
                     check_settings, choice, list_of, setting)
from .fem import (
    grad_dot_load,
    interp_dot,
    weighted_stiffness_apply,
    weighted_stiffness_sum,
)
from .optim import BoxResult, minimize_box_lbfgs
from .surrogate import (RiskReport, expansion_moments, over_draw_chunks,
                        trace_probes)


@dataclass
class OuuConfig:
    """Risk weights, trace-probe budget, and optimizer settings.

    ``seed`` seeds the trace probes (and the SAA draws); in a run
    configuration it is the root ``seed``.  ``z0`` is the uniform initial
    control that ``optimize`` starts from when it is given none.  Every
    field is checked by kind when the config is built.
    """

    beta: float = setting(NONNEGATIVE, 1.0)
    gamma: float = setting(POSITIVE, 1e-5)
    n_tr: int = setting(NATURAL, 40)
    trace_mode: str = setting(choice("trace mode", "randomized", "eigenbasis"),
                              "randomized")
    beta_schedule: tuple = setting(list_of(NONNEGATIVE),
                                   (0.0, 0.25, 0.5, 0.75, 1.0))
    grad_reduction_tol: float = setting(UNIT, 5e-4)
    max_iter: int = setting(COUNT, 100)
    seed: int = setting(NATURAL, 0)
    z0: float = setting(REAL, 4.0)
    z_min: float = setting(REAL, 0.0)
    z_max: float = setting(REAL, 16.0)

    def __post_init__(self):
        check_settings(self)
        if not self.z_min < self.z_max:
            raise ValueError("z_min must be below z_max")
        if not self.z_min <= self.z0 <= self.z_max:
            raise ValueError("z0 must lie in [z_min, z_max]")
        sched = tuple(float(b) for b in self.beta_schedule)
        if sched != tuple(sorted(sched)):
            raise ValueError(f"beta_schedule: {sched} is not ascending")
        if sched and abs(sched[-1] - self.beta) > 1e-15:
            raise ValueError(f"beta_schedule: {sched} does not end at beta")
        self.beta_schedule = sched


@dataclass
class OuuState:
    """What the gradient cascade reuses from one objective evaluation; the
    incremental blocks hold one column per probe."""

    z: np.ndarray
    ws: object
    inc_u: np.ndarray
    inc_p: np.ndarray
    c_grad: np.ndarray
    c_psi: np.ndarray
    report: RiskReport = None


class RiskAverseObjective:
    """The risk-averse objective bound to a flow problem and a Gaussian law.

    Probe vectors are frozen at construction, one per row of ``probes``:
    random draws from N(0, C) in randomized mode, sqrt(C) images of the
    dominant preconditioned-Hessian eigenvectors at the nominal control in
    eigenbasis mode (one Lanczos eigensolve on the surrogate's Hessian form,
    two anchor solves per step and no covariance or mass solve; these ticks
    reach the problem's counter but no report's ``pde_solves``).
    Objective and gradient apply the incremental kernel to the whole probe
    block at once.
    """

    def __init__(self, problem, gf, cfg, nominal_control=None):
        self.problem = problem
        self.gf = gf
        self.cfg = cfg
        self.beta = cfg.beta
        if cfg.n_tr == 0:
            self.probes, self.weight = np.empty((0, problem.mesh.n_nodes)), 0.0
            return
        surr = None
        if cfg.trace_mode == "eigenbasis":
            if nominal_control is None:
                raise ValueError("eigenbasis mode needs a nominal control")
            surr = problem.surrogate(np.asarray(nominal_control, float))
        self.probes, self.weight = trace_probes(
            surr, gf, cfg.trace_mode, cfg.n_tr, cfg.seed
        )

    # -- objective ------------------------------------------------------------

    def evaluate(self, z):
        """Risk objective at z with the moments of ``expansion_moments``
        (and its negative-variance guard); exactly 2 + 2*n_tr PDE solves."""
        pr = self.problem
        start = pr.counter.count
        z = np.asarray(z, dtype=float)
        ws = pr.workspace(z)
        theta_bar = pr.objective_of_state(ws.u)
        grad_load = grad_dot_load(pr.mesh, ws.em, ws.u, ws.p)
        zeta = self.probes.T
        inc_u, inc_p = pr.incremental(ws, zeta)
        psi = pr.hessian_load(ws, zeta, inc_u, inc_p)
        report, c_grad, c_psi = expansion_moments(
            self.gf, theta_bar, grad_load, zeta, psi, self.weight
        )
        report.control_cost = 0.5 * self.cfg.gamma * float(z @ z)
        report.value = (report.mean_term + 0.5 * self.beta * report.variance_term
                        + report.control_cost)
        report.pde_solves = pr.counter.count - start
        state = OuuState(
            z=z, ws=ws, inc_u=inc_u, inc_p=inc_p, c_grad=c_grad, c_psi=c_psi,
            report=report,
        )
        return report, state

    # -- gradient ---------------------------------------------------------------

    def gradient(self, state):
        """Control gradient from a previous evaluation's state.

        Solves the adjoint cascade (one incremental pair per probe, then the
        two aggregate equations), costing exactly 2 + 2*n_tr additional PDE
        solves, and returns gamma*z - <f_i, u*>.
        """
        pr = self.problem
        mesh, em, ws = pr.mesh, state.ws.em, state.ws
        start = pr.counter.count
        zeta = self.probes.T
        mix = self.beta * state.c_psi
        mix += zeta
        mix *= 0.5 * self.weight
        adj_inc_p, adj_inc_u = pr.incremental(ws, mix)
        coef = em * (self.beta * mesh.interp_gauss(state.c_grad)
                     + interp_dot(mesh, mix, zeta))
        b3 = -(
            weighted_stiffness_apply(mesh, coef, ws.u)
            + weighted_stiffness_sum(mesh, em, mix, state.inc_u)
            + weighted_stiffness_sum(mesh, em, zeta, adj_inc_p)
        )
        b4 = -(
            pr.obs_operator @ ws.misfit
            + weighted_stiffness_apply(mesh, coef, ws.p)
            + weighted_stiffness_sum(mesh, em, mix, state.inc_p)
            + weighted_stiffness_sum(mesh, em, zeta, adj_inc_u)
        )
        adj_p = ws.solver.solve(b3)
        adj_u = ws.solver.solve(b4 - pr.obs_operator @ pr.observe(adj_p))
        grad = self.cfg.gamma * state.z - pr.source_fields.T @ (
            pr.space.mass @ adj_u
        )
        state.report.grad_norm = float(np.linalg.norm(grad))
        state.report.pde_solves += pr.counter.count - start
        return grad


# -- optimization -------------------------------------------------------------


@dataclass
class ContinuationLeg(BoxResult):
    """The optimizer's result on one continuation leg, at its ``beta``."""

    beta: float


@dataclass
class ContinuationResult:
    z: np.ndarray
    legs: list
    degraded: bool

    @property
    def final_report(self):
        return self.legs[-1].report


def _leg(objective, cfg, beta, z, spent):
    """Projected L-BFGS from z on a shallow copy of ``objective`` at
    ``beta``: the leg, and the solves of its schedule through it, ``spent``
    of them before it (its rows count from the schedule's start too)."""
    obj = copy.copy(objective)
    obj.beta = beta
    counter = obj.problem.counter
    start = counter.count - spent
    res = minimize_box_lbfgs(
        obj.evaluate, obj.gradient, z, cfg.z_min, cfg.z_max,
        rel_tol=cfg.grad_reduction_tol, max_iter=cfg.max_iter,
        solve_count=lambda: counter.count - start,
    )
    return ContinuationLeg(**vars(res), beta=beta), counter.count - start


def continuation(objective, cfg, z0, schedules):
    """Beta continuation from ``z0``, one ``ContinuationResult`` per beta
    schedule; each leg warm-starts from the previous optimum, and the legs
    share the objective's frozen probes or draws.

    ``objective`` answers ``evaluate(z) -> (report, state)``, with
    ``report.value``, and ``gradient(state)``, as ``RiskAverseObjective``
    and ``SaaObjective`` do; ``cfg`` gives the box and the stopping test.  A
    leg depends only on the betas up to it, so a leg that schedules share
    runs once (their results share its ``ContinuationLeg``), and each result
    is the one its schedule gives alone.
    """
    z0 = np.asarray(z0, dtype=float)
    done = {}  # betas up to a leg -> (leg, solves spent through it)
    results = []
    for schedule in schedules:
        legs, z, spent = [], z0, 0
        betas = tuple(map(float, schedule))
        for k in range(1, len(betas) + 1):
            if betas[:k] not in done:
                done[betas[:k]] = _leg(objective, cfg, betas[k - 1], z, spent)
            leg, spent = done[betas[:k]]
            legs.append(leg)
            z = leg.z
        results.append(ContinuationResult(
            z=z, legs=legs, degraded=any(leg.degraded for leg in legs)))
    return results


def optimize(problem, gf, cfg, z0=None):
    """Risk-averse control by projected L-BFGS with beta continuation.

    Probe vectors are drawn once (eigenbasis probes at ``z0``) and shared by
    every continuation leg; each leg warm-starts from the previous optimum
    and stops when the projected gradient norm has dropped by
    ``cfg.grad_reduction_tol`` relative to its value at the leg's start.
    Without ``z0`` it starts from the uniform control ``cfg.z0``.
    """
    z0 = np.full(problem.n_controls, cfg.z0) if z0 is None else z0
    objective = RiskAverseObjective(problem, gf, cfg, nominal_control=z0)
    return continuation(objective, cfg, z0, [cfg.beta_schedule or (cfg.beta,)])[0]


# -- sample average approximation baseline -------------------------------------


@dataclass
class SaaReport:
    """Sample-average objective, its sample moments, and its PDE solves so far."""

    value: float
    mean: float
    variance: float
    pde_solves: int = 0


class SaaObjective:
    """Sample-average risk objective with frozen draws and per-sample adjoints.

    J(z) = mean_i theta_i + beta/2 var_i + gamma/2 |z|^2 with the unbiased
    sample variance over a fixed set of parameter draws.  Factorizations are
    built once per sample and reused across all control evaluations; each
    objective-plus-gradient costs 2*n_mc PDE solves (state + adjoint per
    sample), with the protocol of ``RiskAverseObjective``.
    """

    def __init__(self, problem, gf, n_mc, beta, gamma, seed=0):
        if n_mc < 2:
            raise ValueError("the unbiased sample variance needs n_mc >= 2")
        self.problem = problem
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.n_mc = int(n_mc)
        self.samples = gf.sample_batch(n_mc, seed=seed)
        self.samples += problem.mean[:, None]
        self.solvers = [
            problem.solver_for(self.samples[:, i]) for i in range(n_mc)
        ]

    def evaluate(self, z):
        pr = self.problem
        start = pr.counter.count
        z = np.asarray(z, dtype=float)
        states = [pr.solve_state(z, s) for s in self.solvers]
        thetas = np.array([pr.objective_of_state(u) for u in states])
        mean = float(np.mean(thetas))
        var = float(np.var(thetas, ddof=1))
        value = mean + 0.5 * self.beta * var + 0.5 * self.gamma * float(z @ z)
        report = SaaReport(value, mean, var, pr.counter.count - start)
        return report, (z, states, thetas, mean, report)

    def gradient(self, state):
        pr = self.problem
        start = pr.counter.count
        z, states, thetas, mean, report = state
        weights = 1.0 / self.n_mc + self.beta * (thetas - mean) / (self.n_mc - 1)
        grad = self.gamma * z.copy()
        for w, u, solver in zip(weights, states, self.solvers):
            misfit = pr.observe(u) - pr.targets
            adj = solver.solve(-(pr.obs_operator @ misfit))
            grad -= w * (pr.source_fields.T @ (pr.space.mass @ adj))
        report.pde_solves += pr.counter.count - start
        return grad


# -- Monte Carlo evaluation of the true risk ------------------------------------


@dataclass
class TrueRisk:
    """Monte Carlo estimates of the distribution of the control objective:
    true and expansion samples (n_mc,) and scalar moments for one control,
    or (n_mc, k) samples and (k,) moments, a column per control of a block.
    The unbiased sample ``variance`` of one draw is NaN."""

    mean: float
    variance: float
    samples: np.ndarray
    lin_samples: np.ndarray = None
    quad_samples: np.ndarray = None

    def risk_measure(self, beta):
        """``mean + beta/2 * variance`` and its Monte Carlo standard error.

        ``beta`` is a scalar or one weight per column.  The error is the
        delta-method estimate from the sample moments: Var[mean] = var/n,
        Var[var] = (m4 - var^2)/n and Cov[mean, var] = m3/n, with m3 and m4
        the central moments.  It needs at least two samples.
        """
        beta = np.asarray(beta, dtype=float)
        n = len(self.samples)
        if n < 2:
            raise ValueError("a standard error needs at least two samples")
        centered = self.samples - self.mean
        var_of_mean = self.variance / n
        var_of_var = np.maximum(np.mean(centered**4, axis=0) - self.variance**2, 0) / n
        cov_mv = np.mean(centered**3, axis=0) / n
        se = np.sqrt(
            np.maximum(var_of_mean + 0.25 * beta**2 * var_of_var + beta * cov_mv, 0.0)
        )
        return self.mean + 0.5 * beta * self.variance, se


def evaluate_true_risk(problem, gf, z, n_mc, seed=0, with_surrogates=True,
                       threads=1):
    """Estimate mean and variance of the objective over parameter draws.

    ``z`` is a control vector or an (n_controls, k) block of controls that
    share the draws (see ``TrueRisk``).  It is the one Monte Carlo
    evaluator: the ``optimize`` and ``compare-mc`` commands score their
    controls with it, and ``truncation_rate_study`` each eps.  Each draw
    costs one assembly, one band scatter and one LAPACK factorization on
    the mesh's band plan (``solver_for``), and one counted solve per
    control; no factor is reused across draws.  When ``with_surrogates`` is
    set, each control's linear and quadratic expansion values on the same
    draws are returned too, after its workspace (two solves),
    ``surrogate.DRAW_CHUNK`` draws at a time with one block Hessian action
    (two solves per draw) per chunk.

    Draws run serially: scipy's banded Cholesky holds the interpreter lock,
    so a thread pool draws no faster.  ``threads`` therefore accepts only 1
    and raises ``ValueError`` otherwise; it remains only because the
    benchmark workloads pass ``threads=1``.
    """
    if threads != 1:
        raise ValueError("threads must be 1: Monte Carlo draws run serially")
    if n_mc < 1:
        raise ValueError("n_mc must be positive")
    z = np.asarray(z, dtype=float)
    fields = gf.sample_batch(n_mc, seed=seed)
    fields += problem.mean[:, None]
    theta = np.array([problem.objective(z, fields[:, i]) for i in range(n_mc)])
    lin = quad = None
    if with_surrogates:
        expansions = [
            (over_draw_chunks(s.eval_lin, fields), over_draw_chunks(s.eval_quad, fields))
            for s in map(problem.surrogate, z.reshape(len(z), -1).T)
        ]
        lin, quad = (
            np.column_stack(v).reshape(theta.shape) for v in zip(*expansions)
        )
    return TrueRisk(
        mean=np.mean(theta, axis=0),
        variance=np.var(theta, axis=0, ddof=1) if n_mc > 1 else np.nan * theta[0],
        samples=theta, lin_samples=lin, quad_samples=quad,
    )


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
    return float(np.polyfit(np.log(eps), np.log(err), 1)[0])


def truncation_rate_study(problem, gf, z, eps_list, n_mc, seed=0):
    """Mean absolute errors of the linear and quadratic expansions under
    N(mean, eps*C) for each eps, and their log-log slopes over the eps range.

    Each eps is one ``evaluate_true_risk`` call on ``gf.scaled(eps)`` with one
    seed, so every eps colors the same normals (common random numbers).  Only
    the first eps, e0, evaluates the expansions; on the draws of eps, which
    are those of e0 scaled by sqrt(eps/e0) about the anchor, they are
    lin = theta_bar + sqrt(eps/e0) (lin0 - theta_bar) and
    quad = lin + (eps/e0) (quad0 - lin0).  On the flow problem the study
    costs 1 + (2 + 3*n_mc) + (len(eps) - 1)*n_mc solves and len(eps)*n_mc
    factorizations.  The eps values are checked before any solve.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    if np.any(eps <= 0.0):
        raise ValueError("eps values must be positive")
    if len(set(eps)) < 2:
        raise ValueError("need at least two distinct eps values to fit a rate")
    theta_bar = problem.objective(z)
    first = evaluate_true_risk(problem, gf.scaled(eps[0]), z, n_mc, seed)
    err_lin, err_quad = [], []
    for e in eps:
        risk = first if e == eps[0] else evaluate_true_risk(
            problem, gf.scaled(e), z, n_mc, seed, with_surrogates=False)
        lin = theta_bar + np.sqrt(e / eps[0]) * (first.lin_samples - theta_bar)
        quad = lin + e / eps[0] * (first.quad_samples - first.lin_samples)
        err_lin.append(np.mean(np.abs(risk.samples - lin)))
        err_quad.append(np.mean(np.abs(risk.samples - quad)))
    return RateStudy(eps=eps, err_lin=np.array(err_lin), err_quad=np.array(err_quad),
                     slope_lin=_loglog_slope(eps, err_lin),
                     slope_quad=_loglog_slope(eps, err_quad), n_mc=n_mc, seed=seed)

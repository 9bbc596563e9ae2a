"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-6 and 8 are quick; criterion 7 runs the full-scale canonical
study (79x39 mesh, n_tr = 40, full beta continuation) and dominates the
suite's runtime.  Tolerances are fixed here, not calibrated elsewhere.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import riskquad as rq
from riskquad.checks import run_derivative_checks
from riskquad.cli import main as cli_main
from riskquad.ouu import truncation_rate_study
from riskquad.random_field import GaussianField
from riskquad.semilinear import SemilinearProblem
from riskquad.surrogate import estimate_traces


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# -- criterion 1: derivative tower -------------------------------------------


def test_criterion_1_derivative_tower():
    t0 = time.time()
    results = run_derivative_checks(seed=0)
    worst = max(err for _, err, _ in results)
    ok = all(err <= tol for _, err, tol in results)

    # second-order decay of the finite-difference error in h
    mesh = rq.Mesh(16, 8, 2.0, 1.0)
    problem = rq.PoissonFlowProblem(mesh, wells=rq.WellConfig(sigma=0.1))
    gf = rq.GaussianField(problem.space, 2e-2, 4.0)
    z = np.full(problem.n_controls, 4.0)
    surr = problem.surrogate(z)
    rng = np.random.default_rng(1)
    d = gf.sample(rng)
    exact = surr.grad_load @ d
    hs = np.array([1e-1, 1e-2, 1e-3])
    errs = [
        abs(
            (
                problem.objective(z, problem.mean + h * d)
                - problem.objective(z, problem.mean - h * d)
            )
            / (2 * h)
            - exact
        )
        for h in hs
    ]
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    elapsed = time.time() - t0
    ok = ok and 1.5 <= slope <= 2.5 and elapsed < 60.0
    _report(
        "criterion 1 (derivative tower)",
        ok,
        f"max rel err {worst:.2e} <= 1e-5, FD slope {slope:.2f}, {elapsed:.1f}s",
    )


# -- criteria 2 and 3: dense oracles on the tiny mesh --------------------------


@pytest.fixture(scope="module")
def dense_setup():
    mesh = rq.Mesh(6, 3, 2.0, 1.0)
    problem = rq.PoissonFlowProblem(mesh, wells=rq.WellConfig(sigma=0.3))
    gf = rq.GaussianField(problem.space, 2e-2, 4.0)
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    n = mesh.n_nodes
    M = problem.space.mass.toarray()
    A = (
        gf.kappa * problem.space.natural_stiffness
        + gf.alpha * problem.space.mass
    ).toarray()
    Ainv = np.linalg.inv(A)
    C_op = Ainv @ M @ Ainv @ M
    H = np.column_stack([surr.hess_action(e) for e in np.eye(n)])
    return problem, gf, surr, M, C_op, H


def test_criterion_2_analytic_moments(dense_setup):
    t0 = time.time()
    problem, gf, surr, M, C_op, H = dense_setup
    tr_hc = float(np.trace(C_op @ H))
    tr_hc_sq = float(np.trace(C_op @ H @ C_op @ H))
    mean = surr.theta_bar + 0.5 * tr_hc
    grad = surr.space.project(surr.grad_load)
    var = surr.grad_load @ (C_op @ grad) + 0.5 * tr_hc_sq

    n_draws = 100_000
    D = gf.sample_batch(n_draws, seed=5)
    vals = (
        surr.theta_bar
        + surr.grad_load @ D
        + 0.5 * np.einsum("in,in->n", D, (M @ H) @ D)
    )
    se_mean = vals.std(ddof=1) / np.sqrt(n_draws)
    mean_ok = abs(vals.mean() - mean) <= 5.0 * se_mean
    sample_var = float(np.var(vals, ddof=1))
    centered = vals - vals.mean()
    se_var = np.sqrt(max(np.mean(centered**4) - sample_var**2, 0.0) / n_draws)
    var_ok = abs(sample_var - var) <= 5.0 * se_var

    basis_tr = estimate_traces(surr, gf, "eigenbasis", n_tr=gf.dim, seed=0)
    eig_ok = (
        abs(basis_tr.tr_hc - tr_hc) <= 1e-6 * abs(tr_hc)
        and abs(basis_tr.tr_hc_sq - tr_hc_sq) <= 1e-6 * abs(tr_hc_sq)
    )
    elapsed = time.time() - t0
    _report(
        "criterion 2 (analytic moments vs dense/MC oracles)",
        mean_ok and var_ok and eig_ok and elapsed < 120.0,
        f"mean gap {abs(vals.mean()-mean):.3g} (5se={5*se_mean:.3g}), "
        f"var gap {abs(sample_var-var):.3g} (5se={5*se_var:.3g}), "
        f"complete-basis rel {abs(basis_tr.tr_hc-tr_hc)/abs(tr_hc):.1e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_trace_unbiasedness(dense_setup):
    problem, gf, surr, M, C_op, H = dense_setup
    exact = float(np.trace(C_op @ H))
    vals = np.array(
        [
            estimate_traces(surr, gf, "randomized", n_tr=10, seed=s).tr_hc
            for s in range(200)
        ]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    gap = abs(vals.mean() - exact)
    _report(
        "criterion 3 (randomized trace unbiasedness, 200 seeds)",
        gap <= 5.0 * se,
        f"ensemble mean {vals.mean():.4f} vs dense {exact:.4f}, "
        f"gap {gap:.3g} <= 5se {5*se:.3g}",
    )


# -- criterion 4: truncation error rates ---------------------------------------


@pytest.mark.slow
def test_criterion_4_truncation_rates():
    t0 = time.time()
    mesh = rq.Mesh(40, 20, 2.0, 1.0)
    problem = rq.PoissonFlowProblem(mesh, wells=rq.WellConfig(sigma=0.05))
    gf = rq.GaussianField(problem.space, 2e-2, 4.0)
    z = np.full(problem.n_controls, 4.0)
    study = truncation_rate_study(
        problem, gf, z, [2.0**-k for k in range(7)], n_mc=2000, seed=0
    )
    elapsed = time.time() - t0
    ok = (
        0.75 <= study.slope_lin <= 1.25
        and 1.25 <= study.slope_quad <= 1.75
        and elapsed < 600.0
    )
    _report(
        "criterion 4 (expansion error rates)",
        ok,
        f"slope_lin {study.slope_lin:.3f} in [0.75,1.25], "
        f"slope_quad {study.slope_quad:.3f} in [1.25,1.75], {elapsed:.0f}s",
    )


# -- criterion 5: exactness for the linear parameter-to-state map ---------------


def test_criterion_5_quadratic_exact_for_c_zero():
    mesh = rq.Mesh(12, 12, 1.0, 1.0)
    problem = SemilinearProblem(mesh, c=0.0)
    gf = GaussianField(problem.trace_space, 5e-2, 2.0)
    z = np.ones(mesh.n_nodes)
    surr = problem.surrogate(z)
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        m = gf.sample(rng)
        theta = problem.objective(z, m)
        worst = max(worst, abs(theta - surr.eval_quad(m)) / (1.0 + abs(theta)))
    _report(
        "criterion 5 (quadratic expansion exact at c=0)",
        worst <= 1e-8,
        f"max |theta - quad|/(1+|theta|) = {worst:.2e} <= 1e-8 over 100 draws",
    )


# -- criterion 6: solve accounting ----------------------------------------------


def test_criterion_6_solve_accounting():
    mesh = rq.Mesh(12, 6, 2.0, 1.0)
    problem = rq.PoissonFlowProblem(mesh, wells=rq.WellConfig(sigma=0.12))
    gf = rq.GaussianField(problem.space, 2e-2, 4.0)
    ok = True
    details = []
    for n_tr in (0, 7, 40):
        cfg = rq.OuuConfig(
            beta=1.0, gamma=1e-5, n_tr=n_tr, beta_schedule=(1.0,), seed=0
        )
        obj = rq.RiskAverseObjective(problem, gf, cfg)
        start = problem.counter.count
        _, state = obj.evaluate(np.full(20, 4.0))
        obj_solves = problem.counter.count - start
        obj.gradient(state)
        both_solves = problem.counter.count - start
        ok = ok and obj_solves == 2 + 2 * n_tr and both_solves == 4 + 4 * n_tr
        details.append(f"n_tr={n_tr}: {obj_solves}/{both_solves}")
    _report(
        "criterion 6 (solve accounting 2+2n_tr and 4+4n_tr)",
        ok,
        "; ".join(details),
    )


# -- criterion 7: canonical full-scale study -------------------------------------


@pytest.fixture(scope="module")
def canonical():
    mesh = rq.Mesh(79, 39, 2.0, 1.0)
    problem = rq.PoissonFlowProblem(mesh)
    gf = rq.GaussianField(problem.space, 2e-2, 4.0)
    cfg = rq.OuuConfig(
        beta=1.0, gamma=1e-5, n_tr=40,
        beta_schedule=(0.0, 0.25, 0.5, 0.75, 1.0), max_iter=100, seed=0,
    )
    z0 = np.full(problem.n_controls, 4.0)
    t0 = time.time()
    result = rq.optimize(problem, gf, cfg, z0=z0)
    return problem, gf, cfg, z0, result, time.time() - t0


@pytest.mark.slow
def test_criterion_7a_mean_and_variance_reduction(canonical):
    problem, gf, cfg, z0, result, t_opt = canonical
    t0 = time.time()
    risk = rq.evaluate_true_risk(
        problem, gf, np.column_stack([z0, result.z]), 10_000, seed=7,
        with_surrogates=False,
    )
    (mean_start, mean_opt), (var_start, var_opt) = risk.mean, risk.variance
    elapsed = t_opt + time.time() - t0
    mean_cut = 1.0 - mean_opt / mean_start
    var_cut = 1.0 - var_opt / var_start
    ok = mean_cut >= 0.20 and var_cut >= 0.20 and elapsed < 1800.0
    _report(
        "criterion 7a (canonical risk reduction >= 20%)",
        ok,
        f"mean {mean_start:.4g}->{mean_opt:.4g} (-{mean_cut:.0%}), "
        f"var {var_start:.4g}->{var_opt:.4g} (-{var_cut:.0%}), "
        f"optimize+MC {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_7b_beta_sweep_monotone(canonical):
    problem, gf, cfg, z0, result, _ = canonical
    means = [leg.report.mean_term for leg in result.legs]
    variances = [leg.report.variance_term for leg in result.legs]
    mean_inversions = sum(
        1 for a, b in zip(means, means[1:]) if b < a * (1.0 - 1e-12)
    )
    var_inversions = sum(
        1 for a, b in zip(variances, variances[1:]) if b > a * (1.0 + 1e-12)
    )
    ok = mean_inversions <= 1 and var_inversions <= 1
    _report(
        "criterion 7b (expansion mean up / variance down in beta)",
        ok,
        f"means {[f'{m:.4f}' for m in means]} ({mean_inversions} inversions), "
        f"variances {[f'{v:.4f}' for v in variances]} ({var_inversions} inversions)",
    )


@pytest.mark.slow
def test_criterion_7c_eigenbasis_dominates_randomized(canonical):
    problem, gf, cfg, z0, result, _ = canonical
    t0 = time.time()
    ok = True
    details = []
    betas = (0.5, 0.1, 0.01)
    modes = ("randomized", "eigenbasis")
    found = {}
    for mode in modes:
        for n_tr in (4, 16):
            # one objective per (mode, n_tr); the continuation runs each beta's
            # schedule (0, beta) and their shared beta = 0 leg once
            c = rq.OuuConfig(gamma=1e-5, n_tr=n_tr, trace_mode=mode,
                             max_iter=60, seed=0)
            obj = rq.RiskAverseObjective(problem, gf, c, nominal_control=z0)
            runs = rq.continuation(obj, c, z0, [(0.0, b) for b in betas])
            for beta, r in zip(betas, runs):
                found[(beta, mode, n_tr)] = r.z
    meta = [(b, m, n) for b in betas for m in modes for n in (4, 16)]
    controls = [found[k] for k in meta]
    # every control of every beta on the same 2000 draws
    risk = rq.evaluate_true_risk(
        problem, gf, np.column_stack(controls), 2000, seed=11,
        with_surrogates=False,
    )
    values, errors = risk.risk_measure([b for b, _, _ in meta])
    values = values + [0.5 * 1e-5 * float(z @ z) for z in controls]
    results = dict(zip(meta, zip(values, errors)))
    for beta in betas:
        for n_tr in (4, 16):
            v_rand, e_rand = results[(beta, "randomized", n_tr)]
            v_eig, e_eig = results[(beta, "eigenbasis", n_tr)]
            allowance = 3.0 * (e_rand + e_eig)
            good = v_eig <= v_rand + allowance
            ok = ok and good
            details.append(
                f"beta={beta} n_tr={n_tr}: eig {v_eig:.4f} vs rand "
                f"{v_rand:.4f} (+/-{allowance:.4f})"
            )
    _report(
        "criterion 7c (eigenbasis weakly dominates at matched solves)",
        ok,
        "; ".join(details) + f"; {time.time()-t0:.0f}s",
    )


# -- criterion 8: determinism ------------------------------------------------------


def test_criterion_8_deterministic_csvs(tmp_path):
    # the config whose outputs tests/test_golden.py compares with tests/golden
    path = Path(__file__).parent / "golden" / "config.json"
    pairs = []
    for run in ("r1", "r2"):
        out = tmp_path / run
        for cmd in ("truncation-study", "optimize", "sample-field"):
            code = cli_main(
                ["--config", str(path), "--out", str(out), "--seed", "9", cmd]
            )
            assert code == 0
        pairs.append(out)
    files = [
        "truncation_rates.csv", "iterates.csv", "optimal_control.csv",
        "true_risk_optimal.csv", "field_samples.csv",
    ]
    same = all(
        (pairs[0] / f).read_bytes() == (pairs[1] / f).read_bytes() for f in files
    )
    _report(
        "criterion 8 (identical config+seed gives identical CSVs)",
        same,
        f"{len(files)} files byte-identical across two runs",
    )

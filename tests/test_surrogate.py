import numpy as np
import pytest

from riskquad.errors import NumericalError
from riskquad.fem import build_mesh
from riskquad.poisson import PoissonFlowProblem, default_wells
from riskquad.random_field import GaussianField
from riskquad.semilinear import SemilinearProblem
from riskquad.surrogate import (
    QuadraticSurrogate,
    TraceEstimate,
    analytic_mean,
    analytic_variance,
    estimate_traces,
    truncation_rate_study,
)


@pytest.fixture(scope="module")
def tiny_flow():
    mesh = build_mesh(6, 3, 2.0, 1.0)
    problem = PoissonFlowProblem(mesh, wells=default_wells(sigma=0.3))
    gf = GaussianField(problem.space, 2e-2, 4.0)
    return mesh, problem, gf


def dense_operators(problem, gf, surr):
    n = problem.mesh.n_nodes
    M = problem.space.mass.toarray()
    A = (
        gf.kappa * problem.space.natural_stiffness + gf.alpha * problem.space.mass
    ).toarray()
    Ainv = np.linalg.inv(A)
    C_op = gf.scale * Ainv @ M @ Ainv @ M
    H = np.column_stack([surr.hess_action(e) for e in np.eye(n)])
    return M, C_op, H


def test_eval_at_anchor_returns_base_value(tiny_flow):
    _, problem, gf = tiny_flow
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    assert surr.eval_lin(surr.anchor) == pytest.approx(surr.theta_bar)
    assert surr.eval_quad(surr.anchor) == pytest.approx(surr.theta_bar)


def test_zero_gradient_linear_expansion_is_flat(tiny_flow):
    _, problem, _ = tiny_flow
    space = problem.space
    surr = QuadraticSurrogate(
        space=space, theta_bar=2.5, grad=np.zeros(space.dim),
        hess_action=lambda d: np.zeros_like(d), anchor=np.zeros(space.dim),
    )
    rng = np.random.default_rng(0)
    m = rng.standard_normal(space.dim)
    assert surr.eval_lin(m) == 2.5
    assert surr.eval_quad(m) == 2.5


def test_eval_lin_matches_dense_formula(tiny_flow):
    _, problem, gf = tiny_flow
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    M = problem.space.mass.toarray()
    rng = np.random.default_rng(1)
    m = gf.sample(rng)
    expected = surr.theta_bar + surr.grad @ (M @ (m - surr.anchor))
    assert surr.eval_lin(m) == pytest.approx(expected, rel=1e-12)


def test_block_eval_matches_per_column(tiny_flow):
    _, problem, gf = tiny_flow
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    fields = gf.sample_batch(5, seed=3)
    start = problem.counter.count
    lin, quad = surr.eval_lin(fields), surr.eval_quad(fields)
    block_solves = problem.counter.count - start
    ref_lin = np.array([surr.eval_lin(f) for f in fields.T])
    ref_quad = np.array([surr.eval_quad(f) for f in fields.T])
    assert problem.counter.count - start - block_solves == block_solves == 10
    np.testing.assert_allclose(lin, ref_lin, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(quad, ref_quad, rtol=1e-12, atol=0.0)


def test_quadratic_beats_linear_near_anchor(tiny_flow):
    _, problem, gf = tiny_flow
    z = np.full(problem.n_controls, 4.0)
    surr = problem.surrogate(z)
    rng = np.random.default_rng(2)
    narrow = gf.scaled(1e-4)
    wins = 0
    for _ in range(5):
        m = narrow.sample(rng)
        theta = problem.objective(z, m)
        if abs(theta - surr.eval_quad(m)) < 0.1 * abs(theta - surr.eval_lin(m)):
            wins += 1
    assert wins >= 4


def test_analytic_mean_zero_hessian(tiny_flow):
    _, problem, gf = tiny_flow
    space = problem.space
    surr = QuadraticSurrogate(
        space=space, theta_bar=1.5, grad=np.ones(space.dim),
        hess_action=lambda d: np.zeros_like(d), anchor=np.zeros(space.dim),
    )
    tr = estimate_traces(surr, gf, "randomized", n_tr=5, seed=0)
    assert tr.tr_hc == 0.0 and tr.tr_hc_sq == 0.0
    assert analytic_mean(surr, gf, tr) == 1.5
    var = analytic_variance(surr, gf, tr)
    ones = np.ones(space.dim)
    assert var == pytest.approx(space.inner(ones, gf.apply_C(ones)), rel=1e-12)


def test_mean_term_scales_linearly_with_eps(tiny_flow):
    _, problem, gf = tiny_flow
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    tr1 = estimate_traces(surr, gf, "eigenbasis", n_tr=gf.dim, seed=0)
    tr2 = estimate_traces(surr, gf.scaled(0.25), "eigenbasis", n_tr=gf.dim, seed=0)
    assert tr2.tr_hc == pytest.approx(0.25 * tr1.tr_hc, rel=1e-6)
    assert tr2.tr_hc_sq == pytest.approx(0.0625 * tr1.tr_hc_sq, rel=1e-6)


def test_analytic_moments_match_monte_carlo(tiny_flow):
    _, problem, gf = tiny_flow
    z = np.full(problem.n_controls, 4.0)
    surr = problem.surrogate(z)
    M, C_op, H = dense_operators(problem, gf, surr)
    tr_hc = np.trace(C_op @ H)
    tr_hc_sq = np.trace(C_op @ H @ C_op @ H)
    mean = surr.theta_bar + 0.5 * tr_hc
    var = (M @ surr.grad) @ (C_op @ surr.grad) + 0.5 * tr_hc_sq

    n = 100_000
    D = gf.sample_batch(n, seed=5) - gf.mean[:, None]
    vals = (
        surr.theta_bar
        + (M @ surr.grad) @ D
        + 0.5 * np.einsum("in,in->n", D, (M @ H) @ D)
    )
    se_mean = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - mean) <= 5.0 * se_mean
    centered = vals - vals.mean()
    sample_var = np.var(vals, ddof=1)
    se_var = np.sqrt(
        max(np.mean(centered**4) - sample_var**2, 0.0) / n
    )
    assert abs(sample_var - var) <= 5.0 * se_var


def test_linear_variance_decomposition(tiny_flow):
    # gradient term alone equals the Monte Carlo variance of the linear part
    _, problem, gf = tiny_flow
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    M = problem.space.mass.toarray()
    grad_term = surr.space.inner(surr.grad, gf.apply_C(surr.grad))
    n = 50_000
    D = gf.sample_batch(n, seed=6) - gf.mean[:, None]
    lin = (M @ surr.grad) @ D
    sample_var = np.var(lin, ddof=1)
    se = sample_var * np.sqrt(2.0 / (n - 1))
    assert abs(sample_var - grad_term) <= 5.0 * se


def test_traces_zero_hessian_both_modes(tiny_flow):
    _, problem, gf = tiny_flow
    space = problem.space
    surr = QuadraticSurrogate(
        space=space, theta_bar=0.0, grad=np.zeros(space.dim),
        hess_action=lambda d: np.zeros_like(d), anchor=np.zeros(space.dim),
    )
    for mode in ("randomized", "eigenbasis"):
        tr = estimate_traces(surr, gf, mode, n_tr=4, seed=0)
        assert tr.tr_hc == 0.0 and tr.tr_hc_sq == 0.0


def test_randomized_traces_unbiased(tiny_flow):
    _, problem, gf = tiny_flow
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    _, C_op, H = dense_operators(problem, gf, surr)
    exact = np.trace(C_op @ H)
    vals = np.array(
        [
            estimate_traces(surr, gf, "randomized", n_tr=5, seed=s).tr_hc
            for s in range(60)
        ]
    )
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - exact) <= 5.0 * se


def test_complete_eigenbasis_traces_exact(tiny_flow):
    _, problem, gf = tiny_flow
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    _, C_op, H = dense_operators(problem, gf, surr)
    tr = estimate_traces(surr, gf, "eigenbasis", n_tr=gf.dim, seed=0)
    exact_1 = np.trace(C_op @ H)
    exact_2 = np.trace(C_op @ H @ C_op @ H)
    assert abs(tr.tr_hc - exact_1) <= 1e-6 * abs(exact_1)
    assert abs(tr.tr_hc_sq - exact_2) <= 1e-6 * abs(exact_2)


def test_trace_estimation_costs_two_solves_per_probe(tiny_flow):
    _, problem, gf = tiny_flow
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    for mode, n_tr in (("randomized", 6), ("eigenbasis", 4)):
        start = problem.counter.count
        estimate_traces(surr, gf, mode, n_tr=n_tr, seed=1)
        assert problem.counter.count - start == 2 * n_tr


def test_randomized_traces_deterministic_per_seed(tiny_flow):
    _, problem, gf = tiny_flow
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    a = estimate_traces(surr, gf, "randomized", n_tr=3, seed=9)
    b = estimate_traces(surr, gf, "randomized", n_tr=3, seed=9)
    assert a.tr_hc == b.tr_hc and a.tr_hc_sq == b.tr_hc_sq


def test_negative_variance_guard(tiny_flow):
    _, problem, gf = tiny_flow
    space = problem.space
    surr = QuadraticSurrogate(
        space=space, theta_bar=0.0, grad=np.zeros(space.dim),
        hess_action=lambda d: np.zeros_like(d), anchor=np.zeros(space.dim),
    )
    broken = TraceEstimate(tr_hc=0.0, tr_hc_sq=-1.0)
    with pytest.raises(NumericalError):
        analytic_variance(surr, gf, broken)


def test_rate_study_single_sample_deterministic(tiny_flow):
    _, problem, gf = tiny_flow
    z = np.full(problem.n_controls, 4.0)
    a = truncation_rate_study(problem, gf, z, [0.5], n_mc=1, seed=3)
    b = truncation_rate_study(problem, gf, z, [0.5], n_mc=1, seed=3)
    assert a.err_lin[0] == b.err_lin[0]
    assert a.err_quad[0] == b.err_quad[0]


def test_rate_study_exact_for_linear_state_map():
    mesh = build_mesh(8, 8, 1.0, 1.0)
    problem = SemilinearProblem(mesh, c=0.0)
    gf = GaussianField(problem.trace_space, 5e-2, 2.0)
    z = np.ones(mesh.n_nodes)
    study = truncation_rate_study(problem, gf, z, [1.0, 0.25], n_mc=20, seed=0)
    assert np.all(study.err_quad < 1e-10)
    assert np.all(study.err_lin > 1e-6)


def _rate_study_per_eps(problem, gf, z, eps_list, n_mc, seed):
    """Reference: evaluate both expansions afresh on every draw at every eps."""
    surr = problem.surrogate(z)
    base = gf.zero_mean_batch(n_mc, seed)
    err_lin, err_quad = [], []
    for e in eps_list:
        fields = gf.mean[:, None] + np.sqrt(e) * base
        theta = np.array([problem.objective(z, f) for f in fields.T])
        lin = np.array([surr.eval_lin(f) for f in fields.T])
        quad = np.array([surr.eval_quad(f) for f in fields.T])
        err_lin.append(np.mean(np.abs(theta - lin)))
        err_quad.append(np.mean(np.abs(theta - quad)))
    return np.array(err_lin), np.array(err_quad)


def test_rate_study_matches_per_eps_evaluation():
    mesh = build_mesh(12, 6, 2.0, 1.0)
    problem = PoissonFlowProblem(mesh, wells=default_wells(sigma=0.12))
    gf = GaussianField(problem.space, 2e-2, 4.0)
    z = np.full(problem.n_controls, 4.0)
    eps_list = [1.0, 0.5, 0.25]
    study = truncation_rate_study(problem, gf, z, eps_list, n_mc=10, seed=2)
    err_lin, err_quad = _rate_study_per_eps(problem, gf, z, eps_list, 10, 2)
    assert np.allclose(study.err_lin, err_lin, rtol=1e-12, atol=0.0)
    assert np.allclose(study.err_quad, err_quad, rtol=1e-12, atol=0.0)


def test_rate_study_one_hessian_action_per_draw(tiny_flow):
    _, problem, gf = tiny_flow
    z = np.full(problem.n_controls, 4.0)
    start = problem.counter.count
    truncation_rate_study(problem, gf, z, [1.0, 0.5, 0.25], n_mc=4, seed=0)
    # surrogate workspace (2) + one Hessian action (2) per draw; the
    # per-draw objectives use their own solvers, which count too
    assert problem.counter.count - start == 2 + 2 * 4 + 3 * 4


def test_rate_study_slopes_small_mesh():
    mesh = build_mesh(16, 8, 2.0, 1.0)
    problem = PoissonFlowProblem(mesh, wells=default_wells(sigma=0.1))
    gf = GaussianField(problem.space, 2e-2, 4.0)
    z = np.full(problem.n_controls, 4.0)
    study = truncation_rate_study(
        problem, gf, z, [2.0**-k for k in range(7)], n_mc=200, seed=0
    )
    assert 0.75 <= study.slope_lin <= 1.25
    assert 1.25 <= study.slope_quad <= 1.75
    # doubling eps multiplies the quadratic error by about 2^1.5 at the
    # small-eps end
    ratios = study.err_quad[-3:-1] / study.err_quad[-2:]
    assert np.all((2.0**1.1 <= ratios) & (ratios <= 2.0**1.9))

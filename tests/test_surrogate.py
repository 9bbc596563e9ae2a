import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from riskquad.errors import NumericalError
from riskquad.fem import assemble_coupling, Mesh
from riskquad.ouu import truncation_rate_study
from riskquad.poisson import PoissonFlowProblem, WellConfig
from riskquad.random_field import FieldSpace, GaussianField
from riskquad.semilinear import SemilinearProblem
from riskquad.surrogate import (
    QuadraticSurrogate,
    estimate_traces,
    expansion_moments,
)


@pytest.fixture(scope="module")
def tiny_flow():
    mesh = Mesh(6, 3, 2.0, 1.0)
    problem = PoissonFlowProblem(mesh, wells=WellConfig(sigma=0.3))
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


def test_flow_hess_action_is_the_projected_hessian_load(tiny_flow):
    _, problem, _ = tiny_flow
    z = np.full(problem.n_controls, 4.0)
    surr = problem.surrogate(z)
    ws = problem.workspace(z)
    M = np.random.default_rng(12).standard_normal((problem.mesh.n_nodes, 3))
    for m in (M[:, 0], M):
        got = surr.hess_action(m)
        assert np.array_equal(got, problem.space.project(surr.hess_load(m)))
        assert np.array_equal(got, problem.hess_action(ws, m))


def test_flow_surrogate_about_a_moved_field(tiny_flow, monkeypatch):
    # expanding about m = mean + d gives the bits of a problem anchored at m,
    # and spends the state and adjoint solves on a solver of its own
    mesh, problem, gf = tiny_flow
    z = np.full(problem.n_controls, 4.0)
    m = problem.mean + gf.sample(np.random.default_rng(16))
    D = np.random.default_rng(17).standard_normal((mesh.n_nodes, 3))
    ref = PoissonFlowProblem(mesh, wells=problem.wells, mean=m).surrogate(z)

    assert problem.workspace(z, m).solver is not problem.anchor_solver
    monkeypatch.setattr(problem, "anchor_solver", None)
    start = problem.counter.count
    surr = problem.surrogate(z, m)
    assert problem.counter.count - start == 2
    assert surr.theta_bar == ref.theta_bar
    assert np.array_equal(surr.anchor, m)
    assert np.array_equal(surr.grad_load, ref.grad_load)
    assert np.array_equal(surr.hess_load(D), ref.hess_load(D))


def _directions(problem, seed):
    Z = np.random.default_rng(seed).standard_normal((problem.mesh.n_nodes, 3))
    return Z[:, 0], Z


def test_flow_hessian_kernel_keeps_the_former_products(tiny_flow, monkeypatch):
    # the cached transposes give the bits of the products through B.T, and
    # the observation operator W = M Q the former chain M Q Q^T M to rounding
    _, problem, _ = tiny_flow
    ws = problem.workspace(np.full(problem.n_controls, 4.0))
    mass, Q = problem.space.mass, problem.obs_fields
    solve = problem.anchor_solver.apply_inverse
    for zeta in _directions(problem, 13):
        inc_u, inc_p = problem.incremental(ws, zeta)
        k = ws.kernel
        ref_u = solve(-(k.B_u @ zeta))
        ref_p = solve(-(mass @ (Q @ (Q.T @ (mass @ ref_u)))) - k.B_p @ zeta)
        for got, ref in ((inc_u, ref_u), (inc_p, ref_p)):
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.array_equal(
            problem.hessian_load(ws, zeta, inc_u, inc_p),
            k.M_w @ zeta + k.B_p.T @ inc_u + k.B_u.T @ inc_p,
        )

    calls = []
    monkeypatch.setattr("riskquad.poisson.assemble_coupling",
                        lambda *a: calls.append(a) or assemble_coupling(*a))
    kernel = ws.kernel
    for zeta in _directions(problem, 14):
        problem.incremental(ws, zeta)
    assert calls == [] and ws.kernel is kernel


def _former_lifted(solver, loads, bc_values):
    d = solver.dirichlet
    b = np.array(loads, dtype=float)
    vals = np.broadcast_to(np.asarray(bc_values, dtype=float), d.shape)
    bt = b.T
    if np.any(vals != 0.0):
        lift = np.zeros(solver.n)
        lift[d] = vals
        bt -= solver.op @ lift
    bt[..., d] = vals
    return b


def test_lifted_keeps_the_former_bits_and_the_loads(tiny_flow):
    _, problem, _ = tiny_flow
    solver = problem.anchor_solver
    n_bc = len(problem.mesh.dirichlet_nodes)
    data = {"scalar 0": 0.0, "zero array": np.zeros(n_bc),
            "per-node": problem.dirichlet_bc + np.linspace(0.5, 1.5, n_bc)}
    for loads in _directions(problem, 15):
        kept = loads.copy()
        for name, bc in data.items():
            got = solver._lifted(loads, bc)
            assert np.array_equal(got, _former_lifted(solver, loads, bc)), name
            assert np.array_equal(loads, kept), name


def test_zero_gradient_linear_expansion_is_flat(tiny_flow):
    _, problem, _ = tiny_flow
    space = problem.space
    surr = QuadraticSurrogate(
        space=space, theta_bar=2.5, grad_load=np.zeros(space.dim),
        hess_load=lambda d: np.zeros_like(d), anchor=np.zeros(space.dim),
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
    grad = problem.space.project(surr.grad_load)
    expected = surr.theta_bar + grad @ (M @ (m - surr.anchor))
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


def test_eval_quad_sums_the_hessian_load_without_a_projection(tiny_flow,
                                                            monkeypatch):
    _, problem, gf = tiny_flow
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    fields = gf.sample_batch(3, seed=4)
    mass = problem.space.mass

    def projected(m):
        d = m - (surr.anchor if m.ndim == 1 else surr.anchor[:, None])
        md = mass @ d
        return (surr.theta_bar + surr.space.project(surr.grad_load) @ md
                + 0.5 * np.sum(surr.hess_action(d) * md, axis=0))

    expected = [projected(m) for m in (fields[:, 0], fields)]
    projections = []
    project = FieldSpace.project
    monkeypatch.setattr(
        FieldSpace, "project",
        lambda space, load: projections.append(load) or project(space, load),
    )
    got = [surr.eval_quad(m) for m in (fields[:, 0], fields)]
    assert projections == []
    for g, e in zip(got, expected):
        np.testing.assert_allclose(g, e, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("which", ["flow", "semilinear"])
def test_expansion_makes_no_mass_projection(tiny_flow, which, monkeypatch):
    # the gradient is kept as a load, so neither building an expansion nor
    # its values project a load onto a field
    if which == "flow":
        _, problem, gf = tiny_flow
        z = np.full(problem.n_controls, 4.0)
    else:
        mesh = Mesh(6, 6, 1.0, 1.0)
        problem = SemilinearProblem(mesh)
        gf = GaussianField(problem.trace_space, 5e-2, 2.0)
        z = np.ones(mesh.n_nodes)
    fields = gf.sample_batch(3, seed=7)
    projections = []
    project = FieldSpace.project
    monkeypatch.setattr(
        FieldSpace, "project",
        lambda space, load: projections.append(load) or project(space, load),
    )
    surr = problem.surrogate(z)
    for m in (fields[:, 0], fields):
        surr.eval_lin(m)
        surr.eval_quad(m)
    assert projections == []


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
        space=space, theta_bar=1.5, grad_load=space.mass @ np.ones(space.dim),
        hess_load=lambda d: np.zeros_like(d), anchor=np.zeros(space.dim),
    )
    tr = estimate_traces(surr, gf, "randomized", n_tr=5, seed=0)
    assert tr.tr_hc == 0.0 and tr.tr_hc_sq == 0.0
    assert tr.mean_term == 1.5
    var = tr.variance_term
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
    grad = surr.space.project(surr.grad_load)
    var = surr.grad_load @ (C_op @ grad) + 0.5 * tr_hc_sq

    n = 100_000
    D = gf.sample_batch(n, seed=5)
    vals = (
        surr.theta_bar
        + surr.grad_load @ D
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
    grad_term = surr.grad_load @ gf.apply_C_to_loads(surr.grad_load)
    n = 50_000
    D = gf.sample_batch(n, seed=6)
    lin = surr.grad_load @ D
    sample_var = np.var(lin, ddof=1)
    se = sample_var * np.sqrt(2.0 / (n - 1))
    assert abs(sample_var - grad_term) <= 5.0 * se


def test_traces_zero_hessian_both_modes(tiny_flow):
    _, problem, gf = tiny_flow
    space = problem.space
    surr = QuadraticSurrogate(
        space=space, theta_bar=0.0, grad_load=np.zeros(space.dim),
        hess_load=lambda d: np.zeros_like(d), anchor=np.zeros(space.dim),
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
    start = problem.counter.count
    estimate_traces(surr, gf, "randomized", n_tr=6, seed=1)
    assert problem.counter.count - start == 2 * 6

    # eigenbasis: the eigensolve's Hessian columns are counted as well, two
    # solves each; the probe block itself costs 2*n_tr
    columns = []

    def counted(m):
        columns.append(1 if np.ndim(m) == 1 else np.shape(m)[1])
        return surr.hess_load(m)

    eig_surr = dataclasses.replace(surr, hess_load=counted)
    n_tr = 4
    start = problem.counter.count
    estimate_traces(eig_surr, gf, "eigenbasis", n_tr=n_tr, seed=1)
    probe_block = columns.pop()
    assert probe_block == n_tr
    assert sum(columns) > 0
    assert problem.counter.count - start == 2 * n_tr + 2 * sum(columns)


def test_randomized_traces_deterministic_per_seed(tiny_flow):
    _, problem, gf = tiny_flow
    surr = problem.surrogate(np.full(problem.n_controls, 4.0))
    a = estimate_traces(surr, gf, "randomized", n_tr=3, seed=9)
    b = estimate_traces(surr, gf, "randomized", n_tr=3, seed=9)
    assert a.tr_hc == b.tr_hc and a.tr_hc_sq == b.tr_hc_sq


def test_negative_variance_guard(tiny_flow):
    # a covariance image of -load makes the probe sum, and so the
    # variance, -1; rounding-sized negatives are clamped to zero
    _, problem, _ = tiny_flow
    n = problem.space.dim
    broken = SimpleNamespace(apply_C_to_loads=lambda loads: -loads)
    probe = np.zeros((n, 1))
    probe[0, 0] = np.sqrt(2.0)
    with pytest.raises(NumericalError):
        expansion_moments(broken, 0.0, np.zeros(n), probe, probe, 1.0)
    report, _, _ = expansion_moments(broken, 0.0, np.zeros(n), probe,
                                     1e-7 * probe, 1.0)
    assert report.variance_term == 0.0


def test_rate_study_single_sample_deterministic(tiny_flow):
    _, problem, gf = tiny_flow
    z = np.full(problem.n_controls, 4.0)
    a = truncation_rate_study(problem, gf, z, [0.5, 0.25], n_mc=1, seed=3)
    b = truncation_rate_study(problem, gf, z, [0.5, 0.25], n_mc=1, seed=3)
    assert np.array_equal(a.err_lin, b.err_lin)
    assert np.array_equal(a.err_quad, b.err_quad)


@pytest.mark.parametrize("eps_list", [[0.5], [0.5, 0.5], []])
def test_rate_study_needs_two_distinct_eps(tiny_flow, eps_list):
    _, problem, gf = tiny_flow
    z = np.full(problem.n_controls, 4.0)
    start = problem.counter.count
    with pytest.raises(ValueError, match="two distinct eps"):
        truncation_rate_study(problem, gf, z, eps_list, n_mc=2, seed=0)
    assert problem.counter.count == start


def test_rate_study_exact_for_linear_state_map():
    mesh = Mesh(8, 8, 1.0, 1.0)
    problem = SemilinearProblem(mesh, c=0.0)
    gf = GaussianField(problem.trace_space, 5e-2, 2.0)
    z = np.ones(mesh.n_nodes)
    study = truncation_rate_study(problem, gf, z, [1.0, 0.25], n_mc=20, seed=0)
    assert np.all(study.err_quad < 1e-10)
    assert np.all(study.err_lin > 1e-6)


def _rate_study_per_eps(problem, gf, z, eps_list, n_mc, seed):
    """Reference: evaluate both expansions afresh on every draw at every eps."""
    surr = problem.surrogate(z)
    base = gf.sample_batch(n_mc, seed)
    err_lin, err_quad = [], []
    for e in eps_list:
        fields = problem.mean[:, None] + np.sqrt(e) * base
        theta = np.array([problem.objective(z, f) for f in fields.T])
        lin = np.array([surr.eval_lin(f) for f in fields.T])
        quad = np.array([surr.eval_quad(f) for f in fields.T])
        err_lin.append(np.mean(np.abs(theta - lin)))
        err_quad.append(np.mean(np.abs(theta - quad)))
    return np.array(err_lin), np.array(err_quad)


def test_rate_study_matches_per_eps_evaluation():
    mesh = Mesh(12, 6, 2.0, 1.0)
    problem = PoissonFlowProblem(mesh, wells=WellConfig(sigma=0.12))
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
    # the anchor objective (1); at the first eps the surrogate workspace (2),
    # one objective solve per draw on its own factorization and one Hessian
    # action (2) per draw; at every other eps one objective solve per draw
    assert problem.counter.count - start == 1 + (2 + 3 * 4) + 2 * 4


def test_rate_study_slopes_small_mesh():
    mesh = Mesh(16, 8, 2.0, 1.0)
    problem = PoissonFlowProblem(mesh, wells=WellConfig(sigma=0.1))
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

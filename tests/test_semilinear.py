import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from riskquad.checks import check_gradient, check_hessian
from riskquad.errors import NumericalError
from riskquad.fem import (
    FastDiagonalization,
    Mesh,
    SpdSolver,
    assemble_mass,
    assemble_weighted_mass,
)
from riskquad.random_field import GaussianField
from riskquad.semilinear import SemilinearProblem


@pytest.fixture(scope="module")
def setup():
    mesh = Mesh(12, 12, 1.0, 1.0)
    problem = SemilinearProblem(mesh, c=1.0)
    gf = GaussianField(problem.trace_space, 5e-2, 2.0)
    return mesh, problem, gf


def test_source_of_the_wrong_length_fails_before_any_solve(setup):
    mesh, problem, _ = setup
    start = problem.counter.count
    for z in (np.ones(3), np.ones((mesh.n_nodes, 2))):
        with pytest.raises(ValueError, match=f"n_nodes is {mesh.n_nodes}"):
            problem.objective(z)
    assert problem.counter.count == start


@pytest.mark.parametrize("flux, message", [
    (np.ones(3), r"^flux of shape \(3,\): the trace has 26 nodes$"),
    (np.ones((26, 2)), r"^flux of shape \(26, 2\): the trace has 26 nodes$"),
    (np.full(26, np.nan), "^flux must be finite$"),
], ids=["length", "block", "nan"])
def test_bad_flux_fails_by_name_before_any_solve(setup, flux, message):
    mesh, problem, _ = setup
    z = np.ones(mesh.n_nodes)
    start = problem.counter.count
    for call in (problem.objective, problem.workspace, problem.surrogate):
        with pytest.raises(ValueError, match=message):
            call(z, flux)
    assert problem.counter.count == start


@pytest.mark.parametrize("nx, ny", [(12, 12), (7, 3)])
def test_flux_operator_is_the_trace_scatter_and_gather_bit_for_bit(nx, ny):
    # B m is the trace mass product scattered to the trace nodes, and B^T v
    # the trace mass times the gathered values, in the same bits
    problem = SemilinearProblem(Mesh(nx, ny, 1.0, 1.0))
    B, trace, n = problem.flux_operator, problem.trace_space, problem.mesh.n_nodes
    rng = np.random.default_rng(12)
    for cols in ((), (5,)):
        m = rng.standard_normal((trace.dim,) + cols)
        scatter = np.zeros((n,) + cols)
        scatter[trace.node_index] = trace.mass @ m
        assert np.array_equal(B @ m, scatter)
        v = rng.standard_normal((n,) + cols)
        assert np.array_equal(B.T @ v, trace.mass @ v[trace.node_index])


def test_trivial_zero_state():
    problem = SemilinearProblem(Mesh(6, 6, 1.0, 1.0), c=0.0)
    u, _, history = problem.solve_state(
        np.zeros(problem.mesh.n_nodes), np.zeros(problem.trace_space.dim)
    )
    assert np.abs(u).max() == 0.0
    assert history[0] <= problem.newton_tol


def test_c_zero_is_a_single_linear_solve():
    problem = SemilinearProblem(Mesh(8, 8, 1.0, 1.0), c=0.0)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(problem.mesh.n_nodes)
    start = problem.counter.count
    _, _, history = problem.solve_state(z, np.zeros(problem.trace_space.dim))
    assert problem.counter.count - start == 1
    assert len(history) == 2 and history[-1] <= problem.newton_tol


def test_c_zero_newton_builds_no_band_factorization(monkeypatch):
    # at c = 0 one counted fast-diagonalization solver of the Laplacian serves
    # every Newton step; three objectives are three counted solves
    factorizations = []
    band_cholesky = SpdSolver._banded_cholesky
    monkeypatch.setattr(SpdSolver, "_banded_cholesky",
                        lambda s: factorizations.append(s) or band_cholesky(s))
    problem = SemilinearProblem(Mesh(8, 8, 1.0, 1.0), c=0.0)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(problem.mesh.n_nodes)
    for _ in range(3):
        problem.objective(z, rng.standard_normal(problem.trace_space.dim))
    assert problem.counter.count == 3
    assert factorizations == []
    assert "band_plan" not in vars(problem.mesh)
    solver = problem._linearized_solver(z)
    assert "_factor" not in vars(solver)
    assert isinstance(solver.fast, FastDiagonalization)
    assert solver.counter is problem.counter


def _manufactured_error(n):
    # u* = x(1-x): zero on the Dirichlet sides, zero flux top/bottom
    mesh = Mesh(n, n, 1.0, 1.0)
    problem = SemilinearProblem(mesh, c=1.0)
    exact = mesh.node_x * (1.0 - mesh.node_x)
    z = 2.0 + exact**3
    u, _, _ = problem.solve_state(z, np.zeros(problem.trace_space.dim))
    M = assemble_mass(mesh)
    e = u - exact
    return float(np.sqrt(e @ (M @ e)))


def test_manufactured_solution_converges():
    errors = [_manufactured_error(n) for n in (8, 16, 32)]
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def test_newton_monotone_and_fast(setup):
    mesh, problem, gf = setup
    z = 20.0 * np.ones(mesh.n_nodes)
    m = 3.0 * np.ones(problem.trace_space.dim)
    _, _, history = problem.solve_state(z, m)
    assert all(b < a for a, b in zip(history, history[1:]))
    assert history[-1] <= problem.newton_tol
    assert len(history) <= 10


def test_newton_budget_exhaustion_reports_history():
    problem = SemilinearProblem(Mesh(6, 6, 1.0, 1.0), c=1.0)
    problem.newton_max_iter = 2
    z = 50.0 * np.ones(problem.mesh.n_nodes)
    with pytest.raises(NumericalError) as exc:
        problem.solve_state(z, np.zeros(problem.trace_space.dim))
    assert isinstance(exc.value.residual, list)
    assert len(exc.value.residual) == 2


def test_gradient_zero_for_matched_target(setup):
    mesh, _, _ = setup
    z = np.ones(mesh.n_nodes)
    scratch = SemilinearProblem(mesh, c=1.0)
    u, _, _ = scratch.solve_state(z, np.zeros(scratch.trace_space.dim))
    matched = SemilinearProblem(mesh, c=1.0)
    matched.desired = u
    grad = matched.surrogate(z, np.zeros(matched.trace_space.dim)).grad_load
    assert np.linalg.norm(matched.trace_space.to_coefficients(grad)) < 1e-9


def test_gradient_finite_difference(setup):
    _, problem, gf = setup
    assert check_gradient(
        problem, gf, np.ones(problem.mesh.n_nodes), seed=2
    ) <= 1e-5


def test_c_zero_gradient_linear_in_misfit():
    mesh = Mesh(10, 10, 1.0, 1.0)
    base = SemilinearProblem(mesh, c=0.0)
    z = np.ones(mesh.n_nodes)
    u, _, _ = base.solve_state(z, np.zeros(base.trace_space.dim))
    # desired states with single and doubled misfit
    offset = 0.1 * np.sin(np.pi * mesh.node_x)
    single = SemilinearProblem(mesh, c=0.0)
    single.desired = u - offset
    double = SemilinearProblem(mesh, c=0.0)
    double.desired = u - 2.0 * offset
    g1 = single.surrogate(z, np.zeros(single.trace_space.dim)).grad_load
    g2 = double.surrogate(z, np.zeros(double.trace_space.dim)).grad_load
    assert np.allclose(g2, 2.0 * g1, rtol=1e-10, atol=1e-14)


def test_hessian_zero_direction(setup):
    _, problem, _ = setup
    ws = problem.workspace(
        np.ones(problem.mesh.n_nodes), np.zeros(problem.trace_space.dim)
    )
    psi = problem.hess_load(ws, np.zeros(problem.trace_space.dim))
    assert np.linalg.norm(problem.trace_space.to_coefficients(psi)) == 0.0


def test_hessian_self_adjoint(setup):
    _, problem, gf = setup
    ws = problem.workspace(
        np.ones(problem.mesh.n_nodes), np.zeros(problem.trace_space.dim)
    )
    rng = np.random.default_rng(2)
    for _ in range(5):
        m1 = gf.sample(rng)
        m2 = gf.sample(rng)
        lhs = m1 @ problem.hess_load(ws, m2)
        rhs = m2 @ problem.hess_load(ws, m1)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_hessian_finite_difference(setup):
    _, problem, gf = setup
    assert check_hessian(
        problem, gf, np.ones(problem.mesh.n_nodes), seed=3
    ) <= 1e-4


def test_c_zero_quadratic_expansion_is_exact():
    mesh = Mesh(10, 10, 1.0, 1.0)
    problem = SemilinearProblem(mesh, c=0.0)
    gf = GaussianField(problem.trace_space, 5e-2, 2.0)
    z = np.ones(mesh.n_nodes)
    surr = problem.surrogate(z)
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = gf.sample(rng)
        theta = problem.objective(z, m)
        quad = surr.eval_quad(m)
        assert abs(theta - quad) <= 1e-8 * (1.0 + abs(theta))


def _hessian_norm(problem):
    # the largest |eigenvalue| of the boundary Hessian in the trace L2 norm:
    # of the pencil (M H, M), with the form M H applied to the identity
    surr = problem.surrogate(np.ones(problem.mesh.n_nodes))
    space = problem.trace_space
    form = surr.hess_load(np.eye(space.dim))
    lam = scipy.linalg.eigh(0.5 * (form + form.T), space.mass.toarray(),
                            eigvals_only=True)
    return float(np.abs(lam).max())


def test_hessian_norm_mesh_stable():
    coarse = SemilinearProblem(Mesh(8, 8, 1.0, 1.0), c=1.0)
    fine = SemilinearProblem(Mesh(16, 16, 1.0, 1.0), c=1.0)
    nc = _hessian_norm(coarse)
    nf = _hessian_norm(fine)
    assert np.isfinite(nc) and np.isfinite(nf) and nc > 0
    assert 0.5 <= nc / nf <= 2.0


def test_negative_c_rejected():
    with pytest.raises(ValueError):
        SemilinearProblem(Mesh(4, 4, 1.0, 1.0), c=-1.0)


@pytest.mark.parametrize("c", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_c_rejected_by_name(c):
    # a NaN or infinite coefficient used to pass and fail in the first solve
    with pytest.raises(ValueError, match="^c: "):
        SemilinearProblem(Mesh(4, 4, 1.0, 1.0), c=c)


def test_default_flux_is_the_zero_flux(setup):
    mesh, problem, _ = setup
    z = np.ones(mesh.n_nodes)
    zero = np.zeros(problem.trace_space.dim)
    assert problem.objective(z) == problem.objective(z, zero)
    ws, ws0 = problem.workspace(z), problem.workspace(z, zero)
    for name in ("m", "u", "p"):
        assert np.array_equal(getattr(ws, name), getattr(ws0, name)), name
    surr, surr0 = problem.surrogate(z), problem.surrogate(z, zero)
    M = np.random.default_rng(11).standard_normal((problem.trace_space.dim, 3))
    assert surr.theta_bar == surr0.theta_bar
    assert np.array_equal(surr.anchor, zero)
    assert np.array_equal(surr.grad_load, surr0.grad_load)
    assert np.array_equal(surr.hess_load(M), surr0.hess_load(M))


def test_block_hessian_matches_columns(setup):
    mesh, problem, _ = setup
    assert problem.c > 0.0
    ws = problem.workspace(np.ones(mesh.n_nodes), np.zeros(problem.trace_space.dim))
    M = np.random.default_rng(9).standard_normal((problem.trace_space.dim, 4))
    block = problem.hess_load(ws, M)
    for k in range(M.shape[1]):
        col = problem.hess_load(ws, M[:, k])
        assert np.linalg.norm(block[:, k] - col) <= 1e-12 * np.linalg.norm(col)


def test_hessian_weighted_mass_is_built_once_per_workspace(setup, monkeypatch):
    mesh, problem, _ = setup
    assert problem.c > 0.0
    ws = problem.workspace(np.ones(mesh.n_nodes), np.zeros(problem.trace_space.dim))
    m_hat = np.random.default_rng(10).standard_normal(problem.trace_space.dim)
    first = problem.hess_load(ws, m_hat)

    calls = []
    monkeypatch.setattr("riskquad.semilinear.assemble_weighted_mass",
                        lambda *a: calls.append(a) or assemble_weighted_mass(*a))
    assert np.array_equal(problem.hess_load(ws, m_hat), first)
    assert calls == []


def test_newton_solvers_share_the_band_plan():
    problem = SemilinearProblem(Mesh(12, 12, 1.0, 1.0), c=1.0)
    mesh = problem.mesh
    u = np.sin(np.pi * mesh.node_x) * (1.0 + mesh.node_y)
    solver = problem._linearized_solver(u)
    assert solver.plan is mesh.band_plan
    # the constant-coefficient Laplacian of the dual norm builds no plan
    assert isinstance(problem._norm_solver.fast, FastDiagonalization)
    assert "plan" not in vars(problem._norm_solver)
    # the same operator as a sparse sum copies the pattern, which is refused
    ug = mesh.interp_gauss(u)
    op = problem.stiffness + assemble_weighted_mass(mesh, 3.0 * ug**2)
    with pytest.raises(ValueError, match="pattern"):
        SpdSolver(mesh, op)
    assert np.array_equal(op.indptr, mesh.csr_indptr)
    assert np.array_equal(op.indices, mesh.csr_indices)
    reference = SpdSolver(mesh, sp.csr_matrix(
        (op.data, mesh.csr_indices, mesh.csr_indptr), shape=op.shape))
    b = np.random.default_rng(0).standard_normal(mesh.n_nodes)
    assert np.array_equal(solver.solve(b), reference.solve(b))
    assert np.array_equal(solver._factor, reference._factor)

import numpy as np
import pytest
import scipy.sparse as sp

from riskquad.checks import check_semilinear_gradient, check_semilinear_hessian
from riskquad.errors import NumericalError
from riskquad.fem import SpdSolver, assemble_mass, assemble_weighted_mass, build_mesh
from riskquad.random_field import GaussianField
from riskquad.semilinear import SemilinearProblem


@pytest.fixture(scope="module")
def setup():
    mesh = build_mesh(12, 12, 1.0, 1.0)
    problem = SemilinearProblem(mesh, c=1.0)
    gf = GaussianField(problem.trace_space, 5e-2, 2.0)
    return mesh, problem, gf


def test_trivial_zero_state():
    problem = SemilinearProblem(build_mesh(6, 6, 1.0, 1.0), c=0.0)
    u, _, history = problem.solve_state(
        np.zeros(problem.mesh.n_nodes), np.zeros(problem.boundary_dim)
    )
    assert np.abs(u).max() == 0.0
    assert history[0] <= problem.newton_tol


def test_c_zero_is_a_single_linear_solve():
    problem = SemilinearProblem(build_mesh(8, 8, 1.0, 1.0), c=0.0)
    rng = np.random.default_rng(0)
    z = rng.standard_normal(problem.mesh.n_nodes)
    start = problem.counter.count
    _, _, history = problem.solve_state(z, np.zeros(problem.boundary_dim))
    assert problem.counter.count - start == 1
    assert len(history) == 2 and history[-1] <= problem.newton_tol


def _manufactured_error(n):
    # u* = x(1-x): zero on the Dirichlet sides, zero flux top/bottom
    mesh = build_mesh(n, n, 1.0, 1.0)
    problem = SemilinearProblem(mesh, c=1.0)
    exact = mesh.node_x * (1.0 - mesh.node_x)
    z = 2.0 + exact**3
    u, _, _ = problem.solve_state(z, np.zeros(problem.boundary_dim))
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
    m = 3.0 * np.ones(problem.boundary_dim)
    _, _, history = problem.solve_state(z, m)
    assert all(b < a for a, b in zip(history, history[1:]))
    assert history[-1] <= problem.newton_tol
    assert len(history) <= 10


def test_newton_budget_exhaustion_reports_history():
    problem = SemilinearProblem(build_mesh(6, 6, 1.0, 1.0), c=1.0,
                                newton_max_iter=2)
    z = 50.0 * np.ones(problem.mesh.n_nodes)
    with pytest.raises(NumericalError) as exc:
        problem.solve_state(z, np.zeros(problem.boundary_dim))
    assert isinstance(exc.value.residual, list)
    assert len(exc.value.residual) == 2


def test_gradient_zero_for_matched_target(setup):
    mesh, _, _ = setup
    z = np.ones(mesh.n_nodes)
    scratch = SemilinearProblem(mesh, c=1.0)
    u, _, _ = scratch.solve_state(z, np.zeros(scratch.boundary_dim))
    matched = SemilinearProblem(mesh, c=1.0, desired=u)
    ws = matched.workspace(z, np.zeros(matched.boundary_dim))
    assert matched.trace_space.norm(matched.grad_boundary(ws)) < 1e-9


def test_gradient_finite_difference(setup):
    _, problem, gf = setup
    assert check_semilinear_gradient(
        problem, gf, np.ones(problem.mesh.n_nodes)
    ) <= 1e-5


def test_c_zero_gradient_linear_in_misfit():
    mesh = build_mesh(10, 10, 1.0, 1.0)
    base = SemilinearProblem(mesh, c=0.0)
    z = np.ones(mesh.n_nodes)
    u, _, _ = base.solve_state(z, np.zeros(base.boundary_dim))
    # desired states with single and doubled misfit
    offset = 0.1 * np.sin(np.pi * mesh.node_x)
    single = SemilinearProblem(mesh, c=0.0, desired=u - offset)
    double = SemilinearProblem(mesh, c=0.0, desired=u - 2.0 * offset)
    g1 = single.grad_boundary(single.workspace(z, np.zeros(single.boundary_dim)))
    g2 = double.grad_boundary(double.workspace(z, np.zeros(double.boundary_dim)))
    assert np.allclose(g2, 2.0 * g1, rtol=1e-10, atol=1e-14)


def test_hessian_zero_direction(setup):
    _, problem, _ = setup
    ws = problem.workspace(
        np.ones(problem.mesh.n_nodes), np.zeros(problem.boundary_dim)
    )
    psi = problem.hess_action(ws, np.zeros(problem.boundary_dim))
    assert problem.trace_space.norm(psi) == 0.0


def test_hessian_self_adjoint(setup):
    _, problem, gf = setup
    ws = problem.workspace(
        np.ones(problem.mesh.n_nodes), np.zeros(problem.boundary_dim)
    )
    rng = np.random.default_rng(2)
    for _ in range(5):
        m1 = gf.sample(rng)
        m2 = gf.sample(rng)
        lhs = problem.trace_space.inner(m1, problem.hess_action(ws, m2))
        rhs = problem.trace_space.inner(m2, problem.hess_action(ws, m1))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_hessian_finite_difference(setup):
    _, problem, gf = setup
    assert check_semilinear_hessian(
        problem, gf, np.ones(problem.mesh.n_nodes)
    ) <= 1e-4


def test_c_zero_quadratic_expansion_is_exact():
    mesh = build_mesh(10, 10, 1.0, 1.0)
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


def test_hessian_norm_mesh_stable():
    coarse = SemilinearProblem(build_mesh(8, 8, 1.0, 1.0), c=1.0)
    fine = SemilinearProblem(build_mesh(16, 16, 1.0, 1.0), c=1.0)
    nc = coarse.hessian_norm_estimate(np.ones(coarse.mesh.n_nodes))
    nf = fine.hessian_norm_estimate(np.ones(fine.mesh.n_nodes))
    assert np.isfinite(nc) and np.isfinite(nf) and nc > 0
    assert 0.5 <= nc / nf <= 2.0


def test_negative_c_rejected():
    with pytest.raises(ValueError):
        SemilinearProblem(build_mesh(4, 4, 1.0, 1.0), c=-1.0)


def test_block_hessian_matches_columns(setup):
    mesh, problem, _ = setup
    assert problem.c > 0.0
    ws = problem.workspace(np.ones(mesh.n_nodes), np.zeros(problem.boundary_dim))
    M = np.random.default_rng(9).standard_normal((problem.boundary_dim, 4))
    block = problem.hess_action(ws, M)
    for k in range(M.shape[1]):
        col = problem.hess_action(ws, M[:, k])
        assert np.linalg.norm(block[:, k] - col) <= 1e-12 * np.linalg.norm(col)


def test_newton_solvers_share_the_band_plan():
    problem = SemilinearProblem(build_mesh(12, 12, 1.0, 1.0), c=1.0)
    mesh = problem.mesh
    u = np.sin(np.pi * mesh.node_x) * (1.0 + mesh.node_y)
    solver = problem._linearized_solver(u)
    assert solver.plan is problem._norm_solver.plan is mesh.band_plan
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

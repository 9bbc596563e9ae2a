import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from riskquad.errors import NumericalError
from riskquad.fem import (
    SolveCounter,
    SpdSolver,
    assemble_coupling,
    assemble_mass,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    build_mesh,
    grad_dot_load,
    interp_dot,
    mass_cholesky,
    mass_matrix_1d,
    solve_spd,
    stiffness_matrix_1d,
    weighted_stiffness_apply,
    weighted_stiffness_sum,
)
from riskquad.random_field import field_on_mesh, neumann_trace_space


def test_canonical_mesh_counts():
    mesh = build_mesh(79, 39, 2.0, 1.0)
    assert mesh.n_elems == 3081
    assert mesh.n_nodes == 3200


def test_smallest_mesh():
    mesh = build_mesh(1, 1, 1.0, 1.0)
    assert mesh.n_nodes == 4
    assert mesh.n_elems == 1
    assert len(mesh.dirichlet_nodes) == 4


def test_4x2_boundary_tags_by_hand():
    mesh = build_mesh(4, 2, 2.0, 1.0)
    assert mesh.n_nodes == 15
    assert mesh.n_elems == 8
    # hand enumeration of the 4x2 grid: node (i, j) has index 5j + i
    assert sorted(mesh.dirichlet_nodes) == [0, 4, 5, 9, 10, 14]
    bottom = [(0, 1), (1, 2), (2, 3), (3, 4)]
    top = [(10, 11), (11, 12), (12, 13), (13, 14)]
    assert [tuple(e) for e in mesh.neumann_edges] == bottom + top
    # every boundary node carries exactly one tag
    boundary = {0, 1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14}
    neumann_nodes = {n for e in mesh.neumann_edges for n in e} - set(
        mesh.dirichlet_nodes
    )
    assert neumann_nodes | set(mesh.dirichlet_nodes) == boundary
    assert neumann_nodes & set(mesh.dirichlet_nodes) == set()


def test_zero_element_count_rejected():
    with pytest.raises(ValueError):
        build_mesh(0, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_mesh(3, 3, 0.0, 1.0)


@pytest.mark.parametrize("nx,ny,lx,ly,area", [(5, 7, 1.0, 1.0, 1.0), (8, 4, 2.0, 1.0, 2.0)])
def test_mass_integrates_constants(nx, ny, lx, ly, area):
    mesh = build_mesh(nx, ny, lx, ly)
    M = assemble_mass(mesh)
    ones = np.ones(mesh.n_nodes)
    assert ones @ (M @ ones) == pytest.approx(area, rel=1e-13)


def test_mass_integrates_linear_field_exactly():
    mesh = build_mesh(6, 5, 1.0, 1.0)
    M = assemble_mass(mesh)
    f = mesh.node_x
    assert f @ (M @ np.ones(mesh.n_nodes)) == pytest.approx(0.5, rel=1e-13)


def test_stiffness_constants_in_kernel():
    mesh = build_mesh(5, 4, 2.0, 1.0)
    rng = np.random.default_rng(0)
    K = assemble_weighted_stiffness(mesh, rng.standard_normal(mesh.n_nodes))
    assert np.abs(K @ np.ones(mesh.n_nodes)).max() < 1e-12 * np.abs(K.data).max()


def test_stiffness_dirichlet_energy_of_x():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    u = mesh.node_x
    assert u @ (K @ u) == pytest.approx(1.0, rel=1e-13)


def test_constant_coefficient_factors_out():
    mesh = build_mesh(3, 3, 1.0, 1.0)
    K0 = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    K2 = assemble_weighted_stiffness(mesh, np.full(mesh.n_nodes, np.log(2.0)))
    assert abs(K2 - 2.0 * K0).max() < 1e-12 * abs(K0).max()


def test_stiffness_symmetry():
    mesh = build_mesh(9, 6, 2.0, 1.0)
    rng = np.random.default_rng(1)
    K = assemble_weighted_stiffness(mesh, 0.5 * rng.standard_normal(mesh.n_nodes))
    asym = abs(K - K.T).max()
    assert asym <= 1e-12 * abs(K).max()


def test_nonfinite_coefficient_rejected():
    mesh = build_mesh(2, 2, 1.0, 1.0)
    m = np.zeros(mesh.n_nodes)
    m[3] = np.nan
    with pytest.raises(ValueError):
        assemble_weighted_stiffness(mesh, m)


def test_constrained_operator_positive_definite():
    mesh = build_mesh(6, 4, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    solver = SpdSolver(K, mesh.dirichlet_nodes)
    Kc = solver.constrained
    assert abs(Kc - Kc.T).max() <= 1e-12 * abs(Kc).max()
    smallest = spla.eigsh(Kc, k=1, which="SA", return_eigenvectors=False)[0]
    assert smallest > 0


def test_harmonic_profile_exact():
    mesh = build_mesh(8, 5, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    bc = np.where(np.isclose(mesh.node_x[mesh.dirichlet_nodes], 0.0), 1.0, 0.0)
    u = solve_spd(K, np.zeros(mesh.n_nodes), mesh.dirichlet_nodes, bc)
    assert np.abs(u - (1.0 - mesh.node_x / 2.0)).max() < 1e-10


def test_zero_rhs_homogeneous_bc():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    u = solve_spd(K, np.zeros(mesh.n_nodes), mesh.dirichlet_nodes, 0.0)
    assert np.abs(u).max() == 0.0


def _manufactured_l2_error(n):
    # u* = sin(pi x) cos(pi y): zero on left/right, natural on top/bottom
    mesh = build_mesh(n, n, 1.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    M = assemble_mass(mesh)
    exact = np.sin(np.pi * mesh.node_x) * np.cos(np.pi * mesh.node_y)
    rhs = M @ (2.0 * np.pi**2 * exact)
    u = solve_spd(K, rhs, mesh.dirichlet_nodes, 0.0)
    e = u - exact
    return float(np.sqrt(e @ (M @ e)))


def test_manufactured_solution_second_order():
    errors = [_manufactured_l2_error(n) for n in (8, 16, 32)]
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def test_dirichlet_lift_residual_contract():
    mesh = build_mesh(7, 3, 2.0, 1.0)
    rng = np.random.default_rng(5)
    m = 0.3 * rng.standard_normal(mesh.n_nodes)
    K = assemble_weighted_stiffness(mesh, m)
    solver = SpdSolver(K, mesh.dirichlet_nodes, rtol=1e-10)
    bc = rng.standard_normal(len(mesh.dirichlet_nodes))
    rhs = rng.standard_normal(mesh.n_nodes)
    u = solver.solve(rhs, bc)
    assert np.allclose(u[mesh.dirichlet_nodes], bc)
    free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.dirichlet_nodes)
    res = (K @ u - rhs)[free]
    assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(rhs)


def test_unreachable_tolerance_raises_with_residual():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    # no solve meets this tolerance, so the residual check must reject it
    solver = SpdSolver(K, mesh.dirichlet_nodes, rtol=1e-30)
    rng = np.random.default_rng(3)
    with pytest.raises(NumericalError) as exc:
        solver.solve(rng.standard_normal(mesh.n_nodes))
    assert exc.value.residual is not None


def test_one_dimensional_operators():
    n, h = 7, 0.25
    M = mass_matrix_1d(n, h)
    K = stiffness_matrix_1d(n, h)
    ones = np.ones(n + 1)
    x = h * np.arange(n + 1)
    assert ones @ (M @ ones) == pytest.approx(n * h, rel=1e-13)
    assert x @ (M @ ones) == pytest.approx((n * h) ** 2 / 2.0, rel=1e-13)
    assert np.abs(K @ ones).max() < 1e-14
    assert x @ (K @ x) == pytest.approx(n * h, rel=1e-13)


def test_mass_cholesky_exact():
    mesh = build_mesh(11, 7, 2.0, 1.0)
    M = assemble_mass(mesh)
    L = mass_cholesky(mesh)
    assert abs(L @ L.T - M).max() < 1e-15


def _spsolve_constrained(op, dirichlet, rhs, bc):
    """Reference: eliminate with sparse products, lift, and solve with SuperLU."""
    keep = np.ones(op.shape[0])
    keep[dirichlet] = 0.0
    D = sp.diags(keep)
    constrained = (D @ op @ D + sp.diags(1.0 - keep)).tocsc()
    lift = np.zeros(op.shape[0])
    lift[dirichlet] = bc
    b = rhs - op @ lift
    b[dirichlet] = bc
    return spla.spsolve(constrained, b)


def _assert_matches_spsolve(op, dirichlet, rhs, bc=0.0):
    u = SpdSolver(op, dirichlet).solve(rhs, bc)
    ref = _spsolve_constrained(op, dirichlet, rhs, bc)
    assert np.linalg.norm(u - ref) <= 1e-10 * np.linalg.norm(ref)


def test_banded_cholesky_matches_spsolve_per_draw_operators():
    mesh = build_mesh(79, 39, 2.0, 1.0)
    gf = field_on_mesh(mesh, 2e-2, 4.0)
    draws = gf.sample_batch(3, seed=11)
    rng = np.random.default_rng(4)
    bc = np.where(np.isclose(mesh.node_x[mesh.dirichlet_nodes], 0.0), 1.0, 0.0)
    for m in draws.T:
        K = assemble_weighted_stiffness(mesh, m)
        rhs = rng.standard_normal(mesh.n_nodes)
        _assert_matches_spsolve(K, mesh.dirichlet_nodes, rhs, bc)
        _assert_matches_spsolve(K, mesh.dirichlet_nodes, rhs,
                                rng.standard_normal(len(mesh.dirichlet_nodes)))


def test_banded_cholesky_matches_spsolve_covariance_and_trace_mass():
    mesh = build_mesh(79, 39, 2.0, 1.0)
    rng = np.random.default_rng(6)
    gf = field_on_mesh(mesh, 2e-2, 4.0)
    A = gf.kappa * gf.space.natural_stiffness + gf.alpha * gf.space.mass
    _assert_matches_spsolve(A, [], rng.standard_normal(mesh.n_nodes))
    trace = neumann_trace_space(mesh)
    _assert_matches_spsolve(trace.mass, [], rng.standard_normal(trace.dim))


def test_band_order_matches_native_order():
    mesh = build_mesh(79, 39, 2.0, 1.0)
    gf = field_on_mesh(mesh, 2e-2, 4.0)
    rng = np.random.default_rng(12)
    dirichlet = mesh.dirichlet_nodes
    bc = rng.standard_normal(len(dirichlet))
    operators = [
        (assemble_weighted_stiffness(mesh, gf.sample_batch(1, seed=5)[:, 0]),
         dirichlet, bc),
        (gf.kappa * gf.space.natural_stiffness + gf.alpha * gf.space.mass,
         None, 0.0),
        (assemble_mass(mesh), None, 0.0),
    ]
    rhs = rng.standard_normal(mesh.n_nodes)
    block = rng.standard_normal((mesh.n_nodes, 4))

    def close(x, ref):
        return np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    for op, nodes, values in operators:
        native_count, banded_count = SolveCounter(), SolveCounter()
        native = SpdSolver(op, nodes, counter=native_count)
        banded = SpdSolver(op, nodes, counter=banded_count, order=mesh.band_order)
        assert native._factor.shape[0] == 82
        assert banded._factor.shape[0] == 42
        assert close(banded.solve(rhs, values), native.solve(rhs, values))
        assert close(banded.solve_many(block), native.solve_many(block))
        # vectors are solved on lower and blocks on upper band storage
        assert close(banded.solve(block[:, 0]), native.solve_many(block[:, :1])[:, 0])
        assert banded_count.count == native_count.count == 6

    tall = build_mesh(5, 9, 1.0, 2.0)
    assert tall.band_order is None


def test_indefinite_operator_raises():
    mesh = build_mesh(6, 4, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    # the shift lies inside the spectrum of K v = lambda M v
    shifted = K - 50.0 * assemble_mass(mesh)
    with pytest.raises(NumericalError):
        SpdSolver(shifted, mesh.dirichlet_nodes)
    with pytest.raises(NumericalError):
        SpdSolver(shifted, mesh.dirichlet_nodes, order=mesh.band_order)


def test_solve_many_checks_and_counts_every_column():
    mesh = build_mesh(7, 3, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    counter = SolveCounter()
    solver = SpdSolver(K, mesh.dirichlet_nodes, counter=counter)
    B = np.random.default_rng(8).standard_normal((mesh.n_nodes, 5))
    X = solver.solve_many(B)
    assert counter.count == 5
    for j in range(5):
        assert np.allclose(X[:, j], solver.solve(B[:, j]), rtol=0.0, atol=1e-12)
    assert counter.count == 10


def test_solve_many_bad_block_raises():
    mesh = build_mesh(7, 3, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    counter = SolveCounter()
    B = np.random.default_rng(9).standard_normal((mesh.n_nodes, 3))
    B[4, 1] = np.nan
    with pytest.raises(NumericalError):
        SpdSolver(K, mesh.dirichlet_nodes, counter=counter).solve_many(B)
    # an unreachable tolerance fails on the residual of a finite block
    strict = SpdSolver(K, mesh.dirichlet_nodes, rtol=1e-30, counter=counter)
    with pytest.raises(NumericalError):
        strict.solve_many(np.nan_to_num(B))
    assert counter.count == 0


def test_solve_counter_exact_under_threads():
    counter = SolveCounter()
    per_thread, n_threads = 20_000, 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: [counter.tick() for _ in range(per_thread)])
            for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert counter.count == per_thread * n_threads


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def canonical_fields():
    mesh = build_mesh(79, 39, 2.0, 1.0)
    rng = np.random.default_rng(11)
    em = np.exp(mesh.interp_gauss(0.5 * rng.standard_normal(mesh.n_nodes)))
    u, p, zeta, w = rng.standard_normal((4, mesh.n_nodes))
    return mesh, em, u, p, zeta, w


def test_coupling_matrix_matches_matrix_free_kernels(canonical_fields):
    mesh, em, u, _, zeta, w = canonical_fields
    B = assemble_coupling(mesh, em, u)
    cg = em * mesh.interp_gauss(zeta)
    assert _rel(B @ zeta, weighted_stiffness_apply(mesh, cg, u)) <= 1e-12
    assert _rel(B.T @ w, grad_dot_load(mesh, em, w, u)) <= 1e-12


def test_weighted_mass_coupling_matches_grad_dot_load(canonical_fields):
    mesh, em, u, p, zeta, _ = canonical_fields
    ux, uy = mesh.grad_gauss(u)
    px, py = mesh.grad_gauss(p)
    M_w = assemble_weighted_mass(mesh, em * (ux * px + uy * py))
    cg = em * mesh.interp_gauss(zeta)
    assert _rel(M_w @ zeta, grad_dot_load(mesh, cg, u, p)) <= 1e-12


def test_block_reductions_match_column_sums(canonical_fields):
    mesh, em, *_ = canonical_fields
    rng = np.random.default_rng(12)
    A, V = rng.standard_normal((2, mesh.n_nodes, 11))
    cols = range(A.shape[1])
    ref = sum(
        weighted_stiffness_apply(mesh, em * mesh.interp_gauss(A[:, k]), V[:, k])
        for k in cols
    )
    assert _rel(weighted_stiffness_sum(mesh, em, A, V), ref) <= 1e-12
    ref = sum(mesh.interp_gauss(A[:, k]) * mesh.interp_gauss(V[:, k]) for k in cols)
    assert _rel(interp_dot(mesh, A, V), ref) <= 1e-12

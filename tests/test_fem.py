import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from riskquad.errors import NumericalError
from riskquad.fem import (
    UPPER_MIN_COLUMNS,
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
    stiffness_matrix_1d,
    weighted_stiffness_apply,
    weighted_stiffness_sum,
)
from riskquad.poisson import PoissonFlowProblem, default_wells
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
    trace_nodes = neumann_trace_space(mesh).node_index
    assert list(trace_nodes) == [0, 1, 2, 3, 4, 10, 11, 12, 13, 14]
    # every boundary node carries exactly one tag
    boundary = {0, 1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14}
    neumann_nodes = set(trace_nodes) - set(mesh.dirichlet_nodes)
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
    u = SpdSolver(K, mesh.dirichlet_nodes).solve(np.zeros(mesh.n_nodes), bc)
    assert np.abs(u - (1.0 - mesh.node_x / 2.0)).max() < 1e-10


def test_zero_rhs_homogeneous_bc():
    mesh = build_mesh(4, 4, 1.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    u = SpdSolver(K, mesh.dirichlet_nodes).solve(np.zeros(mesh.n_nodes), 0.0)
    assert np.abs(u).max() == 0.0


def _manufactured_l2_error(n):
    # u* = sin(pi x) cos(pi y): zero on left/right, natural on top/bottom
    mesh = build_mesh(n, n, 1.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    M = assemble_mass(mesh)
    exact = np.sin(np.pi * mesh.node_x) * np.cos(np.pi * mesh.node_y)
    rhs = M @ (2.0 * np.pi**2 * exact)
    u = SpdSolver(K, mesh.dirichlet_nodes).solve(rhs, 0.0)
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
        # vectors and narrow blocks are solved on lower band storage
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


def _on_pattern(mesh, data):
    """CSR matrix with the given data on the mesh's read-only pattern."""
    n = mesh.n_nodes
    return sp.csr_matrix((data, mesh.csr_indices, mesh.csr_indptr), shape=(n, n))


@pytest.mark.parametrize("case", ["band order", "native order", "no dirichlet"])
def test_shared_plan_matches_fresh_solver(case):
    mesh = build_mesh(12, 6, 2.0, 1.0)
    rng = np.random.default_rng(21)
    order = None if case == "native order" else mesh.band_order
    if case == "no dirichlet":
        nodes = None
        anchor_op = assemble_mass(mesh)
        op = assemble_weighted_mass(mesh, np.exp(rng.standard_normal((mesh.n_elems, 4))))
    else:
        nodes = mesh.dirichlet_nodes
        anchor_op = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
        op = assemble_weighted_stiffness(mesh, rng.standard_normal(mesh.n_nodes))
    anchor = SpdSolver(anchor_op, nodes, order=order)
    shared_count, fresh_count = SolveCounter(), SolveCounter()
    shared = SpdSolver(op, nodes, counter=shared_count, order=order, plan=anchor.plan)
    fresh = SpdSolver(op, nodes, counter=fresh_count, order=order)
    assert shared.plan is anchor.plan
    assert fresh.plan is not anchor.plan
    assert np.array_equal(shared._factor, fresh._factor)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(shared.constrained, attr),
                              getattr(fresh.constrained, attr))
    rhs = rng.standard_normal(mesh.n_nodes)
    block = rng.standard_normal((mesh.n_nodes, 3))
    bc = rng.standard_normal(len(mesh.dirichlet_nodes)) if nodes is not None else 0.0
    assert np.array_equal(shared.solve(rhs, bc), fresh.solve(rhs, bc))
    assert np.array_equal(shared.solve_many(block), fresh.solve_many(block))
    assert shared_count.count == fresh_count.count == 4


def test_indefinite_operator_raises_through_shared_plan():
    mesh = build_mesh(6, 4, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    anchor = SpdSolver(K, mesh.dirichlet_nodes, order=mesh.band_order)
    # K - 50 M on the mesh's own pattern; the shift lies inside the spectrum
    shifted = _on_pattern(mesh, K.data - 50.0 * assemble_mass(mesh).data)
    assert anchor.plan.fits(shifted, mesh.dirichlet_nodes, mesh.band_order)
    with pytest.raises(NumericalError):
        SpdSolver(shifted, mesh.dirichlet_nodes, order=mesh.band_order,
                  plan=anchor.plan)


def test_plan_not_reused_for_another_pattern():
    mesh = build_mesh(12, 6, 2.0, 1.0)
    m = np.random.default_rng(22).standard_normal(mesh.n_nodes)
    anchor = SpdSolver(assemble_weighted_stiffness(mesh, m), mesh.dirichlet_nodes,
                       order=mesh.band_order)
    twin = build_mesh(12, 6, 2.0, 1.0)
    K = assemble_weighted_stiffness(twin, m)
    copied = sp.csr_matrix((K.data, K.indices.copy(), K.indptr.copy()), shape=K.shape)
    other = build_mesh(10, 6, 2.0, 1.0)
    others = [
        (K, twin),
        (copied, twin),
        (assemble_weighted_stiffness(other, np.zeros(other.n_nodes)), other),
    ]
    for op, op_mesh in others:
        solver = SpdSolver(op, op_mesh.dirichlet_nodes, order=op_mesh.band_order,
                           plan=anchor.plan)
        fresh = SpdSolver(op, op_mesh.dirichlet_nodes, order=op_mesh.band_order)
        assert solver.plan is not anchor.plan
        assert np.array_equal(solver._factor, fresh._factor)
    # same pattern, other Dirichlet nodes or order
    K = assemble_weighted_stiffness(mesh, m)
    for nodes, order in ((mesh.dirichlet_nodes[1:], mesh.band_order),
                         (mesh.dirichlet_nodes, None)):
        solver = SpdSolver(K, nodes, order=order, plan=anchor.plan)
        assert solver.plan is not anchor.plan
        assert np.array_equal(solver._factor, SpdSolver(K, nodes, order=order)._factor)


def test_per_draw_solvers_share_the_anchor_plan():
    mesh = build_mesh(12, 6, 2.0, 1.0)
    problem = PoissonFlowProblem(mesh, wells=default_wells(sigma=0.12))
    draws = np.random.default_rng(23).standard_normal((2, mesh.n_nodes))
    plans = [problem.solver_for(m).plan for m in draws]
    assert all(plan is problem.anchor_solver.plan for plan in plans)


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


def test_wide_block_on_upper_storage_matches_vector_solves():
    mesh = build_mesh(79, 39, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    counter = SolveCounter()
    solver = SpdSolver(K, mesh.dirichlet_nodes, counter=counter,
                       order=mesh.band_order)
    rng = np.random.default_rng(13)
    bc = rng.standard_normal(len(mesh.dirichlet_nodes))
    narrow = rng.standard_normal((mesh.n_nodes, UPPER_MIN_COLUMNS - 1))
    wide = rng.standard_normal((mesh.n_nodes, UPPER_MIN_COLUMNS))
    X = solver.solve_many(narrow, bc)
    assert "_upper_factor" not in solver.__dict__
    Y = solver.solve_many(wide, bc)
    assert "_upper_factor" in solver.__dict__
    assert counter.count == 2 * UPPER_MIN_COLUMNS - 1
    for block, out in ((narrow, X), (wide, Y)):
        for j in range(block.shape[1]):
            ref = solver.solve(block[:, j], bc)
            assert np.linalg.norm(out[:, j] - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.array_equal(out[mesh.dirichlet_nodes, j], bc)


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


def test_solve_counter_pause_holds_only_for_its_thread():
    counter = SolveCounter()
    n_ticks = 20_000
    entered, ticked = threading.Event(), threading.Event()

    def pauser():
        with counter.paused():
            entered.set()
            counter.tick(7)  # auxiliary work: not counted
            ticked.wait(timeout=60)

    def ticker():
        entered.wait(timeout=60)
        for _ in range(n_ticks):
            counter.tick()
        ticked.set()

    threads = [threading.Thread(target=pauser), threading.Thread(target=ticker)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    # every tick of the other thread landed while the pause was held
    assert counter.count == n_ticks
    counter.tick()
    assert counter.count == n_ticks + 1


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

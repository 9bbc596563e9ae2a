import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve_banded

from riskquad.errors import NumericalError
from riskquad.fem import (
    UPPER_MIN_COLUMNS,
    FastDiagonalization,
    Mesh,
    SolveCounter,
    SpdSolver,
    assemble_coupling,
    assemble_mass,
    assemble_weighted_mass,
    assemble_weighted_stiffness,
    grad_dot_load,
    interp_dot,
    mass_matrix_1d,
    stiffness_matrix_1d,
    weighted_stiffness_apply,
    weighted_stiffness_sum,
)
from riskquad.poisson import PoissonFlowProblem, WellConfig
from riskquad.random_field import (
    GaussianField,
    field_on_mesh,
    neumann_trace_space,
    volume_space,
)
from riskquad.semilinear import SemilinearProblem


def test_canonical_mesh_counts():
    mesh = Mesh(79, 39, 2.0, 1.0)
    assert mesh.n_elems == 3081
    assert mesh.n_nodes == 3200


def test_smallest_mesh():
    mesh = Mesh(1, 1, 1.0, 1.0)
    assert mesh.n_nodes == 4
    assert mesh.n_elems == 1
    assert len(mesh.dirichlet_nodes) == 4


def test_4x2_boundary_tags_by_hand():
    mesh = Mesh(4, 2, 2.0, 1.0)
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
        Mesh(0, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        Mesh(3, 3, 0.0, 1.0)


@pytest.mark.parametrize("args,key", [
    ((4.7, 2, 2.0, 1.0), "nx"), ((4, 2, float("nan"), 1.0), "lx"),
    ((4, 2, float("inf"), 1.0), "lx"), ((True, 2, 2.0, 1.0), "nx"),
], ids=["fractional nx", "nan lx", "infinite lx", "boolean nx"])
def test_mesh_rejects_a_bad_key_by_name(args, key):
    # a library caller gets the same check as a config file's mesh section
    with pytest.raises(ValueError, match=f"^{key}: "):
        Mesh(*args)


@pytest.mark.parametrize("nx,ny,lx,ly,area", [(5, 7, 1.0, 1.0, 1.0), (8, 4, 2.0, 1.0, 2.0)])
def test_mass_integrates_constants(nx, ny, lx, ly, area):
    mesh = Mesh(nx, ny, lx, ly)
    M = assemble_mass(mesh)
    ones = np.ones(mesh.n_nodes)
    assert ones @ (M @ ones) == pytest.approx(area, rel=1e-13)


def test_mass_integrates_linear_field_exactly():
    mesh = Mesh(6, 5, 1.0, 1.0)
    M = assemble_mass(mesh)
    f = mesh.node_x
    assert f @ (M @ np.ones(mesh.n_nodes)) == pytest.approx(0.5, rel=1e-13)


def test_stiffness_constants_in_kernel():
    mesh = Mesh(5, 4, 2.0, 1.0)
    rng = np.random.default_rng(0)
    K = assemble_weighted_stiffness(mesh, rng.standard_normal(mesh.n_nodes))
    assert np.abs(K @ np.ones(mesh.n_nodes)).max() < 1e-12 * np.abs(K.data).max()


def test_stiffness_dirichlet_energy_of_x():
    mesh = Mesh(4, 4, 1.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    u = mesh.node_x
    assert u @ (K @ u) == pytest.approx(1.0, rel=1e-13)


def test_constant_coefficient_factors_out():
    mesh = Mesh(3, 3, 1.0, 1.0)
    K0 = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    K2 = assemble_weighted_stiffness(mesh, np.full(mesh.n_nodes, np.log(2.0)))
    assert abs(K2 - 2.0 * K0).max() < 1e-12 * abs(K0).max()


def test_stiffness_symmetry():
    mesh = Mesh(9, 6, 2.0, 1.0)
    rng = np.random.default_rng(1)
    K = assemble_weighted_stiffness(mesh, 0.5 * rng.standard_normal(mesh.n_nodes))
    asym = abs(K - K.T).max()
    assert asym <= 1e-12 * abs(K).max()


def test_nonfinite_coefficient_rejected():
    mesh = Mesh(2, 2, 1.0, 1.0)
    m = np.zeros(mesh.n_nodes)
    m[3] = np.nan
    with pytest.raises(ValueError):
        assemble_weighted_stiffness(mesh, m)


def test_constrained_operator_positive_definite():
    mesh = Mesh(6, 4, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    solver = SpdSolver(mesh, K)
    Kc = solver.constrained
    assert abs(Kc - Kc.T).max() <= 1e-12 * abs(Kc).max()
    smallest = spla.eigsh(Kc, k=1, which="SA", return_eigenvectors=False)[0]
    assert smallest > 0


def test_harmonic_profile_exact():
    mesh = Mesh(8, 5, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    bc = np.where(np.isclose(mesh.node_x[mesh.dirichlet_nodes], 0.0), 1.0, 0.0)
    u = SpdSolver(mesh, K).solve(np.zeros(mesh.n_nodes), bc)
    assert np.abs(u - (1.0 - mesh.node_x / 2.0)).max() < 1e-10


def test_zero_rhs_homogeneous_bc():
    mesh = Mesh(4, 4, 1.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    u = SpdSolver(mesh, K).solve(np.zeros(mesh.n_nodes), 0.0)
    assert np.abs(u).max() == 0.0


def _manufactured_l2_error(n):
    # u* = sin(pi x) cos(pi y): zero on left/right, natural on top/bottom
    mesh = Mesh(n, n, 1.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    M = assemble_mass(mesh)
    exact = np.sin(np.pi * mesh.node_x) * np.cos(np.pi * mesh.node_y)
    rhs = M @ (2.0 * np.pi**2 * exact)
    u = SpdSolver(mesh, K).solve(rhs, 0.0)
    e = u - exact
    return float(np.sqrt(e @ (M @ e)))


def test_manufactured_solution_second_order():
    errors = [_manufactured_l2_error(n) for n in (8, 16, 32)]
    assert errors[0] / errors[1] >= 3.5
    assert errors[1] / errors[2] >= 3.5


def test_dirichlet_lift_residual_contract():
    mesh = Mesh(7, 3, 2.0, 1.0)
    rng = np.random.default_rng(5)
    m = 0.3 * rng.standard_normal(mesh.n_nodes)
    K = assemble_weighted_stiffness(mesh, m)
    solver = SpdSolver(mesh, K)
    bc = rng.standard_normal(len(mesh.dirichlet_nodes))
    rhs = rng.standard_normal(mesh.n_nodes)
    u = solver.solve(rhs, bc)
    assert np.allclose(u[mesh.dirichlet_nodes], bc)
    free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.dirichlet_nodes)
    res = (K @ u - rhs)[free]
    assert np.linalg.norm(res) <= 1e-8 * np.linalg.norm(rhs)


def test_unreachable_tolerance_raises_with_residual():
    mesh = Mesh(4, 4, 1.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    # no solve meets this tolerance, so the residual check must reject it
    solver = SpdSolver(mesh, K)
    solver.rtol = 1e-30
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
    mesh = Mesh(11, 7, 2.0, 1.0)
    M = assemble_mass(mesh)
    L = volume_space(mesh).sqrt_mass
    assert abs(L @ L.T - M).max() < 1e-15


def _spsolve_constrained(op, dirichlet, rhs, bc):
    """Reference: eliminate with sparse products, lift, and solve with SuperLU
    for a vector or each column of a block ``rhs``."""
    keep = np.ones(op.shape[0])
    keep[dirichlet] = 0.0
    D = sp.diags(keep)
    constrained = (D @ op @ D + sp.diags(1.0 - keep)).tocsc()
    lift = np.zeros(op.shape[0])
    lift[dirichlet] = bc
    b = (rhs.T - op @ lift).T
    b[dirichlet] = bc
    return spla.spsolve(constrained, b).reshape(rhs.shape)


def _assert_matches_spsolve(mesh, op, rhs, bc):
    u = SpdSolver(mesh, op).solve(rhs, bc)
    ref = _spsolve_constrained(op, mesh.dirichlet_nodes, rhs, bc)
    assert np.linalg.norm(u - ref) <= 1e-10 * np.linalg.norm(ref)


def test_banded_cholesky_matches_spsolve_per_draw_operators():
    mesh = Mesh(79, 39, 2.0, 1.0)
    gf = field_on_mesh(mesh, 2e-2, 4.0)
    draws = gf.sample_batch(3, seed=11)
    rng = np.random.default_rng(4)
    bc = np.where(np.isclose(mesh.node_x[mesh.dirichlet_nodes], 0.0), 1.0, 0.0)
    for m in draws.T:
        K = assemble_weighted_stiffness(mesh, m)
        rhs = rng.standard_normal(mesh.n_nodes)
        _assert_matches_spsolve(mesh, K, rhs, bc)
        _assert_matches_spsolve(mesh, K, rhs,
                                rng.standard_normal(len(mesh.dirichlet_nodes)))


# the same domain and element sizes with the long side along x (numbered
# in band order) and along y (native order is already the band order)
BAND_MESHES = {
    "band order": lambda: Mesh(12, 6, 2.0, 1.0),
    "native order": lambda: Mesh(6, 12, 1.0, 2.0),
}


def test_band_order_matches_native_order():
    def close(x, ref):
        return np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    # the 79x39 mesh is factorized in band order, its 39x79 transpose in
    # native order; both have bandwidth 41
    for mesh in (Mesh(79, 39, 2.0, 1.0), Mesh(39, 79, 1.0, 2.0)):
        native = np.array_equal(mesh.band_order, np.arange(mesh.n_nodes))
        assert native == (mesh.nx <= mesh.ny)
        gf = field_on_mesh(mesh, 2e-2, 4.0)
        rng = np.random.default_rng(12)
        dirichlet = mesh.dirichlet_nodes
        bc = rng.standard_normal(len(dirichlet))
        op = assemble_weighted_stiffness(mesh, gf.sample_batch(1, seed=5)[:, 0])
        rhs = rng.standard_normal(mesh.n_nodes)
        block = rng.standard_normal((mesh.n_nodes, 4))
        counter = SolveCounter()
        solver = SpdSolver(mesh, op, counter)
        assert solver._factor.shape[0] == 42
        assert close(solver.solve(rhs, bc),
                     _spsolve_constrained(op, dirichlet, rhs, bc))
        ref = _spsolve_constrained(op, dirichlet, block, 0.0)
        assert close(solver.solve_many(block), ref)
        # vectors and narrow blocks are solved on lower band storage
        assert close(solver.solve(block[:, 0]), ref[:, 0])
        assert counter.count == 6


def test_indefinite_operator_raises():
    for mesh in (Mesh(6, 4, 2.0, 1.0), Mesh(4, 6, 1.0, 2.0)):
        K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
        # K - 50 M on the mesh's pattern; the shift lies inside the spectrum
        # of K v = lambda M v
        shifted = _on_pattern(mesh, K.data - 50.0 * assemble_mass(mesh).data)
        with pytest.raises(NumericalError):
            SpdSolver(mesh, shifted)


def _on_pattern(mesh, data):
    """CSR matrix with the given data on the mesh's read-only pattern."""
    n = mesh.n_nodes
    return sp.csr_matrix((data, mesh.csr_indices, mesh.csr_indptr), shape=(n, n))


@pytest.mark.parametrize("order_name", BAND_MESHES)
def test_shared_plan_matches_fresh_solver(order_name):
    # twin meshes build equal band plans of their own
    mesh, twin = BAND_MESHES[order_name](), BAND_MESHES[order_name]()
    rng = np.random.default_rng(21)
    m = rng.standard_normal(mesh.n_nodes)
    counts = SolveCounter(), SolveCounter()
    shared, fresh = (SpdSolver(on, assemble_weighted_stiffness(on, m), count)
                     for on, count in zip((mesh, twin), counts))
    assert shared.plan is mesh.band_plan and fresh.plan is twin.band_plan
    assert twin.band_plan is not mesh.band_plan
    assert np.array_equal(shared._factor, fresh._factor)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(shared.constrained, attr),
                              getattr(fresh.constrained, attr))
    rhs = rng.standard_normal(mesh.n_nodes)
    block = rng.standard_normal((mesh.n_nodes, 3))
    bc = rng.standard_normal(len(mesh.dirichlet_nodes))
    assert np.array_equal(shared.solve(rhs, bc), fresh.solve(rhs, bc))
    assert np.array_equal(shared.solve_many(block), fresh.solve_many(block))
    assert counts[0].count == counts[1].count == 4


def test_indefinite_operator_raises_through_shared_plan():
    mesh = Mesh(6, 4, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    anchor = SpdSolver(mesh, K)
    shifted = _on_pattern(mesh, K.data - 50.0 * assemble_mass(mesh).data)
    with pytest.raises(NumericalError):
        SpdSolver(mesh, shifted)
    # the failed factorization leaves the mesh's plan as it was
    assert anchor.plan is mesh.band_plan
    b = np.random.default_rng(22).standard_normal(mesh.n_nodes)
    assert np.array_equal(SpdSolver(mesh, K).solve(b), anchor.solve(b))


def test_plan_not_reused_for_another_pattern():
    # an operator that is not on the mesh's read-only CSR pattern is refused
    mesh = Mesh(12, 6, 2.0, 1.0)
    m = np.random.default_rng(22).standard_normal(mesh.n_nodes)
    K = assemble_weighted_stiffness(mesh, m)
    twin = Mesh(12, 6, 2.0, 1.0)
    other = Mesh(10, 6, 2.0, 1.0)
    others = [
        assemble_weighted_stiffness(twin, m),
        sp.csr_matrix((K.data, K.indices.copy(), K.indptr.copy()), shape=K.shape),
        assemble_weighted_stiffness(other, np.zeros(other.n_nodes)),
        K + assemble_weighted_mass(mesh, np.ones((mesh.n_elems, 4))),
        K.tocsc(),
    ]
    for op in others:
        with pytest.raises(ValueError, match="pattern"):
            SpdSolver(mesh, op)
    assert np.array_equal(SpdSolver(twin, others[0])._factor,
                          SpdSolver(mesh, K)._factor)


def test_a_solver_on_a_field_space_needs_the_fast_backend():
    # a field space has no band plan for the banded backend
    space = volume_space(Mesh(6, 3, 2.0, 1.0))
    with pytest.raises(ValueError, match="field space needs fast"):
        SpdSolver(None, space.mass)


def test_dirichlet_nodes_are_read_only():
    mesh = Mesh(12, 6, 2.0, 1.0)
    with pytest.raises(ValueError):
        mesh.dirichlet_nodes[0] = 1
    with pytest.raises(ValueError):
        mesh.band_order[0] = 1


def test_per_draw_solvers_share_the_anchor_plan():
    # a variable anchor and every draw are factorized on the mesh's one band
    # plan; the default constant anchor is solved by the fast backend and
    # builds none
    mesh = Mesh(12, 6, 2.0, 1.0)
    wells = WellConfig(sigma=0.12)
    problem = PoissonFlowProblem(mesh, wells=wells)
    assert isinstance(problem.anchor_solver.fast, FastDiagonalization)
    assert "band_plan" not in vars(mesh)
    draws = np.random.default_rng(23).standard_normal((2, mesh.n_nodes))
    plans = [problem.solver_for(m).plan for m in draws]
    variable = PoissonFlowProblem(mesh, wells=wells, mean=draws[0])
    assert variable.anchor_solver.fast is None
    assert variable.anchor_solver.plan is mesh.band_plan
    assert all(plan is mesh.band_plan for plan in plans)


def _constant_stiffness_solver(mesh, c, counter=None):
    """The solver of the stiffness of the constant log coefficient ``c`` by
    the fast backend, as a constant anchor is built."""
    op = assemble_weighted_stiffness(mesh, np.full(mesh.n_nodes, c))
    return SpdSolver(mesh, op, counter, fast=(mesh.free_basis, np.exp(c), 0.0))


# the canonical mesh (band order) and one with nx <= ny (native order)
CONSTANT_MESHES = {
    "79x39": lambda: Mesh(79, 39, 2.0, 1.0),
    "6x12": lambda: Mesh(6, 12, 1.0, 2.0),
}


@pytest.mark.parametrize("mesh_name", CONSTANT_MESHES)
@pytest.mark.parametrize("c", [0.0, 0.7])
def test_constant_stiffness_solver_matches_band_path(mesh_name, c):
    mesh = CONSTANT_MESHES[mesh_name]()
    m = np.full(mesh.n_nodes, c)
    counter = SolveCounter()
    solver = _constant_stiffness_solver(mesh, c, counter)
    # neither a band plan nor a factor is built
    assert "band_plan" not in vars(mesh)
    assert not {"plan", "_factor", "_upper_factor"} & set(vars(solver))
    band = SpdSolver(mesh, assemble_weighted_stiffness(mesh, m))
    assert np.array_equal(solver.constrained.data, band.constrained.data)
    rng = np.random.default_rng(51)
    bc = rng.standard_normal(len(mesh.dirichlet_nodes))
    ticks = 0
    for shape in ((), (3,), (40,), (0,)):
        loads = rng.standard_normal((mesh.n_nodes, *shape))
        kept = loads.copy()
        x = solver.solve(loads, bc) if not shape else solver.solve_many(loads, bc)
        ticks += (shape or (1,))[0]
        assert counter.count == ticks
        assert np.array_equal(loads, kept)
        assert x.shape == loads.shape and x.flags.c_contiguous
        ref = band.solve(loads, bc) if not shape else band.solve_many(loads, bc)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        pinned = x[mesh.dirichlet_nodes].T
        assert np.array_equal(pinned, np.broadcast_to(bc, pinned.shape))
    loads = rng.standard_normal((mesh.n_nodes, 3))
    loads[5, 1] = np.nan
    for bad in (loads, loads[:, 1]):
        with pytest.raises(NumericalError):
            solver.apply_inverse(bad)
    assert counter.count == ticks


@pytest.mark.parametrize("mesh_name", CONSTANT_MESHES)
def test_constant_stiffness_column_bits_do_not_depend_on_block_width(mesh_name):
    # the fast anchor solver on mesh.free_basis writes the free unknowns into
    # a fresh output and copies the pinned left and right rows of the lifted
    # right-hand side, which it does not write
    mesh = CONSTANT_MESHES[mesh_name]()
    solver = _constant_stiffness_solver(mesh, 0.7)
    rng = np.random.default_rng(53)
    bc = rng.standard_normal(len(mesh.dirichlet_nodes))
    loads = rng.standard_normal((mesh.n_nodes, 41))
    kept = loads.copy()
    X = solver.solve_many(loads, bc)
    assert np.array_equal(loads, kept)
    for cols in (slice(0, 1), slice(0, 3), slice(5, 8)):
        assert np.array_equal(solver.solve_many(loads[:, cols], bc), X[:, cols])
    assert np.array_equal(solver.solve(loads[:, 7], bc), X[:, 7])
    assert np.array_equal(solver.solve_many(np.asfortranarray(loads), bc), X)
    d = mesh.dirichlet_nodes
    for b in (solver._lifted(loads, bc), solver._lifted(loads[:, 4], bc)):
        kept = b.copy()
        x = solver.fast.solve(b)
        assert np.array_equal(b, kept)
        assert x.shape == b.shape and x.flags.c_contiguous
        assert np.array_equal(x[d], b[d])
        assert np.array_equal(x, X[:, 4] if b.ndim == 1 else X)


def test_constant_stiffness_solver_without_interior_x_nodes():
    # with one element along x every node is pinned
    mesh = Mesh(1, 5, 0.5, 1.0)
    m = np.full(mesh.n_nodes, 0.7)
    counter = SolveCounter()
    solver = _constant_stiffness_solver(mesh, 0.7, counter)
    band = SpdSolver(mesh, assemble_weighted_stiffness(mesh, m))
    rng = np.random.default_rng(52)
    bc = rng.standard_normal(len(mesh.dirichlet_nodes))
    loads = rng.standard_normal((mesh.n_nodes, 3))
    x = solver.solve_many(loads, bc)
    assert np.array_equal(x, band.solve_many(loads, bc))
    assert np.array_equal(solver.solve(loads[:, 0], bc), x[:, 0])
    assert counter.count == 4


def test_constant_stiffness_solver_rejects_a_variable_field():
    # the fast backend of a constant field, given the stiffness of a variable
    # log coefficient, fails the residual check; a non-finite field is
    # refused when the stiffness is assembled
    mesh = Mesh(6, 4, 2.0, 1.0)
    variable = SpdSolver(mesh, assemble_weighted_stiffness(mesh, 0.1 * mesh.node_x),
                         fast=(mesh.free_basis, 1.0, 0.0))
    c = np.random.default_rng(48).standard_normal((mesh.n_nodes, 3))
    for load in (c, c[:, 0]):
        with pytest.raises(NumericalError) as exc:
            variable.apply_inverse(load)
        assert exc.value.residual > 0.0
    with pytest.raises(ValueError, match="finite"):
        assemble_weighted_stiffness(mesh, np.full(mesh.n_nodes, np.inf))


def test_solve_many_checks_and_counts_every_column():
    mesh = Mesh(7, 3, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    counter = SolveCounter()
    solver = SpdSolver(mesh, K, counter)
    B = np.random.default_rng(8).standard_normal((mesh.n_nodes, 5))
    X = solver.solve_many(B)
    assert counter.count == 5
    for j in range(5):
        assert np.allclose(X[:, j], solver.solve(B[:, j]), rtol=0.0, atol=1e-12)
    assert counter.count == 10


def test_wide_block_on_upper_storage_matches_vector_solves():
    mesh = Mesh(79, 39, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    counter = SolveCounter()
    solver = SpdSolver(mesh, K, counter)
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


SOLVE_SHAPES = {
    "vector": (),
    "one column": (1,),
    "narrow": (UPPER_MIN_COLUMNS - 1,),
    "wide": (UPPER_MIN_COLUMNS + 3,),
}


@pytest.mark.parametrize("order_name", BAND_MESHES)
@pytest.mark.parametrize("shape", SOLVE_SHAPES.values(), ids=SOLVE_SHAPES.keys())
def test_solves_match_cho_solve_banded_and_keep_inputs(order_name, shape):
    mesh = BAND_MESHES[order_name]()
    rng = np.random.default_rng(31)
    K = assemble_weighted_stiffness(mesh, rng.standard_normal(mesh.n_nodes))
    order = mesh.band_order
    counter = SolveCounter()
    solver = SpdSolver(mesh, K, counter)
    loads = rng.standard_normal((mesh.n_nodes, *shape))
    bc = rng.standard_normal(len(mesh.dirichlet_nodes))
    kept = loads.copy()
    x = solver.solve(loads, bc) if not shape else solver.solve_many(loads, bc)
    assert np.array_equal(loads, kept)
    assert x.shape == loads.shape and x.flags.c_contiguous
    assert counter.count == (shape or (1,))[0]

    b = solver._lifted(loads, bc)
    lifted = b.copy()
    wide = b.ndim == 2 and b.shape[1] >= UPPER_MIN_COLUMNS
    factor = (solver._upper_factor, False) if wide else (solver._factor, True)
    ref = cho_solve_banded(factor, b[order], check_finite=False)
    ref = ref[solver.plan.position]
    assert np.array_equal(x, ref)
    assert np.array_equal(solver._raw_solve(b), ref)
    assert np.array_equal(b, lifted)


SEPARABLE_SPACES = {"volume": volume_space, "trace": neumann_trace_space}
SEPARABLE_COEFFICIENTS = {"mass": (0.0, 1.0), "covariance": (2e-2, 4.0)}
SEPARABLE_SHAPES = {"vector": (), "one column": (1,), "narrow": (3,), "wide": (41,)}


def _separable(space, s, t):
    op = s * space.natural_stiffness + t * space.mass
    return op, SpdSolver(None, op, fast=(space.basis, s, t))


@pytest.mark.parametrize("space_name", SEPARABLE_SPACES)
@pytest.mark.parametrize("coefficients", SEPARABLE_COEFFICIENTS.values(),
                         ids=SEPARABLE_COEFFICIENTS.keys())
@pytest.mark.parametrize("shape", SEPARABLE_SHAPES.values(),
                         ids=SEPARABLE_SHAPES.keys())
def test_separable_solve_matches_spd_solver_and_keeps_inputs(space_name,
                                                             coefficients, shape):
    space = SEPARABLE_SPACES[space_name](Mesh(12, 6, 2.0, 1.0))
    op, solver = _separable(space, *coefficients)
    loads = np.random.default_rng(41).standard_normal((space.dim, *shape))
    kept = loads.copy()
    x = solver.apply_inverse(loads)
    assert np.array_equal(loads, kept)
    assert x.shape == loads.shape and x.flags.c_contiguous
    ref = _spsolve_constrained(op, [], loads, 0.0)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("space_name", SEPARABLE_SPACES)
def test_separable_column_bits_do_not_depend_on_block_width(space_name):
    space = SEPARABLE_SPACES[space_name](Mesh(20, 10, 2.0, 1.0))
    _, solver = _separable(space, 2e-2, 4.0)
    B = np.random.default_rng(43).standard_normal((space.dim, 515))
    X = solver.apply_inverse(B)
    assert np.array_equal(solver.apply_inverse(B[:, :3]), X[:, :3])
    assert np.array_equal(solver.apply_inverse(B[:, 7:8]), X[:, 7:8])
    assert np.array_equal(solver.apply_inverse(B[:, 7]), X[:, 7])
    assert np.array_equal(solver.apply_inverse(np.asfortranarray(B)), X)


@pytest.mark.parametrize("space_name", SEPARABLE_SPACES)
def test_basis_transforms_keep_column_bits_and_round_trip(space_name):
    space = SEPARABLE_SPACES[space_name](Mesh(20, 10, 2.0, 1.0))
    F = np.random.default_rng(44).standard_normal((space.dim, 41))
    for transform in (space.to_coefficients, space.to_fields):
        Y = transform(F)
        assert Y.shape == F.shape and Y.flags.c_contiguous
        assert np.array_equal(transform(F[:, :1]), Y[:, :1])
        assert np.array_equal(transform(F[:, 2:5]), Y[:, 2:5])
        assert np.array_equal(transform(F[:, 7]), Y[:, 7])
        assert np.array_equal(transform(np.asfortranarray(F)), Y)
    # Phi Phi^T M = I, since Phi^T M Phi = I and Phi is square
    back = space.to_fields(space.to_coefficients(space.mass @ F))
    err = np.linalg.norm(back - F, axis=0) / np.linalg.norm(F, axis=0)
    assert np.max(err) <= 1e-13


def test_separable_solve_rejects_inconsistent_operator_and_nan():
    space = volume_space(Mesh(8, 5, 2.0, 1.0))
    b = np.random.default_rng(47).standard_normal((space.dim, 3))
    wrong = SpdSolver(None, 1.001 * space.mass, fast=(space.basis, 0.0, 1.0))
    for load in (b, b[:, 0]):
        with pytest.raises(NumericalError) as exc:
            wrong.apply_inverse(load)
        assert exc.value.residual > 0.0
    b[5, 1] = np.nan
    with pytest.raises(NumericalError):
        _separable(space, 0.0, 1.0)[1].apply_inverse(b)


def test_every_library_solver_is_an_spd_solver_with_its_rtol():
    # mesh operators are checked at 1e-10, the field's covariance and mass
    # operators at 1e-12, all through the one class
    mesh = Mesh(12, 6, 2.0, 1.0)
    wells = WellConfig(sigma=0.12)
    m = np.random.default_rng(25).standard_normal(mesh.n_nodes)
    constant = PoissonFlowProblem(mesh, wells=wells)
    variable = PoissonFlowProblem(mesh, wells=wells, mean=m)
    flux = [SemilinearProblem(Mesh(6, 6, 1.0, 1.0), c=c) for c in (0.0, 1.0)]
    u = np.random.default_rng(26).standard_normal(flux[0].mesh.n_nodes)
    on_mesh = [constant.anchor_solver, variable.anchor_solver, constant.solver_for(m)]
    on_mesh += [s for p in flux for s in (p._norm_solver, p._linearized_solver(u))]
    spaces = [volume_space(mesh), neumann_trace_space(mesh)]
    on_fields = [s._projector for s in spaces]
    on_fields += [GaussianField(s, 2e-2, 4.0).solver_A for s in spaces]
    for solvers, rtol in ((on_mesh, 1e-10), (on_fields, 1e-12)):
        for solver in solvers:
            assert type(solver) is SpdSolver
            assert solver.rtol == rtol
    assert all(s.dirichlet is None and s.counter is None for s in on_fields)


def test_solve_many_bad_block_raises():
    mesh = Mesh(7, 3, 2.0, 1.0)
    K = assemble_weighted_stiffness(mesh, np.zeros(mesh.n_nodes))
    counter = SolveCounter()
    B = np.random.default_rng(9).standard_normal((mesh.n_nodes, 3))
    B[4, 1] = np.nan
    with pytest.raises(NumericalError):
        SpdSolver(mesh, K, counter).solve_many(B)
    # an unreachable tolerance fails on the residual of a finite block
    strict = SpdSolver(mesh, K, counter)
    strict.rtol = 1e-30
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
    mesh = Mesh(79, 39, 2.0, 1.0)
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


def test_block_kernels_do_not_depend_on_block_layout(canonical_fields):
    # gradient hands the kernels column-sliced views of a block, such as the
    # covariance images c_all[:, 1:], and the probe block transposed
    mesh, em, *_ = canonical_fields
    rng = np.random.default_rng(13)
    A = rng.standard_normal((mesh.n_nodes, 9))
    V = np.column_stack([rng.standard_normal(mesh.n_nodes),
                         rng.standard_normal((mesh.n_nodes, 9))])[:, 1:]
    layouts = [(A, np.ascontiguousarray(V)), (np.asfortranarray(A), V),
               (np.column_stack([V[:, 0], A])[:, 1:], np.asfortranarray(V))]
    ref = interp_dot(mesh, *layouts[0]), weighted_stiffness_sum(mesh, em, *layouts[0])
    for a, v in layouts[1:]:
        assert np.array_equal(interp_dot(mesh, a, v), ref[0])
        assert np.array_equal(weighted_stiffness_sum(mesh, em, a, v), ref[1])
    f = A[:, 3]  # a strided column of a C block
    want = mesh.interp_gauss(f.copy()), mesh.grad_gauss(f.copy())
    for g in (f, np.asfortranarray(A)[:, 3]):
        assert np.array_equal(mesh.interp_gauss(g), want[0])
        assert all(map(np.array_equal, mesh.grad_gauss(g), want[1]))

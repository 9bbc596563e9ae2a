import copy

import numpy as np
import pytest
import scipy.sparse as sp

from riskquad.errors import NumericalError
from riskquad.fem import Mesh
from riskquad.random_field import (
    COLOR_CHUNK,
    FieldSpace,
    GaussianField,
    field_on_mesh,
    neumann_trace_space,
    volume_space,
)


@pytest.fixture(scope="module")
def tiny():
    mesh = Mesh(3, 2, 2.0, 1.0)
    space = volume_space(mesh)
    gf = GaussianField(space, 2e-2, 4.0)
    return mesh, space, gf


def dense_cov(space, gf):
    """Euclidean covariance matrix of nodal samples: A^{-1} M A^{-1}."""
    A = (gf.kappa * space.natural_stiffness + gf.alpha * space.mass).toarray()
    M = space.mass.toarray()
    Ainv = np.linalg.inv(A)
    return gf.scale * Ainv @ M @ Ainv


def test_apply_C_zero(tiny):
    _, space, gf = tiny
    assert np.abs(gf.apply_C(np.zeros(space.dim))).max() == 0.0


def test_apply_C_identity_limit():
    # with kappa -> 0 and alpha = 1, A -> M and the covariance -> identity
    mesh = Mesh(2, 2, 1.0, 1.0)
    space = volume_space(mesh)
    gf = GaussianField(space, 1e-8, 1.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(space.dim)
    assert np.abs(gf.apply_C(f) - f).max() < 1e-6 * np.abs(f).max()


def test_apply_C_self_adjoint_and_psd(tiny):
    _, space, gf = tiny
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = rng.standard_normal(space.dim)
        g = rng.standard_normal(space.dim)
        lhs = space.inner(f, gf.apply_C(g))
        rhs = space.inner(g, gf.apply_C(f))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))
        assert space.inner(f, gf.apply_C(f)) >= 0.0


def test_apply_C_matches_loads_action_on_mass_image(tiny):
    # bit for bit, on a volume and a boundary field, scaled or not, for a
    # vector and for blocks of two widths
    mesh, _, volume = tiny
    boundary = GaussianField(neumann_trace_space(mesh), 5e-2, 2.0)
    rng = np.random.default_rng(3)
    for gf in (volume, volume.scaled(0.3), boundary, boundary.scaled(0.3)):
        for shape in ((gf.dim,), (gf.dim, 3), (gf.dim, 9)):
            F = rng.standard_normal(shape)
            loads = gf.space.mass @ F
            assert np.array_equal(gf.apply_C_to_loads(loads), gf.apply_C(F))


@pytest.mark.parametrize("make_space", [volume_space, neumann_trace_space])
def test_covariance_actions_match_the_solve_oracles(make_space):
    # the diagonals in Phi against two checked solves with A around a mass
    # product, and against one solve for the square root
    space = make_space(Mesh(12, 6, 2.0, 1.0))
    field = GaussianField(space, 2e-2, 4.0)
    rng = np.random.default_rng(5)
    for gf in (field, field.scaled(0.3)):
        solve = gf.solver_A.solve
        for shape in ((space.dim,), (space.dim, 3), (space.dim, 41)):
            b = rng.standard_normal(shape)
            want = gf.scale * solve(space.mass @ solve(b))
            got = gf.apply_C_to_loads(b)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            want = np.sqrt(gf.scale) * solve(space.mass @ b)
            got = gf.apply_sqrt_C(b)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_covariance_action_is_numerical_error(tiny, bad):
    _, space, gf = tiny
    for shape in ((space.dim,), (space.dim, 3)):
        b = np.ones(shape)
        b[1] = bad
        for action in (gf.apply_C_to_loads, gf.apply_C, gf.apply_sqrt_C):
            with pytest.raises(NumericalError, match="non-finite"):
                action(b)


def test_field_whose_A_the_basis_does_not_diagonalize_is_numerical_error(tiny):
    # the covariance actions trust Phi to diagonalize A, so a space whose
    # stiffness left its factors after the space's own check fails at once
    _, space, _ = tiny
    moved = copy.copy(space)
    moved.natural_stiffness = 1.001 * space.natural_stiffness
    with pytest.raises(NumericalError) as exc:
        GaussianField(moved, 2e-2, 4.0)
    assert exc.value.residual > 0.0


def test_sqrt_squares_to_C(tiny):
    _, space, gf = tiny
    rng = np.random.default_rng(2)
    f = rng.standard_normal(space.dim)
    twice = gf.apply_sqrt_C(gf.apply_sqrt_C(f))
    assert np.allclose(twice, gf.apply_C(f), rtol=1e-10, atol=1e-14)


def test_sample_zero_eps_is_exact_mean():
    mesh = Mesh(2, 2, 1.0, 1.0)
    gf = field_on_mesh(mesh, 1e-2, 2.0).scaled(0.0)
    assert np.array_equal(gf.sample(np.random.default_rng(0)), np.zeros(mesh.n_nodes))


def test_sample_covariance_matches_dense(tiny):
    _, space, gf = tiny
    n = 10_000
    draws = gf.sample_batch(n, seed=42)
    emp = draws @ draws.T / n
    C = dense_cov(space, gf)
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / n)
    assert np.all(np.abs(emp - C) <= 5.0 * se)


def test_sample_mean_matches(tiny):
    _, space, gf = tiny
    n = 10_000
    draws = gf.sample_batch(n, seed=7)
    C = dense_cov(space, gf)
    se = np.sqrt(np.diag(C) / n)
    assert np.all(np.abs(draws.mean(axis=1)) <= 5.0 * se)


def test_chunked_draws_match_one_shot_coloring():
    mesh = Mesh(20, 10, 2.0, 1.0)
    gf = field_on_mesh(mesh, 2e-2, 4.0).scaled(1.7)
    n = 2 * COLOR_CHUNK + 3  # not a multiple of the chunk; a tail of 3 columns
    normals = np.random.default_rng(5).standard_normal((gf.dim, n))
    assert np.array_equal(gf.sample_batch(n, seed=5), gf._colored(normals))
    g = gf.scaled(0.3)
    draws = g.sample_batch(n, seed=5)
    assert np.array_equal(draws, g._colored(normals))
    assert draws.flags.c_contiguous


def test_probe_variance_scales_with_eps(tiny):
    _, space, gf = tiny
    rng = np.random.default_rng(3)
    n = 4000
    for eps in (1.0, 0.25):
        draws = gf.scaled(eps).sample_batch(n, seed=11)
        for _ in range(2):
            f = rng.standard_normal(space.dim)
            vals = f @ (space.mass @ draws)
            expected = eps * space.inner(f, gf.apply_C(f))
            se = expected * np.sqrt(2.0 / (n - 1))
            assert abs(np.var(vals, ddof=1) - expected) <= 5.0 * se


def test_trace_identity_monte_carlo(tiny):
    # sum of covariance-operator eigenvalues = E || m - mean ||_M^2
    _, space, gf = tiny
    C_op = dense_cov(space, gf) @ space.mass.toarray()
    tr = np.trace(C_op)
    n = 10_000
    draws = gf.sample_batch(n, seed=13)
    sq = np.einsum("in,in->n", draws, space.mass.toarray() @ draws)
    assert abs(sq.mean() - tr) <= 5.0 * sq.std() / np.sqrt(n)
    eigs = np.linalg.eigvals(C_op).real
    assert abs(eigs.sum() - tr) < 1e-10 * abs(tr)


def test_trace_vectors_count_and_determinism(tiny):
    _, space, gf = tiny
    vecs = gf.sample_batch(40, seed=5).T
    assert len(vecs) == 40
    again = gf.sample_batch(40, seed=5).T
    assert all(np.array_equal(a, b) for a, b in zip(vecs, again))
    other = gf.sample_batch(40, seed=6).T
    assert not np.array_equal(vecs[0], other[0])


def test_trace_vectors_zero_mean(tiny):
    _, space, gf = tiny
    n = 10_000
    draws = np.column_stack(gf.sample_batch(n, seed=8).T)
    C = dense_cov(space, gf)
    se = np.sqrt(np.diag(C) / n)
    assert np.all(np.abs(draws.mean(axis=1)) <= 5.0 * se)


def test_scaled_measure(tiny):
    _, space, gf = tiny
    rng = np.random.default_rng(4)
    f = rng.standard_normal(space.dim)
    scaled = gf.scaled(0.25)
    assert np.allclose(scaled.apply_C(f), 0.25 * gf.apply_C(f))
    assert np.allclose(scaled.apply_sqrt_C(f), 0.5 * gf.apply_sqrt_C(f))


def test_scaled_is_the_only_scale(tiny):
    _, space, gf = tiny
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            gf.scaled(bad)
    quarter = gf.scaled(0.5).scaled(0.5)
    assert (gf.scale, quarter.scale) == (1.0, 0.25)
    assert np.array_equal(quarter.sample_batch(5, seed=3),
                          0.5 * gf.sample_batch(5, seed=3))


def test_eigenpairs_zero_operator(tiny):
    _, space, gf = tiny
    basis = gf.preconditioned_eigenpairs(lambda f: np.zeros_like(f), 3)
    assert np.array_equal(basis.eigenvalues, np.zeros(3))


def test_eigenpairs_zero_operator_costs_one_action(tiny):
    # ARPACK's first step maps the start vector into the operator's range;
    # a zero image ends the solve with the first k columns of Phi
    _, space, gf = tiny
    calls = []

    def zero(f):
        calls.append(f.shape)
        return np.zeros_like(f)

    basis = gf.preconditioned_eigenpairs(zero, 3)
    assert len(calls) == 1
    assert np.array_equal(basis.coefficients, np.eye(space.dim, 3))
    V = space.to_fields(basis.coefficients)
    assert np.abs(V.T @ (space.mass @ V) - np.eye(3)).max() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigenpairs_nonfinite_form_is_numerical_error(tiny, bad):
    _, space, gf = tiny
    for k in (3, space.dim):
        with pytest.raises(NumericalError, match="non-finite"):
            gf.preconditioned_eigenpairs(lambda f: bad * (space.mass @ f), k)


def test_space_off_its_factors_is_numerical_error(tiny):
    # every solve and eigensolve trusts Phi to diagonalize the assembled
    # matrices, so a space whose mass or stiffness is not the Kronecker
    # product of its factors fails when it is built
    _, space, _ = tiny
    for mass, stiffness in ((1.001 * space.mass, space.natural_stiffness),
                            (space.mass, 1.001 * space.natural_stiffness)):
        with pytest.raises(NumericalError) as exc:
            FieldSpace(mass, stiffness, space.factors)
        assert exc.value.residual > 0.0


@pytest.mark.parametrize("make_space", [volume_space, neumann_trace_space])
def test_basis_is_m_orthonormal_and_diagonalizes_sqrt_C(make_space):
    # canonical 79x39 mesh and field, on a seeded block of Phi's columns
    space = make_space(Mesh(79, 39, 2.0, 1.0))
    gf = GaussianField(space, 2e-2, 4.0).scaled(0.7)
    rng = np.random.default_rng(9)
    cols = rng.choice(space.dim, 40, replace=False)
    E = np.eye(space.dim)[:, cols]
    Phi = space.to_fields(E)
    gram = space.to_coefficients(space.mass @ Phi)
    assert np.linalg.norm(gram - E) <= 1e-12 * np.linalg.norm(E)
    b = rng.standard_normal(space.dim)
    coeffs = space.to_coefficients(b)[cols]
    assert np.linalg.norm(Phi.T @ b - coeffs) <= 1e-12 * np.linalg.norm(coeffs)
    want = Phi * gf.sqrt_C_diagonal[cols]
    assert np.linalg.norm(gf.apply_sqrt_C(Phi) - want) <= 1e-12 * np.linalg.norm(want)


def test_covariance_and_projection_share_the_space_basis(tiny):
    _, space, gf = tiny
    assert gf.solver_A.fast.basis is space.basis
    assert gf.scaled(0.5).solver_A.fast.basis is space.basis
    assert space._projector.fast.basis is space.basis


def test_eigenpairs_identity_matches_covariance(tiny):
    _, space, gf = tiny
    basis = gf.preconditioned_eigenpairs(lambda f: space.mass @ f, 4)
    C_op = dense_cov(space, gf) @ space.mass.toarray()
    lam = np.sort(np.linalg.eigvals(C_op).real)[::-1]
    assert abs(basis.eigenvalues[0] - lam[0]) <= 1e-6 * abs(lam[0])
    assert np.all(np.diff(basis.eigenvalues) <= 1e-12)


def test_eigenpairs_m_orthonormal(tiny):
    _, space, gf = tiny
    basis = gf.preconditioned_eigenpairs(lambda f: space.mass @ f, 4)
    V = space.to_fields(basis.coefficients)
    gram = V.T @ (space.mass @ V)
    assert np.abs(gram - np.eye(4)).max() <= 1e-8


def test_eigenpairs_flow_hessian_matches_dense():
    from riskquad.poisson import PoissonFlowProblem, WellConfig

    mesh = Mesh(5, 5, 1.0, 1.0)
    wells = WellConfig(sigma=0.25, control_xs=[0.5], control_ys=[0.52],
                       production_xs=[0.3, 0.7], production_ys=[0.3, 0.7],
                       targets=[1.0] * 4)
    problem = PoissonFlowProblem(mesh, wells=wells)
    gf = GaussianField(problem.space, 5e-2, 2.0)
    surr = problem.surrogate(np.array([4.0]))
    n = mesh.n_nodes
    M = problem.space.mass.toarray()
    A = (gf.kappa * problem.space.natural_stiffness + gf.alpha * problem.space.mass).toarray()
    Ainv = np.linalg.inv(A)
    H = np.column_stack([surr.hess_action(e) for e in np.eye(n)])
    lam_dense = np.sort(np.linalg.eigvals(Ainv @ M @ H @ Ainv @ M).real)[::-1]
    basis = gf.preconditioned_eigenpairs(surr.hess_load, 3)
    assert np.all(
        np.abs(basis.eigenvalues - lam_dense[:3]) <= 1e-6 * np.abs(lam_dense[:3])
    )


def test_eigen_setup_cost_and_spectrum_are_mesh_independent():
    # the canonical eigen set-up at z = 4 on two meshes: 44 Hessian forms and
    # 88 anchor solves on both; the largest eigenvalue 439.24 vs 441.24
    # (0.5% apart), the 4th 86.53 vs 90.99 (5% apart)
    from riskquad.config import build_setup, resolve_config

    runs = []
    for nx, ny in ((40, 20), (79, 39)):
        _, gf, problem = build_setup(
            resolve_config("paper_section6", overrides={"mesh": {"nx": nx, "ny": ny}}))
        surr = problem.surrogate(np.full(problem.n_controls, 4.0))
        calls = []

        def form(m):
            calls.append(1)
            return surr.hess_load(m)

        start = problem.counter.count
        basis = gf.preconditioned_eigenpairs(form, 16, seed=7)
        runs.append((len(calls), problem.counter.count - start, basis.eigenvalues))
    (forms_c, solves_c, lam_c), (forms_f, solves_f, lam_f) = runs
    assert forms_c == forms_f
    assert solves_c == solves_f
    assert abs(lam_c[0] - lam_f[0]) <= 0.01 * abs(lam_f[0])
    assert abs(lam_c[3] - lam_f[3]) <= 0.10 * abs(lam_f[3])


def indefinite_operator(space, gf, spectrum):
    """Symmetric Hessian form B with sqrt(C) H sqrt(C) = V diag(spectrum) V^T M
    for H = M^{-1} B and an M-orthonormal V: B = A V diag(spectrum) V^T A."""
    V = space.orthonormalize(np.random.default_rng(5).standard_normal((space.dim,) * 2))
    A = (gf.kappa * space.natural_stiffness + gf.alpha * space.mass).toarray()
    B = A @ V @ np.diag(spectrum) @ V.T @ A
    return lambda f: B @ f, B


def test_eigenpairs_select_both_signs_by_magnitude(tiny):
    _, space, gf = tiny
    spectrum = np.r_[6.0, -5.0, 4.0, -3.0, 0.5 * (-0.7) ** np.arange(space.dim - 4)]
    hess_load, B = indefinite_operator(space, gf, spectrum)
    Ainv = np.linalg.inv(
        (gf.kappa * space.natural_stiffness + gf.alpha * space.mass).toarray()
    )
    lam = np.linalg.eigvals(Ainv @ B @ Ainv @ space.mass.toarray()).real
    top = np.sort(lam[np.argsort(-np.abs(lam))[:4]])[::-1]
    assert np.allclose(top, [6.0, 4.0, -3.0, -5.0])
    basis = gf.preconditioned_eigenpairs(hess_load, 4)
    assert np.all(np.diff(basis.eigenvalues) < 0.0)
    assert np.abs(basis.eigenvalues - top).max() <= 1e-8 * 6.0
    V = space.to_fields(basis.coefficients)
    assert np.abs(V.T @ (space.mass @ V) - np.eye(4)).max() <= 1e-8
    T = gf.apply_sqrt_C(space.project(hess_load(gf.apply_sqrt_C(V))))
    assert np.abs(T - V * basis.eigenvalues).max() <= 1e-6 * np.abs(V).max()


def test_eigenpairs_same_seed_same_bits(tiny):
    _, space, gf = tiny
    hess_load, _ = indefinite_operator(space, gf, np.linspace(3.0, -2.0, space.dim))
    a = gf.preconditioned_eigenpairs(hess_load, 3, seed=11)
    b = gf.preconditioned_eigenpairs(hess_load, 3, seed=11)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(space.to_fields(a.coefficients),
                          space.to_fields(b.coefficients))


def test_eigenpairs_no_convergence_is_numerical_error(tiny, monkeypatch):
    import scipy.sparse.linalg as spla

    _, space, gf = tiny

    def no_convergence(A, k, **kwargs):
        raise spla.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.zeros(0), np.zeros((A.shape[0], 0))
        )

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(NumericalError, match="No convergence"):
        gf.preconditioned_eigenpairs(lambda f: space.mass @ f, 3)


def test_invalid_parameters():
    mesh = Mesh(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        field_on_mesh(mesh, 0.0, 1.0)
    with pytest.raises(ValueError):
        field_on_mesh(mesh, 1.0, -1.0)
    gf = field_on_mesh(mesh, 1.0, 1.0)
    with pytest.raises(ValueError):
        gf.scaled(-1.0)
    with pytest.raises(ValueError):
        gf.preconditioned_eigenpairs(lambda f: gf.space.mass @ f, 0)


@pytest.mark.parametrize("kappa, alpha, key", [
    (float("nan"), 1.0, "kappa"), (float("inf"), 1.0, "kappa"),
    (1.0, float("nan"), "alpha"), (1.0, float("inf"), "alpha"),
], ids=["nan kappa", "inf kappa", "nan alpha", "inf alpha"])
def test_non_finite_parameters_rejected_by_name(kappa, alpha, key):
    # a NaN or infinite value used to pass and fail in the basis check
    with pytest.raises(ValueError, match=f"^{key}: "):
        GaussianField(volume_space(Mesh(2, 2, 1.0, 1.0)), kappa, alpha)


@pytest.mark.parametrize("nx, ny", [(11, 7), (5, 9), (1, 6)])
def test_kronecker_factors_reproduce_assembled_matrices(nx, ny):
    mesh = Mesh(nx, ny, 2.0, 1.0)
    for space in (volume_space(mesh), neumann_trace_space(mesh)):
        (mass_x, stiff_x), (mass_y, stiff_y) = space.factors
        kron_mass = sp.kron(mass_y, mass_x)
        kron_stiff = sp.kron(stiff_y, mass_x) + sp.kron(mass_y, stiff_x)
        for assembled, kron in ((space.mass, kron_mass),
                                (space.natural_stiffness, kron_stiff)):
            scale = abs(assembled).max()
            assert abs(kron - assembled).max() <= 1e-15 * scale


def test_boundary_field_segments():
    mesh = Mesh(6, 4, 1.0, 1.0)
    space = neumann_trace_space(mesh)
    # bottom and top sides, corners included on each segment
    assert space.dim == 2 * (mesh.nx + 1)
    ones = np.ones(space.dim)
    assert ones @ (space.mass @ ones) == pytest.approx(2.0, rel=1e-13)
    gf = GaussianField(space, 5e-2, 2.0)
    draws = gf.sample_batch(2000, seed=3)
    A = (gf.kappa * space.natural_stiffness + gf.alpha * space.mass).toarray()
    Ainv = np.linalg.inv(A)
    C = Ainv @ space.mass.toarray() @ Ainv
    emp = draws @ draws.T / draws.shape[1]
    se = np.sqrt((np.outer(np.diag(C), np.diag(C)) + C**2) / draws.shape[1])
    assert np.all(np.abs(emp - C) <= 5.0 * se)

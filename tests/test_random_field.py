import numpy as np
import pytest

from riskquad.fem import build_mesh
from riskquad.random_field import (
    COLOR_CHUNK,
    GaussianField,
    field_on_mesh,
    field_on_neumann_boundary,
    neumann_trace_space,
    volume_space,
)


@pytest.fixture(scope="module")
def tiny():
    mesh = build_mesh(3, 2, 2.0, 1.0)
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
    mesh = build_mesh(2, 2, 1.0, 1.0)
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
    # vector and for blocks solved on the lower and the upper factor
    mesh, _, volume = tiny
    boundary = field_on_neumann_boundary(mesh, 5e-2, 2.0)
    rng = np.random.default_rng(3)
    for gf in (volume, volume.scaled(0.3), boundary, boundary.scaled(0.3)):
        for shape in ((gf.dim,), (gf.dim, 3), (gf.dim, 9)):
            F = rng.standard_normal(shape)
            loads = gf.space.mass @ F
            assert np.array_equal(gf.apply_C_to_loads(loads), gf.apply_C(F))


def test_sqrt_squares_to_C(tiny):
    _, space, gf = tiny
    rng = np.random.default_rng(2)
    f = rng.standard_normal(space.dim)
    twice = gf.apply_sqrt_C(gf.apply_sqrt_C(f))
    assert np.allclose(twice, gf.apply_C(f), rtol=1e-10, atol=1e-14)


def test_sample_zero_eps_is_exact_mean():
    mesh = build_mesh(2, 2, 1.0, 1.0)
    mean = np.linspace(-1.0, 1.0, mesh.n_nodes)
    gf = field_on_mesh(mesh, 1e-2, 2.0, mean=mean).scaled(0.0)
    assert np.array_equal(gf.sample(np.random.default_rng(0)), mean)


def test_sample_covariance_matches_dense(tiny):
    _, space, gf = tiny
    n = 10_000
    draws = gf.sample_batch(n, seed=42) - gf.mean[:, None]
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
    assert np.all(np.abs(draws.mean(axis=1) - gf.mean) <= 5.0 * se)


def test_chunked_draws_match_one_shot_coloring():
    mesh = build_mesh(20, 10, 2.0, 1.0)
    mean = np.sin(np.arange(mesh.n_nodes))
    gf = field_on_mesh(mesh, 2e-2, 4.0, mean=mean).scaled(1.7)
    n = 2 * COLOR_CHUNK + 3  # not a multiple of the chunk; a tail of 3 columns
    normals = np.random.default_rng(5).standard_normal((gf.dim, n))
    assert np.array_equal(gf.zero_mean_batch(n, seed=5), gf._colored(normals))
    g = gf.scaled(0.3)
    draws = g.sample_batch(n, seed=5)
    assert np.array_equal(draws, mean[:, None] + g._colored(normals))
    assert draws.flags.c_contiguous


def test_probe_variance_scales_with_eps(tiny):
    _, space, gf = tiny
    rng = np.random.default_rng(3)
    n = 4000
    for eps in (1.0, 0.25):
        draws = gf.scaled(eps).sample_batch(n, seed=11) - gf.mean[:, None]
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
    draws = gf.sample_batch(n, seed=13) - gf.mean[:, None]
    sq = np.einsum("in,in->n", draws, space.mass.toarray() @ draws)
    assert abs(sq.mean() - tr) <= 5.0 * sq.std() / np.sqrt(n)
    eigs = np.linalg.eigvals(C_op).real
    assert abs(eigs.sum() - tr) < 1e-10 * abs(tr)


def test_trace_vectors_count_and_determinism(tiny):
    _, space, gf = tiny
    vecs = gf.zero_mean_batch(40, seed=5).T
    assert len(vecs) == 40
    again = gf.zero_mean_batch(40, seed=5).T
    assert all(np.array_equal(a, b) for a, b in zip(vecs, again))
    other = gf.zero_mean_batch(40, seed=6).T
    assert not np.array_equal(vecs[0], other[0])


def test_trace_vectors_zero_mean(tiny):
    _, space, gf = tiny
    n = 10_000
    draws = np.column_stack(gf.zero_mean_batch(n, seed=8).T)
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
    zero_mean = gf.zero_mean_batch(5, seed=3)
    assert np.array_equal(
        quarter.sample_batch(5, seed=3), gf.mean[:, None] + 0.5 * zero_mean
    )


def test_eigenpairs_zero_operator(tiny):
    _, space, gf = tiny
    basis = gf.preconditioned_eigenpairs(lambda f: np.zeros_like(f), 3)
    assert np.array_equal(basis.eigenvalues, np.zeros(3))


def test_eigenpairs_identity_matches_covariance(tiny):
    _, space, gf = tiny
    basis = gf.preconditioned_eigenpairs(lambda f: f, 4)
    C_op = dense_cov(space, gf) @ space.mass.toarray()
    lam = np.sort(np.linalg.eigvals(C_op).real)[::-1]
    assert abs(basis.eigenvalues[0] - lam[0]) <= 1e-6 * abs(lam[0])
    assert np.all(np.diff(basis.eigenvalues) <= 1e-12)


def test_eigenpairs_m_orthonormal(tiny):
    _, space, gf = tiny
    basis = gf.preconditioned_eigenpairs(lambda f: f, 4)
    V = basis.vectors
    gram = V.T @ (space.mass @ V)
    assert np.abs(gram - np.eye(4)).max() <= 1e-8


def test_eigenpairs_flow_hessian_matches_dense():
    from riskquad.poisson import PoissonFlowProblem, WellConfig

    mesh = build_mesh(5, 5, 1.0, 1.0)
    wells = WellConfig([[0.5, 0.52]], [[0.3, 0.3], [0.7, 0.7]], 0.25, [1.0, 1.0])
    problem = PoissonFlowProblem(mesh, wells=wells)
    gf = GaussianField(problem.space, 5e-2, 2.0)
    surr = problem.surrogate(np.array([4.0]))
    n = mesh.n_nodes
    M = problem.space.mass.toarray()
    A = (gf.kappa * problem.space.natural_stiffness + gf.alpha * problem.space.mass).toarray()
    Ainv = np.linalg.inv(A)
    H = np.column_stack([surr.hess_action(e) for e in np.eye(n)])
    lam_dense = np.sort(np.linalg.eigvals(Ainv @ M @ H @ Ainv @ M).real)[::-1]
    basis = gf.preconditioned_eigenpairs(surr.hess_action, 3)
    assert np.all(
        np.abs(basis.eigenvalues - lam_dense[:3]) <= 1e-6 * np.abs(lam_dense[:3])
    )


def test_invalid_parameters():
    mesh = build_mesh(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        field_on_mesh(mesh, 0.0, 1.0)
    with pytest.raises(ValueError):
        field_on_mesh(mesh, 1.0, -1.0)
    gf = field_on_mesh(mesh, 1.0, 1.0)
    with pytest.raises(ValueError):
        gf.scaled(-1.0)
    with pytest.raises(ValueError):
        gf.preconditioned_eigenpairs(lambda f: f, 0)


def test_boundary_field_segments():
    mesh = build_mesh(6, 4, 1.0, 1.0)
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

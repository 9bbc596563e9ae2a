from dataclasses import replace

import numpy as np
import pytest

from riskquad import checks
from riskquad.checks import check_gradient, check_hessian
from riskquad.cli import main
from riskquad.fem import Mesh, grad_dot_load
from riskquad.ouu import OuuConfig, evaluate_true_risk, optimize
from riskquad.poisson import (
    PoissonFlowProblem,
    WellConfig,
    grid_points,
    mollifier_fields,
    parabolic_target_profile,
)
from riskquad.random_field import GaussianField, volume_space


@pytest.fixture(scope="module")
def small_problem():
    mesh = Mesh(16, 8, 2.0, 1.0)
    problem = PoissonFlowProblem(mesh, wells=WellConfig(sigma=0.1))
    gf = GaussianField(problem.space, 2e-2, 4.0)
    return mesh, problem, gf


def test_control_of_the_wrong_length_fails_before_any_solve(small_problem):
    # every control enters a solve through source_load, which names the count
    _, problem, gf = small_problem
    start = problem.counter.count
    for run in (
        lambda: problem.objective(np.ones(3)),
        lambda: problem.objective(np.ones((3, 2))),
        lambda: evaluate_true_risk(problem, gf, np.ones(3), 2, seed=0),
        lambda: optimize(problem, gf, OuuConfig(n_tr=2, max_iter=2),
                         z0=np.ones(3)),
    ):
        with pytest.raises(ValueError, match="n_controls is 20"):
            run()
    assert problem.counter.count == start


def test_default_layout_counts():
    wells = WellConfig()
    assert wells.n_controls == 20
    assert len(wells.production_points) == 12


def test_parabolic_targets_formula():
    pts = grid_points([0.4, 0.8, 1.2, 1.6], [0.25, 0.5, 0.75])
    targets = parabolic_target_profile(pts)
    assert targets[0] == pytest.approx(3.0 - 4.0 * 0.36 - 8.0 * 0.0625)
    lookup = dict(zip(map(tuple, pts), targets))
    assert lookup[(1.2, 0.5)] == pytest.approx(3.0 - 4.0 * 0.04)
    assert lookup[(0.8, 0.75)] == pytest.approx(3.0 - 4.0 * 0.04 - 8.0 * 0.0625)


def test_wells_outside_domain_rejected():
    mesh = Mesh(4, 4, 2.0, 1.0)
    bad = WellConfig(sigma=0.3, control_xs=[2.5], control_ys=[0.5],
                     production_xs=[1.0], production_ys=[0.5], targets=[1.0])
    with pytest.raises(ValueError):
        PoissonFlowProblem(mesh, wells=bad)


def test_mollifier_unit_integral_and_resolution():
    # discrete normalization is exact; the analytic bump already integrates
    # to one within 2% on the canonical mesh
    mesh = Mesh(79, 39, 2.0, 1.0)
    space = volume_space(mesh)
    pts = WellConfig().control_points
    sigma = 0.05
    ones = np.ones(mesh.n_nodes)
    for px, py in pts[:5]:
        r2 = (mesh.node_x - px) ** 2 + (mesh.node_y - py) ** 2
        raw = np.where(r2 <= (4 * sigma) ** 2, np.exp(-0.5 * r2 / sigma**2), 0.0)
        raw /= 2.0 * np.pi * sigma**2
        assert raw @ (space.mass @ ones) == pytest.approx(1.0, abs=0.02)
    fields = mollifier_fields(mesh, space, pts, sigma)
    integrals = fields.T @ (space.mass @ ones)
    assert np.allclose(integrals, 1.0, atol=1e-12)


def test_unresolved_mollifier_rejected():
    mesh = Mesh(3, 2, 2.0, 1.0)
    space = volume_space(mesh)
    # bump of radius 0.004 between nodes of a coarse grid touches no node
    with pytest.raises(ValueError):
        mollifier_fields(mesh, space, [[0.35, 0.27]], 0.001)


def test_state_harmonic_profile(small_problem):
    _, problem, _ = small_problem
    u = problem.solve_state(np.zeros(problem.n_controls))
    expected = 1.0 - problem.mesh.node_x / 2.0
    assert np.abs(u - expected).max() < 1e-10


def test_state_symmetry_about_midline():
    mesh = Mesh(10, 8, 2.0, 1.0)
    wells = WellConfig(sigma=0.2, control_xs=[1.0], control_ys=[0.5],
                       production_xs=[0.5], production_ys=[0.5], targets=[1.0])
    problem = PoissonFlowProblem(mesh, wells=wells)
    u = problem.solve_state(np.array([1.0]))
    ny, nx = mesh.ny, mesh.nx
    grid = u.reshape(ny + 1, nx + 1)
    assert np.abs(grid - grid[::-1, :]).max() < 1e-8


def test_constant_log_shift_scales_increments(small_problem):
    mesh, problem, _ = small_problem
    c = 0.7
    shifted = PoissonFlowProblem(
        mesh, wells=problem.wells, mean=np.full(mesh.n_nodes, c)
    )
    z = np.full(problem.n_controls, 2.0)
    z0 = np.zeros(problem.n_controls)
    base_inc = problem.solve_state(z) - problem.solve_state(z0)
    shifted_inc = shifted.solve_state(z) - shifted.solve_state(z0)
    assert np.allclose(shifted_inc, np.exp(-c) * base_inc, atol=1e-10)


def test_objective_zero_misfit_and_constant_observation(small_problem):
    mesh, problem, _ = small_problem
    u = problem.solve_state(np.full(problem.n_controls, 3.0))
    exact = PoissonFlowProblem(
        mesh, wells=replace(problem.wells, targets=list(problem.observe(u)))
    )
    assert exact.objective_of_state(u) == pytest.approx(0.0, abs=1e-18)
    # observing the constant one with zero targets: 12 wells -> 1/2 * 12
    zero_targets = PoissonFlowProblem(
        mesh, wells=replace(problem.wells, targets=[0.0] * 12)
    )
    assert zero_targets.objective_of_state(np.ones(mesh.n_nodes)) == pytest.approx(6.0)


def test_gradient_vanishes_for_constant_state(small_problem):
    mesh, problem, _ = small_problem
    flat = PoissonFlowProblem(mesh, wells=problem.wells)
    flat.dirichlet_bc = np.ones_like(flat.dirichlet_bc)  # pressure 1 on both sides
    ws = flat.workspace(np.zeros(flat.n_controls))
    assert np.abs(ws.u - 1.0).max() < 1e-10
    grad = flat.space.project(grad_dot_load(mesh, ws.em, ws.u, ws.p))
    assert np.sqrt(flat.space.inner(grad, grad)) < 1e-10


def test_gradient_vanishes_for_zero_misfit(small_problem):
    mesh, problem, _ = small_problem
    z = np.full(problem.n_controls, 2.0)
    u = problem.solve_state(z)
    matched = PoissonFlowProblem(
        mesh, wells=replace(problem.wells, targets=list(problem.observe(u)))
    )
    ws = matched.workspace(z)
    assert np.sqrt(matched.space.inner(ws.p, ws.p)) < 1e-10
    grad = matched.space.project(grad_dot_load(mesh, ws.em, ws.u, ws.p))
    assert np.sqrt(matched.space.inner(grad, grad)) < 1e-12


def test_gradient_finite_difference(small_problem):
    _, problem, gf = small_problem
    z = np.full(problem.n_controls, 4.0)
    assert check_gradient(problem, gf, z, n_dirs=5) <= 1e-5


def test_gradient_fd_error_second_order(small_problem):
    _, problem, gf = small_problem
    z = np.full(problem.n_controls, 4.0)
    surr = problem.surrogate(z)
    rng = np.random.default_rng(9)
    d = gf.sample(rng)
    exact = surr.grad_load @ d
    hs = np.array([1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    errs = []
    for h in hs:
        fd = (
            problem.objective(z, problem.mean + h * d)
            - problem.objective(z, problem.mean - h * d)
        ) / (2.0 * h)
        errs.append(abs(fd - exact))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.5 <= slope <= 2.5


def test_hessian_zero_direction(small_problem):
    _, problem, _ = small_problem
    ws = problem.workspace(np.full(problem.n_controls, 4.0))
    psi = problem.hess_action(ws, np.zeros(problem.mesh.n_nodes))
    assert np.sqrt(problem.space.inner(psi, psi)) == 0.0


def test_hessian_self_adjoint(small_problem):
    _, problem, gf = small_problem
    ws = problem.workspace(np.full(problem.n_controls, 4.0))
    rng = np.random.default_rng(11)
    for _ in range(5):
        z1 = gf.sample(rng)
        z2 = gf.sample(rng)
        lhs = problem.space.inner(z1, problem.hess_action(ws, z2))
        rhs = problem.space.inner(z2, problem.hess_action(ws, z1))
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), abs(rhs))


def test_hessian_linear_in_direction(small_problem):
    _, problem, gf = small_problem
    ws = problem.workspace(np.full(problem.n_controls, 4.0))
    rng = np.random.default_rng(12)
    z1 = gf.sample(rng)
    z2 = gf.sample(rng)
    combo = problem.hess_action(ws, 2.0 * z1 - 3.0 * z2)
    parts = 2.0 * problem.hess_action(ws, z1) - 3.0 * problem.hess_action(ws, z2)
    err = combo - parts
    assert (np.sqrt(problem.space.inner(err, err))
            <= 1e-10 * np.sqrt(problem.space.inner(combo, combo)))


def test_hessian_finite_difference(small_problem):
    _, problem, gf = small_problem
    z = np.full(problem.n_controls, 4.0)
    assert check_hessian(problem, gf, z) <= 1e-4


def test_nan_derivative_fails_the_checks(monkeypatch, capsys, tmp_path):
    # max(0.0, nan) is 0.0, so a fold by max would pass a NaN gradient with
    # error 0; the checks return NaN and the command line exits 3
    mesh = Mesh(8, 4, 2.0, 1.0)
    problem = PoissonFlowProblem(mesh, wells=WellConfig(sigma=0.25))
    gf = GaussianField(problem.space, 2e-2, 4.0)
    z = np.full(problem.n_controls, 4.0)
    finite = check_gradient(problem, gf, z), check_hessian(problem, gf, z)
    assert [type(err) for err in finite] == [float, float]
    surrogate = problem.surrogate

    def nan_gradient(z, m=None):
        surr = surrogate(z, m)
        surr.grad_load = np.full(surr.grad_load.shape, np.nan)
        return surr

    monkeypatch.setattr(problem, "surrogate", nan_gradient)
    errors = check_gradient(problem, gf, z), check_hessian(problem, gf, z)
    assert [type(err) for err in errors] == [float, float]
    assert all(np.isnan(err) for err in errors)
    monkeypatch.setattr(checks, "run_derivative_checks", lambda seed: [
        ("flow parameter gradient", errors[0], 1e-5),
        ("flow Hessian action", errors[1], 1e-5),
    ])
    assert main(["--out", str(tmp_path), "check-derivatives"]) == 3
    assert capsys.readouterr().out.count("[FAIL]") == 2


def test_solve_accounting(small_problem):
    _, problem, gf = small_problem
    start = problem.counter.count
    ws = problem.workspace(np.full(problem.n_controls, 4.0))
    assert problem.counter.count - start == 2
    rng = np.random.default_rng(13)
    problem.hess_action(ws, rng.standard_normal(problem.mesh.n_nodes))
    assert problem.counter.count - start == 4


def test_block_hessian_matches_columns(small_problem):
    mesh, problem, _ = small_problem
    ws = problem.workspace(np.full(problem.n_controls, 4.0))
    Z = np.random.default_rng(8).standard_normal((mesh.n_nodes, 5))
    start = problem.counter.count
    block = problem.hess_action(ws, Z)
    assert problem.counter.count - start == 2 * Z.shape[1]
    for k in range(Z.shape[1]):
        col = problem.hess_action(ws, Z[:, k])
        assert np.linalg.norm(block[:, k] - col) <= 1e-12 * np.linalg.norm(col)

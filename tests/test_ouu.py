import json
from collections import Counter

import numpy as np
import pytest

from riskquad.checks import check_control_gradient
from riskquad.cli import main as cli_main
from riskquad.errors import NumericalError
from riskquad.fem import build_mesh, grad_dot_load, weighted_stiffness_apply
from riskquad.ouu import (
    OuuConfig,
    RiskAverseObjective,
    SaaObjective,
    continuation,
    evaluate_true_risk,
    optimize,
)
from riskquad.poisson import PoissonFlowProblem, WellConfig, default_wells
from riskquad.random_field import FieldSpace, GaussianField
from riskquad.surrogate import DRAW_CHUNK, estimate_traces


def make_setup(nx=12, ny=6, sigma=0.12):
    mesh = build_mesh(nx, ny, 2.0, 1.0)
    problem = PoissonFlowProblem(mesh, wells=default_wells(sigma=sigma))
    gf = GaussianField(problem.space, 2e-2, 4.0)
    return mesh, problem, gf


@pytest.fixture(scope="module")
def setup():
    return make_setup()


def ouu_gradient_error(problem, gf, cfg, z, components):
    """The control-gradient check on the risk objective, with eigenbasis
    probes at z."""
    obj = RiskAverseObjective(problem, gf, cfg, nominal_control=z)
    return check_control_gradient(obj, z, components)


def test_ouu_config_validation():
    with pytest.raises(ValueError):
        OuuConfig(beta=-1.0)
    with pytest.raises(ValueError):
        OuuConfig(gamma=0.0)
    with pytest.raises(ValueError):
        OuuConfig(beta_schedule=(1.0, 0.5))
    with pytest.raises(ValueError):
        OuuConfig(beta=1.0, beta_schedule=(0.0, 0.5))
    with pytest.raises(ValueError):
        OuuConfig(trace_mode="dense")
    with pytest.raises(ValueError):
        OuuConfig(z_min=5.0, z_max=1.0)
    with pytest.raises(ValueError):
        OuuConfig(z_min=2.0, z_max=2.0)
    with pytest.raises(ValueError,
                       match="beta_schedule: -5.0 is not a nonnegative number"):
        OuuConfig(beta_schedule=(-5.0, 1.0))
    for z0 in (-1.0, 20.0):
        with pytest.raises(ValueError, match="z0"):
            OuuConfig(z0=z0)
    # a library caller's bad value names its field, as a config file's does
    for name, value in [("gamma", True), ("beta", "a"), ("grad_reduction_tol", -1),
                        ("grad_reduction_tol", 0), ("grad_reduction_tol", 1),
                        ("beta_schedule", "abc")]:
        with pytest.raises(ValueError, match=f"^{name}: "):
            OuuConfig(**{name: value})


def test_control_cost_arithmetic(setup):
    _, problem, gf = setup
    cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=2, beta_schedule=(1.0,), seed=0)
    obj = RiskAverseObjective(problem, gf, cfg)
    report, _ = obj.evaluate(np.full(20, 4.0))
    assert report.control_cost == pytest.approx(0.5 * 1e-5 * 320.0, rel=1e-12)


def test_report_decomposition_invariant(setup):
    _, problem, gf = setup
    cfg = OuuConfig(beta=0.75, gamma=1e-4, n_tr=3, beta_schedule=(0.75,), seed=1)
    obj = RiskAverseObjective(problem, gf, cfg)
    rng = np.random.default_rng(2)
    for _ in range(3):
        z = rng.uniform(0.0, 8.0, size=20)
        report, _ = obj.evaluate(z)
        rebuilt = (
            report.theta_bar
            + 0.5 * report.tr_hc
            + 0.5 * cfg.beta * (report.grad_term + 0.5 * report.tr_hc_sq)
            + 0.5 * cfg.gamma * float(z @ z)
        )
        assert report.value == pytest.approx(rebuilt, rel=1e-12)
        assert report.mean_term == report.theta_bar + 0.5 * report.tr_hc
        assert report.variance_term == report.grad_term + 0.5 * report.tr_hc_sq


@pytest.mark.parametrize("n_tr", [0, 1, 5])
def test_solve_accounting_exact(setup, n_tr):
    _, problem, gf = setup
    cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=n_tr, beta_schedule=(1.0,), seed=0)
    obj = RiskAverseObjective(problem, gf, cfg)
    z = np.full(20, 4.0)
    start = problem.counter.count
    report, state = obj.evaluate(z)
    assert problem.counter.count - start == 2 + 2 * n_tr
    assert report.pde_solves == 2 + 2 * n_tr
    obj.gradient(state)
    assert problem.counter.count - start == 4 + 4 * n_tr
    assert state.report.pde_solves == 4 + 4 * n_tr


@pytest.mark.parametrize("mode,n_tr", [("randomized", 5), ("eigenbasis", 3)])
def test_evaluate_moments_match_estimate_traces(setup, mode, n_tr, monkeypatch):
    # the optimizer's moments are the ones the trace-estimation criteria
    # certify: same probes, same numbers, and no mass projection
    _, problem, gf = setup
    z = np.full(20, 4.0)
    cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=n_tr, trace_mode=mode,
                    beta_schedule=(1.0,), seed=4)
    report, _ = RiskAverseObjective(problem, gf, cfg, nominal_control=z).evaluate(z)
    surr = problem.surrogate(z)
    projections = []
    project = FieldSpace.project
    monkeypatch.setattr(
        FieldSpace, "project",
        lambda space, load: projections.append(load) or project(space, load),
    )
    tr = estimate_traces(surr, gf, mode, n_tr=n_tr, seed=cfg.seed)
    assert projections == []
    for name in ("tr_hc", "tr_hc_sq", "grad_term", "mean_term", "variance_term"):
        assert getattr(tr, name) == pytest.approx(
            getattr(report, name), rel=1e-12, abs=0.0
        )


def test_objective_makes_no_covariance_solve(setup, monkeypatch):
    # only the probe draws solve with A; the objective's covariance action
    # is a diagonal in the field's basis
    _, problem, gf = setup
    shapes = []
    raw = gf.solver_A._raw_solve
    monkeypatch.setattr(gf.solver_A, "_raw_solve",
                        lambda b: shapes.append(b.shape) or raw(b))
    cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=40, beta_schedule=(1.0,), seed=0)
    obj = RiskAverseObjective(problem, gf, cfg)
    assert shapes == [(gf.dim, 40)]
    obj.gradient(obj.evaluate(np.full(problem.n_controls, 4.0))[1])
    assert shapes == [(gf.dim, 40)]


def test_nan_control_gradient_fails_its_check(setup, monkeypatch):
    _, problem, gf = setup
    cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=2, beta_schedule=(1.0,), seed=0)
    z = np.full(problem.n_controls, 4.0)
    finite = ouu_gradient_error(problem, gf, cfg, z, (0,))
    assert type(finite) is np.float64 and finite <= 1e-5
    monkeypatch.setattr(RiskAverseObjective, "gradient",
                        lambda obj, state: np.full(len(state.z), np.nan))
    assert np.isnan(ouu_gradient_error(problem, gf, cfg, z, (0, 1)))


def test_evaluate_guards_against_negative_variance(monkeypatch, tmp_path):
    _, problem, gf = make_setup(6, 3, sigma=0.3)
    cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=3, beta_schedule=(1.0,), seed=0)
    obj = RiskAverseObjective(problem, gf, cfg)
    apply = GaussianField.apply_C_to_loads
    monkeypatch.setattr(gf, "apply_C_to_loads", lambda loads: -apply(gf, loads))
    with pytest.raises(NumericalError, match="negative variance"):
        obj.evaluate(np.full(20, 4.0))
    monkeypatch.undo()
    # the command line reports the failure as a numerical one
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mesh": {"nx": 6, "ny": 3}, "wells": {"sigma": 0.3},
        "ouu": {"n_tr": 3, "max_iter": 2, "beta_schedule": [1.0]},
    }))
    monkeypatch.setattr(GaussianField, "apply_C_to_loads",
                        lambda field, loads: -apply(field, loads))
    code = cli_main(["--config", str(config), "--out", str(tmp_path / "out"),
                     "optimize"])
    assert code == 3


def zeroed_sources(problem):
    """Same problem with the control-to-source map replaced by zero."""
    problem.source_fields = np.zeros_like(problem.source_fields)
    return problem


def test_objective_reduces_to_tracking_value_when_state_is_flat():
    # constant Dirichlet data and no sources: u == 1, so the expansion
    # gradient and every Hessian action vanish and J = theta + control cost
    mesh = build_mesh(8, 4, 2.0, 1.0)
    wells = default_wells(sigma=0.15)
    flat_targets = WellConfig(
        wells.control_points, wells.production_points, wells.sigma,
        np.zeros(12),
    )
    problem = zeroed_sources(
        PoissonFlowProblem(mesh, wells=flat_targets, dirichlet_values=(1.0, 1.0))
    )
    gf = GaussianField(problem.space, 2e-2, 4.0)
    cfg = OuuConfig(beta=0.0, gamma=1e-12, n_tr=4, beta_schedule=(0.0,), seed=0)
    obj = RiskAverseObjective(problem, gf, cfg)
    z = np.full(20, 4.0)
    report, _ = obj.evaluate(z)
    # observing u == 1 against zero targets at 12 wells
    assert report.theta_bar == pytest.approx(6.0, rel=1e-12)
    assert abs(report.tr_hc) < 1e-12
    assert abs(report.grad_term) < 1e-20
    assert report.value == pytest.approx(6.0, abs=1e-9)


def test_gradient_is_control_cost_when_sources_vanish():
    mesh = build_mesh(8, 4, 2.0, 1.0)
    problem = zeroed_sources(
        PoissonFlowProblem(mesh, wells=default_wells(sigma=0.15))
    )
    gf = GaussianField(problem.space, 2e-2, 4.0)
    cfg = OuuConfig(beta=1.0, gamma=1e-3, n_tr=3, beta_schedule=(1.0,), seed=0)
    obj = RiskAverseObjective(problem, gf, cfg)
    z = np.linspace(1.0, 3.0, 20)
    _, state = obj.evaluate(z)
    grad = obj.gradient(state)
    assert np.allclose(grad, cfg.gamma * z, rtol=1e-10, atol=1e-14)


def test_gradient_finite_difference_randomized(setup):
    _, problem, gf = setup
    cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=4, beta_schedule=(1.0,), seed=0)
    err = ouu_gradient_error(problem, gf, cfg, np.full(20, 4.0), (0, 7, 19))
    assert err <= 1e-5


def test_gradient_finite_difference_eigenbasis(setup):
    _, problem, gf = setup
    cfg = OuuConfig(
        beta=1.0, gamma=1e-5, n_tr=4, trace_mode="eigenbasis",
        beta_schedule=(1.0,), seed=0,
    )
    err = ouu_gradient_error(problem, gf, cfg, np.full(20, 4.0), (0, 13))
    assert err <= 1e-5


def test_gradient_finite_difference_beta_zero_no_probes(setup):
    _, problem, gf = setup
    cfg = OuuConfig(beta=0.0, gamma=1e-5, n_tr=0, beta_schedule=(0.0,), seed=0)
    err = ouu_gradient_error(problem, gf, cfg, np.full(20, 4.0), (3,))
    assert err <= 1e-5


def test_gradient_fd_slope_is_second_order(setup):
    _, problem, gf = setup
    cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=3, beta_schedule=(1.0,), seed=3)
    obj = RiskAverseObjective(problem, gf, cfg)
    rng = np.random.default_rng(4)
    z = rng.uniform(1.0, 7.0, size=20)
    d = rng.standard_normal(20)
    d /= np.linalg.norm(d)
    _, state = obj.evaluate(z)
    exact = obj.gradient(state) @ d
    hs = np.array([1e-1, 1e-2, 1e-3])
    errs = []
    for h in hs:
        fd = (
            obj.evaluate(z + h * d)[0].value - obj.evaluate(z - h * d)[0].value
        ) / (2.0 * h)
        errs.append(max(abs(fd - exact), 1e-16))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert 1.5 <= slope <= 2.5


def test_huge_control_cost_drives_rates_to_zero(setup):
    _, problem, gf = setup
    cfg = OuuConfig(
        beta=0.0, gamma=1e3, n_tr=2, beta_schedule=(0.0,), max_iter=60, seed=0
    )
    res = optimize(problem, gf, cfg, z0=np.full(20, 4.0))
    assert np.abs(res.z).max() < 1e-2


def test_optimize_descends_and_respects_bounds(setup):
    _, problem, gf = setup
    cfg = OuuConfig(
        beta=1.0, gamma=1e-5, n_tr=4,
        beta_schedule=(0.0, 0.5, 1.0), max_iter=40, seed=0,
    )
    z0 = np.full(20, 4.0)
    res = optimize(problem, gf, cfg, z0=z0)
    for leg in res.legs:
        values = [row.value for row in leg.rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert np.all(res.z >= cfg.z_min - 1e-12)
    assert np.all(res.z <= cfg.z_max + 1e-12)
    base = RiskAverseObjective(problem, gf, cfg)
    assert res.final_report.value < base.evaluate(z0)[0].value


def test_optimize_deterministic(setup):
    _, problem, gf = setup
    cfg = OuuConfig(
        beta=1.0, gamma=1e-5, n_tr=3, beta_schedule=(0.0, 1.0),
        max_iter=15, seed=5,
    )
    r1 = optimize(problem, gf, cfg)
    r2 = optimize(problem, gf, cfg)
    assert np.array_equal(r1.z, r2.z)
    v1 = [row.value for leg in r1.legs for row in leg.rows]
    v2 = [row.value for leg in r2.legs for row in leg.rows]
    assert v1 == v2


def test_each_optimize_trace_counts_from_its_own_start():
    # one problem, three runs: each iterate trace starts at its first
    # objective-plus-gradient, and the eigenbasis set-up is counted on the
    # problem's counter but in no trace
    _, problem, gf = make_setup()
    n_tr = 3
    spent, traced = [], []
    for mode in ("randomized", "eigenbasis", "randomized"):
        cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=n_tr, trace_mode=mode,
                        beta_schedule=(1.0,), max_iter=2, seed=0)
        start = problem.counter.count
        res = optimize(problem, gf, cfg, z0=np.full(20, 4.0))
        spent.append(problem.counter.count - start)
        traced.append(res.legs[-1].rows[-1].solves)
        assert res.legs[0].rows[0].solves == 4 + 4 * n_tr
    assert spent[0] == traced[0] and spent[2] == traced[2]
    assert spent[1] > traced[1]


def test_saa_mean_only_at_zero_spread(setup):
    _, problem, gf = setup
    saa = SaaObjective(problem, gf.scaled(0.0), n_mc=4, beta=1.0, gamma=1e-5, seed=0)
    z = np.full(20, 4.0)
    report, _ = saa.evaluate(z)
    assert report.variance == pytest.approx(0.0, abs=1e-16)
    assert report.mean == pytest.approx(problem.objective(z), rel=1e-12)


def test_saa_gradient_finite_difference(setup):
    _, problem, gf = setup
    saa = SaaObjective(problem, gf, n_mc=6, beta=1.0, gamma=1e-5, seed=4)
    assert check_control_gradient(saa, np.full(20, 4.0), (0, 7)) <= 1e-5


def test_true_risk_rejects_threads_other_than_one(setup):
    _, problem, gf = setup
    with pytest.raises(ValueError):
        evaluate_true_risk(problem, gf, np.full(20, 4.0), 4, threads=2)


@pytest.mark.parametrize("n_mc", [1, DRAW_CHUNK + 3])
def test_true_risk_block_surrogates_match_per_draw(setup, n_mc):
    _, problem, gf = setup
    z = np.full(20, 4.0)
    start = problem.counter.count
    risk = evaluate_true_risk(problem, gf, z, n_mc, seed=6)
    spent = problem.counter.count - start
    # reference: one objective, one linear and one quadratic value per draw
    start = problem.counter.count
    fields = gf.sample_batch(n_mc, seed=6)
    theta = [problem.objective(z, f) for f in fields.T]
    surr = problem.surrogate(z)
    lin = [surr.eval_lin(f) for f in fields.T]
    quad = [surr.eval_quad(f) for f in fields.T]
    assert spent == problem.counter.count - start == n_mc + 2 + 2 * n_mc
    assert np.array_equal(risk.samples, theta)
    np.testing.assert_allclose(risk.lin_samples, lin, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(risk.quad_samples, quad, rtol=1e-12, atol=0.0)


def test_saa_costs_two_solves_per_sample(setup):
    _, problem, gf = setup
    n_mc = 5
    saa = SaaObjective(problem, gf, n_mc=n_mc, beta=0.5, gamma=1e-5, seed=1)
    start = problem.counter.count
    saa.gradient(saa.evaluate(np.full(20, 4.0))[1])
    assert problem.counter.count - start == 2 * n_mc


def test_saa_report_counts_its_solves(setup):
    # compare-mc reads the cost of one evaluation from the final report
    _, problem, gf = setup
    n_mc = 5
    saa = SaaObjective(problem, gf, n_mc=n_mc, beta=0.5, gamma=1e-5, seed=1)
    report, state = saa.evaluate(np.full(20, 4.0))
    assert report.pde_solves == n_mc
    saa.gradient(state)
    assert report.pde_solves == 2 * n_mc


def test_quadratic_and_saa_agree_in_small_noise_limit(setup):
    _, problem, gf = setup
    z = np.full(20, 4.0)
    cfg = OuuConfig(beta=0.5, gamma=1e-5, n_tr=6, beta_schedule=(0.5,), seed=0)
    gaps = []
    for eps in (1e-2, 1e-4):
        scaled = gf.scaled(eps)
        quad_value = RiskAverseObjective(problem, scaled, cfg).evaluate(z)[0].value
        saa_value = SaaObjective(
            problem, scaled, n_mc=400, beta=0.5, gamma=1e-5, seed=3
        ).evaluate(z)[0].value
        theta = problem.objective(z)
        gaps.append(abs(quad_value - saa_value) / max(abs(theta), 1.0))
    assert gaps[1] < 0.2 * gaps[0]


def test_true_risk_zero_eps(setup):
    _, problem, gf = setup
    z = np.full(20, 4.0)
    risk = evaluate_true_risk(problem, gf.scaled(0.0), z, 50, seed=0)
    assert risk.variance == pytest.approx(0.0, abs=1e-18)
    assert risk.mean == pytest.approx(problem.objective(z), rel=1e-12)
    assert risk.lin_samples.shape == (50,)
    assert risk.quad_samples.shape == (50,)


def test_true_risk_deterministic(setup):
    _, problem, gf = setup
    z = np.full(20, 4.0)
    a = evaluate_true_risk(problem, gf, z, 30, seed=4)
    b = evaluate_true_risk(problem, gf, z, 30, seed=4)
    assert np.array_equal(a.samples, b.samples)


def control_cost(zs, gamma):
    return np.array([0.5 * gamma * float(z @ z) for z in zs])


def test_true_risk_block_shapes(setup):
    _, problem, gf = setup
    zs = [np.full(20, 4.0), np.full(20, 1.0)]
    risk = evaluate_true_risk(
        problem, gf, np.column_stack(zs), 60, seed=0, with_surrogates=False
    )
    values, errors = risk.risk_measure(0.5)
    assert risk.samples.shape == (60, 2)
    assert risk.mean.shape == risk.variance.shape == (2,)
    assert values.shape == (2,) and errors.shape == (2,)
    assert np.all(errors > 0.0)


def test_true_risk_block_matches_per_control_solves(setup):
    # reference: the per-draw loop of single lifted solves, one per control
    _, problem, gf = setup
    zs = [np.full(20, 4.0), np.linspace(0.0, 5.0, 20), np.full(20, 1.0)]
    beta, gamma, n_mc = 0.5, 1e-5, 40
    start = problem.counter.count
    risk = evaluate_true_risk(
        problem, gf, np.column_stack(zs), n_mc, seed=3, with_surrogates=False
    )
    values, errors = risk.risk_measure(beta)
    values = values + control_cost(zs, gamma)
    assert problem.counter.count - start == n_mc * len(zs)
    fields = gf.sample_batch(n_mc, seed=3)
    theta = np.array([
        [problem.objective(z, fields[:, i]) for z in zs] for i in range(n_mc)
    ])
    ref = theta.mean(axis=0) + 0.5 * beta * theta.var(axis=0, ddof=1) + [
        0.5 * gamma * z @ z for z in zs
    ]
    assert np.allclose(values, ref, rtol=1e-12, atol=0.0)
    assert np.all(errors > 0.0)


def test_block_true_risk_matches_vector_calls_and_factorizes_once_per_draw(
    setup, monkeypatch
):
    _, problem, gf = setup
    zs = [np.full(20, 4.0), np.linspace(0.0, 5.0, 20), np.full(20, 1.0)]
    k, n_mc = len(zs), 7
    factorizations = []
    solver_for = problem.solver_for

    def counted(m):
        factorizations.append(1)
        return solver_for(m)

    monkeypatch.setattr(problem, "solver_for", counted)
    start = problem.counter.count
    block = evaluate_true_risk(problem, gf, np.column_stack(zs), n_mc, seed=8)
    assert problem.counter.count - start == n_mc * k + k * (2 + 2 * n_mc)
    assert len(factorizations) == n_mc
    for j, z in enumerate(zs):
        one = evaluate_true_risk(problem, gf, z, n_mc, seed=8)
        for name in ("samples", "lin_samples", "quad_samples"):
            np.testing.assert_allclose(
                getattr(block, name)[:, j], getattr(one, name),
                rtol=1e-12, atol=0.0,
            )
        np.testing.assert_allclose(block.mean[j], one.mean, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            block.variance[j], one.variance, rtol=1e-12, atol=0.0
        )


def old_standard_error(t, beta):
    """The delta-method standard error of mean + beta/2 var, as the former
    per-control Monte Carlo evaluator computed it."""
    n_mc = len(t)
    mean = float(np.mean(t))
    var = float(np.var(t, ddof=1))
    centered = t - mean
    var_of_mean = var / n_mc
    var_of_var = max(float(np.mean(centered**4)) - var**2, 0.0) / n_mc
    cov_mv = float(np.mean(centered**3)) / n_mc
    return np.sqrt(
        max(var_of_mean + 0.25 * beta**2 * var_of_var + beta * cov_mv, 0.0)
    )


def test_risk_measure_matches_the_standard_error_formula(setup):
    _, problem, gf = setup
    zs = [np.full(20, 4.0), np.linspace(0.0, 5.0, 20)]
    risk = evaluate_true_risk(
        problem, gf, np.column_stack(zs), 50, seed=2, with_surrogates=False
    )
    betas = np.array([0.5, 0.01])
    values, errors = risk.risk_measure(betas)
    for j, beta in enumerate(betas):
        t = risk.samples[:, j]
        value = np.mean(t) + 0.5 * beta * np.var(t, ddof=1)
        np.testing.assert_allclose(values[j], value, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            errors[j], old_standard_error(t, beta), rtol=1e-12, atol=0.0
        )
    # a scalar weight applies to every column; one control gives floats
    np.testing.assert_array_equal(risk.risk_measure(0.5)[1][0], errors[0])
    one = evaluate_true_risk(problem, gf, zs[1], 50, seed=2, with_surrogates=False)
    np.testing.assert_allclose(
        one.risk_measure(0.01)[1], old_standard_error(one.samples, 0.01),
        rtol=1e-12, atol=0.0,
    )


def test_linear_surrogate_optimum_weakly_worse(setup):
    # dropping the Hessian terms (n_tr = 0) gives the linear-expansion
    # objective; its optimum carries at least as much risk as the quadratic
    # one, up to Monte Carlo error
    _, problem, gf = setup
    z0 = np.full(20, 4.0)
    sched = (0.0, 1.0)
    lin_cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=0, beta_schedule=sched,
                        max_iter=50, seed=0)
    quad_cfg = OuuConfig(beta=1.0, gamma=1e-5, n_tr=8, beta_schedule=sched,
                         max_iter=50, seed=0)
    z_lin = optimize(problem, gf, lin_cfg, z0=z0).z
    z_quad = optimize(problem, gf, quad_cfg, z0=z0).z
    r_lin = evaluate_true_risk(problem, gf, z_lin, 1500, seed=21,
                               with_surrogates=False)
    r_quad = evaluate_true_risk(problem, gf, z_quad, 1500, seed=21,
                                with_surrogates=False)
    lin_risk = r_lin.mean + r_lin.variance
    quad_risk = r_quad.mean + r_quad.variance
    noise = 5.0 * (r_lin.samples.std() + r_quad.samples.std()) / np.sqrt(1500)
    assert lin_risk >= quad_risk - noise


def test_saa_optima_approach_a_limit(setup):
    # with growing sample counts the SAA optima stabilize: successive true
    # objective gaps shrink within Monte Carlo noise
    _, problem, gf = setup
    beta = 0.5
    controls = []
    cfg = OuuConfig(beta=beta, gamma=1e-5, n_tr=2,
                    beta_schedule=(0.0, beta), max_iter=40, seed=0)
    for n_mc in (2, 8, 32):
        saa = SaaObjective(problem, gf, n_mc, beta, cfg.gamma, seed=cfg.seed)
        controls.append(
            continuation(saa, cfg, np.full(20, cfg.z0), [cfg.beta_schedule])[0].z)
    risk = evaluate_true_risk(
        problem, gf, np.column_stack(controls), 1500, seed=33,
        with_surrogates=False,
    )
    values, errors = risk.risk_measure(beta)
    values = values + control_cost(controls, 1e-5)
    noise = 3.0 * errors.max()
    assert abs(values[2] - values[1]) <= abs(values[1] - values[0]) + noise
    assert values[1] <= values[0] + noise
    assert values[2] <= values[0] + noise


def test_saa_continuation_runs_and_descends(setup):
    _, problem, gf = setup
    cfg = OuuConfig(
        beta=0.5, gamma=1e-5, n_tr=2, beta_schedule=(0.0, 0.5),
        max_iter=15, seed=0,
    )
    saa = SaaObjective(problem, gf, 4, cfg.beta, cfg.gamma, seed=cfg.seed)
    res = continuation(saa, cfg, np.full(20, cfg.z0), [cfg.beta_schedule])[0]
    for leg in res.legs:
        values = [row.value for row in leg.rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


SWEEP = [(0.0, 0.5), (0.0, 0.1), (0.0,)]


def sweep_objective(problem, gf, kind):
    """A fresh objective of either type and the settings of its sweep."""
    cfg = OuuConfig(beta=0.5, gamma=1e-5, n_tr=3, beta_schedule=(0.0, 0.5),
                    max_iter=12, seed=1)
    if kind == "saa":
        return SaaObjective(problem, gf, 4, cfg.beta, cfg.gamma, seed=cfg.seed), cfg
    return RiskAverseObjective(problem, gf, cfg), cfg


@pytest.mark.parametrize("kind", ["quadratic", "saa"])
def test_continuation_sweep_equals_separate_runs(setup, kind):
    _, problem, gf = setup
    obj, cfg = sweep_objective(problem, gf, kind)
    z0 = np.full(20, cfg.z0)
    swept = continuation(obj, cfg, z0, SWEEP)
    assert len(swept) == len(SWEEP)
    for schedule, res in zip(SWEEP, swept):
        alone = continuation(sweep_objective(problem, gf, kind)[0], cfg, z0,
                             [schedule])[0]
        assert np.array_equal(res.z, alone.z)
        assert res.degraded == alone.degraded
        # a schedule's rows count its solves from its first leg's start on
        solves = [row.solves for leg in alone.legs for row in leg.rows]
        assert all(a < b for a, b in zip(solves, solves[1:]))
        assert [leg.beta for leg in res.legs] == list(schedule)
        assert len(res.legs) == len(alone.legs)
        for leg, ref in zip(res.legs, alone.legs):
            assert (leg.converged, leg.degraded) == (ref.converged, ref.degraded)
            assert np.array_equal(leg.z, ref.z)
            # every row, its cumulative solve count included, and the report
            assert leg.rows == ref.rows
            assert leg.report == ref.report


@pytest.mark.parametrize("kind", ["quadratic", "saa"])
def test_continuation_runs_a_shared_leg_once(setup, monkeypatch, kind):
    _, problem, gf = setup
    obj, cfg = sweep_objective(problem, gf, kind)
    calls = Counter()
    for name in ("evaluate", "gradient"):
        method = getattr(type(obj), name)
        monkeypatch.setattr(
            type(obj), name,
            lambda o, arg, _m=method, _n=name: calls.update([(_n, o.beta)])
            or _m(o, arg),
        )
    z0 = np.full(20, cfg.z0)
    continuation(obj, cfg, z0, SWEEP)
    swept, calls = calls, Counter()
    for schedule in SWEEP:
        continuation(obj, cfg, z0, [schedule])
    for name in ("evaluate", "gradient"):
        assert swept[name, 0.0] > 0
        assert calls[name, 0.0] == len(SWEEP) * swept[name, 0.0]
        for beta in (0.5, 0.1):
            assert calls[name, beta] == swept[name, beta] > 0


def test_empty_compare_betas_builds_no_objective(tmp_path, monkeypatch):
    built, factorized = [], []
    for cls in (RiskAverseObjective, SaaObjective):
        monkeypatch.setattr(
            cls, "__init__",
            lambda self, *a, _init=cls.__init__, **k: built.append(self)
            or _init(self, *a, **k),
        )
    solver_for = PoissonFlowProblem.solver_for
    monkeypatch.setattr(PoissonFlowProblem, "solver_for",
                        lambda pr, m: factorized.append(m) or solver_for(pr, m))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "mesh": {"nx": 8, "ny": 4}, "wells": {"sigma": 0.15},
        "experiment": {"compare_betas": []},
    }))
    out = tmp_path / "out"
    assert cli_main(["--config", str(config), "--out", str(out), "compare-mc"]) == 0
    assert built == [] and factorized == []
    assert (out / "compare_mc.csv").read_text().count("\n") == 1


def per_probe_reference(obj, z):
    """The objective and gradient with one incremental pair per probe,
    written from the matrix-free fem kernels; returns (report terms, grad)."""
    pr, gf, mesh, em = obj.problem, obj.gf, obj.problem.mesh, obj.problem.em_gauss
    solve = pr.anchor_solver.solve
    K = lambda coef, v: weighted_stiffness_apply(mesh, coef, v)

    def cov(load):
        return gf.scale * gf.solver_A.solve(pr.space.mass @ gf.solver_A.solve(load))

    def obs_load(v):
        return pr.space.mass @ (pr.obs_fields @ pr.observe(v))

    def incremental(cg, u, p):
        inc_u = solve(-K(cg, u))
        return inc_u, solve(-obs_load(inc_u) - K(cg, p))

    ws = pr.workspace(z)
    grad_load = grad_dot_load(mesh, em, ws.u, ws.p)
    c_grad = cov(grad_load)
    tr_hc = tr_hc_sq = 0.0
    b3 = -K(em * mesh.interp_gauss(obj.beta * c_grad), ws.u)
    b4 = -pr.space.mass @ (pr.obs_fields @ ws.misfit)
    b4 = b4 - K(em * mesh.interp_gauss(obj.beta * c_grad), ws.p)
    for zeta in obj.probes:
        cg = em * mesh.interp_gauss(zeta)
        inc_u, inc_p = incremental(cg, ws.u, ws.p)
        psi = (grad_dot_load(mesh, cg, ws.u, ws.p)
               + grad_dot_load(mesh, em, inc_u, ws.p)
               + grad_dot_load(mesh, em, ws.u, inc_p))
        c_psi = cov(psi)
        tr_hc += obj.weight * float(zeta @ psi)
        tr_hc_sq += obj.weight * float(psi @ c_psi)
        mix_g = em * mesh.interp_gauss(0.5 * obj.weight * (zeta + obj.beta * c_psi))
        adj_inc_p, adj_inc_u = incremental(mix_g, ws.u, ws.p)
        zeta_g = mesh.interp_gauss(zeta)
        b3 -= K(mix_g * zeta_g, ws.u) + K(mix_g, inc_u) + K(em * zeta_g, adj_inc_p)
        b4 -= K(mix_g * zeta_g, ws.p) + K(mix_g, inc_p) + K(em * zeta_g, adj_inc_u)
    adj_p = solve(b3)
    adj_u = solve(b4 - obs_load(adj_p))
    grad = obj.cfg.gamma * z - pr.source_fields.T @ (pr.space.mass @ adj_u)
    terms = {"tr_hc": tr_hc, "tr_hc_sq": tr_hc_sq,
             "grad_term": float(grad_load @ c_grad)}
    return terms, grad


@pytest.mark.parametrize("n_tr,mode", [(0, "randomized"), (5, "randomized"),
                                       (3, "eigenbasis")])
def test_block_kernel_matches_per_probe_reference(setup, n_tr, mode):
    _, problem, gf = setup
    cfg = OuuConfig(beta=0.7, gamma=1e-5, n_tr=n_tr, trace_mode=mode,
                    beta_schedule=(0.7,), seed=2)
    z = np.linspace(2.0, 6.0, 20)
    obj = RiskAverseObjective(problem, gf, cfg, nominal_control=z)
    report, state = obj.evaluate(z)
    grad = obj.gradient(state)
    terms, ref_grad = per_probe_reference(obj, z)
    for name, ref in terms.items():
        assert getattr(report, name) == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert np.linalg.norm(grad - ref_grad) <= 1e-12 * np.linalg.norm(ref_grad)
    assert report.pde_solves == 4 + 4 * n_tr

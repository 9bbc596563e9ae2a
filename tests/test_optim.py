from types import SimpleNamespace

import numpy as np

from riskquad.optim import minimize_box_lbfgs


def protocol(value, grad):
    """``evaluate``/``gradient`` of the objective protocol from plain
    functions of z: the report holds the value, the state is the point."""

    def evaluate(z):
        return SimpleNamespace(value=value(z)), z

    return evaluate, grad


def quadratic(target):
    return protocol(lambda z: 0.5 * float((z - target) @ (z - target)),
                    lambda z: z - target)


def test_quadratic_interior_minimum():
    target = np.array([0.3, 0.7, 0.5, 0.9])
    evaluate, gradient = quadratic(target)
    res = minimize_box_lbfgs(
        evaluate, gradient, np.zeros(4), 0.0, 1.0, rel_tol=1e-12, max_iter=30
    )
    assert res.converged
    assert len(res.rows) - 1 <= 30
    assert np.abs(res.z - target).max() <= 1e-6


def test_bound_active_minimum():
    target = np.array([-2.0, 0.5, 3.0])
    evaluate, gradient = quadratic(target)
    res = minimize_box_lbfgs(
        evaluate, gradient, np.full(3, 0.5), 0.0, 1.0, rel_tol=1e-10, max_iter=60
    )
    assert np.allclose(res.z, [0.0, 0.5, 1.0], atol=1e-8)
    assert res.rows[-1].active_bounds == 2


def test_iterates_stay_in_box_and_descend():
    rng = np.random.default_rng(0)
    Q = rng.standard_normal((6, 6))
    Q = Q @ Q.T + 6 * np.eye(6)
    b = rng.standard_normal(6)

    evaluate, gradient = protocol(lambda z: 0.5 * float(z @ (Q @ z)) - float(b @ z),
                                 lambda z: Q @ z - b)

    res = minimize_box_lbfgs(
        evaluate, gradient, np.full(6, 0.5), 0.0, 1.0, rel_tol=1e-8, max_iter=100
    )
    values = [row.value for row in res.rows]
    assert all(y <= x + 1e-14 for x, y in zip(values, values[1:]))
    assert res.converged


def test_gradient_norm_reduction_target():
    target = np.full(5, 0.4)
    evaluate, gradient = quadratic(target)
    res = minimize_box_lbfgs(
        evaluate, gradient, np.ones(5), 0.0, 1.0, rel_tol=5e-4, max_iter=200
    )
    assert res.converged
    assert res.rows[-1].grad_norm <= 5e-4 * res.rows[0].grad_norm


def test_deterministic():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((8, 5))

    evaluate, gradient = protocol(lambda z: 0.5 * float((A @ z - 1.0) @ (A @ z - 1.0)),
                                 lambda z: A.T @ (A @ z - 1.0))

    r1 = minimize_box_lbfgs(evaluate, gradient, np.zeros(5), -2.0, 2.0)
    r2 = minimize_box_lbfgs(evaluate, gradient, np.zeros(5), -2.0, 2.0)
    assert np.array_equal(r1.z, r2.z)
    assert [row.value for row in r1.rows] == [row.value for row in r2.rows]


def test_inconsistent_gradient_degrades_not_crashes():
    # a gradient that lies about the descent direction stalls the line
    # search; the solver flags it and returns the best iterate
    evaluate, gradient = protocol(lambda z: 1.0, np.ones_like)

    res = minimize_box_lbfgs(evaluate, gradient, np.full(3, 0.5), 0.0, 1.0)
    assert res.degraded
    assert not res.converged
    assert np.allclose(res.z, 0.5)


def test_solve_count_recorded():
    counter = {"n": 0}

    def value(z):
        counter["n"] += 1
        return 0.5 * float((z - 0.25) @ (z - 0.25))

    evaluate, gradient = protocol(value, lambda z: z - 0.25)

    res = minimize_box_lbfgs(
        evaluate, gradient, np.zeros(2), 0.0, 1.0,
        solve_count=lambda: counter["n"],
    )
    assert res.rows[-1].solves == counter["n"]


def test_report_is_the_accepted_iterates_after_rejected_trials():
    # |z|_1 from 0.5 with the gradient of its z > 0 branch: the line search
    # accepts z = 0, then rejects every trial from there and degrades, so
    # the last evaluation is a rejected trial; the result carries the report
    # of the accepted iterate, on whose state the gradient ran last
    evaluated, graded = [], []

    def evaluate(z):
        report = SimpleNamespace(value=float(np.sum(np.abs(z))))
        evaluated.append(report)
        return report, report

    def gradient(report):
        graded.append(report)
        return np.ones(3)

    res = minimize_box_lbfgs(evaluate, gradient, np.full(3, 0.5), -1.0, 1.0)
    assert res.degraded
    assert len(evaluated) > len(res.rows)
    assert evaluated[-1].value != res.report.value
    assert res.report.value == res.rows[-1].value
    assert graded[-1] is res.report

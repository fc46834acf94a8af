import numpy as np
import pytest

from lem.errors import LineSearchFailure
from lem.optim import WOLFE_C1, OptimProblem, minimize_bfgs


def quadratic_problem(center):
    center = np.asarray(center, dtype=float)

    def f(x):
        return 0.5 * float((x - center) @ (x - center))

    def g(x):
        return x - center

    def h(x):
        return np.eye(center.size)

    return OptimProblem(dimension=center.size, objective=f, gradient=g, hessian=h)


def rosenbrock_problem():
    def f(v):
        x, y = v
        return (1 - x) ** 2 + 100 * (y - x * x) ** 2

    def g(v):
        x, y = v
        return np.array([
            -2 * (1 - x) - 400 * x * (y - x * x),
            200 * (y - x * x),
        ])

    def h(v):
        x, y = v
        return np.array([
            [2 - 400 * (y - 3 * x * x), -400 * x],
            [-400 * x, 200.0],
        ])

    return OptimProblem(dimension=2, objective=f, gradient=g, hessian=h)


def test_quadratic_converges_fast():
    center = np.array([3.0, -1.0, 0.5, 2.0])
    res = minimize_bfgs(quadratic_problem(center), np.array([10.0, 4.0, -3.0, 0.0]), tol=1e-10)
    assert res.converged
    assert res.iterations <= 3
    np.testing.assert_allclose(res.argmin, center, atol=1e-10)


def test_rosenbrock_classical_benchmark():
    res = minimize_bfgs(rosenbrock_problem(), np.array([-1.2, 1.0]), tol=1e-8, max_iter=500)
    assert res.converged
    np.testing.assert_allclose(res.argmin, [1.0, 1.0], atol=1e-6)
    assert res.objective_value < 1e-12


def test_rosenbrock_agrees_with_scipy():
    from scipy.optimize import minimize as sp_minimize

    prob = rosenbrock_problem()
    ours = minimize_bfgs(prob, np.array([-1.2, 1.0]), tol=1e-8)
    ref = sp_minimize(prob.objective, np.array([-1.2, 1.0]), jac=prob.gradient, method="BFGS")
    np.testing.assert_allclose(ours.argmin, ref.x, atol=1e-5)


def test_start_at_minimum_zero_iterations():
    center = np.array([1.0, 2.0])
    res = minimize_bfgs(quadratic_problem(center), center.copy(), tol=1e-8)
    assert res.converged
    assert res.iterations == 0
    assert res.gradient_inf_norm == 0.0


def test_armijo_holds_on_every_accepted_step():
    records = []
    res = minimize_bfgs(rosenbrock_problem(), np.array([-1.2, 1.0]), tol=1e-8,
                        callback=records.append)
    assert res.converged
    assert records
    for rec in records:
        assert rec["f"] <= rec["f_prev"] + WOLFE_C1 * rec["alpha"] * rec["dphi0"] + 1e-12
    # monotone nonincreasing objective across accepted iterates
    objectives = [records[0]["f_prev"]] + [r["f"] for r in records]
    assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))


def test_callback_fires_on_near_root_full_step():
    # from 1e-3 off the minimum of 1e8 + |x - c|^2 / 2 the predicted decrease,
    # 5e-7, is below the objective's rounding: the full step is taken untested
    center = np.array([3.0, -1.0])
    base = quadratic_problem(center)
    prob = OptimProblem(2, lambda x: 1e8 + base.objective(x), base.gradient, base.hessian)
    records = []
    res = minimize_bfgs(prob, center + 1e-3, tol=1e-10, callback=records.append)
    assert res.converged
    assert res.iterations == len(records) == 1
    assert records[0]["alpha"] == 1.0
    np.testing.assert_allclose(res.argmin, center, atol=1e-12)


def test_near_root_step_that_raises_the_gradient_stops_unconverged():
    # a Hessian ten times too small makes the full step overshoot ninefold
    center = np.array([3.0, -1.0])
    base = quadratic_problem(center)
    prob = OptimProblem(2, lambda x: 1e8 + base.objective(x), base.gradient,
                        lambda x: 0.1 * np.eye(2))
    start = center + 1e-4
    res = minimize_bfgs(prob, start, tol=1e-10)
    assert not res.converged
    assert res.iterations == 0
    np.testing.assert_array_equal(res.argmin, start)


def test_levenberg_shift_descends_where_hessian_is_indefinite():
    prob = rosenbrock_problem()
    start = np.array([0.0, 1.0])
    np.testing.assert_array_equal(prob.hessian(start), np.diag([-398.0, 200.0]))
    records = []
    res = minimize_bfgs(prob, start, tol=1e-8, callback=records.append)
    assert records[0]["dphi0"] < 0
    assert records[0]["f"] < records[0]["f_prev"]
    assert res.converged
    np.testing.assert_allclose(res.argmin, [1.0, 1.0], atol=1e-6)


def test_levenberg_shift_turns_an_ascent_direction_into_descent():
    # f = x^2/2 - y^2/2 + y^4/4 near its saddle: the unshifted Newton step
    # points uphill, toward the saddle at the origin
    def f(v):
        return 0.5 * v[0] ** 2 - 0.5 * v[1] ** 2 + 0.25 * v[1] ** 4

    def g(v):
        return np.array([v[0], v[1] ** 3 - v[1]])

    def h(v):
        return np.diag([1.0, 3 * v[1] ** 2 - 1])

    start = np.array([0.01, 0.1])
    assert g(start) @ np.linalg.solve(h(start), g(start)) < 0
    records = []
    res = minimize_bfgs(OptimProblem(2, f, g, h), start, tol=1e-10, callback=records.append)
    assert records[0]["dphi0"] < 0
    assert res.converged
    np.testing.assert_allclose(res.argmin, [0.0, 1.0], atol=1e-9)


def test_max_iter_returns_best_point_unconverged():
    res = minimize_bfgs(rosenbrock_problem(), np.array([-1.2, 1.0]), tol=1e-12, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert np.isfinite(res.objective_value)


def test_line_search_failure_carries_best_point():
    # a linear objective is unbounded below: the curvature condition never
    # holds, widening exhausts, and the failure carries the best point
    def f(v):
        return float(v[0])

    def g(v):
        return np.array([1.0])

    def h(v):
        return np.zeros((1, 1))

    with pytest.raises(LineSearchFailure) as excinfo:
        minimize_bfgs(OptimProblem(1, f, g, h), np.array([0.0]), tol=1e-12)
    best = excinfo.value.result
    assert best is not None
    assert best.objective_value == 0.0
    assert not best.converged


def test_nonfinite_start_rejected():
    def f(v):
        return float("inf")

    def g(v):
        return np.zeros(1)

    def h(v):
        return np.zeros((1, 1))

    with pytest.raises(ValueError):
        minimize_bfgs(OptimProblem(1, f, g, h), np.array([0.0]), tol=1e-8)


def test_dimension_mismatch_rejected():
    prob = quadratic_problem(np.zeros(3))
    with pytest.raises(ValueError):
        minimize_bfgs(prob, np.zeros(2), tol=1e-8)

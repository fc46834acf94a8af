import numpy as np
import pytest

from lem.optim import ARMIJO_C1, minimize_bfgs


def joint(f, g):
    """The solver's objective: value, gradient and state (here the point
    itself, so Hessians written as functions of x serve as ``hess``)."""
    return lambda x: (f(x), g(x), x)


def quadratic_problem(center):
    center = np.asarray(center, dtype=float)

    def f(x):
        return 0.5 * float((x - center) @ (x - center))

    def g(x):
        return x - center

    def h(x):
        return np.eye(center.size)

    return f, g, h


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

    return f, g, h


def test_quadratic_converges_fast():
    center = np.array([3.0, -1.0, 0.5, 2.0])
    f, g, h = quadratic_problem(center)
    res = minimize_bfgs(joint(f, g), h, np.array([10.0, 4.0, -3.0, 0.0]), tol=1e-10)
    assert res.converged
    assert res.iterations <= 3
    np.testing.assert_allclose(res.argmin, center, atol=1e-10)


def test_rosenbrock_classical_benchmark():
    f, g, h = rosenbrock_problem()
    res = minimize_bfgs(joint(f, g), h, np.array([-1.2, 1.0]), tol=1e-8, max_iter=500)
    assert res.converged
    np.testing.assert_allclose(res.argmin, [1.0, 1.0], atol=1e-6)
    assert res.objective_value < 1e-12


def test_rosenbrock_agrees_with_scipy():
    from scipy.optimize import minimize as sp_minimize

    f, g, h = rosenbrock_problem()
    ours = minimize_bfgs(joint(f, g), h, np.array([-1.2, 1.0]), tol=1e-8)
    ref = sp_minimize(f, np.array([-1.2, 1.0]), jac=g, method="BFGS")
    np.testing.assert_allclose(ours.argmin, ref.x, atol=1e-5)


def test_start_at_minimum_zero_iterations():
    center = np.array([1.0, 2.0])
    f, g, h = quadratic_problem(center)
    res = minimize_bfgs(joint(f, g), h, center.copy(), tol=1e-8)
    assert res.converged
    assert res.iterations == 0
    assert res.gradient_inf_norm == 0.0


def test_armijo_holds_on_every_accepted_step():
    f, g, h = rosenbrock_problem()
    records = []
    res = minimize_bfgs(joint(f, g), h, np.array([-1.2, 1.0]), tol=1e-8,
                        callback=records.append)
    assert res.converged
    assert records
    for rec in records:
        assert rec["f"] <= rec["f_prev"] + ARMIJO_C1 * rec["alpha"] * rec["dphi0"] + 1e-12
    # monotone nonincreasing objective across accepted iterates
    objectives = [records[0]["f_prev"]] + [r["f"] for r in records]
    assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))


def test_callback_fires_on_near_root_full_step():
    # from 1e-3 off the minimum of 1e8 + |x - c|^2 / 2 the predicted decrease,
    # 5e-7, is below the objective's rounding: the full step is taken untested
    center = np.array([3.0, -1.0])
    f, g, h = quadratic_problem(center)
    records = []
    res = minimize_bfgs(joint(lambda x: 1e8 + f(x), g), h, center + 1e-3, tol=1e-10,
                        callback=records.append)
    assert res.converged
    assert res.iterations == len(records) == 1
    assert records[0]["alpha"] == 1.0
    np.testing.assert_allclose(res.argmin, center, atol=1e-12)


def test_near_root_step_that_raises_the_gradient_stops_unconverged():
    # a Hessian ten times too small makes the full step overshoot ninefold
    center = np.array([3.0, -1.0])
    f, g, _ = quadratic_problem(center)
    start = center + 1e-4
    res = minimize_bfgs(joint(lambda x: 1e8 + f(x), g), lambda x: 0.1 * np.eye(2), start,
                        tol=1e-10)
    assert not res.converged
    assert res.iterations == 0
    np.testing.assert_array_equal(res.argmin, start)


def test_levenberg_shift_descends_where_hessian_is_indefinite():
    f, g, h = rosenbrock_problem()
    start = np.array([0.0, 1.0])
    np.testing.assert_array_equal(h(start), np.diag([-398.0, 200.0]))
    records = []
    res = minimize_bfgs(joint(f, g), h, start, tol=1e-8, callback=records.append)
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
    res = minimize_bfgs(joint(f, g), h, start, tol=1e-10, callback=records.append)
    assert records[0]["dphi0"] < 0
    assert res.converged
    np.testing.assert_allclose(res.argmin, [0.0, 1.0], atol=1e-9)


def test_accepted_step_that_does_not_lower_the_objective_stops_unconverged():
    # an objective flat to rounding with a gradient that is not zero: at 1e13
    # the Armijo decrease of 1e-4 rounds away, so the full step is accepted
    # and leaves f unchanged, and the solver stops instead of stepping on
    records = []
    res = minimize_bfgs(lambda x: (1e13, np.array([-1.0]), x), lambda x: np.eye(1),
                        np.array([0.0]), tol=1e-8, callback=records.append)
    assert not res.converged
    assert (res.iterations, res.n_evals, records) == (0, 2, [])
    np.testing.assert_array_equal(res.argmin, [0.0])


def test_max_iter_returns_best_point_unconverged():
    f, g, h = rosenbrock_problem()
    res = minimize_bfgs(joint(f, g), h, np.array([-1.2, 1.0]), tol=1e-12, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert np.isfinite(res.objective_value)


def test_backtracking_backs_off_where_the_objective_is_infinite():
    # a Hessian ten times too small sends the full step to x = 2, past the
    # wall at 0.3 where the objective is +inf; the search halves back inside
    def f(v):
        return 0.5 * (v[0] - 0.2) ** 2 if v[0] < 0.3 else float("inf")

    def g(v):
        return np.array([v[0] - 0.2])

    def h(v):
        return np.array([[0.1]])

    records = []
    res = minimize_bfgs(joint(f, g), h, np.array([0.0]), tol=1e-10,
                        callback=records.append)
    first = records[0]
    assert first["alpha"] < 1.0
    assert first["x"][0] < 0.3
    assert np.isfinite(first["f"])
    assert first["f"] <= first["f_prev"] + ARMIJO_C1 * first["alpha"] * first["dphi0"]
    assert res.converged
    np.testing.assert_allclose(res.argmin, [0.2], atol=1e-10)


def test_line_search_failure_carries_best_point():
    # the gradient disagrees in sign with the objective, so every step along
    # the "descent" direction goes uphill: sufficient decrease never holds,
    # the trials run out, and the solver returns the best point unconverged
    def f(v):
        return float(v[0])

    def g(v):
        return np.array([-1.0])

    def h(v):
        return np.eye(1)

    best = minimize_bfgs(joint(f, g), h, np.array([0.0]), tol=1e-12)
    assert not best.converged
    assert best.objective_value == 0.0
    assert best.iterations == 0
    assert best.n_evals == 41  # the start and the 40 rejected trials


def test_nonfinite_start_rejected():
    def f(v):
        return float("inf")

    def g(v):
        return np.zeros(1)

    def h(v):
        return np.zeros((1, 1))

    with pytest.raises(ValueError):
        minimize_bfgs(joint(f, g), h, np.array([0.0]), tol=1e-8)


def test_dimension_mismatch_rejected():
    # the objective is defined at the start, but its gradient has three entries
    def fun(x):
        return 0.0, np.zeros(3), x

    with pytest.raises(ValueError):
        minimize_bfgs(fun, lambda x: np.eye(3), np.zeros(2), tol=1e-8)


def test_each_point_and_each_iteration_evaluated_once():
    f, g, h = rosenbrock_problem()
    points, hessians = [], []

    def fun(x):
        points.append(x.copy())
        return f(x), g(x), x

    def hess(state):
        hessians.append(state.copy())
        return h(state)

    res = minimize_bfgs(fun, hess, np.array([-1.2, 1.0]), tol=1e-8)
    assert res.converged
    assert len(points) == res.n_evals
    assert len({x.tobytes() for x in points}) == len(points)
    assert len(hessians) == res.iterations
    # each Hessian comes from the state of an evaluated point, not a new evaluation
    assert {x.tobytes() for x in hessians} <= {x.tobytes() for x in points}

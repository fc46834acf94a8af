"""Damped Newton minimizer with a strong-Wolfe line search.

Written for smooth likelihood surfaces of modest dimension (<= ~25) whose
Hessian is available in closed form.  Each iteration solves H p = -g by a
Cholesky factorization of H scaled to unit diagonal; when H is not positive
definite, a Levenberg shift mu * I is added, growing geometrically until the
factorization succeeds (modified Newton; Nocedal & Wright, *Numerical
Optimization*, 2nd ed., section 3.4).  The step along p is found by the
strong-Wolfe line search, starting from the full Newton step.

Near the minimum the predicted decrease -g'p / 2 can fall below the rounding
of the objective itself, where no line search can tell better from worse.
There the full step is taken and kept only if it lowers the gradient's
infinity norm; otherwise the solver stops unconverged at the best point.

The entry point keeps the name ``minimize_bfgs`` from the quasi-Newton solver
it replaced, because the benchmark traces it under that name.

One optimizer invocation is stateless with respect to any other; instances
may run concurrently (one per simulation replicate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import LineSearchFailure

WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
# first Levenberg shift of the unit-diagonal Hessian, and its growth factor
SHIFT_START = 1e-3
SHIFT_GROWTH = 10.0
# a predicted decrease below this many ulps of the objective is rounding
ROUNDING_ULPS = 64


@dataclass
class OptimProblem:
    """Objective, gradient and Hessian over R^dimension."""

    dimension: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


@dataclass
class OptimResult:
    argmin: np.ndarray
    objective_value: float
    gradient_inf_norm: float
    iterations: int
    converged: bool
    n_evals: int = 0


def _line_search(phi, dphi, f0, g0, max_widen=20, max_zoom=40):
    """Strong-Wolfe step along a descent direction.

    ``phi(a)`` returns the objective at step ``a`` (may be +inf past the
    domain of finiteness), ``dphi(a)`` its directional derivative.  Returns
    the accepted step.  Raises LineSearchFailure when no acceptable step is
    found within the iteration caps.
    """

    def zoom(lo, f_lo, d_lo, hi, f_hi):
        for _ in range(max_zoom):
            # quadratic interpolation on (lo, hi), safeguarded toward bisection
            denom = f_hi - f_lo - d_lo * (hi - lo)
            if denom > 0:
                a = lo - 0.5 * d_lo * (hi - lo) ** 2 / denom
            else:
                a = 0.5 * (lo + hi)
            span = abs(hi - lo)
            low, high = min(lo, hi), max(lo, hi)
            if not (low + 0.1 * span <= a <= high - 0.1 * span):
                a = 0.5 * (lo + hi)
            fa = phi(a)
            if not np.isfinite(fa) or fa > f0 + WOLFE_C1 * a * g0 or fa >= f_lo:
                hi, f_hi = a, fa
            else:
                da = dphi(a)
                if abs(da) <= -WOLFE_C2 * g0:
                    return a, fa
                if da * (hi - lo) >= 0:
                    hi, f_hi = lo, f_lo
                lo, f_lo, d_lo = a, fa, da
            if abs(hi - lo) < 1e-16 * max(1.0, abs(lo)):
                break
        raise LineSearchFailure("zoom phase exhausted without a Wolfe point")

    a_prev, f_prev, d_prev = 0.0, f0, g0
    a = 1.0
    for it in range(max_widen):
        fa = phi(a)
        if not np.isfinite(fa) or fa > f0 + WOLFE_C1 * a * g0 or (it > 0 and fa >= f_prev):
            return zoom(a_prev, f_prev, d_prev, a, fa)
        da = dphi(a)
        if abs(da) <= -WOLFE_C2 * g0:
            return a, fa
        if da >= 0:
            return zoom(a, fa, da, a_prev, f_prev)
        a_prev, f_prev, d_prev = a, fa, da
        a *= 2.0
    raise LineSearchFailure("step widening exhausted without a Wolfe point")


def _newton_direction(hess, grad):
    """Solve (H + mu D) p = -g, D = diag|H|, for the smallest shift mu in
    {0, SHIFT_START * SHIFT_GROWTH**k} that makes the matrix positive definite.

    H is scaled to unit diagonal first (a zero diagonal entry keeps scale 1),
    so mu does not depend on the parameters' units.  The loop ends because
    the scaled H is finite (checked): once mu exceeds its largest absolute
    row sum, the shifted matrix is diagonally dominant.
    """
    h = np.asarray(hess, dtype=float)
    scale = np.sqrt(np.abs(np.diag(h)))
    scale[scale == 0] = 1.0
    scaled = h / np.outer(scale, scale)
    if not np.isfinite(scaled).all():
        raise ValueError("Hessian is not finite")
    eye = np.eye(h.shape[0])
    mu = 0.0
    while True:
        try:
            low = np.linalg.cholesky(scaled + mu * eye)
            break
        except np.linalg.LinAlgError:
            mu = SHIFT_GROWTH * mu if mu else SHIFT_START
    half = np.linalg.solve(low, grad / scale)
    return -np.linalg.solve(low.T, half) / scale


def minimize_bfgs(problem, start, tol=1e-8, max_iter=500, callback=None):
    """Minimize an OptimProblem from ``start`` by damped Newton.

    Convergence is declared when the gradient infinity norm drops to ``tol``.
    Hitting ``max_iter``, or a full step near the minimum that does not lower
    the gradient norm (module docstring), returns the best point with
    ``converged=False``.  A failed line search raises
    :class:`LineSearchFailure` with the best point so far attached as
    ``exc.result``.

    ``callback``, if given, is invoked after each accepted step with a dict
    holding ``k, x, f, f_prev, alpha, dphi0, gnorm`` (used by tests to assert
    the Armijo decrease condition on every accepted step).
    """
    x = np.asarray(start, dtype=float).copy()
    if x.shape != (problem.dimension,):
        raise ValueError(f"start has shape {x.shape}, problem dimension is {problem.dimension}")
    if tol <= 0:
        raise ValueError("tol must be positive")

    evals = 0

    def func(v):
        nonlocal evals
        evals += 1
        return float(problem.objective(v))

    def grad(v):
        return np.asarray(problem.gradient(v), dtype=float)

    f = func(x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the initial point")
    g = grad(x)

    for k in range(max_iter):
        gnorm = float(np.abs(g).max())
        if gnorm <= tol:
            return OptimResult(x, f, gnorm, k, True, evals)

        p = _newton_direction(problem.hessian(x), g)
        dphi0 = float(g @ p)

        if -0.5 * dphi0 <= ROUNDING_ULPS * np.finfo(float).eps * (1.0 + abs(f)):
            # near the root: take the full step if it brings the gradient down
            alpha, x_new = 1.0, x + p
            f_new = func(x_new)
            g_new = grad(x_new)
            if not (np.isfinite(f_new) and float(np.abs(g_new).max()) < gnorm):
                return OptimResult(x, f, gnorm, k, False, evals)
        else:
            g_trial = {}

            def phi(a):
                return func(x + a * p)

            def dphi(a):
                g_trial[a] = grad(x + a * p)
                return float(g_trial[a] @ p)

            try:
                alpha, f_new = _line_search(phi, dphi, f, dphi0)
            except LineSearchFailure as exc:
                exc.result = OptimResult(x, f, gnorm, k, False, evals)
                raise
            # the line search evaluates the slope at every step it accepts
            x_new, g_new = x + alpha * p, g_trial[alpha]

        if callback is not None:
            callback({"k": k, "x": x_new.copy(), "f": f_new, "f_prev": f, "alpha": alpha,
                      "dphi0": dphi0, "gnorm": float(np.abs(g_new).max())})

        x, f, g = x_new, f_new, g_new

    gnorm = float(np.abs(g).max())
    return OptimResult(x, f, gnorm, max_iter, gnorm <= tol, evals)

"""Damped Newton minimizer with Armijo backtracking.

Written for smooth likelihood surfaces of modest dimension (<= ~25) whose
Hessian is available in closed form.  Each iteration solves H p = -g by a
Cholesky factorization of H scaled to unit diagonal; when H is not positive
definite, a Levenberg shift mu * I is added, growing geometrically until the
factorization succeeds (modified Newton; Nocedal & Wright, *Numerical
Optimization*, 2nd ed., section 3.4).  The step along p backtracks from the
full Newton step to the first with sufficient (Armijo) decrease.  There is no
curvature (Wolfe) condition: it exists to keep a quasi-Newton update positive
definite, and this solver computes each Hessian afresh.
The objective returns its value, gradient and state together, so the
accepted step, the line search's last trial, comes with its gradient, and
its state gives the next Hessian.

Near the minimum the predicted decrease -g'p / 2 can fall below the rounding
of the objective itself, where no line search can tell better from worse.
There the full step is taken and kept only if it lowers the gradient's
infinity norm; otherwise the solver stops unconverged at the best point.
Elsewhere an accepted step that does not lower the objective (a step so short
that the objective rounds to its old value) stops it the same way, and so does
a line search that finds no sufficient decrease.

The entry point keeps the name ``minimize_bfgs`` from the quasi-Newton solver
it replaced, because the benchmark traces it under that name.

One optimizer invocation is stateless with respect to any other; instances
may run concurrently (one per simulation replicate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ARMIJO_C1 = 1e-4
# first Levenberg shift of the unit-diagonal Hessian, and its growth factor
SHIFT_START = 1e-3
SHIFT_GROWTH = 10.0
# a predicted decrease below this many ulps of the objective is rounding
ROUNDING_ULPS = 64


@dataclass
class OptimResult:
    argmin: np.ndarray
    objective_value: float
    gradient: np.ndarray
    iterations: int
    converged: bool
    n_evals: int = 0
    state: object = None  # what ``fun`` returned with the value at ``argmin``

    @property
    def gradient_inf_norm(self):
        return float(np.abs(self.gradient).max())


def _backtrack(phi, f0, d0, max_trials=40):
    """Armijo backtracking from the full step (Nocedal & Wright, Algorithm 3.1).

    ``phi(a)`` is the objective (+inf past its domain), its gradient and its
    state at step ``a``, and ``d0 < 0`` the objective's slope at 0.  A rejected step
    ``a`` is replaced by the minimizer of the quadratic through f0, d0 and the
    objective at ``a``, clipped to [a/10, a/2] (section 3.5), or by a/2 when
    that quadratic has no minimum.  Returns the accepted step and what ``phi``
    returned there, or None after ``max_trials`` rejected steps.
    """
    a = 1.0
    for _ in range(max_trials):
        point = phi(a)
        fa = point[0]
        if np.isfinite(fa) and fa <= f0 + ARMIJO_C1 * a * d0:
            return a, point
        curvature = fa - f0 - d0 * a
        if 0 < curvature < np.inf:
            a = min(max(-0.5 * d0 * a * a / curvature, 0.1 * a), 0.5 * a)
        else:
            a *= 0.5
    return None


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


def minimize_bfgs(fun, hess, start, tol=1e-8, max_iter=500, callback=None):
    """Minimize from ``start`` by damped Newton with Armijo backtracking (the
    name is kept from the BFGS solver this replaced).

    ``fun(x)`` returns the objective (+inf where undefined), its gradient and
    the point's state (any object), once per point tried (``n_evals``);
    ``hess(state)`` the Hessian at the accepted point whose evaluation gave
    ``state``, once per iteration.

    Convergence is declared when the gradient infinity norm drops to ``tol``.
    Hitting ``max_iter``, a full step near the minimum that does not lower
    the gradient norm, a line search that finds no sufficient decrease, or an
    accepted step elsewhere that does not lower the objective (module
    docstring), returns the best point with ``converged=False``.

    ``callback``, if given, is invoked after each accepted step with a dict
    holding ``k, x, f, f_prev, alpha, dphi0, gnorm`` (used by tests to assert
    the Armijo decrease condition on every accepted step).
    """
    x = np.asarray(start, dtype=float).copy()
    if tol <= 0:
        raise ValueError("tol must be positive")

    evals = 0

    def evaluate(v):
        nonlocal evals
        evals += 1
        f, g, state = fun(v)
        return float(f), np.asarray(g, dtype=float), state

    f, g, state = evaluate(x)
    if g.shape != x.shape:
        raise ValueError(f"gradient has shape {g.shape}, start has shape {x.shape}")
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the initial point")
    gnorm = float(np.abs(g).max())

    for k in range(max_iter):
        if gnorm <= tol:
            return OptimResult(x, f, g, k, True, evals, state)

        p = _newton_direction(hess(state), g)
        dphi0 = float(g @ p)
        near_root = -0.5 * dphi0 <= ROUNDING_ULPS * np.finfo(float).eps * (1.0 + abs(f))
        if near_root:
            step = 1.0, evaluate(x + p)
        else:
            step = _backtrack(lambda a: evaluate(x + a * p), f, dphi0)
            if step is None:
                return OptimResult(x, f, g, k, False, evals, state)
        alpha, (f_new, g_new, state_new) = step
        x_new = x + alpha * p
        gnorm_new = float(np.abs(g_new).max())
        # near the root the full step is kept only if it lowers the gradient,
        # elsewhere the accepted step only if it lowers the objective
        if not ((np.isfinite(f_new) and gnorm_new < gnorm) if near_root else f_new < f):
            return OptimResult(x, f, g, k, False, evals, state)

        if callback is not None:
            callback({"k": k, "x": x_new.copy(), "f": f_new, "f_prev": f, "alpha": alpha,
                      "dphi0": dphi0, "gnorm": gnorm_new})

        x, f, g, gnorm, state = x_new, f_new, g_new, gnorm_new, state_new

    return OptimResult(x, f, g, max_iter, gnorm <= tol, evals, state)

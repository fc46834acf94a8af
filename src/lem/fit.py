"""End-to-end fitting and inference.

Pipeline: one PreparedDesign of the rows, the outcome scaled by a power of
two (:mod:`lem.likelihood`), which every step reads in place of the
dataset's x, z and w; a start at the rho = 0 maximum (least squares and a
probit, on columns of its ``coords``) followed by Heckman's two-step
estimate, which falls back to the rho = 0 start when the probit's
generalized residual is collinear with the outcome design; damped Newton
solution of the pooled estimating equations, cluster-robust sandwich
covariance (subjects are the clusters), optional model-based covariance, and
linear inference: :func:`contrast` gives each row of weights its estimate,
robust SE, pointwise CI and p-value, over the trend block (a
natural-cubic-spline trend band) or the whole vector (the treatment-effect
curve w'eta), and :func:`wald` is its one-parameter case.

Each point the solver (:func:`lem.optim.minimize_bfgs`, a Newton method
whose older name the benchmark traces) tries costs one steering evaluation:
one RowState, a plain sum of its loglik and the pooled score as one
``einsum`` per coordinate group of its (n, 4) gradient, no score rows and no
exact sum.  An accepted point's state gives the Newton Hessian, summed
without pre-rounding (:func:`lem.numerics.gram`: a search direction needs no
exact sum).  At the solver's argmin the fit makes its one exact pooled
evaluation (:func:`lem.likelihood.pooled_negloglik_and_score`): its value and
score are what the fit reports and what the score-root decision reads, and
its state gives the bread, the analytic observed information summed exactly
by BLAS products of pre-rounded slices (:func:`lem.numerics.exact_gram`), and
the meat's score rows.  The bread is shared by the robust and the model-based
covariance; both refuse one that is numerically singular after scaling to
unit diagonal: such a design does not identify its parameters.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings as _warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .data import RANK_TOL, check_overlap, is_number, matrix_rank
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NoConvergence,
    NonFiniteLikelihood,
    SingularDesign,
    SingularMatrix,
    UnsortedKnots,
)
from .likelihood import (
    PreparedDesign,
    RowState,
    Theta,
    parameter_names,
    pooled_negloglik_and_score,
    score_rows,
    varrho_of_rho,
)
from .numerics import (
    cluster_sandwich,
    exact_gram,
    exact_sum,
    gram,
    inverse_mills_ratio,
    inverse_mills_slope,
    log_std_normal_cdf,
    one_blas_thread,
    solve_sym,
    std_normal_cdf,
)
from .optim import OptimResult, minimize_bfgs

# covariances need the bread, scaled to unit diagonal, at least this well
# conditioned: sqrt(machine epsilon)
BREAD_MIN_RCOND = math.sqrt(np.finfo(float).eps)
# the solver's tolerance on the pooled score's infinity norm, and its iteration cap
SOLVER_TOL = 1e-8
SOLVER_MAX_ITER = 500
# the probit start's Newton iteration cap, and its score tolerance per row
PROBIT_MAX_ITER = 50
PROBIT_TOL = 1e-10
# the two-step start's |rho| cap, short of the boundary where varrho diverges
TWO_STEP_MAX_RHO = 0.95
# a fit is accepted when the pooled score satisfies this relative criterion
SCORE_ROOT_RTOL = 1e-6
# the layout version that fit_to_dict writes and load_fit_json accepts
FIT_SCHEMA_VERSION = 1


@dataclass(kw_only=True)
class FitRecord:
    """Estimates and cluster-robust covariance of a fitted model, under any
    method: what ``fit.json`` holds (:func:`fit_to_dict`) and what
    :func:`load_fit_json` returns.  The first ``j_x`` estimates are the
    coefficients of the outcome trend."""

    model: str
    param_names: list
    estimates: np.ndarray
    cov_robust: np.ndarray
    j_x: int
    n_subjects: int
    n_rows: int
    warnings: list = field(default_factory=list)

    @property
    def beta(self):
        return self.estimates[:self.j_x]

    def se_robust(self):
        return np.sqrt(np.diag(self.cov_robust))


@dataclass(kw_only=True)
class LemFit(FitRecord):
    """Converged joint-model estimates with covariance matrices and diagnostics."""

    theta_hat: Theta
    cov_model: Optional[np.ndarray]
    optim: OptimResult
    negloglik: float
    score_inf_norm: float


@dataclass(frozen=True)
class Contrast:
    """Linear combinations of a fit's estimates, one per row of weights: each
    estimate with its robust SE, symmetric CI at ``level`` and two-sided
    p-value against zero."""

    estimate: np.ndarray
    se: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    p_value: np.ndarray
    level: float


@dataclass(frozen=True)
class WaldResult:
    estimate: float
    se: float
    ci: tuple
    p_value: float
    level: float
    name: str


def _probit(z, a):
    """Probit coefficients by Newton's method on the observed information
    ``z' diag(-inverse_mills_slope(m, lambda)) z``.  Raises SingularDesign for a
    rank-deficient z, after PROBIT_MAX_ITER steps, and when every row is
    classified: a finite probit maximum misclassifies some row, so that is
    complete separation (Albert & Anderson, Biometrika 71 (1984) 1-10)."""
    if matrix_rank(z) < z.shape[1]:
        raise SingularDesign("treatment design matrix is rank deficient")
    alpha = np.zeros(z.shape[1])
    sign = 2.0 * a - 1.0
    for _ in range(PROBIT_MAX_ITER):
        m = sign * (z @ alpha)
        lam = inverse_mills_ratio(m, log_std_normal_cdf(m))
        score = z.T @ (sign * lam)
        if np.abs(score).max() <= PROBIT_TOL * len(a):
            break
        info = (z * -inverse_mills_slope(m, lam)[:, None]).T @ z
        alpha = alpha + solve_sym(info, score)
    else:
        raise SingularDesign(f"probit start did not converge in {PROBIT_MAX_ITER} Newton steps")
    if (m > 0).all():  # m is sign * (z @ alpha) at the returned alpha
        raise SingularDesign("z separates treatment completely: the probit has no finite maximum")
    return alpha


def initialize(dataset):
    """Starting values: the maximum of the joint likelihood at rho = 0, where it
    splits into least squares of y on [X, W*A] (beta, eta and sigma_y, the
    residual SD) and a probit of A on Z (alpha); varrho starts at zero."""
    design = PreparedDesign.of(dataset)
    spans = design.spans
    xw = -design.coords[:, spans.r]
    coef, _, rank, _ = np.linalg.lstsq(xw, design.y, rcond=RANK_TOL)
    if rank < xw.shape[1]:
        raise SingularDesign(f"design matrix with {xw.shape[1]} columns is rank deficient")
    resid = design.y - xw @ coef
    sigma = math.sqrt(max(float(np.mean(resid ** 2)), 1e-12))
    alpha = _probit(design.coords[:, spans.c], design.a)
    return Theta(beta=coef[spans.beta], eta=coef[spans.eta], alpha=alpha,
                 log_sigma_y=math.log(sigma), varrho=0.0)


def _two_step(dataset, theta0):
    """Heckman's two-step estimate (Econometrica 47 (1979) 153-161) from the
    rho = 0 start ``theta0``: least squares of y on [X, W*A, h], where
    h = s lambda(m), m = s z'alpha and s = 2a - 1, is the probit's generalized
    residual.  Its coefficient estimates rho sigma_y, and sigma_y^2 solves
    E[e^2 | a, z] = sigma_y^2 (1 - rho^2 lambda (lambda + m)).  alpha is kept.

    Returns ``theta0`` when h is collinear with [X, W*A] (with an intercept-only
    z it takes one value per arm) or the variance is not a finite positive number.
    """
    design = PreparedDesign.of(dataset)
    spans = design.spans
    sign = 2.0 * design.a - 1.0
    m = sign * (design.coords[:, spans.c] @ theta0.alpha)
    lam = inverse_mills_ratio(m, log_std_normal_cdf(m))
    xwh = np.hstack([-design.coords[:, spans.r], (sign * lam)[:, None]])
    coef, _, rank, _ = np.linalg.lstsq(xwh, design.y, rcond=RANK_TOL)
    rho_sigma = coef[-1]
    sigma2 = float(np.mean((design.y - xwh @ coef) ** 2)
                   + rho_sigma ** 2 * np.mean(-inverse_mills_slope(m, lam)))
    if rank < xwh.shape[1] or not 0.0 < sigma2 < math.inf:
        return theta0
    sigma = math.sqrt(sigma2)
    rho = min(max(rho_sigma / sigma, -TWO_STEP_MAX_RHO), TWO_STEP_MAX_RHO)
    return replace(theta0, beta=coef[spans.beta], eta=coef[spans.eta],
                   log_sigma_y=math.log(sigma), varrho=varrho_of_rho(rho))


def _objective(dataset):
    """The solver's two functions.  Of the parameter vector, the steering
    evaluation: the negative loglik as a plain sum, the negative pooled score
    as one ``einsum`` of ``coords`` per coordinate group with the rows'
    :meth:`lem.likelihood.RowState.gradient`, and the point's RowState (+inf
    where not finite, so the line search shortens the step instead of
    aborting).  These numpy reductions, neither exact sums nor BLAS products,
    agree with :func:`lem.likelihood.pooled_negloglik_and_score` to rounding.
    Of a RowState, the observed information summed by
    :func:`lem.numerics.gram` for the Newton direction."""
    design = PreparedDesign.of(dataset)

    def fun(vec):
        state = RowState(Theta.from_array(vec, design.dims), design)
        g = state.gradient()
        with np.errstate(invalid="ignore", over="ignore"):
            value = -float(state.ll.sum())
            score = np.concatenate([np.einsum("ij,i->j", design.coords[:, span], g[:, j])
                                    for j, span in enumerate(design.spans[:4])])
        if not (np.isfinite(value) and np.isfinite(score).all()):
            return math.inf, np.full(len(vec), np.nan), None
        return value, -score, state

    def hess(state):
        return _information(gram, design, state)

    return fun, hess


def fit_lem(dataset, *, model_cov=False):
    """Solve the pooled estimating equations and attach robust covariance.

    Warnings (overlap failure, a solver stop within the score-root criterion
    short of the gradient tolerance, single cluster, ...) are collected
    machine-readably on the returned fit; only structural errors abort.
    ``model_cov`` adds ``cov_model``, the inverse observed information (else
    None), with a warning where it ignores the dependence of repeated measures.

    The solver's tolerances are absolute, so y is fitted divided by the power
    of two 2**k that puts max|y| in [8, 16); ``optim`` is in those units.  The
    rest is mapped back to the data's units: beta, eta and their covariance rows
    and columns times 2**k (exact), log_sigma_y plus k ln 2, ``negloglik`` plus
    n_rows k ln 2.  A robust variance that is not positive raises
    SingularMatrix (rescaling cannot help); one that overflows or underflows
    after the map raises NonFiniteLikelihood.  The first fit runs BLAS on one
    thread for good (:func:`lem.numerics.one_blas_thread`), so no fit depends
    on the host's core count.
    """
    one_blas_thread()
    fit_warnings = []
    overlap = check_overlap(dataset)
    if not overlap.overlap:
        fit_warnings.append(
            "outcome-overlap check failed: open outcome ranges "
            f"{overlap.untreated_range} (untreated) and {overlap.treated_range} "
            "(treated) do not intersect; the likelihood may lack an interior maximum"
        )

    k = int(np.frexp(np.abs(dataset.y).max())[1]) - 4
    design = PreparedDesign.of(dataset, k)
    theta0 = _two_step(design, initialize(design))
    result = minimize_bfgs(*_objective(design), theta0.to_array(),
                           tol=SOLVER_TOL, max_iter=SOLVER_MAX_ITER)
    theta_fitted = Theta.from_array(result.argmin, dataset.dims)
    # the one exact evaluation: what the fit reports, and the row state that
    # gives the bread and the meat (the fit does not keep it)
    nll, neg_score, state = pooled_negloglik_and_score(theta_fitted, design, _keep_rows=True)
    score_norm = float(np.abs(neg_score).max())
    result = replace(result, objective_value=nll, gradient=neg_score, state=None,
                     converged=result.converged and score_norm <= SOLVER_TOL)
    criterion = SCORE_ROOT_RTOL * (1.0 + abs(nll))
    if not result.converged:
        if score_norm > criterion:
            raise NoConvergence(
                f"optimizer stopped after {result.iterations} iterations with "
                f"pooled score norm {score_norm:.3e} (criterion {criterion:.3e})",
                result=result,
            )
        fit_warnings.append(
            f"gradient tolerance {SOLVER_TOL:g} not reached; accepted with pooled "
            f"score norm {score_norm:.3e} within the score-root criterion"
        )

    if dataset.n_subjects < 2:
        fit_warnings.append("single cluster: the robust covariance estimate is unreliable")

    bread = score_jacobian(theta_fitted, design, _state=state)
    cov_robust = sandwich_cov(theta_fitted, design, bread, _point=(state.score, -result.gradient))
    cov_model = None
    if model_cov:
        cov_model, model_warns = _fisher_cov_impl(bread, dataset)
        fit_warnings.extend(model_warns)

    names = parameter_names(dataset)
    for name, v in zip(names, np.diag(cov_robust)):
        if not v > 0.0:
            raise SingularMatrix(f"robust variance of {name} is {v:.1e}, not positive: "
                                 "the data do not identify it")

    # back to the data's units: beta and eta, the first j_x + j_w entries, scale by 2**k
    jx, _, jw = dataset.dims
    e = np.where(np.arange(theta_fitted.dim) < jx + jw, k, 0)
    with np.errstate(over="ignore"):
        cov_robust, cov_model = (c if c is None else np.ldexp(c, e[:, None] + e)
                                 for c in (cov_robust, cov_model))
    var = np.diag(cov_robust)   # variances overflow before the estimates do
    if not ((var >= np.finfo(float).tiny) & (var <= np.finfo(float).max)).all():
        raise NonFiniteLikelihood("a variance lies outside the normal float range in "
                                  "the data's units; rescale the outcome")
    estimates = np.ldexp(result.argmin, e)
    estimates[-2] += k * math.log(2.0)
    return LemFit(
        model="lem",
        param_names=names,
        estimates=estimates,
        cov_robust=cov_robust,
        j_x=jx,
        n_subjects=dataset.n_subjects,
        n_rows=dataset.n_rows,
        warnings=fit_warnings,
        theta_hat=Theta.from_array(estimates, dataset.dims),
        cov_model=cov_model,
        optim=result,
        negloglik=nll + dataset.n_rows * k * math.log(2.0),
        score_inf_norm=float(np.abs(np.ldexp(result.gradient, -e)).max()),
    )


def score_jacobian(theta, dataset, *, _state=None):
    """Observed information: the negative Hessian of the pooled log-likelihood,
    which is the Jacobian of the pooled negative score.

    Assembled analytically from the design's ``coords`` and ``groups``
    (:class:`lem.likelihood.PreparedDesign`) and the row state's information
    weights (:meth:`lem.likelihood.RowState.weights`) by the exact weighted
    Gram kernel (BLAS products of error-free slices), so it is bit-invariant
    under row permutation and doubles exactly under duplication.
    The private ``_state`` is the RowState at theta when the caller has it.
    """
    design = PreparedDesign.of(dataset)
    return _information(exact_gram, design, RowState(theta, design) if _state is None else _state)


def _information(kernel, design, state):
    """The observed information at the state's point summed by ``kernel``
    (gram or exact_gram), checked finite."""
    info = kernel(design.coords, design.groups, state.weights())
    if not np.isfinite(info).all():
        raise NonFiniteLikelihood("observed information is not finite")
    return info


def _require_identified(bread):
    """Raise SingularMatrix when the bread, scaled to unit diagonal, has
    reciprocal condition (smallest over largest absolute eigenvalue) below
    BREAD_MIN_RCOND: the parameters are then not identified by the data."""
    scale = np.sqrt(np.abs(np.diag(bread)))
    rcond = 0.0
    if (scale > 0).all():
        eig = np.abs(np.linalg.eigvalsh(bread / np.outer(scale, scale)))
        rcond = eig.min() / eig.max()
    if rcond < BREAD_MIN_RCOND:
        raise SingularMatrix(
            f"observed information has scaled reciprocal condition {rcond:.1e} "
            f"(below {BREAD_MIN_RCOND:.1e}); the parameters are not identified"
        )


def sandwich_cov(theta_hat, dataset, bread=None, *, _point=None):
    """Cluster-robust covariance: bread^-1 * meat * bread^-T.

    The bread is the observed information at theta_hat (computed unless
    given); the meat sums the outer products of subject-level scores.  Warns
    (without failing) away from a score root; raises NonFiniteLikelihood on a
    non-finite score and SingularMatrix on a numerically singular bread.
    The private ``_point`` is the score rows and the pooled score at
    theta_hat when the caller has them; that caller judges the score root
    itself (``fit_lem`` records an accepted point in ``LemFit.warnings``), so
    it gets no warning.
    """
    warn = _point is None
    if warn:
        rows = score_rows(theta_hat, dataset)
        _point = rows, exact_sum(rows)  # bit-identical to the pooled score
    rows, score = _point
    gnorm = float(np.abs(score).max())
    if not np.isfinite(gnorm):
        raise NonFiniteLikelihood("pooled score is not finite")
    if warn and gnorm > 1e-4:
        _warnings.warn(
            f"sandwich_cov called away from a score root (|score| = {gnorm:.3e})",
            stacklevel=2,
        )
    if bread is None:
        bread = score_jacobian(theta_hat, dataset)
    _require_identified(bread)
    return cluster_sandwich(bread, rows, dataset.subject_starts[:-1])


def _fisher_cov_impl(bread, dataset):
    warns = []
    if (dataset.cluster_sizes() > 1).any():
        warns.append(
            "model-based covariance treats rows as independent; with repeated "
            "measures it understates variability relative to the cluster sandwich"
        )
    _require_identified(bread)
    cov = solve_sym(bread, np.eye(bread.shape[0]))
    return 0.5 * (cov + cov.T), warns


def fisher_cov(theta_hat, dataset):
    """Inverse observed information (model-based covariance).

    Intended for one-row-per-subject data; emits a warning otherwise.
    """
    cov, warns = _fisher_cov_impl(score_jacobian(theta_hat, dataset), dataset)
    for msg in warns:
        _warnings.warn(msg, stacklevel=2)
    return cov


def z_quantile(level):
    """Two-sided normal quantile for a confidence ``level`` in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level!r}")
    return float(ndtri(0.5 + 0.5 * level))


def contrast(fit, rows, level=0.95):
    """Each row's weighted sum of the estimates of any FitRecord (a LemFit, a
    GeeFit or a loaded ``fit.json``), with its delta-method robust SE, CI and p-value.

    Rows of width ``j_x`` weigh beta (a design row x gives the untreated mean
    x'beta); rows as wide as the estimates weigh all of them ([0, w, 0] gives
    the treatment effect w'eta at the modifiers w).  Each row is reduced on its
    own, as ``row @ estimates`` and ``row @ cov @ row``.  A negative variance,
    which a loaded record can hold, gives SE 0; at SE 0 the p-value is 1 for a
    zero estimate and 0 otherwise."""
    zq = z_quantile(level)
    rows = np.asarray(rows, dtype=float)
    width = rows.shape[1] if rows.ndim == 2 else None
    if width not in (fit.j_x, len(fit.estimates)):
        raise DimensionMismatch(f"contrast rows must form a matrix of {fit.j_x} or "
                                f"{len(fit.estimates)} columns, got shape {rows.shape}")
    est, cov = fit.estimates[:width], fit.cov_robust[:width, :width]
    estimate, var = np.array([(row @ est, row @ cov @ row) for row in rows]).reshape(-1, 2).T
    se = np.sqrt(np.maximum(var, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        p = 2.0 * std_normal_cdf(-np.abs(estimate) / se)
    return Contrast(estimate=estimate, se=se, lower=estimate - zq * se, upper=estimate + zq * se,
                    p_value=np.where(se > 0, p, estimate == 0.0), level=level)


def wald(fit, index, level=0.95):
    """Point estimate, robust SE, symmetric CI and two-sided p-value of one
    parameter, given by name or index: the contrast of its unit vector."""
    names = fit.param_names
    if isinstance(index, str) and index in names:
        idx = names.index(index)
    elif is_number(index, numbers.Integral) and -len(names) <= index < len(names):
        idx = int(index) % len(names)
    else:
        raise IndexOutOfRange(f"{index!r} is neither a parameter name nor an index in [-{len(names)}, {len(names)})")
    c = contrast(fit, np.eye(1, len(names), idx), level)
    return WaldResult(estimate=float(c.estimate[0]), se=float(c.se[0]),
                      ci=(float(c.lower[0]), float(c.upper[0])), p_value=float(c.p_value[0]),
                      level=level, name=names[idx])


def ncs_basis(x, knots):
    """Natural cubic spline basis (truncated-power construction).

    For K strictly increasing knots the basis has K-1 columns: the linear
    term plus K-2 curvature terms ``d_k(x) - d_{K-1}(x)`` with
    ``d_k(x) = ((x - t_k)_+^3 - (x - t_K)_+^3) / (t_K - t_k)``.  The function
    is linear beyond the boundary knots and excludes the intercept (which
    lives in the design's leading column of ones).

    Scalar input returns a (K-1,) vector; array input an (n, K-1) matrix.
    """
    kn = np.asarray(knots, dtype=float)
    if kn.ndim != 1 or kn.size < 3:
        raise UnsortedKnots("at least 3 knots are required")
    if not (np.diff(kn) > 0).all() or not np.isfinite(kn).all():
        raise UnsortedKnots("knots must be finite and strictly increasing")
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    big = kn[-1]

    def d(k):
        return (np.maximum(xa - kn[k], 0.0) ** 3 - np.maximum(xa - big, 0.0) ** 3) / (big - kn[k])

    cols = [xa]
    d_last = d(len(kn) - 2)
    for k in range(len(kn) - 2):
        cols.append(d(k) - d_last)
    basis = np.column_stack(cols)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return basis[0]
    return basis


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def fit_to_dict(fit):
    """The ``fit.json`` record of a fit: the keys every FitRecord has, plus, for
    a LemFit, the model-based covariance, the block dimensions, sigma_y, rho
    and the convergence summary."""
    out = {
        "schema_version": FIT_SCHEMA_VERSION,
        "model": fit.model,
        "param_names": list(fit.param_names),
        "estimates": [float(v) for v in fit.estimates],
        "se_robust": [float(v) for v in fit.se_robust()],
        "cov_robust": [float(v) for v in fit.cov_robust.ravel()],
        "dims": {"j_x": fit.j_x},
        "n_subjects": fit.n_subjects,
        "n_rows": fit.n_rows,
        "warnings": list(fit.warnings),
    }
    if isinstance(fit, LemFit):
        theta = fit.theta_hat
        out.update(
            cov_model=None if fit.cov_model is None else [float(v) for v in fit.cov_model.ravel()],
            dims={"j_x": fit.j_x, "j_z": theta.alpha.size, "j_w": theta.eta.size},
            sigma_y=theta.sigma_y,
            rho=theta.rho,
            rho_map="logistic",   # the scale of varrho: rho = tanh(varrho / 2)
            convergence={
                "converged": bool(fit.optim.converged),
                "iterations": int(fit.optim.iterations),
                "evaluations": int(fit.optim.n_evals),
                "gradient_inf_norm": float(fit.optim.gradient_inf_norm),
                "negloglik": float(fit.negloglik),
                "score_inf_norm": float(fit.score_inf_norm),
            },
        )
    return out


def _checked(value, key, ok, what):
    """``value`` if ``ok(value)``; otherwise a ValueError that names the key."""
    if not ok(value):
        raise ValueError(f"fit file key {key!r} must be {what}")
    return value


def _is_int(value, low, high=math.inf):
    return type(value) is int and low <= value <= high


def _is_strings(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _numbers(value, key, count):
    """``value`` as a float array when it lists ``count`` finite numbers (no bools)."""
    _checked(value, key, lambda v: isinstance(v, list) and len(v) == count and all(map(is_number, v)),
             f"{count} finite numbers")
    return np.asarray(value, dtype=float)


def load_fit_json(path):
    """The FitRecord in a ``fit.json``.  A missing key raises KeyError, and a
    value of the wrong type or length a ValueError that names the key."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"a fit file must be a JSON object, got {type(raw).__name__}")
    _checked(raw.get("schema_version"), "schema_version",
             lambda v: type(v) is int and v == FIT_SCHEMA_VERSION,
             f"{FIT_SCHEMA_VERSION} (a file without it predates the key: re-run `lem fit`)")
    names = _checked(raw["param_names"], "param_names", lambda v: _is_strings(v) and len(v) > 0,
                     "a non-empty list of strings")
    n = len(names)
    dims = _checked(raw["dims"], "dims", lambda v: isinstance(v, dict), "an object")
    return FitRecord(
        model=_checked(raw["model"], "model", lambda v: isinstance(v, str), "a string"),
        param_names=names,
        estimates=_numbers(raw["estimates"], "estimates", n),
        cov_robust=_numbers(raw["cov_robust"], "cov_robust", n * n).reshape(n, n),
        j_x=_checked(dims["j_x"], "dims.j_x", lambda v: _is_int(v, 1, n), f"an integer in [1, {n}]"),
        n_subjects=_checked(raw["n_subjects"], "n_subjects", lambda v: _is_int(v, 0),
                            "a non-negative integer"),
        n_rows=_checked(raw["n_rows"], "n_rows", lambda v: _is_int(v, 0), "a non-negative integer"),
        warnings=_checked(raw["warnings"], "warnings", _is_strings, "a list of strings"),
    )

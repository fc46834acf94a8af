"""End-to-end fitting and inference.

Pipeline: regression-based initialization, damped Newton solution of the
pooled estimating equations, cluster-robust sandwich covariance (subjects are
the clusters), optional model-based covariance, Wald inference and
spline-basis trend prediction with pointwise bands.

The sandwich bread is the analytic observed information: the per-row
Hessian factors of :mod:`lem.likelihood`, summed exactly by BLAS products of
pre-rounded slices (:func:`lem.numerics.exact_gram`) once per fit and shared
by the robust and the model-based covariance.  Both refuse a bread that is
numerically singular after scaling to unit diagonal: such a design does not
identify its parameters.  The solver (:func:`lem.optim.minimize_bfgs`, a
Newton method that keeps its older name because the benchmark traces it by
that name) steps with the same information summed by plain BLAS products: a
search direction needs no exact sum.
"""

from __future__ import annotations

import json
import math
import warnings as _warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .data import check_overlap, matrix_rank
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LineSearchFailure,
    NoConvergence,
    NonFiniteLikelihood,
    OneArmEmpty,
    SingularDesign,
    SingularMatrix,
    UnsortedKnots,
)
from .likelihood import (
    Theta,
    information_rows,
    parameter_names,
    pooled_negloglik_and_score,
    score_rows,
)
from .numerics import (
    cluster_sandwich,
    exact_gram,
    exact_sum,
    log_std_normal_cdf,
    solve_sym,
    std_normal_cdf,
    std_normal_log_pdf,
)
from .optim import OptimProblem, OptimResult, minimize_bfgs

# covariances need the bread, scaled to unit diagonal, at least this well
# conditioned: sqrt(machine epsilon)
BREAD_MIN_RCOND = math.sqrt(np.finfo(float).eps)
# a fit is accepted when the pooled score satisfies this relative criterion
SCORE_ROOT_RTOL = 1e-6


@dataclass
class FitOptions:
    tol: float = 1e-8
    max_iter: int = 500
    rho_map: str = "logistic"
    compute_model_cov: bool = False


@dataclass
class LemFit:
    """Converged estimates with covariance matrices and diagnostics."""

    theta_hat: Theta
    cov_robust: np.ndarray
    cov_model: Optional[np.ndarray]
    optim: OptimResult
    n_subjects: int
    n_rows: int
    param_names: list
    negloglik: float
    score_inf_norm: float
    warnings: list = field(default_factory=list)

    @property
    def dims(self):
        return (self.theta_hat.beta.size, self.theta_hat.alpha.size, self.theta_hat.eta.size)

    @property
    def beta(self):
        return self.theta_hat.beta

    def se_robust(self):
        return np.sqrt(np.diag(self.cov_robust))

    def beta_block_cov(self):
        jx = self.theta_hat.beta.size
        return self.cov_robust[:jx, :jx]


@dataclass(frozen=True)
class PredictionBand:
    """Pointwise confidence band over a predictor grid."""

    grid: np.ndarray
    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class WaldResult:
    estimate: float
    se: float
    ci: tuple
    p_value: float
    level: float
    name: str


def _ols(design, y):
    """Least squares through the normal equations with a rank pre-check."""
    if matrix_rank(design) < design.shape[1]:
        raise SingularDesign(
            f"design matrix with {design.shape[1]} columns is rank deficient"
        )
    gram = design.T @ design
    coef = solve_sym(gram, design.T @ y)
    return coef


def _probit(z, a, max_iter=50, tol=1e-10):
    """Probit coefficients by Fisher scoring on the pooled rows."""
    if matrix_rank(z) < z.shape[1]:
        raise SingularDesign("treatment design matrix is rank deficient")
    alpha = np.zeros(z.shape[1])
    sign = 2.0 * a - 1.0
    for _ in range(max_iter):
        c = z @ alpha
        m = sign * c
        # phi(m)/Phi(m) through the stable log kernels
        lam = np.exp(std_normal_log_pdf(m) - log_std_normal_cdf(m))
        score = z.T @ (sign * lam)
        p = std_normal_cdf(c)
        pq = np.clip(p * (1.0 - p), 1e-12, None)
        wgt = np.exp(2.0 * std_normal_log_pdf(c)) / pq
        info = (z * wgt[:, None]).T @ z
        step = solve_sym(info, score)
        alpha = alpha + step
        if np.abs(score).max() <= tol * len(a):
            break
    return alpha


def initialize(dataset):
    """Starting values from standard regression fits.

    beta and eta come from pooled least squares of y on [X, W*A]; alpha from
    a probit of A on Z; sigma_y from the least-squares residual SD; the
    correlation coordinate starts at zero.
    """
    x, w, a = dataset.x, dataset.w, dataset.a
    design = np.hstack([x, w * a[:, None]])
    coef = _ols(design, dataset.y)
    jx = x.shape[1]
    beta, eta = coef[:jx], coef[jx:]
    resid = dataset.y - design @ coef
    sigma = math.sqrt(max(float(np.mean(resid ** 2)), 1e-12))
    alpha = _probit(dataset.z, a)
    return Theta(beta=beta, eta=eta, alpha=alpha,
                 log_sigma_y=math.log(sigma), varrho=0.0)


class _CachedObjective:
    """Joint value/gradient evaluation memoized on the parameter vector, and
    the Hessian of the negative log-likelihood for the Newton direction.

    Non-finite likelihood at a trial point is reported as +inf so the
    backtracking line search shortens the step instead of aborting.
    """

    def __init__(self, dataset, dims, rho_map):
        self.dataset = dataset
        self.dims = dims
        self.rho_map = rho_map
        self._key = None
        self._value = None

    def _eval(self, vec):
        key = vec.tobytes()
        if key != self._key:
            theta = Theta.from_array(vec, self.dims, self.rho_map)
            try:
                self._value = pooled_negloglik_and_score(theta, self.dataset)
            except NonFiniteLikelihood:
                self._value = (math.inf, np.full(len(vec), np.nan))
            self._key = key
        return self._value

    def objective(self, vec):
        return self._eval(np.asarray(vec, dtype=float))[0]

    def gradient(self, vec):
        return self._eval(np.asarray(vec, dtype=float))[1]

    def hessian(self, vec):
        """The observed information at ``vec``, summed by one BLAS product per
        pair of coordinate groups of :func:`lem.likelihood.information_rows`
        (not bit-reproducible, unlike :func:`score_jacobian`)."""
        theta = Theta.from_array(vec, self.dims, self.rho_map)
        coords, groups, weights = information_rows(theta, self.dataset)
        blocks = [np.flatnonzero(groups == g) for g in range(weights.shape[-1])]
        info = np.empty((coords.shape[1],) * 2)
        for i, rows in enumerate(blocks):
            for j, cols in enumerate(blocks[i:], start=i):
                part = coords[:, rows].T @ (weights[:, i, j, None] * coords[:, cols])
                info[np.ix_(rows, cols)] = part
                info[np.ix_(cols, rows)] = part.T
        if not np.isfinite(info).all():
            raise NonFiniteLikelihood("observed information is not finite")
        return info


def fit_lem(dataset, opts=None):
    """Solve the pooled estimating equations and attach robust covariance.

    Warnings (overlap failure, line-search stall at numerical precision,
    single cluster, ...) are collected machine-readably on the returned fit;
    only structural errors abort.
    """
    opts = opts or FitOptions()
    if not ((dataset.a == 0).any() and (dataset.a == 1).any()):
        raise OneArmEmpty("both treatment arms are required to fit the joint model")

    fit_warnings = []
    overlap = check_overlap(dataset)
    if not overlap.overlap:
        fit_warnings.append(
            "outcome-overlap check failed: open outcome ranges "
            f"{overlap.untreated_range} (untreated) and {overlap.treated_range} "
            "(treated) do not intersect; the likelihood may lack an interior maximum"
        )

    theta0 = initialize(dataset)
    if opts.rho_map != "logistic":
        theta0 = Theta(beta=theta0.beta, eta=theta0.eta, alpha=theta0.alpha,
                       log_sigma_y=theta0.log_sigma_y, varrho=0.0, rho_map=opts.rho_map)
    dims = (theta0.beta.size, theta0.alpha.size, theta0.eta.size)
    cache = _CachedObjective(dataset, dims, opts.rho_map)
    problem = OptimProblem(dimension=theta0.dim, objective=cache.objective,
                           gradient=cache.gradient, hessian=cache.hessian)

    try:
        result = minimize_bfgs(problem, theta0.to_array(), tol=opts.tol,
                               max_iter=opts.max_iter)
    except LineSearchFailure as exc:
        result = exc.result
        fit_warnings.append(f"line search stalled: {exc}")

    theta_hat = Theta.from_array(result.argmin, dims, opts.rho_map)
    # the solver's value and gradient are the pooled ones at theta_hat
    nll, score_norm = result.objective_value, result.gradient_inf_norm
    criterion = SCORE_ROOT_RTOL * (1.0 + abs(nll))
    if not result.converged:
        if score_norm > criterion:
            raise NoConvergence(
                f"optimizer stopped after {result.iterations} iterations with "
                f"pooled score norm {score_norm:.3e} (criterion {criterion:.3e})",
                result=result,
            )
        fit_warnings.append(
            f"gradient tolerance {opts.tol:g} not reached; accepted with pooled "
            f"score norm {score_norm:.3e} within the score-root criterion"
        )

    if dataset.n_subjects < 2:
        fit_warnings.append(
            "single cluster: the robust covariance estimate is unreliable"
        )

    bread = score_jacobian(theta_hat, dataset)
    cov_robust = sandwich_cov(theta_hat, dataset, bread)
    cov_model = None
    if opts.compute_model_cov:
        cov_model, model_warns = _fisher_cov_impl(bread, dataset)
        fit_warnings.extend(model_warns)

    return LemFit(
        theta_hat=theta_hat,
        cov_robust=cov_robust,
        cov_model=cov_model,
        optim=result,
        n_subjects=dataset.n_subjects,
        n_rows=dataset.n_rows,
        param_names=parameter_names(dataset),
        negloglik=nll,
        score_inf_norm=score_norm,
        warnings=fit_warnings,
    )


def score_jacobian(theta, dataset):
    """Observed information: the negative Hessian of the pooled log-likelihood,
    which is the Jacobian of the pooled negative score.

    Assembled analytically from :func:`lem.likelihood.information_rows` by the
    exact weighted Gram kernel (BLAS products of error-free slices), so it is
    bit-invariant under row permutation and doubles exactly under duplication.
    """
    bread = exact_gram(*information_rows(theta, dataset))
    if not np.isfinite(bread).all():
        raise NonFiniteLikelihood("observed information is not finite")
    return bread


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


def sandwich_cov(theta_hat, dataset, bread=None):
    """Cluster-robust covariance: bread^-1 * meat * bread^-T.

    The bread is the observed information at theta_hat (computed unless
    given); the meat sums the outer products of subject-level scores.  Warns
    (without failing) away from a score root; raises NonFiniteLikelihood on a
    non-finite score and SingularMatrix on a numerically singular bread.
    """
    rows = score_rows(theta_hat, dataset)
    gnorm = float(np.abs(exact_sum(rows)).max())  # bit-identical to the pooled score
    if not np.isfinite(gnorm):
        raise NonFiniteLikelihood("pooled score is not finite")
    if gnorm > 1e-4:
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


def wald(fit, index, level=0.95):
    """Point estimate, robust SE, symmetric CI and two-sided p-value."""
    zq = z_quantile(level)
    names = fit.param_names
    if isinstance(index, str):
        if index not in names:
            raise IndexOutOfRange(f"no parameter named {index!r}")
        idx = names.index(index)
    else:
        idx = int(index)
        if not -len(names) <= idx < len(names):
            raise IndexOutOfRange(f"parameter index {index} out of range for {len(names)} parameters")
        idx = idx % len(names)
    est = float(fit.theta_hat.to_array()[idx])
    se = float(math.sqrt(max(fit.cov_robust[idx, idx], 0.0)))
    if se > 0:
        p = 2.0 * std_normal_cdf(-abs(est) / se)
    else:
        p = 1.0 if est == 0.0 else 0.0
    return WaldResult(
        estimate=est,
        se=se,
        ci=(est - zq * se, est + zq * se),
        p_value=float(p),
        level=level,
        name=names[idx],
    )


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
    if not (np.diff(kn) > 0).all():
        raise UnsortedKnots("knots must be strictly increasing")
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


def predict_mean(fit, xrow):
    """Mean prediction for the untreated state: x'beta with delta-method SE.

    Accepts a LemFit, a LoadedFit, or any object exposing ``beta`` and
    ``beta_block_cov()``.
    """
    xrow = np.asarray(xrow, dtype=float)
    beta = np.asarray(fit.beta, dtype=float)
    if xrow.shape != beta.shape:
        raise DimensionMismatch(f"xrow has shape {xrow.shape}, expected {beta.shape}")
    est = float(xrow @ beta)
    var = float(xrow @ fit.beta_block_cov() @ xrow)
    return est, math.sqrt(max(var, 0.0))


def prediction_band(fit, xrows, grid=None, level=0.95):
    """Pointwise Wald band for x'beta over a grid of design rows."""
    zq = z_quantile(level)
    xrows = np.asarray(xrows, dtype=float)
    if grid is None:
        grid = np.arange(xrows.shape[0], dtype=float)
    grid = np.asarray(grid, dtype=float)
    est = np.empty(xrows.shape[0])
    se = np.empty(xrows.shape[0])
    for i, row in enumerate(xrows):
        est[i], se[i] = predict_mean(fit, row)
    return PredictionBand(grid=grid, estimate=est, lower=est - zq * se, upper=est + zq * se)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def fit_to_dict(fit, model="lem"):
    theta = fit.theta_hat
    se = fit.se_robust()
    return {
        "model": model,
        "param_names": list(fit.param_names),
        "estimates": [float(v) for v in theta.to_array()],
        "se_robust": [float(v) for v in se],
        "cov_robust": [float(v) for v in fit.cov_robust.ravel()],
        "cov_model": None if fit.cov_model is None else [float(v) for v in fit.cov_model.ravel()],
        "dims": {"j_x": theta.beta.size, "j_z": theta.alpha.size, "j_w": theta.eta.size},
        "sigma_y": theta.sigma_y,
        "rho": theta.rho,
        "rho_map": theta.rho_map,
        "n_subjects": fit.n_subjects,
        "n_rows": fit.n_rows,
        "convergence": {
            "converged": bool(fit.optim.converged),
            "iterations": int(fit.optim.iterations),
            "gradient_inf_norm": float(fit.optim.gradient_inf_norm),
            "negloglik": float(fit.negloglik),
            "score_inf_norm": float(fit.score_inf_norm),
        },
        "warnings": list(fit.warnings),
    }


def save_fit_json(fit_dict, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fit_dict, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class LoadedFit:
    """Slim view of a serialized fit, sufficient for prediction."""

    model: str
    param_names: list
    estimates: np.ndarray
    cov: np.ndarray
    j_x: int

    @property
    def beta(self):
        return self.estimates[:self.j_x]

    def beta_block_cov(self):
        return self.cov[:self.j_x, :self.j_x]


def load_fit_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    n = len(raw["param_names"])
    return LoadedFit(
        model=raw["model"],
        param_names=list(raw["param_names"]),
        estimates=np.asarray(raw["estimates"], dtype=float),
        cov=np.asarray(raw["cov_robust"], dtype=float).reshape(n, n),
        j_x=int(raw["dims"]["j_x"]),
    )

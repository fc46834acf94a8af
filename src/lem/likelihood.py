"""Per-observation log-likelihood and analytic score for the joint model.

The observation model couples a linear outcome equation with a latent-index
(probit) treatment equation through bivariate-normal errors:

    y  = x'beta + (w'eta) * a + eps,      eps ~ N(0, sigma_y^2)
    a* = z'alpha + gam,                   gam ~ N(0, 1),  corr(eps, gam) = rho
    a  = 1(a* > 0)

Per observation, with r = y - x'beta - (w'eta) a and sign s = (-1)^(1-a):

    loglik = log phi(r / sigma_y) - log sigma_y
             + log Phi( s * (z'alpha + rho r / sigma_y) / sqrt(1 - rho^2) )

Internally the parameter vector is unconstrained: sigma_y enters on the log
scale and rho through a bijective map of an unconstrained coordinate
("varrho").  The default map is the scaled logistic; the arctangent map is
available for cross-checking.

The observed information (the sandwich bread) is analytic.  A row's loglik
depends on theta only through four coordinates, each linear in theta:
r (derivative rows -x for beta and -a*w for eta), c = z'alpha (row z),
log sigma_y and varrho.  The Hessian is therefore sum_i D_i' F_i D_i, with
D_i those derivative rows and F_i the 4 x 4 Hessian in the coordinates:

    F = Hess(-u^2/2 - log sigma_y) + L2 * grad(m) grad(m)' + lambda * Hess(m),

where u = r / sigma_y, m is the argument of log Phi above, lambda =
phi(m)/Phi(m) is the inverse Mills ratio and L2 = dlambda/dm =
-lambda (m + lambda) (below the log Phi tail crossover, the derivative of the
series form of lambda; see :func:`lem.numerics.inverse_mills_slope`).  varrho
enters through rho by the chain rule, with d2rho/dvarrho2 = -rho * rho' for
the logistic map and -4 varrho / (pi (1 + varrho^2)^2) for the arctan map.

One private row pass computes each row's u, c, m, log Phi(m) and lambda once
and returns the loglik with either the score rows or the information weights;
the public functions are thin callers of it.  All are pure in (theta, data).
Pooled sums add row-pure per-row values by :func:`lem.numerics.exact_sum` and
:func:`lem.numerics.exact_gram`, whose pre-rounded slices numpy and BLAS sum
exactly in any order, so they are bit-invariant under row permutation and
double exactly under duplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteLikelihood
from .numerics import (
    LOG_SQRT_2PI,
    colwise_matvec,
    exact_sum,
    inverse_mills_slope,
    log_std_normal_cdf,
)

RHO_MAPS = ("logistic", "arctan")


def rho_of_varrho(varrho, rho_map="logistic"):
    """Map an unconstrained coordinate to a correlation in (-1, 1)."""
    if rho_map == "logistic":
        # 2/(1+exp(-v)) - 1 == tanh(v/2), strictly increasing
        return math.tanh(0.5 * varrho)
    if rho_map == "arctan":
        return 2.0 * math.atan(varrho) / math.pi
    raise ValueError(f"unknown rho map {rho_map!r}")


def varrho_of_rho(rho, rho_map="logistic"):
    """Inverse of :func:`rho_of_varrho`; requires -1 < rho < 1."""
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie strictly inside (-1, 1)")
    if rho_map == "logistic":
        return 2.0 * math.atanh(rho)
    if rho_map == "arctan":
        return math.tan(0.5 * math.pi * rho)
    raise ValueError(f"unknown rho map {rho_map!r}")


def _rho_slopes(varrho, rho, rho_map):
    """First and second derivatives of rho with respect to varrho."""
    if rho_map == "logistic":
        d1 = 0.5 * (1.0 - rho * rho)
        return d1, -rho * d1
    if rho_map == "arctan":
        v2 = 1.0 + varrho * varrho
        return 2.0 / (math.pi * v2), -4.0 * varrho / (math.pi * v2 * v2)
    raise ValueError(f"unknown rho map {rho_map!r}")


@dataclass(frozen=True)
class Theta:
    """Full parameter vector in its unconstrained internal coordinates.

    The latent treatment error variance is fixed at one for identifiability
    and is not a parameter.
    """

    beta: np.ndarray
    eta: np.ndarray
    alpha: np.ndarray
    log_sigma_y: float
    varrho: float
    rho_map: str = "logistic"

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.rho_map not in RHO_MAPS:
            raise ValueError(f"rho_map must be one of {RHO_MAPS}")
        vec = self.to_array()
        if not np.isfinite(vec).all():
            raise ValueError("theta contains non-finite entries")

    @property
    def sigma_y(self):
        return math.exp(self.log_sigma_y)

    @property
    def rho(self):
        return rho_of_varrho(self.varrho, self.rho_map)

    @property
    def dim(self):
        return self.beta.size + self.eta.size + self.alpha.size + 2

    def to_array(self):
        return np.concatenate([
            self.beta, self.eta, self.alpha, [self.log_sigma_y, self.varrho],
        ])

    @classmethod
    def from_array(cls, vec, dims, rho_map="logistic"):
        """Unpack (beta, eta, alpha, log_sigma_y, varrho) given (J_X, J_Z, J_W)."""
        jx, jz, jw = dims
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (jx + jw + jz + 2,):
            raise ValueError(f"vector of length {vec.size} does not match dims {dims}")
        return cls(
            beta=vec[:jx].copy(),
            eta=vec[jx:jx + jw].copy(),
            alpha=vec[jx + jw:jx + jw + jz].copy(),
            log_sigma_y=float(vec[-2]),
            varrho=float(vec[-1]),
            rho_map=rho_map,
        )


def parameter_names(dataset):
    """Flat names aligned with Theta.to_array for a given dataset."""
    names = [f"beta:{c}" for c in dataset.x_names]
    names += [f"eta:{c}" for c in dataset.w_names]
    names += [f"alpha:{c}" for c in dataset.z_names]
    names += ["log_sigma_y", "varrho"]
    return names


def _rows(theta, y, a, x, z, w, order):
    """The row pass: per-row loglik (n,) with, for ``order`` 1, the score rows
    (n, dim) in the unconstrained coordinates or, for ``order`` 2, the
    information weights (n, 4, 4) of :func:`information_rows`.

    Each row's u = r / sigma_y, c = z'alpha, sign (-1)^(1-a), probit argument
    m, log Phi(m) and inverse Mills ratio lambda are computed here once.
    """
    sigma = theta.sigma_y
    rho = theta.rho
    sq = math.sqrt(max(1.0 - rho * rho, 0.0))
    d1, d2 = _rho_slopes(theta.varrho, rho, theta.rho_map)
    n = y.shape[0]

    # extreme trial points from the line search may overflow; the pooled
    # wrapper and the fit turn non-finite results into NonFiniteLikelihood
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        r = y - colwise_matvec(x, theta.beta) - colwise_matvec(w, theta.eta) * a
        u = r / sigma
        c = colwise_matvec(z, theta.alpha)
        sign = 2.0 * a - 1.0
        m = sign * (c + rho * u) / sq
        log_cdf = log_std_normal_cdf(m)
        ll = -0.5 * u * u - LOG_SQRT_2PI - theta.log_sigma_y + log_cdf
        # inverse Mills ratio phi(m)/Phi(m), stable through the log kernels
        lam = np.exp(-0.5 * m * m - LOG_SQRT_2PI - log_cdf)
        t = lam * sign

        if order == 1:
            k1 = (u - t * rho / sq) / sigma
            score = np.empty((n, theta.dim))
            jx = theta.beta.size
            jw = theta.eta.size
            score[:, :jx] = k1[:, None] * x
            score[:, jx:jx + jw] = (k1 * a)[:, None] * w
            score[:, jx + jw:-2] = (t / sq)[:, None] * z
            score[:, -2] = u * u - 1.0 - t * rho * u / sq
            score[:, -1] = t * (u + rho * c) / sq ** 3 * d1
            return ll, score

        # sign * dm/d(r, c, log sigma_y, rho); the sign squares away in the outer product
        dm = np.empty((n, 4))
        dm[:, 0] = rho / (sq * sigma)
        dm[:, 1] = 1.0 / sq
        dm[:, 2] = -rho * u / sq
        dm[:, 3] = (u + rho * c) / sq ** 3
        hess = inverse_mills_slope(m, lam)[:, None, None] * (dm[:, :, None] * dm[:, None, :])
        # the Gaussian terms, and lambda times the second derivatives of m
        hess[:, 0, 0] -= 1.0 / sigma ** 2
        upper = {
            (0, 2): 2.0 * u / sigma - t * rho / (sq * sigma),
            (0, 3): t / (sq ** 3 * sigma),
            (1, 3): t * rho / sq ** 3,
            (2, 2): t * rho * u / sq - 2.0 * u * u,
            (2, 3): -t * u / sq ** 3,
            (3, 3): t * (c / sq ** 3 + 3.0 * rho * (u + rho * c) / sq ** 5),
        }
        for (i, j), term in upper.items():
            hess[:, i, j] += term
            if i != j:
                hess[:, j, i] += term
        # rho -> varrho by the chain rule
        hess[:, 3, :] *= d1
        hess[:, :, 3] *= d1
        hess[:, 3, 3] += t * dm[:, 3] * d2
    return ll, -hess


def _one_row(theta, row, order):
    return _rows(theta, np.array([row.y], dtype=float), np.array([row.a], dtype=float),
                 row.x[None, :], row.z[None, :], row.w[None, :], order)


def obs_loglik(theta, row):
    """Log-likelihood contribution of a single observation."""
    return float(_one_row(theta, row, 1)[0][0])


def obs_score(theta, row):
    """Analytic gradient of obs_loglik in the unconstrained coordinates."""
    return _one_row(theta, row, 1)[1][0]


def pooled_negloglik_and_score(theta, dataset):
    """Negative pooled log-likelihood and negative pooled score.

    Sums run over every subject's own observation rows (ragged clusters are
    simply shorter blocks).  Raises NonFiniteLikelihood on overflow, which
    signals a pathological theta reached outside the line-search guard.
    """
    ll, score = _rows(theta, dataset.y, dataset.a, dataset.x, dataset.z, dataset.w, 1)
    # exact_sum turns any non-finite row into a non-finite total
    nll = -float(exact_sum(ll))
    if not np.isfinite(nll):
        raise NonFiniteLikelihood(f"pooled negative log-likelihood is {nll!r}")
    neg_score = -exact_sum(score)
    if not np.isfinite(neg_score).all():
        raise NonFiniteLikelihood("pooled score is not finite")
    return nll, neg_score


def score_rows(theta, dataset):
    """Per-row loglik score matrix (n, dim); building block for the sandwich."""
    return _rows(theta, dataset.y, dataset.a, dataset.x, dataset.z, dataset.w, 1)[1]


def information_rows(theta, dataset):
    """Per-row factors of the observed information, the negative Hessian of
    the pooled log-likelihood: ``exact_gram(coords, groups, weights)``.

    A row's loglik depends on theta only through the coordinates
    ``(r, c, log sigma_y, varrho)``, each linear in theta.  ``coords`` (n, dim)
    holds each parameter's derivative of the one coordinate it enters
    (-x for beta, -a*w for eta, z for alpha, 1 for log sigma_y and varrho),
    ``groups`` (dim,) numbers that coordinate 0-3, and ``weights`` (n, 4, 4)
    is minus the row's Hessian in the coordinates (module docstring).
    """
    y, a, x, z, w = dataset.y, dataset.a, dataset.x, dataset.z, dataset.w
    _, weights = _rows(theta, y, a, x, z, w, 2)
    jx, jw, jz = theta.beta.size, theta.eta.size, theta.alpha.size
    coords = np.hstack([-x, -w * a[:, None], z, np.ones((y.shape[0], 2))])
    groups = np.repeat([0, 1, 2, 3], [jx + jw, jz, 1, 1])
    return coords, groups, weights

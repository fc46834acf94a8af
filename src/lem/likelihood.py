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

All functions are pure in (theta, data).  Pooled sums use the exact kernel
:func:`lem.numerics.exact_sum` over row-pure per-row values, so they are
bit-invariant under row permutation and double exactly under duplication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NonFiniteLikelihood
from .numerics import LOG_SQRT_2PI, colwise_matvec, exact_sum, log_std_normal_cdf

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


def _drho_dvarrho(varrho, rho, rho_map):
    if rho_map == "logistic":
        return 0.5 * (1.0 - rho * rho)
    if rho_map == "arctan":
        return 2.0 / (math.pi * (1.0 + varrho * varrho))
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

    def with_varrho(self, varrho):
        return replace(self, varrho=float(varrho))


def parameter_names(dataset, prefix_sep=":"):
    """Flat names aligned with Theta.to_array for a given dataset."""
    names = [f"beta{prefix_sep}{c}" for c in dataset.x_names]
    names += [f"eta{prefix_sep}{c}" for c in dataset.w_names]
    names += [f"alpha{prefix_sep}{c}" for c in dataset.z_names]
    names += ["log_sigma_y", "varrho"]
    return names


def _eval_rows(theta, y, a, x, z, w, want_score):
    """Vectorized per-row loglik (n,) and, optionally, score rows (n, dim).

    Scores are with respect to the unconstrained coordinates, chain rule
    through exp for sigma_y and the varrho map for rho.
    """
    sigma = theta.sigma_y
    rho = theta.rho
    sq = math.sqrt(max(1.0 - rho * rho, 0.0))

    # extreme trial points from the line search may overflow; the pooled
    # wrapper turns non-finite results into NonFiniteLikelihood
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        r = y - colwise_matvec(x, theta.beta) - colwise_matvec(w, theta.eta) * a
        u = r / sigma
        c = colwise_matvec(z, theta.alpha)
        sign = 2.0 * a - 1.0
        m = sign * (c + rho * u) / sq
        log_cdf = log_std_normal_cdf(m)
        ll = -0.5 * u * u - LOG_SQRT_2PI - theta.log_sigma_y + log_cdf
        if not want_score:
            return ll, None

        # inverse Mills ratio phi(m)/Phi(m), stable through the log kernels
        lam = np.exp(-0.5 * m * m - LOG_SQRT_2PI - log_cdf)
        t = lam * sign
        k1 = (u - t * rho / sq) / sigma

        n = y.shape[0]
        score = np.empty((n, theta.dim))
        jx = theta.beta.size
        jw = theta.eta.size
        score[:, :jx] = k1[:, None] * x
        score[:, jx:jx + jw] = (k1 * a)[:, None] * w
        score[:, jx + jw:-2] = (t / sq)[:, None] * z
        score[:, -2] = u * u - 1.0 - t * rho * u / sq
        dldrho = t * (u + rho * c) / sq ** 3
        score[:, -1] = dldrho * _drho_dvarrho(theta.varrho, rho, theta.rho_map)
    return ll, score


def obs_loglik(theta, row):
    """Log-likelihood contribution of a single observation."""
    ll, _ = _eval_rows(
        theta,
        np.array([row.y], dtype=float),
        np.array([row.a], dtype=float),
        row.x[None, :],
        row.z[None, :],
        row.w[None, :],
        want_score=False,
    )
    return float(ll[0])


def obs_score(theta, row):
    """Analytic gradient of obs_loglik in the unconstrained coordinates."""
    _, score = _eval_rows(
        theta,
        np.array([row.y], dtype=float),
        np.array([row.a], dtype=float),
        row.x[None, :],
        row.z[None, :],
        row.w[None, :],
        want_score=True,
    )
    return score[0]


def pooled_negloglik_and_score(theta, dataset, want_score=True):
    """Negative pooled log-likelihood and negative pooled score.

    Sums run over every subject's own observation rows (ragged clusters are
    simply shorter blocks).  Raises NonFiniteLikelihood on overflow, which
    signals a pathological theta reached outside the line-search guard.
    """
    ll, score = _eval_rows(theta, dataset.y, dataset.a, dataset.x, dataset.z,
                           dataset.w, want_score)
    # exact_sum turns any non-finite row into a non-finite total
    nll = -float(exact_sum(ll))
    if not np.isfinite(nll):
        raise NonFiniteLikelihood(f"pooled negative log-likelihood is {nll!r}")
    if not want_score:
        return nll, None
    neg_score = -exact_sum(score)
    if not np.isfinite(neg_score).all():
        raise NonFiniteLikelihood("pooled score is not finite")
    return nll, neg_score


def score_rows(theta, dataset):
    """Per-row loglik score matrix (n, dim); building block for the sandwich."""
    _, score = _eval_rows(theta, dataset.y, dataset.a, dataset.x, dataset.z,
                          dataset.w, want_score=True)
    return score

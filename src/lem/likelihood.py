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
scale and rho through the scaled logistic map of an unconstrained coordinate
varrho, rho = 2 / (1 + exp(-varrho)) - 1 = tanh(varrho / 2), whose inverse is
varrho = 2 atanh(rho).

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
enters through rho by the chain rule, with rho' = drho/dvarrho = (1 - rho^2) / 2
and d2rho/dvarrho2 = -rho rho'.

The row pass, :class:`RowState`, computes each row's u, c, sign, m,
log Phi(m), lambda, t = sign * lambda and loglik once, and keeps what its two
assemblies read: order 1, the score rows, is the (n, 4) gradient in the
coordinates spread over :class:`PreparedDesign`'s ``coords``, and order 2, the
information weights, column-major (4, 4, n), is summed against them.
``loglik_rows``, ``score_rows`` and ``pooled_negloglik_and_score`` each run one
row pass; a fit builds each Newton Hessian, and at the end the bread and the
meat, from the state of its pooled evaluation at that point (:mod:`lem.fit`).
All are pure in (theta, data).
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


def rho_of_varrho(varrho):
    """Map an unconstrained coordinate to a correlation in (-1, 1)."""
    return math.tanh(0.5 * varrho)


def varrho_of_rho(rho):
    """Inverse of :func:`rho_of_varrho`; requires -1 < rho < 1."""
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie strictly inside (-1, 1)")
    return 2.0 * math.atanh(rho)


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

    def __post_init__(self):
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "eta", np.asarray(self.eta, dtype=float))
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if not np.isfinite(self.to_array()).all():
            raise ValueError("theta contains non-finite entries")

    @property
    def sigma_y(self):
        return math.exp(self.log_sigma_y)

    @property
    def rho(self):
        return rho_of_varrho(self.varrho)

    @property
    def dim(self):
        return self.beta.size + self.eta.size + self.alpha.size + 2

    def to_array(self):
        return np.concatenate([
            self.beta, self.eta, self.alpha, [self.log_sigma_y, self.varrho],
        ])

    @classmethod
    def from_array(cls, vec, dims):
        """Unpack (beta, eta, alpha, log_sigma_y, varrho) given (J_X, J_Z, J_W)."""
        jx, jz, jw = dims
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (jx + jw + jz + 2,):
            raise ValueError(f"vector of length {vec.size} does not match dims {dims}")
        return cls(beta=vec[:jx].copy(), eta=vec[jx:jx + jw].copy(),
                   alpha=vec[jx + jw:jx + jw + jz].copy(),
                   log_sigma_y=float(vec[-2]), varrho=float(vec[-1]))


def parameter_names(dataset):
    """Flat names aligned with Theta.to_array for a given dataset."""
    names = [f"beta:{c}" for c in dataset.x_names]
    names += [f"eta:{c}" for c in dataset.w_names]
    names += [f"alpha:{c}" for c in dataset.z_names]
    names += ["log_sigma_y", "varrho"]
    return names


@dataclass(frozen=True)
class PreparedDesign:
    """One fit's theta-free arrays: the rows (y divided by 2**k) and the
    subject starts, with a LongDataset's ``n_rows`` and ``dims``: it stands
    in for the dataset wherever the likelihood's rows are read.

    A row's loglik depends on theta only through the coordinates
    (r, c, log sigma_y, varrho), each linear in theta (module docstring).
    ``coords`` (n, dim) holds each parameter's derivative of the one
    coordinate it enters (-x for beta, -a*w for eta, z for alpha, 1 for
    log sigma_y and varrho) and ``groups`` (dim,) numbers that coordinate
    0-3, so that the observed information is
    ``exact_gram(coords, groups, RowState(theta, design).weights())`` and
    the score rows spread each row's gradient in the coordinates over them.
    """

    y: np.ndarray
    a: np.ndarray
    x: np.ndarray
    z: np.ndarray
    w: np.ndarray
    subject_starts: np.ndarray
    coords: np.ndarray
    groups: np.ndarray
    n_rows: int
    dims: tuple

    @classmethod
    def of(cls, dataset, k=0):
        """The design of ``dataset`` with y times 2**-k (a design is its own)."""
        if isinstance(dataset, cls):
            return dataset
        y, a, x, z, w = dataset.y, dataset.a, dataset.x, dataset.z, dataset.w
        jx, jz, jw = dataset.dims
        coords = np.hstack([-x, -w * a[:, None], z, np.ones((y.shape[0], 2))])
        groups = np.repeat([0, 1, 2, 3], [jx + jw, jz, 1, 1])
        return cls(np.ldexp(y, -k) if k else y, a, x, z, w, dataset.subject_starts,
                   coords, groups, dataset.n_rows, dataset.dims)


# extreme trial points from the line search may overflow to inf or nan; the
# pooled wrapper turns a non-finite value or score into NonFiniteLikelihood,
# which the fit's objective turns into +inf
_QUIET = dict(divide="ignore", invalid="ignore", over="ignore", under="ignore")


def _scalars(theta):
    """sigma_y, rho, sqrt(1 - rho^2) and the first two derivatives of rho in varrho.

    sigma_y and sqrt(1 - rho^2) are numpy scalars, bit for bit the Python
    floats where those are finite: sigma_y past the float range, its square
    and a division by sqrt(1 - rho^2) = 0 then give inf (quietly under
    _QUIET) where Python floats raise OverflowError or ZeroDivisionError.
    """
    rho = theta.rho
    try:
        sigma = np.float64(theta.sigma_y)
    except OverflowError:
        sigma = np.float64(math.inf)
    sq = np.float64(math.sqrt(max(1.0 - rho * rho, 0.0)))
    d1 = 0.5 * (1.0 - rho * rho)
    return sigma, rho, sq, d1, -rho * d1


class RowState:
    """The row pass at one point (module docstring): theta and each row's
    u = r / sigma_y, c = z'alpha, m, lambda, t = sign * lambda and loglik
    ``ll``, with the two assemblies as methods.  ``score`` holds the score
    rows once a pooled evaluation has assembled them."""

    score = None

    def __init__(self, theta, d):
        """The row pass at ``theta`` over the rows (y, a, x, z, w) of ``d``."""
        self.theta = theta
        sigma, rho, sq, _, _ = _scalars(theta)
        with np.errstate(**_QUIET):
            r = d.y - colwise_matvec(d.x, theta.beta) - colwise_matvec(d.w, theta.eta) * d.a
            self.u = u = r / sigma
            self.c = c = colwise_matvec(d.z, theta.alpha)
            sign = 2.0 * d.a - 1.0
            self.m = m = sign * (c + rho * u) / sq
            log_cdf = log_std_normal_cdf(m)
            self.ll = -0.5 * u * u - LOG_SQRT_2PI - theta.log_sigma_y + log_cdf
            # inverse Mills ratio phi(m)/Phi(m), stable through the log kernels
            self.lam = np.exp(-0.5 * m * m - LOG_SQRT_2PI - log_cdf)
            self.t = self.lam * sign

    def scores(self, d):
        """Order 1: the score rows (n, dim) in the unconstrained coordinates: the
        gradient in (r, c, log sigma_y, varrho), with the sign of the design's
        ``coords`` folded in, spread over them."""
        u, c, t = self.u, self.c, self.t
        sigma, rho, sq, d1, _ = _scalars(self.theta)
        with np.errstate(**_QUIET):
            g = np.empty((u.shape[0], 4))
            g[:, 0] = -((u - t * rho / sq) / sigma)
            g[:, 1] = t / sq
            g[:, 2] = u * u - 1.0 - t * rho * u / sq
            g[:, 3] = t * (u + rho * c) / sq ** 3 * d1
            # take, then multiply in place: one (n, dim) array, not two
            score = np.take(g, d.groups, axis=1)
            score *= d.coords
        return score

    def weights(self):
        """Order 2: the information weights, column-major (4, 4, n): minus each
        row's Hessian in the coordinates (r, c, log sigma_y, varrho) that
        :class:`PreparedDesign` describes."""
        u, c, t = self.u, self.c, self.t
        sigma, rho, sq, d1, d2 = _scalars(self.theta)
        with np.errstate(**_QUIET):
            # sign * dm/d(r, c, log sigma_y, rho); the sign squares away in the outer product
            dm = np.empty((4, u.shape[0]))
            dm[0] = rho / (sq * sigma)
            dm[1] = 1.0 / sq
            dm[2] = -rho * u / sq
            dm[3] = (u + rho * c) / sq ** 3
            # in place: at 150k rows each (4, 4, n) temporary takes 19 MB
            hess = dm[:, None] * dm[None, :]
            hess *= inverse_mills_slope(self.m, self.lam)
            # the Gaussian terms, and lambda times the second derivatives of m
            hess[0, 0] -= 1.0 / sigma ** 2
            upper = {
                (0, 2): 2.0 * u / sigma - t * rho / (sq * sigma),
                (0, 3): t / (sq ** 3 * sigma),
                (1, 3): t * rho / sq ** 3,
                (2, 2): t * rho * u / sq - 2.0 * u * u,
                (2, 3): -t * u / sq ** 3,
                (3, 3): t * (c / sq ** 3 + 3.0 * rho * (u + rho * c) / sq ** 5),
            }
            for (i, j), term in upper.items():
                hess[i, j] += term
                if i != j:
                    hess[j, i] += term
            # rho -> varrho by the chain rule
            hess[3] *= d1
            hess[:, 3] *= d1
            hess[3, 3] += t * dm[3] * d2
        return np.negative(hess, out=hess)


def loglik_rows(theta, dataset):
    """Per-row log-likelihood (n,); each entry is a function of its row alone."""
    return RowState(theta, dataset).ll


def score_rows(theta, dataset):
    """Per-row loglik score matrix (n, dim); building block for the sandwich."""
    design = PreparedDesign.of(dataset)
    return RowState(theta, design).scores(design)


def pooled_negloglik_and_score(theta, dataset, *, _keep_rows=False):
    """Negative pooled log-likelihood and negative pooled score.

    Sums run over every subject's own observation rows (ragged clusters are
    simply shorter blocks).  Raises NonFiniteLikelihood on overflow, which
    signals a pathological theta reached outside the line-search guard.
    With the private ``_keep_rows`` the point's RowState, score rows
    included, comes third.
    """
    design = PreparedDesign.of(dataset)
    state = RowState(theta, design)
    score = state.scores(design)
    # exact_sum turns any non-finite row into a non-finite total
    nll = -float(exact_sum(state.ll))
    if not np.isfinite(nll):
        raise NonFiniteLikelihood(f"pooled negative log-likelihood is {nll!r}")
    neg_score = -exact_sum(score)
    if not np.isfinite(neg_score).all():
        raise NonFiniteLikelihood("pooled score is not finite")
    state.score = score
    return (nll, neg_score, state) if _keep_rows else (nll, neg_score)

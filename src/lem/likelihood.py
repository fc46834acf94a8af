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

The row pass, :class:`RowState`, reads y, a and ``coords`` of a
:class:`PreparedDesign`, computes each row's u, c, sign, m, log Phi(m), lambda,
t = sign * lambda and loglik once, and keeps what its assemblies read: order
1, the (n, 4) gradient in the coordinates, which the score rows spread over
``coords``, and order 2, the information weights, column-major (4, 4, n),
summed against them.
``loglik_rows``, ``score_rows`` and ``pooled_negloglik_and_score`` each run one
row pass, unless the caller hands the last one its state.  A fit steers its
solver on plain sums of the gradient against ``coords``, builds each Newton
Hessian from the state of the accepted point, and runs
``pooled_negloglik_and_score`` once, at the point it reports, on the
solver's state there, which then gives the bread and the meat (:mod:`lem.fit`).
All are pure in (theta, data).
Pooled sums add row-pure per-row values by :func:`lem.numerics.exact_sum` and
:func:`lem.numerics.exact_gram`, whose pre-rounded slices numpy and BLAS sum
exactly in any order, so they are bit-invariant under row permutation and
double exactly under duplication.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteLikelihood
from .numerics import (
    LOG_SQRT_2PI,
    colwise_matvec,
    exact_sum,
    inverse_mills_ratio,
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


# the columns of PreparedDesign.coords, as slices: one per coordinate group
# (r, c, log sigma_y, varrho), then beta's and eta's, which make up r's
Spans = namedtuple("Spans", "r c log_sigma_y varrho beta eta")


@dataclass(frozen=True)
class PreparedDesign:
    """One fit's theta-free arrays: y (divided by 2**k), a, the subject starts
    and ``coords``, with a LongDataset's ``n_rows`` and ``dims``.  A fit
    reads its rows here, never from a dataset's x, z or w, whose memory order
    depends on where the data came from: ``coords`` is C-ordered.

    A row's loglik depends on theta only through the coordinates
    (r, c, log sigma_y, varrho), each linear in theta (module docstring).
    ``coords`` (n, dim) holds each parameter's derivative of the one
    coordinate it enters (-x for beta, -a*w for eta, z for alpha, 1 for
    log sigma_y and varrho), in the column ranges ``spans`` (:data:`Spans`),
    and ``groups`` (dim,) numbers that coordinate 0-3, so that the observed
    information is ``exact_gram(coords, groups, RowState(theta, design).weights())``
    and the score rows spread each row's gradient in the coordinates over them.
    """

    y: np.ndarray
    a: np.ndarray
    subject_starts: np.ndarray
    coords: np.ndarray
    spans: Spans
    groups: np.ndarray
    n_rows: int
    dims: tuple

    @classmethod
    def of(cls, dataset, k=0):
        """The design of ``dataset`` with y times 2**-k (a design is its own)."""
        if isinstance(dataset, cls):
            return dataset
        y, a = dataset.y, dataset.a
        coords = np.hstack([-dataset.x, -dataset.w * a[:, None], dataset.z, np.ones((y.shape[0], 2))])
        # the one place that derives columns of coords from the block dimensions
        jx, jz, jw = dataset.dims
        r, c = jx + jw, jx + jw + jz
        spans = Spans(slice(0, r), slice(r, c), slice(c, c + 1), slice(c + 1, c + 2),
                      slice(0, jx), slice(jx, r))
        return cls(np.ldexp(y, -k) if k else y, a, dataset.subject_starts, coords, spans,
                   np.repeat([0, 1, 2, 3], [r, jz, 1, 1]), dataset.n_rows, dataset.dims)


# extreme trial points from the line search may overflow to inf or nan; the
# pooled wrapper turns a non-finite value or score into NonFiniteLikelihood,
# and the fit's steering evaluation into +inf
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
        """The row pass at ``theta`` over the rows of the PreparedDesign ``d``."""
        self.theta = theta
        sigma, rho, sq, _, _ = _scalars(theta)
        coords, spans = d.coords, d.spans
        with np.errstate(**_QUIET):
            # two products, as y - x'beta - (w'eta) a: negation is exact and -w*a is -w or +-0
            r = (d.y + colwise_matvec(coords[:, spans.beta], theta.beta)
                 + colwise_matvec(coords[:, spans.eta], theta.eta))
            self.u = u = r / sigma
            self.c = c = colwise_matvec(coords[:, spans.c], theta.alpha)
            sign = 2.0 * d.a - 1.0
            self.m = m = sign * (c + rho * u) / sq
            log_cdf = log_std_normal_cdf(m)
            self.ll = -0.5 * u * u - LOG_SQRT_2PI - theta.log_sigma_y + log_cdf
            self.lam = inverse_mills_ratio(m, log_cdf)
            self.t = self.lam * sign

    def gradient(self):
        """Order 1 in the coordinates: each row's (n, 4) loglik gradient in
        (r, c, log sigma_y, varrho), with the sign of :class:`PreparedDesign`'s
        ``coords`` folded in, so that a parameter's derivative is its
        ``coords`` entry times its group's column."""
        u, c, t = self.u, self.c, self.t
        sigma, rho, sq, d1, _ = _scalars(self.theta)
        with np.errstate(**_QUIET):
            g = np.empty((u.shape[0], 4))
            g[:, 0] = -((u - t * rho / sq) / sigma)
            g[:, 1] = t / sq
            g[:, 2] = u * u - 1.0 - t * rho * u / sq
            g[:, 3] = t * (u + rho * c) / sq ** 3 * d1
        return g

    def scores(self, d):
        """Order 1: the score rows (n, dim) in the unconstrained coordinates,
        the :meth:`gradient` spread over the design's ``coords``."""
        with np.errstate(**_QUIET):
            # take, then multiply in place: one (n, dim) array, not two
            score = np.take(self.gradient(), d.groups, axis=1)
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
    return RowState(theta, PreparedDesign.of(dataset)).ll


def score_rows(theta, dataset):
    """Per-row loglik score matrix (n, dim); building block for the sandwich."""
    design = PreparedDesign.of(dataset)
    return RowState(theta, design).scores(design)


def pooled_negloglik_and_score(theta, dataset, *, _keep_rows=False, _state=None):
    """Negative pooled log-likelihood and negative pooled score.

    Sums run over every subject's own observation rows (ragged clusters are
    simply shorter blocks).  Raises NonFiniteLikelihood on overflow, which
    signals a pathological theta reached outside the line-search guard.
    With the private ``_keep_rows`` the point's RowState, score rows
    included, comes third.  The private ``_state`` is the RowState at theta
    when the caller has it (a fit passes its solver's last one); the row pass
    is pure, so the result is the same bit for bit.
    """
    design = PreparedDesign.of(dataset)
    state = RowState(theta, design) if _state is None else _state
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

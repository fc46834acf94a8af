"""Stable normal special functions, exact reductions and small dense algebra.

All matrices in this package are tiny (never beyond the parameter dimension,
~25), so plain dense O(n^3) routines are used throughout.  "Symmetric matrix"
arguments are ordinary ndarrays validated by :func:`as_sym_matrix`; there is
no wrapper class.

Functions here are pure and reentrant; NaN screening happens at the data
validation boundary, not in these kernels.

Dense linear algebra in ``lem`` goes through ``numpy.linalg`` and numpy's
matrix products only; scipy is used for special functions.  The two wheels
bundle separate OpenBLAS builds, each with its own thread pool, and a fit
that alternates between them pays for waking one pool while the other spins.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import NotPositiveDefinite, SingularMatrix

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

# Below this point the erfc kernel is abandoned for the asymptotic tail
# expansion; keeps log Phi finite (no underflow) down to x = -300 and beyond.
# At -20 the eight-term series and the erfc kernel agree to about 3e-14, so the
# log-likelihood and its derivatives are smooth across the switch.
TAIL_CROSSOVER = -20.0
# Mills-ratio series S(v) = sum_k (-1)^k (2k - 1)!! v^k at v = x^-2, eight terms:
# the first one left out is 2027025 v^8, below 4e-15 for x <= -20
_MILLS_SERIES = (1.0, -1.0, 3.0, -15.0, 105.0, -945.0, 10395.0, -135135.0)

# exact_sum grids leave room for 2**26 rows (9 GB at 17 columns), so every fold
# sums exactly; three folds of 26 bits drop < n_rows * max|m| * 2**-77.
_CAP_BITS = 26
EXACT_SUM_MAX_ROWS = 2 ** _CAP_BITS
EXACT_SUM_FOLDS = 3
# exact sums work through their rows in blocks of about this many entries:
# 64 KiB temporaries stay in cache, and below glibc's default 128 KiB mmap
# threshold, so they are reused instead of mapped and faulted in afresh
EXACT_BLOCK_ENTRIES = 2 ** 13


def std_normal_pdf(x):
    """Standard normal density, (2*pi)^(-1/2) * exp(-x^2 / 2)."""
    xa = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * xa * xa - LOG_SQRT_2PI)
    return out if isinstance(x, np.ndarray) else float(out)


def std_normal_log_pdf(x):
    """log of the standard normal density."""
    xa = np.asarray(x, dtype=float)
    out = -0.5 * xa * xa - LOG_SQRT_2PI
    return out if isinstance(x, np.ndarray) else float(out)


def std_normal_cdf(x):
    """Standard normal CDF via the complementary error function kernel."""
    xa = np.asarray(x, dtype=float)
    out = 0.5 * special.erfc(-xa / _SQRT2)
    return out if isinstance(x, np.ndarray) else float(out)


def log_std_normal_cdf(x):
    """log Phi(x) without underflow for arbitrarily negative x.

    Three regimes:

    * x < -20: eight-term Mills-ratio asymptotic expansion,
      ``-x^2/2 - log(-x) - log(2*pi)/2 + log(S)``,
      ``S = 1 - x^-2 + 3x^-4 - 15x^-6 + ... - 135135x^-14``;
    * -20 <= x <= 0: ``log(erfc(-x/sqrt(2)) / 2)``;
    * x > 0: ``log1p(-erfc(x/sqrt(2)) / 2)`` so the result approaches 0 from
      below at full precision instead of rounding to exactly 0.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(xa)

    lo = xa < TAIL_CROSSOVER
    hi = xa > 0.0
    mid = ~(lo | hi)
    if lo.any():
        v = xa[lo]
        series = _polynomial(_MILLS_SERIES, 1.0 / (v * v))
        out[lo] = -0.5 * v * v - np.log(-v) - LOG_SQRT_2PI + np.log(series)
    if mid.any():
        out[mid] = np.log(0.5 * special.erfc(-xa[mid] / _SQRT2))
    if hi.any():
        out[hi] = np.log1p(-0.5 * special.erfc(xa[hi] / _SQRT2))

    if isinstance(x, np.ndarray):
        return out.reshape(np.shape(x))
    return float(out[0])


def _polynomial(coefs, v):
    """sum_k coefs[k] * v**k by Horner's rule."""
    out = np.zeros_like(v)
    for c in reversed(coefs):
        out = out * v + c
    return out


def inverse_mills_slope(m, lam):
    """d lambda / dm for the inverse Mills ratio lambda = phi(m) / Phi(m).

    Takes ``lam`` as evaluated through :func:`log_std_normal_cdf`.  Above
    TAIL_CROSSOVER the slope is ``-lambda (m + lambda)``.  Below it that form
    cancels badly, and lambda is the series form ``-m / S(m)``, so the slope is
    that form's derivative ``-1/S + m S'/S^2``, where ``m S' = -2 sum_k k c_k v^k``
    at ``v = m^-2`` for the series coefficients ``c_k``.
    """
    slope = -lam * (m + lam)
    lo = m < TAIL_CROSSOVER
    if lo.any():
        v = 1.0 / (m[lo] * m[lo])
        s = _polynomial(_MILLS_SERIES, v)
        m_ds = -2.0 * _polynomial([k * c for k, c in enumerate(_MILLS_SERIES)], v)
        slope[lo] = (m_ds - s) / (s * s)
    return slope


def as_sym_matrix(m, tol=1e-12):
    """Validate a dense symmetric matrix and return its symmetrized copy.

    Raises ValueError when ``m`` is not square, empty, or departs from
    symmetry by more than ``tol`` relative to its largest entry.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix of dimension >= 1, got shape {a.shape}")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (a + a.T)


def cholesky(m):
    """Lower-triangular L with L @ L.T == m.

    Raises NotPositiveDefinite when a pivot is nonpositive, which for
    simulation configs signals an invalid correlation structure.
    """
    a = as_sym_matrix(m)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix of dimension {a.shape[0]} is not positive definite") from exc


def solve_sym(m, rhs):
    """Solve m @ x = rhs for symmetric invertible m.

    Raises SingularMatrix when the factorization fails or the residual check
    ``||m @ x - rhs|| <= 1e-8 * ||rhs||`` does not hold (collinear design or
    non-identified fit).
    """
    a = as_sym_matrix(m)
    b = np.asarray(rhs, dtype=float)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("symmetric solve failed: matrix is singular") from exc
    norm_b = np.linalg.norm(b)
    if norm_b > 0:
        resid = np.linalg.norm(a @ x - b) / norm_b
        if not np.isfinite(resid) or resid > 1e-8:
            raise SingularMatrix(f"symmetric solve residual {resid:.3e} exceeds 1e-8; matrix is numerically singular")
    return x


def colwise_matvec(m, v):
    """m @ v accumulated column by column.

    Unlike BLAS gemv (whose SIMD blocking makes a row's result depend on its
    position), this gives each row a result that is a pure function of the
    row, so pooled quantities are bit-invariant under row permutations.
    """
    out = np.zeros(m.shape[0])
    for j in range(m.shape[1]):
        out += m[:, j] * v[j]
    return out


def _biggest(a, axis=-1):
    """Largest magnitude along ``axis`` (0 when empty, NaN if any entry is)."""
    return np.maximum(a.max(axis=axis, initial=0.0), -a.min(axis=axis, initial=0.0))


def _fold_sums(a, biggest):
    """Exact sums of each pre-rounded fold of ``a`` (one row per column) on the
    grid fixed by ``biggest``; consumes ``a``."""
    top = np.frexp(biggest)[1] + _CAP_BITS + 1  # 2**top >= 2**(_CAP_BITS + 1) * biggest
    q = np.empty_like(a)
    sums = []
    for fold in range(EXACT_SUM_FOLDS):
        c = np.ldexp(1.5, top - fold * (52 - _CAP_BITS))[..., None]
        np.add(a, c, out=q)
        q -= c
        sums.append(q.sum(axis=-1))
        a -= q
    return sums


def _check_rows(n):
    if n > EXACT_SUM_MAX_ROWS:
        raise ValueError(f"exact sums take at most {EXACT_SUM_MAX_ROWS} rows, got {n}")


def _blocked_exact_sums(n, width, block, biggest=None):
    """Exact sums over ``n`` rows of ``width`` columns, a block of rows at a time.

    ``block(start, stop)`` returns those rows as a fresh (width, rows) array;
    blocks hold about EXACT_BLOCK_ENTRIES entries.  Each column's grid is
    fixed by ``biggest``, its largest magnitude, which a first pass over the
    blocks finds when it is not given.  Fold sums on a fixed grid are exact,
    so adding them up block by block changes nothing.
    """
    step = max(1, EXACT_BLOCK_ENTRIES // max(width, 1))
    starts = range(0, n, step)
    # non-finite entries are allowed: they make their column's sum non-finite
    with np.errstate(invalid="ignore", over="ignore"):
        if biggest is None:
            biggest = np.zeros(width)
            for start in starts:
                biggest = np.maximum(biggest, _biggest(block(start, start + step)))
        folds = [np.zeros(width)] * EXACT_SUM_FOLDS
        for start in starts:
            parts = _fold_sums(block(start, start + step), biggest)
            folds = [acc + part for acc, part in zip(folds, parts)]
        # finest fold first, so only the last addition rounds at the total's scale
        return sum(reversed(folds))


def exact_sum(m):
    """Column sums over axis 0, reproducible to the last bit.

    Pre-rounded K-fold summation (Demmel & Nguyen, "Fast Reproducible
    Floating-Point Summation", ARITH 2013): each fold rounds the entries onto
    the grid ``(m + c) - c``, ``c = 1.5 * 2**e``, sums that part exactly with
    ``np.sum`` and passes the exact remainder on.  ``e`` depends only on the
    column's largest magnitude and the row cap, so the result ignores row
    order and doubles exactly when the rows are duplicated.  Non-finite
    entries, or magnitudes within 2**28 of overflow, give a non-finite sum.
    The rows are summed a block at a time, so the temporaries stay small.
    """
    n = np.shape(m)[0]
    _check_rows(n)
    a = np.asarray(m, dtype=float)
    cols = a[:, None] if a.ndim == 1 else a
    sums = _blocked_exact_sums(n, cols.shape[1],
                               lambda start, stop: np.array(cols[start:stop].T, order="C"),
                               _biggest(cols, axis=0))
    return sums[0] if a.ndim == 1 else sums


def exact_gram(m, groups=None, weights=None):
    """Symmetric matrix whose (j, k) entry is the exact sum over rows of
    ``m[:, j] * m[:, k]``, times ``weights[:, groups[j], groups[k]]`` when
    weights (n, g, g) and column groups (p,) are given.

    Each entry is bit-identical to :func:`exact_sum` of the materialised
    product column, but the n x p(p+1)/2 products are never held at once:
    they are formed a block of rows at a time, in two passes.  The first finds
    each product column's largest magnitude, which fixes its grid; the second
    sums the folds of every block on that grid.
    """
    n, p = m.shape
    _check_rows(n)
    j, k = np.triu_indices(p)
    if weights is not None:
        n_groups = weights.shape[-1]
        groups = np.asarray(groups)
        pair_group = groups[j] * n_groups + groups[k]

    def products(start, stop):
        cols = np.ascontiguousarray(m[start:stop].T)
        out = cols[j] * cols[k]
        if weights is not None:
            out *= np.ascontiguousarray(weights[start:stop].reshape(-1, n_groups ** 2).T)[pair_group]
        return out

    gram = np.empty((p, p))
    gram[j, k] = gram[k, j] = _blocked_exact_sums(n, j.size, products)
    return gram


def cluster_sandwich(bread, row_scores, starts):
    """Cluster-robust covariance bread^-1 * meat * bread^-T, where the meat is
    the exact Gram of the per-cluster totals of ``row_scores`` and ``starts``
    holds the first row of each cluster of contiguous rows."""
    cluster_scores = np.add.reduceat(row_scores, starts, axis=0)
    half = solve_sym(bread, exact_gram(cluster_scores))
    cov = solve_sym(bread, half.T)
    return 0.5 * (cov + cov.T)

"""Normal special functions, exact reductions and small dense algebra.

Square matrices are tiny (the parameter dimension, ~25), so plain dense
O(n^3) routines serve them; the row reductions take (n, p) row matrices, the
exact ones up to EXACT_SUM_MAX_ROWS = 2**26 rows.  "Symmetric matrix"
arguments are ordinary ndarrays validated by :func:`as_sym_matrix`; there is
no wrapper class.

Functions here are pure and reentrant; NaN screening happens at the data
validation boundary, not in these kernels.

Dense linear algebra in ``lem`` goes through ``numpy.linalg`` and numpy's
matrix products only; scipy is used for special functions (``ndtr``,
``log_ndtr``; only the inverse-Mills-ratio slope has its own series).  The
two wheels bundle separate OpenBLAS builds, each with its own thread pool,
and a fit that alternates between them pays for waking one pool while the
other spins.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import special

from .errors import NotPositiveDefinite, SingularMatrix

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Below this point inverse_mills_slope takes the Mills-ratio series, as
# -lambda (m + lambda) loses about log10(m^2) digits as m -> -inf; at -20 the
# two forms agree to about 1e-11 relative, so the Hessian is smooth there.
TAIL_CROSSOVER = -20.0
# Mills-ratio series S(v) = sum_k (-1)^k (2k - 1)!! v^k at v = x^-2, eight terms:
# the first one left out is 2027025 v^8, below 4e-15 for x <= -20
_MILLS_SERIES = (1.0, -1.0, 3.0, -15.0, 105.0, -945.0, 10395.0, -135135.0)

# Ozaki splitting (Numer. Algorithms 59 (2012) 95-118): exact sums cut columns
# into slices of a few bits on grids fixed by their largest magnitude and a cap
# of 2**26 rows (9 GB at 17 columns), so that slices sum exactly in any order
EXACT_SUM_MAX_ROWS = 2 ** 26
_SUM_BITS, _SUM_SLICES = 26, 3
_GRAM_BITS, _GRAM_SLICES = 13, 4
# rows are split in blocks of about this many entries: 64 KiB temporaries stay in
# cache and below glibc's 128 KiB mmap threshold, so they are not faulted afresh
EXACT_BLOCK_ENTRIES = 2 ** 13


def std_normal_pdf(x):
    """Standard normal density, (2*pi)^(-1/2) * exp(-x^2 / 2)."""
    return np.exp(std_normal_log_pdf(x))


def std_normal_log_pdf(x):
    """log of the standard normal density."""
    x = np.asarray(x, dtype=float)
    return -0.5 * x * x - LOG_SQRT_2PI


def std_normal_cdf(x):
    """Standard normal CDF, scipy's ``ndtr``."""
    return special.ndtr(x)


def log_std_normal_cdf(x):
    """log Phi(x), scipy's ``log_ndtr``: finite for arbitrarily negative x,
    and approaching 0 from below at full precision as x grows.  Every normal
    log-CDF of the likelihood goes through this one function."""
    return special.log_ndtr(x)


def inverse_mills_slope(m, lam):
    """d lambda / dm for the inverse Mills ratio lambda = phi(m) / Phi(m).

    Takes ``lam`` as evaluated through :func:`log_std_normal_cdf`.  Above
    TAIL_CROSSOVER the slope is ``-lambda (m + lambda)``.  Below it that form
    cancels badly (scipy has no Mills-ratio slope), so the slope is the
    derivative ``-1/S + m S'/S^2`` of the series form ``lambda = -m / S(m)``,
    where ``m S' = -2 sum_k k c_k v^k`` at ``v = m^-2`` for the series
    coefficients ``c_k``.
    """
    slope = -lam * (m + lam)
    lo = m < TAIL_CROSSOVER
    if lo.any():
        v = 1.0 / (m[lo] * m[lo])
        s = polyval(v, _MILLS_SERIES)
        m_ds = -2.0 * polyval(v, [k * c for k, c in enumerate(_MILLS_SERIES)])
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

    Raises SingularMatrix when ``m`` or ``rhs`` is not finite, the
    factorization fails or the residual check ``||m @ x - rhs|| <= 1e-8 *
    ||rhs||`` does not hold (collinear design or non-identified fit).
    """
    a = as_sym_matrix(m)
    b = np.asarray(rhs, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise SingularMatrix("symmetric solve of a system that is not finite")
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("symmetric solve failed: matrix is singular") from exc
    # the norms square entries, so both sides are first scaled to max |rhs| = 1
    scale = np.max(np.abs(b), initial=0.0)
    if scale > 0:
        resid = np.linalg.norm((a @ x - b) / scale) / np.linalg.norm(b / scale)
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


def _split(a, top, bits, count):
    """``count`` slices of ``a`` (one row per column): slice s of row j is the rest
    of it pre-rounded by ``(a + c) - c`` onto the multiples of ``2**(top[j] -
    bits * (s + 1))``, at most 2**(bits - 1) of them if |a[j]| < 2**(top[j] - 1)."""
    slices = []
    for s in range(1, count + 1):
        c = np.ldexp(1.5, top + 52 - bits * s)[:, None]
        q = a + c
        q -= c
        slices.append(q)
        a = a - q
    return slices


def exact_sum(m):
    """Column sums over axis 0, reproducible to the last bit.

    Pre-rounded 3-fold summation (Demmel & Nguyen, ARITH 2013): three 26-bit
    slices on grids ``frexp(max|column|) + 1``, each summed exactly by numpy,
    added finest first; the rest is below ``n_rows * max|column| * 2**-77``.
    Non-finite entries, or magnitudes within 2**28 of overflow, give NaN/inf.
    """
    n = np.shape(m)[0]
    if n > EXACT_SUM_MAX_ROWS:
        raise ValueError(f"exact sums take at most {EXACT_SUM_MAX_ROWS} rows, got {n}")
    a = np.asarray(m, dtype=float)
    cols = a[:, None] if a.ndim == 1 else a
    top = np.frexp(_biggest(cols, axis=0))[1] + 1
    step = max(1, EXACT_BLOCK_ENTRIES // max(cols.shape[1], 1))
    sums = [np.zeros(cols.shape[1])] * _SUM_SLICES
    # non-finite entries are allowed: they make their column's sum non-finite
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, n, step):
            parts = _split(np.array(cols[start:start + step].T, order="C"), top, _SUM_BITS, _SUM_SLICES)
            sums = [acc + part.sum(axis=-1) for acc, part in zip(sums, parts)]
        total = sum(reversed(sums))
    return total[0] if a.ndim == 1 else total


def exact_gram(m, groups=None, weights=None):
    """Symmetric matrix whose (j, k) entry is the sum over rows of
    ``m[:, j] * m[:, k]``, times ``weights[groups[j], groups[k]]`` when
    weights (g, g, n), column-major, and column groups (p,) are given,
    reproducible to the last bit.

    ``m`` and a right factor (``m``, or column k times ``weights[g,
    groups[k]]`` for each g <= groups[k], formed a block of rows at a time) are
    cut into four 13-bit slices on grids ``frexp(L_j) + 1`` and ``frexp(R_k) +
    1``, where ``L_j = max|m[:, j]|`` and ``R_k = L_k * max|weights[g,
    groups[k]]|``.  BLAS sums the slice products with s + t < 4, and the
    levels s + t are added finest first.  Exactness rule: 2 x 13 slice bits +
    26 row-cap bits <= 53, so the <= 4 pairs of a level sum exactly in any
    order, blocking or thread count, with or without FMA (unless ``L_j * R_k
    < 2**-970`` underflows).  Oracle bound: the slices left out are below
    ``1.25 * 2**-48 * L_j * R_k`` a row, so an entry is within ``2**-47 * n *
    L_j * R_k + 2**-51 * |ref|`` of ``ref``, the ``math.fsum`` of ``m[:, j] *
    right[:, k]``.  Non-finite ``m[i, j]`` make row and column j non-finite.
    """
    if m.shape[0] > EXACT_SUM_MAX_ROWS:
        raise ValueError(f"exact sums take at most {EXACT_SUM_MAX_ROWS} rows, got {m.shape[0]}")
    return _gram(m, groups, weights, _GRAM_SLICES)


def gram(m, groups=None, weights=None):
    """:func:`exact_gram` by plain BLAS products, without slices: fast, but not
    reproducible to the last bit.  Oracle bound: an entry is within ``(n + 2) *
    2**-52`` times the sum of the magnitudes of its n products."""
    return _gram(m, groups, weights, 1)


def _gram(m, groups, weights, count):
    """exact_gram with ``count`` slices of each factor; gram (count 1) with the factors."""
    p = m.shape[1]
    groups = np.zeros(p, dtype=int) if weights is None else np.asarray(groups)
    n_groups = groups.max(initial=0) + 1
    # right column i is m[:, col[i]] times weights[group[i], groups[col[i]]]
    group, col = np.nonzero(np.arange(n_groups)[:, None] <= groups)
    step = max(1, EXACT_BLOCK_ENTRIES // max(col.size, 1))
    levels = np.zeros((count, p, col.size))
    # non-finite entries are allowed: they make their rows and columns non-finite
    with np.errstate(invalid="ignore", over="ignore"):
        if count > 1:  # grids fixed by whole columns, never by a block of rows
            biggest = _biggest(m, axis=0)
            top = np.frexp(biggest)[1] + 1
            if weights is not None:
                bound = biggest[col] * _biggest(weights)[group, groups[col]]
                right_top = np.frexp(np.minimum(bound, np.finfo(float).max))[1] + 1  # overflow: c = inf
        for start in range(0, m.shape[0], step):
            block = np.array(m[start:start + step].T, order="C")
            left = right = _split(block, top, _GRAM_BITS, count) if count > 1 else [block]
            if weights is not None:
                factor = block[col] * weights[group, groups[col], start:start + step]
                right = _split(factor, right_top, _GRAM_BITS, count) if count > 1 else [factor]
            for s in range(count):
                for t in range(count - s):
                    levels[s + t] += left[s] @ right[t].T
        full = sum(reversed(levels))  # finest level first
    # entry (j, k) is left j against right (groups[j], k), which exists when
    # groups[j] <= groups[k]: keep the (j, k) or (k, j) ordered by (group, column)
    pos = np.zeros((n_groups, p), dtype=int)
    pos[group, col] = np.arange(col.size)
    entries = np.take_along_axis(full, pos[groups], axis=1)
    key = groups * p + np.arange(p)
    return np.where(key[:, None] <= key, entries, entries.T)


def cluster_sandwich(bread, row_scores, starts):
    """Cluster-robust covariance bread^-1 * meat * bread^-T, where the meat is
    the exact Gram of the per-cluster totals of ``row_scores`` and ``starts``
    holds the first row of each cluster of contiguous rows."""
    cluster_scores = np.add.reduceat(row_scores, starts, axis=0)
    half = solve_sym(bread, exact_gram(cluster_scores))
    cov = solve_sym(bread, half.T)
    return 0.5 * (cov + cov.T)

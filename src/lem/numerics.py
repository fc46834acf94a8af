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
    ``m[:, j] * m[:, k]``, times ``weights[:, groups[j], groups[k]]`` when
    weights (n, g, g) and column groups (p,) are given, reproducible to the
    last bit.

    ``m`` and a right factor (``m``, or column k times ``weights[:, g,
    groups[k]]`` for each g <= groups[k], formed a block of rows at a time) are
    cut into four 13-bit slices on grids ``frexp(L_j) + 1`` and ``frexp(R_k) +
    1``, where ``L_j = max|m[:, j]|`` and ``R_k = L_k * max|weights[:, g,
    groups[k]]|``.  BLAS sums the slice products with s + t < 4, and the
    levels s + t are added finest first.  Exactness rule: 2 x 13 slice bits +
    26 row-cap bits <= 53, so the <= 4 pairs of a level sum exactly in any
    order, blocking or thread count, with or without FMA (unless ``L_j * R_k
    < 2**-970`` underflows).  Oracle bound: the slices left out are below
    ``1.25 * 2**-48 * L_j * R_k`` a row, so an entry is within ``2**-47 * n *
    L_j * R_k + 2**-51 * |ref|`` of ``ref``, the ``math.fsum`` of ``m[:, j] *
    right[:, k]``.  Non-finite ``m[i, j]`` make row and column j non-finite.
    """
    n, p = m.shape
    if n > EXACT_SUM_MAX_ROWS:
        raise ValueError(f"exact sums take at most {EXACT_SUM_MAX_ROWS} rows, got {n}")
    biggest = _biggest(m, axis=0)
    top = np.frexp(biggest)[1] + 1
    groups = np.zeros(p, dtype=int) if weights is None else np.asarray(groups)
    n_groups = groups.max(initial=0) + 1
    # right column i is m[:, col[i]] times weights[:, group[i], groups[col[i]]]
    group, col = np.nonzero(np.arange(n_groups)[:, None] <= groups)
    step = max(1, EXACT_BLOCK_ENTRIES // max(col.size, 1))
    levels = np.zeros((_GRAM_SLICES, p, col.size))
    # non-finite entries are allowed: they make their rows and columns non-finite
    with np.errstate(invalid="ignore", over="ignore"):
        if weights is not None:
            bound = biggest[col] * _biggest(weights, axis=0)[group, groups[col]]
            right_top = np.frexp(np.minimum(bound, np.finfo(float).max))[1] + 1  # overflow: c = inf
        for start in range(0, n, step):
            block = np.array(m[start:start + step].T, order="C")
            left = right = _split(block, top, _GRAM_BITS, _GRAM_SLICES)
            if weights is not None:
                factor = block[col] * weights[start:start + step, group, groups[col]].T
                right = _split(factor, right_top, _GRAM_BITS, _GRAM_SLICES)
            for s in range(_GRAM_SLICES):
                for t in range(_GRAM_SLICES - s):
                    levels[s + t] += left[s] @ right[t].T
        full = sum(reversed(levels))  # finest level first
    # entry (j, k) is left j against right (groups[j], k), which exists when
    # groups[j] <= groups[k]: keep the (j, k) or (k, j) ordered by (group, column)
    pos = np.zeros((n_groups, p), dtype=int)
    pos[group, col] = np.arange(col.size)
    gram = np.take_along_axis(full, pos[groups], axis=1)
    key = groups * p + np.arange(p)
    return np.where(key[:, None] <= key, gram, gram.T)


def cluster_sandwich(bread, row_scores, starts):
    """Cluster-robust covariance bread^-1 * meat * bread^-T, where the meat is
    the exact Gram of the per-cluster totals of ``row_scores`` and ``starts``
    holds the first row of each cluster of contiguous rows."""
    cluster_scores = np.add.reduceat(row_scores, starts, axis=0)
    half = solve_sym(bread, exact_gram(cluster_scores))
    cov = solve_sym(bread, half.T)
    return 0.5 * (cov + cov.T)

"""Normal special functions, exact reductions and small dense algebra.

Square matrices are tiny (the parameter dimension, ~25), so plain dense
O(n^3) routines serve them; the row reductions take (n, p) row matrices, the
exact ones up to EXACT_SUM_MAX_ROWS = 2**26 rows.  "Symmetric matrix"
arguments are ordinary ndarrays validated by :func:`as_sym_matrix`; there is
no wrapper class.

The exact reductions pre-round (Ozaki et al., Numer. Algorithms 59 (2012)
95-118): each column is cut into a few slices on grids fixed by its largest
magnitude, so that numpy and BLAS sum the slices exactly in any order and a
result depends on exact totals only.  :func:`exact_sum` takes three 26-bit
slices.  :func:`exact_gram` takes three 17-bit slices of both factors: a
slice product is at most 2**32 units of its level's grid and a level has at
most 3 slice pairs, so 2**19 rows of a level sum exactly in 53 bits; every
EXACT_FOLD_ROWS = 2**19 rows each level's multiple of a grid 2**26 units
coarser moves to an exact coarse total and leaves an exact remainder, which
carries the totals to EXACT_SUM_MAX_ROWS rows.  The slices it leaves out are
below about 1.5 * 2**-48 * L * R a row, for the largest magnitudes L and R of
the two columns.

Functions here are pure and reentrant, but for :func:`one_blas_thread`,
which sets the process's BLAS thread count once; NaN screening happens at
the data validation boundary, not in these kernels.

Dense linear algebra in ``lem`` goes through ``numpy.linalg`` and numpy's
matrix products only; scipy is used for special functions (``ndtr``,
``log_ndtr``; only the inverse-Mills-ratio slope has its own series).  The
two wheels bundle separate OpenBLAS builds, each with its own thread pool,
and a fit that alternates between them pays for waking one pool while the
other spins.  Both run on one thread from a process's first fit or study
on, as a product's last bits can depend on the thread count.
"""

from __future__ import annotations

import functools
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

# the exact reductions' slices (module docstring) sum exactly up to this many
# rows (9 GB at 17 columns)
EXACT_SUM_MAX_ROWS = 2 ** 26
_SUM_BITS, _SUM_SLICES = 26, 3
_GRAM_BITS, _GRAM_SLICES = 17, 3
# exact_gram folds its level partials every this many rows (see exact_gram), on a
# grid _FOLD_BITS coarser than each level's
EXACT_FOLD_ROWS = 2 ** 19
_FOLD_BITS = 26
# rows are split in blocks of about this many entries: 64 KiB temporaries stay in
# cache and below glibc's 128 KiB mmap threshold, so they are not faulted afresh
EXACT_BLOCK_ENTRIES = 2 ** 13

# thread-count setters of OpenBLAS builds: numpy's and scipy's wheels, then plain
# OpenBLAS; each has the getter named with "_get_" for "_set_"
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads")


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


def inverse_mills_ratio(m, log_cdf):
    """The inverse Mills ratio lambda = phi(m) / Phi(m), stable through the
    log kernels, given ``log_cdf`` = :func:`log_std_normal_cdf` of ``m``."""
    return np.exp(std_normal_log_pdf(m) - log_cdf)


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


def _grids(top, bits, count):
    """The constants ``1.5 * 2**(top + 52 - bits * s)``, s = 1..count, each a
    column, with which :func:`_split` rounds a slice onto the multiples of
    ``2**(top - bits * s)``."""
    return [np.ldexp(1.5, top + 52 - bits * s)[..., None] for s in range(1, count + 1)]


def _split(a, grids):
    """Slices of ``a`` (one row per column, overwritten): slice s of row j is the
    rest of it pre-rounded by ``(a + c) - c`` with ``c = grids[s][j]`` from
    :func:`_grids`, a multiple of the spacing ``u = c / (1.5 * 2**52)`` of c.
    The first slice is at most ``2**(bits - 1) * u`` if |a[j]| is, and each
    later one at most half the previous one's u, again 2**(bits - 1) of its
    own u, as the grids of :func:`_grids` are 2**bits apart."""
    slices = []
    for c in grids:
        if slices:
            a -= slices[-1]
        q = a + c
        q -= c
        slices.append(q)
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
    step = max(1, EXACT_BLOCK_ENTRIES // max(cols.shape[1], 1))
    sums = [np.zeros(cols.shape[1])] * _SUM_SLICES
    # non-finite entries are allowed: they make their column's sum non-finite
    with np.errstate(invalid="ignore", over="ignore"):
        grids = _grids(np.frexp(_biggest(cols, axis=0))[1] + 1, _SUM_BITS, _SUM_SLICES)
        for start in range(0, n, step):
            parts = _split(np.array(cols[start:start + step].T, order="C"), grids)
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
    scaled column by column by ``2**-top``, with ``top = frexp(L_j) + 1`` and
    ``frexp(R_k) + 1`` for ``L_j = max|m[:, j]|`` and ``R_k = L_k *
    max|weights[g, groups[k]]|``, and cut into three 17-bit slices on the
    grids 2**-17, 2**-34 and 2**-51.  BLAS sums the slice products with
    s + t < 3, the levels s + t; without weights each pair s != t is one
    product and its transpose.  Exactness rule: a slice product is at most
    2**32 units of its level's grid 2**(-17 (s + t + 2)) and a level has at
    most 3 pairs, so 2**19 rows of a level sum exactly in any order, blocking
    or thread count, with or without FMA (3 * 2**32 * 2**19 < 2**53).  Every
    EXACT_FOLD_ROWS = 2**19 rows each level is folded: its nearest multiple of
    a grid 2**26 units coarser moves to a coarse total, exact up to
    EXACT_SUM_MAX_ROWS = 2**26 rows (2**7 folds of under 2**27 coarse units),
    and the remainder of at most 2**25 units stays, which leaves room for the
    next 2**19 rows.  The coarse total and the level are added once at the
    end, so the result depends on the exact level totals only.  The levels are
    added finest first and scaled back by ``2**(top_j + top_k)``, exactly
    unless that overflows or is subnormal.  Oracle bound: the slices left out
    are below about ``1.5 * 2**-48 * L_j * R_k`` a row, so an entry is within
    ``2**-47 * n * L_j * R_k + 2**-51 * |ref|`` of ``ref``, the ``math.fsum``
    of ``m[:, j] * right[:, k]``.  Non-finite ``m[i, j]`` make row and column
    j non-finite.
    """
    if m.shape[0] > EXACT_SUM_MAX_ROWS:
        raise ValueError(f"exact sums take at most {EXACT_SUM_MAX_ROWS} rows, got {m.shape[0]}")
    return _gram(m, groups, weights, exact=True)


def gram(m, groups=None, weights=None):
    """:func:`exact_gram` by plain BLAS products, without slices: fast, but not
    reproducible to the last bit.  Oracle bound: an entry is within ``(n + 2) *
    2**-52`` times the sum of the magnitudes of its n products."""
    return _gram(m, groups, weights, exact=False)


def _gram(m, groups, weights, exact):
    """exact_gram with slices and folds (``exact``); gram with the factors."""
    n, p = m.shape
    groups = np.zeros(p, dtype=int) if weights is None else np.asarray(groups)
    n_groups = groups.max(initial=0) + 1
    # right column i is m[:, col[i]] times weights[group[i], groups[col[i]]]
    group, col = np.nonzero(np.arange(n_groups)[:, None] <= groups)
    step = max(1, EXACT_BLOCK_ENTRIES // max(col.size, 1))
    count = _GRAM_SLICES if exact else 1
    levels = np.zeros((count, p, col.size))
    # non-finite entries are allowed: they make their rows and columns non-finite
    with np.errstate(invalid="ignore", over="ignore"):
        if exact:
            # each factor column is scaled by 2**-top (top fixed by the whole column,
            # never by a block of rows), so one grid per slice serves every column
            biggest = _biggest(m, axis=0)
            top = right_top = np.frexp(biggest)[1] + 1
            if weights is not None:
                bound = biggest[col] * _biggest(weights)[group, groups[col]]
                right_top = np.frexp(np.minimum(bound, np.finfo(float).max))[1] + 1
            left_scale, right_scale = -top[:, None], -right_top[:, None]
            grids = _grids(0, _GRAM_BITS, count)
            # level l lies on the grid 2**(-bits * (l + 2)); a fold rounds it onto one
            # 2**26 times coarser by adding and subtracting 1.5 * 2**52 of its units
            coarse_round = np.ldexp(1.5, 52 + _FOLD_BITS - _GRAM_BITS * np.arange(2, count + 2))[:, None, None]
            coarse = np.zeros_like(levels)
            step = min(step, EXACT_FOLD_ROWS)
        for i, start in enumerate(range(0, n, step)):
            rows = slice(start, start + step)
            factor = None if weights is None else m[rows].T[col] * weights[group, groups[col], rows]
            if exact:
                if i and i % (EXACT_FOLD_ROWS // step) == 0:
                    _fold(levels, coarse_round, coarse)
                left = _split(np.ldexp(m[rows].T, left_scale, order="C"), grids)
                right = left if factor is None else _split(np.ldexp(factor, right_scale, out=factor), grids)
            else:
                left = [np.array(m[rows].T, order="C")]
                right = left if factor is None else [factor]
            for s in range(count):
                for t in range(count - s):
                    if right is left and t < s:
                        continue  # added below as the transpose of pair (t, s)
                    product = left[s] @ right[t].T
                    levels[s + t] += product
                    if right is left and t != s:
                        levels[s + t] += product.T
        if exact:
            levels += coarse  # the one rounding of each exact level total
        full = sum(reversed(levels))  # finest level first
        if exact:
            full = np.ldexp(full, top[:, None] + right_top)
    # entry (j, k) is left j against right (groups[j], k), which exists when
    # groups[j] <= groups[k]: keep the (j, k) or (k, j) ordered by (group, column)
    pos = np.zeros((n_groups, p), dtype=int)
    pos[group, col] = np.arange(col.size)
    entries = np.take_along_axis(full, pos[groups], axis=1)
    key = groups * p + np.arange(p)
    return np.where(key[:, None] <= key, entries, entries.T)


def _fold(levels, coarse_round, coarse):
    """Move the nearest multiples of the coarse grids (``coarse_round`` =
    1.5 * 2**52 of their units) in the exact level partials to ``coarse``,
    leaving the exact remainders, at most half a coarse unit, in ``levels``."""
    part = levels + coarse_round
    part -= coarse_round
    coarse += part
    levels -= part


def cluster_sandwich(bread, row_scores, starts):
    """Cluster-robust covariance bread^-1 * meat * bread^-T, where the meat is
    the exact Gram of the per-cluster totals of ``row_scores`` and ``starts``
    holds the first row of each cluster of contiguous rows."""
    cluster_scores = np.add.reduceat(row_scores, starts, axis=0)
    half = solve_sym(bread, exact_gram(cluster_scores))
    cov = solve_sym(bread, half.T)
    return 0.5 * (cov + cov.T)


@functools.cache
def one_blas_thread():
    """Run every OpenBLAS mapped into this process on one thread for good;
    ``fit_lem`` and ``run_study`` call this first.  Later calls do nothing: a
    set-and-restore pair per fit would cost more than a small fit.

    A library whose count already reads 1 is left alone: calling a setter,
    even with the count a library has, made a freshly started worker's first
    sim3 replicate take 57-134 ms instead of 21-27 ms on a 2-core host.
    Changes nothing without a maps file, an OpenBLAS library or a setter.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        name = next((name for name in _OPENBLAS_SETTERS if hasattr(lib, name)), None)
        if name is not None:
            setter, getter = getattr(lib, name), getattr(lib, name.replace("_set_", "_get_"))
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            getter.argtypes, getter.restype = (), ctypes.c_int
            if getter() != 1:
                setter(1)

"""Reference implementations shared by the test modules.

Finite-difference derivatives, a three-regime log Phi that
``lem.numerics.log_std_normal_cdf`` must agree with, the Fisher-scoring
probit that the Newton probit start ``lem.fit._probit`` must agree with, and
what must match exactly: the block-by-block score rows for
``lem.likelihood.score_rows``, the one-row trend prediction for
``lem.fit.contrast`` on rows of width j_x, and the row-by-row CSV reader and
writer for the column-wise ``lem.data.load_csv`` and ``write_csv``.
"""

import csv
import math

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy import special

from lem.data import INTERCEPT, LongDataset
from lem.errors import DuplicateObservation, MissingColumn, NonBinaryTreatment, ParseError
from lem.likelihood import RowState, _scalars
from lem.numerics import log_std_normal_cdf, solve_sym, std_normal_cdf, std_normal_log_pdf


def fd_jacobian(fun, x, step_scale=1e-5):
    """Central-difference Jacobian of a vector field, symmetrized.

    Steps scale with the coordinate magnitude, ``step_scale * max(1, |x_k|)``.
    Central differences are exact for fields that are linear in ``x`` (the
    gradient of a quadratic), up to roundoff.
    """
    x = np.asarray(x, dtype=float)
    dim = x.size
    jac = np.empty((dim, dim))
    for k in range(dim):
        h = step_scale * max(1.0, abs(x[k]))
        up, dn = x.copy(), x.copy()
        up[k] += h
        dn[k] -= h
        jac[:, k] = (np.asarray(fun(up)) - np.asarray(fun(dn))) / (2.0 * h)
    return 0.5 * (jac + jac.T)


def log_normal_cdf_three_regime(x):
    """log Phi(x) in three regimes, without underflow for arbitrarily negative x.

    * x < -20: eight-term Mills-ratio asymptotic expansion,
      ``-x^2/2 - log(-x) - log(2*pi)/2 + log(S)``,
      ``S = 1 - x^-2 + 3x^-4 - 15x^-6 + ... - 135135x^-14``;
    * -20 <= x <= 0: ``log(erfc(-x/sqrt(2)) / 2)``;
    * x > 0: ``log1p(-erfc(x/sqrt(2)) / 2)``, so the result approaches 0
      from below at full precision instead of rounding to exactly 0.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    lo, hi = x < -20.0, x > 0.0
    mid = ~(lo | hi)
    v = x[lo]
    series = polyval(1.0 / (v * v), (1.0, -1.0, 3.0, -15.0, 105.0, -945.0, 10395.0, -135135.0))
    out[lo] = -0.5 * v * v - np.log(-v) - 0.5 * math.log(2.0 * math.pi) + np.log(series)
    out[mid] = np.log(0.5 * special.erfc(-x[mid] / math.sqrt(2.0)))
    out[hi] = np.log1p(-0.5 * special.erfc(x[hi] / math.sqrt(2.0)))
    return out


def probit_fisher_scoring(z, a, max_iter=50, tol=1e-10):
    """Probit coefficients of ``a`` on ``z`` by Fisher scoring: each step solves
    with the expected information ``z' diag(phi(c)^2 / (Phi(c) (1 - Phi(c)))) z``
    at the index ``c = z @ alpha``, starting from zero."""
    alpha = np.zeros(z.shape[1])
    sign = 2.0 * a - 1.0
    for _ in range(max_iter):
        c = z @ alpha
        m = sign * c
        lam = np.exp(std_normal_log_pdf(m) - log_std_normal_cdf(m))
        score = z.T @ (sign * lam)
        p = std_normal_cdf(c)
        pq = np.clip(p * (1.0 - p), 1e-12, None)
        wgt = np.exp(2.0 * std_normal_log_pdf(c)) / pq
        info = (z * wgt[:, None]).T @ z
        alpha = alpha + solve_sym(info, score)
        if np.abs(score).max() <= tol * len(a):
            break
    return alpha


def score_rows_blockwise(theta, dataset):
    """The score rows (n, dim) with the chain rule written out per parameter
    block: the beta, eta and alpha blocks scale the rows of x, a*w and z by
    their coordinate's derivative, and log sigma_y and varrho are columns."""
    state = RowState(theta, dataset)
    u, c, t = state.u, state.c, state.t
    sigma, rho, sq, d1, _ = _scalars(theta)
    jx, jw = theta.beta.size, theta.eta.size
    score = np.empty((u.shape[0], theta.dim))
    k1 = (u - t * rho / sq) / sigma
    score[:, :jx] = k1[:, None] * dataset.x
    score[:, jx:jx + jw] = (k1 * dataset.a)[:, None] * dataset.w
    score[:, jx + jw:-2] = (t / sq)[:, None] * dataset.z
    score[:, -2] = u * u - 1.0 - t * rho * u / sq
    score[:, -1] = t * (u + rho * c) / sq ** 3 * d1
    return score


def predict_mean(fit, xrow):
    """x'beta for one design row, with its delta-method robust SE."""
    jx = fit.j_x
    var = float(xrow @ fit.cov_robust[:jx, :jx] @ xrow)
    return float(xrow @ fit.estimates[:jx]), math.sqrt(max(var, 0.0))


def _parse_cell(raw, row_number, column):
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ParseError(
            f"row {row_number}, column '{column}': cannot parse {raw!r} as a number"
        ) from None


def load_csv_rowwise(path, spec):
    """Row-by-row reference for ``lem.data.load_csv``.

    Each record is parsed cell by cell and checked in file order; visits are
    kept per subject in a dict keyed by time.  A time must be a finite
    integer in [0, 2**63).
    """
    needed = [spec.subject, spec.time, spec.outcome, spec.treatment]
    covariate_names = []
    for name in (*spec.x, *spec.z, *spec.w):
        if name not in covariate_names:
            covariate_names.append(name)

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        col_of = {}
        for name in needed + covariate_names:
            if name not in header:
                raise MissingColumn(f"column '{name}' not found in header of {path}")
            col_of[name] = header.index(name)

        # subject label (in first-appearance order) -> {time: (y, a, covariates)}
        per_subject = {}
        for lineno, cells in enumerate(reader, start=2):
            if not cells or all(c.strip() == "" for c in cells):
                continue
            if len(cells) < len(header):
                raise ParseError(
                    f"row {lineno}: {len(cells)} cells but header has {len(header)} columns"
                )
            subj = cells[col_of[spec.subject]].strip()
            if "\x00" in subj:
                raise ParseError(f"row {lineno}, column '{spec.subject}': subject label contains a NUL character")
            t_raw = _parse_cell(cells[col_of[spec.time]], lineno, spec.time)
            if not np.isfinite(t_raw) or t_raw != int(t_raw) or not 0 <= t_raw < 2.0 ** 63:
                raise ParseError(
                    f"row {lineno}, column '{spec.time}': time must be a nonnegative integer, got {t_raw!r}"
                )
            t = int(t_raw)
            yv = _parse_cell(cells[col_of[spec.outcome]], lineno, spec.outcome)
            av = _parse_cell(cells[col_of[spec.treatment]], lineno, spec.treatment)
            if av not in (0.0, 1.0):
                raise NonBinaryTreatment(
                    f"row {lineno}: treatment value {av!r} is not 0 or 1"
                )
            if not np.isfinite(yv):
                raise ParseError(f"row {lineno}, column '{spec.outcome}': non-finite outcome")
            cov = []
            for name in covariate_names:
                v = _parse_cell(cells[col_of[name]], lineno, name)
                if not np.isfinite(v):
                    raise ParseError(f"row {lineno}, column '{name}': non-finite value")
                cov.append(v)
            visits = per_subject.setdefault(subj, {})
            if t in visits:
                raise DuplicateObservation(
                    f"row {lineno}: duplicate observation for subject {subj!r} at time {t}"
                )
            visits[t] = (yv, av, cov)

    if not per_subject:
        raise ParseError(f"{path}: no data rows")

    rows = []
    for subj, visits in per_subject.items():
        for t in sorted(visits):
            rows.append((subj, t, *visits[t]))

    subject_ids = np.array([r[0] for r in rows])
    time_index = np.array([r[1] for r in rows], dtype=np.intp)
    y = np.array([r[2] for r in rows], dtype=float)
    a = np.array([r[3] for r in rows], dtype=float)
    cov_matrix = np.array([r[4] for r in rows], dtype=float)
    if cov_matrix.size == 0:
        cov_matrix = np.empty((len(rows), 0))

    def block(names):
        cols = [np.ones(len(rows))]
        for name in names:
            cols.append(cov_matrix[:, covariate_names.index(name)])
        return np.column_stack(cols)

    return LongDataset(
        subject_ids=subject_ids,
        time_index=time_index,
        y=y,
        a=a,
        x=block(spec.x),
        z=block(spec.z),
        w=block(spec.w),
        x_names=(INTERCEPT, *spec.x),
        z_names=(INTERCEPT, *spec.z),
        w_names=(INTERCEPT, *spec.w),
        column_names=tuple(covariate_names),
        column_values=cov_matrix,
    )


def write_csv_rowwise(dataset, path, spec):
    """Row-by-row reference for ``lem.data.write_csv``: one ``writerow`` per row."""
    names = [spec.subject, spec.time, spec.outcome, spec.treatment, *dataset.column_names]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(dataset.n_rows):
            writer.writerow([
                dataset.subject_ids[i],
                int(dataset.time_index[i]),
                repr(float(dataset.y[i])),
                int(dataset.a[i]),
                *[repr(float(v)) for v in dataset.column_values[i]],
            ])

"""Long-format panel dataset: ingestion, validation, and identifiability checks.

A dataset is a frozen collection of per-row arrays grouped by subject with
rows sorted by time within subject.  Missing visits are represented by the
absence of a row (ragged clusters); no in-row missing-value sentinel exists.
Covariates are pre-encoded numerics; an intercept column of ones is prepended
to each of the X (outcome), Z (treatment), and W (effect-modifier) blocks at
construction.

Datasets are immutable after load and safe for shared read access from
parallel fits.

The rank check uses numpy's SVD, not scipy's pivoted QR, so that a fit runs
all its dense algebra on numpy's BLAS (see :mod:`lem.numerics`).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DuplicateObservation,
    MissingColumn,
    NonBinaryTreatment,
    OneArmEmpty,
    ParseError,
)

INTERCEPT = "(intercept)"

# rank tolerance for singular values, relative to the largest one
RANK_TOL = 1e-10


@dataclass(frozen=True)
class DesignSpec:
    """Column-name mapping from a CSV file onto the model blocks.

    ``x``, ``z`` and ``w`` list covariate columns only; the intercept is
    implicit and always prepended on load.
    """

    subject: str
    time: str
    outcome: str
    treatment: str
    x: tuple = ()
    z: tuple = ()
    w: tuple = ()

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw):
        return cls(
            subject=raw["subject"],
            time=raw["time"],
            outcome=raw["outcome"],
            treatment=raw["treatment"],
            x=tuple(raw.get("x", ())),
            z=tuple(raw.get("z", ())),
            w=tuple(raw.get("w", ())),
        )

    def to_dict(self):
        return {
            "subject": self.subject,
            "time": self.time,
            "outcome": self.outcome,
            "treatment": self.treatment,
            "x": list(self.x),
            "z": list(self.z),
            "w": list(self.w),
        }


@dataclass(frozen=True)
class ObsRow:
    """One observation: outcome, treatment and the three covariate views."""

    subject_id: str
    time_index: int
    y: float
    a: int
    x: np.ndarray
    z: np.ndarray
    w: np.ndarray


@dataclass(frozen=True)
class LongDataset:
    """Immutable long-format dataset with contiguous per-subject row blocks."""

    subject_ids: np.ndarray        # (n,) original labels, per row
    time_index: np.ndarray         # (n,) int
    y: np.ndarray                  # (n,)
    a: np.ndarray                  # (n,) values in {0, 1}
    x: np.ndarray                  # (n, J_X), leading column of ones
    z: np.ndarray                  # (n, J_Z)
    w: np.ndarray                  # (n, J_W)
    subject_index: np.ndarray      # (n,) cluster ordinal 0..N-1, nondecreasing
    x_names: tuple
    z_names: tuple
    w_names: tuple
    column_names: tuple = ()       # raw covariate columns for write-back
    column_values: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        n = self.y.shape[0]
        if n == 0:
            raise ValueError("dataset has no rows")
        for name in ("y", "x", "z", "w"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite values in {name}")
        if not np.isin(self.a, (0.0, 1.0)).all():
            raise NonBinaryTreatment("treatment values must all be 0 or 1")
        for name in ("x", "z", "w"):
            arr = getattr(self, name)
            if arr.shape[0] != n or arr.ndim != 2:
                raise ValueError(f"{name} must be a (n_rows, J) matrix")
            if not (arr[:, 0] == 1.0).all():
                raise ValueError(f"{name} must carry a leading intercept column of ones")
        if np.any(np.diff(self.subject_index) < 0) or self.subject_index[0] != 0:
            raise ValueError("rows must be grouped by subject in ordinal order")
        if np.any(np.diff(self.subject_index) > 1):
            raise ValueError("subject ordinals must be contiguous")
        for arr in (self.subject_ids, self.time_index, self.y, self.a, self.x,
                    self.z, self.w, self.subject_index):
            arr.setflags(write=False)
        if self.column_values is not None:
            self.column_values.setflags(write=False)

    # -- shape helpers ------------------------------------------------------

    @property
    def n_rows(self):
        return self.y.shape[0]

    @property
    def n_subjects(self):
        return int(self.subject_index[-1]) + 1

    @property
    def dims(self):
        return (self.x.shape[1], self.z.shape[1], self.w.shape[1])

    @property
    def subject_starts(self):
        """(N+1,) row offsets delimiting each subject's contiguous block."""
        starts = np.flatnonzero(np.diff(self.subject_index)) + 1
        return np.concatenate(([0], starts, [self.n_rows]))

    def cluster_sizes(self):
        return np.diff(self.subject_starts)

    def row(self, i):
        return ObsRow(
            subject_id=str(self.subject_ids[i]),
            time_index=int(self.time_index[i]),
            y=float(self.y[i]),
            a=int(self.a[i]),
            x=self.x[i],
            z=self.z[i],
            w=self.w[i],
        )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_arrays(cls, y, a, x, z, w, subject_ids=None, time_index=None,
                    x_names=None, z_names=None, w_names=None):
        """Build a dataset from prepared arrays.

        ``x``, ``z``, ``w`` must already carry the leading intercept column.
        Without ``subject_ids`` every row is its own subject (cross-sectional
        data).  Rows must arrive grouped by subject and sorted by time.
        """
        y = np.asarray(y, dtype=float)
        a = np.asarray(a, dtype=float)
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        w = np.asarray(w, dtype=float)
        n = y.shape[0]
        if subject_ids is None:
            subject_ids = np.arange(n).astype(str)
        else:
            subject_ids = np.asarray(subject_ids).astype(str)
        order = {}
        for s in subject_ids:
            if s not in order:
                order[s] = len(order)
        subject_index = np.array([order[s] for s in subject_ids], dtype=np.intp)
        if time_index is None:
            starts = np.flatnonzero(np.r_[True, np.diff(subject_index) != 0])
            time_index = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
        else:
            time_index = np.asarray(time_index, dtype=np.intp)

        def default_names(prefix, k):
            return (INTERCEPT,) + tuple(f"{prefix}{j}" for j in range(1, k))

        return cls(
            subject_ids=subject_ids,
            time_index=time_index,
            y=y,
            a=a,
            x=x,
            z=z,
            w=w,
            subject_index=subject_index,
            x_names=tuple(x_names) if x_names else default_names("x", x.shape[1]),
            z_names=tuple(z_names) if z_names else default_names("z", z.shape[1]),
            w_names=tuple(w_names) if w_names else default_names("w", w.shape[1]),
        )


@dataclass(frozen=True)
class OverlapReport:
    """Outcome ranges per arm and whether their open intervals intersect."""

    overlap: bool
    untreated_range: tuple
    treated_range: tuple


@dataclass(frozen=True)
class ValidationReport:
    rank_x: int
    rank_z: int
    rank_w: int
    full_rank_x: bool
    full_rank_z: bool
    full_rank_w: bool
    n_rows_untreated: int
    n_rows_treated: int
    cluster_size_counts: dict


def _parse_cell(raw, row_number, column):
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ParseError(
            f"row {row_number}, column '{column}': cannot parse {raw!r} as a number"
        ) from None


def load_csv(path, spec):
    """Parse a UTF-8 CSV with a header row into a LongDataset.

    Rows are grouped by subject (first-appearance order) and sorted by time
    within subject.  An intercept column is prepended to X, Z and W.
    """
    needed = [spec.subject, spec.time, spec.outcome, spec.treatment]
    covariate_names = []
    for name in (*spec.x, *spec.z, *spec.w):
        if name not in covariate_names:
            covariate_names.append(name)

    with open(path, "r", encoding="utf-8", newline="") as fh:
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

        subjects = []       # first-appearance order
        per_subject = {}    # subject label -> list of (time, y, a, covariates)
        for lineno, cells in enumerate(reader, start=2):
            if not cells or all(c.strip() == "" for c in cells):
                continue
            if len(cells) < len(header):
                raise ParseError(
                    f"row {lineno}: {len(cells)} cells but header has {len(header)} columns"
                )
            subj = cells[col_of[spec.subject]].strip()
            t_raw = _parse_cell(cells[col_of[spec.time]], lineno, spec.time)
            if t_raw != int(t_raw) or t_raw < 0:
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
            if subj not in per_subject:
                per_subject[subj] = []
                subjects.append(subj)
            if any(t == prev[0] for prev in per_subject[subj]):
                raise DuplicateObservation(
                    f"row {lineno}: duplicate observation for subject {subj!r} at time {t}"
                )
            per_subject[subj].append((t, yv, av, cov))

    if not subjects:
        raise ParseError(f"{path}: no data rows")

    rows = []
    for subj in subjects:
        for entry in sorted(per_subject[subj], key=lambda e: e[0]):
            rows.append((subj, *entry))

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

    order = {s: i for i, s in enumerate(subjects)}
    return LongDataset(
        subject_ids=subject_ids,
        time_index=time_index,
        y=y,
        a=a,
        x=block(spec.x),
        z=block(spec.z),
        w=block(spec.w),
        subject_index=np.array([order[s] for s in subject_ids], dtype=np.intp),
        x_names=(INTERCEPT, *spec.x),
        z_names=(INTERCEPT, *spec.z),
        w_names=(INTERCEPT, *spec.w),
        column_names=tuple(covariate_names),
        column_values=cov_matrix,
    )


def write_csv(dataset, path, spec):
    """Write a dataset back to CSV with the columns named in ``spec``.

    Floats are written with ``repr`` so a load/write/load cycle is exact.
    Requires the dataset to carry raw covariate columns (as after load_csv
    or simulation).
    """
    if dataset.column_values is None:
        raise ValueError("dataset does not carry raw covariate columns for write-back")
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


def check_overlap(dataset):
    """Outcome-overlap identifiability check.

    The open intervals of Y within each treatment arm must intersect for the
    joint likelihood to have an interior maximum.  Boundary-touching ranges
    do *not* overlap under this definition.
    """
    a = dataset.a
    y0 = dataset.y[a == 0.0]
    y1 = dataset.y[a == 1.0]
    if y0.size == 0 or y1.size == 0:
        raise OneArmEmpty("both treatment arms must be nonempty for the overlap check")
    r0 = (float(y0.min()), float(y0.max()))
    r1 = (float(y1.min()), float(y1.max()))
    overlap = max(r0[0], r1[0]) < min(r0[1], r1[1])
    return OverlapReport(overlap=overlap, untreated_range=r0, treated_range=r1)


def matrix_rank(mat):
    """Numerical rank: the singular values above 1e-10 times the largest."""
    sv = np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False)
    if sv.size == 0:
        return 0
    return int((sv > RANK_TOL * sv[0]).sum())


def validate(dataset):
    """Report-only design diagnostics: ranks, arm counts, cluster sizes."""
    jx, jz, jw = dataset.dims
    rank_x = matrix_rank(dataset.x)
    rank_z = matrix_rank(dataset.z)
    rank_w = matrix_rank(dataset.w)
    sizes, counts = np.unique(dataset.cluster_sizes(), return_counts=True)
    return ValidationReport(
        rank_x=rank_x,
        rank_z=rank_z,
        rank_w=rank_w,
        full_rank_x=rank_x == jx,
        full_rank_z=rank_z == jz,
        full_rank_w=rank_w == jw,
        n_rows_untreated=int((dataset.a == 0.0).sum()),
        n_rows_treated=int((dataset.a == 1.0).sum()),
        cluster_size_counts={int(s): int(c) for s, c in zip(sizes, counts)},
    )


def subset_rows(dataset, keep):
    """New dataset with rows where ``keep`` is True; empty subjects drop out."""
    keep = np.asarray(keep, dtype=bool)
    if not keep.any():
        raise ValueError("subset would remove every row")
    old_index = dataset.subject_index[keep]
    # re-pack ordinals contiguously, preserving order
    _, new_index = np.unique(old_index, return_inverse=True)
    return LongDataset(
        subject_ids=dataset.subject_ids[keep].copy(),
        time_index=dataset.time_index[keep].copy(),
        y=dataset.y[keep].copy(),
        a=dataset.a[keep].copy(),
        x=dataset.x[keep].copy(),
        z=dataset.z[keep].copy(),
        w=dataset.w[keep].copy(),
        subject_index=new_index.astype(np.intp),
        x_names=dataset.x_names,
        z_names=dataset.z_names,
        w_names=dataset.w_names,
        column_names=dataset.column_names,
        column_values=None if dataset.column_values is None else dataset.column_values[keep].copy(),
    )

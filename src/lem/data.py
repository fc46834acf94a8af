"""Long-format panel dataset: ingestion, validation, and identifiability checks.

A dataset is a frozen collection of per-row arrays.  Its subjects (clusters)
are the runs of equal consecutive labels, and each label may start one run
only; visits are nonnegative integers, strictly increasing within a subject.
Missing visits are represented by the absence of a row (ragged clusters); no
in-row missing-value sentinel exists.
Covariates are pre-encoded numerics; an intercept column of ones is prepended
to each of the X (outcome), Z (treatment), and W (effect-modifier) blocks at
construction.

Datasets are immutable after load and safe for shared read access from
parallel fits.

CSV input is read column-wise, CHUNK_ROWS lines at a time, and every check
runs on the assembled arrays.  Plain text (ASCII without the quote, NUL and
control characters of NOT_PLAIN, with no blank line and no short record)
goes through numpy's C parser; any other file, or any doubt, is read again
by the csv module with one ``float`` map per needed column.  The per-cell
parse, which names the row and column of a fault, runs only when the checks
fail.  ``write_csv`` likewise converts whole columns.

The rank check uses numpy's SVD, not scipy's pivoted QR, so that a fit runs
all its dense algebra on numpy's BLAS (see :mod:`lem.numerics`).
"""

from __future__ import annotations

import csv
import itertools
import json
import numbers
import sys
import warnings
from dataclasses import asdict, dataclass, field, replace
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

# records converted per column pass of load_csv; bounds its transient lists
CHUNK_ROWS = 4096

# characters that keep a file from the fast path of load_csv: the quote, NUL,
# the line breaks of str.splitlines that end no file line (\x0b, \x0c,
# \x1c-\x1e) and \x1f; loadtxt strips \x1c-\x1f around a number, float() does not
NOT_PLAIN = '"\x00\x0b\x0c\x1c\x1d\x1e\x1f'

# times must convert to np.intp, so they lie below 2**63
TIME_LIMIT = 2.0 ** 63

# the per-row arrays of a LongDataset, which subset_rows masks
ROW_FIELDS = ("subject_ids", "time_index", "y", "a", "x", "z", "w", "column_values")


def is_number(value, kind=numbers.Real):
    """Whether ``value`` is a ``kind`` (numbers.Integral or numbers.Real), no bool,
    and finite as a float: NaN, infinities and integers beyond the float range fail."""
    return isinstance(value, kind) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


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
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = json.load(fh)
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ValueError(f"a design spec must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown design spec keys: {sorted(unknown)}")
        for key in ("subject", "time", "outcome", "treatment", "x", "z", "w"):
            names = raw.get(key, []) if key in ("x", "z", "w") else [raw[key]]
            if not (isinstance(names, (list, tuple)) and all(isinstance(v, str) for v in names)):
                raise ValueError(f"spec key {key!r} must be a column name, or for x, z and w a list of them")
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
        return asdict(self)


def _label_runs(labels):
    """(R+1,) offsets of the runs of equal consecutive labels, ending with len(labels)."""
    change = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    return np.concatenate(([0], change, [len(labels)]))


@dataclass(frozen=True)
class LongDataset:
    """Immutable long-format dataset whose clusters are derived from its labels."""

    subject_ids: np.ndarray        # (n,) labels, per row; each subject's rows contiguous
    time_index: np.ndarray         # (n,) int, >= 0, strictly increasing within subject
    y: np.ndarray                  # (n,)
    a: np.ndarray                  # (n,) values in {0, 1}
    x: np.ndarray                  # (n, J_X), leading column of ones
    z: np.ndarray                  # (n, J_Z)
    w: np.ndarray                  # (n, J_W)
    x_names: tuple
    z_names: tuple
    w_names: tuple
    column_names: tuple = ()       # raw covariate columns for write-back
    column_values: Optional[np.ndarray] = field(default=None, repr=False)
    subject_starts: np.ndarray = field(init=False, repr=False)  # (N+1,) label-run offsets

    def __post_init__(self):
        n = self.y.shape[0]
        if n == 0:
            raise ValueError("dataset has no rows")
        for name in ("subject_ids", "time_index", "a", "column_values"):
            if getattr(self, name) is not None and np.shape(getattr(self, name))[:1] != (n,):
                raise ValueError(f"{name} must have one entry per row ({n})")
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
        covariates = np.empty((n, 0)) if self.column_values is None else self.column_values
        for name, block in (("x_names", self.x), ("z_names", self.z), ("w_names", self.w),
                            ("column_names", covariates)):
            if np.shape(block)[1:] != (len(getattr(self, name)),):
                raise ValueError(f"{name} must hold one name per column of a block of shape {np.shape(block)}")
        starts = _label_runs(self.subject_ids)
        if len(set(self.subject_ids[starts[:-1]].tolist())) < starts.size - 1:
            raise ValueError("rows must be grouped by subject: a label starts two row blocks")
        t = self.time_index
        if (not np.issubdtype(t.dtype, np.integer) or (t < 0).any()
                or (np.delete(np.diff(t), starts[1:-1] - 1) <= 0).any()):
            raise ValueError("time_index must hold nonnegative integers that strictly "
                             "increase within each subject")
        object.__setattr__(self, "subject_starts", starts)
        for name in (*ROW_FIELDS, "subject_starts"):
            if getattr(self, name) is not None:
                getattr(self, name).setflags(write=False)

    # -- shape helpers ------------------------------------------------------

    @property
    def n_rows(self):
        return self.y.shape[0]

    @property
    def n_subjects(self):
        return len(self.subject_starts) - 1

    @property
    def dims(self):
        return (self.x.shape[1], self.z.shape[1], self.w.shape[1])

    def cluster_sizes(self):
        return np.diff(self.subject_starts)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_arrays(cls, y, a, x, z, w, subject_ids=None, time_index=None,
                    x_names=None, z_names=None, w_names=None):
        """Build a dataset from copies of prepared arrays.

        ``x``, ``z``, ``w`` must already carry the leading intercept column.
        Without ``subject_ids`` every row is its own subject (cross-sectional
        data).  Rows must arrive grouped by subject, with integer visits that
        are nonnegative and strictly increase within it, or ValueError is
        raised.  The default visits count each subject's rows from 0.
        """
        y = np.array(y, dtype=float)
        subject_ids = np.asarray(np.arange(len(y)) if subject_ids is None else subject_ids).astype(str)
        if time_index is None:
            starts = _label_runs(subject_ids)
            time_index = np.arange(len(subject_ids)) - np.repeat(starts[:-1], np.diff(starts))
        x, z, w = (np.array(block, dtype=float) for block in (x, z, w))

        def default_names(prefix, k):
            return (INTERCEPT,) + tuple(f"{prefix}{j}" for j in range(1, k))

        return cls(
            subject_ids=subject_ids,
            time_index=np.array(time_index),
            y=y,
            a=np.array(a, dtype=float),
            x=x,
            z=z,
            w=w,
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


def _parse_cell(raw, row_number, column):
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise ParseError(
            f"row {row_number}, column '{column}': cannot parse {raw!r} as a number"
        ) from None


def _convert(records, width, subject_col, numeric_cols):
    """Stripped subject labels and one float array per numeric column.

    Raises ValueError at a record shorter than ``width`` or a cell that does
    not parse; blank records are not skipped here.
    """
    if min(map(len, records), default=width) < width:
        raise ValueError("short record")
    fields = list(zip(*records)) or [()] * width
    return (list(map(str.strip, fields[subject_col])),
            [np.fromiter(map(float, fields[j]), dtype=float, count=len(records))
             for j in numeric_cols])


def _read_columns(reader, width, subject_col, numeric_cols):
    """All records, CHUNK_ROWS at a time: subject labels and float columns.

    A chunk that fails to convert is converted again without its blank
    records, which the file format skips; a second failure raises ValueError.
    """
    subjects = []
    parts = [[np.empty(0)] for _ in numeric_cols]
    while records := list(itertools.islice(reader, CHUNK_ROWS)):
        try:
            labels, values = _convert(records, width, subject_col, numeric_cols)
        except ValueError:
            records = [r for r in records if any(c.strip() for c in r)]
            labels, values = _convert(records, width, subject_col, numeric_cols)
        subjects += labels
        for part, column in zip(parts, values):
            part.append(column)
    return subjects, [np.concatenate(part) for part in parts]


def _read_plain(lines, width, subject_col, numeric_cols):
    """Subject labels and float columns of plain lines, read by ``np.loadtxt``
    CHUNK_ROWS at a time; None at the first doubt, a ``loadtxt`` error or
    warning included.

    Plain lines are ASCII without NOT_PLAIN, no longer than
    ``csv.field_size_limit()``, not blank and of at least ``width`` cells:
    there the csv module splits at every comma and ``loadtxt`` reads a cell
    as ``float`` does or raises.  ``loadtxt`` raises on a line short of its
    last column and skips a blank one (the row count catches that), so the
    commas are counted only for unused trailing columns.
    """
    limit = csv.field_size_limit()
    trailing = max(subject_col, *numeric_cols) < width - 1
    subjects, parts = [], [np.empty((0, len(numeric_cols)))]
    try:
        while chunk := list(itertools.islice(lines, CHUNK_ROWS)):
            text = "".join(chunk)
            if (not text.isascii() or any(c in text for c in NOT_PLAIN)
                    or max(map(len, chunk)) > limit
                    or trailing and min(map(str.count, chunk, itertools.repeat(","))) < width - 1):
                return None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt(chunk, delimiter=",", comments=None, quotechar=None,
                                    usecols=numeric_cols, ndmin=2)
            if len(values) != len(chunk):
                return None
            subjects += [line.split(",", subject_col + 1)[subject_col].strip() for line in chunk]
            parts.append(values)
    # UnicodeDecodeError is a ValueError; a line short of its label, an IndexError
    except (ValueError, IndexError, Warning):
        return None
    return subjects, list(np.concatenate(parts).T)


def _numbered(reader, path):
    """The reader's records with their row numbers, the header being row 1.
    A record the csv module cannot read, or text that is not UTF-8, raises
    ParseError."""
    for row in itertools.count(1):
        try:
            cells = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ParseError(f"row {row}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc.reason})") from None
        yield row, cells


def _raise_first_fault(path, spec, width, col_of, covariate_names):
    """Re-scan ``path`` row by row and raise the first fault in file order.

    Called only after the column-wise pass of :func:`load_csv` found a fault;
    ``width`` is the header length and ``col_of`` maps names to positions.
    Each row is checked in the order the format defines (length, subject
    label, time, outcome and treatment parse, treatment value, outcome,
    covariates, then the (subject, time) pair), so the exception type, row
    number and column name are those of the first faulty row.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        rows = _numbered(csv.reader(fh), path)
        next(rows)
        seen = set()
        for lineno, cells in rows:
            if not cells or all(c.strip() == "" for c in cells):
                continue
            if len(cells) < width:
                raise ParseError(
                    f"row {lineno}: {len(cells)} cells but header has {width} columns"
                )
            subj = cells[col_of[spec.subject]].strip()
            if "\x00" in subj:
                raise ParseError(f"row {lineno}, column '{spec.subject}': subject label contains a NUL character")
            t_raw = _parse_cell(cells[col_of[spec.time]], lineno, spec.time)
            if not (t_raw.is_integer() and 0 <= t_raw < TIME_LIMIT):
                raise ParseError(
                    f"row {lineno}, column '{spec.time}': time must be a nonnegative integer, got {t_raw!r}"
                )
            yv = _parse_cell(cells[col_of[spec.outcome]], lineno, spec.outcome)
            av = _parse_cell(cells[col_of[spec.treatment]], lineno, spec.treatment)
            if av not in (0.0, 1.0):
                raise NonBinaryTreatment(
                    f"row {lineno}: treatment value {av!r} is not 0 or 1"
                )
            if not np.isfinite(yv):
                raise ParseError(f"row {lineno}, column '{spec.outcome}': non-finite outcome")
            for name in covariate_names:
                if not np.isfinite(_parse_cell(cells[col_of[name]], lineno, name)):
                    raise ParseError(f"row {lineno}, column '{name}': non-finite value")
            if (subj, int(t_raw)) in seen:
                raise DuplicateObservation(
                    f"row {lineno}: duplicate observation for subject {subj!r} at time {int(t_raw)}"
                )
            seen.add((subj, int(t_raw)))
    raise RuntimeError(f"{path}: the column-wise checks found a fault the row scan did not")


def load_csv(path, spec):
    """Parse a UTF-8 CSV (a leading byte-order mark is skipped) with a header row into a LongDataset.

    Rows are grouped by subject (first-appearance order) and sorted by time
    within subject.  An intercept column is prepended to X, Z and W.

    The file is read column-wise, CHUNK_ROWS lines at a time, then every
    check runs on the assembled arrays.  The header goes through the csv
    module.  Plain lines (see :func:`_read_plain`) go through numpy's C
    parser; at the first doubt the file is read again from the start by the
    csv module, with one ``float`` map per needed column.  Both give the
    same arrays.  Only when a check fails is the file scanned again row by
    row, to raise the first fault in file order with its row number and
    column.  Text that is not UTF-8, a record the csv module cannot read (a
    field longer than ``csv.field_size_limit()``, say) and a column of the
    spec named twice in the header raise ParseError.
    """
    needed = [spec.subject, spec.time, spec.outcome, spec.treatment]
    covariate_names = []
    for name in (*spec.x, *spec.z, *spec.w):
        if name not in covariate_names:
            covariate_names.append(name)

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        # the header through the checked path; the rows at full speed below
        _, header = next(_numbered(reader, path), (1, None))
        if header is None:
            raise ParseError(f"{path}: empty file")
        header = [h.strip() for h in header]
        col_of = {}
        for name in needed + covariate_names:
            if name not in header:
                raise MissingColumn(f"column '{name}' not found in header of {path}")
            if header.count(name) > 1:
                raise ParseError(f"column '{name}' appears {header.count(name)} times "
                                 f"in the header of {path}")
            col_of[name] = header.index(name)
        layout = (len(header), col_of[spec.subject],
                  [col_of[name] for name in needed[1:] + covariate_names])
        parsed = None
        if fh.seekable():   # a pipe cannot be read again: the csv module reads it
            parsed = _read_plain(fh, *layout)
            if parsed is None:   # read the file again, from the start, by the csv module
                fh.seek(0)
                next(reader)
        if parsed is None:
            try:
                parsed = _read_columns(reader, *layout)
            except (ValueError, csv.Error):   # UnicodeDecodeError is a ValueError
                _raise_first_fault(path, spec, len(header), col_of, covariate_names)
    subjects, (t, y, a, *covariates) = parsed

    n = len(subjects)
    if n == 0:
        raise ParseError(f"{path}: no data rows")
    valid = ((t == np.floor(t)) & (t >= 0) & (t < TIME_LIMIT)
             & ((a == 0.0) | (a == 1.0)) & np.isfinite(y))
    for column in covariates:
        valid &= np.isfinite(column)
    code = {s: i for i, s in enumerate(dict.fromkeys(subjects))}
    # a fixed-width numpy label drops trailing NULs, which would merge clusters
    if not valid.all() or "\x00" in "".join(code):
        _raise_first_fault(path, spec, len(header), col_of, covariate_names)

    ordinal = np.fromiter(map(code.__getitem__, subjects), dtype=np.intp, count=n)
    t = t.astype(np.intp)
    order = np.lexsort((t, ordinal))
    t, ordinal = t[order], ordinal[order]
    if ((t[1:] == t[:-1]) & (ordinal[1:] == ordinal[:-1])).any():
        _raise_first_fault(path, spec, len(header), col_of, covariate_names)

    cov_matrix = np.empty((n, len(covariates)))
    for j, column in enumerate(covariates):
        cov_matrix[:, j] = column[order]

    def block(names):
        cols = [np.ones(n)]
        for name in names:
            cols.append(cov_matrix[:, covariate_names.index(name)])
        return np.column_stack(cols)

    return LongDataset(
        subject_ids=np.array(subjects)[order],
        time_index=t,
        y=y[order],
        a=a[order],
        x=block(spec.x),
        z=block(spec.z),
        w=block(spec.w),
        x_names=(INTERCEPT, *spec.x),
        z_names=(INTERCEPT, *spec.z),
        w_names=(INTERCEPT, *spec.w),
        column_names=tuple(covariate_names),
        column_values=cov_matrix,
    )


def write_csv(dataset, path, spec):
    """Write a dataset back to CSV with the columns named in ``spec``.

    Floats are written with ``repr`` so a load/write/load cycle is exact.
    The columns are converted whole (``tolist`` and one ``repr`` map each)
    and written with one ``writerows``.  Requires the dataset to carry raw
    covariate columns (as after load_csv or simulation).
    """
    if dataset.column_values is None:
        raise ValueError("dataset does not carry raw covariate columns for write-back")
    names = [spec.subject, spec.time, spec.outcome, spec.treatment, *dataset.column_names]
    columns = [
        dataset.subject_ids.tolist(),
        dataset.time_index.tolist(),
        map(repr, dataset.y.tolist()),
        map(int, dataset.a.tolist()),
        *[map(repr, column) for column in dataset.column_values.T.tolist()],
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(zip(*columns))


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
        raise OneArmEmpty("both treatment arms must be nonempty to check overlap or fit")
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


def subset_rows(dataset, keep):
    """New dataset with rows where ``keep`` is True; empty subjects drop out."""
    keep = np.asarray(keep, dtype=bool)
    if not keep.any():
        raise ValueError("subset would remove every row")
    return replace(dataset, **{name: getattr(dataset, name)[keep] for name in ROW_FIELDS
                               if getattr(dataset, name) is not None})

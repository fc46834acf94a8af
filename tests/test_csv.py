"""Column-wise ``load_csv`` and ``write_csv`` against their row-by-row oracles."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lem.cli as cli
import lem.data as data
from lem.data import DesignSpec, LongDataset, load_csv, write_csv
from lem.errors import DuplicateObservation, ParseError
from lem.simulate import SimConfig, gen_covariates, gen_outcomes, substream
from oracles import load_csv_rowwise, write_csv_rowwise

SPEC = DesignSpec(subject="id", time="visit", outcome="ldl", treatment="statin",
                  x=("age",), z=("risk",), w=("age",))
HEADER = ["id", "visit", "ldl", "statin", "age", "risk", "note"]
ARRAYS = ("subject_ids", "time_index", "y", "a", "x", "z", "w", "subject_starts",
          "column_values")
NAMES = ("x_names", "z_names", "w_names", "column_names")

# labels that need quoting, or strip to another label
SUBJECTS = ["s0", "s1", " s1 ", "a,b", 'q"x', "7"]
FAULTS = {
    "cell": ["oops", "", "1..2"],
    "visit": ["1.5", "-1", "inf", "-inf", "nan", "1e19", "9223372036854775807"],
    "statin": ["2", "nan", "-1"],
    "nonfinite": ["inf", "-inf", "nan", "1e400"],
}


def outcome(loader, path, spec=SPEC):
    """The dataset a loader returns, or the type and message it raises."""
    try:
        return loader(path, spec)
    except Exception as exc:   # compared by type and message below
        return type(exc), str(exc)


def assert_same_outcome(got, expected):
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert isinstance(got, LongDataset), got
    for name in ARRAYS:
        g, e = getattr(got, name), getattr(expected, name)
        assert g.dtype == e.dtype and g.shape == e.shape, name
        assert g.flags.c_contiguous == e.flags.c_contiguous, name
        assert g.tobytes() == e.tobytes(), name
    for name in NAMES:
        assert getattr(got, name) == getattr(expected, name)


@st.composite
def csv_texts(draw):
    """A small CSV: distinct (subject, time) rows in random order, plus faults."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(SUBJECTS), st.integers(0, 5)),
                          min_size=0, max_size=10, unique_by=lambda p: (p[0].strip(), p[1])))
    records = []
    for subj, t in pairs:
        records.append([subj, str(t), repr(draw(st.floats(-5, 5))), draw(st.sampled_from("01")),
                        repr(draw(st.floats(-1e3, 1e3))), repr(draw(st.floats(0, 1))),
                        draw(st.sampled_from(["", "x,y", "n/a"]))])
    kinds = st.sampled_from(["cell", "visit", "statin", "nonfinite", "duplicate", "short",
                             "blank"])
    for kind in draw(st.lists(kinds, max_size=3)):
        at = draw(st.integers(0, len(records)))
        if kind == "blank":
            records.insert(at, draw(st.sampled_from([[], ["  "], [" "] * len(HEADER)])))
        elif kind == "short":
            records.insert(at, ["s9", "0", "1.0"])
        elif kind == "duplicate" and pairs:
            subj, t = draw(st.sampled_from(pairs))
            records.insert(at, [subj.strip(), str(t), "0.5", "1", "60.0", "0.5", ""])
        elif at < len(records) and len(records[at]) == len(HEADER):
            column = {"cell": draw(st.sampled_from([1, 2, 3, 4, 5])), "visit": 1,
                      "statin": 3, "nonfinite": draw(st.sampled_from([2, 4, 5]))}.get(kind)
            if column is not None:
                records[at][column] = draw(st.sampled_from(FAULTS[kind]))
    out = io.StringIO()
    writer = csv.writer(out, quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(HEADER)
    writer.writerows(records)
    return out.getvalue()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=150, deadline=None)
@given(text=csv_texts(), chunk=st.sampled_from([1, 2, 3, 4096]))
def test_load_csv_matches_the_row_loop(scratch, text, chunk):
    path = scratch / "random.csv"
    path.write_text(text, newline="")
    expected = outcome(load_csv_rowwise, str(path))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "CHUNK_ROWS", chunk)
        assert_same_outcome(outcome(load_csv, str(path)), expected)


def write_rows(tmp_path, rows, name="data.csv"):
    path = tmp_path / name
    path.write_text("\n".join([",".join(HEADER), *rows]) + "\n")
    return str(path)


ROWS = [f"s{i // 3},{i % 3},{0.5 * i},{i % 2},{60 + i},{0.1 * (i % 4)}," for i in range(12)]


@pytest.mark.parametrize("rows, error, message", [
    # the duplicate of row 2 sits in the third chunk of 3
    (ROWS[:8] + ["s0,0,1.0,1,60.0,0.2,"], DuplicateObservation,
     "row 10: duplicate observation for subject 's0' at time 0"),
    # a duplicate at row 6 and a bad cell at row 4: the earlier row wins
    (ROWS[:2] + ["s1,0,oops,0,61.0,0.1,"] + ROWS[3:4] + ["s0,1,1.0,1,60.0,0.2,"],
     ParseError, "row 4, column 'ldl': cannot parse 'oops' as a number"),
    # a treatment of 2 at row 3 and a non-finite covariate at row 2
    (["s0,0,1.0,0,inf,0.1,", "s0,1,1.0,2,60.0,0.1,"], ParseError,
     "row 2, column 'age': non-finite value"),
    (ROWS[:4] + ["s9,0,1.0"], ParseError, "row 6: 3 cells but header has 7 columns"),
    # a NUL in a label: numpy's fixed-width labels drop it, so "a" and "a\x00" at
    # one time gave a fault that named no row, and at two times one cluster
    (["a,0,1.0,0,60.0,0.1,", "a\x00,0,2.0,1,61.0,0.2,"], ParseError,
     "row 3, column 'id': subject label contains a NUL character"),
    (["a,0,1.0,0,60.0,0.1,", "a\x00,1,2.0,1,61.0,0.2,", "b,0,1.5,1,62.0,0.3,"], ParseError,
     "row 3, column 'id': subject label contains a NUL character"),
])
def test_first_fault_in_file_order_across_chunks(tmp_path, monkeypatch, rows, error, message):
    monkeypatch.setattr(data, "CHUNK_ROWS", 3)
    path = write_rows(tmp_path, rows)
    assert outcome(load_csv, path) == (error, message) == outcome(load_csv_rowwise, path)


def test_blank_records_are_skipped_across_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "CHUNK_ROWS", 2)
    rows = ROWS[:3] + ["", "   ", " , , , , , , "] + ROWS[3:6] + ['"a,b",0,1.0,1,1.0,0.5,"x,y"']
    path = write_rows(tmp_path, rows)
    got = load_csv(path, SPEC)
    assert_same_outcome(got, load_csv_rowwise(path, SPEC))
    assert got.n_rows == 7 and got.subject_ids[-1] == "a,b"


def with_byte_order_mark(path):
    """Copy of the file at ``path`` that starts with the UTF-8 byte-order mark."""
    marked = path.replace(".csv", "-bom.csv")
    with open(path, "rb") as src, open(marked, "wb") as dst:
        dst.write(b"\xef\xbb\xbf" + src.read())
    return marked


def test_a_byte_order_mark_is_skipped(tmp_path):
    plain = write_rows(tmp_path, ROWS)
    marked = with_byte_order_mark(plain)
    assert_same_outcome(load_csv(marked, SPEC), load_csv(plain, SPEC))
    assert_same_outcome(load_csv_rowwise(marked, SPEC), load_csv(plain, SPEC))


def test_a_byte_order_mark_keeps_the_fault_location(tmp_path):
    marked = with_byte_order_mark(write_rows(tmp_path, ROWS[:2] + ["s1,0,oops,0,61.0,0.1,"]))
    expected = (ParseError, "row 4, column 'ldl': cannot parse 'oops' as a number")
    assert outcome(load_csv, marked) == expected == outcome(load_csv_rowwise, marked)


@pytest.mark.parametrize("time", ["inf", "nan", "1e19"])
def test_non_finite_or_huge_time_is_a_parse_error(tmp_path, time):
    path = write_rows(tmp_path, ROWS[:2] + [f"s5,{time},1.0,0,60.0,0.1,"])
    expected = f"row 4, column 'visit': time must be a nonnegative integer, got {float(time)!r}"
    with pytest.raises(ParseError) as info:
        load_csv(path, SPEC)
    assert str(info.value) == expected


def test_time_just_below_two_to_the_63_is_kept(tmp_path):
    big = 2.0 ** 63 - 1024          # the largest double below 2**63
    path = write_rows(tmp_path, [f"s0,{big!r},1.0,0,60.0,0.1,"])
    assert load_csv(path, SPEC).time_index[0] == int(big)


@pytest.mark.usefixtures("one_blas_thread")
@pytest.mark.parametrize("time", ["inf", "nan", "1e19"])
def test_fit_non_finite_or_huge_time_exit_1(tmp_path, capsys, time):
    path = write_rows(tmp_path, ROWS[:2] + [f"s5,{time},1.0,0,60.0,0.1,"])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC.to_dict()))
    assert cli.main(["fit", "--data", path, "--spec", str(spec), "--method", "lem",
                     "--out", str(tmp_path / "out")]) == 1
    assert "row 4, column 'visit'" in capsys.readouterr().err


def cohort_csv(tmp_path, spec):
    cfg = SimConfig(n_subjects=150, seed=29)
    rng = substream(cfg.seed, 0)
    path = str(tmp_path / "cohort.csv")
    write_csv(gen_outcomes(gen_covariates(cfg, rng), cfg, rng), path, spec)
    return path


COHORT_SPEC = DesignSpec.from_dict({
    "subject": "id", "time": "visit", "outcome": "y", "treatment": "a",
    "x": ["O1", "O4", "O5", "O7"], "z": ["O2", "O4", "O6", "O7"], "w": ["O3", "O5", "O6", "O7"],
})


def test_wellformed_load_never_scans_row_by_row(tmp_path, monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(data, "_raise_first_fault", counted(data._raise_first_fault))
    monkeypatch.setattr(data, "_parse_cell", counted(data._parse_cell))
    path = cohort_csv(tmp_path, COHORT_SPEC)
    assert load_csv(path, COHORT_SPEC).n_rows == 450
    assert calls == []
    # the counters do see the row scan once a row is faulty
    with open(path, "a") as fh:
        fh.write("0,0,1.0,1,0,0,0,0,0,0,0\n")
    with pytest.raises(DuplicateObservation, match="row 452"):
        load_csv(path, COHORT_SPEC)
    assert calls[0] == "_raise_first_fault" and "_parse_cell" in calls


def test_write_csv_matches_the_row_writer_on_a_cohort(tmp_path):
    path = cohort_csv(tmp_path, COHORT_SPEC)
    d = load_csv(path, COHORT_SPEC)
    write_csv(d, str(tmp_path / "new.csv"), COHORT_SPEC)
    write_csv_rowwise(d, str(tmp_path / "old.csv"), COHORT_SPEC)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, 3))
    labels = st.sampled_from(["s0", "a,b", 'q"x', " pad ", "line\nbreak", "é"])
    cov = np.array(draw(st.lists(finite, min_size=n * k, max_size=n * k))).reshape(n, k)
    ones = np.ones((n, 1))
    d = LongDataset.from_arrays(
        y=draw(st.lists(finite, min_size=n, max_size=n)),
        a=draw(st.lists(st.sampled_from([0.0, 1.0, -0.0]), min_size=n, max_size=n)),
        x=ones, z=ones, w=ones,
        subject_ids=sorted(draw(st.lists(labels, min_size=n, max_size=n))),
        # visits increasing over the whole file increase within every subject
        time_index=sorted(draw(st.lists(st.integers(0, 2 ** 62), min_size=n, max_size=n,
                                        unique=True))))
    return dataclasses.replace(d, column_names=tuple(f"c{j}" for j in range(k)),
                               column_values=cov)


@settings(max_examples=60, deadline=None)
@given(d=datasets())
def test_write_csv_is_byte_identical_to_the_row_writer(scratch, d):
    spec = DesignSpec(subject="id", time="t", outcome="y", treatment="a")
    write_csv(d, str(scratch / "new.csv"), spec)
    write_csv_rowwise(d, str(scratch / "old.csv"), spec)
    assert (scratch / "new.csv").read_bytes() == (scratch / "old.csv").read_bytes()

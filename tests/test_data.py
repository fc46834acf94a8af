import dataclasses
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lem.data import (
    DesignSpec,
    LongDataset,
    check_overlap,
    load_csv,
    matrix_rank,
    subset_rows,
    write_csv,
)
from lem.errors import (
    DuplicateObservation,
    MissingColumn,
    NonBinaryTreatment,
    OneArmEmpty,
    ParseError,
)

SPEC = DesignSpec(subject="id", time="visit", outcome="ldl", treatment="statin",
                  x=("age",), z=("risk",), w=("age",))


def write_file(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


WELLFORMED = """id,visit,ldl,statin,age,risk
7,0,3.5,0,61.0,0.2
7,1,3.1,1,63.0,0.4
8,0,2.9,0,55.0,0.1
"""


def test_load_wellformed(tmp_path):
    d = load_csv(write_file(tmp_path, WELLFORMED), SPEC)
    assert d.n_subjects == 2
    assert d.n_rows == 3
    assert d.dims == (2, 2, 2)
    np.testing.assert_array_equal(d.x[:, 0], 1.0)
    np.testing.assert_array_equal(d.z[:, 0], 1.0)
    np.testing.assert_allclose(d.x[:, 1], [61.0, 63.0, 55.0])
    assert d.x_names == ("(intercept)", "age")


def test_rows_sorted_by_time_within_subject(tmp_path):
    shuffled = """id,visit,ldl,statin,age,risk
7,1,3.1,1,63.0,0.4
8,0,2.9,0,55.0,0.1
7,0,3.5,0,61.0,0.2
"""
    d = load_csv(write_file(tmp_path, shuffled), SPEC)
    # subject 7 first (first appearance), its rows time-ordered
    np.testing.assert_array_equal(d.subject_ids[:2], ["7", "7"])
    np.testing.assert_array_equal(d.time_index[:2], [0, 1])
    np.testing.assert_allclose(d.y, [3.5, 3.1, 2.9])


def test_nonbinary_treatment_rejected(tmp_path):
    bad = WELLFORMED.replace("7,1,3.1,1,", "7,1,3.1,2,")
    with pytest.raises(NonBinaryTreatment):
        load_csv(write_file(tmp_path, bad), SPEC)


def test_duplicate_observation_rejected(tmp_path):
    bad = WELLFORMED + "7,1,9.9,0,60.0,0.3\n"
    with pytest.raises(DuplicateObservation, match="subject '7' at time 1"):
        load_csv(write_file(tmp_path, bad), SPEC)


def visits_csv(tmp_path, n_subjects, n_visits, name="data.csv", extra=""):
    lines = ["id,visit,ldl,statin,age,risk"]
    for i in range(n_subjects):
        for t in range(n_visits):
            lines.append(f"s{i},{t},{0.5 * (t % 7)},{t % 2},{60 + t % 5},{0.1 * (t % 3)}")
    return write_file(tmp_path, "\n".join(lines) + "\n" + extra, name)


def test_duplicate_time_at_the_end_of_a_long_subject_rejected(tmp_path):
    # 5000 visits occupy rows 2-5001; the repeated visit 17 is row 5002
    path = visits_csv(tmp_path, 1, 5000, extra="s0,17,9.9,0,60.0,0.3\n")
    with pytest.raises(DuplicateObservation, match="row 5002: .*subject 's0' at time 17"):
        load_csv(path, SPEC)


def test_load_time_is_linear_in_visits_per_subject(tmp_path):
    # the same 20k rows as one subject and as 3-visit subjects; a duplicate
    # check that scans a subject's earlier rows made the first ~50x slower
    def best_load_time(path):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            load_csv(path, SPEC)
            times.append(time.perf_counter() - start)
        return min(times)

    one_subject = best_load_time(visits_csv(tmp_path, 1, 20_000, "long.csv"))
    short_subjects = best_load_time(visits_csv(tmp_path, 6_667, 3, "short.csv"))
    assert one_subject < 5 * short_subjects


def test_missing_column(tmp_path):
    with pytest.raises(MissingColumn, match="'ldl'"):
        load_csv(write_file(tmp_path, WELLFORMED.replace("ldl", "chol")), SPEC)


def test_parse_error_carries_location(tmp_path):
    bad = WELLFORMED.replace("2.9", "oops")
    with pytest.raises(ParseError, match="row 4, column 'ldl'"):
        load_csv(write_file(tmp_path, bad), SPEC)


def test_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    header = "id,visit,ldl,statin,age,risk\n"
    rows = []
    for i in range(9):
        for t in range(3):
            rows.append(f"s{i},{t},{rng.normal():.17g},{int(rng.random() < 0.5)},"
                        f"{rng.normal():.17g},{rng.normal():.17g}")
    first = load_csv(write_file(tmp_path, header + "\n".join(rows) + "\n"), SPEC)
    back = str(tmp_path / "back.csv")
    write_csv(first, back, SPEC)
    second = load_csv(back, SPEC)
    np.testing.assert_array_equal(first.y, second.y)
    np.testing.assert_array_equal(first.a, second.a)
    np.testing.assert_array_equal(first.x, second.x)
    np.testing.assert_array_equal(first.z, second.z)
    np.testing.assert_array_equal(first.w, second.w)


def simple_dataset(y, a):
    n = len(y)
    ones = np.ones((n, 1))
    return LongDataset.from_arrays(y=np.asarray(y, float), a=np.asarray(a, float),
                                   x=ones, z=ones, w=ones)


def test_overlap_intersecting_ranges():
    rep = check_overlap(simple_dataset([1, 2, 3, 2.5, 4], [0, 0, 0, 1, 1]))
    assert rep.overlap
    assert rep.untreated_range == (1.0, 3.0)
    assert rep.treated_range == (2.5, 4.0)


def test_overlap_disjoint_ranges():
    rep = check_overlap(simple_dataset([1, 2, 3, 4], [0, 0, 1, 1]))
    assert not rep.overlap


def test_overlap_boundary_touching_is_not_overlap():
    # open intervals share only the point 3
    rep = check_overlap(simple_dataset([1, 3, 3, 5], [0, 0, 1, 1]))
    assert not rep.overlap


def test_overlap_invariant_to_row_order_and_labels():
    rng = np.random.default_rng(5)
    y = rng.normal(size=40)
    a = (rng.random(40) < 0.5).astype(float)
    base = check_overlap(simple_dataset(y, a))
    perm = rng.permutation(40)
    shuffled = check_overlap(simple_dataset(y[perm], a[perm]))
    assert base == shuffled


def test_overlap_one_arm_empty():
    with pytest.raises(OneArmEmpty):
        check_overlap(simple_dataset([1.0, 2.0], [1, 1]))


@pytest.mark.parametrize("shape", [(6, 3), (0, 3), (4, 0), (0, 0)])
def test_matrix_rank_zero_for_zero_and_empty_matrices(shape):
    assert matrix_rank(np.zeros(shape)) == 0


def test_matrix_rank_of_products_of_known_rank():
    rng = np.random.default_rng(3)
    for rank in range(7):
        for _ in range(5):
            m = rng.normal(size=(120, rank)) @ rng.normal(size=(rank, 6))
            assert matrix_rank(m) == rank


def test_matrix_rank_invariant_to_column_scaling():
    rng = np.random.default_rng(4)
    for rank in range(1, 7):
        m = rng.normal(size=(120, rank)) @ rng.normal(size=(rank, 6))
        for _ in range(5):
            assert matrix_rank(m * 10.0 ** rng.uniform(0.0, 8.0, size=6)) == rank


def test_subset_rows_drops_empty_subjects():
    y = np.arange(6.0)
    a = np.array([0, 1, 0, 1, 0, 1], dtype=float)
    ones = np.ones((6, 1))
    d = LongDataset.from_arrays(y=y, a=a, x=ones, z=ones, w=ones,
                                subject_ids=["u", "u", "v", "v", "w", "w"])
    kept = subset_rows(d, np.array([True, True, False, False, True, True]))
    assert kept.n_subjects == 2
    np.testing.assert_array_equal(kept.subject_starts, [0, 2, 4])
    # the default time index counts rows within each (ragged) subject block
    ragged = LongDataset.from_arrays(y=y, a=a, x=ones, z=ones, w=ones,
                                     subject_ids=["u", "u", "u", "v", "w", "w"])
    np.testing.assert_array_equal(ragged.time_index, [0, 1, 2, 0, 0, 1])


# labels that are prefixes of one another or differ only in whitespace
LABELS = st.text(alphabet="ab \t", max_size=3)


@settings(max_examples=100, deadline=None)
@given(runs=st.lists(st.tuples(LABELS, st.integers(1, 4)), min_size=1, max_size=8,
                     unique_by=lambda run: run[0]),
       data=st.data())
def test_clusters_are_the_label_runs(runs, data):
    labels, lengths = zip(*runs)
    ids = np.repeat(labels, lengths)
    n = len(ids)
    rows = dict(y=np.arange(n, dtype=float), a=np.arange(n) % 2.0,
                x=np.column_stack([np.ones(n), np.arange(n) ** 2.0]), z=np.ones((n, 1)),
                w=np.ones((n, 1)), subject_ids=ids)
    d = LongDataset.from_arrays(**rows)
    np.testing.assert_array_equal(d.subject_starts, np.cumsum((0,) + lengths))
    assert d.n_subjects == len(labels)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    assume(keep.any())
    expected = LongDataset.from_arrays(**{k: v[keep] for k, v in rows.items()},
                                       time_index=d.time_index[keep])
    kept = subset_rows(d, keep)
    for f in dataclasses.fields(LongDataset):
        got, want = getattr(kept, f.name), getattr(expected, f.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name
        else:
            assert got == want, f.name


def test_a_label_that_starts_two_row_blocks_is_rejected():
    ones = np.ones((3, 1))
    with pytest.raises(ValueError, match="rows must be grouped by subject"):
        LongDataset.from_arrays(y=np.zeros(3), a=[0, 1, 0], x=ones, z=ones, w=ones,
                                subject_ids=["u", "v", "u"])


@pytest.mark.parametrize("name,value", [("subject_starts", np.arange(61)),
                                        ("subject_index", np.arange(60))])
def test_clusters_cannot_be_given(name, value):
    # each row its own cluster, against labels that group rows in threes
    d = sixty_rows()
    with pytest.raises((TypeError, ValueError), match=name):
        dataclasses.replace(d, **{name: value})
    given_fields = {f.name: getattr(d, f.name) for f in dataclasses.fields(d) if f.init}
    with pytest.raises(TypeError, match=name):
        LongDataset(**given_fields, **{name: value})


@pytest.mark.parametrize("subject_ids,time_index", [(["a", "a", "b", "b"], [1, 1, 2, 0]),
                                                    (None, [0.5, 0.7]),
                                                    (None, [-1, 0])])
def test_from_arrays_rejects_visits_that_are_not_increasing_nonnegative_integers(
        subject_ids, time_index):
    n = len(time_index)
    ones = np.ones((n, 1))
    with pytest.raises(ValueError, match="time_index"):
        LongDataset.from_arrays(y=np.zeros(n), a=np.arange(n) % 2.0, x=ones, z=ones, w=ones,
                                subject_ids=subject_ids, time_index=time_index)


def test_arrays_are_frozen():
    d = simple_dataset([1.0, 2.0], [0, 1])
    with pytest.raises(ValueError):
        d.y[0] = 99.0


def test_from_arrays_copies_its_inputs():
    # y is a view of the caller's panel; every input stays the caller's to write
    base = np.random.default_rng(3).normal(size=(60, 2))
    block = np.column_stack([np.ones(60), base[:, 1]])
    inputs = dict(y=base[:, 0], a=np.arange(60) % 2.0, x=block, z=block.copy(), w=block.copy(),
                  subject_ids=np.repeat(np.arange(20), 3), time_index=np.tile(np.arange(3), 20))
    d = LongDataset.from_arrays(**inputs)
    kept = {name: getattr(d, name).copy() for name in inputs}
    for name, arr in inputs.items():
        assert arr.flags.writeable, name
        arr[...] = 0 if name in ("subject_ids", "time_index") else 100.0
        np.testing.assert_array_equal(getattr(d, name), kept[name], err_msg=name)


def sixty_rows(**overrides):
    rng = np.random.default_rng(5)
    ones = np.ones((60, 1))
    arrays = dict(y=rng.normal(size=60), a=np.arange(60) % 2.0, x=ones, z=ones, w=ones,
                  subject_ids=np.repeat(np.arange(20), 3), time_index=np.tile(np.arange(3), 20))
    return LongDataset.from_arrays(**{**arrays, **overrides})


@pytest.mark.parametrize("name", ["subject_ids", "time_index", "a"])
def test_from_arrays_rejects_a_per_row_array_of_the_wrong_length(name):
    short = {"subject_ids": np.repeat(np.arange(19), 3), "time_index": np.tile(np.arange(3), 19),
             "a": np.arange(57) % 2.0}[name]
    with pytest.raises(ValueError, match=f"^{name} must have one entry per row"):
        sixty_rows(**{name: short})


@pytest.mark.parametrize("name", ["column_values"])
def test_dataset_rejects_a_per_row_array_of_the_wrong_length(name):
    with pytest.raises(ValueError, match=f"^{name} must have one entry per row"):
        dataclasses.replace(sixty_rows(), **{name: np.zeros((57, 2))})


@pytest.mark.parametrize("name", ["x_names", "z_names", "w_names"])
def test_from_arrays_rejects_names_of_the_wrong_length(name):
    # one name short of a two-column block: the parameter names would shift
    two = np.column_stack([np.ones(60), np.arange(60.0)])
    with pytest.raises(ValueError, match=f"^{name} must hold one name per column"):
        sixty_rows(**{name[0]: two, name: ["(intercept)"]})


def test_dataset_rejects_column_names_of_the_wrong_length():
    d = sixty_rows()
    with pytest.raises(ValueError, match="^column_names must hold one name per column"):
        dataclasses.replace(d, column_names=("c1",), column_values=np.zeros((60, 2)))


@pytest.mark.parametrize("key,value", [("x", "age"), ("z", ["risk", 3]), ("w", None),
                                       ("subject", ["id"]), ("treatment", 1)])
def test_spec_rejects_a_value_of_the_wrong_type(key, value):
    raw = {**SPEC.to_dict(), key: value}
    with pytest.raises(ValueError, match=f"spec key '{key}'"):
        DesignSpec.from_dict(raw)

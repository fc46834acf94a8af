import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from lem import numerics
from lem.errors import NotPositiveDefinite, SingularMatrix
from lem.numerics import (
    EXACT_SUM_MAX_ROWS,
    EXACT_BLOCK_ENTRIES,
    EXACT_FOLD_ROWS,
    TAIL_CROSSOVER,
    cholesky,
    exact_gram,
    exact_sum,
    gram,
    inverse_mills_slope,
    log_std_normal_cdf,
    solve_sym,
    std_normal_cdf,
    std_normal_log_pdf,
)
from oracles import log_normal_cdf_three_regime


def test_pdf_at_zero():
    assert np.exp(std_normal_log_pdf(0.0)) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-16)


def test_pdf_at_one():
    # direct evaluation of the closed form
    assert np.exp(std_normal_log_pdf(1.0)) == pytest.approx(0.24197072451914337, abs=1e-16)


@given(st.floats(-30, 30))
def test_pdf_symmetry(x):
    assert np.exp(std_normal_log_pdf(-x)) == np.exp(std_normal_log_pdf(x))


def test_cdf_at_zero():
    assert std_normal_cdf(0.0) == 0.5


def test_cdf_high_precision_point():
    # frozen from a 40-digit mpmath evaluation of Phi(1.959963985)
    assert std_normal_cdf(1.959963985) == pytest.approx(0.9750000000268816, abs=1e-13)
    assert std_normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)


@given(st.floats(-37, 37))
def test_cdf_reflection(x):
    assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)


def test_cdf_monotone_on_random_sample():
    rng = np.random.default_rng(42)
    xs = np.sort(rng.normal(scale=8.0, size=4000))
    vals = std_normal_cdf(xs)
    assert (np.diff(vals) >= 0).all()


def test_log_cdf_at_zero():
    assert log_std_normal_cdf(0.0) == pytest.approx(math.log(0.5), abs=1e-16)


def test_log_cdf_deep_tail_against_mills_oracle():
    # 3-term Mills-ratio oracle at x = -40
    x = 40.0
    oracle = -(x ** 2 / 2) - math.log(x * math.sqrt(2 * math.pi)) + math.log(1 - 1 / x ** 2 + 3 / x ** 4)
    got = log_std_normal_cdf(-40.0)
    assert got == pytest.approx(oracle, rel=1e-8)


def test_log_cdf_upper_tail_zero_from_below():
    v = log_std_normal_cdf(10.0)
    assert -1e-15 <= v <= 0.0


def test_log_cdf_no_underflow_at_minus_300():
    v = log_std_normal_cdf(-300.0)
    assert np.isfinite(v)
    assert v == pytest.approx(-300.0 ** 2 / 2, rel=1e-2)


def test_log_cdf_matches_cdf_on_grid():
    xs = np.linspace(-37.0, 8.0, 10_000)
    diff = np.abs(np.exp(log_std_normal_cdf(xs)) - std_normal_cdf(xs))
    assert diff.max() < 1e-12


def test_log_cdf_continuous_across_tail_crossover():
    below = log_std_normal_cdf(np.nextafter(TAIL_CROSSOVER, -np.inf))
    at = log_std_normal_cdf(TAIL_CROSSOVER)
    assert abs(below - at) <= 1e-12 * abs(at)
    # the series slope below the crossover meets -lambda (m + lambda) above it
    m = np.array([np.nextafter(TAIL_CROSSOVER, -np.inf), TAIL_CROSSOVER])
    slope = inverse_mills_slope(m, inverse_mills(m))
    assert abs(slope[0] - slope[1]) <= 1e-10 * abs(slope[1])


def test_log_cdf_agrees_with_scipy_log_ndtr():
    # the kernel is scipy's log_ndtr; the reference is the three-regime oracle
    xs = np.linspace(-40.0, 8.0, 20_001)
    ref = log_normal_cdf_three_regime(xs)
    np.testing.assert_allclose(log_std_normal_cdf(xs), ref, rtol=1e-13, atol=0)
    # deep tail, where both sides are asymptotic series: 6.6e-16 measured
    deep = -np.logspace(np.log10(40.0), 150.0, 20_001)
    np.testing.assert_allclose(log_std_normal_cdf(deep), log_normal_cdf_three_regime(deep),
                               rtol=1e-15, atol=0)
    np.testing.assert_array_equal(log_std_normal_cdf(np.array([-np.inf, np.inf, np.nan])),
                                  [-np.inf, 0.0, np.nan])


@pytest.mark.parametrize("kernel", [log_std_normal_cdf, std_normal_cdf, std_normal_log_pdf])
@pytest.mark.parametrize("x", [[-1.0, 0.0, 1.0], (-45.0, 0.5), np.array(-3.0),
                               np.array([-30.0, 2.0]), np.array([[-1.0, 0.0], [7.0, -25.0]])],
                         ids=["list", "tuple", "0-d", "1-d", "2-d"])
def test_normal_kernels_on_array_likes(kernel, x):
    got, expected = kernel(x), kernel(np.asarray(x))
    assert np.shape(got) == np.shape(expected) == np.shape(x)
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    assert isinstance(kernel(float(np.ravel(x)[0])), float)


def inverse_mills(m):
    return np.exp(std_normal_log_pdf(m) - log_std_normal_cdf(m))


def test_inverse_mills_slope_matches_finite_differences():
    # both sides of the tail crossover, stencils that straddle it, and deep in
    # the tail where -lambda (m + lambda) loses most of its digits
    m = np.concatenate([np.linspace(-40.0, TAIL_CROSSOVER - 0.01, 60),
                        TAIL_CROSSOVER + np.array([-1e-4, -1e-6, 0.0, 1e-6, 1e-4]),
                        np.linspace(TAIL_CROSSOVER + 0.01, 8.0, 60)])
    h = 1e-5 * np.maximum(1.0, np.abs(m))
    fd = (inverse_mills(m + h) - inverse_mills(m - h)) / (2.0 * h)
    got = inverse_mills_slope(m, inverse_mills(m))
    np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-9)


def test_cholesky_identity():
    np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))


def test_cholesky_hand_expanded_2x2():
    lower = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
    np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)


def test_cholesky_rejects_indefinite_exchangeable():
    m = np.full((3, 3), -0.9)
    np.fill_diagonal(m, 1.0)
    # eigenvalue 1 + 2*rho < 0
    with pytest.raises(NotPositiveDefinite):
        cholesky(m)


def test_cholesky_roundtrip_random_lower_triangular():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 9)
        lower = np.tril(rng.normal(size=(n, n)))
        np.fill_diagonal(lower, rng.uniform(0.5, 2.0, size=n))
        np.testing.assert_allclose(cholesky(lower @ lower.T), lower, rtol=1e-9, atol=1e-12)


def test_solve_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(solve_sym(np.eye(3), rhs), rhs)


def test_solve_diagonal():
    np.testing.assert_allclose(
        solve_sym(np.diag([2.0, 4.0]), np.array([2.0, 4.0])), [1.0, 1.0]
    )


def test_solve_random_spd_residual():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 5))
    m = a @ a.T + 5 * np.eye(5)
    rhs = rng.normal(size=5)
    x = solve_sym(m, rhs)
    assert np.linalg.norm(m @ x - rhs) / np.linalg.norm(rhs) < 1e-8


def test_solve_singular_raises():
    m = np.ones((3, 3))
    for scale in (1.0, 1e200):
        with pytest.raises(SingularMatrix):
            solve_sym(m, scale * np.array([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("m, rhs", [
    ([[2.0, 0.0], [0.0, 2.0]], [1.0, np.nan]),
    ([[2.0, 0.0], [0.0, 2.0]], [np.inf, 1.0]),
    ([[2.0, np.nan], [np.nan, 2.0]], [1.0, 1.0]),
])
def test_solve_non_finite_system_raises(m, rhs):
    with pytest.raises(SingularMatrix):
        solve_sym(m, rhs)


def test_solve_right_hand_side_beyond_the_square_root_of_the_float_range():
    # the residual check's 2-norms square entries, which overflow beyond about 1e154
    np.testing.assert_allclose(solve_sym([[3.0, 1.0], [1.0, 3.0]], [1e200, 3e199]),
                               [3.375e199, -1.25e198], rtol=1e-12)


def test_asymmetric_input_rejected():
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 0.5], [0.2, 1.0]]))


# ---------------------------------------------------------------------------
# exact column sums
# ---------------------------------------------------------------------------

# finite entries from subnormal to 2**990, far enough below overflow that the
# extraction grid of exact_sum stays finite
matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 60), st.integers(1, 4)),
    elements=st.floats(-2.0 ** 990, 2.0 ** 990, allow_nan=False, allow_infinity=False),
)


@given(matrices, st.data())
def test_exact_sum_invariant_to_row_permutation(m, data):
    perm = data.draw(st.permutations(range(m.shape[0])))
    np.testing.assert_array_equal(exact_sum(m[perm]), exact_sum(m))


@given(matrices)
def test_exact_sum_doubles_exactly_under_row_duplication(m):
    np.testing.assert_array_equal(exact_sum(np.vstack([m, m])), 2.0 * exact_sum(m))


@given(matrices)
def test_exact_sum_agrees_with_fsum_oracle(m):
    # a final rounding at the result's scale, plus the remainder dropped
    # after the last fold: below n_rows * max|column| * 2**-76
    got = exact_sum(m)
    for j, col in enumerate(m.T):
        ref = math.fsum(col.tolist())
        bound = 2.0 ** -51 * abs(ref) + col.size * np.abs(col).max() * 2.0 ** -74
        assert abs(got[j] - ref) <= bound


@given(matrices, st.data())
def test_exact_sum_non_finite_input_gives_non_finite_output(m, data):
    i = data.draw(st.integers(0, m.shape[0] - 1))
    j = data.draw(st.integers(0, m.shape[1] - 1))
    m[i, j] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    assert not np.isfinite(exact_sum(m)[j])


def test_exact_sum_rejects_more_rows_than_the_cap():
    # a zero-stride view: the shape is checked before anything is allocated
    rows = np.broadcast_to(np.zeros(1), (EXACT_SUM_MAX_ROWS + 1, 1))
    with pytest.raises(ValueError):
        exact_sum(rows)


# ---------------------------------------------------------------------------
# exact weighted Gram
# ---------------------------------------------------------------------------

GROUPS = np.array([0, 0, 0, 0, 1, 1, 1, 2, 3])
# the weighted right factor has a column for each column k and group g <= groups[k]
RIGHT_WIDTH = {"unweighted": GROUPS.size, "weighted": sum((GROUPS >= g).sum() for g in range(4))}


def gram_cases():
    """Scaled columns, and two huge first rows that cancel, at row counts
    around the default block of each case."""
    rng = np.random.default_rng(17)
    p = GROUPS.size
    for case, width in RIGHT_WIDTH.items():
        block = EXACT_BLOCK_ENTRIES // width
        for n in (1, block - 1, block, block + 1, 7 * block + 3):
            # columns of very different scales, so the grids differ per entry
            m = rng.normal(size=(n, p)) * np.exp2(rng.integers(-30, 30, size=p))
            weights = rng.normal(size=(4, 4, n))
            weights = weights + weights.transpose(1, 0, 2)
            if n > 1:
                # two huge first rows set every grid and cancel in half the
                # entries, which then depend on how the grid rounds the other rows
                m[0] *= 2.0 ** 40
                m[1] = m[0] * (-1.0) ** np.arange(p)
                weights[..., 1] = weights[..., 0]
            yield case, width, m, (() if case == "unweighted" else (GROUPS, weights))


def test_exact_gram_does_not_depend_on_the_block_size(monkeypatch):
    # every grid is fixed by a whole column, never by a block of rows
    for case, width, m, args in gram_cases():
        expected = exact_gram(m, *args)
        for rows in (1, 2, 3):
            monkeypatch.setattr(numerics, "EXACT_BLOCK_ENTRIES", rows * width)
            np.testing.assert_array_equal(exact_gram(m, *args), expected, err_msg=f"{case}, {rows}-row blocks")
        monkeypatch.undo()


def test_exact_gram_does_not_depend_on_the_fold_interval(monkeypatch):
    # a fold moves exact parts of the level partials into exact coarse totals,
    # so folding every row, every second or every third row changes no bit
    for case, _, m, args in gram_cases():
        expected = exact_gram(m, *args)
        for rows in (1, 2, 3):
            monkeypatch.setattr(numerics, "EXACT_FOLD_ROWS", rows)
            np.testing.assert_array_equal(exact_gram(m, *args), expected, err_msg=f"{case}, fold every {rows} rows")
        monkeypatch.undo()


def assert_within_fsum_oracle(got, m, groups=None, weights=None):
    """The bound of the exact_gram docstring: 2**-47 * n * L_j * R_k for the
    slices left out, 2**-51 * |ref| for adding the levels and the products."""
    n, p = m.shape
    for j in range(p):
        for k in range(p):
            right, r_bound = m[:, k], np.abs(m[:, k]).max()
            if weights is not None:
                w = weights[groups[j], groups[k]]
                right, r_bound = right * w, r_bound * np.abs(w).max()
            ref = math.fsum((m[:, j] * right).tolist())
            bound = 2.0 ** -47 * n * np.abs(m[:, j]).max() * r_bound + 2.0 ** -51 * abs(ref)
            assert abs(got[j, k] - ref) <= bound, (n, j, k)


def test_exact_gram_agrees_with_fsum_oracle():
    for case, _, m, args in gram_cases():
        assert_within_fsum_oracle(exact_gram(m, *args), m, *args)


def test_exact_gram_above_the_fold_interval_agrees_with_fsum_oracle(monkeypatch):
    # more rows than one fold interval, so the default interval folds; half the
    # rows at their column's largest magnitude fill each slice, so every other
    # row is at L_j; the oracle bound is then about 2**-46 of an unweighted
    # diagonal entry, and a fold that lost one row at L_j would exceed it more
    # than 2**27 times over
    rng = np.random.default_rng(19)
    n, groups = EXACT_FOLD_ROWS + 2 ** 16 + 5, np.array([0, 1, 1])
    m = rng.normal(size=(n, 3)) * np.exp2([-20, 0, 25])
    m[::2] = np.copysign(np.abs(m).max(axis=0), m[::2])
    weights = rng.normal(size=(2, 2, n))
    weights = weights + weights.transpose(1, 0, 2)
    weights[..., 1] = weights[..., 0]
    for args in ((), (groups, weights)):
        got = exact_gram(m, *args)
        assert_within_fsum_oracle(got, m, *args)
        monkeypatch.setattr(numerics, "EXACT_FOLD_ROWS", 2 ** 17)
        np.testing.assert_array_equal(exact_gram(m, *args), got)
        monkeypatch.undo()


@st.composite
def gram_entries(draw, shape):
    """Entries 0 or at least 2**-150 in magnitude, so no slice product underflows."""
    mantissas = draw(arrays(np.int64, shape, elements=st.integers(-2 ** 53, 2 ** 53)))
    return np.ldexp(mantissas.astype(float), draw(arrays(np.int64, shape, elements=st.integers(-150, 100))))


@st.composite
def gram_inputs(draw):
    """(m, groups, weights) with symmetric weights, or (m,) alone."""
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    m = draw(gram_entries((n, p)))
    if not draw(st.booleans()):
        return (m,)
    groups = np.array(draw(st.lists(st.integers(0, 2), min_size=p, max_size=p)))
    weights = draw(gram_entries((3, 3, n)))
    return m, groups, weights + weights.transpose(1, 0, 2)


def permuted(args, perm):
    """The rows of m, and the last (row) axis of the weights, taken in order ``perm``."""
    return tuple(a[perm] if i == 0 else a[..., perm] if i == 2 else a for i, a in enumerate(args))


@given(gram_inputs(), st.data())
def test_exact_gram_invariant_to_row_permutation(args, data):
    perm = np.array(data.draw(st.permutations(range(args[0].shape[0]))))
    np.testing.assert_array_equal(exact_gram(*permuted(args, perm)), exact_gram(*args))


@given(gram_inputs())
def test_exact_gram_doubles_exactly_under_row_duplication(args):
    twice = np.tile(np.arange(args[0].shape[0]), 2)
    np.testing.assert_array_equal(exact_gram(*permuted(args, twice)), 2.0 * exact_gram(*args))


@given(gram_inputs(), st.data(), st.integers(1, 3))
def test_exact_gram_folded_every_few_rows_is_invariant_to_row_permutation_and_doubles_exactly(args, data, rows):
    perm = np.array(data.draw(st.permutations(range(args[0].shape[0]))))
    twice = np.tile(np.arange(args[0].shape[0]), 2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "EXACT_FOLD_ROWS", rows)
        expected = exact_gram(*args)
        np.testing.assert_array_equal(exact_gram(*permuted(args, perm)), expected)
        np.testing.assert_array_equal(exact_gram(*permuted(args, twice)), 2.0 * expected)


@given(gram_inputs(), st.data())
def test_exact_gram_non_finite_input_gives_non_finite_row_and_column(args, data):
    m = args[0]
    i = data.draw(st.integers(0, m.shape[0] - 1))
    j = data.draw(st.integers(0, m.shape[1] - 1))
    m[i, j] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    gram = exact_gram(*args)
    assert not np.isfinite(gram[j]).any()
    assert not np.isfinite(gram[:, j]).any()


def products(args):
    """The (n, p, p) products m[:, j] * m[:, k] * weights[groups[j], groups[k]]."""
    m = args[0]
    products = m[:, :, None] * m[:, None, :]
    if len(args) == 1:
        return products
    groups, weights = args[1:]
    return products * np.moveaxis(weights[groups[:, None], groups[None, :]], -1, 0)


@given(gram_inputs())
def test_gram_agrees_with_exact_gram_within_the_oracle_bounds(args):
    # |gram - ref| is within the gram docstring bound (n + 2) * 2**-52 * S and
    # |exact_gram - ref| within the exact_gram docstring bound
    m = args[0]
    n = m.shape[0]
    got, exact = gram(*args), exact_gram(*args)
    biggest = np.abs(m).max(axis=0)
    right = biggest if len(args) == 1 else biggest * np.abs(args[2]).max(axis=-1)[args[1][:, None], args[1]]
    magnitudes = np.abs(products(args)).sum(axis=0)
    bound = ((n + 2) * 2.0 ** -52 * magnitudes
             + 2.0 ** -47 * n * biggest[:, None] * right + 2.0 ** -51 * np.abs(exact))
    assert (np.abs(got - exact) <= bound).all()


@given(gram_inputs(), st.data())
def test_gram_non_finite_input_gives_non_finite_row_and_column(args, data):
    m = args[0]
    i = data.draw(st.integers(0, m.shape[0] - 1))
    j = data.draw(st.integers(0, m.shape[1] - 1))
    m[i, j] = data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    got = gram(*args)
    assert not np.isfinite(got[j]).any()
    assert not np.isfinite(got[:, j]).any()


def test_exact_gram_peak_memory_is_a_small_multiple_of_the_input():
    import tracemalloc

    rng = np.random.default_rng(18)
    m = rng.normal(size=(150_000, 17))
    # the bread's call: four coordinate groups and one 4 x 4 weight per row
    bread_args = (np.repeat([0, 1, 2, 3], [10, 5, 1, 1]), rng.normal(size=(4, 4, 150_000)))
    for args in ((), bread_args):
        tracemalloc.start()
        try:
            exact_gram(m, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * m.nbytes

"""Random small designs: every fit returns or raises a LemError.

The designs are far from the simulation presets: 2-40 subjects with 1-3
visits, up to three covariates per block at scales from 1e-8 to 1e8, a w
column that may repeat an x column, in about half of them z = x (no exclusion
restriction), deleted rows and outcomes scaled by 10**-10 to 10**10.  The
joint model is fitted with its model-based covariance.  Many of the designs
do not identify the joint model, so most fits end in NoConvergence,
SingularDesign, SingularMatrix or OneArmEmpty; the property asks only that
no other exception (and, under the test settings, no RuntimeWarning) escapes.
Named edge designs ask the same of a fit, under every warning raised as an
error, and that a returned fit is finite.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lem.data import LongDataset, subset_rows
from lem.errors import LemError
from lem.fit import fit_lem
from lem.gee import VARIANTS, fit_gee_independence
from lem.simulate import gen_covariates, gen_outcomes, preset, substream


@st.composite
def small_designs(draw):
    n_subjects = draw(st.integers(2, 40))
    visits = draw(st.lists(st.integers(1, 3), min_size=n_subjects, max_size=n_subjects))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = sum(visits)

    def block():
        exponents = draw(st.lists(st.integers(-8, 8), max_size=3))
        return np.hstack([np.ones((n, 1)), rng.normal(size=(n, len(exponents))) * 10.0 ** np.array(exponents)])

    x, z, w = block(), block(), block()
    if draw(st.booleans()):
        z = x
    if min(x.shape[1], w.shape[1]) > 1 and draw(st.booleans()):
        w[:, -1] = x[:, -1]
    rho = draw(st.floats(-0.95, 0.95))
    errors = rng.multivariate_normal([0.0, 0.0], [[1.0, rho], [rho, 1.0]], size=n)
    a = (z @ rng.normal(size=z.shape[1]) + errors[:, 1] > 0).astype(float)
    y = x @ rng.normal(size=x.shape[1]) + a * (w @ rng.normal(size=w.shape[1])) + errors[:, 0]
    dataset = LongDataset.from_arrays(y=y * 10.0 ** draw(st.integers(-10, 10)), a=a, x=x, z=z, w=w,
                                      subject_ids=np.repeat(np.arange(n_subjects), visits))
    keep = rng.random(n) >= draw(st.sampled_from([0.0, 0.1, 0.3]))
    keep[0] = True
    return subset_rows(dataset, keep)


def _fits():
    return [lambda d: fit_lem(d, model_cov=True)] + [
        lambda d, v=v: fit_gee_independence(d, v) for v in VARIANTS]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(dataset=small_designs())
def test_fits_of_random_small_designs_return_or_raise_lem_error(dataset):
    for fit in _fits():
        try:
            fit(dataset)
        except LemError:
            pass


def _cohort(n_subjects=60, **overrides):
    cfg = preset("sim1", seed=5, n_subjects=n_subjects, **overrides)
    rng = substream(cfg.seed, 0)
    return gen_outcomes(gen_covariates(cfg, rng), cfg, rng)


def _with(d, **blocks):
    arrays = {k: getattr(d, k) for k in ("y", "a", "x", "z", "w")} | blocks
    return LongDataset.from_arrays(**arrays, subject_ids=d.subject_ids)


# each a function of one small sim1 cohort
EDGE_DESIGNS = {
    "rho=+0.995": lambda _: _cohort(rho=0.995, rho_y=0.0, rho_a=0.0, rho_ay=0.0),
    "rho=-0.995": lambda _: _cohort(rho=-0.995, rho_y=0.0, rho_a=0.0, rho_ay=0.0),
    "single-row clusters": lambda _: _cohort(n_times=1),
    "w=x": lambda d: _with(d, w=d.x),
    "z=x": lambda d: _with(d, z=d.x),
    "z=w": lambda d: _with(d, z=d.w),
    "untreated only": lambda d: subset_rows(d, d.a == 0.0),
    "treated only": lambda d: subset_rows(d, d.a == 1.0),
    "one treated row": lambda d: subset_rows(d, (d.a == 0.0) | (np.arange(d.n_rows) == np.argmax(d.a))),
    "constant y": lambda d: _with(d, y=np.ones(d.n_rows)),
}


@pytest.mark.parametrize("name", EDGE_DESIGNS)
def test_fits_of_named_edge_designs_are_finite_or_raise_lem_error(name):
    dataset = EDGE_DESIGNS[name](_cohort())
    for fit in _fits():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = fit(dataset)
            except LemError:
                continue
        for arr in (result.estimates, result.cov_robust, getattr(result, "cov_model", None)):
            assert arr is None or np.isfinite(arr).all()

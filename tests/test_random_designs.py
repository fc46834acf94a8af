"""Random small designs: every fit returns or raises a LemError.

The designs are far from the simulation presets: 2-40 subjects with 1-3
visits, up to three covariates per block at scales from 1e-8 to 1e8, a w
column that may repeat an x column, in about half of them z = x (no exclusion
restriction), deleted rows and outcomes scaled by 10**-10 to 10**10.  The
joint model is fitted with its model-based covariance.  Many of the designs
do not identify the joint model, so most fits end in NoConvergence,
SingularDesign, SingularMatrix or OneArmEmpty; the property asks only that
no other exception (and, under the test settings, no RuntimeWarning) escapes.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from lem.data import LongDataset, subset_rows
from lem.errors import LemError
from lem.fit import fit_lem
from lem.gee import VARIANTS, fit_gee_independence


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


@settings(max_examples=40, derandomize=True, deadline=None)
@given(dataset=small_designs())
def test_fits_of_random_small_designs_return_or_raise_lem_error(dataset):
    fits = [lambda d: fit_lem(d, model_cov=True)]
    fits += [lambda d, v=v: fit_gee_independence(d, v) for v in VARIANTS]
    for fit in fits:
        try:
            fit(dataset)
        except LemError:
            pass

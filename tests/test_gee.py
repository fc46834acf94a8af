from dataclasses import replace

import numpy as np
import pytest

from lem.data import LongDataset
from lem.errors import AllRowsExcluded, LemError, SingularDesign
from lem.fit import fit_lem
from lem.gee import fit_gee_independence
from lem.simulate import SimConfig, gen_covariates, gen_outcomes, substream


def cross_sectional(seed=0, n=300):
    rng = np.random.default_rng(seed)
    x = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 2))])
    a = (rng.random(n) < 0.4).astype(float)
    y = x @ [1.0, 0.5, -0.5] + 0.8 * a + rng.normal(size=n) * (1 + 0.5 * np.abs(x[:, 1]))
    ones = np.ones((n, 1))
    return LongDataset.from_arrays(y=y, a=a, x=x, z=ones, w=ones)


def panel(seed=0, n_subjects=400, **kw):
    cfg = SimConfig(n_subjects=n_subjects, seed=seed, **kw)
    rng = substream(cfg.seed, 0)
    return gen_outcomes(gen_covariates(cfg, rng), cfg, rng)


def test_single_row_clusters_equal_hc0():
    d = cross_sectional()
    fit = fit_gee_independence(d, "adjusted")
    design = np.hstack([d.x, d.a[:, None]])
    coef = np.linalg.lstsq(design, d.y, rcond=None)[0]
    resid = d.y - design @ coef
    bread_inv = np.linalg.inv(design.T @ design)
    meat = (design * resid[:, None] ** 2).T @ design
    hc0 = bread_inv @ meat @ bread_inv
    np.testing.assert_allclose(fit.coef, coef, rtol=1e-10)
    np.testing.assert_allclose(fit.cov_robust, hc0, rtol=1e-8)


def test_excluded_variant_uses_untreated_rows_only():
    d = cross_sectional(seed=1)
    fit = fit_gee_independence(d, "excluded")
    keep = d.a == 0
    coef = np.linalg.lstsq(d.x[keep], d.y[keep], rcond=None)[0]
    np.testing.assert_allclose(fit.coef, coef, rtol=1e-10)
    assert fit.n_rows == int(keep.sum())
    assert fit.param_names == ["beta:(intercept)", "beta:x1", "beta:x2"]


def test_excluded_variant_all_treated():
    n = 20
    rng = np.random.default_rng(2)
    ones = np.ones((n, 1))
    d = LongDataset.from_arrays(y=rng.normal(size=n), a=np.ones(n),
                                x=ones, z=ones, w=ones)
    with pytest.raises(AllRowsExcluded):
        fit_gee_independence(d, "excluded")


def test_singular_design_detected():
    n = 40
    rng = np.random.default_rng(3)
    col = rng.normal(size=n)
    x = np.column_stack([np.ones(n), col, col])
    ones = np.ones((n, 1))
    d = LongDataset.from_arrays(y=rng.normal(size=n), a=(rng.random(n) < 0.5).astype(float),
                                x=x, z=ones, w=ones)
    with pytest.raises(SingularDesign):
        fit_gee_independence(d, "adjusted")


def test_doubling_clusters_halves_covariance():
    d = panel(seed=4, n_subjects=150)
    doubled = LongDataset.from_arrays(
        y=np.concatenate([d.y, d.y]),
        a=np.concatenate([d.a, d.a]),
        x=np.vstack([d.x, d.x]),
        z=np.vstack([d.z, d.z]),
        w=np.vstack([d.w, d.w]),
        subject_ids=np.concatenate([d.subject_ids, np.char.add("b", d.subject_ids)]),
        time_index=np.concatenate([d.time_index, d.time_index]),
    )
    one = fit_gee_independence(d, "adjusted")
    two = fit_gee_independence(doubled, "adjusted")
    np.testing.assert_allclose(two.cov_robust, 0.5 * one.cov_robust, rtol=1e-8)
    np.testing.assert_allclose(two.coef, one.coef, rtol=1e-12)


def test_scale_equivariance_at_a_huge_outcome_scale():
    d = panel(seed=7, n_subjects=60)
    scaled = LongDataset.from_arrays(y=1e100 * d.y, a=d.a, x=d.x, z=d.z, w=d.w,
                                     subject_ids=d.subject_ids, time_index=d.time_index)
    one = fit_gee_independence(d, "adjusted")
    big = fit_gee_independence(scaled, "adjusted")
    np.testing.assert_allclose(big.coef, 1e100 * one.coef, rtol=1e-10)
    np.testing.assert_allclose(big.se_robust(), 1e100 * one.se_robust(), rtol=1e-10)


def test_coefficients_invariant_to_subject_relabeling():
    d = panel(seed=5, n_subjects=120)
    rng = np.random.default_rng(6)
    perm = rng.permutation(d.n_subjects)
    starts = d.subject_starts
    order = np.concatenate([np.arange(starts[s], starts[s + 1]) for s in perm])
    shuffled = LongDataset.from_arrays(
        y=d.y[order], a=d.a[order], x=d.x[order], z=d.z[order], w=d.w[order],
        subject_ids=d.subject_ids[order], time_index=d.time_index[order],
    )
    for variant in ("adjusted", "excluded"):
        fit = fit_gee_independence(d, variant)
        fit_shuffled = fit_gee_independence(shuffled, variant)
        np.testing.assert_array_equal(fit.coef, fit_shuffled.coef)
        np.testing.assert_array_equal(fit.cov_robust, fit_shuffled.cov_robust)


def test_agrees_with_lem_when_treatment_is_noise():
    # no endogeneity and no effect modification: treatment is pure noise, so
    # the adjusted working-independence fit and the joint model coincide
    d = panel(seed=7, n_subjects=600, rho=0.0,
              alpha=(0.0, 0.0, 0.0, 0.0, 0.0), eta=(0.0, 0.0, 0.0, 0.0, 0.0))
    gee = fit_gee_independence(d, "adjusted")
    lem = fit_lem(d)
    se = np.sqrt(np.maximum(np.diag(gee.cov_robust)[:5], np.diag(lem.cov_robust)[:5]))
    assert (np.abs(gee.coef[:5] - lem.theta_hat.beta) <= 2.0 * se).all()


def test_unknown_variant_rejected():
    d = cross_sectional(seed=8)
    with pytest.raises(ValueError):
        fit_gee_independence(d, "bogus")


def test_outcome_near_overflow_raises():
    # y x 1e300 puts X'y within 2**28 of overflow, where the exact sums give NaN
    d = panel(seed=3, n_subjects=200)
    with pytest.raises(LemError):
        fit_gee_independence(replace(d, y=d.y * 1e300), "adjusted")

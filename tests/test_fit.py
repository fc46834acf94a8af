import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from lem.data import LongDataset
from lem.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonFiniteLikelihood,
    SingularDesign,
    SingularMatrix,
    UnsortedKnots,
)
from lem.fit import (
    FitOptions,
    fisher_cov,
    fit_lem,
    fit_to_dict,
    initialize,
    load_fit_json,
    ncs_basis,
    predict_mean,
    prediction_band,
    sandwich_cov,
    save_fit_json,
    score_jacobian,
    wald,
)
from lem.likelihood import Theta, pooled_negloglik_and_score
from lem.simulate import (
    SimConfig,
    apply_missingness,
    gen_covariates,
    gen_outcomes,
    preset,
    substream,
)
from oracles import fd_jacobian


def panel_dataset(seed=0, n_subjects=500, rho=0.5, eta=(0.0, 0.2, 0.2, 0.2, 0.2),
                  n_times=3, alpha=(0.0, 1.0, 1.0, 1.0, 1.0)):
    cfg = SimConfig(n_subjects=n_subjects, n_times=n_times, rho=rho, eta=eta,
                    alpha=alpha, seed=seed)
    rng = substream(cfg.seed, 0)
    return gen_outcomes(gen_covariates(cfg, rng), cfg, rng)


@pytest.fixture(scope="module")
def panel_fit():
    d = panel_dataset(seed=31)
    return d, fit_lem(d)


@pytest.fixture(scope="module")
def cross_sectional_fit():
    # one row per subject, correctly specified model, large N
    d = panel_dataset(seed=32, n_subjects=2000, n_times=1)
    return d, fit_lem(d)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_initialize_near_truth_without_endogeneity():
    d = panel_dataset(seed=33, n_subjects=3000, rho=0.0, n_times=1)
    theta0 = initialize(d)
    # with rho = 0 the regression initializers are consistent; allow 3 rough SEs
    rough_se = 3.0 / math.sqrt(d.n_rows)
    np.testing.assert_allclose(theta0.beta, [0, 1, 1, 1, 1], atol=10 * rough_se)
    np.testing.assert_allclose(theta0.alpha, [0, 1, 1, 1, 1], atol=0.15)
    assert abs(theta0.sigma_y - 1.0) < 0.05
    assert theta0.varrho == 0.0


def test_initialize_intercept_only_design():
    rng = np.random.default_rng(1)
    n = 200
    ones = np.ones((n, 1))
    a = (rng.random(n) < 0.5).astype(float)
    y = rng.normal(size=n) + 2.0 * a
    d = LongDataset.from_arrays(y=y, a=a, x=ones, z=ones, w=ones)
    theta0 = initialize(d)
    assert theta0.beta[0] == pytest.approx(y[a == 0].mean(), abs=1e-8)


def test_initialize_duplicated_z_column_raises():
    rng = np.random.default_rng(2)
    n = 50
    col = rng.normal(size=n)
    ones = np.ones((n, 1))
    z = np.column_stack([np.ones(n), col, col])
    d = LongDataset.from_arrays(y=rng.normal(size=n), a=(rng.random(n) < 0.5).astype(float),
                                x=ones, z=z, w=ones)
    with pytest.raises(SingularDesign):
        initialize(d)


# ---------------------------------------------------------------------------
# full fit
# ---------------------------------------------------------------------------

def test_fit_recovers_truth_within_robust_ses(panel_fit):
    _, fit = panel_fit
    truth = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
    se = fit.se_robust()[:5]
    assert (np.abs(fit.theta_hat.beta - truth) <= 4.0 * se).all()
    assert fit.optim.converged


def test_fit_satisfies_score_root_criterion(panel_fit):
    d, fit = panel_fit
    nll, score = pooled_negloglik_and_score(fit.theta_hat, d)
    assert np.abs(score).max() <= 1e-6 * (1.0 + abs(nll))


def test_fit_agrees_with_ols_when_treatment_is_noise():
    # alpha = 0 and rho = 0: treatment is an exogenous coin flip
    d = panel_dataset(seed=35, n_subjects=800, rho=0.0,
                      alpha=(0.0, 0.0, 0.0, 0.0, 0.0))
    fit = fit_lem(d)
    design = np.hstack([d.x, d.w * d.a[:, None]])
    ols = np.linalg.lstsq(design, d.y, rcond=None)[0][:5]
    se = fit.se_robust()[:5]
    assert (np.abs(fit.theta_hat.beta - ols) <= 2.0 * se).all()


def single_subject_dataset(z_covariate):
    rng = np.random.default_rng(4)
    n = 60
    ones = np.ones((n, 1))
    x = np.hstack([ones, rng.normal(size=(n, 1))])
    a = (rng.random(n) < 0.5).astype(float)
    y = x @ [0.5, 1.0] + a + rng.normal(size=n)
    z = np.hstack([ones, rng.normal(size=(n, 1))]) if z_covariate else ones
    return LongDataset.from_arrays(y=y, a=a, x=x, z=z, w=ones,
                                   subject_ids=["solo"] * n, time_index=np.arange(n))


def no_overlap_dataset(z_covariate):
    rng = np.random.default_rng(5)
    n = 120
    ones = np.ones((n, 1))
    a = np.repeat([0.0, 1.0], n // 2)
    # disjoint outcome ranges, generous gap
    y = np.where(a == 0, rng.normal(size=n), rng.normal(size=n) + 30.0)
    z = np.hstack([ones, rng.normal(size=(n, 1))]) if z_covariate else ones
    return LongDataset.from_arrays(y=y, a=a, x=ones, z=z, w=ones)


def test_fit_single_subject_flags_covariance():
    d = single_subject_dataset(z_covariate=True)
    fit = fit_lem(d)
    assert fit.n_subjects == 1
    assert any("single cluster" in w for w in fit.warnings)


def test_fit_overlap_failure_is_warning_not_error():
    d = no_overlap_dataset(z_covariate=True)
    fit = fit_lem(d)
    assert any("overlap" in w for w in fit.warnings)


@pytest.mark.parametrize("make", [single_subject_dataset, no_overlap_dataset])
def test_fit_non_identified_design_raises_singular(make):
    # z and w intercept-only: the OLS residuals sum to zero in each arm, so the
    # varrho score vanishes identically at rho = 0 and the information is singular
    with pytest.raises(SingularMatrix):
        fit_lem(make(z_covariate=False))


def test_fit_newton_converges_in_few_iterations(panel_fit):
    _, fit = panel_fit
    assert fit.optim.converged
    assert fit.optim.iterations <= 8


@pytest.mark.parametrize("name,seed", [("sim1", 15), ("sim1", 18), ("sim2", 2), ("sim2", 4),
                                       ("sim2", 15), ("sim2", 16), ("sim3", 11), ("sim3", 13),
                                       ("sim4", 21)])
def test_fit_converges_where_the_line_search_meets_rounding(name, seed):
    # designs whose last Newton step predicts a decrease below the objective's
    # rounding; without the near-root full step the line search stalls there
    cfg = preset(name, seed=seed)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    if cfg.missingness != "none":
        d = apply_missingness(d, cfg, rng)
    fit = fit_lem(d)
    assert fit.optim.converged
    assert fit.warnings == []
    assert fit.optim.n_evals <= 10


def test_fit_non_finite_hessian_raises(monkeypatch):
    import lem.fit

    original = lem.fit.information_rows

    def poisoned(theta, dataset):
        coords, groups, weights = original(theta, dataset)
        weights = weights.copy()
        weights[0, 0, 0] = np.nan
        return coords, groups, weights

    monkeypatch.setattr(lem.fit, "information_rows", poisoned)
    with pytest.raises(NonFiniteLikelihood):
        fit_lem(panel_dataset(seed=37, n_subjects=200))


def test_refit_from_perturbed_start_reaches_same_solution(panel_fit):
    d, fit = panel_fit
    rng = np.random.default_rng(6)
    start = fit.theta_hat.to_array() + rng.uniform(-0.1, 0.1, size=fit.theta_hat.dim)
    from lem.optim import OptimProblem, minimize_bfgs
    from lem.fit import _CachedObjective

    dims = (5, 5, 5)
    cache = _CachedObjective(d, dims, "logistic")
    res = minimize_bfgs(OptimProblem(17, cache.objective, cache.gradient, cache.hessian),
                        start, tol=1e-8, max_iter=500)
    np.testing.assert_allclose(res.argmin, fit.theta_hat.to_array(), atol=1e-5)


def test_rho_map_choice_does_not_change_estimates(panel_fit):
    d, fit = panel_fit
    fit_atan = fit_lem(d, FitOptions(rho_map="arctan"))
    np.testing.assert_allclose(fit_atan.theta_hat.beta, fit.theta_hat.beta, atol=1e-6)
    assert fit_atan.theta_hat.rho == pytest.approx(fit.theta_hat.rho, abs=1e-6)


# ---------------------------------------------------------------------------
# covariance estimators
# ---------------------------------------------------------------------------

def test_sandwich_halves_when_clusters_duplicated(panel_fit):
    d, fit = panel_fit
    doubled = LongDataset.from_arrays(
        y=np.concatenate([d.y, d.y]),
        a=np.concatenate([d.a, d.a]),
        x=np.vstack([d.x, d.x]),
        z=np.vstack([d.z, d.z]),
        w=np.vstack([d.w, d.w]),
        subject_ids=np.concatenate([d.subject_ids, np.char.add("dup", d.subject_ids)]),
        time_index=np.concatenate([d.time_index, d.time_index]),
    )
    cov = sandwich_cov(fit.theta_hat, d)
    cov2 = sandwich_cov(fit.theta_hat, doubled)
    np.testing.assert_allclose(cov2, 0.5 * cov, rtol=1e-8)


def test_sandwich_invariant_to_subject_relabeling(panel_fit):
    d, fit = panel_fit
    rng = np.random.default_rng(7)
    perm = rng.permutation(d.n_subjects)
    starts = d.subject_starts
    order = np.concatenate([np.arange(starts[s], starts[s + 1]) for s in perm])
    shuffled = LongDataset.from_arrays(
        y=d.y[order], a=d.a[order], x=d.x[order], z=d.z[order], w=d.w[order],
        subject_ids=d.subject_ids[order], time_index=d.time_index[order],
    )
    cov = sandwich_cov(fit.theta_hat, d)
    cov_shuffled = sandwich_cov(fit.theta_hat, shuffled)
    np.testing.assert_array_equal(cov, cov_shuffled)


def test_sandwich_is_symmetric_psd(panel_fit):
    _, fit = panel_fit
    cov = fit.cov_robust
    np.testing.assert_array_equal(cov, cov.T)
    eigvals = np.linalg.eigvalsh(cov)
    assert eigvals.min() >= -1e-8 * eigvals.max()


def test_linear_combination_variance_from_beta_block(panel_fit):
    _, fit = panel_fit
    rng = np.random.default_rng(8)
    vbb = fit.beta_block_cov()
    for _ in range(5):
        c = rng.normal(size=5)
        var = float(c @ vbb @ c)
        # same contraction through the full covariance with zero padding
        cfull = np.concatenate([c, np.zeros(fit.theta_hat.dim - 5)])
        assert var == pytest.approx(float(cfull @ fit.cov_robust @ cfull), rel=1e-12)


def test_fisher_agrees_with_sandwich_cross_sectionally(cross_sectional_fit):
    d, fit = cross_sectional_fit
    robust_se = fit.se_robust()
    model_se = np.sqrt(np.diag(fisher_cov(fit.theta_hat, d)))
    np.testing.assert_allclose(robust_se, model_se, rtol=0.15)


def test_fisher_warns_on_longitudinal_data(panel_fit):
    d, fit = panel_fit
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fisher_cov(fit.theta_hat, d)
    assert any("independent" in str(w.message) for w in caught)


def test_fisher_understates_clustering_on_panel_data(panel_fit):
    # within-subject correlation is 0.6; treating rows as independent must
    # shrink the outcome-block standard errors relative to the sandwich
    d, fit = panel_fit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model_se = np.sqrt(np.diag(fisher_cov(fit.theta_hat, d)))[:5]
    robust_se = fit.se_robust()[:5]
    ratio = robust_se / model_se
    assert ratio.mean() > 1.03
    assert ratio[0] > 1.05


def test_fd_jacobian_exact_for_quadratic():
    # the gradient of a quadratic is linear, so central differences recover
    # the Hessian exactly and its inverse is the exact inverse Hessian
    rng = np.random.default_rng(9)
    a = rng.normal(size=(6, 6))
    hess = a @ a.T + 6 * np.eye(6)
    from lem.numerics import solve_sym

    got = fd_jacobian(lambda v: hess @ v, rng.normal(size=6))
    np.testing.assert_allclose(got, hess, rtol=1e-9)
    np.testing.assert_allclose(solve_sym(got, np.eye(6)), np.linalg.inv(hess), rtol=1e-8)


def test_bread_agrees_with_finite_difference_bread(panel_fit):
    d, fit = panel_fit
    theta = fit.theta_hat

    def neg_score(vec):
        return pooled_negloglik_and_score(Theta.from_array(vec, (5, 5, 5)), d)[1]

    fd = fd_jacobian(neg_score, theta.to_array())
    bread = score_jacobian(theta, d)
    assert np.abs(bread - fd).max() <= 1e-6 * np.abs(fd).max()


@pytest.mark.parametrize("name", ["sim1", "sim2", "sim3", "sim4"])
def test_solver_hessian_agrees_with_the_exact_bread(name):
    # two sums of the same information rows that share no code: the solver's
    # BLAS products and the exact Gram kernel
    from lem.fit import _CachedObjective

    cfg = preset(name, seed=3)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    if cfg.missingness != "none":
        d = apply_missingness(d, cfg, rng)
    theta = fit_lem(d).theta_hat
    hessian = _CachedObjective(d, d.dims, theta.rho_map).hessian(theta.to_array())
    bread = score_jacobian(theta, d)
    assert np.abs(hessian - bread).max() <= 1e-12 * np.abs(bread).max()


def test_bread_bit_equal_under_subject_relabeling(panel_fit):
    d, fit = panel_fit
    rng = np.random.default_rng(12)
    starts = d.subject_starts
    order = np.concatenate([np.arange(starts[s], starts[s + 1])
                            for s in rng.permutation(d.n_subjects)])
    shuffled = LongDataset.from_arrays(
        y=d.y[order], a=d.a[order], x=d.x[order], z=d.z[order], w=d.w[order],
        subject_ids=d.subject_ids[order], time_index=d.time_index[order],
    )
    np.testing.assert_array_equal(score_jacobian(fit.theta_hat, shuffled),
                                  score_jacobian(fit.theta_hat, d))


def test_fit_computes_bread_once(monkeypatch):
    import lem.fit

    calls = []
    original = lem.fit.score_jacobian

    def counted(theta, dataset):
        calls.append(1)
        return original(theta, dataset)

    monkeypatch.setattr(lem.fit, "score_jacobian", counted)
    fit = fit_lem(panel_dataset(seed=36, n_subjects=200), FitOptions(compute_model_cov=True))
    assert fit.cov_model is not None
    assert len(calls) == 1


def test_fit_evaluates_the_likelihood_only_inside_the_solver(monkeypatch):
    # the solver's final value and gradient are the pooled ones at theta_hat
    import lem.fit

    calls = []
    original = lem.fit.pooled_negloglik_and_score

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(lem.fit, "pooled_negloglik_and_score", counted)
    fit = fit_lem(panel_dataset(seed=36, n_subjects=200))
    assert fit.optim.n_evals > 0
    assert len(calls) == fit.optim.n_evals


def test_sandwich_warns_only_away_from_a_score_root(panel_fit):
    d, fit = panel_fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sandwich_cov(fit.theta_hat, d)
    with pytest.warns(UserWarning, match="away from a score root"):
        sandwich_cov(initialize(d), d)


@pytest.mark.parametrize("given_bread", [False, True])
def test_sandwich_non_finite_score_raises(panel_fit, given_bread):
    d, fit = panel_fit
    t = fit.theta_hat
    bad = Theta(beta=t.beta, eta=t.eta, alpha=t.alpha, log_sigma_y=-800.0, varrho=t.varrho)
    bread = score_jacobian(t, d) if given_bread else None
    with pytest.raises(NonFiniteLikelihood):
        sandwich_cov(bad, d, bread)


def test_fits_load_neither_scipy_linalg_nor_scipy_optimize():
    # numpy and scipy link separate OpenBLAS builds, and switching between
    # their thread pools cost about 8 ms per call on a 2-core host: dense
    # algebra in a fit stays on numpy's
    import lem

    script = textwrap.dedent("""
        import sys
        from lem.fit import fit_lem
        from lem.gee import VARIANTS, fit_gee_independence
        from lem.simulate import (apply_missingness, gen_covariates, gen_outcomes,
                                  preset, substream)
        cfg = preset("sim3", seed=0, n_subjects=200)
        rng = substream(cfg.seed, 0)
        d = apply_missingness(gen_outcomes(gen_covariates(cfg, rng), cfg, rng), cfg, rng)
        fit_lem(d)
        for variant in VARIANTS:
            fit_gee_independence(d, variant)
        print(sorted(m for m in ("scipy.linalg", "scipy.optimize") if m in sys.modules))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(lem.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Wald inference
# ---------------------------------------------------------------------------

def test_wald_textbook_interval():
    class Stub:
        param_names = ["b"]
        cov_robust = np.array([[0.05 ** 2]])
        theta_hat = Theta(beta=[1.0], eta=[], alpha=[], log_sigma_y=0.0, varrho=0.0)

    res = wald(Stub(), 0, level=0.95)
    assert res.ci[0] == pytest.approx(0.9020018, abs=1e-6)
    assert res.ci[1] == pytest.approx(1.0979982, abs=1e-6)


def test_wald_zero_estimate_p_value_one():
    class Stub:
        param_names = ["b"]
        cov_robust = np.array([[4.0]])
        theta_hat = Theta(beta=[0.0], eta=[], alpha=[], log_sigma_y=0.0, varrho=0.0)

    assert wald(Stub(), "b").p_value == 1.0


def test_wald_selector_errors(panel_fit):
    _, fit = panel_fit
    with pytest.raises(IndexOutOfRange):
        wald(fit, "nonexistent")
    with pytest.raises(IndexOutOfRange):
        wald(fit, 99)


def test_wald_by_name(panel_fit):
    _, fit = panel_fit
    res = wald(fit, "beta:O1")
    assert res.name == "beta:O1"
    assert res.estimate == pytest.approx(fit.theta_hat.beta[1])


# ---------------------------------------------------------------------------
# spline basis and prediction
# ---------------------------------------------------------------------------

def test_ncs_linear_below_first_knot():
    basis = ncs_basis(40.0, [55.0, 70.0, 85.0])
    np.testing.assert_allclose(basis, [40.0, 0.0])


def test_ncs_golden_value_at_middle_knot():
    # hand evaluation: d_1(70) = (70-55)^3 / (85-55) = 112.5, d_2(70) = 0
    basis = ncs_basis(70.0, [55.0, 70.0, 85.0])
    np.testing.assert_allclose(basis, [70.0, 112.5])


def test_ncs_second_derivative_vanishes_beyond_boundary():
    knots = [55.0, 70.0, 85.0]
    x0, h = 95.0, 1e-3
    second = (ncs_basis(x0 + h, knots) - 2 * ncs_basis(x0, knots) + ncs_basis(x0 - h, knots)) / h ** 2
    np.testing.assert_allclose(second, 0.0, atol=1e-5)


def test_ncs_dimension_and_vector_input():
    knots = [0.0, 1.0, 2.0, 3.0, 4.0]
    out = ncs_basis(np.linspace(-1, 5, 7), knots)
    assert out.shape == (7, 4)


def test_ncs_unsorted_knots_rejected():
    with pytest.raises(UnsortedKnots):
        ncs_basis(1.0, [0.0, 2.0, 1.0])
    with pytest.raises(UnsortedKnots):
        ncs_basis(1.0, [0.0, 1.0])


def test_predict_intercept_row(panel_fit):
    _, fit = panel_fit
    est, se = predict_mean(fit, np.array([1.0, 0, 0, 0, 0]))
    assert est == pytest.approx(fit.theta_hat.beta[0])
    assert se == pytest.approx(math.sqrt(fit.cov_robust[0, 0]))


def test_predict_proportional_rows(panel_fit):
    _, fit = panel_fit
    row = np.array([1.0, 0.5, -0.2, 0.1, 0.7])
    e1, s1 = predict_mean(fit, row)
    e2, s2 = predict_mean(fit, 3.0 * row)
    assert e2 == pytest.approx(3.0 * e1, rel=1e-12)
    assert s2 == pytest.approx(3.0 * s1, rel=1e-12)


def test_predict_dimension_mismatch(panel_fit):
    _, fit = panel_fit
    with pytest.raises(DimensionMismatch):
        predict_mean(fit, np.ones(3))


def test_prediction_band_orders_bounds(panel_fit):
    _, fit = panel_fit
    rng = np.random.default_rng(10)
    rows = np.hstack([np.ones((8, 1)), rng.normal(size=(8, 4))])
    band = prediction_band(fit, rows, grid=np.arange(8.0))
    assert (band.lower <= band.estimate).all()
    assert (band.estimate <= band.upper).all()


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, float("nan")])
def test_level_outside_the_unit_interval_rejected(panel_fit, level):
    _, fit = panel_fit
    with pytest.raises(ValueError, match="level"):
        prediction_band(fit, np.ones((2, fit.beta.size)), level=level)
    with pytest.raises(ValueError, match="level"):
        wald(fit, 0, level=level)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_fit_json_roundtrip(tmp_path, panel_fit):
    _, fit = panel_fit
    path = str(tmp_path / "fit.json")
    save_fit_json(fit_to_dict(fit), path)
    loaded = load_fit_json(path)
    np.testing.assert_allclose(loaded.beta, fit.theta_hat.beta)
    np.testing.assert_allclose(loaded.beta_block_cov(), fit.beta_block_cov())
    e1, s1 = predict_mean(fit, np.eye(5)[0])
    e2, s2 = predict_mean(loaded, np.eye(5)[0])
    assert (e1, s1) == (pytest.approx(e2), pytest.approx(s2))

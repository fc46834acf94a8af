import dataclasses
import gc
import json
import math
import textwrap
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.special import ndtri

import lem.fit
from lem.data import LongDataset
from lem.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NoConvergence,
    NonFiniteLikelihood,
    OneArmEmpty,
    SingularDesign,
    SingularMatrix,
    UnsortedKnots,
)
from lem.fit import (
    SOLVER_MAX_ITER,
    FitRecord,
    _objective,
    _probit,
    _two_step,
    contrast,
    fisher_cov,
    fit_lem,
    fit_to_dict,
    initialize,
    load_fit_json,
    ncs_basis,
    sandwich_cov,
    score_jacobian,
    wald,
)
from lem.gee import fit_gee_independence
from lem.likelihood import PreparedDesign, RowState, Theta, pooled_negloglik_and_score
from lem.numerics import gram
from lem.simulate import (
    SimConfig,
    apply_missingness,
    gen_covariates,
    gen_outcomes,
    preset,
    substream,
)
from blas_threads import run_fresh
from oracles import fd_jacobian, predict_mean, probit_fisher_scoring


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
    # the probit maximum of an intercept-only z in closed form
    assert theta0.alpha[0] == ndtri(a.mean())


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


def sim1_replicate(rep):
    cfg = preset("sim1")
    rng = substream(cfg.seed, rep)
    return gen_outcomes(gen_covariates(cfg, rng), cfg, rng)


def test_two_step_start_near_truth_on_a_large_cohort():
    d = panel_dataset(seed=34, n_subjects=3000, n_times=1)
    start = _two_step(d, initialize(d))
    # the start's rho over seeds 30-49 of this design: SD 0.04, worst error 0.084
    assert abs(start.rho - 0.5) < 0.15
    np.testing.assert_array_equal(start.alpha, initialize(d).alpha)


def test_two_step_falls_back_with_an_intercept_only_z():
    # h takes one value per arm, so it is collinear with the intercept and a
    d = sim1_replicate(0)
    d = dataclasses.replace(d, z=d.x[:, :1], z_names=d.x_names[:1])
    theta0 = initialize(d)
    start = _two_step(d, theta0)
    assert start.varrho == 0.0
    np.testing.assert_array_equal(start.beta, theta0.beta)
    np.testing.assert_array_equal(start.eta, theta0.eta)
    assert start.sigma_y == theta0.sigma_y


def test_fit_without_an_exclusion_restriction_matches_the_rho_zero_start(monkeypatch):
    # z = x: only the probit's curvature separates h from the outcome design
    fits = []
    for rep in range(6):
        d = sim1_replicate(rep)
        fits.append(fit_lem(dataclasses.replace(d, z=d.x, z_names=d.x_names)))
    monkeypatch.setattr(lem.fit, "_two_step", lambda dataset, theta0: theta0)
    for rep, fit in enumerate(fits):
        d = sim1_replicate(rep)
        ref = fit_lem(dataclasses.replace(d, z=d.x, z_names=d.x_names))
        # measured on replicates 0-11: at most 1.5e-10 apart, in no more iterations
        np.testing.assert_allclose(fit.estimates, ref.estimates, rtol=0, atol=1e-9)
        np.testing.assert_allclose(fit.se_robust(), ref.se_robust(), rtol=1e-8)
        assert fit.optim.iterations <= ref.optim.iterations


def test_two_step_start_saves_newton_iterations():
    # mean over these 24 fits: 5.08 iterations from the rho = 0 start, 3.08 from the two-step
    iterations = [fit_lem(sim1_replicate(rep)).optim.iterations for rep in range(24)]
    assert np.mean(iterations) <= 3.5


def test_fit_raises_singular_on_a_negative_robust_variance():
    # intercept-only z: the fit converges, but the robust variance of varrho is
    # -6.2e-10, which no rescaling of the outcome can mend
    d = sim1_replicate(0)
    with pytest.raises(SingularMatrix, match="variance of varrho .* not identify"):
        fit_lem(dataclasses.replace(d, z=d.x[:, :1], z_names=d.x_names[:1]))


@pytest.mark.parametrize("name", ["sim1", "sim2", "sim3", "sim4"])
def test_probit_start_agrees_with_fisher_scoring(name):
    cfg = preset(name)
    for rep in range(3):
        rng = substream(cfg.seed, rep)
        d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
        if cfg.missingness != "none":
            d = apply_missingness(d, cfg, rng)
        np.testing.assert_allclose(_probit(d.z, d.a), probit_fisher_scoring(d.z, d.a),
                                   rtol=0, atol=1e-9)


def separated_dataset(seed):
    """Treatment exactly 1(v > 0) for a column v of z."""
    rng = np.random.default_rng(seed)
    n = 200
    v = rng.normal(size=n)
    a = (v > 0).astype(float)
    ones = np.ones((n, 1))
    return LongDataset.from_arrays(y=rng.normal(size=n) + a, a=a, x=ones,
                                   z=np.column_stack([np.ones(n), v]), w=ones)


@pytest.mark.parametrize("seed", range(5))
def test_fit_raises_on_complete_separation(seed):
    with pytest.raises(SingularDesign, match="separates treatment completely"):
        fit_lem(separated_dataset(seed))


def test_probit_start_raises_at_its_iteration_cap(monkeypatch):
    d = panel_dataset(seed=33, n_subjects=300)
    monkeypatch.setattr(lem.fit, "PROBIT_MAX_ITER", 2)
    with pytest.raises(SingularDesign, match="did not converge"):
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
    # every Newton Hessian's weights come from the accepted point's row state
    original = RowState.weights

    def poisoned(state):
        weights = original(state).copy()
        weights[0, 0, 0] = np.nan
        return weights

    monkeypatch.setattr(RowState, "weights", poisoned)
    with pytest.raises(NonFiniteLikelihood):
        fit_lem(panel_dataset(seed=37, n_subjects=200))


@pytest.mark.parametrize("rep", range(4))
def test_fit_that_stalls_raises_no_convergence_early(rep):
    # 34-45 rows: the solver drives varrho toward the boundary, where accepted
    # steps stop lowering the objective; it stops there, not at the iteration cap
    cfg = preset("sim3", seed=9, n_subjects=20)
    rng = substream(cfg.seed, rep)
    d = apply_missingness(gen_outcomes(gen_covariates(cfg, rng), cfg, rng), cfg, rng)
    with pytest.raises(NoConvergence) as excinfo:
        fit_lem(d)
    assert not excinfo.value.result.converged
    assert excinfo.value.result.iterations < SOLVER_MAX_ITER


def test_fit_whose_line_search_tries_a_sigma_y_past_the_float_range_raises_no_convergence():
    # 20 rows, w covariates at scale 4e-8 and y at 1e-9: a line-search trial
    # reaches log_sigma_y where exp overflows a float; the trial is +inf, not
    # an OverflowError, and the fit ends unconverged
    rng = np.random.default_rng(205)
    visits = rng.integers(1, 4, size=9)
    while visits.sum() != 20:
        visits = rng.integers(1, 4, size=9)
    z = np.hstack([np.ones((20, 1)), rng.normal(size=(20, 2))])
    w = np.hstack([np.ones((20, 1)), 4e-8 * rng.normal(size=(20, 3))])
    a = (rng.random(20) < 0.5).astype(float)
    d = LongDataset.from_arrays(y=1e-9 * rng.normal(size=20), a=a, x=np.ones((20, 1)), z=z, w=w,
                                subject_ids=np.repeat(np.arange(9), visits))
    with pytest.raises(NoConvergence):
        fit_lem(d)


@pytest.fixture(scope="module")
def small_panel_fit():
    d = panel_dataset(seed=3, n_subjects=100)
    return d, fit_lem(d)


@settings(max_examples=6, deadline=None)
@given(j=st.integers(-450, 450))
def test_fit_is_equivariant_to_power_of_two_outcome_scales(small_panel_fit, j):
    # y x 2**j is fitted on the same numbers as y: beta, eta and their SEs scale
    # exactly, alpha and varrho do not move
    d, fit = small_panel_fit
    scaled = fit_lem(dataclasses.replace(d, y=np.ldexp(d.y, j)))
    trend = fit.j_x + d.dims[2]
    np.testing.assert_array_equal(scaled.estimates[:trend], np.ldexp(fit.estimates[:trend], j))
    np.testing.assert_array_equal(scaled.se_robust()[:trend], np.ldexp(fit.se_robust()[:trend], j))
    np.testing.assert_array_equal(scaled.theta_hat.alpha, fit.theta_hat.alpha)
    assert scaled.theta_hat.varrho == fit.theta_hat.varrho


def test_fit_raises_when_variances_overflow_in_the_data_units(small_panel_fit):
    d, _ = small_panel_fit
    with pytest.raises(NonFiniteLikelihood, match="variance"):
        fit_lem(dataclasses.replace(d, y=d.y * 1e300))


def test_fit_one_arm_raises():
    d = panel_dataset(seed=3, n_subjects=50)
    with pytest.raises(OneArmEmpty, match="both treatment arms"):
        fit_lem(dataclasses.replace(d, a=np.zeros(d.n_rows)))


def test_refit_from_perturbed_start_reaches_same_solution(panel_fit):
    d, fit = panel_fit
    rng = np.random.default_rng(6)
    start = fit.theta_hat.to_array() + rng.uniform(-0.1, 0.1, size=fit.theta_hat.dim)
    from lem.optim import minimize_bfgs

    res = minimize_bfgs(*_objective(d), start, tol=1e-8, max_iter=500)
    np.testing.assert_allclose(res.argmin, fit.theta_hat.to_array(), atol=1e-5)


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
    c = np.random.default_rng(8).normal(size=(5, 5))
    # the same contrasts through the full covariance with zero padding
    cfull = np.hstack([c, np.zeros((5, fit.theta_hat.dim - 5))])
    np.testing.assert_allclose(contrast(fit, c).se, contrast(fit, cfull).se, rtol=1e-12)


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
    # the same information rows summed by one loop and pair layout: with the
    # exact kernel's pre-rounded slices, and without them for the solver
    cfg = preset(name, seed=3)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    if cfg.missingness != "none":
        d = apply_missingness(d, cfg, rng)
    theta = fit_lem(d).theta_hat
    fun, hess = _objective(d)
    state = fun(theta.to_array())[2]
    hessian = hess(state)
    bread = score_jacobian(theta, d)
    assert np.abs(hessian - bread).max() <= 1e-12 * np.abs(bread).max()
    # built from one evaluation's row state, both equal the stand-alone paths bit for bit
    design = PreparedDesign.of(d)
    np.testing.assert_array_equal(hessian, gram(design.coords, design.groups,
                                                RowState(theta, design).weights()))
    np.testing.assert_array_equal(score_jacobian(theta, d, _state=state), bread)


def test_fit_covariances_equal_the_stand_alone_estimators():
    # y in [8, 16) is fitted unscaled, so the covariances the fit builds from
    # the solver's last row state equal the stand-alone ones at theta_hat
    d = panel_dataset(seed=39, n_subjects=200)
    d = dataclasses.replace(d, y=np.ldexp(d.y, 4 - np.frexp(np.abs(d.y).max())[1]))
    fit = fit_lem(d, model_cov=True)
    theta = fit.theta_hat
    np.testing.assert_array_equal(fit.cov_robust, sandwich_cov(theta, d, score_jacobian(theta, d)))
    with pytest.warns(UserWarning, match="model-based covariance"):
        np.testing.assert_array_equal(fit.cov_model, fisher_cov(theta, d))


def test_sandwich_from_a_row_state_matches_the_stand_alone_call_without_warning(panel_fit):
    # fit_lem passes the solver's score rows and pooled score and judges the
    # score root itself: away from a root that path gives the stand-alone
    # call's result, and only the stand-alone call warns
    d, fit = panel_fit
    theta = Theta.from_array(fit.theta_hat.to_array() + 1e-3, d.dims)
    _, neg_score, state = pooled_negloglik_and_score(theta, d, _keep_rows=True)
    bread = score_jacobian(theta, d)
    with pytest.warns(UserWarning, match="away from a score root"):
        expected = sandwich_cov(theta, d, bread)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sandwich_cov(theta, d, bread, _point=(state.score, -neg_score))
    np.testing.assert_array_equal(got, expected)


def test_fit_accepted_off_the_root_records_it_and_emits_no_warning(monkeypatch):
    # two Newton iterations stop short of the gradient tolerance but within
    # the score-root criterion: the fit records the acceptance and leaves
    # sandwich_cov's "away from a score root" warning unraised
    cfg = preset("sim1", seed=3, n_subjects=2000)
    rng = substream(3, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    monkeypatch.setattr(lem.fit, "SOLVER_MAX_ITER", 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_lem(d)
    assert not fit.optim.converged
    assert any("accepted with pooled score norm" in w for w in fit.warnings)


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
    # one bread and one sandwich, from the solver's last row state: the
    # score rows are not computed again
    calls = {"score_jacobian": 0, "sandwich_cov": 0, "score_rows": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(lem.fit, name, counted(name, getattr(lem.fit, name)))
    fit = fit_lem(panel_dataset(seed=36, n_subjects=200), model_cov=True)
    assert fit.cov_model is not None
    assert calls == {"score_jacobian": 1, "sandwich_cov": 1, "score_rows": 0}


def test_fit_sums_exactly_once_at_the_point_it_reports(monkeypatch):
    # the solver steers on plain sums; the fit makes one exact pooled
    # evaluation, at the solver's argmin, and reports its value and score bit
    # for bit; no row state, the solver's or that call's, outlives the fit
    calls, states = [], []
    original = lem.fit.pooled_negloglik_and_score
    row_pass = RowState.__init__

    def counted(theta, dataset, **kwargs):
        out = original(theta, dataset, **kwargs)
        calls.append((theta.to_array(), kwargs, out[:2]))
        return out

    def tracked(self, *args):
        states.append(weakref.ref(self))
        row_pass(self, *args)

    monkeypatch.setattr(lem.fit, "pooled_negloglik_and_score", counted)
    monkeypatch.setattr(RowState, "__init__", tracked)
    fit = fit_lem(panel_dataset(seed=36, n_subjects=200))
    [(theta, kwargs, (nll, neg_score))] = calls
    assert kwargs == {"_keep_rows": True}
    np.testing.assert_array_equal(theta, fit.optim.argmin)
    assert fit.optim.objective_value == nll
    np.testing.assert_array_equal(fit.optim.gradient, neg_score)
    assert fit.optim.converged and fit.optim.gradient_inf_norm <= lem.fit.SOLVER_TOL
    assert len(states) == fit.optim.n_evals + 1
    assert fit.optim.state is None
    gc.collect()
    assert all(state() is None for state in states)


def test_fit_reports_converged_only_if_the_exact_score_meets_the_tolerance(monkeypatch):
    # the solver stops on its plain sums; an exact score above the gradient
    # tolerance at that point makes the fit unconverged, accepted by the
    # score-root criterion
    original = lem.fit.pooled_negloglik_and_score

    def off_by_twice_the_tolerance(*args, **kwargs):
        nll, neg_score, state = original(*args, **kwargs)
        return nll, neg_score + 2 * lem.fit.SOLVER_TOL, state

    monkeypatch.setattr(lem.fit, "pooled_negloglik_and_score", off_by_twice_the_tolerance)
    fit = fit_lem(panel_dataset(seed=36, n_subjects=200))
    assert not fit.optim.converged
    assert fit.optim.gradient_inf_norm > lem.fit.SOLVER_TOL
    assert any("gradient tolerance 1e-08 not reached" in w for w in fit.warnings)


def _steering_bound(terms):
    """|plain - exact| for a sum of float products in any order: at most
    n eps times the sum of the magnitudes (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., (3.5) and (4.4)), with the exact sum's one
    final rounding included."""
    return terms.shape[0] * np.finfo(float).eps * np.abs(terms).sum(axis=0)


@pytest.mark.parametrize("name", ["sim1", "sim2", "sim3", "sim4"])
def test_steering_sums_agree_with_the_exact_ones_to_rounding(name):
    cfg = preset(name, seed=5)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    if cfg.missingness != "none":
        d = apply_missingness(d, cfg, rng)
    fun, _ = _objective(d)
    start = _two_step(d, initialize(d))
    points = [start.to_array(), fit_lem(d).theta_hat.to_array(),
              start.to_array() + np.random.default_rng(5).uniform(-0.2, 0.2, start.dim)]
    for vec in points:
        value, neg_score, state = fun(vec)
        nll, exact_neg_score, exact_state = pooled_negloglik_and_score(
            Theta.from_array(vec, d.dims), d, _keep_rows=True)
        np.testing.assert_array_equal(state.ll, exact_state.ll)
        assert abs(value - nll) <= _steering_bound(state.ll)
        assert (np.abs(neg_score - exact_neg_score) <= _steering_bound(exact_state.score)).all()


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
    script = textwrap.dedent("""
        import json, sys
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
        print(json.dumps(sorted(m for m in ("scipy.linalg", "scipy.optimize") if m in sys.modules)))
    """)
    assert run_fresh(script) == []


def test_a_bare_fit_is_independent_of_the_blas_thread_count():
    """A fit in a fresh interpreter on the default BLAS thread count equals
    one under OPENBLAS_NUM_THREADS=1, and leaves every OpenBLAS on one
    thread: at 60k rows the start's least squares gives other last bits on
    several threads than on one.  On a one-core host both runs have one
    thread anyway and this passes trivially."""
    script = textwrap.dedent("""
        import hashlib, json
        from blas_threads import openblas_thread_counts
        from lem.fit import fit_lem
        from lem.simulate import gen_covariates, gen_outcomes, preset, substream
        cfg = preset("sim1", seed=3, n_subjects=20_000)
        rng = substream(cfg.seed, 0)
        fit = fit_lem(gen_outcomes(gen_covariates(cfg, rng), cfg, rng))
        digest = hashlib.sha256(fit.estimates.tobytes() + fit.cov_robust.tobytes())
        print(json.dumps([digest.hexdigest(), openblas_thread_counts()]))
    """)
    default, counts = run_fresh(script)
    if not counts:
        pytest.skip("no OpenBLAS loaded")
    one_thread, _ = run_fresh(script, env={"OPENBLAS_NUM_THREADS": "1"})
    assert default == one_thread
    assert counts == {path: 1 for path in counts}


@pytest.mark.parametrize("name", ["sim1", "sim2", "sim3", "sim4"])
def test_a_fit_does_not_depend_on_the_memory_order_of_x_z_and_w(name):
    # the simulator's hstack gives Fortran order, load_csv and subset_rows C order
    cfg = preset(name, seed=0)
    rng = substream(cfg.seed, 0)
    d = apply_missingness(gen_outcomes(gen_covariates(cfg, rng), cfg, rng), cfg, rng)
    want = fit_lem(d, model_cov=True)
    for order in (np.ascontiguousarray, np.asfortranarray):
        copy = dataclasses.replace(d, **{key: order(getattr(d, key)) for key in "xzw"})
        assert PreparedDesign.of(copy).coords.flags.c_contiguous
        got = fit_lem(copy, model_cov=True)
        for key in ("estimates", "cov_robust", "cov_model"):
            assert getattr(got, key).tobytes() == getattr(want, key).tobytes()
        assert ((got.negloglik, got.score_inf_norm, got.optim.iterations, got.optim.n_evals,
                 got.warnings)
                == (want.negloglik, want.score_inf_norm, want.optim.iterations,
                    want.optim.n_evals, want.warnings))


# ---------------------------------------------------------------------------
# Wald inference
# ---------------------------------------------------------------------------

def one_estimate(estimate, variance):
    return FitRecord(model="lem", param_names=["b"], estimates=np.array([estimate]),
                     cov_robust=np.array([[variance]]), j_x=1, n_subjects=1, n_rows=1)


def test_wald_textbook_interval():
    res = wald(one_estimate(1.0, 0.05 ** 2), 0, level=0.95)
    assert res.ci[0] == pytest.approx(0.9020018, abs=1e-6)
    assert res.ci[1] == pytest.approx(1.0979982, abs=1e-6)


def test_wald_zero_estimate_p_value_one():
    assert wald(one_estimate(0.0, 4.0), "b").p_value == 1.0


def test_wald_on_a_loaded_fit_and_a_gee_fit(tmp_path, panel_fit):
    d, fit = panel_fit
    path = str(tmp_path / "fit.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fit_to_dict(fit), fh)
    loaded = load_fit_json(path)
    for idx in (0, "beta:O1", "varrho"):
        assert wald(loaded, idx) == wald(fit, idx)
    gee = fit_gee_independence(d)
    res = wald(gee, "beta:treatment")
    assert (res.estimate, res.se) == (gee.coef[-1], gee.se_robust()[-1])


def test_wald_selector_errors(panel_fit):
    _, fit = panel_fit
    with pytest.raises(IndexOutOfRange):
        wald(fit, "nonexistent")
    with pytest.raises(IndexOutOfRange):
        wald(fit, 99)
    # a fraction, a bool or a non-number is no index, where int() would truncate it
    for index in (1.7, -0.5, 1.0, True, False, None, np.float64(1.0), [1]):
        with pytest.raises(IndexOutOfRange):
            wald(fit, index)
    assert wald(fit, np.int64(1)).name == wald(fit, 1).name == fit.param_names[1]
    assert wald(fit, np.int64(-1)).name == fit.param_names[-1]


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


@pytest.mark.parametrize("knots", [[0.0, 1.0, math.inf], [-math.inf, 0.0, 1.0]])
def test_ncs_non_finite_knots_rejected(knots):
    with pytest.raises(UnsortedKnots):
        ncs_basis([1.0, 2.0], knots)


def test_predict_intercept_row(panel_fit):
    _, fit = panel_fit
    band = contrast(fit, [[1.0, 0, 0, 0, 0]])
    assert band.estimate[0] == pytest.approx(fit.theta_hat.beta[0])
    assert band.se[0] == pytest.approx(math.sqrt(fit.cov_robust[0, 0]))


def test_predict_proportional_rows(panel_fit):
    _, fit = panel_fit
    row = np.array([1.0, 0.5, -0.2, 0.1, 0.7])
    band = contrast(fit, [row, 3.0 * row])
    assert band.estimate[1] == pytest.approx(3.0 * band.estimate[0], rel=1e-12)
    assert band.se[1] == pytest.approx(3.0 * band.se[0], rel=1e-12)


def test_predict_dimension_mismatch(panel_fit):
    _, fit = panel_fit
    with pytest.raises(DimensionMismatch):
        contrast(fit, np.ones((1, 3)))


@pytest.mark.parametrize("shape", [(5,), (17,), (0,), (2, 0), (2, 6), (2, 16), (2, 18)],
                         ids=["1-D", "1-D-full", "empty", "width-0", "width-6", "width-16", "width-18"])
def test_contrast_rejects_rows_of_another_width(panel_fit, shape):
    _, fit = panel_fit
    assert (fit.j_x, len(fit.estimates)) == (5, 17)
    with pytest.raises(DimensionMismatch):
        contrast(fit, np.ones(shape))


def test_prediction_band_orders_bounds(panel_fit):
    _, fit = panel_fit
    rng = np.random.default_rng(10)
    rows = np.hstack([np.ones((8, 1)), rng.normal(size=(8, 4))])
    band = contrast(fit, rows)
    assert (band.lower <= band.estimate).all()
    assert (band.estimate <= band.upper).all()


def test_trend_rows_equal_the_row_by_row_oracle_bit_for_bit(panel_fit):
    d, fit = panel_fit
    rows = np.hstack([np.ones((40, 1)), np.random.default_rng(12).normal(size=(40, 4))])
    for f in (fit, fit_gee_independence(d, "adjusted"), fit_gee_independence(d, "excluded")):
        band = contrast(f, rows, level=0.9)
        est, se = np.array([predict_mean(f, row) for row in rows]).T
        np.testing.assert_array_equal(band.estimate, est)
        np.testing.assert_array_equal(band.se, se)
        zq = ndtri(0.95)
        np.testing.assert_array_equal(band.lower, est - zq * se)
        np.testing.assert_array_equal(band.upper, est + zq * se)


def test_wald_is_the_contrast_of_the_unit_vector_bit_for_bit(tmp_path, panel_fit):
    d, lem_fit = panel_fit
    path = str(tmp_path / "fit.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fit_to_dict(lem_fit), fh)
    for fit in (lem_fit, fit_gee_independence(d, "adjusted"), fit_gee_independence(d, "excluded"),
                load_fit_json(path)):
        n = len(fit.estimates)
        table = contrast(fit, np.eye(n), level=0.9)
        for i in range(n):
            res = wald(fit, i, level=0.9)
            assert (res.estimate, res.se, res.ci, res.p_value) == (
                table.estimate[i], table.se[i], (table.lower[i], table.upper[i]), table.p_value[i])
            assert res.estimate == fit.estimates[i]
            assert res.se == math.sqrt(fit.cov_robust[i, i])


def test_contrast_at_se_zero_and_a_negative_variance():
    fit = FitRecord(model="lem", param_names=["a", "b", "c"], estimates=np.array([0.0, 2.0, -1.0]),
                    cov_robust=np.diag([0.0, 0.0, -4.0]), j_x=3, n_subjects=1, n_rows=1)
    res = contrast(fit, np.eye(3))
    np.testing.assert_array_equal(res.se, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(res.p_value, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(res.lower, fit.estimates)
    np.testing.assert_array_equal(res.upper, fit.estimates)
    assert res.level == 0.95
    assert wald(fit, "c").se == 0.0 and wald(fit, "c").p_value == 0.0


def test_effect_curve_covers_the_true_treatment_effect():
    # 100 sim1 replicates; each w profile's pointwise 95% coverage of the true
    # w'eta must lie within 3 Monte Carlo SEs of 0.95
    cfg = preset("sim1", seed=7)
    profiles = np.array([[1.0, 0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0, 1.0],
                         [1.0, -1.0, 0.0, 1.0, 0.0], [1.0, 0.5, -0.5, 2.0, -1.0]])
    truth = profiles @ np.asarray(cfg.eta)
    reps, covered = 100, np.zeros(len(profiles))
    for rep in range(reps):
        rng = substream(cfg.seed, rep)
        fit = fit_lem(gen_outcomes(gen_covariates(cfg, rng), cfg, rng))
        rows = np.zeros((len(profiles), len(fit.estimates)))
        rows[:, fit.j_x:fit.j_x + profiles.shape[1]] = profiles
        assert fit.param_names[fit.j_x:fit.j_x + 2] == ["eta:(intercept)", "eta:O3"]
        effect = contrast(fit, rows)
        covered += (effect.lower <= truth) & (truth <= effect.upper)
    mcse = math.sqrt(0.95 * 0.05 / reps)
    assert (np.abs(covered / reps - 0.95) <= 3.0 * mcse).all(), covered / reps


@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.5, float("nan")])
def test_level_outside_the_unit_interval_rejected(panel_fit, level):
    _, fit = panel_fit
    with pytest.raises(ValueError, match="level"):
        contrast(fit, np.ones((2, fit.beta.size)), level=level)
    with pytest.raises(ValueError, match="level"):
        wald(fit, 0, level=level)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_fit_json_roundtrip(tmp_path, panel_fit):
    d, lem_fit = panel_fit
    for fit in (lem_fit, fit_gee_independence(d, "adjusted"), fit_gee_independence(d, "excluded")):
        path = str(tmp_path / f"{fit.model}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fit_to_dict(fit), fh)
        loaded = load_fit_json(path)
        assert type(loaded) is FitRecord and loaded.model == fit.model
        np.testing.assert_array_equal(loaded.estimates, fit.estimates)
        np.testing.assert_array_equal(loaded.cov_robust, fit.cov_robust)
        assert loaded.j_x == fit.j_x == d.x.shape[1]
        for got, want in zip(dataclasses.astuple(contrast(loaded, np.eye(len(fit.estimates)))),
                             dataclasses.astuple(contrast(fit, np.eye(len(fit.estimates))))):
            np.testing.assert_array_equal(got, want)


def test_fit_json_keys_are_pinned(panel_fit):
    # perfbench's cohort-fit reads convergence.score_inf_norm, convergence.negloglik,
    # estimates and se_robust from every LEM fit.json; the CLI tests read convergence.converged
    d, lem_fit = panel_fit

    def keys(payload):
        return {k for k in payload} | {f"{k}.{sub}" for k, v in payload.items()
                                       if isinstance(v, dict) for sub in v}

    common = {"schema_version", "model", "param_names", "estimates", "se_robust", "cov_robust",
              "dims", "dims.j_x", "n_subjects", "n_rows", "warnings"}
    assert keys(fit_to_dict(lem_fit)) == common | {
        "cov_model", "dims.j_z", "dims.j_w", "sigma_y", "rho", "rho_map", "convergence",
        "convergence.converged", "convergence.iterations", "convergence.evaluations",
        "convergence.gradient_inf_norm", "convergence.negloglik", "convergence.score_inf_norm"}
    assert keys(fit_to_dict(fit_gee_independence(d))) == common


def _valid_fit_dict():
    record = FitRecord(model="gee-adjusted", param_names=["beta:(intercept)", "beta:t", "beta:treatment"],
                       estimates=np.array([1.0, 0.5, -0.25]), cov_robust=np.diag([0.04, 0.01, 0.09]),
                       j_x=2, n_subjects=3, n_rows=7)
    return json.loads(json.dumps(fit_to_dict(record)))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=10) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(_valid_fit_dict()) + ["dims.j_x"]), delete=st.booleans(), value=_JSON_VALUES)
def test_fit_file_with_one_bad_key_loads_or_raises_a_named_error(tmp_path, key, delete, value):
    raw = _valid_fit_dict()
    parent, key = (raw["dims"], "j_x") if key == "dims.j_x" else (raw, key)
    if delete:
        del parent[key]
    else:
        parent[key] = value
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(raw))
    try:
        load_fit_json(str(path))
    except (ValueError, KeyError):
        pass

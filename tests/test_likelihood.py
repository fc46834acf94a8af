import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from lem.data import LongDataset, subset_rows
from lem.errors import NonFiniteLikelihood
from lem.fit import fit_lem, initialize, score_jacobian
from lem.likelihood import (
    Theta,
    loglik_rows,
    pooled_negloglik_and_score,
    rho_of_varrho,
    score_rows,
    varrho_of_rho,
)
from lem.numerics import TAIL_CROSSOVER, exact_sum
from oracles import fd_jacobian, score_rows_blockwise


def make_dataset(rng, n=60, jx=3, jz=3, jw=2, subjects=None):
    x = np.hstack([np.ones((n, 1)), rng.normal(size=(n, jx - 1))])
    z = np.hstack([np.ones((n, 1)), rng.normal(size=(n, jz - 1))])
    w = np.hstack([np.ones((n, 1)), rng.normal(size=(n, jw - 1))])
    a = (rng.random(n) < 0.5).astype(float)
    y = rng.normal(size=n) * 2.0
    return LongDataset.from_arrays(y=y, a=a, x=x, z=z, w=w, subject_ids=subjects)


def random_theta(rng, dims=(3, 3, 2)):
    jx, jz, jw = dims
    return Theta(
        beta=rng.uniform(-1.5, 1.5, size=jx),
        eta=rng.uniform(-1.5, 1.5, size=jw),
        alpha=rng.uniform(-1.5, 1.5, size=jz),
        log_sigma_y=rng.uniform(-0.5, 0.5),
        varrho=rng.uniform(-1.5, 1.5),
    )


# ---------------------------------------------------------------------------
# correlation reparameterization
# ---------------------------------------------------------------------------

def test_rho_map_midpoint_and_value():
    assert rho_of_varrho(0.0) == 0.0
    # direct evaluation of 2/(1+e^-1) - 1
    assert rho_of_varrho(1.0) == pytest.approx(2.0 / (1.0 + math.exp(-1.0)) - 1.0, abs=1e-15)
    assert rho_of_varrho(1.0) == pytest.approx(0.4621171572600098, abs=1e-15)


def test_rho_map_saturation():
    assert rho_of_varrho(40.0) > 1.0 - 1e-12
    assert rho_of_varrho(-40.0) < -1.0 + 1e-12


@given(st.floats(-0.999, 0.999))
def test_rho_roundtrip_logistic(rho):
    assert rho_of_varrho(varrho_of_rho(rho)) == pytest.approx(rho, abs=1e-12)


def test_rho_map_strictly_increasing():
    grid = np.linspace(-20, 20, 500)
    vals = [rho_of_varrho(v) for v in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# per-observation log-likelihood
# ---------------------------------------------------------------------------

def trivial_row_dataset(y, a):
    ones = np.ones((1, 1))
    return LongDataset.from_arrays(y=[y], a=[a], x=ones, z=ones, w=ones)


def test_loglik_all_zero_parameters():
    theta = Theta(beta=[0.0], eta=[0.0], alpha=[0.0], log_sigma_y=0.0, varrho=0.0)
    # log phi(0) + log Phi(0)
    assert loglik_rows(theta, trivial_row_dataset(0.0, 1))[0] == pytest.approx(-1.6120857137646178, abs=1e-15)


def test_loglik_factorizes_at_rho_zero():
    rng = np.random.default_rng(2)
    d = make_dataset(rng, n=40)
    theta = random_theta(rng)
    theta = Theta(beta=theta.beta, eta=theta.eta, alpha=theta.alpha,
                  log_sigma_y=theta.log_sigma_y, varrho=0.0)
    sigma = theta.sigma_y
    ll = loglik_rows(theta, d)
    for i in range(d.n_rows):
        resid = d.y[i] - d.x[i] @ theta.beta - (d.w[i] @ theta.eta) * d.a[i]
        gauss = stats.norm.logpdf(resid, scale=sigma)
        zi = d.z[i] @ theta.alpha
        probit = stats.norm.logcdf(zi if d.a[i] == 1 else -zi)
        assert ll[i] == pytest.approx(gauss + probit, abs=1e-12)


def test_loglik_conditional_decomposition_oracle():
    # frozen from an independent scipy implementation of p(y) * P(A=1 | y)
    theta = Theta(beta=[1.0, 1.0], eta=[0.2], alpha=[0.0, 1.0],
                  log_sigma_y=math.log(2.0), varrho=varrho_of_rho(0.5))
    d = LongDataset.from_arrays(y=[3.0], a=[1.0],
                                x=np.array([[1.0, 2.0]]),
                                z=np.array([[1.0, -1.0]]),
                                w=np.array([[1.0]]))
    assert loglik_rows(theta, d)[0] == pytest.approx(-3.800352533730633, abs=1e-10)


# ---------------------------------------------------------------------------
# analytic score
# ---------------------------------------------------------------------------

def fd_score(theta, d, rel_step=1e-6):
    """Central differences of each row's loglik: (n, dim)."""
    vec = theta.to_array()
    dims = (theta.beta.size, theta.alpha.size, theta.eta.size)
    grad = np.empty((d.n_rows, vec.size))
    for k in range(vec.size):
        h = rel_step * max(1.0, abs(vec[k]))
        up, dn = vec.copy(), vec.copy()
        up[k] += h
        dn[k] -= h
        f_up = loglik_rows(Theta.from_array(up, dims), d)
        f_dn = loglik_rows(Theta.from_array(dn, dims), d)
        grad[:, k] = (f_up - f_dn) / (2 * h)
    return grad


def test_score_matches_finite_differences():
    rng = np.random.default_rng(11)
    d = make_dataset(rng, n=5)
    cases = [(random_theta(rng), d) for _ in range(8)]
    # the Mills-series regime of lambda, below the tail crossover of log Phi
    tails = [tail_case(rng) for _ in range(3)]
    assert all((probit_argument(theta, d) < TAIL_CROSSOVER).any() for theta, d in tails)
    for theta, d in cases + tails:
        analytic = score_rows(theta, d)
        numeric = fd_score(theta, d)
        for i in range(d.n_rows):
            err = np.abs(analytic[i] - numeric[i]) / np.maximum(1.0, np.abs(numeric[i]))
            assert err.max() < 1e-6


def test_score_beta_block_at_rho_zero():
    # with rho = 0 the probit factor drops from d/d beta: score = (r/sigma^2) x
    rng = np.random.default_rng(3)
    d = make_dataset(rng, n=10)
    theta = replace(random_theta(rng), varrho=0.0)
    rows = score_rows(theta, d)
    for i in range(d.n_rows):
        resid = d.y[i] - d.x[i] @ theta.beta - (d.w[i] @ theta.eta) * d.a[i]
        expected = resid / theta.sigma_y ** 2 * d.x[i]
        np.testing.assert_allclose(rows[i, :3], expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# pooled evaluation
# ---------------------------------------------------------------------------

def test_pooled_single_row_equals_observation():
    rng = np.random.default_rng(4)
    d = make_dataset(rng, n=1)
    theta = random_theta(rng)
    nll, neg_score = pooled_negloglik_and_score(theta, d)
    assert nll == pytest.approx(-loglik_rows(theta, d)[0], abs=1e-14)
    np.testing.assert_allclose(neg_score, -score_rows(theta, d)[0], rtol=1e-12)


def test_rows_of_one_pass_agree_bit_for_bit():
    # one row's loglik and score are the same functions of the row alone or in a
    # ragged dataset, and the pooled values are the exact sums of the rows
    # (sandwich_cov relies on it)
    theta, d = tail_case(np.random.default_rng(23))
    ll, rows = loglik_rows(theta, d), score_rows(theta, d)
    for i in range(d.n_rows):
        one = subset_rows(d, np.arange(d.n_rows) == i)
        np.testing.assert_array_equal(loglik_rows(theta, one), ll[i:i + 1])
        np.testing.assert_array_equal(score_rows(theta, one), rows[i:i + 1])
    nll, neg_score = pooled_negloglik_and_score(theta, d)
    assert nll == -float(exact_sum(ll))
    np.testing.assert_array_equal(neg_score, -exact_sum(rows))


def preset_points(name, seed):
    """A preset's replicate-0 cohort with its two-step start, its fitted point
    and a random point near the start."""
    from lem.simulate import apply_missingness, gen_covariates, gen_outcomes, preset, substream

    cfg = preset(name, seed=seed)
    rng = substream(cfg.seed, 0)
    d = apply_missingness(gen_outcomes(gen_covariates(cfg, rng), cfg, rng), cfg, rng)
    start = initialize(d)
    near = start.to_array() + np.random.default_rng(seed).normal(scale=0.3, size=start.dim)
    return d, [start, fit_lem(d).theta_hat, Theta.from_array(near, d.dims)]


@pytest.mark.parametrize("name", ["sim1", "sim2", "sim3", "sim4"])
def test_score_rows_equal_the_blockwise_oracle_bit_for_bit(name):
    # the gradient in the four coordinates spread over coords is the block-by-block
    # chain rule, zeros' signs included
    for seed in (0, 1):
        d, points = preset_points(name, seed)
        for theta in points:
            assert score_rows(theta, d).tobytes() == score_rows_blockwise(theta, d).tobytes()


def test_score_rows_equal_the_blockwise_oracle_in_the_tails_and_at_zero_residuals():
    rng = np.random.default_rng(24)
    cases = [tail_case(rng) for _ in range(4)]
    assert all((probit_argument(theta, d) < TAIL_CROSSOVER).any() for theta, d in cases)
    # y = 0 at beta = eta = 0 and rho = 0: every coordinate gradient in r is a zero,
    # whose sign the beta and eta blocks show
    d = make_dataset(rng, n=20)
    zeros = Theta(beta=np.zeros(3), eta=np.zeros(2), alpha=rng.uniform(-1.5, 1.5, size=3),
                  log_sigma_y=0.3, varrho=0.0)
    cases.append((zeros, LongDataset.from_arrays(y=np.zeros(20), a=d.a, x=d.x, z=d.z, w=d.w)))
    for theta, d in cases:
        assert score_rows(theta, d).tobytes() == score_rows_blockwise(theta, d).tobytes()


def test_pooled_doubling_is_exactly_twice():
    rng = np.random.default_rng(5)
    d = make_dataset(rng, n=37)
    doubled = LongDataset.from_arrays(
        y=np.concatenate([d.y, d.y]),
        a=np.concatenate([d.a, d.a]),
        x=np.vstack([d.x, d.x]),
        z=np.vstack([d.z, d.z]),
        w=np.vstack([d.w, d.w]),
    )
    theta = random_theta(rng)
    nll1, g1 = pooled_negloglik_and_score(theta, d)
    nll2, g2 = pooled_negloglik_and_score(theta, doubled)
    assert nll2 == 2.0 * nll1
    np.testing.assert_array_equal(g2, 2.0 * g1)


def test_pooled_equivariance_under_outcome_scaling():
    rng = np.random.default_rng(6)
    d = make_dataset(rng, n=50)
    theta = random_theta(rng)
    c = 3.7
    scaled = LongDataset.from_arrays(y=c * d.y, a=d.a, x=d.x, z=d.z, w=d.w)
    theta_scaled = Theta(beta=c * theta.beta, eta=c * theta.eta, alpha=theta.alpha,
                         log_sigma_y=theta.log_sigma_y + math.log(c),
                         varrho=theta.varrho)
    nll1 = pooled_negloglik_and_score(theta, d)[0]
    nll2 = pooled_negloglik_and_score(theta_scaled, scaled)[0]
    assert nll2 - nll1 == pytest.approx(d.n_rows * math.log(c), rel=1e-12)


def test_pooled_overflow_raises():
    rng = np.random.default_rng(7)
    d = make_dataset(rng, n=5)
    theta = Theta(beta=[0.0, 0.0, 0.0], eta=[0.0, 0.0], alpha=[0.0, 0.0, 0.0],
                  log_sigma_y=-800.0, varrho=0.0)
    with pytest.raises(NonFiniteLikelihood):
        pooled_negloglik_and_score(theta, d)


def sim1_cohort_at_truth(**point):
    from lem.simulate import preset, gen_covariates, gen_outcomes, substream

    cfg = preset("sim1", seed=4, n_subjects=100)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    truth = Theta(beta=cfg.beta, eta=cfg.eta, alpha=cfg.alpha,
                  log_sigma_y=0.0, varrho=varrho_of_rho(cfg.rho))
    return replace(truth, **point), d


def test_pooled_at_a_sigma_y_past_the_float_range_is_its_ieee_limit():
    # exp(800) overflows a float: sigma_y is inf, every u = r / sigma_y is 0,
    # and the outcome block's score vanishes
    theta, d = sim1_cohort_at_truth(log_sigma_y=800.0)
    nll, neg_score = pooled_negloglik_and_score(theta, d)
    assert np.isfinite(nll) and np.isfinite(neg_score).all()
    jx, _, jw = d.dims
    assert (neg_score[:jx + jw] == 0.0).all()
    assert neg_score[-2] == d.n_rows  # minus the sum of u^2 - 1


def test_information_where_sigma_y_squared_overflows_is_finite():
    # sigma_y = exp(400) is a float, its square is not
    theta, d = sim1_cohort_at_truth(log_sigma_y=400.0)
    assert np.isfinite(score_jacobian(theta, d)).all()


@pytest.mark.parametrize("varrho", [-80.0, 80.0])
def test_information_at_rho_one_raises_non_finite(varrho):
    # rho rounds to +-1 and sqrt(1 - rho^2) to 0
    theta, d = sim1_cohort_at_truth(varrho=varrho)
    assert abs(theta.rho) == 1.0
    with pytest.raises(NonFiniteLikelihood):
        score_jacobian(theta, d)


def test_pooled_sane_at_generator_truth():
    from lem.simulate import SimConfig, gen_covariates, gen_outcomes, substream

    cfg = SimConfig(n_subjects=500, seed=13)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    truth = Theta(beta=cfg.beta, eta=cfg.eta, alpha=cfg.alpha,
                  log_sigma_y=0.0, varrho=varrho_of_rho(cfg.rho))
    nll, neg_score = pooled_negloglik_and_score(truth, d)
    assert np.isfinite(nll)
    # the pooled score at the truth is a centered sum: O(sqrt(N*T)) scale
    assert np.abs(neg_score).max() < 50.0 * math.sqrt(d.n_rows)


# ---------------------------------------------------------------------------
# observed information (the sandwich bread)
# ---------------------------------------------------------------------------

def tail_dataset(rng, theta, n=40):
    """Ragged clusters; the first 6 rows put the probit argument m below -12."""
    x = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 2))])
    z = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 2))])
    w = np.hstack([np.ones((n, 1)), rng.normal(size=(n, 1))])
    z[:6, 1] = np.sign(theta.alpha[1]) * 40.0
    a = (rng.random(n) < 0.5).astype(float)
    a[:6] = 0.0  # untreated despite a large index: sign * z'alpha is very negative
    subjects = np.repeat([f"s{i}" for i in range(12)], [1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 4])
    return LongDataset.from_arrays(y=2.0 * rng.normal(size=n), a=a, x=x, z=z, w=w,
                                   subject_ids=subjects)


def probit_argument(theta, d):
    u = (d.y - d.x @ theta.beta - (d.w @ theta.eta) * d.a) / theta.sigma_y
    rho = theta.rho
    return (2.0 * d.a - 1.0) * (d.z @ theta.alpha + rho * u) / math.sqrt(1.0 - rho * rho)


def tail_case(rng):
    """A theta with |alpha[1]| >= 0.5 and its tail_dataset."""
    alpha = rng.uniform(-1.5, 1.5, size=3)
    alpha[1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    theta = Theta(beta=rng.uniform(-1.5, 1.5, size=3), eta=rng.uniform(-1.5, 1.5, size=2),
                  alpha=alpha, log_sigma_y=rng.uniform(-0.5, 0.5),
                  varrho=varrho_of_rho(rng.uniform(-0.9, 0.9)))
    d = tail_dataset(rng, theta)
    m = probit_argument(theta, d)
    assert (m[:6] < -12.0).all()
    # central differences must not straddle the tail crossover of log Phi
    assert np.abs(m - TAIL_CROSSOVER).min() > 0.5
    return theta, d


def test_information_matches_finite_differences_of_score():
    rng = np.random.default_rng(21)
    dims = (3, 3, 2)
    for _ in range(6):
        theta, d = tail_case(rng)

        def neg_score(vec):
            return pooled_negloglik_and_score(Theta.from_array(vec, dims), d)[1]

        fd = fd_jacobian(neg_score, theta.to_array())
        bread = score_jacobian(theta, d)
        assert np.abs(bread - fd).max() <= 1e-6 * np.abs(fd).max()


def test_information_doubles_exactly_under_row_duplication():
    rng = np.random.default_rng(22)
    d = make_dataset(rng, n=37)
    doubled = LongDataset.from_arrays(
        y=np.concatenate([d.y, d.y]),
        a=np.concatenate([d.a, d.a]),
        x=np.vstack([d.x, d.x]),
        z=np.vstack([d.z, d.z]),
        w=np.vstack([d.w, d.w]),
    )
    theta = random_theta(rng)
    np.testing.assert_array_equal(score_jacobian(theta, doubled), 2.0 * score_jacobian(theta, d))

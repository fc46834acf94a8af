import csv
import os
import textwrap

import numpy as np
import pytest

from lem.data import LongDataset
from lem.errors import LemError, NotPositiveDefinite
from lem.fit import fit_lem, z_quantile
from lem.gee import fit_gee_independence
from lem.simulate import (
    SimConfig,
    apply_missingness,
    covariate_correlation,
    error_covariance,
    gen_covariates,
    gen_outcomes,
    preset,
    run_study,
    substream,
)
from blas_threads import run_fresh


@pytest.fixture(scope="module")
def big_draw():
    cfg = SimConfig(n_subjects=100_000, seed=99)
    rng = substream(cfg.seed, 0)
    covs = gen_covariates(cfg, rng)
    dataset, latents = gen_outcomes(covs, cfg, rng, return_latents=True)
    return cfg, covs, dataset, latents


def test_gen_outcomes_labels_subjects_by_their_index_as_text():
    # subject i's t rows are labelled str(i), consecutively, in numpy's 21-character
    # unicode dtype (the width of any int64 as text)
    cfg = preset("sim1", seed=4, n_subjects=12)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    assert d.subject_ids.dtype == np.dtype("<U21")
    assert d.subject_ids.tolist() == [str(i) for i in range(12) for _ in range(cfg.n_times)]
    np.testing.assert_array_equal(d.subject_starts, np.arange(0, 12 * cfg.n_times + 1, cfg.n_times))


def test_covariate_correlation_matrix_values():
    r = covariate_correlation(SimConfig())
    assert r.shape == (21, 21)
    assert r[0, 0] == 1.0
    assert r[0, 1] == 0.20          # same time, different variable
    assert r[0, 7] == 0.30          # same variable, adjacent time
    assert r[0, 8] == 0.10          # different variable, different time


def test_covariate_sample_correlations(big_draw):
    _, covs, _, _ = big_draw
    flat = covs.reshape(covs.shape[0], -1)
    cor = np.corrcoef(flat, rowvar=False)
    assert cor[0, 1] == pytest.approx(0.20, abs=0.01)     # (O_t1_v1, O_t1_v2)
    assert cor[0, 7] == pytest.approx(0.30, abs=0.01)     # (O_t1_v1, O_t2_v1)
    assert cor[0, 8] == pytest.approx(0.10, abs=0.01)     # (O_t1_v1, O_t2_v2)
    np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=0.02)
    np.testing.assert_allclose(flat.std(axis=0), 1.0, atol=0.02)


def test_outcome_error_scale(big_draw):
    _, _, dataset, latents = big_draw
    resid = dataset.y - dataset.x @ np.array(SimConfig().beta) \
        - (dataset.w @ np.array(SimConfig().eta)) * dataset.a
    np.testing.assert_allclose(resid, latents.epsilon.reshape(-1), atol=1e-10)
    assert resid.std() == pytest.approx(1.0, abs=0.02)


def test_latent_concurrent_correlation(big_draw):
    _, _, _, latents = big_draw
    for t in range(3):
        c = np.corrcoef(latents.gamma[:, t], latents.epsilon[:, t])[0, 1]
        assert c == pytest.approx(0.50, abs=0.02)


def test_latent_longitudinal_correlations(big_draw):
    _, _, _, latents = big_draw
    assert np.corrcoef(latents.epsilon[:, 0], latents.epsilon[:, 1])[0, 1] == pytest.approx(0.60, abs=0.02)
    assert np.corrcoef(latents.gamma[:, 0], latents.gamma[:, 1])[0, 1] == pytest.approx(0.50, abs=0.02)
    assert np.corrcoef(latents.gamma[:, 0], latents.epsilon[:, 1])[0, 1] == pytest.approx(0.20, abs=0.02)


def test_treatment_marginal_probability_at_alpha_zero():
    cfg = SimConfig(n_subjects=100_000, n_times=1, alpha=(0.0,) * 5, seed=5)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    assert d.a.mean() == pytest.approx(0.5, abs=0.01)


def test_generated_dataset_passes_validation():
    from lem.data import matrix_rank

    cfg = SimConfig(n_subjects=400, seed=12)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    for block in (d.x, d.z, d.w):
        assert matrix_rank(block) == block.shape[1]
    assert (d.a == 0.0).any() and (d.a == 1.0).any()
    assert (d.cluster_sizes() == 3).all() and d.n_subjects == 400


def test_saturated_probit_all_treated():
    cfg = SimConfig(n_subjects=2000, alpha=(10.0, 0.0, 0.0, 0.0, 0.0), seed=6)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    assert (d.a == 1.0).all()


def test_invalid_correlation_structure_rejected():
    with pytest.raises(NotPositiveDefinite):
        SimConfig(rho_y=-0.9)


def test_error_covariance_blocks():
    s = error_covariance(SimConfig())
    assert s.shape == (6, 6)
    assert s[0, 0] == 1.0 and s[0, 1] == 0.60           # outcome block
    assert s[3, 3] == 1.0 and s[3, 4] == 0.50           # treatment block
    assert s[0, 3] == 0.50 and s[0, 4] == 0.20          # cross block


# ---------------------------------------------------------------------------
# missingness regimes
# ---------------------------------------------------------------------------

def test_mcar_rates_and_baseline_protection():
    cfg = SimConfig(n_subjects=60_000, missingness="mcar", seed=7)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    kept = apply_missingness(d, cfg, rng)
    counts = np.bincount(kept.time_index, minlength=3)
    assert counts[0] == cfg.n_subjects                      # baseline never deleted
    assert counts[1] / cfg.n_subjects == pytest.approx(2 / 3, abs=0.01)
    assert counts[2] / cfg.n_subjects == pytest.approx(1 / 2, abs=0.01)


def zeros_dataset(n, y_value):
    cfg = SimConfig()
    ones = np.ones((n, 1))
    zeros = np.zeros((n, 4))
    block = np.hstack([ones, zeros])
    return LongDataset.from_arrays(
        y=np.full(n, y_value), a=np.zeros(n), x=block, z=block, w=block,
    ), cfg


def test_covariate_mechanism_closed_form_at_zero():
    # all covariates zero: deletion probability expit(-1) = 0.2689
    d, cfg = zeros_dataset(100_000, y_value=0.0)
    d = LongDataset(
        subject_ids=d.subject_ids, time_index=d.time_index, y=d.y, a=d.a,
        x=d.x, z=d.z, w=d.w,
        x_names=d.x_names, z_names=d.z_names, w_names=d.w_names,
        column_names=tuple(f"O{i}" for i in range(1, 8)),
        column_values=np.zeros((d.n_rows, 7)),
    )
    cfg = SimConfig(missingness="covariate")
    kept = apply_missingness(d, cfg, substream(1, 0))
    assert 1 - kept.n_rows / d.n_rows == pytest.approx(0.2689, abs=0.005)


def test_covariate_mechanism_overall_rate_near_30_percent():
    cfg = SimConfig(n_subjects=35_000, missingness="covariate", seed=8)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    kept = apply_missingness(d, cfg, rng)
    assert 1 - kept.n_rows / d.n_rows == pytest.approx(0.30, abs=0.01)


def test_outcome_mechanism_bin_probabilities():
    for y_value, p in [(-5.0, 0.1), (0.5, 0.4), (4.0, 0.7)]:
        d, _ = zeros_dataset(60_000, y_value)
        cfg = SimConfig(missingness="outcome")
        kept = apply_missingness(d, cfg, substream(2, 0))
        assert 1 - kept.n_rows / d.n_rows == pytest.approx(p, abs=0.006)


def test_missingness_drops_empty_subjects():
    cfg = SimConfig(n_subjects=3000, missingness="outcome", seed=9)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    kept = apply_missingness(d, cfg, rng)
    assert kept.n_subjects < cfg.n_subjects
    assert kept.cluster_sizes().min() >= 1


# ---------------------------------------------------------------------------
# replicate studies
# ---------------------------------------------------------------------------

def small_cfg(**kw):
    defaults = dict(n_subjects=120, seed=17)
    defaults.update(kw)
    return SimConfig(**defaults)


def test_study_determinism_same_seed():
    a = run_study(small_cfg(), 6)
    b = run_study(small_cfg(), 6)
    assert a.to_csv() == b.to_csv()
    assert a.to_table() == b.to_table()


def test_study_parallel_matches_serial():
    serial = run_study(small_cfg(), 6, threads=1)
    parallel = run_study(small_cfg(), 6, threads=2)
    assert serial.to_csv() == parallel.to_csv()


@pytest.mark.parametrize("name", ["sim2", "sim3", "sim4"])
def test_study_parallel_matches_serial_on_every_missingness_preset(name):
    cfg = preset(name, seed=23, n_subjects=120)
    serial = run_study(cfg, 4, threads=1)
    parallel = run_study(cfg, 4, threads=2)
    assert serial.to_csv() == parallel.to_csv()
    assert serial.to_table() == parallel.to_table()


def test_study_workers_and_the_parent_run_one_blas_thread():
    """A fresh interpreter, since any fit leaves this process on one thread:
    the pool's initializer sets one thread in a worker that has not got it,
    run_study makes its pool while the parent runs on one thread, and the
    parent keeps that count after the study.  On a one-core host every count
    is 1 already and this passes trivially."""
    code = textwrap.dedent("""
        import json
        from concurrent.futures import ProcessPoolExecutor
        import lem.simulate
        from blas_threads import openblas_thread_counts as counts
        from lem.numerics import one_blas_thread
        with ProcessPoolExecutor(max_workers=1, initializer=one_blas_thread) as pool:
            in_worker = pool.submit(counts).result()
        at_pool = []

        class Pool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                at_pool.append(counts())
                super().__init__(*args, **kwargs)

        lem.simulate.ProcessPoolExecutor = Pool
        lem.simulate.run_study(lem.simulate.SimConfig(n_subjects=120, seed=17), 2, threads=2)
        print(json.dumps([in_worker, at_pool, counts()]))
    """)
    in_worker, at_pool, after = run_fresh(code)
    if not after:
        pytest.skip("no OpenBLAS loaded")
    ones = {path: 1 for path in after}
    assert in_worker == ones
    assert at_pool == [ones]
    assert after == ones


def test_serial_study_matches_the_pool_at_a_large_cohort():
    """At 60k rows the start's least squares gives different last bits on one
    BLAS thread than on several, so a serial study matches the pool's
    one-thread workers only if it runs on one thread too.  A fresh
    interpreter, where the serial study starts on the default thread count.
    On a one-core host both sides run one thread anyway and this passes
    trivially."""
    code = textwrap.dedent("""
        import json
        from lem.simulate import preset, run_study
        cfg = preset("sim1", seed=3, n_subjects=20_000)
        print(json.dumps([run_study(cfg, 1, threads=t).to_csv() for t in (1, 2)]))
    """)
    serial, pooled = run_fresh(code)
    assert serial == pooled


def test_a_pool_started_on_one_blas_thread_passes_it_to_its_workers():
    """A forked worker inherits the parent's count, so run_study's pool needs
    no setter call in its workers.  A fresh interpreter, where the count has
    not been set before; on a one-core host every count is 1 already and
    this passes trivially."""
    import multiprocessing

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("workers inherit the parent's BLAS count only when forked")
    code = textwrap.dedent("""
        import json
        from concurrent.futures import ProcessPoolExecutor
        from blas_threads import openblas_thread_counts as counts
        from lem.numerics import one_blas_thread
        one_blas_thread()
        with ProcessPoolExecutor(max_workers=1) as pool:
            print(json.dumps([counts(), pool.submit(counts).result()]))
    """)
    in_parent, in_worker = run_fresh(code)
    if not in_parent:
        pytest.skip("no OpenBLAS loaded")
    assert in_worker == in_parent == {path: 1 for path in in_parent}


def test_study_starts_no_more_workers_than_replicates(monkeypatch):
    import lem.simulate

    requested = []
    initializers = []

    class SerialPool:
        """Records the worker count and the initializer, and maps in this
        process: starts nothing and calls no initializer."""

        def __init__(self, max_workers, initializer=None):
            requested.append(max_workers)
            initializers.append(initializer)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(lem.simulate, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(lem.simulate, "_usable_cpus", lambda: 3)
    pooled = run_study(small_cfg(), 2, threads=64)
    assert requested == [2]
    assert initializers == [lem.numerics.one_blas_thread]
    serial = run_study(small_cfg(), 2)
    assert pooled.to_csv() == serial.to_csv()
    assert pooled.to_table() == serial.to_table()
    # nor more than there are CPUs to run them
    run_study(small_cfg(), 5, threads=5000)
    assert requested == [2, 3]


def test_usable_cpus_is_the_affinity_mask():
    import lem.simulate

    assert lem.simulate._usable_cpus() == len(os.sched_getaffinity(0))


def test_study_single_replicate_has_no_ese():
    s = run_study(small_cfg(), 1)
    assert s.methods["lem"].empirical_se is None
    assert "-" in s.to_table()
    # csv leaves the ese field empty rather than zero
    line = s.to_csv().splitlines()[1]
    assert line.split(",")[4] == ""


def test_study_lem_gee_agree_without_endogeneity():
    cfg = small_cfg(n_subjects=150, rho=0.0, eta=(0.0,) * 5, seed=18)
    s = run_study(cfg, 12)
    lem, gee = s.methods["lem"], s.methods["gee"]
    mc_se = np.maximum(lem.empirical_se, gee.empirical_se) / np.sqrt(s.n_replicates)
    diff = np.abs(lem.mean_estimate - gee.mean_estimate)
    assert (diff <= 4.0 * mc_se).all()


def test_study_counts_and_layout():
    s = run_study(small_cfg(seed=19), 3)
    assert s.n_replicates == 3
    assert s.failures == {"lem": 0, "gee": 0}
    table = s.to_table()
    assert "LEM" in table and "GEE" in table
    assert "beta_0" in table
    csv = s.to_csv()
    assert csv.splitlines()[0].startswith("method,coefficient,truth")
    assert len(csv.splitlines()) == 1 + 2 * 5


def test_study_csv_holds_numbers():
    cfg = small_cfg(seed=19)
    rows = list(csv.DictReader(run_study(cfg, 3).to_csv().splitlines()))
    assert len(rows) == 2 * len(cfg.beta)
    for row in rows:
        for key in ("truth", "mean_estimate", "ese", "mean_se_hat", "coverage"):
            float(row[key])
    assert [float(r["truth"]) for r in rows] == list(cfg.beta) * 2


@pytest.mark.parametrize("cfg, n_reps, lem_failures", [
    (preset("sim3", seed=5, n_subjects=80), 4, 0),
    # z separates treatment in three of the four replicates: their LEM fits fail
    (preset("sim3", seed=6, n_subjects=16), 4, 3),
])
def test_study_aggregates_the_fits_themselves(cfg, n_reps, lem_failures):
    fitters = {"lem": fit_lem, "gee": lambda d: fit_gee_independence(d, "adjusted")}
    est, se, failures = {m: [] for m in fitters}, {m: [] for m in fitters}, dict.fromkeys(fitters, 0)
    kept = total = 0
    for rep in range(n_reps):
        rng = substream(cfg.seed, rep)
        full = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
        d = apply_missingness(full, cfg, rng)
        kept, total = kept + d.n_rows, total + full.n_rows
        for m, fitter in fitters.items():
            try:
                fit = fitter(d)
            except LemError:
                failures[m] += 1
                continue
            est[m].append(fit.beta)
            se[m].append(fit.se_robust()[:len(cfg.beta)])
    assert failures == {"lem": lem_failures, "gee": 0}
    s = run_study(cfg, n_reps)
    assert s.failures == failures
    assert s.missing_rate == 1.0 - kept / total
    truth = np.asarray(cfg.beta)
    for m in fitters:
        e, h = np.array(est[m]), np.array(se[m])
        got = s.methods[m]
        assert got.n_converged == len(e) == n_reps - failures[m]
        np.testing.assert_array_equal(got.mean_estimate, e.mean(axis=0))
        if len(e) > 1:
            np.testing.assert_array_equal(got.empirical_se, e.std(axis=0, ddof=1))
        else:
            assert got.empirical_se is None
        np.testing.assert_array_equal(got.mean_se, h.mean(axis=0))
        np.testing.assert_array_equal(got.coverage, (np.abs(e - truth) <= z_quantile(0.95) * h).mean(axis=0))


def test_presets():
    assert preset("sim1").missingness == "none"
    assert preset("sim2").missingness == "mcar"
    assert preset("sim3").missingness == "covariate"
    assert preset("sim4", seed=3).missingness == "outcome"
    with pytest.raises(ValueError):
        preset("sim9")


def test_config_dict_roundtrip():
    cfg = preset("sim3", seed=11)
    again = SimConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError):
        SimConfig.from_dict({"bogus_key": 1})


@pytest.mark.parametrize("key,value", [("n_subjects", "50"), ("n_times", 2.0), ("seed", True),
                                       ("seed", "abc"), ("rho", "0.5"), ("sigma_y2", float("nan")),
                                       ("corr_cross", None), ("beta", 3), ("alpha", [0.0, 1.0]),
                                       ("eta", ["0"] * 5), ("beta", [0.0, 1.0, 1.0, 1.0, float("inf")]),
                                       ("sigma_y2", -1.0), ("sigma_y2", 0.0)])
def test_config_rejects_a_value_of_the_wrong_type_naming_its_key(key, value):
    with pytest.raises(ValueError, match=f"simulation config key '{key}'"):
        SimConfig.from_dict({key: value})


def test_config_must_be_a_mapping():
    with pytest.raises(ValueError, match="JSON object"):
        SimConfig.from_dict([["seed", 1]])


def test_reps_must_be_positive():
    with pytest.raises(ValueError):
        run_study(small_cfg(), 0)
    with pytest.raises(ValueError, match="threads"):
        run_study(small_cfg(), 2, threads=0)

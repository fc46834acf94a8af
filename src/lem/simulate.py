"""Monte Carlo study harness: data generating mechanism and replicate studies.

The generator draws, per subject, a multivariate normal covariate panel
(T times x 7 variables) with three correlation levels (same time, same
variable over time, cross), then treatment/outcome pairs from the joint
linear/latent-probit mechanism with a block error covariance:

* outcome errors: exchangeable, variance sigma_y2, correlation rho_y;
* latent treatment errors: unit variance, exchangeable correlation rho_a;
* cross block: concurrent correlation rho on the diagonal, rho_ay off it.

Covariate marginals are standardized (mean 0, variance 1); the correlations
are the designed quantities.

Missingness regimes drop rows after generation: ``mcar`` deletes visit 2
with probability 1/3 and visit 3 with probability 1/2 (the baseline visit is
never deleted); ``covariate`` deletes any row with probability
expit(-1 + 0.2 * sum of its seven covariates); ``outcome`` deletes with
probability 0.1, 0.4 or 0.7 according to whether y <= -1, -1 < y <= 2, or
y > 2 (the three bins partition the line).  A subject whose rows are all
deleted leaves the study entirely.

Replicates are embarrassingly parallel.  Each replicate owns a Philox
substream keyed by (seed, replicate index), so serial and process-parallel
runs produce bit-identical summaries; aggregation is an ordered fold.  Every
replicate runs BLAS on one thread (:func:`lem.numerics.one_blas_thread`),
and one BLAS thread per core per worker would oversubscribe the cores.
``run_study`` sets it in the calling process, for good, before it starts any
worker, so forked workers inherit it.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .data import LongDataset, is_number, subset_rows, INTERCEPT
from .errors import LemError
from .fit import fit_lem, z_quantile
from .gee import fit_gee_independence
from .numerics import cholesky, one_blas_thread

MISSINGNESS_MODES = ("none", "mcar", "covariate", "outcome")
METHODS = ("lem", "gee")

# covariate panel width and the fixed block selections (0-based indices into
# the 7 generated variables): one variable private to each block, one shared
# by each pair, one shared by all three
N_COVARIATES = 7
X_COLS = (0, 3, 4, 6)
Z_COLS = (1, 3, 5, 6)
W_COLS = (2, 4, 5, 6)


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation design."""

    n_subjects: int = 500
    n_times: int = 3
    corr_same_time: float = 0.20
    corr_same_var: float = 0.30
    corr_cross: float = 0.10
    sigma_y2: float = 1.0
    rho_y: float = 0.60
    rho: float = 0.50
    rho_ay: float = 0.20
    rho_a: float = 0.50
    beta: tuple = (0.0, 1.0, 1.0, 1.0, 1.0)
    alpha: tuple = (0.0, 1.0, 1.0, 1.0, 1.0)
    eta: tuple = (0.0, 0.20, 0.20, 0.20, 0.20)
    missingness: str = "none"
    seed: int = 0

    def __post_init__(self):
        if self.missingness not in MISSINGNESS_MODES:
            raise ValueError(f"missingness must be one of {MISSINGNESS_MODES}")
        kinds = {"int": numbers.Integral, "float": numbers.Real}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type in kinds and not is_number(value, kinds[f.type]):
                raise ValueError(f"simulation config key {f.name!r} must be a finite {f.type}, got {value!r}")
        for key, cols in (("beta", X_COLS), ("alpha", Z_COLS), ("eta", W_COLS)):
            values = getattr(self, key)
            if not (isinstance(values, (list, tuple, np.ndarray)) and len(values) == 1 + len(cols)
                    and all(map(is_number, values))):
                raise ValueError(f"simulation config key {key!r} must list {1 + len(cols)} finite numbers, got {values!r}")
            object.__setattr__(self, key, tuple(float(v) for v in values))
        if self.n_subjects < 1 or self.n_times < 1:
            raise ValueError("n_subjects and n_times must be positive")
        if self.sigma_y2 <= 0.0:
            raise ValueError(f"simulation config key 'sigma_y2' must be positive, got {self.sigma_y2!r}")
        # both factorizations must exist; raises NotPositiveDefinite otherwise
        cholesky(covariate_correlation(self))
        cholesky(error_covariance(self))

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ValueError(f"a simulation config must be a JSON object, got {type(raw).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown simulation config keys: {sorted(unknown)}")
        return cls(**raw)


def preset(name, seed=0, **overrides):
    """The four study designs: sim1 panel, sim2 MCAR, sim3 covariate-dependent
    and sim4 outcome-dependent cluster size."""
    modes = {"sim1": "none", "sim2": "mcar", "sim3": "covariate", "sim4": "outcome"}
    if name not in modes:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(modes)}")
    return SimConfig(missingness=modes[name], seed=seed, **overrides)


def covariate_correlation(cfg):
    """(T*J, T*J) correlation of the covariate panel, time-major layout."""
    t, j = cfg.n_times, N_COVARIATES
    same_time = np.full((j, j), cfg.corr_same_time)
    np.fill_diagonal(same_time, 1.0)
    other_time = np.full((j, j), cfg.corr_cross)
    np.fill_diagonal(other_time, cfg.corr_same_var)
    eye_t = np.eye(t)
    return np.kron(eye_t, same_time) + np.kron(1.0 - eye_t, other_time)


def error_covariance(cfg):
    """(2T, 2T) covariance of (outcome errors, latent treatment errors)."""
    t = cfg.n_times
    sd_y = math.sqrt(cfg.sigma_y2)
    ones = np.ones((t, t))
    eye = np.eye(t)
    sig11 = cfg.sigma_y2 * (cfg.rho_y * ones + (1.0 - cfg.rho_y) * eye)
    sig22 = cfg.rho_a * ones + (1.0 - cfg.rho_a) * eye
    sig12 = sd_y * (cfg.rho_ay * ones + (cfg.rho - cfg.rho_ay) * eye)
    return np.block([[sig11, sig12], [sig12.T, sig22]])


def substream(seed, index):
    """Counter-based per-replicate generator; independent of execution order."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def gen_covariates(cfg, rng):
    """Per-subject covariate panels, shape (N, T, J)."""
    chol = cholesky(covariate_correlation(cfg))
    zdraws = rng.standard_normal((cfg.n_subjects, cfg.n_times * N_COVARIATES))
    return (zdraws @ chol.T).reshape(cfg.n_subjects, cfg.n_times, N_COVARIATES)


@dataclass(frozen=True)
class GeneratedLatents:
    """Generator internals exposed for distributional tests."""

    epsilon: np.ndarray   # (N, T) outcome errors
    gamma: np.ndarray     # (N, T) latent treatment errors
    a_star: np.ndarray    # (N, T) latent treatment index


def gen_outcomes(covariates, cfg, rng, return_latents=False):
    """Treatments and outcomes from the joint mechanism, as a LongDataset."""
    n, t, j = covariates.shape
    chol = cholesky(error_covariance(cfg))
    draws = rng.standard_normal((n, 2 * t)) @ chol.T
    eps, gam = draws[:, :t], draws[:, t:]

    beta = np.asarray(cfg.beta)
    alpha = np.asarray(cfg.alpha)
    eta = np.asarray(cfg.eta)

    flat = covariates.reshape(n * t, j)
    x = np.hstack([np.ones((n * t, 1)), flat[:, X_COLS]])
    z = np.hstack([np.ones((n * t, 1)), flat[:, Z_COLS]])
    w = np.hstack([np.ones((n * t, 1)), flat[:, W_COLS]])

    a_star = (z @ alpha).reshape(n, t) + gam
    a = (a_star > 0.0).astype(float).reshape(n * t)
    y = x @ beta + (w @ eta) * a + eps.reshape(n * t)

    names = tuple(f"O{k + 1}" for k in range(j))
    dataset = LongDataset(
        subject_ids=np.repeat(np.arange(n), t).astype(str),
        time_index=np.tile(np.arange(t), n).astype(np.intp),
        y=y,
        a=a,
        x=x,
        z=z,
        w=w,
        x_names=(INTERCEPT, *(names[k] for k in X_COLS)),
        z_names=(INTERCEPT, *(names[k] for k in Z_COLS)),
        w_names=(INTERCEPT, *(names[k] for k in W_COLS)),
        column_names=names,
        column_values=flat.copy(),
    )
    if return_latents:
        return dataset, GeneratedLatents(epsilon=eps, gamma=gam, a_star=a_star)
    return dataset


def _expit(v):
    return 1.0 / (1.0 + np.exp(-v))


def apply_missingness(dataset, cfg, rng):
    """Delete rows according to the configured regime; see module docstring."""
    mode = cfg.missingness
    if mode == "none":
        return dataset
    n = dataset.n_rows
    if mode == "mcar":
        if cfg.n_times != 3 or dataset.time_index.max() > 2:
            raise ValueError("the MCAR regime is defined for the three-visit design")
        p_delete = np.select(
            [dataset.time_index == 1, dataset.time_index == 2],
            [1.0 / 3.0, 1.0 / 2.0],
            default=0.0,
        )
    elif mode == "covariate":
        if dataset.column_values is None or dataset.column_values.shape[1] != N_COVARIATES:
            raise ValueError("covariate-dependent missingness needs the generated covariate panel")
        p_delete = _expit(-1.0 + 0.2 * dataset.column_values.sum(axis=1))
    else:  # outcome
        y = dataset.y
        p_delete = np.select([y <= -1.0, y <= 2.0], [0.1, 0.4], default=0.7)
    keep = rng.random(n) >= p_delete
    if not keep.any():
        raise LemError("missingness regime deleted every row")
    return subset_rows(dataset, keep)


# ---------------------------------------------------------------------------
# replicate studies
# ---------------------------------------------------------------------------

Z95 = z_quantile(0.95)


@dataclass
class MethodSummary:
    """One method's per-coefficient aggregates."""

    method: str
    coef_names: list
    truth: np.ndarray
    mean_estimate: np.ndarray
    empirical_se: Optional[np.ndarray]
    mean_se: np.ndarray
    coverage: np.ndarray
    n_converged: int


@dataclass
class StudySummary:
    config: SimConfig
    n_replicates: int
    methods: dict            # method name -> MethodSummary
    failures: dict           # method name -> count
    missing_rate: float

    def to_table(self):
        """Aligned text table: coefficient rows, method column groups."""
        header1 = ["", *sum(([m.upper(), "", "", ""] for m in METHODS), [])]
        header2 = ["coefficient", *sum((["estimate", "ese", "se_hat", "cp"] for _ in METHODS), [])]
        rows = [header1, header2]
        first = self.methods[METHODS[0]]
        for i, name in enumerate(first.coef_names):
            row = [f"{name} (={first.truth[i]:g})"]
            for m in METHODS:
                s = self.methods[m]
                ese = "-" if s.empirical_se is None else f"{s.empirical_se[i]:.3f}"
                row += [f"{s.mean_estimate[i]:.3f}", ese, f"{s.mean_se[i]:.3f}", f"{s.coverage[i]:.3f}"]
            rows.append(row)
        widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
        lines = ["  ".join(cell.rjust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]
        meta = [
            f"replicates: {self.n_replicates}",
            "failures: " + ", ".join(f"{m}={self.failures[m]}" for m in METHODS),
            f"missing rate: {self.missing_rate:.4f}",
        ]
        return "\n".join(lines + meta) + "\n"

    def to_csv(self):
        lines = ["method,coefficient,truth,mean_estimate,ese,mean_se_hat,coverage,n_converged"]
        for m in METHODS:
            s = self.methods[m]
            for i, name in enumerate(s.coef_names):
                ese = "" if s.empirical_se is None else repr(float(s.empirical_se[i]))
                lines.append(
                    f"{m},{name},{float(s.truth[i])!r},{float(s.mean_estimate[i])!r},{ese},"
                    f"{float(s.mean_se[i])!r},{float(s.coverage[i])!r},{s.n_converged}"
                )
        return "\n".join(lines) + "\n"


def _run_replicate(args):
    """Per method, the (2, J_X) stack of estimates and robust SEs, or the failure's "ExcType: message"."""
    cfg, rep = args
    rng = substream(cfg.seed, rep)
    covariates = gen_covariates(cfg, rng)
    dataset = gen_outcomes(covariates, cfg, rng)
    rows_total = dataset.n_rows
    dataset = apply_missingness(dataset, cfg, rng)

    out = {"rows_total": rows_total, "rows_kept": dataset.n_rows}
    for method in METHODS:
        try:
            fit = fit_lem(dataset) if method == "lem" else fit_gee_independence(dataset, "adjusted")
            out[method] = np.stack([fit.beta, fit.se_robust()[:fit.j_x]])
        except LemError as exc:
            out[method] = f"{type(exc).__name__}: {exc}"
    return out


def _usable_cpus():
    """The CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_study(cfg, n_reps, threads=1):
    """Generate, fit and aggregate ``n_reps`` replicates.

    Replicates that fail to converge are counted and excluded from the
    aggregation.  With ``threads > 1`` replicates run in worker processes,
    no more than there are replicates or usable CPUs; with ``threads=1`` they
    run in this process.  Either way BLAS runs on one thread, so results are
    identical across ``threads``: the setting is made here for good before
    any worker starts, so forked workers inherit it and spawned ones make it
    in the pool's initializer.  ``threads`` below 1 raises ValueError.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    if threads < 1:
        raise ValueError("threads must be at least 1")

    one_blas_thread()
    jobs = [(cfg, rep) for rep in range(n_reps)]
    if threads > 1:
        # the pool starts all of its workers at once: no more than there are jobs or CPUs
        workers = min(threads, n_reps, _usable_cpus())
        with ProcessPoolExecutor(max_workers=workers, initializer=one_blas_thread) as pool:
            chunk = max(1, n_reps // (8 * workers))
            results = list(pool.map(_run_replicate, jobs, chunksize=chunk))
    else:
        results = [_run_replicate(job) for job in jobs]

    truth = np.asarray(cfg.beta)
    coef_names = [f"beta_{i}" for i in range(truth.size)]
    summaries, failures = {}, {}
    for method in METHODS:
        good = [r[method] for r in results if not isinstance(r[method], str)]
        failures[method] = n_reps - len(good)
        if not good:
            raise LemError(f"every replicate failed for method {method!r}")
        est, se = np.stack(good, axis=1)
        summaries[method] = MethodSummary(
            method=method,
            coef_names=coef_names,
            truth=truth,
            mean_estimate=est.mean(axis=0),
            empirical_se=est.std(axis=0, ddof=1) if len(good) > 1 else None,
            mean_se=se.mean(axis=0),
            coverage=(np.abs(est - truth) <= Z95 * se).mean(axis=0),
            n_converged=len(good),
        )

    kept = sum(r["rows_kept"] for r in results)
    total = sum(r["rows_total"] for r in results)
    return StudySummary(
        config=cfg,
        n_replicates=n_reps,
        methods=summaries,
        failures=failures,
        missing_rate=1.0 - kept / total,
    )

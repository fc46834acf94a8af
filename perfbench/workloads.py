"""The benchmark's three workloads, driven through the public API of ``lem``.

* ``sim1-study``: serial Monte Carlo replicates of the complete-panel preset
  (N = 500 subjects x 3 visits, 17 parameters).  One operation is one
  replicate: substream -> gen_covariates -> gen_outcomes -> fit_lem +
  fit_gee_independence, so every per-fit cost is in the loop: solver
  iterations, the finite-difference bread, initialization, rank checks,
  data generation and GEE.  No CSV is read.  It is also the plain
  one-process baseline.
* ``cohort-fit``: 64 sim1-design cohorts of 500 subjects x 3 visits, each
  written to CSV in set-up.  One operation is one in-process
  ``lem fit --method lem`` call, on the cohorts in turn.  The pooled
  likelihood kernels and reductions take most of each call; what the
  workload adds is ``load_csv`` parsing and the CLI's JSON and manifest
  writes, with no GEE fit and no data generation in the loop.  The solver
  stalls at numerical precision on a quarter to a half of cohorts and then
  needs nearly twice the evaluations, and an evaluation's cost depends on
  the data, so one cohort's fit time depends on the seed.  A single
  10k-subject cohort spread 13-19% (interquartile range over median) across
  five seeds; spread over many small cohorts, a run's spread is mostly the
  host's own timing noise.
* ``sim3-parallel``: the covariate-dependent-missingness preset (about 29%
  of rows dropped, ragged clusters) through ``run_study(threads=nproc)``.
  One operation is one replicate.  Only here do the process pool, chunking,
  BLAS oversubscription and ``apply_missingness``/``subset_rows`` show.  The
  pool hides single replicates, so its per-operation wall time is each
  ``run_study`` batch's wall time divided by its replicates.

Every input derives from the seed.  A failed operation is a ``LemError``
from either fitter, a nonzero CLI exit or a failed per-operation check.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import re
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from lem import cli, fit as fitmod, gee, simulate
from lem.data import DesignSpec, write_csv
from lem.errors import LemError

SPEC = {
    "subject": "id", "time": "visit", "outcome": "y", "treatment": "a",
    "x": ["O1", "O4", "O5", "O7"],
    "z": ["O2", "O4", "O6", "O7"],
    "w": ["O3", "O5", "O6", "O7"],
}

# score-root acceptance of a fit: |score|_inf <= SCORE_RTOL * (1 + |negloglik|)
SCORE_RTOL = 1e-6
# a study's mean estimate may miss the truth by MEAN_Z Monte Carlo standard
# errors plus MEAN_BIAS, a margin for the estimator's finite-sample bias
MEAN_Z = 4.5
MEAN_BIAS = 0.01
# below this many replicates the Monte Carlo SE is too rough to check against
MEAN_MIN_REPS = 10
# a cohort fit's beta may miss the truth by this many robust standard errors
COHORT_Z = 5.0
CLI_ERROR = re.compile(r"error \((\w+)\)")


@dataclass(frozen=True)
class Sizes:
    sim_subjects: int          # subjects per simulated replicate
    cohort_subjects: int       # subjects per cohort-fit CSV
    cohorts: int               # cohort-fit CSVs
    batch_reps: int            # replicates per run_study call on sim3-parallel
    trace_ops: dict            # workload -> operations in each traced pass


FULL = Sizes(sim_subjects=500, cohort_subjects=500, cohorts=64, batch_reps=24,
             trace_ops={"sim1-study": 24, "cohort-fit": 16, "sim3-parallel": 24})
TINY = Sizes(sim_subjects=150, cohort_subjects=300, cohorts=2, batch_reps=4,
             trace_ops={"sim1-study": 2, "cohort-fit": 2, "sim3-parallel": 4})


@dataclass
class Ledger:
    """Attempted and failed operations, failure reasons and check outcomes."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    checks: list = field(default_factory=list)

    def fail(self, reason, count=1):
        self.failed += count
        self.reasons[reason] += count

    def check(self, name, ok, detail=""):
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def correct(self):
        return self.failed == 0 and all(c["ok"] for c in self.checks)


@dataclass
class Measurement:
    """Timed operations of one pass."""

    op_ms: list = field(default_factory=list)   # wall per operation
    ops: int = 0                                # operations completed
    wall_s: float = 0.0                         # wall time of the operations


def score_root_ok(score_inf_norm, negloglik):
    return score_inf_norm <= SCORE_RTOL * (1.0 + abs(negloglik))


def nproc():
    return len(os.sched_getaffinity(0))


class MeanCheck:
    """Mean of per-replicate beta estimates against the truth."""

    def __init__(self, truth):
        self.truth = np.asarray(truth, dtype=float)
        self.n = 0
        self.total = np.zeros_like(self.truth)
        self.sumsq = np.zeros_like(self.truth)

    def add(self, mean, sd, n):
        """Fold in ``n`` estimates with this mean and (ddof=1) SD."""
        mean = np.asarray(mean, dtype=float)
        self.n += n
        self.total += n * mean
        self.sumsq += (n - 1) * np.asarray(sd, dtype=float) ** 2 + n * mean ** 2

    def verdict(self, ledger, label):
        if self.n < MEAN_MIN_REPS:
            ledger.check(f"{label} mean beta near truth", True,
                         f"skipped: {self.n} replicates, {MEAN_MIN_REPS} needed")
            return
        mean = self.total / self.n
        sd = np.sqrt(np.maximum(self.sumsq - self.n * mean ** 2, 0.0) / (self.n - 1))
        tol = MEAN_Z * sd / math.sqrt(self.n) + MEAN_BIAS
        miss = np.abs(mean - self.truth)
        ledger.check(f"{label} mean beta near truth", (miss <= tol).all(),
                     f"n={self.n} |mean-truth|={np.round(miss, 4).tolist()} tol={np.round(tol, 4).tolist()}")


@dataclass
class TracedPass:
    ops: int                   # operations in each pass
    plain_s: float             # untraced wall time of the pass
    traced_s: float            # traced wall time of the same operations
    scaling_eff: float = 1.0   # one-process workloads: one worker, one pass


class SerialWorkload:
    """Operations run one after another in this process.

    Subclasses define ``_op(i)``, which calls into ``lem``;
    ``_record(result)``, which checks one operation's output and returns
    what the two traced-run passes must agree on; and ``_finish(records)``,
    the checks over a whole pass.
    """

    def _pass(self, indices, seconds=None, tracer=None):
        out, records = Measurement(), []
        start = time.perf_counter()
        for i in indices:
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
            if tracer is not None:
                tracer.op = i
            self.ledger.attempted += 1
            t0 = time.perf_counter()
            try:
                result, reason = self._op(i), None
            except LemError as exc:
                result, reason = None, type(exc).__name__
            dt = time.perf_counter() - t0
            out.op_ms.append(1000.0 * dt)
            out.wall_s += dt
            out.ops += 1
            if reason is not None:
                self.ledger.fail(reason)
                records.append(None)
            else:
                records.append(self._record(result))
        return out, records

    def measure(self, seconds):
        out, records = self._pass(itertools.count(), seconds=seconds)
        self._finish(records)
        return out

    def traced(self, tracer):
        """Untraced then traced pass over the same operations."""
        indices = range(self.trace_ops)
        plain, records = self._pass(indices)
        with tracer:
            traced, traced_records = self._pass(indices, tracer=tracer)
        same = len(records) == len(traced_records) and all(
            (a is None) == (b is None) and (a is None or np.array_equal(a, b))
            for a, b in zip(records, traced_records))
        self.ledger.check(f"{self.name} estimates identical with and without tracing", same)
        self._finish(records)
        return TracedPass(ops=self.trace_ops, plain_s=plain.wall_s, traced_s=traced.wall_s)


class Sim1Study(SerialWorkload):
    """Serial complete-panel replicates; see the module docstring."""

    name = "sim1-study"

    def __init__(self, seed, sizes, workdir):
        self.cfg = simulate.preset("sim1", seed=seed, n_subjects=sizes.sim_subjects)
        self.trace_ops = sizes.trace_ops[self.name]
        self.ledger = Ledger()

    def _op(self, rep):
        rng = simulate.substream(self.cfg.seed, rep)
        dataset = simulate.gen_outcomes(simulate.gen_covariates(self.cfg, rng), self.cfg, rng)
        fit = fitmod.fit_lem(dataset)
        gee.fit_gee_independence(dataset, "adjusted")
        return fit

    def _record(self, fit):
        if not score_root_ok(fit.score_inf_norm, fit.negloglik):
            self.ledger.fail("ScoreRootCheck")
            return None
        return fit.beta.copy()

    def _finish(self, records):
        self.ledger.check("sim1-study every fit meets the score-root criterion",
                          "ScoreRootCheck" not in self.ledger.reasons)
        means = MeanCheck(self.cfg.beta)
        for beta in records:
            if beta is not None:
                means.add(beta, 0.0, 1)
        means.verdict(self.ledger, self.name)


class CohortFit(SerialWorkload):
    """In-process ``lem fit`` on seeded cohort CSVs, one after another."""

    name = "cohort-fit"

    def __init__(self, seed, sizes, workdir):
        self.seed = seed
        self.sizes = sizes
        self.cfg = simulate.SimConfig(n_subjects=sizes.cohort_subjects, seed=seed)
        self.trace_ops = sizes.trace_ops[self.name]
        self.workdir = workdir
        self.spec_path = os.path.join(workdir, "spec.json")
        self.ledger = Ledger()
        self.first = {}   # cohort -> estimates of its first fit

    def _csv(self, cohort):
        return os.path.join(self.workdir, f"cohort{cohort}.csv")

    def build(self):
        """Write the cohort CSVs and their design spec (the workload's set-up)."""
        spec = DesignSpec.from_dict(SPEC)
        for cohort in range(self.sizes.cohorts):
            rng = simulate.substream(self.cfg.seed, cohort)
            dataset = simulate.gen_outcomes(simulate.gen_covariates(self.cfg, rng), self.cfg, rng)
            write_csv(dataset, self._csv(cohort), spec)
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            json.dump(SPEC, fh)

    def _op(self, i):
        cohort = i % self.sizes.cohorts
        out_dir = os.path.join(self.workdir, f"fit{cohort}")
        argv = ["fit", "--data", self._csv(cohort), "--spec", self.spec_path,
                "--method", "lem", "--out", out_dir]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return cohort, code, stderr.getvalue()

    def _record(self, result):
        cohort, code, stderr = result
        if code != 0:
            found = CLI_ERROR.search(stderr)
            self.ledger.fail(found.group(1) if found else f"exit {code}")
            return None
        with open(os.path.join(self.workdir, f"fit{cohort}", "fit.json"), encoding="utf-8") as fh:
            payload = json.load(fh)
        conv = payload["convergence"]
        truth = np.asarray(self.cfg.beta)
        beta = np.asarray(payload["estimates"][:truth.size])
        se = np.asarray(payload["se_robust"][:truth.size])
        estimates = np.asarray(payload["estimates"])
        first = self.first.setdefault(cohort, estimates)
        if not score_root_ok(conv["score_inf_norm"], conv["negloglik"]):
            self.ledger.fail("ScoreRootCheck")
        elif not (np.abs(beta - truth) <= COHORT_Z * se).all():
            self.ledger.fail("BetaFarFromTruth")
        elif not np.array_equal(estimates, first):
            self.ledger.fail("EstimatesDiffer")
        else:
            return estimates
        return None

    def _finish(self, records):
        refits = self.ledger.attempted - len(self.first)
        self.ledger.check(
            f"cohort-fit every fit exits 0, meets the score-root criterion and has beta within "
            f"{COHORT_Z:g} robust SEs of the truth; {refits} refits repeat their cohort's "
            f"estimates bit for bit", self.ledger.failed == 0)


class Sim3Parallel:
    """``run_study`` batches of the covariate-missingness preset on a pool."""

    name = "sim3-parallel"

    def __init__(self, seed, sizes, workdir):
        self.seed = seed
        self.sizes = sizes
        self.trace_ops = sizes.trace_ops[self.name]
        self.workers = nproc()
        self.ledger = Ledger()
        self.means = MeanCheck(self._cfg(0).beta)

    def _cfg(self, batch):
        # distinct replicates per batch: run_study numbers replicates from 0
        return simulate.preset("sim3", seed=self.seed * 100_000 + batch,
                               n_subjects=self.sizes.sim_subjects)

    def _study(self, cfg, reps, threads):
        """One timed run_study call; its summary (None if it raised) and wall time."""
        self.ledger.attempted += reps
        t0 = time.perf_counter()
        try:
            summary = simulate.run_study(cfg, reps, threads=threads)
        except LemError as exc:
            # raised only when every replicate failed for a method
            self.ledger.fail(type(exc).__name__, reps)
            return None, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        failed_fits = sum(summary.failures.values())
        if failed_fits:
            # run_study keeps failure counts, not their exception types
            self.ledger.fail("LemError (type not kept by run_study)", min(reps, failed_fits))
        return summary, dt

    def _fold(self, summary):
        if summary is not None:
            lem_summary = summary.methods["lem"]
            sd = 0.0 if lem_summary.empirical_se is None else lem_summary.empirical_se
            self.means.add(lem_summary.mean_estimate, sd, lem_summary.n_converged)

    def measure(self, seconds):
        out = Measurement()
        batch = 0
        while batch == 0 or out.wall_s < seconds:
            summary, dt = self._study(self._cfg(batch), self.sizes.batch_reps, self.workers)
            self._fold(summary)
            out.op_ms.append(1000.0 * dt / self.sizes.batch_reps)
            out.wall_s += dt
            out.ops += self.sizes.batch_reps
            batch += 1
        self.means.verdict(self.ledger, self.name)
        return out

    def traced(self, tracer):
        """Pool pass, untraced serial pass and traced serial pass over the same
        replicates; the traced pass runs in this process so that the spans of
        every replicate are collected."""
        cfg, reps = self._cfg(0), self.trace_ops
        parallel, t_par = self._study(cfg, reps, self.workers)
        serial, t_ser = self._study(cfg, reps, 1)
        with tracer:
            traced, t_tr = self._study(cfg, reps, 1)
        summaries = [s for s in (parallel, serial, traced) if s is not None]
        same = len(summaries) == 3 and all(
            np.array_equal(s.methods["lem"].mean_estimate, parallel.methods["lem"].mean_estimate)
            for s in summaries)
        self.ledger.check("sim3-parallel summaries identical across threads and tracing", same)
        self._fold(parallel)
        self.means.verdict(self.ledger, self.name)
        return TracedPass(ops=reps, plain_s=t_ser, traced_s=t_tr,
                          scaling_eff=t_ser / (self.workers * t_par))


WORKLOADS = {w.name: w for w in (Sim1Study, CohortFit, Sim3Parallel)}

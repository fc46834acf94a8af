"""Smoke test of the benchmark harness at tiny sizes.

Checks the result schema, that every metric the benchmark defines is
reported, and that the tracer survives a renamed target.  It makes no timing
assertion.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from layers import METRICS, layer_metrics  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(BENCH, "layers.json"), encoding="utf-8") as fh:
    DESIGN = json.load(fh)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
PRINTED_ONLY = ("op_p90_ms", "fail_frac")

# every metric of the benchmark's design, some of them reported under the
# name layers.json gives as standing in for them
DESIGN_METRICS = [
    "ops_per_s", "op_p50_ms", "op_p90_ms", "fail_frac", "setup_s", "peak_rss_mb",
    "numerics.log_cdf.calls", "numerics.log_cdf.self_ms",
    "numerics.solve_sym.calls", "numerics.solve_sym.self_ms",
    "likelihood.evals", "likelihood.self_ms", "likelihood.ms_per_eval",
    "likelihood.score_rows.calls", "likelihood.score_rows.self_ms", "likelihood.bytes_per_eval",
    "optim.iterations", "optim.evals", "optim.self_ms",
    "fit.bread_ms", "fit.bread_evals", "fit.sandwich.self_ms", "fit.solve_ms", "fit.total_ms",
    "fit.init.self_ms", "data.matrix_rank.calls", "data.matrix_rank.self_ms",
    "data.check_overlap_ms", "data.load_csv_ms", "data.load_csv_rows_per_s",
    "data.subset_rows_ms", "simulate.missingness_ms", "simulate.rows_kept_frac",
    "simulate.gen_ms", "gee.fit_ms", "simulate.scaling_eff", "cli.fit.self_ms",
    "trace.overhead_frac",
]


def run_bench(workload, trace, cwd=ROOT, run=RUN):
    cmd = [sys.executable, run, "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    with open(os.path.join(ROOT, ".bench_out", f"{workload}-seed3-trace{trace}.json"),
              encoding="utf-8") as fh:
        record = json.load(fh)
    assert set(record["provenance"]) >= {"commit", "dirty", "nproc", "python", "numpy", "scipy",
                                         "blas", "blas_thread_env", "seed", "src_lines"}
    if trace:
        assert record["spans"] and {"id", "parent", "name", "start_s", "end_s"} <= set(record["spans"][0])
    else:
        assert set(record["printed_only"]) == set(PRINTED_ONLY)


def test_metric_tables_agree():
    assert list(PER_LAYER) == list(METRICS)
    for name, metric in PER_LAYER.items():
        assert (metric["unit"], metric["better"]) == METRICS[name][:2]
    assert [entry["metric"] for entry in DESIGN["per_layer"]] == list(METRICS)
    assert set(DESIGN["end_to_end"]) == set(END_TO_END) | set(PRINTED_ONLY)
    for entry in DESIGN["per_layer"]:
        for moved, workloads in entry["moves"].items():
            assert moved in DESIGN["end_to_end"]
            assert set(workloads) <= set(WORKLOADS)
    assert END_TO_END["setup_s"]["bound"] == max(m["bound"] for m in END_TO_END.values())


def test_every_design_metric_is_reported():
    replaced = {entry["replaces"] for entry in DESIGN["per_layer"] if "replaces" in entry}
    reported = set(END_TO_END) | set(PRINTED_ONLY) | set(PER_LAYER) | replaced
    assert [name for name in DESIGN_METRICS if name not in reported] == []


def test_renamed_target_drops_its_metrics():
    import lem.fit
    from lem.simulate import preset, gen_covariates, gen_outcomes, substream

    original = lem.fit.pooled_negloglik_and_score
    targets = dict(TARGETS, **{"fit.bread": "lem.fit.score_jacobian_renamed"})
    tracer = Tracer(targets)
    cfg = preset("sim1", seed=1, n_subjects=150)
    rng = substream(cfg.seed, 0)
    dataset = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    with tracer:
        assert lem.fit.pooled_negloglik_and_score is not original
        lem.fit.fit_lem(dataset)
    assert lem.fit.pooled_negloglik_and_score is original
    values, notes = layer_metrics(tracer, 1, 1.0, 0.0, 1.0)
    assert "fit.bread_ms" not in values and "fit.bread_evals" not in values
    assert any("score_jacobian_renamed" in note for note in tracer.notes)
    assert any(note.startswith("fit.bread_ms absent") for note in notes)
    assert values["likelihood.evals"] > 0 and values["fit.total_ms"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path, run=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

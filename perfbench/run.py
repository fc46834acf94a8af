"""Benchmark of the ``lem`` package: one command, three workloads.

    python3 perfbench/run.py --workload sim1-study --seed 0 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run measures the end-to-end metrics for ``--seconds``
seconds; with ``--trace 1`` it makes an untraced and a traced pass over a
fixed set of operations and reports the per-layer metrics (``layers.py``).
Human-readable lines come first, with sample counts, the metrics that are
printed but not gated (``op_p90_ms``, ``fail_frac``), the checks and the
provenance; the last line is the JSON result.  The full result, with spans
for a traced run, is written under ``.bench_out/``.

The benchmark leaves the BLAS thread variables as it finds them: the default
oversubscription of ``run_study`` on a pool is program behaviour it reports.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("sim1-study", "cohort-fit", "sim3-parallel")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# a tail percentile is reported only when this many samples lie beyond it
TAIL_SAMPLES = 10
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a nonnegative integer")
    return value


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # tiny sizes for the harness's smoke test
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    # internal: build the workload's inputs in DIR and exit (timed as set-up)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Put this checkout's ``src`` first on the path and import ``lem`` from it."""
    if not os.path.isfile(os.path.join(SRC, "lem", "__init__.py")):
        sys.exit(f"benchmark: no lem package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import lem
    if os.path.dirname(os.path.dirname(os.path.abspath(lem.__file__))) != SRC:
        sys.exit(f"benchmark: imported lem from {lem.__file__}, not from {SRC}")


def _git(*args):
    result = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True,
                            timeout=30, check=True)
    return result.stdout.strip()


def provenance(seed):
    import numpy
    import scipy
    from workloads import nproc

    commit = dirty = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = _git("rev-parse", "HEAD")
            dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.SubprocessError):
            pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src_lines = 0
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "commit": commit,
        "dirty": dirty,
        "nproc": nproc(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "src_lines": src_lines,
    }


def _setup_seconds(args):
    """Median wall time of fresh-interpreter set-ups: imports plus inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        with tempfile.TemporaryDirectory(dir=OUT) as probe_dir:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-only", probe_dir]
            if args.tiny:
                cmd.append("--tiny")
            t0 = time.perf_counter()
            subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mb(with_children):
    """Peak resident set of this process, plus the largest child's if asked."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(args, workload, measured):
    """Gated metrics, plus the printed-only tail latency and failure fraction."""
    samples = measured.op_ms
    rss = _peak_rss_mb(with_children=workload.name == "sim3-parallel")
    setup = _setup_seconds(args)
    metrics = {
        "ops_per_s": (measured.ops / measured.wall_s, "1/s", measured.ops),
        "op_p50_ms": (statistics.median(samples), "ms", len(samples)),
        "setup_s": (setup, "s", SETUP_REPEATS),
        "peak_rss_mb": (rss, "MB", 1),
    }
    ledger = workload.ledger
    beyond = len(samples) // 10
    printed = {
        "op_p90_ms": (statistics.quantiles(samples, n=10)[-1]
                      if len(samples) >= 10 * TAIL_SAMPLES else None, "ms", len(samples)),
        "fail_frac": (ledger.failed / ledger.attempted, "frac", ledger.attempted),
    }
    lines = []
    for name, (value, unit, n) in {**metrics, **printed}.items():
        if value is None:
            lines.append(f"  {name:<12} not reported: {beyond} of {n} samples lie beyond it, "
                         f"{TAIL_SAMPLES} needed")
        else:
            lines.append(f"  {name:<12} {value:14.6f} {unit:<5} n={n}")
    lines.append(f"  failures     {dict(ledger.reasons) or 'none'}")
    return metrics, printed, lines


def per_layer(workload, tracer):
    """Per-layer metrics, the span table and the report lines of a traced run."""
    from layers import METRICS, layer_metrics, span_table

    traced = workload.traced(tracer)
    values, notes = layer_metrics(tracer, traced.ops, traced.traced_s,
                                  traced.traced_s / traced.plain_s - 1.0, traced.scaling_eff)
    metrics = {name: (values[name], METRICS[name][0], traced.ops)
               for name in METRICS if name in values}
    spans = span_table(tracer, traced.ops)
    lines = [f"  traced pass: {traced.ops} operations, {traced.traced_s:.3f} s traced, "
             f"{traced.plain_s:.3f} s untraced; counts and times are per operation, "
             f"shares are of the traced wall time"]
    lines += [f"  {name:<30} {value:16.6f} {unit}" for name, (value, unit, _) in metrics.items()]
    lines.append(f"  {'span':<24} {'calls':>10} {'ms':>12} {'self_ms':>12}   per operation")
    lines += [f"  {name:<24} {row['calls']:10.2f} {row['ms']:12.3f} {row['self_ms']:12.3f}"
              for name, row in sorted(spans.items())]
    tracer.notes.extend(notes)
    lines.extend(f"  note: {note}" for note in tracer.notes)
    return metrics, spans, lines


def main(argv=None):
    args = _parse_args(argv)
    _import_package()
    from tracer import Tracer
    from workloads import FULL, TINY, WORKLOADS

    sizes = TINY if args.tiny else FULL
    if args.setup_only:
        workload = WORKLOADS[args.workload](args.seed, sizes, args.setup_only)
        getattr(workload, "build", lambda: None)()
        return 0

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, sizes, workdir)
        getattr(workload, "build", lambda: None)()
        tracer, printed, spans, samples = None, {}, {}, []
        if args.trace:
            tracer = Tracer()
            metrics, spans, lines = per_layer(workload, tracer)
        else:
            measured = workload.measure(args.seconds)
            samples = measured.op_ms
            metrics, printed, lines = end_to_end(args, workload, measured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = workload.ledger
    prov = provenance(args.seed)
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny, "provenance": prov,
        "metrics": {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in metrics.items()},
        "printed_only": {name: {"value": v, "unit": u, "n": n} for name, (v, u, n) in printed.items()},
        "failure_reasons": dict(ledger.reasons),
        "checks": ledger.checks,
        "op_samples_ms": samples,
        "span_table": spans,
        "notes": [] if tracer is None else tracer.notes,
        "spans": [] if tracer is None else tracer.export(),
        "result": result,
    }
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"lem benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("\n".join(lines))
    for check in ledger.checks:
        print(f"  check {'ok  ' if check['ok'] else 'FAIL'} {check['check']} {check['detail']}".rstrip())
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"full result: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

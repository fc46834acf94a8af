"""Per-layer metrics computed from the spans of one traced pass.

Every count and time is a mean per operation over the pass's fixed set of
operations, so counts repeat exactly at one seed.  Layers that a workload
does not call report a count of zero; their cost is given as a share of the
traced wall time, never as a time that would read zero on every run.
``layers.json`` records which end-to-end metric each of these should move,
on which workload.
"""

from __future__ import annotations

from collections import defaultdict

# name -> (unit, better, spans it is built from); the order is the order of
# the report, and a metric is left out when one of its spans is not traced
METRICS = {
    "numerics.log_cdf.calls": ("count", "lower", ("numerics.log_cdf",)),
    "numerics.log_cdf.self_ms": ("ms", "lower", ("numerics.log_cdf",)),
    "numerics.solve_sym.calls": ("count", "lower", ("numerics.solve_sym",)),
    "numerics.solve_sym.self_ms": ("ms", "lower", ("numerics.solve_sym",)),
    "likelihood.evals": ("count", "lower", ("likelihood.pooled",)),
    "likelihood.self_ms": ("ms", "lower", ("likelihood.pooled",)),
    "likelihood.ms_per_eval": ("ms", "lower", ("likelihood.pooled",)),
    "likelihood.bytes_per_eval": ("B", "lower", ("likelihood.pooled",)),
    "likelihood.score_rows.calls": ("count", "lower", ("likelihood.score_rows",)),
    "likelihood.score_rows.self_ms": ("ms", "lower", ("likelihood.score_rows",)),
    "optim.iterations": ("count", "lower", ("optim.minimize",)),
    "optim.evals": ("count", "lower", ("optim.minimize",)),
    "optim.self_ms": ("ms", "lower", ("optim.minimize",)),
    "fit.total_ms": ("ms", "lower", ("fit.fit_lem",)),
    "fit.solve_ms": ("ms", "lower", ("optim.minimize",)),
    "fit.bread_ms": ("ms", "lower", ("fit.bread",)),
    "fit.bread_evals": ("count", "lower", ("fit.bread", "likelihood.pooled")),
    "fit.sandwich.self_ms": ("ms", "lower", ("fit.sandwich",)),
    "fit.init.self_ms": ("ms", "lower", ("fit.init",)),
    "data.matrix_rank.calls": ("count", "lower", ("data.matrix_rank",)),
    "data.matrix_rank.self_ms": ("ms", "lower", ("data.matrix_rank",)),
    "data.check_overlap_ms": ("ms", "lower", ("data.check_overlap",)),
    "data.load_csv.calls": ("count", "lower", ("data.load_csv",)),
    "data.load_csv_rows_per_s": ("rows/s", "higher", ("data.load_csv",)),
    "data.subset_rows.share": ("frac", "lower", ("data.subset_rows",)),
    "simulate.missingness.share": ("frac", "lower", ("simulate.missingness",)),
    "simulate.rows_kept_frac": ("frac", "higher", ("simulate.missingness",)),
    "simulate.gen.share": ("frac", "lower", ("simulate.gen_covariates", "simulate.gen_outcomes")),
    "simulate.scaling_eff": ("frac", "higher", ()),
    "gee.fit.share": ("frac", "lower", ("gee.fit",)),
    "cli.fit.self_share": ("frac", "lower", ("cli.main", "data.load_csv", "fit.fit_lem")),
    "trace.overhead_frac": ("frac", "lower", ()),
}

BYTES_PER_FLOAT = 8


def _computed_bytes(attrs):
    """Bytes one pooled evaluation moves, computed from array shapes.

    The row inputs (y, a and the X, Z, W blocks) are read once and the
    (rows x dim) score matrix is written once; temporaries and cache misses
    are ignored.
    """
    rows, dim, dims = attrs.get("rows"), attrs.get("dim"), attrs.get("dims")
    if rows is None or dim is None or dims is None:
        return None
    return BYTES_PER_FLOAT * rows * (2 + sum(dims) + dim)


def layer_metrics(tracer, n_ops, wall_s, overhead_frac, scaling_eff):
    """Per-layer metric values (name -> number) for one traced pass.

    ``wall_s`` is the traced pass's wall time, the base of every share.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(name):
        return len(by_name[name]) / n_ops

    def total_ms(name):
        return 1000.0 * sum(s.duration for s in by_name[name]) / n_ops

    def self_ms(name):
        return 1000.0 * sum(self_s[s.id] for s in by_name[name]) / n_ops

    def share(*names):
        return sum(s.duration for name in names for s in by_name[name]) / wall_s

    def attr_sum(name, key):
        """Sum of a recorded attribute; None when a span lacks it."""
        values = [(s.attrs or {}).get(key) for s in by_name[name]]
        return None if None in values else sum(values)

    pooled = by_name["likelihood.pooled"]
    bread_ids = {s.id for s in by_name["fit.bread"]}
    bytes_each = [_computed_bytes(s.attrs or {}) for s in pooled]
    missingness_in = attr_sum("simulate.missingness", "rows_in")
    missingness_out = attr_sum("simulate.missingness", "rows_out")
    csv_rows = attr_sum("data.load_csv", "rows")
    csv_s = sum(s.duration for s in by_name["data.load_csv"])
    iterations = attr_sum("optim.minimize", "iterations")
    optim_evals = attr_sum("optim.minimize", "n_evals")

    values = {
        "numerics.log_cdf.calls": calls("numerics.log_cdf"),
        "numerics.log_cdf.self_ms": self_ms("numerics.log_cdf"),
        "numerics.solve_sym.calls": calls("numerics.solve_sym"),
        "numerics.solve_sym.self_ms": self_ms("numerics.solve_sym"),
        "likelihood.evals": calls("likelihood.pooled"),
        "likelihood.self_ms": self_ms("likelihood.pooled"),
        "likelihood.ms_per_eval": total_ms("likelihood.pooled") * n_ops / len(pooled) if pooled else None,
        "likelihood.bytes_per_eval": sum(bytes_each) / len(pooled) if pooled and None not in bytes_each else None,
        "likelihood.score_rows.calls": calls("likelihood.score_rows"),
        "likelihood.score_rows.self_ms": self_ms("likelihood.score_rows"),
        "optim.iterations": None if iterations is None else iterations / n_ops,
        "optim.evals": None if optim_evals is None else optim_evals / n_ops,
        "optim.self_ms": self_ms("optim.minimize"),
        "fit.total_ms": total_ms("fit.fit_lem"),
        "fit.solve_ms": total_ms("optim.minimize"),
        "fit.bread_ms": total_ms("fit.bread"),
        "fit.bread_evals": sum(1 for s in pooled if s.parent in bread_ids) / n_ops,
        "fit.sandwich.self_ms": self_ms("fit.sandwich"),
        "fit.init.self_ms": self_ms("fit.init"),
        "data.matrix_rank.calls": calls("data.matrix_rank"),
        "data.matrix_rank.self_ms": self_ms("data.matrix_rank"),
        "data.check_overlap_ms": total_ms("data.check_overlap"),
        "data.load_csv.calls": calls("data.load_csv"),
        # zero when the workload reads no CSV
        "data.load_csv_rows_per_s": None if csv_rows is None else csv_rows / csv_s if csv_s else 0.0,
        "data.subset_rows.share": share("data.subset_rows"),
        "simulate.missingness.share": share("simulate.missingness"),
        # no row is dropped where the workload applies no missingness
        "simulate.rows_kept_frac": (None if missingness_in is None or missingness_out is None else
                                    missingness_out / missingness_in if missingness_in else 1.0),
        "simulate.gen.share": share("simulate.gen_covariates", "simulate.gen_outcomes"),
        "simulate.scaling_eff": scaling_eff,
        "gee.fit.share": share("gee.fit"),
        "cli.fit.self_share": sum(self_s[s.id] for s in by_name["cli.main"]) / wall_s,
        "trace.overhead_frac": overhead_frac,
    }
    notes = []
    out = {}
    for name, value in values.items():
        absent = [span for span in METRICS[name][2] if span in tracer.missing]
        if absent:
            notes.append(f"{name} absent: span {', '.join(absent)} was not traced")
        elif value is None:
            notes.append(f"{name} absent: an attribute it is computed from was not recorded")
        else:
            out[name] = value
    return out, notes


def span_table(tracer, n_ops):
    """Span name -> calls, inclusive ms and self ms, each per operation."""
    self_s = tracer.self_times()
    table = {}
    for span in tracer.spans:
        row = table.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += self_s[span.id]
    return {name: {"calls": calls / n_ops, "ms": 1000.0 * total / n_ops,
                   "self_ms": 1000.0 * own / n_ops}
            for name, (calls, total, own) in table.items()}

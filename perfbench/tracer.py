"""In-memory span tracer that wraps ``lem`` functions by module attribute.

The benchmark never edits the package.  For a traced pass it replaces each
target function, wherever a ``lem`` module binds it, with a wrapper that
records one span per call: an id, the id of the enclosing span, the span
name, the operation index, start and end times (``time.perf_counter``) and a
few attributes read from the arguments or the result.  ``uninstall`` puts
every original back.  A target that a later version of the package renames
or removes is skipped with a note; the metrics that depend on it are then
left out of the report instead of crashing the run.

The process is single-threaded while tracing, so one stack gives every span
its parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> dotted path of the function it times; each function is wrapped
# in every lem module that binds it (lem.fit.fit_lem is also lem.simulate.fit_lem
# and lem.cli.fit_lem)
TARGETS = {
    "numerics.log_cdf": "lem.numerics.log_std_normal_cdf",
    "numerics.solve_sym": "lem.numerics.solve_sym",
    "likelihood.pooled": "lem.likelihood.pooled_negloglik_and_score",
    "likelihood.score_rows": "lem.likelihood.score_rows",
    "optim.minimize": "lem.optim.minimize_bfgs",
    "fit.fit_lem": "lem.fit.fit_lem",
    "fit.init": "lem.fit.initialize",
    "fit.bread": "lem.fit.score_jacobian",
    "fit.sandwich": "lem.fit.sandwich_cov",
    "data.matrix_rank": "lem.data.matrix_rank",
    "data.check_overlap": "lem.data.check_overlap",
    "data.load_csv": "lem.data.load_csv",
    "data.subset_rows": "lem.data.subset_rows",
    "simulate.replicate": "lem.simulate._run_replicate",
    "simulate.gen_covariates": "lem.simulate.gen_covariates",
    "simulate.gen_outcomes": "lem.simulate.gen_outcomes",
    "simulate.missingness": "lem.simulate.apply_missingness",
    "gee.fit": "lem.gee.fit_gee_independence",
    "cli.main": "lem.cli.main",
}


def _pooled_attrs(args, result):
    theta, dataset = args[0], args[1]
    return {"rows": getattr(dataset, "n_rows", None), "dim": getattr(theta, "dim", None),
            "dims": getattr(dataset, "dims", None)}


def _optim_attrs(args, result):
    return {"iterations": getattr(result, "iterations", None),
            "n_evals": getattr(result, "n_evals", None)}


def _rows_out(args, result):
    return {"rows": getattr(result, "n_rows", None)}


def _missingness_attrs(args, result):
    return {"rows_in": getattr(args[0], "n_rows", None),
            "rows_out": getattr(result, "n_rows", None)}


# span name -> attributes recorded from (positional args, result); for a call
# that raises, the result is the exception's ``result`` attribute, if any
ATTRS = {
    "likelihood.pooled": _pooled_attrs,
    "optim.minimize": _optim_attrs,
    "data.load_csv": _rows_out,
    "simulate.missingness": _missingness_attrs,
}


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "attrs")

    def __init__(self, sid, parent, name, op, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.op = op
        self.start = start
        self.end = None
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self, origin):
        out = {"id": self.id, "parent": self.parent, "name": self.name, "op": self.op,
               "start_s": self.start - origin, "end_s": self.end - origin}
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Collects spans in memory while installed; see the module docstring."""

    def __init__(self, targets=TARGETS):
        self.targets = dict(targets)
        self.spans = []
        self.notes = []
        self.missing = set()
        self.op = None
        self._stack = []
        self._patches = []

    def _wrap(self, name, original):
        spans, stack, attrs_of = self.spans, self._stack, ATTRS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, self.op, clock())
            spans.append(span)
            stack.append(span.id)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                result = getattr(exc, "result", None)
                raise
            finally:
                span.end = clock()
                stack.pop()
                if attrs_of is not None:
                    span.attrs = attrs_of(args, result)

        return functools.update_wrapper(wrapper, original)

    def install(self):
        """Wrap every target; a target that cannot be found is noted and skipped."""
        originals = {}
        for name, path in self.targets.items():
            module_name, attr = path.rsplit(".", 1)
            try:
                originals[name] = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.add(name)
                self.notes.append(f"{path} not found: span {name} and the metrics built on it are absent")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "lem" or key.startswith("lem."))]
        for name, original in originals.items():
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def self_times(self):
        """Span id -> duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [span.duration - child_time[span.id] for span in self.spans]

    def export(self):
        origin = self.spans[0].start if self.spans else 0.0
        return [span.to_dict(origin) for span in self.spans]

"""Command-line entry point: ``lem fit``, ``lem simulate``, ``lem predict``.

Every command is deterministic given its inputs and seed, never mutates its
input files, and writes a ``manifest.json`` (atomically) beside its outputs
with enough information to replay the run.

Exit codes: 0 success, 1 input/configuration or command-line usage error,
2 numerical failure (non-convergence, singular system, overflow).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .data import DesignSpec, load_csv
from .errors import (
    LemError,
    NoConvergence,
    NonFiniteLikelihood,
    SingularMatrix,
)
from .fit import contrast, fit_lem, fit_to_dict, load_fit_json, ncs_basis
from .gee import fit_gee_independence
from .simulate import SimConfig, _one_blas_thread, preset, run_study

NUMERICAL_ERRORS = (NoConvergence, NonFiniteLikelihood, SingularMatrix)
# every command runs BLAS on one thread, set once for the process (README, Exit codes)
_blas_on_one_thread = functools.cache(_one_blas_thread)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-lem-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_hash(payload):
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _write_manifest(out_dir, command, config_payload, seed, outputs, started):
    manifest = {
        "command": command,
        "config_hash": _config_hash(config_payload),
        "seed": seed,
        "version": __version__,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": sorted(outputs),
    }
    _atomic_write(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _print_coef_table(fit, fit_dict):
    names = fit.param_names
    table = contrast(fit, np.eye(len(names)))
    width = max(len(n) for n in names)
    print(f"{'parameter'.ljust(width)}  {'estimate':>12}  {'robust_se':>12}  "
          f"{'ci_low':>12}  {'ci_high':>12}")
    for n, e, s, lo, hi in zip(names, table.estimate, table.se, table.lower, table.upper):
        print(f"{n.ljust(width)}  {e:>12.6f}  {s:>12.6f}  {lo:>12.6f}  {hi:>12.6f}")
    if fit_dict.get("sigma_y") is not None:
        print(f"sigma_y = {fit_dict['sigma_y']:.6f}, rho = {fit_dict['rho']:.6f}")
    for msg in fit.warnings:
        print(f"warning: {msg}")


def cmd_fit(args):
    started = _now()
    spec = DesignSpec.from_json(args.spec)
    dataset = load_csv(args.data, spec)
    if args.method == "lem":
        fit = fit_lem(dataset, model_cov=args.model_cov)
    else:
        fit = fit_gee_independence(dataset, args.method.split("-", 1)[1])
    payload = fit_to_dict(fit)

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "fit.json")
    _atomic_write(out_path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _print_coef_table(fit, payload)
    config_payload = {"data": os.path.abspath(args.data), "spec": spec.to_dict(),
                      "method": args.method, "rho_map": "logistic"}
    if args.model_cov:   # only here, so the hash of every other run is unchanged
        config_payload["model_cov"] = True
    _write_manifest(args.out, args.argv, config_payload, None, [out_path], started)
    return 0


def cmd_simulate(args):
    started = _now()
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            raw = json.load(fh)
        if isinstance(raw, dict):
            raw.setdefault("seed", args.seed)
        cfg = SimConfig.from_dict(raw)
    else:
        cfg = preset(args.preset, seed=args.seed)

    summary = run_study(cfg, args.reps, threads=args.threads)

    os.makedirs(args.out, exist_ok=True)
    table_path = os.path.join(args.out, "summary.txt")
    csv_path = os.path.join(args.out, "summary.csv")
    _atomic_write(table_path, summary.to_table())
    _atomic_write(csv_path, summary.to_csv())
    sys.stdout.write(summary.to_table())
    config_payload = {"config": cfg.to_dict(), "reps": args.reps}
    _write_manifest(args.out, args.argv, config_payload, cfg.seed, [table_path, csv_path], started)
    return 0


def _finite(values, what):
    """``values`` as a float array; ValueError if any is NaN or infinite."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite numbers")
    return values


def _parse_grid(spec_text):
    """The grid and its design rows from a CSV of complete design rows (leading
    intercept included; the grid is the row number), or the grid alone from
    'start:stop:count'."""
    if os.path.exists(spec_text):
        with open(spec_text, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()[1:]
        # loadtxt skips empty and '#' lines, and only warns when none is left
        if not any(line.split("#", 1)[0] for line in lines):
            raise ValueError(f"grid CSV {spec_text!r} has no data rows")
        rows = _finite(np.loadtxt(lines, delimiter=",", ndmin=2), "grid CSV cells")
        return np.arange(rows.shape[0], dtype=float), rows
    parts = spec_text.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"grid {spec_text!r} is neither an existing CSV file nor a start:stop:count range"
        )
    start, stop = _finite([float(parts[0]), float(parts[1])], "grid start and stop")
    count = int(parts[2])
    if count < 1:
        raise ValueError("grid count must be positive")
    return np.linspace(start, stop, count), None


def cmd_predict(args):
    started = _now()
    fit = load_fit_json(args.fit)
    grid, xrows = _parse_grid(args.grid)
    if xrows is None:
        if args.knots:
            knots = _finite([float(v) for v in args.knots.split(",")], "knots")
            basis = ncs_basis(grid, knots)
        else:
            basis = grid[:, None]
        xrows = np.hstack([np.ones((grid.size, 1)), basis])
    if xrows.shape[1] != fit.j_x:
        raise ValueError(
            f"prediction rows have {xrows.shape[1]} columns but the fit expects {fit.j_x}"
        )
    band = contrast(fit, xrows, level=args.level)

    lines = ["grid,estimate,lower,upper"]
    for g, e, lo, hi in zip(grid, band.estimate, band.lower, band.upper):
        lines.append(f"{float(g)!r},{float(e)!r},{float(lo)!r},{float(hi)!r}")
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(args.out, "\n".join(lines) + "\n")
    config_payload = {"fit": os.path.abspath(args.fit), "grid": args.grid,
                      "knots": args.knots, "level": args.level}
    _write_manifest(out_dir, args.argv, config_payload, None, [os.path.abspath(args.out)], started)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1; its subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="lem",
        description="Endogeneity-corrected trend estimation for longitudinal data",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a long-format CSV")
    p_fit.add_argument("--data", required=True, help="CSV file with a header row")
    p_fit.add_argument("--spec", required=True, help="JSON design spec (column mapping)")
    p_fit.add_argument("--method", required=True,
                       choices=["lem", "gee-adjusted", "gee-excluded"])
    p_fit.add_argument("--out", default=".", help="output directory")
    p_fit.add_argument("--model-cov", action="store_true",
                       help="also compute the model-based covariance")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run a replicate study")
    group = p_sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=["sim1", "sim2", "sim3", "sim4"])
    group.add_argument("--config", help="JSON simulation config")
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.add_argument("--threads", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_pred = sub.add_parser("predict", help="trend prediction with pointwise bands")
    p_pred.add_argument("--fit", required=True, help="fit.json from `lem fit`")
    p_pred.add_argument("--grid", required=True,
                        help="'start:stop:count' range or CSV of design rows")
    p_pred.add_argument("--knots", default=None,
                        help="comma-separated spline knots for the range form")
    p_pred.add_argument("--level", type=float, default=0.95)
    p_pred.add_argument("--out", required=True, help="output CSV path")
    p_pred.set_defaults(func=cmd_predict)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = ["lem", *argv] if argv is not None else sys.argv
    _blas_on_one_thread()
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 2
    except (LemError, ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

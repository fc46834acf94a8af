"""Behaviour fingerprint: two SHA-256 digests of fit results, which a change
that keeps every covered fit bit for bit leaves as they are.

    PYTHONPATH=src python tests/fingerprint.py

Run it at two commits and compare the lines.  pytest does not collect this
file; it takes a few seconds.

* ``preset fits``: ``fit_lem(..., model_cov=True)`` on replicate 0 of sim1-sim4
  at seeds 0-23 (96 fits), as ``run_study`` generates it: the estimates, both
  covariances, ``negloglik``, ``score_inf_norm``, the solver's iterations and
  evaluations, and the warnings; a fit that raises gives its error instead.
* ``cli fits``: ``lem fit --method lem`` on the same replicates at seeds 0-3,
  written by ``write_csv``, with and without ``--model-cov`` (32 runs): the
  exit code, stdout, stderr and ``fit.json``.
"""

import contextlib
import hashlib
import io
import json
import os
import struct
import sys
import tempfile

from lem import cli, simulate
from lem.data import DesignSpec, write_csv
from lem.errors import LemError
from lem.fit import fit_lem

PRESETS = ("sim1", "sim2", "sim3", "sim4")
SPEC = {
    "subject": "id", "time": "visit", "outcome": "y", "treatment": "a",
    "x": ["O1", "O4", "O5", "O7"],
    "z": ["O2", "O4", "O6", "O7"],
    "w": ["O3", "O5", "O6", "O7"],
}


def replicate(name, seed):
    """Replicate 0 of a preset, generated as ``run_study`` generates it."""
    cfg = simulate.preset(name, seed=seed)
    rng = simulate.substream(cfg.seed, 0)
    dataset = simulate.gen_outcomes(simulate.gen_covariates(cfg, rng), cfg, rng)
    return simulate.apply_missingness(dataset, cfg, rng)


def fit_bytes(dataset):
    """What a fit reports, as bytes; the error type and message if it raises."""
    try:
        fit = fit_lem(dataset, model_cov=True)
    except LemError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    return b"".join([
        fit.estimates.tobytes(), fit.cov_robust.tobytes(), fit.cov_model.tobytes(),
        struct.pack("<2d2q", fit.negloglik, fit.score_inf_norm,
                    fit.optim.iterations, fit.optim.n_evals),
        "\n".join(fit.warnings).encode(),
    ])


def cli_bytes(data, spec, out, extra):
    """Exit code, stdout, stderr and fit.json of one ``lem fit --method lem``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = ["fit", "--data", data, "--spec", spec, "--method", "lem", "--out", out, *extra]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    text = f"{code}\n{stdout.getvalue()}\n{stderr.getvalue()}\n"
    path = os.path.join(out, "fit.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            text += fh.read()
    # an error message may name the data file, whose directory differs per run
    return text.replace(os.path.dirname(data), "<dir>").encode()


def main():
    presets = hashlib.sha256()
    for name in PRESETS:
        for seed in range(24):
            presets.update(fit_bytes(replicate(name, seed)))
    runs = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(SPEC, fh)
        for name in PRESETS:
            for seed in range(4):
                data = os.path.join(tmp, f"{name}-{seed}.csv")
                write_csv(replicate(name, seed), data, DesignSpec.from_dict(SPEC))
                for extra in ([], ["--model-cov"]):
                    out = os.path.join(tmp, f"{name}-{seed}{''.join(extra)}")
                    runs.update(cli_bytes(data, spec, out, extra))
    print(f"preset fits  {presets.hexdigest()}")
    print(f"cli fits     {runs.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

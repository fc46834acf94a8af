import json
import os
from dataclasses import replace

import numpy as np
import pytest

import lem.cli as cli
from lem.data import DesignSpec, load_csv, write_csv
from lem.errors import NoConvergence
from lem.fit import contrast, fit_lem
from lem.gee import fit_gee_independence
from lem.simulate import SimConfig, gen_covariates, gen_outcomes, preset, substream
from blas_threads import run_fresh

SPEC_DICT = {
    "subject": "id", "time": "visit", "outcome": "y", "treatment": "a",
    "x": ["O1", "O4", "O5", "O7"],
    "z": ["O2", "O4", "O6", "O7"],
    "w": ["O3", "O5", "O6", "O7"],
}


@pytest.fixture()
def sim_csv(tmp_path):
    cfg = SimConfig(n_subjects=150, seed=23)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    data_path = tmp_path / "panel.csv"
    write_csv(d, str(data_path), DesignSpec.from_dict(SPEC_DICT))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_DICT))
    return str(data_path), str(spec_path)


def test_fit_smoke(sim_csv, tmp_path, capsys):
    data, spec = sim_csv
    out = str(tmp_path / "out")
    code = cli.main(["fit", "--data", data, "--spec", spec, "--method", "lem", "--out", out])
    assert code == 0
    payload = json.loads(open(os.path.join(out, "fit.json")).read())
    assert payload["model"] == "lem"
    assert payload["convergence"]["converged"]
    assert len(payload["estimates"]) == 17
    manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
    assert manifest["outputs"] == [os.path.join(out, "fit.json")]
    assert "parameter" in capsys.readouterr().out


def test_fit_of_a_written_replicate_writes_the_in_memory_fit(tmp_path):
    # the simulated replicate's x, z and w are Fortran-ordered, the loaded ones C-ordered
    cfg = preset("sim1", seed=0)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    data, spec = tmp_path / "sim1.csv", tmp_path / "spec.json"
    write_csv(d, str(data), DesignSpec.from_dict(SPEC_DICT))
    spec.write_text(json.dumps(SPEC_DICT))
    out = tmp_path / "out"
    assert cli.main(["fit", "--data", str(data), "--spec", str(spec), "--method", "lem",
                     "--out", str(out)]) == 0
    payload = json.loads((out / "fit.json").read_text())
    fit = fit_lem(d)
    assert payload["estimates"] == fit.estimates.tolist()
    assert payload["cov_robust"] == fit.cov_robust.ravel().tolist()


def test_fit_reads_files_that_start_with_a_byte_order_mark(sim_csv, tmp_path):
    for path in sim_csv:
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + raw)
    data, spec = sim_csv
    assert cli.main(["fit", "--data", data, "--spec", spec, "--method", "lem",
                     "--out", str(tmp_path / "out")]) == 0


def test_a_command_runs_blas_on_one_thread_for_the_rest_of_the_process(sim_csv, tmp_path):
    """A fresh interpreter, since any fit leaves this process on one thread:
    its first ``lem fit`` sets every OpenBLAS count to 1 and leaves it there,
    and a second finds it at 1.  On a one-core host every count is 1 already
    and this passes trivially."""
    data, spec = sim_csv
    code = (
        "import json, sys\n"
        "import lem.cli\n"
        "from blas_threads import openblas_thread_counts as counts\n"
        "before = counts()\n"
        "argv = ['fit', '--data', sys.argv[1], '--spec', sys.argv[2], '--method', 'lem', '--out']\n"
        "codes = [lem.cli.main(argv + [sys.argv[3] + str(i)]) for i in range(2)]\n"
        "print(json.dumps([before, counts(), codes]))\n"
    )
    before, after, codes = run_fresh(code, data, spec, tmp_path / "out")
    if not before:
        pytest.skip("no OpenBLAS loaded")
    assert codes == [0, 0]
    assert after == {path: 1 for path in before}


def test_fit_gee_variants(sim_csv, tmp_path):
    data, spec = sim_csv
    for method in ("gee-adjusted", "gee-excluded"):
        out = str(tmp_path / method)
        assert cli.main(["fit", "--data", data, "--spec", spec,
                         "--method", method, "--out", out]) == 0
        payload = json.loads(open(os.path.join(out, "fit.json")).read())
        assert payload["model"] == method


def test_fit_missing_column_exit_1(sim_csv, tmp_path, capsys):
    data, _ = sim_csv
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(json.dumps({**SPEC_DICT, "outcome": "ldl"}))
    code = cli.main(["fit", "--data", data, "--spec", str(bad_spec),
                     "--method", "lem", "--out", str(tmp_path)])
    assert code == 1
    assert "ldl" in capsys.readouterr().err


def test_fit_spec_with_a_string_for_a_list_exit_1(sim_csv, tmp_path, capsys):
    data, _ = sim_csv
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(json.dumps({**SPEC_DICT, "x": "O1"}))
    code = cli.main(["fit", "--data", data, "--spec", str(bad_spec),
                     "--method", "lem", "--out", str(tmp_path)])
    assert code == 1
    assert "spec key 'x'" in capsys.readouterr().err


def test_fit_spec_with_an_unknown_key_exit_1(sim_csv, tmp_path, capsys):
    # "W" for "w" used to load as w = () and fit without effect modifiers
    data, _ = sim_csv
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(json.dumps({k: v for k, v in SPEC_DICT.items() if k != "w"}
                                   | {"W": SPEC_DICT["w"]}))
    out = tmp_path / "out"
    code = cli.main(["fit", "--data", data, "--spec", str(bad_spec),
                     "--method", "lem", "--out", str(out)])
    assert code == 1
    assert "unknown design spec keys: ['W']" in capsys.readouterr().err
    assert not (out / "fit.json").exists()


def test_fit_spec_that_is_not_an_object_exit_1(sim_csv, tmp_path, capsys):
    data, _ = sim_csv
    bad_spec = tmp_path / "list.json"
    bad_spec.write_text(json.dumps([1, 2]))
    out = tmp_path / "out"
    code = cli.main(["fit", "--data", data, "--spec", str(bad_spec),
                     "--method", "lem", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error (ValueError)") and "design spec" in err
    assert not (out / "fit.json").exists()


def test_fit_no_overlap_warns_but_succeeds(tmp_path, capsys):
    rng = np.random.default_rng(1)
    rows = ["id,visit,y,a,O1,O2,O3,O4,O5,O6,O7"]
    for i in range(80):
        a = i % 2
        y = rng.normal() + (40.0 if a else 0.0)   # disjoint outcome ranges
        covs = ",".join(f"{v:.6f}" for v in rng.normal(size=7))
        rows.append(f"{i},0,{y:.6f},{a},{covs}")
    data = tmp_path / "sep.csv"
    data.write_text("\n".join(rows) + "\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC_DICT))
    out = str(tmp_path / "out")
    code = cli.main(["fit", "--data", str(data), "--spec", str(spec),
                     "--method", "lem", "--out", out])
    assert code == 0
    payload = json.loads(open(os.path.join(out, "fit.json")).read())
    assert any("overlap" in w for w in payload["warnings"])


def test_fit_separated_treatment_exit_1(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = ["id,visit,y,a,v"]
    for i, v in enumerate(rng.normal(size=200).tolist()):
        a = int(v > 0)   # treatment exactly separated by v
        rows.append(f"{i},0,{float(rng.normal()) + a!r},{a},{v!r}")
    data = tmp_path / "sep.csv"
    data.write_text("\n".join(rows) + "\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"subject": "id", "time": "visit", "outcome": "y",
                                "treatment": "a", "z": ["v"]}))
    code = cli.main(["fit", "--data", str(data), "--spec", str(spec),
                     "--method", "lem", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "SingularDesign" in capsys.readouterr().err


def test_fit_subject_label_with_a_nul_character_exit_1(tmp_path, capsys):
    data = tmp_path / "nul.csv"
    data.write_text("id,visit,y,a\na,0,1.0,0\na\x00,0,2.0,1\n")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"subject": "id", "time": "visit", "outcome": "y", "treatment": "a"}))
    code = cli.main(["fit", "--data", str(data), "--spec", str(spec),
                     "--method", "lem", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "row 3, column 'id': subject label contains a NUL character" in capsys.readouterr().err


def fit_scaled_outcome(tmp_path, scale, method):
    """`lem fit` exit code on a sim1 cohort (200 subjects, seed 3) with y x ``scale``."""
    cfg = SimConfig(n_subjects=200, seed=3)
    rng = substream(cfg.seed, 0)
    d = gen_outcomes(gen_covariates(cfg, rng), cfg, rng)
    data = str(tmp_path / "panel.csv")
    write_csv(replace(d, y=d.y * scale), data, DesignSpec.from_dict(SPEC_DICT))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC_DICT))
    return cli.main(["fit", "--data", data, "--spec", str(spec),
                     "--method", method, "--out", str(tmp_path / "out")])


def test_fit_gee_outcome_near_overflow_exit_2(tmp_path, capsys):
    assert fit_scaled_outcome(tmp_path, 1e300, "gee-adjusted") == 2
    assert "SingularMatrix" in capsys.readouterr().err


@pytest.mark.parametrize("scale,code", [(1e-20, 0), (1e-100, 0), (1e300, 2)])
def test_fit_lem_at_extreme_outcome_scales(tmp_path, capsys, scale, code):
    # the fit runs in power-of-two units; at 1e300 the beta variances overflow
    assert fit_scaled_outcome(tmp_path, scale, "lem") == code
    if code == 2:
        assert "NonFiniteLikelihood" in capsys.readouterr().err


def test_fit_numerical_failure_exit_2(sim_csv, tmp_path, monkeypatch):
    data, spec = sim_csv
    def boom(*a, **k):
        raise NoConvergence("stalled")
    monkeypatch.setattr(cli, "fit_lem", boom)
    code = cli.main(["fit", "--data", data, "--spec", spec, "--method", "lem",
                     "--out", str(tmp_path)])
    assert code == 2


def test_fit_unidentified_parameter_exit_2(tmp_path, capsys):
    # an intercept-only z: the robust variance of varrho comes out negative
    cfg = preset("sim1")
    rng = substream(cfg.seed, 0)
    data = str(tmp_path / "panel.csv")
    write_csv(gen_outcomes(gen_covariates(cfg, rng), cfg, rng), data, DesignSpec.from_dict(SPEC_DICT))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(SPEC_DICT, z=[])))
    assert cli.main(["fit", "--data", data, "--spec", str(spec), "--method", "lem",
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error (SingularMatrix)") and "varrho" in err and "rescale" not in err


@pytest.mark.parametrize("argv,named", [
    (["fit", "--data", "x.csv"], "required: --spec, --method"),
    (["simulate", "--preset", "sim1", "--reps", "abc"], "invalid int value: 'abc'"),
    (["fit", "--data", "x.csv", "--spec", "s.json", "--method", "lem", "--rho-map", "arctan"],
     "unrecognized arguments: --rho-map arctan"),
])
def test_usage_error_exit_1(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["fit", "--help"]])
def test_help_and_version_exit_0(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0


def test_simulate_deterministic_across_runs_and_threads(tmp_path):
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "2")):
        out = str(tmp_path / name)
        code = cli.main(["simulate", "--preset", "sim1", "--reps", "4",
                         "--seed", "7", "--out", out, "--threads", threads])
        assert code == 0
        outs.append(out)
    ref_csv = open(os.path.join(outs[0], "summary.csv"), "rb").read()
    ref_txt = open(os.path.join(outs[0], "summary.txt"), "rb").read()
    for out in outs[1:]:
        assert open(os.path.join(out, "summary.csv"), "rb").read() == ref_csv
        assert open(os.path.join(out, "summary.txt"), "rb").read() == ref_txt


def test_simulate_reps_zero_exit_1(tmp_path):
    code = cli.main(["simulate", "--preset", "sim1", "--reps", "0",
                     "--out", str(tmp_path)])
    assert code == 1


def test_simulate_threads_zero_exit_1(tmp_path, capsys):
    code = cli.main(["simulate", "--preset", "sim1", "--reps", "2", "--threads", "0",
                     "--out", str(tmp_path)])
    assert code == 1
    assert "threads must be at least 1" in capsys.readouterr().err


def test_simulate_custom_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_subjects": 80, "missingness": "mcar"}))
    out = str(tmp_path / "out")
    code = cli.main(["simulate", "--config", str(cfg_path), "--reps", "2",
                     "--seed", "3", "--out", out])
    assert code == 0
    csv = open(os.path.join(out, "summary.csv")).read()
    assert csv.count("\n") == 1 + 10


def test_simulate_seed_in_both_the_config_and_the_command_line_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_subjects": 80, "seed": 5}))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg_path), "--reps", "2", "--out", str(out)]
    assert cli.main(argv + ["--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith("error (ValueError): --seed and the 'seed' of ")
    assert not out.exists()
    # either one alone is the study's seed
    assert cli.main(argv) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 5
    cfg_path.write_text(json.dumps({"n_subjects": 80}))
    assert cli.main(argv + ["--seed", "1"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 1
    assert cli.main(argv) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == 0


def test_simulate_invalid_config_exit_1(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rho_y": -0.9}))
    assert cli.main(["simulate", "--config", str(cfg_path), "--reps", "2",
                     "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("config,named", [({"seed": "abc"}, "'seed'"), ({"n_subjects": "50"}, "'n_subjects'"),
                                          ({"beta": 3}, "'beta'"), ([{"n_subjects": 80}], "JSON object"),
                                          ({"beta": [0.0, 1.0]}, "'beta'"), ({"sigma_y2": -1}, "'sigma_y2'"),
                                          ({"beta": [10 ** 400, 1, 1, 1, 1]}, "'beta'"),
                                          ({"rho": 10 ** 400}, "'rho'")])
def test_simulate_config_of_the_wrong_type_exit_1(tmp_path, capsys, config, named):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(cfg_path), "--reps", "2",
                     "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (ValueError)") and named in err


@pytest.fixture()
def lem_fit_json(sim_csv, tmp_path):
    data, spec = sim_csv
    out = str(tmp_path / "fitout")
    assert cli.main(["fit", "--data", data, "--spec", spec, "--method", "lem",
                     "--out", out]) == 0
    return os.path.join(out, "fit.json")


def test_predict_intercept_row_equals_beta0(lem_fit_json, tmp_path):
    # CSV grid form: one design row that is exactly the intercept row
    grid = tmp_path / "rows.csv"
    grid.write_text("c0,c1,c2,c3,c4\n1,0,0,0,0\n")
    out = str(tmp_path / "band.csv")
    assert cli.main(["predict", "--fit", lem_fit_json, "--grid", str(grid),
                     "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "grid,estimate,lower,upper"
    est = float(lines[1].split(",")[1])
    beta0 = json.loads(open(lem_fit_json).read())["estimates"][0]
    assert est == pytest.approx(beta0)


@pytest.mark.parametrize("method", ["gee-adjusted", "gee-excluded"])
def test_predict_from_a_gee_fit_intercept_row_equals_beta0(sim_csv, tmp_path, method):
    data, spec = sim_csv
    fit_json = tmp_path / "fitout" / "fit.json"
    assert cli.main(["fit", "--data", data, "--spec", spec, "--method", method,
                     "--out", str(fit_json.parent)]) == 0
    grid = tmp_path / "rows.csv"
    grid.write_text("c0,c1,c2,c3,c4\n1,0,0,0,0\n")
    out = str(tmp_path / "band.csv")
    assert cli.main(["predict", "--fit", str(fit_json), "--grid", str(grid),
                     "--out", out]) == 0
    est = float(open(out).read().splitlines()[1].split(",")[1])
    assert est == pytest.approx(json.loads(fit_json.read_text())["estimates"][0])


def test_predict_fit_that_is_not_an_object_exit_1(tmp_path, capsys):
    bad_fit = tmp_path / "list.json"
    bad_fit.write_text(json.dumps([1, 2]))
    out = tmp_path / "band.csv"
    assert cli.main(["predict", "--fit", str(bad_fit), "--grid", "0:1:5",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (ValueError)") and "fit file" in err
    assert not out.exists()


def _fit_file(tmp_path, **changes):
    """A hand-written GEE fit.json with three parameters and j_x = 2; a change
    whose value is None deletes the key."""
    raw = {"schema_version": 1, "model": "gee-adjusted",
           "param_names": ["beta:(intercept)", "beta:t", "beta:treatment"],
           "estimates": [1.0, 0.5, -0.25], "se_robust": [0.2, 0.1, 0.3],
           "cov_robust": [0.04, 0, 0, 0, 0.01, 0, 0, 0, 0.09], "dims": {"j_x": 2},
           "n_subjects": 3, "n_rows": 7, "warnings": []}
    raw.update(changes)
    path = tmp_path / "fit.json"
    path.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
    return str(path)


def test_predict_from_a_hand_written_fit_file(tmp_path):
    out = tmp_path / "band.csv"
    assert cli.main(["predict", "--fit", _fit_file(tmp_path), "--grid", "0:1:3", "--out", str(out)]) == 0
    vals = np.loadtxt(out, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(vals[:, 1], [1.0, 1.25, 1.5])


@pytest.mark.parametrize("changes, named", [
    ({"param_names": 3}, "'param_names'"),
    ({"param_names": []}, "'param_names'"),
    ({"param_names": ["a", 2, "c"]}, "'param_names'"),
    ({"dims": 3}, "'dims'"),
    ({"dims": {"j_x": 0}}, "'dims.j_x'"),
    ({"dims": {"j_x": 4}}, "'dims.j_x'"),
    ({"dims": {"j_x": True}}, "'dims.j_x'"),
    ({"estimates": "x"}, "'estimates'"),
    ({"estimates": [1.0, True, 0.0]}, "'estimates'"),
    ({"estimates": [1.0, float("inf"), 0.0]}, "'estimates'"),
    ({"cov_robust": [0.04, 0.01, 0.09]}, "'cov_robust'"),
    ({"model": 3}, "'model'"),
    ({"schema_version": 2}, "'schema_version'"),
    ({"schema_version": None}, "'schema_version'"),
    ({"n_rows": -1}, "'n_rows'"),
    ({"warnings": "none"}, "'warnings'"),
])
def test_predict_fit_file_with_a_value_of_the_wrong_type_exit_1(tmp_path, capsys, changes, named):
    out = tmp_path / "band.csv"
    assert cli.main(["predict", "--fit", _fit_file(tmp_path, **changes), "--grid", "0:1:3",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (ValueError)") and named in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["gee-adjusted", "gee-excluded"])
def test_predict_from_a_gee_fit_file_equals_the_in_process_band(sim_csv, tmp_path, method):
    data, spec = sim_csv
    out_dir = tmp_path / "fitout"
    assert cli.main(["fit", "--data", data, "--spec", spec, "--method", method,
                     "--out", str(out_dir)]) == 0
    grid = tmp_path / "rows.csv"
    grid.write_text("c0,c1,c2,c3,c4\n1,0,0,0,0\n1,0.5,-1,2,0.25\n1,-1.5,0.3,0,1\n")
    out = tmp_path / "band.csv"
    assert cli.main(["predict", "--fit", str(out_dir / "fit.json"), "--grid", str(grid),
                     "--out", str(out)]) == 0
    fit = fit_gee_independence(load_csv(data, DesignSpec.from_dict(SPEC_DICT)), method.split("-", 1)[1])
    band = contrast(fit, np.loadtxt(grid, delimiter=",", skiprows=1))
    np.testing.assert_array_equal(np.loadtxt(out, delimiter=",", skiprows=1),
                                  np.column_stack([np.arange(3.0), band.estimate, band.lower, band.upper]))


def test_fit_model_cov_enters_the_config_hash_only_when_given(sim_csv, tmp_path):
    data, spec = sim_csv
    hashes = []
    for extra in ([], ["--model-cov"]):
        out = tmp_path / f"out{len(extra)}"
        assert cli.main(["fit", "--data", data, "--spec", spec, "--method", "lem",
                         "--out", str(out), *extra]) == 0
        hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
    assert hashes[0] != hashes[1]
    # the default run keeps the hash that manifests written before the key existed carry
    assert hashes[0] == cli._config_hash({"data": os.path.abspath(data), "method": "lem",
                                          "spec": DesignSpec.from_dict(SPEC_DICT).to_dict(),
                                          "rho_map": "logistic"})


def test_successive_commands_share_no_parsed_value(sim_csv, tmp_path, monkeypatch):
    data, spec = sim_csv
    fits, manifests = [], []
    real_fit = cli.fit_lem

    def fit_lem(dataset, **kwargs):
        fits.append(kwargs)
        return real_fit(dataset, **kwargs)

    monkeypatch.setattr(cli, "fit_lem", fit_lem)
    monkeypatch.setattr(cli, "_write_manifest", lambda *args: manifests.append(args))
    other = str(tmp_path / "other.csv")
    with open(data) as src, open(other, "w") as dst:
        dst.write(src.read())
    assert cli.main(["fit", "--data", data, "--spec", spec, "--method", "lem",
                     "--out", str(tmp_path / "a"), "--model-cov"]) == 0
    assert cli.main(["fit", "--spec", spec, "--out", str(tmp_path / "b"), "--method", "lem",
                     "--data", other]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert fits == [{"model_cov": True}, {"model_cov": False}]
    (out_a, argv_a, config_a, *_), (out_b, argv_b, config_b, *_) = manifests
    assert (out_a, out_b) == (str(tmp_path / "a"), str(tmp_path / "b"))
    assert argv_a[-1] == "--model-cov" and argv_b[-1] == other
    assert config_a["model_cov"] and "model_cov" not in config_b
    assert (config_a["data"], config_b["data"]) == (os.path.abspath(data), os.path.abspath(other))


def test_config_hash_of_a_preset_is_pinned():
    # manifests written before SimConfig.to_dict became dataclasses.asdict carry this hash
    assert cli._config_hash(preset("sim1", seed=0).to_dict()) == (
        "d3fe96d041b8ba5b916bb8fdfe0612befdb06e708f3bf628e2170b7bfcfd95a1")
    assert cli._config_hash(DesignSpec.from_dict(SPEC_DICT).to_dict()) == (
        "4605c3e88ea02df795bf5882b486f304324aedf940d3420f16747c53884874ca")


def test_predict_range_with_knots(tmp_path, lem_fit_json):
    # a fit with J_X = 5 takes rows [1, x, 3 curvature terms] from 5 knots
    out = str(tmp_path / "band.csv")
    code = cli.main(["predict", "--fit", lem_fit_json, "--grid=-2:2:9",
                     "--knots=-1,-0.5,0,0.5,1", "--out", out])
    assert code == 0
    vals = np.loadtxt(out, delimiter=",", skiprows=1)
    assert vals.shape == (9, 4)
    assert (np.diff(vals[:, 0]) > 0).all()
    assert (vals[:, 2] <= vals[:, 1]).all() and (vals[:, 1] <= vals[:, 3]).all()


def test_predict_unsorted_knots_exit_1(lem_fit_json, tmp_path):
    assert cli.main(["predict", "--fit", lem_fit_json, "--grid", "0:1:5",
                     "--knots", "3,2,1,0,-1", "--out", str(tmp_path / "b.csv")]) == 1


@pytest.mark.parametrize("level", ["1.5", "1"])
def test_predict_level_outside_the_unit_interval_exit_1(lem_fit_json, tmp_path, level):
    out = tmp_path / "band.csv"
    assert cli.main(["predict", "--fit", lem_fit_json, "--grid=-2:2:9",
                     "--knots=-1,-0.5,0,0.5,1", "--level", level, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("text", ["c0,c1,c2,c3,c4\n", "c0,c1,c2,c3,c4\n\n# no rows\n"],
                         ids=["header-only", "blank-and-comment"])
def test_predict_grid_csv_without_data_rows_exit_1(lem_fit_json, tmp_path, capsys, text):
    (tmp_path / "rows.csv").write_text(text)
    out = tmp_path / "band.csv"
    assert cli.main(["predict", "--fit", lem_fit_json, "--grid", str(tmp_path / "rows.csv"),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (ValueError): grid CSV ") and err.endswith("has no data rows\n")
    assert not out.exists()


def test_predict_knots_with_a_grid_csv_exit_1(lem_fit_json, tmp_path, capsys):
    (tmp_path / "rows.csv").write_text("c0,c1,c2,c3,c4\n1,0,0,0,0\n")
    out = tmp_path / "band.csv"
    assert cli.main(["predict", "--fit", lem_fit_json, "--grid", str(tmp_path / "rows.csv"),
                     "--knots", "1,2,3,4,5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error (ValueError): --knots applies only to a start:stop:count grid")
    assert not out.exists() and not (tmp_path / "manifest.json").exists()


def test_predict_dimension_mismatch_exit_1(lem_fit_json, tmp_path):
    assert cli.main(["predict", "--fit", lem_fit_json, "--grid", "0:1:5",
                     "--out", str(tmp_path / "b.csv")]) == 1


def test_commands_do_not_mutate_inputs(sim_csv, tmp_path):
    data, spec = sim_csv
    before = open(data, "rb").read()
    cli.main(["fit", "--data", data, "--spec", spec, "--method", "lem",
              "--out", str(tmp_path / "o")])
    assert open(data, "rb").read() == before


@pytest.mark.parametrize("grid, knots", [
    ("0:nan:3", "-1,-0.5,0,0.5,1"),
    ("0:inf:3", "-1,-0.5,0,0.5,1"),
    ("rows.csv", None),
    ("0:1:3", "-1,-0.5,0,0.5,inf"),
])
def test_predict_non_finite_grid_or_knot_exit_1(lem_fit_json, tmp_path, capsys, grid, knots):
    (tmp_path / "rows.csv").write_text("c0,c1,c2,c3,c4\n1,0,0,0,0\n1,nan,0,0,0\n")
    if grid == "rows.csv":
        grid = str(tmp_path / grid)
    out = tmp_path / "band.csv"
    argv = ["predict", "--fit", lem_fit_json, f"--grid={grid}", "--out", str(out)]
    if knots:
        argv.append(f"--knots={knots}")
    assert cli.main(argv) == 1
    assert not out.exists()
    assert "finite" in capsys.readouterr().err

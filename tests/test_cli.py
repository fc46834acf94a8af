import json
import os

import numpy as np
import pytest

import lem.cli as cli
from lem.data import DesignSpec, write_csv
from lem.errors import NoConvergence
from lem.simulate import SimConfig, gen_covariates, gen_outcomes, substream

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


def test_fit_numerical_failure_exit_2(sim_csv, tmp_path, monkeypatch):
    data, spec = sim_csv
    def boom(*a, **k):
        raise NoConvergence("stalled")
    monkeypatch.setattr(cli, "fit_lem", boom)
    code = cli.main(["fit", "--data", data, "--spec", spec, "--method", "lem",
                     "--out", str(tmp_path)])
    assert code == 2


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


def test_simulate_custom_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_subjects": 80, "missingness": "mcar"}))
    out = str(tmp_path / "out")
    code = cli.main(["simulate", "--config", str(cfg_path), "--reps", "2",
                     "--seed", "3", "--out", out])
    assert code == 0
    csv = open(os.path.join(out, "summary.csv")).read()
    assert csv.count("\n") == 1 + 10


def test_simulate_invalid_config_exit_1(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rho_y": -0.9}))
    assert cli.main(["simulate", "--config", str(cfg_path), "--reps", "2",
                     "--out", str(tmp_path)]) == 1


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

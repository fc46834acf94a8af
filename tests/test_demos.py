import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["01_endogeneity_bias.py", "02_replicate_study.py", "04_age_trend_bands.py"])
def test_demo_runs(tmp_path, demo):
    # 01 and 04 read GeeFit.coef and se_robust(), 02 prints a study table through run_study;
    # run in tmp_path, where 04 writes demo_band.csv
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", demo)], cwd=tmp_path,
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr

"""Smoke test of the experiment script under scripts/."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_rwa_error_writes_curves(tmp_path):
    out = tmp_path / "curves.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_rwa_error.py"),
         "--horizon", "0.5", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "t,A-I,A-II,B-I,B-II,C-I,C-II"
    assert len(lines) == 1 + 653  # 8191 steps per 2 pi over t <= 0.5

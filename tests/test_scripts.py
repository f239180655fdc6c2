"""Smoke tests of the scripts under scripts/."""

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


def test_snapshot_outputs_writes_every_output(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "snapshot_outputs.py"),
         str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = tmp_path / "out"
    summaries = (out / "summaries.txt").read_text().splitlines()
    assert len(summaries) == 3 * 3 * 2 * 8  # cases x detunings x drives
    assert "C-II full dw=0.05 gap = nan" in summaries
    names = {path.stem for path in out.glob("*.status")}
    assert names == {path.stem for path in out.glob("*.csv")}
    assert len(names) == 8
    for name in names:
        status = (out / f"{name}.status").read_text()
        if name == "gap_C-II_q20":  # both gaps unresolved at q = 20
            assert status.startswith("exit 3\ngap: 2 of 2 spectral gaps")
        else:
            assert status == "exit 0\n", name

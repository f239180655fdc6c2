"""Smoke tests of the scripts under scripts/."""

import importlib.util
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
    assert len(summaries) == 3 * 3 * 2 * 9  # cases x detunings x drives
    assert "C-II full dw=0.05 gap = nan" in summaries
    criteria = (out / "criteria.txt").read_text().splitlines()
    assert len(criteria) == 18
    assert all(line.startswith("[criterion ") for line in criteria)
    assert criteria[0].endswith("(tol 1e-8)")  # its timing stripped
    names = {path.stem for path in out.glob("*.status")}
    assert names == {path.stem for path in out.glob("*.csv")}
    assert len(names) == 14
    for name in names:
        status = (out / f"{name}.status").read_text()
        if name == "gap_C-II_q20":  # both gaps unresolved at q = 20
            assert status.startswith("exit 3\ngap: 2 of 2 spectral gaps")
        else:
            assert status == "exit 0\n", name


def _snapshot(path, summaries, files):
    path.mkdir()
    (path / "summaries.txt").write_text("\n".join(summaries) + "\n")
    for name, text in files.items():
        (path / name).write_text(text)
    return path


def test_snapshot_compare_reports_each_move(tmp_path):
    one, third = (1.0).hex(), (1.0 / 3.0).hex()
    moved = (1.0 / 3.0 + 2.0 ** -52).hex()
    base = _snapshot(tmp_path / "base", [
        f"A-II full dw=0.0 rho_ss_rwf = {one},{third} {one},{one}",
        f"B-II full dw=0.0 rho_ss_rwf = {one},{one} {one},{one}",
        "A-II full dw=0.0 steps = 1024",
        "A-II rwa dw=0.0 gap = nan",
        f"A-II rwa dw=0.0 t_conv = {one}",
    ], {"run.csv": "# order = 6\nt,x\n0,1\n0.5,0.25\n",
        "run.status": "exit 0\n", "text.csv": "a,full\n",
        "shape.csv": "a\n1\n", "gone.csv": "a\n"})
    out = _snapshot(tmp_path / "out", [
        f"A-II full dw=0.0 rho_ss_rwf = {one},{moved} {one},{one}",
        f"B-II full dw=0.0 rho_ss_rwf = {one},{one} {one},{one}",
        "A-II full dw=0.0 steps = 1024",
        "A-II rwa dw=0.0 gap = nan",
        "A-II rwa dw=0.0 t_conv = nan",
        f"A-II rwa dw=0.0 step_error = {one}",
    ], {"run.csv": "# order = 6\nt,x\n0,1\n0.5,0.2500000000001\n",
        "run.status": "exit 0\n", "text.csv": "a,rwa\n",
        "shape.csv": "a\n1\n2\n"})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "snapshot_outputs.py"),
         str(out), "--compare", str(base)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = dict(line.split(": ", 1) for line in done.stdout.splitlines())
    assert report == {
        "summaries.txt full rho_ss_rwf": "2.2e-16",
        "summaries.txt full steps": "0",
        "summaries.txt rwa gap": "0",
        "summaries.txt rwa t_conv": "inf",
        "summaries.txt rwa step_error":
            f"only in {out}: A-II rwa dw=0.0 step_error",
        "gone.csv": f"only in {base}",
        "run.csv x": "1e-13",
        "run.status": "0",
        "shape.csv": "differs",
        "text.csv": "differs",
    }
    assert not (out / "gap_A-II.csv").exists()  # compare writes nothing


def test_snapshot_compare_names_a_text_change_of_equal_values(tmp_path):
    # -0 for 0 and 0.50 for 0.5 are the same numbers written differently:
    # a byte-identity check must not read them as an unchanged file
    zero = (0.0).hex()
    base = _snapshot(tmp_path / "base", [
        f"A-II full dw=0.0 t_conv = {zero}",
        f"A-II rwa dw=0.0 t_conv = {zero}",
    ], {"signs.csv": "t,x\n0,0\n", "same.csv": "t,x\n0,0.5\n",
        "places.csv": "t,x\n1,0.5\n"})
    out = _snapshot(tmp_path / "out", [
        f"A-II full dw=0.0 t_conv = -{zero}",
        f"A-II rwa dw=0.0 t_conv = {zero}",
    ], {"signs.csv": "t,x\n0,-0\n", "same.csv": "t,x\n0,0.5\n",
        "places.csv": "t,x\n1,0.50\n"})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "snapshot_outputs.py"),
         str(out), "--compare", str(base)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    report = dict(line.split(": ", 1) for line in done.stdout.splitlines())
    assert report == {
        "summaries.txt full t_conv": "0 (text differs)",
        "summaries.txt rwa t_conv": "0",
        "places.csv": "0 (text differs)",
        "same.csv": "0",
        "signs.csv": "0 (text differs)",
    }


def test_snapshot_compare_reports_metadata_and_columns_apart(tmp_path):
    # A changed "# key = value" line is reported on its own, and so is each
    # moved column: neither hides the moves of the others.
    summary = [f"A-II full dw=0.0 t_conv = {(1.0).hex()}"]
    base = _snapshot(tmp_path / "base", summary, {
        "gap.csv": "# steps_per_period = 1024 256\n# period = 6.28\n"
                   "drive,quantity,re\nfull,gap,2.0\nrwa,gap,2.5\n",
        "sweep.csv": "omega_p,rho22,steps\n6,0.25,1024\n6.5,0.5,1024\n",
        "meta.csv": "# order = 6\nt,x\n0,1\n"})
    out = _snapshot(tmp_path / "out", summary, {
        "gap.csv": "# steps_per_period = 256 256\n# period = 6.28\n"
                   "drive,quantity,re\nfull,gap,2.0000000000005\n"
                   "rwa,gap,2.5\n",
        "sweep.csv": "omega_p,rho22,steps\n6,0.2500000000001,256\n"
                     "6.5,0.5,256\n",
        "meta.csv": "# order = 4\n# drive = full\nt,x\n0,1\n"})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "snapshot_outputs.py"),
         str(out), "--compare", str(base)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "summaries.txt full t_conv: 0",
        "gap.csv # steps_per_period: 1024 256 -> 256 256",
        "gap.csv re: 5e-13",
        "meta.csv # drive: (none) -> full",
        "meta.csv # order: 6 -> 4",
        "meta.csv: 0",
        "sweep.csv rho22: 1e-13",
        "sweep.csv steps: 7.7e+02",
    ]


def test_snapshot_compare_prints_each_changed_criterion_line(tmp_path):
    summary = [f"A-II full dw=0.0 t_conv = {(1.0).hex()}"]
    same = "[criterion 1: closed-form oracle] PASS: max deviation 1e-15\n"
    base = _snapshot(tmp_path / "base", summary, {"criteria.txt": (
        same + "[criterion 2: equivalence] PASS: max deviation 8e-14\n"
        "[criterion 5: spectral gaps] FAIL: A rwa 2.0717\n")})
    out = _snapshot(tmp_path / "out", summary, {"criteria.txt": (
        same + "[criterion 2: equivalence] PASS: max deviation 7e-14\n"
        "[criterion 5: spectral gaps] FAIL: A rwa 2.0717\n"
        "[criterion 11: new] PASS\n")})
    unchanged = _snapshot(tmp_path / "unchanged", summary,
                          {"criteria.txt": (base / "criteria.txt").read_text()})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = str(ROOT / "scripts" / "snapshot_outputs.py")
    done = subprocess.run(
        [sys.executable, script, str(out), "--compare", str(base)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "summaries.txt full t_conv: 0",
        "criteria.txt: [criterion 2: equivalence] PASS: max deviation 8e-14"
        " -> [criterion 2: equivalence] PASS: max deviation 7e-14",
        "criteria.txt: (none) -> [criterion 11: new] PASS",
    ]
    done = subprocess.run(
        [sys.executable, script, str(unchanged), "--compare", str(base)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "summaries.txt full t_conv: 0", "criteria.txt: 0"]


def _mutants_module():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_applies_exactly_once():
    # scripts/mutants.py edits a copy by plain text replacement: each
    # mutant's text must still name one place in its file
    mutants = _mutants_module().MUTANTS
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        text = (ROOT / m.path).read_text()
        assert text.count(m.old) == 1, (m.name, text.count(m.old))
        assert m.new != m.old, m.name

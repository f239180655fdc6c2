#!/usr/bin/env python3
"""Write every deterministic output a behaviour-preserving change must keep
into OUTDIR, so that ``diff -r before_out after_out`` is a bit-identity
check between two checkouts:

    PYTHONPATH=src python3 scripts/snapshot_outputs.py OUTDIR

``summaries.txt`` holds the steady_state_summary fields of A/B/C-II with
both drives at delta_omega_p = 0, 2 (gauge repeats r = 8) and 0.05
(q = 20), every float as exact hex.  Each CLI run below writes its CSV to
``<name>.csv`` and its exit code and stderr to ``<name>.status``; the
``_3T`` and ``_8T`` runs span several periods, so they cover the rows
that each period takes over from the one before (``propagate_A-II_lab_3T``
those of both drives in the lab frame), and the B-II runs a horizon of
2.5, a span shorter than T; at ``sweep_rabi_c20`` the two
drives resolve U_T on different step counts.  ``criteria.txt`` holds the 18
``[criterion ...]`` lines that ``tests/test_acceptance.py`` prints, without
their timings; the run's exit code is not kept, as the documented
acceptance failures make it 1, but any other (a collection error, an
interruption) stops the script.

A change that is meant to move values at rounding level declares the
moves from two snapshots, writing nothing:

    python3 scripts/snapshot_outputs.py after_out --compare before_out

prints the max |delta| of every summary field, per drive over all points,
and of every CSV and status file: 0 where bit-identical, "0 (text differs)"
where equal values are written differently (-0 for 0, 0.50 for 0.5),
"differs" where a text token or the shape differs, and "only in ..." where
one side lacks it.  A file whose values moved gets one line per moved
column, named by its header, and each "# key = value" metadata line that
changed gets a line "name # key: before -> after" of its own.  So does each
changed line of ``criteria.txt``.
"""

import argparse
import contextlib
import io
import itertools
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

from lamsim.cli import main as lamsim
from lamsim.model import preset
from lamsim.sweep import steady_state_summary

ROOT = Path(__file__).resolve().parents[1]

SUMMARY_FIELDS = ("rho_ss_rwf", "t_conv", "gap", "gap_per_time",
                  "trace_defect", "period", "steps", "step_error", "u_t")
CASES = ("A-II", "B-II", "C-II")
DETUNINGS = (0.0, 2.0, 0.05)
RUNS = {
    "propagate_A-I_full": ["propagate", "--case", "A-I", "--drive", "full"],
    "propagate_A-II_rwf": ["propagate", "--case", "A-II", "--frame", "rwf"],
    "propagate_A-I_full_3T": ["propagate", "--case", "A-I", "--periods", "3",
                              "--drive", "full"],
    "propagate_A-II_rwf_3T": ["propagate", "--case", "A-II", "--periods",
                              "3", "--frame", "rwf"],
    "propagate_A-II_lab_3T": ["propagate", "--case", "A-II", "--periods",
                              "3", "--frame", "lab"],
    "propagate_A-I_rwa_8T": ["propagate", "--case", "A-I", "--periods", "8",
                             "--drive", "rwa"],
    "propagate_B-II_lab": ["propagate", "--case", "B-II", "--horizon", "2.5",
                           "--frame", "lab"],
    "propagate_B-II_rwf": ["propagate", "--case", "B-II", "--horizon", "2.5",
                           "--frame", "rwf"],
    "propagate_C-I_order4": ["propagate", "--case", "C-I", "--order", "4"],
    "gap_A-II": ["gap", "--case", "A-II"],
    "gap_C-II_q20": ["gap", "--case", "C-II", "--delta-omega-p", "0.05"],
    "validate_B-II_dw2": ["validate", "--case", "B-II",
                          "--delta-omega-p", "2"],
    "sweep_A-II": ["sweep", "--case", "A-II", "--omega-p-range",
                   "5.5:6.5:0.5", "--observables",
                   "populations,coherences,rwa_error,convergence_time,"
                   "spectral_gap"],
    "sweep_rabi_c20": ["sweep", "--e2", "6", "--e3", "2", "--rabi-p", "1",
                       "--rabi-c", "20", "--gamma-12", "0.9", "--gamma-23",
                       "1", "--omega-p-range", "6:6:1"],
}


def _criteria() -> str:
    """The acceptance gate's printed criterion lines, timings stripped."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    # exit 1 is failed criteria; any other failure (a collection error, an
    # interruption) would leave the criterion lines partial
    if done.returncode not in (0, 1):
        raise RuntimeError(f"acceptance tests exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}{done.stderr}")
    # each line may follow the progress marks of the tests before it
    lines = re.findall(r"^[.FEsx]*(\[criterion [^]]*\] (?:PASS|FAIL): .*)$",
                       done.stdout, re.M)
    return "".join(re.sub(r"[,;] [0-9.]+ s$", "", line) + "\n"
                   for line in lines)


def _hex(value) -> str:
    """Exact text of a summary field: floats as hex, arrays entry by
    entry (real and imaginary parts)."""
    if isinstance(value, np.ndarray):
        return " ".join(f"{_hex(z.real)},{_hex(z.imag)}"
                        for z in value.ravel())
    if isinstance(value, float):
        return float(value).hex()
    return str(value)


def _number(token: str) -> float:
    return float.fromhex(token) if "0x" in token else float(token)


def _max_delta(ours: list, base: list) -> tuple[float, bool] | None:
    """Max |a - b| over two lists of rows of text tokens, and whether two
    tokens of equal value are written differently: equal text is 0,
    numbers (hex or decimal) differ by value, NaN against a number by inf;
    None if the shapes differ or a text token does."""
    if [len(row) for row in ours] != [len(row) for row in base]:
        return None
    worst, retext = 0.0, False
    for a, b in zip(itertools.chain(*ours), itertools.chain(*base)):
        if a == b:
            continue
        try:
            delta = abs(_number(a) - _number(b))
        except ValueError:
            return None
        retext = retext or delta == 0.0
        worst = max(worst, delta if delta == delta else float("inf"))
    return worst, retext


def _summary_rows(path: Path) -> dict:
    """summaries.txt as {"case drive dw=... field": rows of tokens}."""
    lines = (line.split(" = ") for line in path.read_text().splitlines())
    return {key: [token.split(",") for token in value.split()]
            for key, value in lines}


def compare(out: Path, base: Path) -> list[str]:
    """One line per summary field (per drive) and per other file, or per
    moved column and changed metadata line of it: its max |delta| between
    the snapshots out and base."""
    ours, theirs = _summary_rows(out / "summaries.txt"), \
        _summary_rows(base / "summaries.txt")
    fields = defaultdict(list)
    for key in sorted(ours.keys() | theirs.keys()):
        _, drive, _, field = key.split()
        fields[f"summaries.txt {drive} {field}"].append(
            _max_delta(ours[key], theirs[key])
            if key in ours and key in theirs else f"only in "
            f"{out if key in ours else base}: {key}")
    lines = [f"{label}: {_verdict(deltas)}"
             for label, deltas in fields.items()]
    names = sorted({p.name for d in (out, base) for p in d.iterdir()}
                   - {"summaries.txt"})
    for name in names:
        if not (out / name).exists() or not (base / name).exists():
            side = out if (out / name).exists() else base
            lines.append(f"{name}: only in {side}")
        elif name == "criteria.txt":
            lines += _text_lines(name, out, base)
        else:
            lines += _file_lines(name, out, base)
    return lines


def _text_lines(name: str, out: Path, base: Path) -> list[str]:
    """One "name: before -> after" line per changed line of a text file,
    or "name: 0" when none changed."""
    ours = (out / name).read_text().splitlines()
    theirs = (base / name).read_text().splitlines()
    changed = [f"{name}: {b} -> {a}" for a, b in
               itertools.zip_longest(ours, theirs, fillvalue="(none)")
               if a != b]
    return changed or [f"{name}: 0"]


def _verdict(deltas: list) -> str:
    """The report of one label from its _max_delta results (or text)."""
    text = [d for d in deltas if isinstance(d, str)]
    if text:
        return text[0]
    if None in deltas:
        return "differs"
    worst = max(delta for delta, _ in deltas)
    if worst:
        return f"{worst:.2g}"
    return "0" + " (text differs)" * any(retext for _, retext in deltas)


def _csv(path: Path) -> tuple[dict, list]:
    """A file as its "# key = value" metadata lines, by key, and its other
    lines as rows of text tokens, the first of them the header."""
    meta, rows = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(" = ")
            meta[key] = value
        else:
            rows.append(line.split(","))
    return meta, rows


def _file_lines(name: str, out: Path, base: Path) -> list[str]:
    """The report of one file present in both snapshots: its changed
    metadata lines, then the max |delta| of each moved column, or of the
    file when no column moved."""
    (meta, rows), (base_meta, base_rows) = _csv(out / name), \
        _csv(base / name)
    lines = [f"{name} # {key}: {base_meta.get(key, '(none)')} -> "
             f"{meta.get(key, '(none)')}"
             for key in sorted(meta.keys() | base_meta.keys())
             if meta.get(key) != base_meta.get(key)]
    if rows[:1] != base_rows[:1] or \
            [len(row) for row in rows] != [len(row) for row in base_rows]:
        return lines + [f"{name}: differs"]
    columns = [(label, _max_delta([[row[j]] for row in rows[1:]],
                                  [[row[j]] for row in base_rows[1:]]))
               for j, label in enumerate(rows[0] if rows else [])]
    moved = [(label, delta) for label, delta in columns
             if delta is None or delta[0]]
    if not moved:
        deltas = [delta for _, delta in columns] or [(0.0, False)]
        return lines + [f"{name}: {_verdict(deltas)}"]
    return lines + [f"{name} {label}: {_verdict([delta])}"
                    for label, delta in moved]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--compare", type=Path, metavar="BASEDIR",
                    help="print the max |delta| of OUTDIR against BASEDIR "
                    "instead of writing a snapshot")
    args = ap.parse_args()
    out = args.outdir
    if args.compare is not None:
        print("\n".join(compare(out, args.compare)))
        return
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for case in CASES:
        for dw in DETUNINGS:
            for drive in ("full", "rwa"):
                s = steady_state_summary(preset(case, delta_omega_p=dw),
                                         rwa=drive == "rwa")
                lines += [f"{case} {drive} dw={dw} {key} = {_hex(s[key])}"
                          for key in SUMMARY_FIELDS]
    (out / "summaries.txt").write_text("\n".join(lines) + "\n")
    (out / "criteria.txt").write_text(_criteria())
    for name, argv in RUNS.items():
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = lamsim([*argv, "--out", str(out / f"{name}.csv")])
        (out / f"{name}.status").write_text(
            f"exit {code}\n{stderr.getvalue()}")


if __name__ == "__main__":
    main()

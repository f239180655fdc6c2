#!/usr/bin/env python3
"""Write every deterministic output a behaviour-preserving change must keep
into OUTDIR, so that ``diff -r before_out after_out`` is a bit-identity
check between two checkouts:

    PYTHONPATH=src python3 scripts/snapshot_outputs.py OUTDIR

``summaries.txt`` holds the steady_state_summary fields of A/B/C-II with
both drives at delta_omega_p = 0, 2 (sub-period repeats m = 4) and 0.05
(q = 20), every float as exact hex.  Each CLI run below writes its CSV to
``<name>.csv`` and its exit code and stderr to ``<name>.status``.
"""

import argparse
import contextlib
import io
from pathlib import Path

import numpy as np

from lamsim.cli import main as lamsim
from lamsim.model import preset
from lamsim.sweep import steady_state_summary

SUMMARY_FIELDS = ("rho_ss_rwf", "t_conv", "gap", "gap_per_time",
                  "trace_defect", "period", "steps", "step_error")
CASES = ("A-II", "B-II", "C-II")
DETUNINGS = (0.0, 2.0, 0.05)
RUNS = {
    "propagate_A-I_full": ["propagate", "--case", "A-I", "--drive", "full"],
    "propagate_A-II_rwf": ["propagate", "--case", "A-II", "--frame", "rwf"],
    "propagate_B-II_lab": ["propagate", "--case", "B-II", "--horizon", "2.5",
                           "--frame", "lab"],
    "propagate_C-I_order4": ["propagate", "--case", "C-I", "--order", "4"],
    "gap_A-II": ["gap", "--case", "A-II"],
    "gap_C-II_q20": ["gap", "--case", "C-II", "--delta-omega-p", "0.05"],
    "validate_B-II_dw2": ["validate", "--case", "B-II",
                          "--delta-omega-p", "2"],
    "sweep_A-II": ["sweep", "--case", "A-II", "--omega-p-range",
                   "5.5:6.5:0.5", "--observables",
                   "populations,coherences,rwa_error,convergence_time,"
                   "spectral_gap"],
}


def _hex(value) -> str:
    """Exact text of a summary field: floats as hex, arrays entry by
    entry (real and imaginary parts)."""
    if isinstance(value, np.ndarray):
        return " ".join(f"{_hex(z.real)},{_hex(z.imag)}"
                        for z in value.ravel())
    if isinstance(value, float):
        return float(value).hex()
    return str(value)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outdir", type=Path)
    out = ap.parse_args().outdir
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
    for name, argv in RUNS.items():
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = lamsim([*argv, "--out", str(out / f"{name}.csv")])
        (out / f"{name}.status").write_text(
            f"exit {code}\n{stderr.getvalue()}")


if __name__ == "__main__":
    main()

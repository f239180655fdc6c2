#!/usr/bin/env python3
"""Mutation check of the numerical core: apply each named source mutant
to a temporary copy of the repository, run tier-1 there with a per-mutant
timeout, and report the tests that catch it.

    python3 scripts/mutants.py [NAME ...]

With no NAME every mutant runs; a NAME reruns just that mutant.

A mutant is a (file, old, new) replacement whose ``old`` text occurs
exactly once in its file (tests/test_scripts.py checks that every one
still does).  The copy is tier-1'd once unmutated first: the tests that
fail there (the documented acceptance failures) are the baseline, and a
mutant is caught by every other test that fails or errors with it
applied, by a pytest that cannot run at all (as when the package no
longer imports), or by running past TIMEOUT_S.  The checkout is never
written; the copy is removed at the end.  It is opt-in, not part of
tier-1: a full run takes one tier-1 per mutant, longer for mutants that
break the Magnus order, as the step ladder climbs towards its cap.  Exit
0 when every mutant is caught, 1 when one survives, 2 on an unknown NAME.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900.0  # per tier-1 run
# tier-1 in the copy, less the test that each mutant's text occurs in its
# file: a mutated copy fails it by construction, so it would catch them all.
# Asserts are not rewritten: explaining a failed == of two CSV texts of
# megabytes (pytest's diff) outlasts TIMEOUT_S, and only pass or fail counts.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", "--assert=plain",
         "--continue-on-collection-errors", "--deselect",
         "tests/test_scripts.py::test_each_mutant_applies_exactly_once"]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


MUTANTS = [
    Mutant("plain-mean", "src/lamsim/periodic.py",
           "weights[[0, -1]] *= 0.5", "weights[:] = 1.0 / n"),
    Mutant("estimate-over-63", "src/lamsim/periodic.py",
           "))) / 255.0", "))) / 63.0"),
    Mutant("t-conv-one-early", "src/lamsim/periodic.py",
           "return hi * plan.period", "return (hi - 1) * plan.period"),
    Mutant("order6-1/250", "src/lamsim/magnus.py",
           "out *= 1.0 / 240.0", "out *= 1.0 / 250.0"),
    Mutant("order6-no-b3/12", "src/lamsim/magnus.py",
           "_expand(g, b1 + b3 / 12.0, t)", "_expand(g, b1, t)"),
    Mutant("fixed-space-k1", "src/lamsim/sweep.py",
           "k = max(1, int(np.sum(sigma <= DEGENERATE_GAP_TOL "
           "* max(1.0, sigma[0]))))", "k = 1"),
    Mutant("doubling-no-reprojection", "src/lamsim/periodic.py",
           "if w is not None:  # the rank-1", "if False:  # the rank-1"),
    Mutant("lambda2-floor-1e-9", "src/lamsim/analysis.py",
           "LAMBDA2_FLOOR = STEP_ERROR_TARGET", "LAMBDA2_FLOOR = 1e-9"),
    Mutant("claim-tol-1e-8", "src/lamsim/magnus.py",
           "_CLAIM_TOL, _FRAME_SHIFT = 1e-12, 1.0",
           "_CLAIM_TOL, _FRAME_SHIFT = 1e-8, 1.0"),
    Mutant("conjugated-frame-phases", "src/lamsim/magnus.py",
           "1j * np.multiply.outer(dt * k, g.frame))",
           "-1j * np.multiply.outer(dt * k, g.frame))"),
    Mutant("one-period-no-vec-map", "src/lamsim/periodic.py",
           "if stack is None else g._vec_coordinates(stack))",
           "if stack is None else stack)"),
    Mutant("one-period-no-length-check", "src/lamsim/periodic.py",
           "if stack is not None and len(stack) != "
           "plan.steps_per_period + 1:",
           "if False:"),
    Mutant("repeat-scaling-z", "src/lamsim/periodic.py",
           "block *= z ** j", "block *= z"),
    Mutant("fill-gauge-at-period", "src/lamsim/periodic.py",
           "for j in range(1, r):",
           "for j, z in zip(range(1, r), [np.ones_like(z)] * r):"),
    Mutant("fill-one-repeat", "src/lamsim/periodic.py",
           "return plan, error, stack", "return plan, error, stack[:n + 1]"),
    Mutant("repeats-no-gauge-check", "src/lamsim/periodic.py",
           "if np.shape(signs) != (g.dim,) or not np.isin(signs, (-1, 1))"
           ".all():",
           "if False:"),
    Mutant("own-gauge-no-symmetry-check", "src/lamsim/magnus.py",
           "if not np.array_equal(z.reshape(n, n), z.reshape(n, n).T):",
           "if False:"),
    Mutant("h0-drops-e1", "src/lamsim/model.py",
           "np.diag([p.e1, p.e2, p.e3])", "np.diag([0.0, p.e2, p.e3])"),
    Mutant("signs-entry-order", "src/lamsim/model.py",
           "return np.array([s_p, 1.0, s_c])",
           "return np.array([s_c, 1.0, s_p])"),
    Mutant("running-products-identity-entry", "src/lamsim/magnus.py",
           "entry.append(u)", "entry.append(np.eye(d))"),
    Mutant("frame-rows-unconjugated", "src/lamsim/sweep.py",
           "np.exp(1j * np.multiply.outer(times, frame_rates(p, dim)))",
           "np.exp(-1j * np.multiply.outer(times, frame_rates(p, dim)))"),
    Mutant("frame-lift-transposed", "src/lamsim/model.py",
           "np.subtract.outer(theta, theta).ravel()",
           "np.subtract.outer(theta, theta).T.ravel()"),
    Mutant("rwa-lab-rows-take-f", "src/lamsim/sweep.py",
           "factors = factors.conj() if rwa else factors",
           "factors = factors"),
    Mutant("rows-take-span-phase", "src/lamsim/sweep.py",
           "col *= factors[a:b]",
           "col *= factors[a:b] * _frame_rows(p, j * span, g.dim)"),
    Mutant("last-span-drops-horizon-row", "src/lamsim/sweep.py",
           "m = n_steps if j < spans - 1 else last",
           "m = n_steps if j < spans - 1 else min(last, n_steps)"),
    Mutant("block-carry-one-block-ahead", "src/lamsim/sweep.py",
           "_applied(table[:b - a], power(a, v))",
           "_applied(table[:b - a], power(b, v))"),
    Mutant("row-map-by-s-inverse", "src/lamsim/magnus.py",
           "return c @ hermitian_coordinates(math.isqrt(d))[0].T",
           "return c @ hermitian_coordinates(math.isqrt(d))[1].T"),
    Mutant("block-frame-factor-at-start", "src/lamsim/sweep.py",
           "col *= factors[a:b]", "col *= factors[a]"),
    Mutant("realification-sign", "src/lamsim/magnus.py",
           "np.block([[basis.real, -basis.imag],",
           "np.block([[basis.real, basis.imag],"),
    Mutant("float-rows-no-lane-carry", "src/lamsim/_floattext.py",
           "np.right_shift(up, 56, out=carry)", "carry.fill(0)"),
    Mutant("float-rows-mask-keeps-nuls", "src/lamsim/_floattext.py",
           "np.not_equal(raw, 0, out=present)",
           "np.greater_equal(raw, 0, out=present)"),
    Mutant("float-rows-fallback-row-not-cleared", "src/lamsim/_floattext.py",
           "rows[row] = 0", "pass"),
    Mutant("float-rows-never-grow", "src/lamsim/_floattext.py",
           "if n > self._cells or words > self._words:",
           "if not self._cells:"),
    Mutant("formatters-blocks-swapped", "src/lamsim/cli.py",
           "text = mine(table, suffix)\n                yield job.result()",
           "text = job.result()\n                yield mine(table, suffix)"),
    Mutant("formatters-last-job-dropped", "src/lamsim/cli.py",
           "if job is not None:\n            yield job.result()",
           "if job is not None:\n            job.result()"),
    Mutant("horizon-times-unchecked", "src/lamsim/sweep.py",
           "if not np.all(np.diff(ends) > 0):", "if False:"),
    Mutant("hermitian-inverse-unconjugated", "src/lamsim/linalg.py",
           "s_inv = s.conj().T / np.sum", "s_inv = s.T / np.sum"),
]

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+?)(?: - .*)?$", re.M)


def tier1(tree: Path) -> tuple[int | None, str, float]:
    """The exit code (None on a timeout) and output of a tier-1 run in
    ``tree``, and its wall time.  Bytecode is not written, so every run
    compiles the sources as they are."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - start
    return (done.returncode, done.stdout + done.stderr,
            time.perf_counter() - start)


def main() -> int:
    names = sys.argv[1:]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    survived = 0
    with tempfile.TemporaryDirectory(prefix="lamsim-mutants-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        code, out, seconds = tier1(tree)
        if code not in (0, 1):
            raise RuntimeError(f"the unmutated tier-1 run exited {code}:\n"
                               f"{out[-4000:]}")
        baseline = set(_FAILED.findall(out))
        print(f"baseline: {len(baseline)} failing in {seconds:.0f} s",
              flush=True)
        for name in sorted(baseline):
            print(f"    {name}")
        for m in chosen:
            source = tree / m.path
            text = source.read_text()
            if text.count(m.old) != 1:
                raise RuntimeError(f"{m.name}: its text occurs "
                                   f"{text.count(m.old)} times in {m.path}")
            source.write_text(text.replace(m.old, m.new))
            try:
                code, out, seconds = tier1(tree)
            finally:
                source.write_text(text)
            if code is None:
                print(f"{m.name}: caught (timeout after {seconds:.0f} s)",
                      flush=True)
                continue
            if code not in (0, 1):
                print(f"{m.name}: caught (pytest exited {code} in "
                      f"{seconds:.0f} s)", flush=True)
                continue
            caught = sorted(set(_FAILED.findall(out)) - baseline)
            survived += not caught
            verdict = f"caught by {len(caught)}" if caught else "SURVIVED"
            print(f"{m.name}: {verdict} ({seconds:.0f} s)", flush=True)
            for name in caught:
                print(f"    {name}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())

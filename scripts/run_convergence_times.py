#!/usr/bin/env python3
"""Detect the time to reach the periodic steady state for the dissipative
presets, full and co-rotating drives, at a configurable threshold."""

import argparse

from lamsim.model import ground_state, preset
from lamsim.periodic import convergence_time, one_period
from lamsim.sweep import resolve_period


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=1e-6,
                    help="period-averaged Frobenius threshold")
    args = ap.parse_args()
    print(f"{'case':>6} {'drive':>5} {'periods':>8} {'time':>12}")
    for case in ("A-II", "B-II", "C-II"):
        p = preset(case)
        for drive in ("full", "rwa"):
            g, plan = resolve_period(p, rwa=(drive == "rwa"))
            pre = one_period(g, plan)
            t = convergence_time(g, plan, ground_state(), eps=args.eps,
                                 precomputed=pre)
            print(f"{case:>6} {drive:>5} {round(t / plan.period):>8d} "
                  f"{t:12.4f}")


if __name__ == "__main__":
    main()

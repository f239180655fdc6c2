#!/usr/bin/env python3
"""Print the spectral gap of the dissipative one-period propagator for all
three field-parameter cases, full and co-rotating drives."""

from lamsim.analysis import spectral_gap
from lamsim.model import preset
from lamsim.periodic import one_period
from lamsim.sweep import resolve_period


def main():
    print(f"{'case':>6} {'drive':>5} {'gap/period':>12} {'gap/time':>12}")
    for case in ("A-II", "B-II", "C-II"):
        p = preset(case)
        for drive in ("full", "rwa"):
            g, plan = resolve_period(p, rwa=(drive == "rwa"))
            u_t, _ = one_period(g, plan)
            rep = spectral_gap(u_t, period=plan.period)
            print(f"{case:>6} {drive:>5} {rep.gap:12.6f} "
                  f"{rep.gap_per_time:12.6f}")


if __name__ == "__main__":
    main()

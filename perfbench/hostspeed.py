"""Host speed reference: the yardstick the benchmark's timings are scaled by.

The benchmark runs on a few cores of a shared host whose speed drifts with
the load of its other tenants.  On a 2-core x86_64 host the time of the
kernel below varied by a factor of 2.4 within five minutes, with no change
of code and with CPU time equal to wall time, and the medians of 45-second
benchmark runs spread by up to a third of their value (quartile distance
over median).  A median cannot remove a drift that lasts longer than the
run.

So every timed interval (an item, or a set-up probe) is bracketed by this
fixed kernel, and its seconds are rescaled to the host speed at which the
kernel takes REFERENCE_S (a set-up probe runs the kernel only after, as
numpy is not loaded before):

    scaled = seconds * REFERENCE_S / (mean kernel time before and after)

The kernel is the benchmark's own code (oracles.expm_taylor on a fixed 9x9
matrix: small complex products in a Python loop, like a Magnus step) and
shares nothing with lamsim.  A change to lamsim therefore moves the scaled
time by the same factor as the raw one, while a change of host load moves
the item and the kernel alike and largely cancels.  The raw seconds and the
kernel times are kept in each run's record line.
"""

from __future__ import annotations

import time

import numpy as np

import oracles

# Kernel time at the full speed of a 2-core x86_64 host (the fastest of
# the samples taken there), so scaled seconds read as seconds on that host
# when no other tenant is busy.
REFERENCE_S = 0.050
CALLS = 500

_MATRIX = np.random.default_rng(20241).standard_normal((9, 9, 2)) @ [1, 1j]
_MATRIX *= 0.4 / np.max(np.sum(np.abs(_MATRIX), axis=0))


def sample() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    for _ in range(CALLS):
        oracles.expm_taylor(_MATRIX)
    return time.perf_counter() - start


def scaled(seconds: float, reference_s: float) -> float:
    return seconds * REFERENCE_S / reference_s

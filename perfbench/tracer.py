"""Span recorder for the traced benchmark run.

Each public lamsim function is wrapped at the name its callers look it up
by (a module global, a class attribute or a dispatch-table entry), so the
library itself is unchanged.  A wrapper records one span (name, start,
end, parent) in memory; self time is a span's duration minus the time its
child spans cover.  The wrappers exist only while a traced pass runs.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from lamsim import analysis, cli, magnus, periodic, sweep

def pade13_flops(d: int) -> float:
    """Real flops of one Pade-13 evaluation on a d x d complex matrix: six
    products and an LU solve with d right-hand sides (d^3/3 + d^3 complex
    multiply-adds), 8 real flops per multiply-add.  Scaling and squaring
    are not counted: the Magnus exponents here stay far below theta_13."""
    return 8.0 * (6.0 + 1.0 / 3.0 + 1.0) * d ** 3


def _micromotion_mib(result) -> float:
    return result[1].nbytes / 2 ** 20


def _expm_flops(result) -> float:
    return pade13_flops(result.shape[0])


def _targets():
    """(span name, lookup sites, optional measure(result) -> counter)."""
    steppers = magnus._STEPPERS
    return [
        ("linalg.expm", [(magnus, "expm")], _expm_flops),
        ("model.generator", [(magnus.Generator, "__call__")], None),
        ("magnus.step", [(steppers, k) for k in steppers], None),
        ("magnus.propagate", [(periodic, "propagate"), (sweep, "propagate")],
         None),
        ("periodic.make_plan", [(periodic, "make_plan")], None),
        ("periodic.one_period", [(sweep, "one_period"), (cli, "one_period")],
         _micromotion_mib),
        ("periodic.convergence_time", [(sweep, "convergence_time")], None),
        ("analysis.spectral_gap", [(sweep, "spectral_gap"),
                                   (cli, "spectral_gap")], None),
        ("analysis.rwa_error", [(sweep, "rwa_error"), (analysis, "rwa_error")],
         None),
        ("sweep.steady_state_summary", [(sweep, "steady_state_summary")],
         None),
        ("sweep.run_case", [(cli, "run_case")], None),
        ("sweep.to_rwf", [(sweep, "to_rwf")], None),
        ("cli", [(cli, "main")], None),
    ]


def lookup(container, key):
    return container[key] if isinstance(container, dict) \
        else getattr(container, key)


def _assign(container, key, value):
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


@contextlib.contextmanager
def patched(container, key, replacement):
    """Temporarily replace container[key] (dict) or container.key."""
    original = lookup(container, key)
    _assign(container, key, replacement)
    try:
        yield original
    finally:
        _assign(container, key, original)


class Tracer:
    """In-memory span list with a stack giving each span its parent."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, measure=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if measure is not None:
                counters[name] += measure(result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            for name, sites, measure in _targets():
                for container, key in sites:
                    fn = lookup(container, key)
                    stack.enter_context(
                        patched(container, key, self.wrap(name, fn, measure)))
            yield self

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, _), child_s in zip(self.spans, child):
            out[name]["calls"] += 1
            out[name]["self_s"] += end - start - child_s
        return out

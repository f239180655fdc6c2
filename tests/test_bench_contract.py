"""The library names the benchmark harness (perfbench/) patches or calls.

The harness wraps module attributes by name to time each layer, and its
steady-tpr workload captures U_T through ``sweep.one_period`` and reads the
summary keys in SUMMARY_KEYS; renaming or moving any of these breaks the
benchmark while the library still works.
Its ``linalg.expm`` span wraps ``magnus.expm``, so a step must reach the
exponential kernel through that name alone.
"""

import importlib

import numpy as np
import pytest

from lamsim import magnus, sweep
from lamsim.magnus import CHUNK_STEPS, MagnusOrder
from lamsim.model import liouville_generator, preset

NAMES = [
    "magnus.expm", "magnus.Generator.__call__", "magnus._STEPPERS",
    "periodic.propagate", "periodic.make_plan", "sweep.propagate",
    "sweep.one_period", "sweep.convergence_time", "sweep.spectral_gap",
    "sweep.rwa_error", "sweep.to_rwf", "sweep.steady_state_summary",
    "analysis.rwa_error", "cli.one_period", "cli.spectral_gap",
    "cli.run_case", "cli.main", "model.preset", "rwa_oracle.rwa_density_tpr",
]
SUMMARY_KEYS = {"rho_ss_rwf", "t_conv", "gap", "period", "u_t"}


@pytest.mark.parametrize("name", NAMES)
def test_name_resolves(name):
    module, _, path = name.partition(".")
    obj = importlib.import_module(f"lamsim.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    if attr == "_STEPPERS":
        assert set(obj) == set(MagnusOrder)
        assert all(callable(stepper) for stepper in obj.values())
    else:
        assert callable(obj)


@pytest.mark.parametrize("case,rwa", [("B-II", True), ("A-II", False)])
def test_steady_state_summary_resolves_one_period_once(monkeypatch, case,
                                                       rwa):
    # B-II rwa resolves at the step floor, A-II full after the prediction
    # loop raises the count: either way one_period runs once.
    calls = []
    real = sweep.one_period

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep, "one_period", counting)
    summary = sweep.steady_state_summary(preset(case), rwa=rwa)
    assert len(calls) == 1
    assert SUMMARY_KEYS <= set(summary)


def test_step6_calls_expm_once_per_chunk(monkeypatch):
    calls = []
    real = magnus.expm

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(magnus, "expm", counting)
    g = liouville_generator(preset("A-II"), rwa=False)
    dt = 2.0 * np.pi / 8191
    out = magnus.step6(g, dt * np.arange(CHUNK_STEPS), dt)
    assert out.shape == (CHUNK_STEPS, 9, 9)
    assert calls == [(CHUNK_STEPS, 9, 9)]

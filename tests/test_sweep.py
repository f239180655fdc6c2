import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lamsim import magnus, periodic, sweep
from lamsim.analysis import cptp_check, rwa_error, spectral_gap
from lamsim.magnus import propagate
from lamsim.model import (closed_generator, ground_state,
                          liouville_generator, preset, unvec, vec)
from lamsim.periodic import commensurate_period, one_period
from lamsim.rwa_oracle import rwa_density_tpr
from lamsim.sweep import (SweepAxis, SweepSpec, run_case, run_sweep,
                          rwa_error_curve, steady_state_summary, to_rwf)

STEPS = 512  # coarse grid for structural checks; accuracy is tested elsewhere


def _states(p, props):
    """The states props @ |1><1| (Liouville) or props |1><1| props^dag."""
    rho0 = ground_state()
    if p.is_dissipative:
        return (props @ vec(rho0)).reshape(-1, 3, 3)
    return props @ rho0 @ np.conj(np.transpose(props, (0, 2, 1)))


class TestRunCase:
    def test_closed_rwa_matches_closed_form(self):
        p = preset("A-I")
        traj = run_case(p, 2.0 * np.pi, drive="rwa", frame="rwf",
                        steps_per_period=STEPS)
        worst = max(np.max(np.abs(traj.states[i] - rwa_density_tpr(p, t)))
                    for i, t in enumerate(traj.times))
        assert worst < 1e-9

    def test_multi_period_continues_smoothly(self):
        p = preset("A-I")
        horizon = 2.5 * 2.0 * np.pi
        traj = run_case(p, horizon, drive="rwa", frame="rwf",
                        steps_per_period=STEPS)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] <= horizon * (1 + 1e-12)
        expected = rwa_density_tpr(p, traj.times[-1])
        assert np.max(np.abs(traj.states[-1] - expected)) < 1e-9

    def test_open_states_stay_physical(self):
        traj = run_case(preset("A-II"), 3.0, steps_per_period=STEPS)
        traces = np.einsum("tii->t", traj.states)
        assert np.allclose(traces, 1.0, atol=1e-10)
        assert np.all(traj.populations > -1e-10)

    def test_zero_horizon(self):
        traj = run_case(preset("A-I"), 0.0)
        assert len(traj.times) == 1
        assert traj.states[0, 0, 0] == 1.0

    def test_frames_agree_on_diagonal(self):
        p = preset("A-II")
        lab = run_case(p, 2.0, steps_per_period=STEPS)
        rwf = run_case(p, 2.0, frame="rwf", steps_per_period=STEPS)
        assert np.allclose(lab.populations, rwf.populations)
        assert not np.allclose(lab.states, rwf.states)

    def test_rwf_transform_roundtrip(self):
        p = preset("A-II")
        lab = run_case(p, 1.0, steps_per_period=STEPS)
        assert np.allclose(to_rwf(lab.states, p, lab.times),
                           run_case(p, 1.0, frame="rwf",
                                    steps_per_period=STEPS).states)

    def test_initial_state_is_the_first_basis_vector(self):
        # run_case carries the first basis vector as the initial state
        rho0 = ground_state()
        e0 = np.eye(9)[0]
        assert np.array_equal(vec(rho0), e0)
        assert np.array_equal(rho0, np.outer(e0[:3], e0[:3]))

    @pytest.mark.parametrize("drive", ["full", "rwa"])
    @pytest.mark.parametrize("case", ["A-I", "B-II"])
    @pytest.mark.parametrize("fraction", [0.4, 1.0])
    def test_one_span_matches_a_direct_grid(self, case, fraction, drive):
        # Reference route: one propagate call over [0, h] on its own
        # ceil(N h / T)-step grid, every row turned into a state.
        p = preset(case)
        rwa = drive == "rwa"
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        horizon = fraction * period
        g = (liouville_generator(p, rwa=rwa) if p.is_dissipative
             else closed_generator(p, rwa=rwa))
        n = int(np.ceil(STEPS * horizon / period - 1e-9))
        props = propagate(g, 0.0, horizon, n, return_intermediate=True)
        traj = run_case(p, horizon, drive=drive, steps_per_period=STEPS)
        assert np.array_equal(traj.states, _states(p, props))
        assert np.array_equal(traj.times, np.linspace(0.0, horizon, n + 1))

    @pytest.mark.parametrize("row_block", [7, 1000])
    @pytest.mark.parametrize("frame", ["lab", "rwf"])
    @pytest.mark.parametrize("drive", ["full", "rwa"])
    @pytest.mark.parametrize("case", ["A-I", "B-II"])
    @pytest.mark.parametrize("fraction", [0.4, 3.4])
    def test_row_blocks_match_stacked_propagators(self, monkeypatch,
                                                  fraction, case, drive,
                                                  frame, row_block):
        # Reference route: below a period, the whole stack of propagators
        # over the horizon applied to the initial state at once; else the
        # states micro[keep] @ v_j, v_j = U_T v_(j-1) from v_0 = e0 (|1>,
        # or vec|1><1|), concatenated over periods; then to_rwf over all
        # rows at once.  Blocks of 7 rows end inside every span; blocks of
        # 1000 hold a whole span (at most 513 rows).  Lab rows are exact;
        # rwf rows take the frame folded into the span, F(j T) F(s) for
        # F(j T + s), so they agree to the rounding of the phases.
        p = preset(case)
        rwa = drive == "rwa"
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        horizon = fraction * period
        g = (liouville_generator(p, rwa=rwa) if p.is_dissipative
             else closed_generator(p, rwa=rwa))
        if horizon < period:
            n = int(np.ceil(STEPS * horizon / period - 1e-9))
            props = propagate(g, 0.0, horizon, n, return_intermediate=True)
            times = np.linspace(0.0, horizon, n + 1)
            want = _states(p, props)
        else:
            plan = periodic.make_plan(g, period, STEPS)
            u_t, micro = one_period(g, plan)
            blocks, time_blocks = [], []
            v = (vec(ground_state()) if p.is_dissipative
                 else ground_state()[:, 0])
            for j in range(int(fraction) + 1):
                tau = plan.micromotion_times + j * period
                keep = tau <= horizon * (1.0 + 1e-12)
                if j < int(fraction):
                    keep[-1] = False
                blocks.append(micro[keep] @ v)
                time_blocks.append(tau[keep])
                v = u_t @ v
            cols = np.concatenate(blocks)
            times = np.concatenate(time_blocks)
            want = (cols.reshape(-1, 3, 3) if p.is_dissipative
                    else cols[:, :, None] * np.conj(cols)[:, None, :])
        if frame == "rwf":
            want = to_rwf(want, p, times)
        monkeypatch.setattr(sweep, "ROW_BLOCK", row_block)
        traj = run_case(p, horizon, drive=drive, frame=frame,
                        steps_per_period=STEPS)
        assert np.array_equal(traj.times, times)
        if frame == "lab":
            assert np.array_equal(traj.states, want)
        else:
            assert np.max(np.abs(traj.states - want)) <= 1e-13

    @pytest.mark.parametrize("drive", ["full", "rwa"])
    @pytest.mark.parametrize("case", ["A-I", "A-II", "B-II", "C-I"])
    def test_rwf_rows_are_the_transformed_lab_rows(self, case, drive):
        # run_case folds the frame into the span's propagators and takes
        # F(j span) per span; the reference transforms each lab row at its
        # own time.  Horizons below T (a span whose F(span) is not 1), of
        # one T, and of several T, where the phases' rounding grows with t.
        p = preset(case)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        for fraction in (0.4, 1.0, 3.4, 8.0):
            lab = run_case(p, fraction * period, drive=drive)
            rwf = run_case(p, fraction * period, drive=drive, frame="rwf")
            assert np.array_equal(rwf.times, lab.times)
            assert np.max(np.abs(
                rwf.states - to_rwf(lab.states, p, lab.times))) <= 1e-13

    def test_memory_after_the_span_is_resolved(self, monkeypatch):
        # A-II over 4 periods on q * BASE_STEPS steps, in the rotating
        # frame.  Once the span's stack micro is resolved, run_case adds
        # the returned times and states, one block's (ROW_BLOCK, d)
        # product micro[a:b] @ v and the frame transform's temporaries of
        # one block: phases, their conjugates, factors and result, each
        # at most ROW_BLOCK x 9 complex numbers.  A full-length to_rwf
        # temporary (one more states-sized array), a block's propagator
        # product (ROW_BLOCK d x d) or a whole-period product (one more
        # micro) does not fit.
        seen = {}
        real = sweep.propagate

        def marking(*args, **kwargs):
            seen["micro"] = real(*args, **kwargs)
            tracemalloc.reset_peak()
            seen["base"] = tracemalloc.get_traced_memory()[0]
            return seen["micro"]

        monkeypatch.setattr(sweep, "propagate", marking)
        p = preset("A-II")
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        tracemalloc.start()
        try:
            traj = run_case(p, 4 * period, frame="rwf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        micro = seen.pop("micro")
        complex_bytes = np.dtype(complex).itemsize
        block = sweep.ROW_BLOCK * micro.shape[-1] * complex_bytes
        frame_temps = 4 * sweep.ROW_BLOCK * 9 * complex_bytes
        bound = traj.states.nbytes + traj.times.nbytes + block + frame_temps
        assert traj.states.nbytes > 0.25 * micro.nbytes
        assert peak - seen["base"] <= bound, (
            f"{(peak - seen['base']) / 2**20:.2f} MiB after propagate, "
            f"above {bound / 2**20:.2f} MiB")

    def test_memory_holds_one_period_product(self, monkeypatch):
        # The peak of the whole run_case call, A-II over 4 periods in the
        # rotating frame, within the one-period stack, its product and
        # the states twice over.  Up to propagate's return the peak is
        # micro plus a few CHUNK_STEPS-sized temporaries (the steps,
        # their padded copy, the running products and their
        # coordinates); a copy of micro does not fit.  What run_case adds
        # after it is bounded by the test above.
        seen = {}
        real = sweep.propagate

        def keeping(*args, **kwargs):
            seen["micro"] = real(*args, **kwargs)
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            return seen["micro"]

        monkeypatch.setattr(sweep, "propagate", keeping)
        p = preset("A-II")
        period, steps = commensurate_period(p.omega_p, p.omega_c)
        tracemalloc.start()
        try:
            traj = run_case(p, 4 * period, frame="rwf")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        micro = seen.pop("micro")
        stack = (steps + 1) * 9 * 9 * np.dtype(complex).itemsize
        bound = 2 * stack + 2 * traj.states.nbytes
        assert peak <= bound, (
            f"{peak / 2**20:.1f} MiB peak, above {bound / 2**20:.1f} MiB")
        chunk = magnus.CHUNK_STEPS * micro[0].nbytes
        bound = micro.nbytes + 5 * chunk
        assert bound < 2 * micro.nbytes
        assert seen["peak"] <= bound, (
            f"{seen['peak'] / 2**20:.2f} MiB peak in propagate, "
            f"above {bound / 2**20:.2f} MiB")

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            run_case(preset("A-I"), 1.0, drive="both")
        with pytest.raises(ValueError):
            run_case(preset("A-I"), 1.0, frame="interaction")
        for horizon in (np.nan, -1.0):
            with pytest.raises(ValueError, match="horizon"):
                run_case(preset("A-I"), horizon)


class TestAxes:
    def test_values_include_endpoints(self):
        axis = SweepAxis("omega_p", 5.0, 7.0, 0.5)
        assert np.allclose(axis.values(), [5.0, 5.5, 6.0, 6.5, 7.0])

    def test_single_point(self):
        assert np.allclose(SweepAxis("omega_c", 4.0, 4.0, 1.0).values(),
                           [4.0])

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            SweepAxis("e2", 1.0, 2.0, 0.5)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            SweepAxis("omega_p", 5.0, 7.0, -0.5)


class TestSpecValidation:
    def test_unknown_observable(self):
        with pytest.raises(ValueError, match="observable"):
            SweepSpec(base=preset("A-II"),
                      axis1=SweepAxis("omega_p", 5.0, 6.0, 1.0),
                      observables=("entropy",))

    @pytest.mark.parametrize("drive", ["full", "rwa"])
    def test_rwa_error_needs_both_drives(self, drive):
        axis = SweepAxis("omega_p", 6.0, 6.0, 1.0)
        with pytest.raises(ValueError, match="rwa_error.*'both'"):
            SweepSpec(base=preset("A-II"), axis1=axis, drive=drive,
                      observables=("rwa_error",))
        SweepSpec(base=preset("A-II"), axis1=axis, observables=("rwa_error",))

    def test_grid_order(self):
        spec = SweepSpec(base=preset("A-II"),
                         axis1=SweepAxis("omega_p", 5.0, 6.0, 1.0),
                         axis2=SweepAxis("omega_c", 3.0, 4.0, 1.0))
        grid = spec.grid()
        assert grid[0] == {"omega_p": 5.0, "omega_c": 3.0}
        assert grid[1] == {"omega_p": 5.0, "omega_c": 4.0}
        assert len(grid) == 4


class TestSteadyState:
    def test_resonant_summary(self):
        s = steady_state_summary(preset("B-II"), rwa=True)
        rho = s["rho_ss_rwf"]
        assert np.isclose(np.trace(rho).real, 1.0, atol=1e-9)
        assert rho[1, 1].real < 1e-4  # dark state at two-photon resonance
        assert s["gap"] > 0.0
        assert s["t_conv"] > 0.0

    def test_closed_case_rejected(self):
        with pytest.raises(ValueError, match="dissipation"):
            steady_state_summary(preset("A-I"), rwa=False)

    @pytest.mark.parametrize("drive", ["full", "rwa"])
    @pytest.mark.parametrize("case", ["A-II", "C-II"])
    def test_gap_at_q_20_is_unresolved(self, case, drive):
        # omega_p = 6.05 gives T = 40 pi: |lambda_2(U_T)| is 1e-18 to
        # 6e-15, below the accuracy of U_T's entries.
        s = steady_state_summary(preset(case, delta_omega_p=0.05),
                                 rwa=drive == "rwa")
        assert np.isnan(s["gap"]) and np.isnan(s["gap_per_time"])
        assert np.isfinite(s["rho_ss_rwf"]).all()


def reference_route(p, u_t, micro, plan, eps=1e-6):
    """Reference steady state built state by state: trapezoid averages of
    the states micro @ U^n v0 drive the doubling and bisection search for
    t_conv; the fixed point v_fp of U_T (the unit-trace right singular
    vector of U_T - I for its smallest singular value) gives the states
    micro @ v_fp of one period, which go through to_rwf and np.trapezoid
    over the period."""
    v0 = vec(ground_state())
    weights = np.full(len(micro), 1.0 / (len(micro) - 1))
    weights[[0, -1]] *= 0.5

    def delta(n):
        a, b = (weights @ (micro @ (np.linalg.matrix_power(u_t, k) @ v0))
                for k in (n, n - 1))
        return np.linalg.norm(a - b)

    n = 1
    if delta(1) > eps:
        n = 2
        while delta(n) > eps:
            n *= 2
        lo = n // 2
        while n - lo > 1:
            mid = (lo + n) // 2
            lo, n = (lo, mid) if delta(mid) <= eps else (mid, n)
    v_fp = np.linalg.svd(u_t - np.eye(len(u_t)))[2][-1].conj()
    v_fp /= np.trace(unvec(v_fp))
    times = plan.micromotion_times
    states = to_rwf((micro @ v_fp).reshape(-1, 3, 3), p, times)
    avg = np.trapezoid(states, x=times, axis=0) / plan.period
    return {"rho_ss_rwf": avg, "t_conv": n * plan.period,
            "gap": spectral_gap(u_t, period=plan.period).gap,
            "period": plan.period, "steps": plan.steps_per_period}


STEADY_CASES = [
    ("A-II", "full", 0.0), ("A-II", "rwa", 0.0), ("B-II", "full", 0.0),
    ("B-II", "rwa", 0.0), ("C-II", "full", 0.0), ("C-II", "rwa", 0.0),
    ("B-II", "full", 0.5), ("B-II", "rwa", 0.5),  # omega_p = 13/2: q = 2
]


def capture_one_period(monkeypatch, after=None):
    """Route sweep.one_period through a wrapper that keeps its plan and
    result in the returned dict, and calls after(dict) once it returns."""
    seen = {}
    real = sweep.one_period

    def wrapper(g, plan, sub=None):
        seen["result"] = real(g, plan, sub)
        seen["plan"] = plan
        if after is not None:
            after(seen)
        return seen["result"]

    monkeypatch.setattr(sweep, "one_period", wrapper)
    return seen


@pytest.mark.parametrize("case,drive,delta_omega_p", STEADY_CASES)
def test_steady_state_matches_reference_route(monkeypatch, case, drive,
                                              delta_omega_p):
    p = preset(case, delta_omega_p=delta_omega_p)
    seen = capture_one_period(monkeypatch)
    got = steady_state_summary(p, rwa=(drive == "rwa"))
    u_t, micro = seen["result"]
    want = reference_route(p, u_t, micro, seen["plan"])
    assert np.max(np.abs(got["rho_ss_rwf"] - want["rho_ss_rwf"])) <= 1e-12
    assert got["trace_defect"] == cptp_check(u_t).trace_defect
    for key in ("t_conv", "gap", "period", "steps"):
        assert got[key] == want[key], key


def test_summary_reads_the_trace_defect_without_a_choi_spectrum(
        monkeypatch):
    # the summary reports U_T's trace defect alone: no Choi matrix and no
    # Hermitian eigenvalue solve
    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    s = steady_state_summary(preset("A-II"), rwa=True)
    assert 0.0 <= s["trace_defect"] <= 1e-12


@pytest.mark.parametrize("case,drive,delta_omega_p", STEADY_CASES)
def test_chosen_steps_match_the_fixed_count(monkeypatch, case, drive,
                                            delta_omega_p):
    # The steady path at its estimated step count against the same path
    # at q * BASE_STEPS.
    p = preset(case, delta_omega_p=delta_omega_p)
    rwa = drive == "rwa"
    seen = capture_one_period(monkeypatch)
    got = steady_state_summary(p, rwa=rwa)
    u_got = seen["result"][0]
    _, fixed = commensurate_period(p.omega_p, p.omega_c)

    def fixed_plan(g, t):
        return periodic.make_plan(g, t, fixed), 0.0, None

    monkeypatch.setattr(sweep, "accurate_plan", fixed_plan)
    want = steady_state_summary(p, rwa=rwa)
    assert want["steps"] == seen["plan"].steps_per_period == fixed
    assert np.max(np.abs(u_got - seen["result"][0])) <= 1e-12
    assert np.max(np.abs(got["rho_ss_rwf"] - want["rho_ss_rwf"])) <= 1e-12
    assert abs(got["gap"] - want["gap"]) <= 1e-12
    assert got["t_conv"] == want["t_conv"]
    assert got["step_error"] <= periodic.STEP_ERROR_TARGET
    q = fixed // periodic.BASE_STEPS
    if rwa:
        assert got["steps"] == q * periodic.MIN_STEPS
    else:
        assert got["steps"] <= q * 2048


@pytest.mark.parametrize("case", ["A-II", "B-II", "C-II"])
def test_full_drive_propagates_the_chosen_steps_once(monkeypatch, case):
    # 224 Magnus steps: a shift by T/4 = pi/2 acts as the sign gauge
    # Z = diag(-1, 1, 1), so the ladder takes U_T as (Z U_{T/4})^4 at 128,
    # 256 and 512 steps (32, 64 and 128 over T/4, in one batched pass), its
    # estimate holds at the floor, and the 256-step stack is resolved once
    # from the extrapolated sub-stack.  No count takes a linear solve: the
    # exponents' 1-norms reach 1.67 (C-II at 32 steps over T/4), inside
    # expm's solve-free Taylor tiers.
    counts, solved_at, resolved = [], [], []
    real_propagate, real_solve = periodic._propagate_grids, np.linalg.solve

    def counting(g, t0, t1, grids, **kwargs):
        counts.extend(steps for steps, _ in grids)
        return real_propagate(g, t0, t1, grids, **kwargs)

    def solve(a, b):
        if a.ndim == 3:  # a batched solve, on a stack of steps
            solved_at.append(counts[-1])
        return real_solve(a, b)

    monkeypatch.setattr(periodic, "_propagate_grids", counting)
    monkeypatch.setattr(np.linalg, "solve", solve)
    capture_one_period(monkeypatch, after=lambda seen: resolved.append(
        seen["plan"].steps_per_period))
    s = steady_state_summary(preset(case), rwa=False)
    assert s["steps"] == 256 and resolved == [256]
    assert counts == [32, 64, 128]
    assert solved_at == []


@pytest.mark.parametrize("case", ["A-II", "B-II", "C-II"])
def test_full_drive_sub_period_matches_the_whole_period(monkeypatch, case):
    p = preset(case)
    seen = capture_one_period(monkeypatch)
    got = steady_state_summary(p, rwa=False)
    assert seen["plan"].repeats == 4
    assert seen["plan"].signs == tuple(np.kron([-1, 1, 1], [-1, 1, 1]))
    monkeypatch.setattr(periodic, "_repeats",
                        lambda g, period: (1, np.ones(g.dim)))
    want = steady_state_summary(p, rwa=False)
    assert seen["plan"].repeats == 1 and seen["plan"].signs == (1.0,) * 9
    assert got["steps"] == want["steps"] and got["t_conv"] == want["t_conv"]
    assert np.max(np.abs(got["rho_ss_rwf"] - want["rho_ss_rwf"])) <= 1e-14
    assert abs(got["gap"] - want["gap"]) <= 1e-12


def test_steady_state_memory_at_q_20():
    # A-II at omega_p = 6.05: T = 40 pi.  On q * BASE_STEPS steps the
    # RWA point peaks at 249 MiB; the exact frame route takes the floor.
    p = preset("A-II", delta_omega_p=0.05)
    tracemalloc.start()
    try:
        s = steady_state_summary(p, rwa=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s["steps"] == 20 * periodic.MIN_STEPS
    assert peak <= 64 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB peak"


def test_steady_state_projects_a_degenerate_fixed_space():
    # With rabi_c = gamma_23 = 0 level |3> is decoupled: U_T has a second
    # fixed point, |3><3|, and |1><1| goes to the resonant two-level state.
    p = preset("B-II").with_(rabi_c=0.0, gamma_23=0.0)
    rho = steady_state_summary(p, rwa=True)["rho_ss_rwf"]
    rabi, gamma = p.rabi_p, p.gamma_12
    rho22 = (rabi ** 2 / 4) / (gamma ** 2 / 4 + rabi ** 2 / 2)
    assert abs(rho[1, 1] - rho22) <= 1e-12
    assert np.max(np.abs([rho[2, 2], rho[0, 2], rho[1, 2]])) <= 1e-12


def test_steady_state_memory_beyond_the_stack(monkeypatch):
    # Everything after the resolved period works on 9x9 maps and
    # 9-vectors; only the frame factors scale with the step count.
    def mark(seen):
        tracemalloc.reset_peak()
        seen["base"] = tracemalloc.get_traced_memory()[0]

    seen = capture_one_period(monkeypatch, after=mark)
    tracemalloc.start()
    try:
        steady_state_summary(preset("B-II"), rwa=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack_bytes = seen["result"][1].nbytes
    assert peak - seen["base"] <= 0.5 * stack_bytes, (
        f"{(peak - seen['base']) / 2**20:.2f} MiB peak after one_period, "
        f"above half the {stack_bytes / 2**20:.2f} MiB stack")


def test_summary_returns_an_owned_copy_of_u_t(monkeypatch):
    # the resolved U_T, bit for bit, held apart from the micromotion stack
    seen = capture_one_period(monkeypatch)
    s = steady_state_summary(preset("A-II"), rwa=False)
    u_t, micro = seen["result"]
    assert s["u_t"].tobytes() == u_t.tobytes()
    assert s["u_t"].shape == (9, 9) and s["u_t"].flags.owndata
    assert not np.shares_memory(s["u_t"], micro)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and maps in this one."""

    def __init__(self, started, max_workers):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestRunSweep:
    @pytest.mark.parametrize("points,cpus,started", [
        (1, 2, []), (3, 2, [2]), (3, 8, [3]), (3, None, [])])
    def test_workers_are_clamped(self, monkeypatch, points, cpus, started):
        # --workers 100000 must not ask the pool for 100000 processes: it
        # forks max_workers children as it starts
        import concurrent.futures

        pools = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: _RecordingPool(pools,
                                                               max_workers))
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(sweep, "_eval_point", lambda spec, pt: dict(pt))
        spec = SweepSpec(base=preset("B-II"), workers=100_000,
                         axis1=SweepAxis("omega_p", 6.0, 6.0 + points - 1,
                                         1.0))
        result = run_sweep(spec)
        assert pools == started
        assert [row["omega_p"] for row in result.rows] == \
            [6.0 + k for k in range(points)]

    def test_convergence_time_and_rwa_error_columns(self):
        p = preset("A-II")
        spec = SweepSpec(base=p, axis1=SweepAxis("omega_p", 6.0, 6.0, 1.0),
                         observables=("convergence_time", "rwa_error"))
        (row,) = run_sweep(spec).rows
        full, rwa = (steady_state_summary(p, rwa=r) for r in (False, True))
        assert row["full_t_conv"] == full["t_conv"] == 7 * full["period"]
        assert row["rwa_t_conv"] == rwa["t_conv"]
        assert row["rwa_error"] == rwa_error(rwa["rho_ss_rwf"],
                                             full["rho_ss_rwf"])
        assert not any("rho" in key or "gap" in key for key in row)

    def test_failure_isolation(self):
        # gamma_12 = gamma_23 = 0 makes the point non-dissipative, which
        # must produce an error row, not abort the sweep
        base = preset("B-II").with_(gamma_23=0.0)
        spec = SweepSpec(base=base,
                         axis1=SweepAxis("gamma_12", 0.0, 0.9, 0.9),
                         drive="rwa", observables=("populations",))
        result = run_sweep(spec)
        assert len(result.rows) == 2
        assert "error" in result.rows[0]
        assert "error" not in result.rows[1]
        assert result.rows[1]["rwa_rho22"] < 1e-4

    def test_columns_cover_all_rows(self):
        base = preset("B-II").with_(gamma_23=0.0)
        spec = SweepSpec(base=base,
                         axis1=SweepAxis("gamma_12", 0.0, 0.9, 0.9),
                         drive="rwa", observables=("populations",))
        result = run_sweep(spec)
        for row in result.rows:
            assert set(row) <= set(result.columns)
        assert len(result.table()) == len(result.rows)

    def test_two_workers_give_the_serial_rows(self):
        spec = SweepSpec(base=preset("B-II"),
                         axis1=SweepAxis("omega_p", 6.0, 6.5, 0.5),
                         drive="rwa")
        serial = run_sweep(spec)
        pooled = run_sweep(replace(spec, workers=2))
        assert len(serial.rows) == 2
        assert not any("error" in row for row in serial.rows)
        assert pooled.columns == serial.columns
        assert pooled.rows == serial.rows


def test_importing_cli_loads_no_process_pool():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, lamsim.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_importing_lamsim_loads_no_numpy_random():
    # the claim checks draw their probe times on first use
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, lamsim, lamsim.cli; "
         "print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_rwa_error_curve_starts_at_zero():
    times, errors = rwa_error_curve(preset("A-I"), 2.0,
                                    steps_per_period=STEPS)
    assert errors[0] == 0.0
    assert np.max(errors) > 0.01  # counter-rotating terms do act
    assert len(times) == len(errors)

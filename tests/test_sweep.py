import math
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
from lamsim.model import (closed_generator, ground_state, lindbladian,
                          liouville_generator, preset, unvec, vec)
from lamsim.periodic import (commensurate_period, doubling, one_period,
                             trace_functional)
from lamsim.rwa_oracle import rwa_density_tpr
from lamsim.sweep import (SweepAxis, SweepSpec, run_case, run_sweep,
                          rwa_error_curve, steady_state_summary, to_rwf)

from conftest import h_rwf

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
        # one row in either frame: t = 0 and |1><1| exactly, streamed as
        # one block and collected alike
        rho0 = np.zeros((1, 3, 3))
        rho0[0, 0, 0] = 1.0
        for frame in ("lab", "rwf"):
            traj = run_case(preset("A-I"), 0.0, frame=frame)
            (times, states), = traj.blocks()
            assert np.array_equal(times, [0.0])
            assert np.array_equal(states, rho0)
            assert np.array_equal(traj.times, [0.0])
            assert np.array_equal(traj.states, rho0)

    @pytest.mark.parametrize("p,kw", [
        (preset("A-I").with_(omega_p=np.pi), {}),      # not commensurate
        (preset("A-I"), {"steps_per_period": periodic.MAX_PLAN_STEPS + 1})
    ], ids=["incommensurate", "steps-above-cap"])
    def test_zero_horizon_is_checked(self, p, kw):
        # a zero horizon runs the checks of every positive one; the step
        # count is just above the cap, so that a zero horizon that skipped
        # the cap would propagate 10^6 steps, not more
        with pytest.raises(ValueError) as positive:
            run_case(p, 1.0, **kw)
        with pytest.raises(ValueError) as zero:
            run_case(p, 0.0, **kw)
        assert str(zero.value) == str(positive.value)

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
        assert np.max(np.abs(traj.states - _states(p, props))) <= 1e-13
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
        # 1000 hold a whole span (at most 513 rows).  Rows agree to
        # rounding: an open system's span is kept in the generator's
        # Hermitian coordinates, the RWA drive's carried state comes from
        # doubling powers in its rotating frame, and the rows of the other
        # frame take the span's table F(s), or its conjugate, for
        # F(j T + s).
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
        assert np.max(np.abs(traj.states - want)) <= 1e-13

    @pytest.mark.parametrize("drive", ["full", "rwa"])
    @pytest.mark.parametrize("case", ["A-I", "A-II", "B-II", "C-I"])
    def test_rwf_rows_are_the_transformed_lab_rows(self, case, drive):
        # run_case takes F(s) of the span's grid on the full drive's rows
        # and forms the RWA drive's rwf rows in its rotating frame; the
        # reference transforms each lab row at its own absolute time.
        # Horizons below T (a span whose F(span) is not 1), of one T, and
        # of several T, where the reference's phases round with t.
        p = preset(case)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        for fraction in (0.4, 1.0, 3.4, 8.0):
            lab = run_case(p, fraction * period, drive=drive)
            rwf = run_case(p, fraction * period, drive=drive, frame="rwf")
            assert np.array_equal(rwf.times, lab.times)
            assert np.max(np.abs(
                rwf.states - to_rwf(lab.states, p, lab.times))) <= 1e-13

    @pytest.mark.parametrize("drive", ["full", "rwa"])
    @pytest.mark.parametrize("case", ["A-I", "A-II"])
    def test_frames_agree_at_the_in_period_time(self, case, drive):
        # 400 periods of 64 steps.  F(j T + s) = F(s) at the commensurate
        # T, so the rwf rows are to_rwf of the lab rows at their in-period
        # grid time s (T for the last row), to a rounding that does not
        # grow with j (a phase of the absolute time j T would be 1.2e-12
        # off here).  The open full drive's two frames are the same rows
        # times the same factors, so they agree bit for bit.
        p = preset(case)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        lab = run_case(p, 400 * period, drive=drive, steps_per_period=64)
        rwf = run_case(p, 400 * period, drive=drive, frame="rwf",
                       steps_per_period=64)
        grid = np.linspace(0.0, period, 65)
        want = to_rwf(lab.states, p,
                      np.append(np.tile(grid[:-1], 400), grid[-1]))
        assert np.array_equal(rwf.times, lab.times)
        if p.is_dissipative and drive == "full":
            assert np.array_equal(rwf.states, want)
        else:
            assert np.max(np.abs(rwf.states - want)) <= 1e-14

    def test_rwa_rows_match_the_rotating_frame_exponential(self):
        # A-II's RWA drive over 40 periods in the rotating frame, where its
        # state is exp(t L_rwf) rho0, L_rwf = -i[h_rwf, .] + D, from one
        # eigendecomposition L_rwf = V diag(lambda) V^-1 (that of each
        # t L_rwf errs by 1.2e-13 at t = 40 T; this one by 4.6e-14, where
        # the rows are 2.2e-14 off a 30-digit exponential).  Each streamed
        # block's first two rows and last row: every ROW_BLOCK boundary
        # inside a span, every span boundary (a carried state) and their
        # neighbours.
        p = preset("A-II")
        period, steps = commensurate_period(p.omega_p, p.omega_c)
        h = h_rwf(p)
        vals, vecs = np.linalg.eig(
            -1j * (np.kron(h, np.eye(3)) - np.kron(np.eye(3), h.T))
            + lindbladian(p))
        coefficients = np.linalg.solve(vecs, vec(ground_state()))
        traj = run_case(p, 40 * period, drive="rwa", frame="rwf")
        rows, worst = 0, 0.0
        for times, states in traj.blocks():
            assert 1 <= len(times) <= sweep.ROW_BLOCK
            for k in {0, min(1, len(times) - 1), len(times) - 1}:
                want = vecs @ (np.exp(vals * times[k]) * coefficients)
                worst = max(worst, np.max(np.abs(
                    states[k] - want.reshape(3, 3))))
            rows += len(times)
        assert rows == 40 * steps + 1
        assert worst <= 1e-13, worst

    @pytest.mark.parametrize("frame", ["lab", "rwf"])
    @pytest.mark.parametrize("case", ["A-I", "B-II"])
    def test_rwa_span_takes_one_exponential_batch(self, monkeypatch, case,
                                                  frame):
        # the block table and the carried state's powers of an RWA span
        # come from one batch of doubling powers, one expm call, whatever
        # the frame; reading the rows takes no further exponential
        calls = {"_frame_powers": 0, "expm": 0}

        def counting(name):
            real = getattr(magnus, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        powers = counting("_frame_powers")
        monkeypatch.setattr(magnus, "_frame_powers", powers)
        monkeypatch.setattr(sweep, "_frame_powers", powers)
        monkeypatch.setattr(magnus, "expm", counting("expm"))
        p = preset(case)
        period, steps = commensurate_period(p.omega_p, p.omega_c)
        traj = run_case(p, 3.4 * period, drive="rwa", frame=frame)
        assert calls == {"_frame_powers": 1, "expm": 1}
        assert sum(len(times) for times, _ in traj.blocks()) \
            == 3 * steps + int(0.4 * steps) + 1
        assert calls == {"_frame_powers": 1, "expm": 1}

    @pytest.mark.parametrize("frame", ["lab", "rwf"])
    def test_full_rows_match_the_vec_basis_route(self, frame):
        # A-II's full drive over 3.4 periods on its default grid.  run_case
        # keeps the span in the generator's Hermitian coordinates and maps
        # each block of rows to the vec basis; the reference takes the
        # span's propagators in the vec basis (propagate) and carries
        # v_j = U_T v_(j-1) there, then transforms each row at its time.
        p = preset("A-II")
        period, steps = commensurate_period(p.omega_p, p.omega_c)
        micro = propagate(liouville_generator(p), 0.0, period, steps,
                          return_intermediate=True)
        traj = run_case(p, 3.4 * period, frame=frame)
        v, rows, worst = vec(ground_state()), 0, 0.0
        while rows < len(traj.times):
            m = min(steps, len(traj.times) - rows)
            want = (micro[:m] @ v).reshape(-1, 3, 3)
            if frame == "rwf":
                want = to_rwf(want, p, traj.times[rows:rows + m])
            worst = max(worst, np.max(np.abs(
                traj.states[rows:rows + m] - want)))
            rows += m
            v = micro[-1] @ v
        assert rows == 3 * steps + int(0.4 * steps) + 1
        assert worst <= 1e-13, worst

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            run_case(preset("A-I"), 1.0, drive="both")
        with pytest.raises(ValueError):
            run_case(preset("A-I"), 1.0, frame="interaction")
        for horizon in (np.nan, -1.0, np.inf):
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

    def test_eps_met_by_the_first_period(self):
        # the search starts at n = 1: an eps the first period's average
        # already meets gives t_conv = T, not 2 T
        s = steady_state_summary(preset("B-II"), rwa=True, eps=1.0)
        assert s["t_conv"] == s["period"]

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
    """Route sweep.one_period through a wrapper that keeps its generator,
    plan, own-coordinate stack and result in the returned dict, and calls
    after(dict) once it returns."""
    seen = {}
    real = sweep.one_period

    def wrapper(g, plan, stack=None):
        seen["result"] = real(g, plan, stack)
        seen.update(g=g, plan=plan, stack=stack)
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
    # estimate holds at the floor, and the 256-step stack, filled from the
    # extrapolated T/4 stack, is mapped once.  No count takes a linear
    # solve: the exponents' 1-norms reach 1.67 (C-II at 32 steps over
    # T/4), inside expm's solve-free Taylor tiers.
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
    # accurate_plan fills the period from r = 4 repeats of tau = T/4
    # under Z = diag(-1, 1, 1) (x) Z, and one_period maps all N + 1 rows
    r, z = periodic._repeats(seen["g"], seen["plan"].period)
    assert r == 4 and np.array_equal(z, np.kron([-1, 1, 1], [-1, 1, 1]))
    assert len(seen["stack"]) - 1 == seen["plan"].steps_per_period
    monkeypatch.setattr(periodic, "_repeats",
                        lambda g, period: (1, np.ones(g.dim)))
    want = steady_state_summary(p, rwa=False)
    assert len(seen["stack"]) - 1 == seen["plan"].steps_per_period
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


def test_degenerate_fixed_space_is_the_limit_of_the_period_map(
        monkeypatch):
    # The full drive with |3> decoupled: U_T has two fixed points, and the
    # summary's projection onto them must be where U_T^n |1><1| goes, here
    # U_T^256 by squaring with the trace reprojection.  Its slowest decay,
    # 0.863 per period, leaves 4e-17 by then; the rounding each period
    # leaks into the fixed point |3><3| adds up to about 1e-13.
    p = preset("B-II").with_(rabi_c=0.0, gamma_23=0.0)
    seen = capture_one_period(monkeypatch)
    got = steady_state_summary(p, rwa=False)["rho_ss_rwf"]
    u_t, micro = seen["result"]
    v = doubling(u_t, 8, trace_functional()) @ vec(ground_state())
    times = seen["plan"].micromotion_times
    states = to_rwf((micro @ v).reshape(-1, 3, 3), p, times)
    want = np.trapezoid(states, x=times, axis=0) / seen["plan"].period
    assert np.max(np.abs(got - want)) <= 1e-12


def test_degenerate_fixed_space_is_the_long_time_state():
    # The RWA drive with |3> decoupled, streamed over 300 periods: its
    # rotating-frame state tends to a constant, the summary's projection
    # onto U_T's two fixed points, with no SVD or U_T power on this route.
    # The slowest decay, 0.863 per period, leaves 6e-20 by then.
    p = preset("B-II").with_(rabi_c=0.0, gamma_23=0.0)
    want = steady_state_summary(p, rwa=True)["rho_ss_rwf"]
    period, _ = commensurate_period(p.omega_p, p.omega_c)
    traj = run_case(p, 300 * period, drive="rwa", frame="rwf",
                    steps_per_period=STEPS)
    for _, states in traj.blocks():  # one block held at a time
        pass
    assert np.max(np.abs(states[-1] - want)) <= 1e-12


def test_strongly_damped_gap_matches_the_rotating_frame_spectrum():
    # Strong fields and fast decay put |lambda_2(U_T)| near 9e-11, above
    # the floor and below 1e-9.  The RWA drive's U_T is Phi(T) e^{T B},
    # Phi(2 pi) = I, so the gap per time is -Re mu_2, mu_2 the eigenvalue
    # of B with the second largest real part.  An entry error of eps in
    # U_T moves ln |lambda_2| by at most about 9 eps / |lambda_2|.
    p = preset("C-II").with_(rabi_p=12.0, rabi_c=12.0, gamma_12=10.0,
                             gamma_23=10.0)
    g = liouville_generator(p, rwa=True)
    mu = np.linalg.eigvals(g(0.0) - 1j * np.diag(g.frame))
    mu_2 = np.sort(mu.real)[-2]
    lambda_2 = math.exp(2.0 * np.pi * mu_2)
    assert 1e-12 < lambda_2 < 1e-9
    s = steady_state_summary(p, rwa=True)
    bound = 9.0 * periodic.STEP_ERROR_TARGET / lambda_2 / s["period"]
    assert abs(s["gap_per_time"] + mu_2) <= bound


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


def test_rwa_error_curve_checks_a_zero_horizon():
    # each drive's run_case checks the step cap at a zero horizon too
    with pytest.raises(ValueError, match="is above the cap"):
        rwa_error_curve(preset("A-I"), 0.0,
                        steps_per_period=periodic.MAX_PLAN_STEPS + 1)


def test_rwa_error_curve_starts_at_zero():
    times, errors = rwa_error_curve(preset("A-I"), 2.0,
                                    steps_per_period=STEPS)
    assert errors[0] == 0.0
    assert np.max(errors) > 0.01  # counter-rotating terms do act
    assert len(times) == len(errors)

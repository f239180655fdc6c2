import math
from dataclasses import replace

import numpy as np
import pytest

from lamsim import periodic
from lamsim.linalg import frobenius_norm
from lamsim.magnus import Generator, MagnusOrder, propagate
from lamsim.model import (closed_generator, ground_state, lindbladian,
                          liouville_generator, preset, unvec, vec)
from lamsim.periodic import (BASE_STEPS, MAX_PLAN_STEPS, MIN_STEPS,
                             STEP_ERROR_TARGET, HorizonError, PeriodicPlan,
                             Trajectory, accurate_plan, commensurate_period,
                             convergence_time, doubling, make_plan,
                             one_period, period_mean_map, stroboscopic,
                             trace_functional)

from conftest import expm_eig, h_rwf

STEPS = 256  # coarse grid keeps these structural tests fast


def resolved(g, period):
    """accurate_plan's plan and estimate, with the (U_T, micromotion) that
    one_period builds from its sub-period stack, as the library's U_T
    consumers resolve a period."""
    plan, error, sub = accurate_plan(g, period)
    return plan, error, one_period(g, plan, sub)


@pytest.fixture(scope="module")
def open_setup():
    p = preset("A-II")
    g = liouville_generator(p)
    plan = make_plan(g, 2.0 * np.pi, STEPS)
    u_t, micro = one_period(g, plan)
    return g, plan, u_t, micro


class TestPlan:
    def test_grid(self):
        plan = PeriodicPlan(period=2.0, steps_per_period=4)
        assert np.allclose(plan.micromotion_times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation_catches_wrong_period(self):
        g = liouville_generator(preset("A-II"))
        with pytest.raises(ValueError, match="periodic"):
            make_plan(g, 0.7 * np.pi, 16)

    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("q", [1000, 2000, 3906])
    def test_validation_admits_phase_rounding_at_large_q(self, q, rwa):
        # A(t + T) - A(t) carries the rounding of omega (t + T), about 6e-12
        # at q = 1000; q = 3906 is the largest q whose MIN_STEPS q steps
        # stay under the cap
        p = preset("A-II", delta_omega_p=1.0 / q)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        assert period == pytest.approx(2.0 * np.pi * q)
        plan = make_plan(liouville_generator(p, rwa=rwa), period,
                         MIN_STEPS * q)
        assert plan.steps_per_period == MIN_STEPS * q

    @pytest.mark.parametrize("rwa", [False, True])
    def test_validation_catches_near_period(self, rwa):
        g = liouville_generator(preset("A-II"), rwa=rwa)
        with pytest.raises(ValueError, match="periodic"):
            make_plan(g, 2.0 * np.pi * (1.0 + 1e-9), 16)

    def test_validation_catches_nan_drive(self):
        # NaN > tol is False: a NaN defect must still fail the claim
        g = Generator(np.zeros((1, 1)), [np.ones((1, 1))], lambda t: np.where(
            t < np.pi, np.cos(t), np.nan)[..., None])
        with pytest.raises(ValueError, match="periodic"):
            make_plan(g, 2.0 * np.pi, 16)

    def test_bad_plan_args(self):
        with pytest.raises(ValueError):
            PeriodicPlan(period=-1.0, steps_per_period=4)
        with pytest.raises(ValueError):
            PeriodicPlan(period=1.0, steps_per_period=0)
        with pytest.raises(ValueError, match="cap"):
            PeriodicPlan(period=1.0, steps_per_period=MAX_PLAN_STEPS + 1)
        for repeats in (0, 3):
            with pytest.raises(ValueError, match=f"repeats {repeats} "):
                PeriodicPlan(period=1.0, steps_per_period=4, repeats=repeats)

    @pytest.mark.parametrize("signs", [(1.0, 0.0, 1.0), (1.0, -0.5),
                                       (1.0, np.nan)])
    def test_signs_must_be_plus_or_minus_one(self, signs):
        with pytest.raises(ValueError, match="signs .* must all be"):
            PeriodicPlan(period=1.0, steps_per_period=4, repeats=2,
                         signs=signs)

    def test_signs_must_match_the_generator(self):
        g = liouville_generator(preset("A-II"))
        plan = PeriodicPlan(period=2.0 * np.pi, steps_per_period=STEPS,
                            repeats=4, signs=(-1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match=r"signs \(-1.0, 1.0, 1.0\) "
                           "has length 3, not the generator's 9"):
            one_period(g, plan)
        assert np.array_equal(replace(plan, signs=()).gauge(9), np.ones(9))


class TestCommensurate:
    def test_integer_frequencies(self):
        period, steps = commensurate_period(6.0, 4.0)
        assert period == pytest.approx(2.0 * np.pi)
        assert steps == 8191

    def test_rational_frequency_extends_period(self):
        period, steps = commensurate_period(5.8, 4.0)
        assert period == pytest.approx(10.0 * np.pi)
        assert steps == 5 * 8191

    def test_irrational_rejected(self):
        with pytest.raises(ValueError, match="commensurate"):
            commensurate_period(np.pi, 4.0)

    def test_no_step_cap(self):
        # the cap belongs to the plan built with the step count in use
        period, steps = commensurate_period(6.0001, 4.0)
        assert period == pytest.approx(10 ** 4 * 2.0 * np.pi)
        assert steps == 10 ** 4 * 8191


def cos_drive() -> Generator:
    """1x1 generator cos(t): period 2 pi and no shorter power-of-two
    sub-period, so accurate_plan resolves it whole (repeats 1)."""
    return Generator(np.zeros((1, 1)), [np.ones((1, 1))],
                     coefficients=lambda t: np.cos(t)[..., None])


def lifted(z):
    """The diagonal of Z (x) Z, Z = diag(z): a sign gauge on vec(rho)."""
    return np.kron(z, z)


class TestRepeats:
    """The gauge search (_repeats): the largest power of two r <= 128
    for which a shift by T/r acts as the generator's sign gauge Z."""

    # Z at the half sub-period of each detuning, worked out by hand:
    # omega_p = 6, omega_c = 4: tau = pi / 2 flips the probe (cos 3 pi);
    # omega_p = 8: tau = pi / 4 flips the control (cos pi);
    # omega_p = 6.05 (q = 20): tau = 20 pi flips the probe (cos 121 pi).
    SIGNS = {0.0: (-1, 1, 1), 2.0: (1, 1, -1), 0.05: (-1, 1, 1)}

    @pytest.mark.parametrize("case, delta_omega_p, m", [
        ("A-II", 0.0, 2), ("B-II", 0.0, 2), ("C-II", 0.0, 2),
        ("A-II", 2.0, 4), ("A-II", 0.05, 1), ("C-II", 0.05, 1)])
    def test_full_drive(self, case, delta_omega_p, m):
        # the drive repeats every T/m, and a shift by half of that acts as
        # the sign gauge Z: r = 2m (4, 8 and 2 here)
        p = preset(case, delta_omega_p=delta_omega_p)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        z = self.SIGNS[delta_omega_p]
        r, got = periodic._repeats(liouville_generator(p), period)
        assert r == 2 * m and np.array_equal(got, lifted(z))
        r, got = periodic._repeats(closed_generator(p), period)
        assert r == 2 * m and np.array_equal(got, z)

    @pytest.mark.parametrize("case", ["A-II", "B-II", "C-II"])
    @pytest.mark.parametrize("delta_omega_p", [0.0, 2.0, 0.05])
    def test_rwa_drive_is_resolved_whole(self, case, delta_omega_p):
        # the exact frame route is the same matrix for any sub-period
        p = preset(case, delta_omega_p=delta_omega_p)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        plan, _, _ = accurate_plan(liouville_generator(p, rwa=True), period)
        assert plan.repeats == 1 and plan.signs == ()

    def test_cos_drive(self):
        r, z = periodic._repeats(cos_drive(), 2.0 * np.pi)
        assert r == 1 and np.array_equal(z, [1.0])

    def test_constant_generator_is_bounded(self):
        # every shift passes; the floor's half probe keeps >= 1 step
        r, _ = periodic._repeats(Generator(np.zeros((1, 1))), 2.0 * np.pi)
        assert r <= MIN_STEPS // 2
        assert (MIN_STEPS // 2) % r == 0

    def test_broken_sign_pattern_falls_back_to_periodicity(self):
        # The field cos 2t + cos 4t / 10 repeats every pi, but at pi / 2
        # only its first harmonic flips sign: the gauge it declares there,
        # diag(-1, 1, 1), fails the check, and the search keeps r = 2, Z = I.
        p = preset("A-II")
        full = closed_generator(p)
        broken = Generator(
            full.a0, full.terms[:1],
            lambda t: (np.cos(2.0 * t) + 0.1 * np.cos(4.0 * t))[..., None],
            gauge=lambda s: np.array([np.sign(np.cos(2.0 * s)), 1.0, 1.0]))
        assert np.array_equal(broken.gauge(np.pi / 2), [-1.0, 1.0, 1.0])
        assert broken.shift_defect(np.pi / 2, [-1.0, 1.0, 1.0]) is not None
        r, z = periodic._repeats(broken, 2.0 * np.pi)
        assert r == 2 and np.array_equal(z, np.ones(3))

    @pytest.mark.parametrize("delta_omega_p, m", [(0.0, 2), (2.0, 4)])
    def test_one_period_from_repeats(self, delta_omega_p, m):
        # the gauge route against the period resolved whole
        g = liouville_generator(preset("A-II", delta_omega_p=delta_omega_p))
        plan = make_plan(g, 2.0 * np.pi, STEPS)
        _, whole = one_period(g, plan)
        u_t, composed = one_period(g, replace(
            plan, repeats=2 * m,
            signs=tuple(lifted(self.SIGNS[delta_omega_p]))))
        assert composed.shape == whole.shape
        assert np.array_equal(composed[0], np.eye(g.dim))
        assert np.array_equal(u_t, composed[-1])
        assert np.max(np.abs(composed - whole)) <= 1e-13

    @pytest.mark.parametrize("repeats", [1, 4])
    def test_one_period_returns_an_owned_u_t(self, repeats):
        # U_T is the micromotion's last row, held apart from the stack
        g = liouville_generator(preset("A-II"))
        plan = replace(make_plan(g, 2.0 * np.pi, STEPS), repeats=repeats,
                       signs=tuple(lifted(self.SIGNS[0.0]))
                       if repeats > 1 else ())
        u_t, micro = one_period(g, plan)
        assert np.array_equal(u_t, micro[-1])
        assert u_t.flags.owndata and not np.shares_memory(u_t, micro)


class TestAccuratePlan:
    @staticmethod
    def _fake_propagate(monkeypatch, scale, power):
        """Route periodic._propagate_grids to a 1x1 'U' per grid of error
        scale h^power, h the step, whose stack grows linearly to it, and
        return the list of step counts it is asked for, level by level,
        and the list of those asked for with intermediates (the
        stacks).  The 1x1 generators take the real route, whose own
        coordinates are the 2x2 realification, (1 + e) I for U = 1 + e."""
        calls, stacked = [], []

        def fake(g, t0, t1, grids, order=MagnusOrder.ORDER6, vec=False):
            own = np.eye(2)
            out = []
            for steps, stack in grids:
                calls.append(steps)
                error = scale * ((t1 - t0) / steps) ** power
                if not stack:
                    out.append((1.0 + error) * own)
                    continue
                stacked.append(steps)
                out.append((1.0 + error * np.linspace(
                    0.0, 1.0, steps + 1)[:, None, None]) * own)
            return out

        monkeypatch.setattr(periodic, "_propagate_grids", fake)
        return calls, stacked

    @staticmethod
    def _estimate(scale, n):
        """The ladder's estimate, max |R_2n - R_n| / 255, for U_N = 1 +
        scale (2 pi / N)^8: R_N = 1 - (192 / 63) scale (2 pi / N)^8, so it
        is R_2n's true error."""
        return 192.0 / 63.0 * scale * (np.pi / n) ** 8

    @pytest.mark.parametrize("q", [1, 2])
    def test_exact_route_takes_the_floor(self, monkeypatch, q):
        # B-II at omega_p = 13/2 has T = 4 pi (q = 2).  U_N = Phi(T) exp(T B)
        # for every N: no probe, nothing to compare.
        p = preset("B-II", delta_omega_p=0.5 * (q - 1))
        g = liouville_generator(p, rwa=True)
        calls = []

        def counting(g, t0, t1, steps, **kwargs):
            calls.append((steps, kwargs.get("return_intermediate", False)))
            return propagate(g, t0, t1, steps, **kwargs)

        monkeypatch.setattr(periodic, "propagate", counting)
        plan, error, (u_t, micro) = resolved(g, 2.0 * np.pi * q)
        assert plan.steps_per_period == q * MIN_STEPS
        assert error == 0.0
        assert calls == [(q * MIN_STEPS, True)]
        assert len(micro) == plan.steps_per_period + 1
        assert np.array_equal(u_t, micro[-1])

    @pytest.mark.parametrize("build, own", [(liouville_generator, 9),
                                            (closed_generator, 6)])
    def test_sub_stack_in_own_coordinates(self, build, own):
        # The full drive's accepted stack over tau = T/r, on the n = N/r
        # grid in its real coordinates (Hermitian for the Liouville
        # generator, the realification for the closed one); one_period
        # maps it to the vec basis as the period's first n + 1 rows.
        g = build(preset("A-II"))
        plan, _, sub = accurate_plan(g, 2.0 * np.pi)
        n = plan.steps_per_period // plan.repeats
        assert sub.dtype == np.float64 and sub.shape == (n + 1, own, own)
        _, micro = one_period(g, plan, sub)
        assert np.array_equal(micro[:n + 1], g._vec_coordinates(sub))

    def test_frame_generator_has_no_sub_stack(self):
        g = liouville_generator(preset("A-II"), rwa=True)
        assert accurate_plan(g, 2.0 * np.pi)[1:] == (0.0, None)

    @pytest.mark.parametrize("case", ["A-II", "B-II", "C-II"])
    def test_estimate_tracks_the_true_error(self, monkeypatch, case):
        # At acceptance (the floor, 256 stack steps) the estimate lies below
        # the rounding of the 8191-step reference, A-II 1.8e-15 against a
        # true 1.2e-14: there the accepted error is bounded by the target.
        # One level below, accepted at once from a floor of 128, truncation
        # dominates and the estimate tracks the true error.
        g = liouville_generator(preset(case))
        ref = propagate(g, 0.0, 2.0 * np.pi, BASE_STEPS)
        plan, error, (u_t, _) = resolved(g, 2.0 * np.pi)
        assert plan.steps_per_period == MIN_STEPS
        assert error <= STEP_ERROR_TARGET
        assert np.max(np.abs(u_t - ref)) <= STEP_ERROR_TARGET
        monkeypatch.setattr(periodic, "MIN_STEPS", MIN_STEPS // 2)
        monkeypatch.setattr(periodic, "STEP_ERROR_TARGET", np.inf)
        plan, error, (u_t, _) = resolved(g, 2.0 * np.pi)
        assert plan.steps_per_period == MIN_STEPS // 2
        true = np.max(np.abs(u_t - ref))
        assert 0.5 * error <= true <= 2.0 * error

    def test_extrapolation_is_eighth_order(self, monkeypatch):
        # The map accepted from a floor of N/2 has its finest level at N
        # steps per period.  Its max-entry error against a 4x finer
        # sixth-order U_T falls by about 2^8 per doubling of N.
        g = liouville_generator(preset("A-II"))
        ref = propagate(g, 0.0, 2.0 * np.pi, 4 * 256)
        monkeypatch.setattr(periodic, "STEP_ERROR_TARGET", np.inf)
        errors = []
        for n in (64, 128, 256):
            monkeypatch.setattr(periodic, "MIN_STEPS", n // 2)
            _, _, (u_t, _) = resolved(g, 2.0 * np.pi)
            errors.append(np.max(np.abs(u_t - ref)))
        assert errors[0] >= 2 ** 7 * errors[1] >= 2 ** 14 * errors[2]

    @pytest.mark.parametrize("case", ["A-II", "C-II"])
    def test_accepted_map_at_q_20(self, case):
        # omega_p = 6.05: T = 40 pi, r = 2; the finest level takes twice the
        # 5120-step grid, and the reference four times that.
        p = preset(case, delta_omega_p=0.05)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        g = liouville_generator(p)
        plan, error, (u_t, _) = resolved(g, period)
        assert plan.steps_per_period == 20 * MIN_STEPS
        assert error <= STEP_ERROR_TARGET
        ref = propagate(g, 0.0, period, 8 * plan.steps_per_period)
        assert np.max(np.abs(u_t - ref)) <= STEP_ERROR_TARGET

    def test_ladder_climbs_one_level_at_a_time(self, monkeypatch):
        # The estimate fails at the floor and at twice it: the ladder
        # climbs a level each time, propagating only the new finest one,
        # and reads the accepted map from the extrapolated stack.
        scale = 1e6
        calls, stacked = self._fake_propagate(monkeypatch, scale, 8)
        plan, error, (u_t, micro) = resolved(cos_drive(), 2.0 * np.pi)
        n = plan.steps_per_period
        assert n == 4 * MIN_STEPS
        assert self._estimate(scale, n) <= STEP_ERROR_TARGET \
            < self._estimate(scale, n // 2)
        assert error == pytest.approx(self._estimate(scale, n), rel=1e-6)
        assert calls == [MIN_STEPS // 2 << k for k in range(5)]
        assert stacked == calls[1:]
        assert len(micro) == n + 1
        fine, coarse = (scale * (np.pi / k) ** 8 for k in (n, n / 2))
        assert u_t[0, 0] == pytest.approx(1.0 + (64 * fine - coarse) / 63,
                                          rel=1e-15)

    @pytest.mark.parametrize("scale, n", [(1e2, MIN_STEPS),
                                          (1e4, 2 * MIN_STEPS)])
    def test_weak_drive_is_propagated_once_per_count(self, monkeypatch,
                                                     scale, n):
        # scale h^8: the estimate at the floor holds for the smaller scale,
        # at twice the floor for the larger.  Each level is propagated
        # once, the coarsest without intermediates.
        calls, stacked = self._fake_propagate(monkeypatch, scale, 8)
        plan, error, _ = accurate_plan(cos_drive(), 2.0 * np.pi)
        assert self._estimate(scale, n) <= STEP_ERROR_TARGET \
            < self._estimate(scale, n // 2)
        assert plan.steps_per_period == n
        assert calls[-1] == 2 * n
        assert calls == [MIN_STEPS // 2 << k for k in range(len(calls))]
        assert stacked == calls[1:]
        assert error == pytest.approx(self._estimate(scale, n), rel=1e-2)

    def test_failed_check_meets_the_cap(self, monkeypatch):
        # The estimate fails at the floor and at 2 MIN_STEPS, and the next
        # level's grid is above the cap: it is refused before its finest
        # level is propagated.
        calls, _ = self._fake_propagate(monkeypatch, 1e6, 8)
        monkeypatch.setattr(periodic, "MAX_PLAN_STEPS", 2 * MIN_STEPS)
        with pytest.raises(ValueError, match="cap"):
            accurate_plan(cos_drive(), 2.0 * np.pi)
        assert calls == [MIN_STEPS // 2, MIN_STEPS, 2 * MIN_STEPS,
                         4 * MIN_STEPS]

    def test_cap_checked_before_propagating(self, monkeypatch):
        calls, _ = self._fake_propagate(monkeypatch, 1.0, 1)
        g = Generator(np.zeros((1, 1)))
        # the floor alone is above the cap: nothing is propagated
        with pytest.raises(ValueError, match="cap"):
            accurate_plan(g, 2.0 * np.pi * 10 ** 4)
        assert calls == []
        # the floor's three levels run, the next grid is above the cap
        with pytest.raises(ValueError, match="cap"):
            accurate_plan(g, 2.0 * np.pi * 2000)
        assert len(calls) == 3

    @pytest.mark.parametrize("cap", [MIN_STEPS, 2 * MIN_STEPS,
                                     4 * MIN_STEPS, 8 * MIN_STEPS,
                                     32 * MIN_STEPS])
    @pytest.mark.parametrize("power", [1, 4, 6, 8])
    def test_cap_checked_before_every_count(self, monkeypatch, cap, power):
        # The cap bounds the plan's stack grid N, checked before each
        # level: the finest level propagates at most 2N steps per period.
        calls, _ = self._fake_propagate(monkeypatch, 1e3, power)
        real = periodic._propagate_grids

        def capped(g, t0, t1, grids, **kwargs):
            for steps, _ in grids:
                assert steps <= 2 * cap, \
                    f"{steps} steps propagated past 2 cap"
            return real(g, t0, t1, grids, **kwargs)

        monkeypatch.setattr(periodic, "_propagate_grids", capped)
        monkeypatch.setattr(periodic, "MAX_PLAN_STEPS", cap)
        try:
            plan, _, _ = accurate_plan(cos_drive(), 2.0 * np.pi)
        except ValueError as exc:
            assert "cap" in str(exc)
        else:
            assert plan.steps_per_period <= cap


class TestStroboscopic:
    def test_matches_direct_two_periods(self, open_setup):
        g, plan, u_t, micro = open_setup
        direct = propagate(g, 0.0, 2.0 * plan.period, 2 * STEPS)
        assert frobenius_norm(stroboscopic(u_t, micro, 2, 0) - direct) < 1e-11

    def test_micromotion_offset(self, open_setup):
        g, plan, u_t, micro = open_setup
        k = STEPS // 4
        dt = plan.period / plan.steps_per_period
        direct = propagate(g, 0.0, plan.period + dt * k, STEPS + k)
        assert frobenius_norm(stroboscopic(u_t, micro, 1, k) - direct) < 1e-11

    def test_index_errors(self, open_setup):
        _, _, u_t, micro = open_setup
        with pytest.raises(ValueError):
            stroboscopic(u_t, micro, -1, 0)
        with pytest.raises(IndexError):
            stroboscopic(u_t, micro, 1, len(micro))


class TestDoubling:
    def test_equals_matrix_power(self, open_setup):
        _, _, u_t, _ = open_setup
        assert np.allclose(doubling(u_t, 4),
                           np.linalg.matrix_power(u_t, 16), atol=1e-12)

    def test_zero_squarings(self, open_setup):
        _, _, u_t, _ = open_setup
        assert np.allclose(doubling(u_t, 0), u_t)

    def test_reprojection_pins_trace_functional(self, open_setup):
        _, _, u_t, _ = open_setup
        w = trace_functional()
        u = doubling(u_t, 20, fixed_functional=w)
        assert np.max(np.abs(w.conj() @ u - w.conj())) < 1e-14

    def test_negative_count_rejected(self, open_setup):
        _, _, u_t, _ = open_setup
        with pytest.raises(ValueError):
            doubling(u_t, -1)


class TestTrajectory:
    def test_populations(self):
        times = np.array([0.0, 1.0])
        states = np.array([np.diag([1.0, 0.0, 0.0]),
                           np.diag([0.2, 0.3, 0.5])], dtype=complex)
        traj = Trajectory(times=times, states=states)
        assert np.allclose(traj.populations, [[1, 0, 0], [0.2, 0.3, 0.5]])

    def test_rejects_non_monotone_times(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]),
                       states=np.zeros((2, 3, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]),
                       states=np.zeros((3, 3, 3)))


class TestConvergenceTime:
    def test_dissipative_case_converges(self, open_setup):
        g, plan, u_t, micro = open_setup
        t = convergence_time(g, plan, ground_state(), eps=1e-4,
                             precomputed=(u_t, micro))
        n = t / plan.period
        assert n == round(n) and n >= 1

    def test_smaller_eps_never_earlier(self, open_setup):
        g, plan, u_t, micro = open_setup
        pre = (u_t, micro)
        t_loose = convergence_time(g, plan, ground_state(), eps=1e-3,
                                   precomputed=pre)
        t_tight = convergence_time(g, plan, ground_state(), eps=1e-6,
                                   precomputed=pre)
        assert t_tight >= t_loose

    def test_unitary_dynamics_raises_horizon_error(self):
        # no dissipation -> the period average never settles
        g = liouville_generator(preset("A-I"), dissipative=False)
        plan = make_plan(g, 2.0 * np.pi, 64)
        with pytest.raises(HorizonError) as exc_info:
            convergence_time(g, plan, ground_state(), eps=1e-12,
                             precomputed=one_period(g, plan))
        assert exc_info.value.last_delta > 0.0

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0, 0.0])
    def test_eps_must_be_positive(self, open_setup, eps):
        # NaN fails every comparison of the search, so it is refused first;
        # inf would pass the first period whatever the state
        g, plan, u_t, micro = open_setup
        with pytest.raises(ValueError, match="eps"):
            convergence_time(g, plan, ground_state(), eps=eps,
                             precomputed=(u_t, micro))

    def test_first_period_meets_a_loose_eps(self, open_setup):
        g, plan, u_t, micro = open_setup
        assert convergence_time(g, plan, ground_state(), eps=1.0,
                                precomputed=(u_t, micro)) == plan.period

    def test_requires_liouville_generator(self):
        from lamsim.model import closed_generator
        g = closed_generator(preset("A-I"))
        plan = PeriodicPlan(period=2.0 * np.pi, steps_per_period=8)
        with pytest.raises(ValueError, match="Liouville"):
            convergence_time(g, plan, ground_state(),
                             precomputed=one_period(g, plan))


# The paper's steady-state presets at two-photon resonance and the periods
# their period averages take to settle to eps = 1e-6 (benchmark gate (e)).
PRESET_T_CONV = {("A-II", "full"): 7, ("A-II", "rwa"): 7,
                 ("B-II", "full"): 78, ("B-II", "rwa"): 79,
                 ("C-II", "full"): 5, ("C-II", "rwa"): 5}
# Deltas of the squares route against matrix_power's, relative to the
# Frobenius norm of the first period's average (0.6-1 at the presets): the
# two routes round U_T^n v0 differently, by up to 5.6e-16 at n <= 200.
DELTA_RTOL = 2e-15


@pytest.fixture(scope="module")
def resolved_presets():
    """(g, plan, U_T, micromotion) of each preset and drive, resolved as
    steady_state_summary resolves them."""
    out = {}
    for case, drive in PRESET_T_CONV:
        g = liouville_generator(preset(case), rwa=drive == "rwa")
        plan, _, (u_t, micro) = resolved(g, 2.0 * np.pi)
        out[case, drive] = g, plan, u_t, micro
    return out


def _matrix_power_periods(u_t, micro, eps):
    """Convergence periods by the doubling and bisection search on the
    states matrix_power(U_T, n) @ v0: the route the squares replace."""
    mean, v0 = period_mean_map(micro), vec(ground_state())

    def delta(n):
        a, b = (mean @ (np.linalg.matrix_power(u_t, k) @ v0)
                for k in (n, n - 1))
        return frobenius_norm(a - b)

    if delta(1) <= eps:
        return 1
    n = 2
    while delta(n) > eps:
        n *= 2
    lo = n // 2
    while n - lo > 1:
        mid = (lo + n) // 2
        lo, n = (lo, mid) if delta(mid) <= eps else (mid, n)
    return n


class TestSquares:
    """convergence_time's states U_T^n v0 come from squares of U_T, each
    formed once, and give matrix_power's deltas and periods."""

    @pytest.mark.parametrize("key", list(PRESET_T_CONV), ids="-".join)
    def test_deltas_match_matrix_power(self, resolved_presets, key):
        _, _, u_t, micro = resolved_presets[key]
        mean, v0 = period_mean_map(micro), vec(ground_state())
        power = periodic._powers_of(u_t, v0)
        got = [mean @ power(n) for n in range(201)]
        want = [mean @ (np.linalg.matrix_power(u_t, n) @ v0)
                for n in range(201)]
        scale = frobenius_norm(want[1])
        for n in range(1, 201):
            assert abs(frobenius_norm(got[n] - got[n - 1])
                       - frobenius_norm(want[n] - want[n - 1])) \
                <= DELTA_RTOL * scale, f"n = {n}"

    @pytest.mark.parametrize("key", list(PRESET_T_CONV), ids="-".join)
    def test_each_square_is_formed_once(self, monkeypatch, resolved_presets,
                                        key):
        # every matrix-matrix product of the search is a new square: the
        # doubling stops at 2^k >= t_conv / T, so k = (n - 1).bit_length()
        g, plan, u_t, micro = resolved_presets[key]
        products = []

        class Counting(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                plain = [x.view(np.ndarray) if isinstance(x, Counting) else x
                         for x in inputs]
                if ufunc is np.matmul and all(np.ndim(x) == 2 for x in plain):
                    products.append(1)
                return getattr(ufunc, method)(*plain, **kwargs).view(Counting)

        def no_power(*args):
            raise AssertionError("matrix_power called")

        monkeypatch.setattr(np.linalg, "matrix_power", no_power)
        t = convergence_time(g, plan, ground_state(),
                             precomputed=(u_t.view(Counting), micro))
        n = PRESET_T_CONV[key]
        assert t == n * plan.period
        assert len(products) == (n - 1).bit_length()

    def test_periods_match_matrix_power_on_a_seeded_scan(self):
        rng = np.random.default_rng(2023)
        for _ in range(12):
            case = str(rng.choice(["A-II", "B-II", "C-II"]))
            scale, rwa = rng.uniform(0.3, 2.0), bool(rng.integers(2))
            eps = 10.0 ** rng.uniform(-8.0, -3.0)
            p = preset(case)
            g = liouville_generator(
                p.with_(rabi_p=scale * p.rabi_p, rabi_c=scale * p.rabi_c),
                rwa=rwa)
            plan, _, (u_t, micro) = resolved(g, 2.0 * np.pi)
            t = convergence_time(g, plan, ground_state(), eps=eps,
                                 precomputed=(u_t, micro))
            assert t == _matrix_power_periods(u_t, micro, eps) * plan.period


def _scanned_periods(u_t, micro, eps=1e-6, limit=10_000):
    """The first n with delta(n) <= eps, by a plain scan of the states
    U_T v0, U_T^2 v0, ... one mat-vec at a time."""
    mean, v = period_mean_map(micro), vec(ground_state())
    previous = mean @ v
    for n in range(1, limit + 1):
        v = u_t @ v
        average = mean @ v
        if frobenius_norm(average - previous) <= eps:
            return n
        previous = average
    raise AssertionError(f"no convergence within {limit} periods")


@pytest.mark.parametrize("delta_omega_p", [0.0, 0.5, -0.5, 0.25, 1.0])
@pytest.mark.parametrize("case,drive", [
    ("A-II", "full"), ("A-II", "rwa"), ("B-II", "full"), ("B-II", "rwa"),
    ("C-II", "full"), ("C-II", "rwa")])
def test_search_finds_the_first_converged_period(case, drive, delta_omega_p):
    # doubling and bisection return the smallest n only if the deltas
    # cross eps once; a plain scan from n = 1 finds the first crossing
    p = preset(case, delta_omega_p=delta_omega_p)
    period, _ = commensurate_period(p.omega_p, p.omega_c)
    g = liouville_generator(p, rwa=drive == "rwa")
    plan, _, (u_t, micro) = resolved(g, period)
    t = convergence_time(g, plan, ground_state(), precomputed=(u_t, micro))
    assert t == _scanned_periods(u_t, micro) * plan.period


@pytest.mark.parametrize("with_factors", [False, True])
def test_period_mean_map_is_trapezoid_average(open_setup, rng, with_factors):
    _, plan, _, micro = open_setup
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    factors = (np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (len(micro), 9)))
               if with_factors else np.ones((len(micro), 9)))
    states = factors * (micro @ v)
    want = np.trapezoid(states, x=plan.micromotion_times,
                        axis=0) / plan.period
    got = (period_mean_map(states) if with_factors
           else period_mean_map(micro) @ v)
    assert np.max(np.abs(got - want)) < 1e-14


def test_period_mean_map_sums_to_rounding_level(rng):
    # 20,481 rows, as at q = 80: within four rounding units of the sum of
    # the rounded terms, which one product over all rows missed by 12.
    n = 20481
    stack = rng.random((n, 2)) + 1j * rng.random((n, 2))
    weights = np.full(n, 1.0 / (n - 1))
    weights[[0, -1]] *= 0.5
    want = [complex(math.fsum(weights * col.real),
                    math.fsum(weights * col.imag)) for col in stack.T]
    assert np.max(np.abs(period_mean_map(stack) - want)) \
        <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("case,delta_omega_p", [
    ("A-II", 0.0), ("B-II", 0.0), ("C-II", 0.0),
    ("B-II", 0.5),  # omega_p = 13/2: commensurate period q = 2
])
def test_rwa_period_map_is_rotating_frame_exponential(case, delta_omega_p):
    # In the rotating frame the co-rotating generator is constant, and the
    # frame phases are T-periodic, so the lab-frame period map is exactly
    # exp(T L_rwf) with L_rwf = -i[h_rwf, .] + D.
    p = preset(case, delta_omega_p=delta_omega_p)
    period, steps = commensurate_period(p.omega_p, p.omega_c)
    h = h_rwf(p)
    ident = np.eye(3)
    l_rwf = -1j * (np.kron(h, ident) - np.kron(ident, h.T)) + lindbladian(p)
    g = liouville_generator(p, rwa=True)
    u_t, _ = one_period(g, make_plan(g, period, steps))
    assert np.max(np.abs(u_t - expm_eig(period * l_rwf))) < 1e-10


def test_trace_functional_reads_trace(rng):
    from conftest import random_complex_matrix
    rho = random_complex_matrix(rng, 3)
    w = trace_functional()
    assert np.isclose(w.conj() @ vec(rho), np.trace(rho))


# Sign of each basis state under the drive's half-period shift tau:
# -Omega_k cos(omega_k (t + tau)) = s_k (-Omega_k cos(omega_k t)), and
# Z = diag(s_p, 1, s_c) absorbs both signs.  Worked out by hand from
# omega_p, omega_c and tau, not read from the library.
SYMMETRY_CASES = [
    ("A-II", 0.0, (-1, 1, 1)), ("B-II", 0.0, (-1, 1, 1)),
    ("C-II", 0.0, (-1, 1, 1)),   # tau = pi/2: cos 3 pi = -1, cos 2 pi = 1
    ("A-II", 2.0, (1, 1, -1)),   # tau = pi/4: cos 2 pi = 1, cos pi = -1
    ("A-II", 0.05, (-1, 1, 1)),  # q = 20, tau = 20 pi: cos 121 pi = -1
    ("C-II", 0.05, (-1, 1, 1)),
]


@pytest.mark.parametrize("case,delta_omega_p,z", SYMMETRY_CASES)
def test_period_average_vanishes_where_the_sign_gauge_flips(
        case, delta_omega_p, z):
    # A(t + tau) = Z A(t) Z makes the periodic steady state covariant,
    # rho(t + tau) = Z rho(t) Z, so its lab-frame period average has
    # <rho_ij> = 0 wherever z_i z_j = -1.  The zeros are exact up to the
    # accuracy U_T is resolved to and the rounding of the drive phases
    # omega t, which grows with t: the tolerance is q STEP_ERROR_TARGET.
    p = preset(case, delta_omega_p=delta_omega_p)
    period, _ = commensurate_period(p.omega_p, p.omega_c)
    q = round(period / (2.0 * np.pi))
    tol = q * STEP_ERROR_TARGET
    _, _, (u_t, micro) = resolved(liouville_generator(p), period)
    v_ss = np.linalg.svd(u_t - np.eye(9))[2][-1].conj()
    mean = unvec(period_mean_map(micro) @ v_ss / np.trace(unvec(v_ss)))
    flips = np.multiply.outer(z, z) < 0
    assert np.max(np.abs(mean[flips])) <= tol
    # At q = 1 the coherence the gauge keeps is far from zero.  At q = 20
    # it is negligible too, for another reason: its first non-oscillating
    # harmonic, 80 omega_p = 121 omega_c, is of order 201 in the fields.
    i, j = np.triu_indices(3, 1)
    kept = np.abs(mean[i, j])[~flips[i, j]]
    assert kept.size == 1 and (q > 1 or kept[0] >= 1e4 * tol)

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamsim.analysis import (LAMBDA2_FLOOR, choi_matrix, cptp_check,
                             density_validity, resolved_log, rwa_error,
                             spectral_gap)
from lamsim.linalg import expm
from lamsim.model import LDIM, liouville_generator, preset
from lamsim.periodic import commensurate_period, make_plan, one_period

from conftest import random_complex_matrix


class TestRwaError:
    def test_identical_states(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        assert rwa_error(rho, rho) == 0.0

    def test_known_value(self):
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        approx = np.diag([0.0, 1.0, 0.0]).astype(complex)
        assert rwa_error(approx, rho) == pytest.approx(np.sqrt(2.0))

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            rwa_error(np.eye(3), np.zeros((3, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rwa_error(np.eye(3), np.eye(2))

    def test_single_pair_is_a_float(self):
        assert type(rwa_error(np.zeros((3, 3)), np.eye(3))) is float

    def test_stack_matches_per_state_loop(self, rng):
        approx = rng.standard_normal((4, 5, 3, 3)) + 0j
        exact = rng.standard_normal((4, 5, 3, 3)) + 1j * rng.standard_normal(
            (4, 5, 3, 3))
        want = np.array([[np.linalg.norm(a - r) / np.linalg.norm(r)
                          for a, r in zip(row_a, row_r)]
                         for row_a, row_r in zip(approx, exact)])
        got = rwa_error(approx, exact)
        assert got.shape == (4, 5)
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_stack_with_one_zero_reference_rejected(self):
        exact = np.stack([np.eye(3), np.zeros((3, 3)), np.eye(3)])
        with pytest.raises(ValueError, match="zero norm"):
            rwa_error(np.ones((3, 3, 3)), exact)


class TestSpectralGap:
    def test_known_diagonal_map(self):
        # decay exponents 0, 0.5, 1.0, ... -> gap is the smallest nonzero
        rates = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
        u = np.diag(np.exp(-rates))
        report = spectral_gap(u, period=1.0)
        assert report.gap == pytest.approx(0.5, rel=1e-12)
        assert not report.degenerate

    def test_zero_eigenvalues_log_to_minus_infinity(self):
        # a singular map: each exact zero eigenvalue logs -inf, with no
        # warning, and sorts after every finite decay
        u = np.diag(np.r_[1.0, np.exp(-1.0 + 2.0j), np.exp(-1.0 - 2.0j),
                          np.zeros(6)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = spectral_gap(u, period=1.0)
        assert report.gap == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(report.eigen_logs[1:3], [-1.0 - 2.0j, -1.0 + 2.0j],
                           rtol=0.0, atol=1e-15)
        assert np.all(report.eigen_logs[3:] == -np.inf)

    def test_steady_eigenvalue_selection(self):
        u = np.diag(np.exp([-1.0 + 0.3j, 0.0 + 2.0j, -2.0]))
        report = spectral_gap(u, period=1.0)
        # the steady log has the smallest |Re| and is left out of the gap
        assert np.argmin(np.abs(report.eigen_logs.real)) == 0
        assert np.isclose(report.eigen_logs[0].real, 0.0)
        assert report.gap == pytest.approx(1.0)

    def test_unitary_is_degenerate(self):
        phases = np.exp(1j * np.linspace(0.1, 2.0, 9))
        report = spectral_gap(np.diag(phases), period=1.0)
        assert report.degenerate and report.gap == 0.0

    def test_per_time_normalization(self):
        u = np.diag(np.exp([0.0, -2.0, -4.0]))
        report = spectral_gap(u, period=2.0)
        assert report.gap_per_time == pytest.approx(1.0)

    @pytest.mark.parametrize("lambda2,resolved", [
        (2.0 * LAMBDA2_FLOOR, True), (LAMBDA2_FLOOR, False),
        (1e-18, False)])
    def test_gap_below_the_floor_is_unresolved(self, lambda2, resolved):
        u = np.diag([1.0, lambda2, 0.5 * lambda2])
        report = spectral_gap(u, period=2.0)
        if resolved:
            assert report.gap == pytest.approx(-np.log(lambda2))
            assert report.gap_per_time == pytest.approx(report.gap / 2.0)
        else:
            assert np.isnan(report.gap) and np.isnan(report.gap_per_time)
        assert not report.degenerate
        assert resolved_log(complex(math.log(lambda2), 1.0)) == resolved

    def test_power_of_a_period_map_above_the_floor_is_resolved(self):
        # U_T^11 of A-II's full drive takes |lambda_2| to 1.3e-10, between
        # the floor and 1e-9: it is resolved, and its gap per unit time is
        # U_T's (to 2.8e-6, the rounding of a log of 1.3e-10)
        g = liouville_generator(preset("A-II"))
        u_t, _ = one_period(g, make_plan(g, 2.0 * np.pi, 256))
        power = spectral_gap(np.linalg.matrix_power(u_t, 11),
                             period=22.0 * np.pi)
        assert LAMBDA2_FLOOR < math.exp(-power.gap) < 1e-9
        assert power.gap_per_time == pytest.approx(
            spectral_gap(u_t, period=2.0 * np.pi).gap_per_time, rel=1e-4)


class TestEigenLogOrder:
    def test_sorted_by_decay_then_imaginary_part(self):
        logs = np.array([-2.0 + 1.0j, -0.5 - 0.3j, 0.0, -2.0 - 1.0j,
                         -0.5 + 0.3j, -1.0])
        report = spectral_gap(np.diag(np.exp(logs)), period=1.0)
        want = [0.0, -0.5 - 0.3j, -0.5 + 0.3j, -1.0, -2.0 - 1.0j,
                -2.0 + 1.0j]
        assert np.allclose(report.eigen_logs, want, rtol=0.0, atol=1e-14)
        assert np.argmin(np.abs(report.eigen_logs.real)) == 0

    @pytest.mark.parametrize("case,rwa", [("A-II", True), ("B-II", False)])
    def test_order_independent_of_eigensolver(self, case, rwa):
        # U_T and its transpose share a spectrum, but the eigensolver
        # returns it in different orders and roundings
        p = preset(case)
        g = liouville_generator(p, rwa=rwa)
        u_t, _ = one_period(g, make_plan(
            g, *commensurate_period(p.omega_p, p.omega_c)))
        logs = spectral_gap(u_t, period=1.0).eigen_logs
        logs_t = spectral_gap(u_t.T, period=1.0).eigen_logs
        # a log's condition is 1/|lambda|: B-II full's smallest eigenvalue,
        # 1e-5, has its log off by ~1e-11 on every eigensolver route.  The
        # bound is that of an error of 1e-13 in lambda itself.
        tol = 1e-13 / np.exp(logs.real)
        assert np.all(np.abs(logs - logs_t) <= tol)
        # conjugate pairs sit side by side: each run of equal decays reads
        # the same backwards after conjugation
        decays = np.round(-logs.real, 9)
        for d in np.unique(decays):
            run = np.flatnonzero(decays == d)
            assert np.array_equal(run, run[0] + np.arange(len(run)))
            assert np.all(np.abs(logs[run] - np.conj(logs[run][::-1]))
                          <= tol[run])


class TestChoi:
    def test_reshuffle_is_involution(self, rng):
        m = random_complex_matrix(rng, LDIM)
        assert np.allclose(choi_matrix(choi_matrix(m)), m)

    def test_single_kraus_gives_rank_one(self, rng):
        a = random_complex_matrix(rng, 3)
        m = np.kron(a, a.conj())  # the map rho -> A rho A^dag
        v = a.reshape(LDIM)
        assert np.allclose(choi_matrix(m), np.outer(v, v.conj()))

    def test_shape_check(self):
        with pytest.raises(ValueError):
            choi_matrix(np.eye(3))


# the trace and Choi thresholds of lamsim validate's check table
TRACE_TOL, CHOI_TOL = 1e-10, 1e-9


class TestCptpCheck:
    def test_identity_map_passes(self):
        report = cptp_check(np.eye(LDIM))
        assert report.trace_defect <= TRACE_TOL
        assert report.min_choi_eigenvalue >= -CHOI_TOL
        assert report.min_choi_eigenvalue == pytest.approx(0.0, abs=1e-14)

    def test_unitary_conjugation_passes(self, rng):
        h = random_complex_matrix(rng, 3)
        h = h + h.conj().T
        u = expm(-1j * h)
        report = cptp_check(np.kron(u, u.conj()))
        assert report.trace_defect <= TRACE_TOL
        assert report.min_choi_eigenvalue >= -CHOI_TOL

    def test_transpose_map_is_positive_but_not_cp(self):
        # the transpose map is the classic TP-but-not-CP witness
        swap = np.zeros((LDIM, LDIM))
        for i in range(3):
            for j in range(3):
                swap[3 * i + j, 3 * j + i] = 1.0
        report = cptp_check(swap)
        assert report.trace_defect <= TRACE_TOL
        assert report.min_choi_eigenvalue < -CHOI_TOL
        assert report.min_choi_eigenvalue == pytest.approx(-1.0)

    def test_trace_violation_detected(self):
        report = cptp_check(1.01 * np.eye(LDIM))
        assert report.trace_defect > TRACE_TOL
        assert report.trace_defect == pytest.approx(0.01)


class TestDensityValidity:
    def test_clean_state(self):
        report = density_validity(np.diag([0.6, 0.3, 0.1]))
        assert report.trace_defect < 1e-15
        assert report.hermiticity_defect == 0.0
        assert report.min_eigenvalue == pytest.approx(0.1)

    def test_defects_reported(self):
        rho = np.diag([0.7, 0.4, -0.1]).astype(complex)
        rho[0, 1] = 0.1j
        report = density_validity(rho)
        assert report.trace_defect == pytest.approx(0.0, abs=1e-15)
        assert report.hermiticity_defect == pytest.approx(0.1)
        assert report.min_eigenvalue < 0.0

    def test_shape_check(self):
        with pytest.raises(ValueError):
            density_validity(np.eye(2))

"""Metamorphic oracles: two exact symmetries of the lambda system that hold
at every period multiple q, checked on steady_state_summary itself.

Level mirror.  Swapping |1> and |3> together with (e1, e3), (omega_p,
omega_c), (rabi_p, rabi_c), (gamma_12, gamma_23) and (nbar_12, nbar_23)
maps the master equation to itself under P = |1><3| + |2><2| + |3><1|, and
the mirrored rotating frame is P W P up to a global phase: the steady
state's rotating-frame average becomes P rho P and U_T's spectrum is
unchanged.  The convergence time is not, as |1><1| is not mirrored.

Time rescaling.  Multiplying every energy, frequency and rate by c runs
the same dynamics c times faster, rho'(t) = rho(c t): the rotating-frame
average stays and the gap per unit time scales by c.

Each summary's U_T carries a max-entry error of at most eps =
STEP_ERROR_TARGET, at most 9 eps in the 2-norm, which moves the fixed
point of U_T by at most kappa 9 eps, kappa = |(I - U_T)^#|_2 the norm of
the group inverse (Meyer, SIAM Rev. 17, 443 (1975)).  Each comparison of
two summaries is bounded by the sum of their two such moves; no tolerance
is fitted.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from lamsim.model import LDIM, preset
from lamsim.periodic import STEP_ERROR_TARGET, trace_functional
from lamsim.sweep import steady_state_summary

RATES = ("e1", "e2", "e3", "omega_p", "omega_c", "rabi_p", "rabi_c",
         "gamma_12", "gamma_23")

# A/B/C-II at q = 1 (delta_omega_p = 0 and 2) with both drives, and one
# full-drive point at q = 20 (omega_p = 6.05)
POINTS = [(case, delta, drive) for case in ("A-II", "B-II", "C-II")
          for delta in (0.0, 2.0) for drive in ("full", "rwa")]
POINTS.append(("A-II", 0.05, "full"))


def mirror(p):
    return replace(p, e1=p.e3, e3=p.e1, omega_p=p.omega_c,
                   omega_c=p.omega_p, rabi_p=p.rabi_c, rabi_c=p.rabi_p,
                   gamma_12=p.gamma_23, gamma_23=p.gamma_12,
                   nbar_12=p.nbar_23, nbar_23=p.nbar_12)


def rescaled(p, c):
    return replace(p, **{name: c * getattr(p, name) for name in RATES})


def fixed_point_move(u_t):
    """9 kappa eps: how far an entry error of eps in U_T can move its
    unit-trace fixed point, kappa the 2-norm of the group inverse of
    I - U_T, (I - U_T + E)^-1 - E with E = v w^dag / (w^dag v) the
    projector onto the fixed point v along the trace functional w."""
    a = np.eye(LDIM) - u_t
    v = np.linalg.svd(a)[2][-1].conj()
    w = trace_functional()
    e = np.outer(v, w.conj()) / np.vdot(w, v)
    return 9.0 * np.linalg.norm(np.linalg.inv(a + e) - e, 2) \
        * STEP_ERROR_TARGET


def solve(p, drive):
    return steady_state_summary(p, rwa=(drive == "rwa"))


def assert_same_gap(got, want, bound):
    # an unresolved gap (NaN, |lambda_2| at the floor) is unresolved in both
    assert np.isnan(got) == np.isnan(want)
    if not np.isnan(want):
        assert abs(got - want) <= bound


@pytest.mark.parametrize("case, delta_omega_p, drive", POINTS)
def test_level_mirror(case, delta_omega_p, drive):
    p = preset(case, delta_omega_p=delta_omega_p)
    s, m = solve(p, drive), solve(mirror(p), drive)
    assert m["period"] == s["period"]
    bound = fixed_point_move(s["u_t"]) + fixed_point_move(m["u_t"])
    assert np.max(np.abs(m["rho_ss_rwf"]
                         - s["rho_ss_rwf"][::-1, ::-1])) <= bound
    assert_same_gap(m["gap"], s["gap"], bound)


@pytest.mark.parametrize("case, delta_omega_p, drive", POINTS)
def test_time_rescaling(case, delta_omega_p, drive):
    # at c = 2 the period stays 2 pi at q = 1 (two of the old periods) and
    # halves to 20 pi at q = 20, where omega_p = 12.1 has q = 10
    c = 2.0
    p = preset(case, delta_omega_p=delta_omega_p)
    s, r = solve(p, drive), solve(rescaled(p, c), drive)
    assert r["period"] == (s["period"] / c if delta_omega_p == 0.05
                           else s["period"])
    bound = fixed_point_move(s["u_t"]) + fixed_point_move(r["u_t"])
    assert np.max(np.abs(r["rho_ss_rwf"] - s["rho_ss_rwf"])) <= bound
    assert_same_gap(r["gap_per_time"] / c, s["gap_per_time"], bound)


@pytest.mark.parametrize("drive", ["full", "rwa"])
def test_time_rescaling_squares_lambda_2_below_1e_9(drive):
    # C-II with gamma_12 = gamma_23 = 5 has |lambda_2| = 7.8e-6 (full) and
    # 3.0e-6 (rwa); at c = 2 the period stays 2 pi and holds two of the
    # old ones, so |lambda_2| is squared to 6.1e-11 and 9.0e-12, between
    # the floor and 1e-9, and the gap per period doubles.  An entry error
    # eps of U_T moves ln |lambda_2| by at most about 9 eps / |lambda_2|.
    p = preset("C-II").with_(gamma_12=5.0, gamma_23=5.0)
    s, r = solve(p, drive), solve(rescaled(p, 2.0), drive)
    assert r["period"] == s["period"]
    lambda_2 = math.exp(-r["gap"])
    assert STEP_ERROR_TARGET < lambda_2 < 1e-9
    bound = 9.0 * STEP_ERROR_TARGET / lambda_2
    assert abs(r["gap"] - 2.0 * s["gap"]) <= bound

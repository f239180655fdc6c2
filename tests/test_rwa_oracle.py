import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamsim.model import ground_state, preset
from lamsim.rwa_oracle import NotTprError, lambda_eff, rwa_density_tpr

from conftest import rwa_propagator_tpr

times = st.floats(0.0, 40.0, allow_nan=False)
cases = st.sampled_from(["A-I", "B-I", "C-I"])


def test_lambda_eff_value():
    assert lambda_eff(preset("A-I")) == \
        pytest.approx(0.5 * np.hypot(1.12, 1.0))


class TestPropagator:
    @given(t=times, case=cases)
    @settings(max_examples=60, deadline=None)
    def test_unitary(self, t, case):
        u = rwa_propagator_tpr(preset(case), t)
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)

    def test_identity_at_zero(self):
        assert np.allclose(rwa_propagator_tpr(preset("A-I"), 0.0), np.eye(3))

    @given(t=times, case=cases)
    @settings(max_examples=30, deadline=None)
    def test_composition(self, t, case):
        p = preset(case)
        u1 = rwa_propagator_tpr(p, t)
        u2 = rwa_propagator_tpr(p, 2.0 * t)
        assert np.allclose(u1 @ u1, u2, atol=1e-10)


class TestDensity:
    @given(t=times, case=cases)
    @settings(max_examples=60, deadline=None)
    def test_consistent_with_propagator(self, t, case):
        # the closed forms must satisfy rho(t) = U(t) |1><1| U(t)^dag
        p = preset(case)
        u = rwa_propagator_tpr(p, t)
        expected = u @ ground_state() @ u.conj().T
        assert np.allclose(rwa_density_tpr(p, t), expected, atol=1e-12)

    @given(t=times, case=cases)
    @settings(max_examples=40, deadline=None)
    def test_valid_state(self, t, case):
        rho = rwa_density_tpr(preset(case), t)
        assert np.isclose(np.trace(rho), 1.0)
        assert np.allclose(rho, rho.conj().T)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-12

    def test_initial_state(self):
        assert np.allclose(rwa_density_tpr(preset("A-I"), 0.0),
                           ground_state())


class TestPreconditions:
    def test_detuned_rejected(self):
        with pytest.raises(NotTprError):
            rwa_density_tpr(preset("A-I", delta_omega_p=0.1), 1.0)

    def test_zero_drive_rejected(self):
        p = preset("A-I").with_(rabi_p=0.0, rabi_c=0.0)
        with pytest.raises(NotTprError):
            lambda_eff(p)

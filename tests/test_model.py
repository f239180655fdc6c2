import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamsim import magnus, model
from lamsim.model import (DIM, LDIM, PRESET_NAMES, LambdaParams,
                          closed_generator, frame_rates, ground_state, h0,
                          jump_operators, lindbladian, liouville_generator,
                          preset, unvec, vec)
from lamsim.sweep import to_rwf

from conftest import (h_rwf, h_sr, h_sr_rwa, hamiltonian, liouvillian,
                      random_complex_matrix)

times = st.floats(-50.0, 50.0, allow_nan=False)


def random_density(rng) -> np.ndarray:
    a = random_complex_matrix(rng, DIM)
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestParams:
    def test_preset_table(self):
        p = preset("A-II")
        assert (p.e2, p.e3, p.omega_p, p.omega_c) == (6.0, 2.0, 6.0, 4.0)
        assert (p.rabi_c, p.rabi_p) == (1.12, 1.00)
        assert (p.gamma_12, p.gamma_23) == (0.9, 1.0)
        assert preset("B-I").rabi_c == 0.2
        assert preset("C-II").rabi_c == 10.0
        assert not preset("C-I").is_dissipative

    def test_all_presets_construct(self):
        for name in PRESET_NAMES:
            assert isinstance(preset(name), LambdaParams)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("D-I")
        with pytest.raises(KeyError):
            preset("A-III")

    def test_detuning(self):
        p = preset("A-I", delta_omega_p=0.3, delta_omega_c=-0.2)
        assert p.omega_p == pytest.approx(6.3)
        assert p.omega_c == pytest.approx(3.8)

    def test_lambda_ordering_enforced(self):
        with pytest.raises(ValueError):
            LambdaParams(e2=1.0, e3=2.0, omega_p=1.0, omega_c=1.0,
                         rabi_p=1.0, rabi_c=1.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            LambdaParams.tpr(rabi_p=1.0, rabi_c=1.0, gamma_12=-0.1)

    @pytest.mark.parametrize("field", ["rabi_p", "rabi_c", "gamma_12",
                                       "gamma_23", "nbar_12", "nbar_23"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        kwargs = dict(rabi_p=1.0, rabi_c=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match="finite"):
            LambdaParams.tpr(**kwargs)

    @pytest.mark.parametrize("field", ["e1", "e2", "e3", "omega_p",
                                       "omega_c"])
    def test_non_finite_level_or_frequency_rejected(self, field):
        kwargs = dict(e2=6.0, e3=2.0, omega_p=6.0, omega_c=4.0, rabi_p=1.0,
                      rabi_c=1.0)
        kwargs[field] = np.nan
        with pytest.raises(ValueError, match="finite"):
            LambdaParams(**kwargs)

    @settings(max_examples=300, deadline=None)
    @given(st.fixed_dictionaries(
        {f.name: st.floats() | st.floats(-10.0, 10.0)
         for f in dataclasses.fields(LambdaParams)}))
    def test_arbitrary_floats_raise_only_value_error(self, kwargs):
        # NaN and +-inf included; a valid draw constructs
        try:
            LambdaParams(**kwargs)
        except ValueError:
            pass

    def test_with_(self):
        p = preset("A-I").with_(rabi_p=2.0)
        assert p.rabi_p == 2.0 and p.rabi_c == 1.12


class TestHamiltonians:
    @given(t=times)
    @settings(max_examples=40, deadline=None)
    def test_hermitian(self, t):
        p = preset("A-I")
        for rwa in (False, True):
            h = hamiltonian(p, t, rwa)
            assert np.allclose(h, h.conj().T)

    def test_drive_at_zero(self, case_a):
        h = h_sr(case_a, 0.0)
        assert h[0, 1] == pytest.approx(-case_a.rabi_p)
        assert h[1, 2] == pytest.approx(-case_a.rabi_c)
        assert h[0, 2] == 0.0

    @given(t=times)
    @settings(max_examples=40, deadline=None)
    def test_full_drive_is_co_plus_counter_rotating(self, t):
        # the exact drive splits into the co-rotating term and its
        # time-reversed (counter-rotating) partner
        p = preset("B-I")
        assert np.allclose(h_sr(p, t), h_sr_rwa(p, t) + h_sr_rwa(p, -t))

    def test_bare_energies(self, case_a):
        assert np.allclose(np.diag(h0(case_a)), [0.0, 6.0, 2.0])

    def test_rwf_hamiltonian_tpr_eigenvalues(self, case_a):
        lam = 0.5 * np.hypot(case_a.rabi_c, case_a.rabi_p)
        vals = np.sort(np.linalg.eigvalsh(h_rwf(case_a)))
        assert np.allclose(vals, [-lam, 0.0, lam], atol=1e-12)

    @given(t=times)
    @settings(max_examples=20, deadline=None)
    def test_rwf_generator_identity(self, t):
        # W^dag H(t) W - i W^dag dW/dt must equal the static rotating-frame
        # Hamiltonian (checked with a central finite difference), W(t) =
        # F(t)^dag = diag(e^{-i theta t}), theta = frame_rates(p)
        p = preset("A-I", delta_omega_p=0.1)

        def frame(s):
            return np.diag(np.exp(-1j * frame_rates(p) * s))

        w = frame(t)
        eps = 1e-6
        dw = (frame(t + eps) - frame(t - eps)) / (2 * eps)
        h_frame = w.conj().T @ hamiltonian(p, t, rwa=True) @ w \
            - 1j * w.conj().T @ dw
        assert np.allclose(h_frame, h_rwf(p), atol=1e-6)

    def test_rwf_transform_preserves_diagonal(self, rng, case_a):
        rho = random_density(rng)
        out = to_rwf(rho, case_a, 0.37)
        assert np.allclose(np.diag(out), np.diag(rho))

    def test_frame_rates_lift_to_vec_rho(self):
        p = preset("A-II", delta_omega_p=0.1)
        theta = frame_rates(p)
        assert np.array_equal(theta, [0.0, p.omega_p, p.omega_p - p.omega_c])
        lifted = frame_rates(p, LDIM).reshape(DIM, DIM)
        for i in range(DIM):
            for j in range(DIM):
                assert lifted[i, j] == theta[i] - theta[j]
        with pytest.raises(KeyError):
            frame_rates(p, 6)

    def test_rwf_transform_keeps_diagonal_bits(self, rng):
        # the diagonal rates of frame_rates(p, LDIM) are exactly 0, so each
        # population is multiplied by e^0 = 1; a product conj(w) w of the
        # amplitude phases w = e^{-ix} is 1 only to rounding (2.2e-16)
        p = preset("A-II", delta_omega_p=0.1)
        times = np.sort(rng.uniform(0.0, 50.0, 400))
        rho = np.array([random_density(rng) for _ in times])
        out = to_rwf(rho, p, times)
        assert np.array_equal(np.einsum("tii->ti", out),
                              np.einsum("tii->ti", rho))
        f = np.exp(1j * frame_rates(p) * times[:, None])  # on amplitudes
        assert np.allclose(out, f[:, :, None] * rho * f.conj()[:, None, :],
                           rtol=0.0, atol=1e-13)


class TestVectorization:
    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, seed):
        a = random_complex_matrix(np.random.default_rng(seed), DIM)
        assert np.allclose(unvec(vec(a)), a)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_triple_product(self, seed):
        r = np.random.default_rng(seed)
        a, rho, c = (random_complex_matrix(r, DIM) for _ in range(3))
        assert np.allclose(np.kron(a, c.T) @ vec(rho), vec(a @ rho @ c))

    def test_liouvillian_is_commutator(self, rng, case_a):
        rho = random_density(rng)
        t = 0.83
        h = hamiltonian(case_a, t, rwa=False)
        direct = h @ rho - rho @ h
        assert np.allclose(unvec(liouvillian(case_a, t) @ vec(rho)), direct)


class TestLindbladian:
    def test_matches_explicit_dissipator(self, rng):
        p = preset("A-II")
        rho = random_density(rng)
        expected = np.zeros((DIM, DIM), dtype=complex)
        for op, rate in jump_operators(p):
            ldl = op.conj().T @ op
            expected += rate * (op @ rho @ op.conj().T
                                - 0.5 * (ldl @ rho + rho @ ldl))
        assert np.allclose(unvec(lindbladian(p) @ vec(rho)), expected)

    def test_closed_case_is_zero(self):
        assert np.allclose(lindbladian(preset("A-I")), 0.0)

    def test_annihilates_trace(self):
        # trace preservation: the identity functional is a left null vector
        ident = np.eye(DIM).reshape(LDIM)
        assert np.allclose(ident @ lindbladian(preset("C-II")), 0.0,
                           atol=1e-14)

    def test_thermal_channels_enter(self):
        p = preset("A-II").with_(nbar_12=0.5)
        assert not np.allclose(lindbladian(p),
                               lindbladian(preset("A-II")))


class TestGenerators:
    @given(t=times)
    @settings(max_examples=20, deadline=None)
    def test_closed_generator(self, t):
        p = preset("A-I")
        g = closed_generator(p, rwa=False)
        assert np.allclose(g(t), -1j * hamiltonian(p, t, rwa=False))
        assert g.dim == DIM

    @given(t=times, rwa=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_liouville_generator_assembly(self, t, rwa):
        p = preset("B-II")
        g = liouville_generator(p, rwa=rwa)
        expected = -1j * liouvillian(p, t, rwa=rwa) + lindbladian(p)
        assert np.allclose(g(t), expected, atol=1e-13)
        assert g.dim == LDIM

    @pytest.mark.parametrize("rwa", [False, True])
    def test_array_of_times_matches_pointwise(self, rwa):
        times = np.linspace(-3.0, 7.0, 12).reshape(3, 4)
        p = preset("A-II")
        gh = closed_generator(p, rwa=rwa)
        gl = liouville_generator(p, rwa=rwa)
        out_h = gh(times)
        out_l = gl(times)
        assert out_h.shape == (3, 4, DIM, DIM)
        assert out_l.shape == (3, 4, LDIM, LDIM)
        for idx in np.ndindex(times.shape):
            t = times[idx]
            assert np.allclose(out_h[idx], -1j * hamiltonian(p, t, rwa=rwa),
                               atol=1e-13)
            expected = -1j * liouvillian(p, t, rwa=rwa) + lindbladian(p)
            assert np.allclose(out_l[idx], expected, atol=1e-13)

    def test_dissipation_override(self):
        p = preset("A-II")
        g = liouville_generator(p, dissipative=False)
        assert np.allclose(g(0.1), -1j * liouvillian(p, 0.1), atol=1e-13)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("rwa", [False, True])
    def test_same_bits_as_np_kron(self, monkeypatch, name, rwa):
        p = preset(name)
        built = [closed_generator(p, rwa), liouville_generator(p, rwa)]
        monkeypatch.setattr(model, "kron", np.kron)
        monkeypatch.setattr(magnus, "kron", np.kron)
        for g, want in zip(built, [closed_generator(p, rwa),
                                   liouville_generator(p, rwa)]):
            assert np.array_equal(g.a0, want.a0)
            assert np.array_equal(g.terms, want.terms)
            assert np.array_equal(g._table, want._table)
            assert np.array_equal(g._real._table, want._real._table)


def test_ground_state():
    rho = ground_state()
    assert rho[0, 0] == 1.0 and np.trace(rho) == 1.0
    assert np.count_nonzero(rho) == 1

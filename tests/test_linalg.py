import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lamsim import analysis, magnus
from lamsim.linalg import (_INV_FACTORIAL, _TAYLOR8_THETA, _TAYLOR12_THETA,
                           _TAYLOR16_THETA, _TAYLOR25_THETA, _TAYLOR_DEGREES,
                           DimensionError, _taylor, expm, frobenius_norm,
                           hermitian_coordinates, kron)
from lamsim.model import liouville_generator, preset
from lamsim.periodic import MIN_STEPS

from conftest import expm_eig, random_complex_matrix


@pytest.fixture(autouse=True, scope="module")
def no_linear_solve():
    """Every expm in this module runs with np.linalg.solve disabled: no
    tier and no squaring phase takes a linear solve."""
    def refuse(*args, **kwargs):
        raise AssertionError("expm took a linear solve")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", refuse)
        yield


def expm_series(a: np.ndarray, terms: int = 64) -> np.ndarray:
    """Independent Taylor-series oracle: the series of a / 2^s, 1-norm at
    most 1, squared s times.  Unscaled, the series of a matrix of 1-norm
    9.6 loses 1e-13 to cancellation in terms of size e^9.6 / 2."""
    squarings = max(0, math.ceil(math.log2(max(np.abs(a).sum(axis=0).max(),
                                                1e-300))))
    a = a / 2.0 ** squarings
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        d = np.array([1.0 + 2.0j, -0.5, 3.0j])
        assert np.allclose(expm(np.diag(d)), np.diag(np.exp(d)))

    @given(seed=st.integers(0, 10 ** 6), n=st.sampled_from([2, 3, 9]),
           scale=st.floats(0.01, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_matches_series_oracle(self, seed, n, scale):
        a = random_complex_matrix(np.random.default_rng(seed), n, scale)
        assert np.allclose(expm(a), expm_series(a), atol=1e-12), \
            "disagrees with Taylor-series oracle"

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_inverse_identity(self, seed):
        a = random_complex_matrix(np.random.default_rng(seed), 3)
        assert np.allclose(expm(a) @ expm(-a), np.eye(3), atol=1e-10)

    @given(seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_determinant_is_exp_trace(self, seed):
        a = random_complex_matrix(np.random.default_rng(seed), 3)
        assert np.isclose(np.linalg.det(expm(a)), np.exp(np.trace(a)))

    def test_large_norm_scaling(self):
        # norm far above theta_25 exercises the squaring phase
        a = 50.0 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        expected = np.array([[math.cos(50.0), math.sin(50.0)],
                             [-math.sin(50.0), math.cos(50.0)]])
        assert np.allclose(expm(a), expected, atol=1e-11)

    def test_anti_hermitian_gives_unitary(self, rng):
        h = random_complex_matrix(rng, 3)
        h = h + h.conj().T
        u = expm(-1j * h)
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-13)

    def test_stack_matches_single_matrices(self, rng):
        # one small and one large norm: per-matrix squaring counts differ
        stack = np.array([random_complex_matrix(rng, 3, 0.01),
                          random_complex_matrix(rng, 3, 8.0),
                          random_complex_matrix(rng, 3, 1.0)])
        out = expm(stack.reshape(3, 1, 3, 3))
        assert out.shape == (3, 1, 3, 3)
        for a, e in zip(stack, out[:, 0]):
            assert np.allclose(e, expm(a), rtol=1e-13, atol=1e-13)
        assert np.allclose(out[0, 0], expm_series(stack[0]), atol=1e-12)

    def test_stack_non_finite_input_raises(self):
        stack = np.zeros((2, 2, 2))
        stack[1, 0, 0] = np.inf
        with pytest.raises(FloatingPointError):
            expm(stack)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            expm(np.zeros((4, 2, 3)))

    def test_non_finite_input_raises(self):
        with pytest.raises(FloatingPointError):
            expm(np.array([[1e308, 1e308], [1e308, 1e308]]))


def _at_norm(rng, n, norm):
    a = random_complex_matrix(rng, n)
    return a * (norm / np.abs(a).sum(axis=0).max())


class _ThresholdChecks:
    """Stacks on both sides of a Taylor branch's 1-norm bound THETA."""

    THETA: float

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [3, 9])
    def test_matches_series_near_threshold(self, rng, n, factor):
        stack = np.array([_at_norm(rng, n, factor * self.THETA)
                          for _ in range(8)])
        out = expm(stack)
        for a, e in zip(stack, out):
            assert np.allclose(e, expm_series(a), rtol=1e-13, atol=0.0)

    def test_stack_straddling_threshold(self, rng):
        norms = [0.1 * self.THETA, 0.99 * self.THETA, 1.01 * self.THETA,
                 3.0 * self.THETA]
        stack = np.array([_at_norm(rng, 9, x) for x in norms])
        out = expm(stack)
        for a, e in zip(stack, out):
            assert np.allclose(e, expm_series(a), rtol=1e-13, atol=0.0)
            assert np.allclose(e, expm(a), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [3, 9])
    def test_diagonal_at_threshold(self, n):
        # |d^k| = THETA^k: the Taylor tail is as large as the bound admits
        d = self.THETA * np.exp(2j * np.pi * np.arange(n) / n)
        assert np.allclose(expm(np.diag(d)), np.diag(np.exp(d)),
                           rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", [3, 9])
    def test_anti_hermitian_gives_unitary(self, rng, n):
        h = np.array([random_complex_matrix(rng, n) for _ in range(8)])
        a = -1j * (h + h.conj().transpose(0, 2, 1))
        a *= self.THETA / np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None]
        u = expm(a)
        defect = u @ u.conj().transpose(0, 2, 1) - np.eye(n)
        assert np.max(np.abs(defect)) <= 1e-15


class TestTaylorBranch(_ThresholdChecks):
    """Stacks with 1-norm at most theta_8 take the degree-8 Taylor
    polynomial, larger ones a higher Taylor tier or scaling and squaring
    on the degree-25 one."""

    THETA = _TAYLOR8_THETA

    @given(seed=st.integers(0, 10 ** 6), n=st.sampled_from([2, 3, 9]),
           log_norm=st.floats(-7.0, 1.0))
    @example(seed=128970, n=2, log_norm=0.984375)  # cancels unscaled
    @settings(max_examples=60, deadline=None)
    def test_random_stacks_match_series(self, seed, n, log_norm):
        # 1-norms from 1e-8 to 10, within a stack spread over a decade
        rng = np.random.default_rng(seed)
        stack = np.array([_at_norm(rng, n, 10.0 ** log_norm * x)
                          for x in rng.uniform(0.1, 1.0, size=4)])
        out = expm(stack)
        for a, e in zip(stack, out):
            assert np.allclose(e, expm_series(a), rtol=1e-12, atol=1e-13)


class TestTaylor12Branch(_ThresholdChecks):
    """Stacks with 1-norm above theta_8 and at most theta_12 take the
    degree-12 Taylor polynomial, larger ones the degree-16 or degree-25
    polynomial; the straddling stack, whose largest norm is 3 theta_12,
    takes the degree-25 one."""

    THETA = _TAYLOR12_THETA


class TestTaylor16Branch(_ThresholdChecks):
    """Stacks with 1-norm above theta_12 and at most theta_16 take the
    degree-16 Taylor polynomial; the straddling stack takes degree 25."""

    THETA = _TAYLOR16_THETA


class TestTaylor25Branch(_ThresholdChecks):
    """Stacks with 1-norm above theta_16 and at most theta_25 take the
    degree-25 Taylor polynomial, larger ones scaling and squaring on it,
    which the straddling stack and the factor-2 stacks take."""

    THETA = _TAYLOR25_THETA


class TestAboveTopTier:
    """Scaling and squaring on the degree-25 polynomial far above theta_25,
    checked against the eigendecomposition."""

    @pytest.mark.parametrize("norm", [3.0, 93.0, 1e4])
    @pytest.mark.parametrize("n", [3, 9])
    def test_anti_hermitian_matches_eig(self, rng, n, norm):
        # the eigenvector oracle's own rounding grows with the norm
        h = random_complex_matrix(rng, n)
        a = -1j * (h + h.conj().T)
        a *= norm / np.abs(a).sum(axis=0).max()
        assert np.max(np.abs(expm(a) - expm_eig(a))) <= 1e-15 * norm

    def test_overflow_in_the_squarings_raises(self):
        # a finite input whose exponential overflows only while squaring
        with np.errstate(over="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite"):
            expm(np.array([[710.0]]))

    def test_exact_route_doubling_stack(self):
        # exp(2^i dt B) for C-II's rotating-frame generator B at the step
        # floor, 1-norms 0.36 .. 93 (doubling stack of magnus's exact route)
        g = liouville_generator(preset("C-II"), rwa=True)
        b = g(0.0) - 1j * np.diag(g.frame)
        dt = 2.0 * np.pi / MIN_STEPS
        stack = np.multiply.outer(
            dt * 2.0 ** np.arange(MIN_STEPS.bit_length()), b)
        # five or more squarings for the largest
        assert np.abs(stack[-1]).sum(axis=0).max() > 32 * _TAYLOR25_THETA
        for e, a in zip(expm(stack), stack):
            want = expm_eig(a)
            assert np.max(np.abs(e - want)) <= 1e-14 * np.max(np.abs(want))


class TestRealInput:
    """A real stack stays real in every branch, and matches the result of
    the same matrices given as complex input."""

    @pytest.mark.parametrize("norm", [0.5 * _TAYLOR8_THETA, _TAYLOR8_THETA,
                                      2.0 * _TAYLOR8_THETA, _TAYLOR12_THETA,
                                      0.5, _TAYLOR16_THETA, 1.5,
                                      _TAYLOR25_THETA, 3.0, 40.0])
    @pytest.mark.parametrize("n", [3, 9])
    def test_real_stack_stays_real(self, rng, n, norm):
        # degree-8 Taylor at and below theta_8, then degree 12, 16 and 25
        # up to theta_12, theta_16 and theta_25; degree 25 with squarings
        # above that
        a = rng.standard_normal((5, n, n))
        a *= norm / np.abs(a).sum(axis=-2).max(axis=-1)[:, None, None]
        out = expm(a)
        assert out.dtype == np.float64
        want = expm(a.astype(complex))
        assert want.dtype == complex
        assert np.max(np.abs(out - want)) <= 1e-15 * np.max(np.abs(want))


def _taylor_plain(a, degree):
    """The Paterson-Stockmeyer evaluation as plain sums of scaled powers,
    over ceil(degree / s) blocks."""
    c, diag = _INV_FACTORIAL, np.arange(a.shape[-1])
    s = math.isqrt(degree - 1) + 1
    r = math.ceil(degree / s) - 1
    powers = [a]
    for _ in range(s - 1):
        powers.append(powers[-1] @ a)
    out = 0.0
    for j in range(r, -1, -1):
        top = degree if j == r else s * j + s - 1
        block = c[s * j + 1] * a
        for i in range(s * j + 2, top + 1):
            block = block + c[i] * powers[i - s * j - 1]
        out = block + (powers[-1] @ out if j < r else 0.0)
        out[:, diag, diag] += c[s * j]
    return out


def test_tiers_are_ordered_and_bounded_by_their_tails():
    # each theta's first neglected term theta^(m+1) / (m+1)! is <= 1e-17
    assert [m for _, m in _TAYLOR_DEGREES] == [8, 12, 16, 25]
    thetas = [theta for theta, _ in _TAYLOR_DEGREES]
    assert thetas == sorted(thetas)
    for theta, m in _TAYLOR_DEGREES:
        assert theta ** (m + 1) / math.factorial(m + 1) <= 1e-17
    assert np.allclose(_INV_FACTORIAL, [1.0 / math.factorial(k)
                                        for k in range(26)],
                       rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("degree", [m for _, m in _TAYLOR_DEGREES])
@pytest.mark.parametrize("dtype", [float, complex])
def test_taylor_adds_in_the_order_of_the_plain_sum(rng, degree, dtype):
    a = 0.03 * rng.standard_normal((100, 9, 9))
    if dtype is complex:
        a = a + 0.03j * rng.standard_normal((100, 9, 9))
    assert np.array_equal(_taylor(a, degree), _taylor_plain(a, degree))


class TestMemoryLayout:
    """A transposed or otherwise non-C-ordered input gives the bits of its
    C-ordered copy in every branch."""

    # Taylor 8, 12, 16, 25, 25 with squarings
    @pytest.mark.parametrize("norm", [0.01, 0.2, 0.5, 2.0, 3.0])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_transposed_matrix(self, rng, norm, dtype):
        a = rng.standard_normal((9, 9)).astype(dtype)
        a *= norm / np.max(np.sum(np.abs(a), axis=0))
        assert np.array_equal(expm(a.T), expm(np.ascontiguousarray(a.T)))

    @pytest.mark.parametrize("norm", [0.01, 0.2, 0.5, 2.0, 3.0])
    def test_swapped_stack(self, rng, norm):
        a = np.array([random_complex_matrix(rng, 3) for _ in range(5)])
        a *= norm / np.max(np.sum(np.abs(a), axis=-2))
        t = np.swapaxes(a, -1, -2)
        assert np.array_equal(expm(t), expm(np.ascontiguousarray(t)))

    def test_transposed_zero_is_identity(self):
        assert np.array_equal(expm(np.zeros((3, 3)).T), np.eye(3))


class TestKron:
    """The broadcast product has np.kron's entries, bit for bit."""

    def test_operators(self, rng):
        a, b = random_complex_matrix(rng, 3), random_complex_matrix(rng, 3)
        for x, y in [(a, b), (a, a.conj()), (a, np.eye(3)), (np.eye(3), b)]:
            assert np.array_equal(kron(x, y), np.kron(x, y))

    def test_stacks(self, rng):
        h = np.array([random_complex_matrix(rng, 3) for _ in range(4)])
        ident = np.eye(3)
        for x, y in [(h, ident), (ident, np.swapaxes(h, -1, -2)),
                     (h, random_complex_matrix(rng, 3))]:
            assert kron(x, y).shape == (4, 9, 9)
            assert np.array_equal(kron(x, y), np.kron(x, y))


class TestHermitianCoordinates:
    """S and S^-1 have exact entries, so a change of coordinates only adds
    and halves, and every Hermiticity-preserving map is real in them."""

    @staticmethod
    def _entries_in(a, allowed):
        return set(np.unique(a).tolist()) <= set(allowed)

    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_inverse(self, n):
        s, s_inv = hermitian_coordinates(n)
        assert s.shape == s_inv.shape == (n * n, n * n)
        assert np.array_equal(s_inv @ s, np.eye(n * n))
        assert self._entries_in(s, [0, 1, -1, 1j, -1j])
        assert self._entries_in(s_inv, [0, 1, 0.5, -0.5, 0.5j, -0.5j])
        assert not (s.flags.writeable or s_inv.flags.writeable)

    @pytest.mark.parametrize("n", [2, 3])
    def test_map_back_is_exact(self, n):
        s, s_inv = hermitian_coordinates(n)
        to_vec = kron(s, s_inv.T)
        assert np.array_equal(to_vec, np.kron(s, s_inv.T))
        assert self._entries_in(to_vec, [0, 1, -1, 0.5, -0.5, 1j, -1j,
                                         0.5j, -0.5j])
        to_vec_t = magnus._from_hermitian(n)
        assert np.array_equal(to_vec_t, to_vec.T)
        assert to_vec_t.flags.c_contiguous and not to_vec_t.flags.writeable

    @pytest.mark.parametrize("n", [2, 3])
    def test_hermiticity_preserving_map_is_real(self, rng, n):
        # X -> A X B + B^dag X A^dag maps Hermitian X to Hermitian X
        a, b = random_complex_matrix(rng, n), random_complex_matrix(rng, n)
        lmap = kron(a, b.T) + kron(b.conj().T, a.conj())
        s, s_inv = hermitian_coordinates(n)
        real = s_inv @ lmap @ s
        assert np.max(np.abs(real.imag)) <= 1e-14 * np.max(np.abs(real))

    def test_one_pair_shared(self):
        pair = hermitian_coordinates(3)
        assert hermitian_coordinates(3) is pair
        assert analysis.hermitian_coordinates is hermitian_coordinates
        assert magnus.hermitian_coordinates is hermitian_coordinates


def test_frobenius_norm_value():
    assert frobenius_norm(np.array([[3.0, 0.0], [0.0, 4.0j]])) == \
        pytest.approx(5.0)

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lamsim.linalg import expm, frobenius_norm, hermitian_coordinates
from lamsim.magnus import (_NODES4, _NODES6, _STEPPERS, CHUNK_STEPS,
                           Generator, MagnusOrder, _exponent4, _exponent6,
                           _probe_fractions, _propagate_grids,
                           _running_products, propagate, step, step4, step6)
from lamsim.model import (LambdaParams, closed_generator, lindbladian,
                          liouville_generator, preset)
from lamsim.periodic import (MIN_STEPS, _repeats, commensurate_period,
                             make_plan)

from conftest import expm_eig, h_rwf, random_complex_matrix


def constant_generator(a: np.ndarray) -> Generator:
    return Generator(a)


def without_frame(g: Generator) -> Generator:
    """The same affine generator with no frame: it takes Magnus steps."""
    return Generator(g.a0, g.terms, g.coefficients)


# Pointwise references: the Magnus exponents built from the generator's
# node samples with explicit nested commutators.

def _comm(a, b):
    return a @ b - b @ a


def _node_samples(g, t, dt, nodes):
    a = g(np.asarray(t, dtype=float)[..., None] + dt * nodes)
    return a[..., 0, :, :], a[..., 1, :, :], a[..., 2, :, :]


def reference_exponent4(g, t, dt):
    a0, am, a1 = _node_samples(g, t, dt, _NODES4)
    return (dt / 6.0) * (a0 + 4.0 * am + a1) \
        + (dt * dt / 12.0) * _comm(a1, a0)


def reference_exponent6(g, t, dt):
    a1, a2, a3 = _node_samples(g, t, dt, _NODES6)
    b1 = dt * a2
    b2 = (np.sqrt(15.0) / 3.0) * dt * (a3 - a1)
    b3 = (10.0 / 3.0) * dt * (a3 - 2.0 * a2 + a1)
    c1 = _comm(b1, b2)
    c2 = (-1.0 / 60.0) * _comm(b1, 2.0 * b3 + c1)
    return b1 + b3 / 12.0 \
        + (1.0 / 240.0) * _comm(-20.0 * b1 - b3 + c1, b2 + c2)


class TestExactness:
    @given(seed=st.integers(0, 10 ** 6), dt=st.floats(1e-3, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_time_independent_is_exact(self, seed, dt):
        # for constant generators a single step is the exact exponential
        a = random_complex_matrix(np.random.default_rng(seed), 3)
        g = constant_generator(a)
        exact = expm(dt * a)
        assert np.allclose(step4(g, 0.0, dt), exact, atol=1e-12)
        assert np.allclose(step6(g, 0.0, dt), exact, atol=1e-12)

    @given(dt=st.floats(1e-4, 0.2), t=st.floats(0.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_closed_steps_are_unitary(self, dt, t):
        g = closed_generator(preset("A-I"), rwa=False)
        for order in MagnusOrder:
            u = step(g, t, dt, order)
            assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


class TestConvergenceOrder:
    def _one_step_error(self, order, dt):
        g = closed_generator(preset("A-I"), rwa=False)
        ref = propagate(g, 0.0, dt, 200, order=MagnusOrder.ORDER6)
        return frobenius_norm(step(g, 0.0, dt, order) - ref)

    def test_order4_ratio(self):
        e1 = self._one_step_error(MagnusOrder.ORDER4, 0.2)
        e2 = self._one_step_error(MagnusOrder.ORDER4, 0.1)
        assert 20.0 < e1 / e2 < 45.0  # local error O(dt^5) halves as ~32x

    def test_order6_ratio(self):
        e1 = self._one_step_error(MagnusOrder.ORDER6, 0.2)
        e2 = self._one_step_error(MagnusOrder.ORDER6, 0.1)
        assert 90.0 < e1 / e2 < 170.0  # local error O(dt^7) halves as ~128x


class TestPropagate:
    def test_composition(self):
        g = closed_generator(preset("B-I"), rwa=True)
        whole = propagate(g, 0.0, 1.0, 8)
        first = propagate(g, 0.0, 0.5, 4)
        second = propagate(g, 0.5, 1.0, 4)
        assert np.allclose(second @ first, whole, atol=1e-13)

    def test_intermediate_list(self):
        g = closed_generator(preset("A-I"))
        cum = propagate(g, 0.0, 1.0, 5, return_intermediate=True)
        assert cum.shape == (6, 3, 3)
        assert np.allclose(cum[0], np.eye(3))
        assert np.allclose(cum[-1], propagate(g, 0.0, 1.0, 5))

    @pytest.mark.parametrize("build", [closed_generator, liouville_generator])
    def test_propagator_is_the_stacks_last_row(self, build):
        # Magnus steps: the propagator alone and the stack's last row are
        # one running product, also across chunks and their blocks
        p = preset("B-II", delta_omega_p=0.5)
        g = build(p)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        for steps in (1, 3, 256, 257, CHUNK_STEPS + 1, 2 * CHUNK_STEPS + 3):
            stack = propagate(g, 0.0, period, steps, return_intermediate=True)
            assert np.array_equal(propagate(g, 0.0, period, steps),
                                  stack[-1]), steps

    def test_overflow_raises(self):
        # q = 200 on 256 steps: finite step maps whose product overflows
        p = preset("B-II", delta_omega_p=0.005)
        g = liouville_generator(p)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                FloatingPointError, match="product of 256 Magnus steps"):
            propagate(g, 0.0, period, 256)

    def test_stack_takes_a_few_chunks_of_temporaries(self):
        # A-II's full drive over one period on its 8,191 default steps,
        # with the cumulative stack in the vec basis (10.1 MiB): the call
        # peaks within the stack and five (CHUNK_STEPS, 9, 9) complex
        # stacks (the batch's steps, their running products and the vec
        # map of one chunk; 4.1 measured), so a second copy of the stack
        # or a whole-period temporary does not fit.
        p = preset("A-II")
        g = liouville_generator(p)
        period, steps = commensurate_period(p.omega_p, p.omega_c)
        propagate(g, 0.0, period, 1)  # builds the cached tables
        tracemalloc.start()
        try:
            stack = propagate(g, 0.0, period, steps, return_intermediate=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = stack.nbytes + 5 * CHUNK_STEPS * stack[0].nbytes
        assert bound < 2 * stack.nbytes
        assert peak <= bound, (f"{peak / 2**20:.2f} MiB, above "
                               f"{bound / 2**20:.2f} MiB")

    def test_input_validation(self):
        g = constant_generator(np.eye(2))
        with pytest.raises(ValueError):
            propagate(g, 1.0, 1.0, 4)
        with pytest.raises(ValueError):
            propagate(g, 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            step4(g, 0.0, -0.1)


class TestGeneratorType:
    def test_shape_check(self):
        # shapes are checked once, when the generator is built
        with pytest.raises(ValueError):
            Generator(np.eye(3), terms=np.ones((1, 2, 2)),
                      coefficients=lambda t: np.ones(t.shape + (1,)))
        with pytest.raises(ValueError):
            Generator(np.eye(3), terms=np.ones((2, 3, 3)),
                      coefficients=lambda t: np.ones(t.shape + (1,)))
        with pytest.raises(ValueError):
            Generator(np.ones((2, 3)))

    def test_call_returns_complex(self):
        g = Generator(np.eye(2, dtype=float))
        assert g(0.0).dtype == complex

    def test_array_of_times(self):
        a0 = np.diag([1.0, 2.0])
        a1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = Generator(a0, terms=[a1],
                      coefficients=lambda t: np.cos(t)[..., None])
        times = np.linspace(0.0, 3.0, 6).reshape(2, 3)
        out = g(times)
        assert out.shape == (2, 3, 2, 2)
        for idx in np.ndindex(times.shape):
            assert np.allclose(out[idx], a0 + np.cos(times[idx]) * a1)
        assert g(0.5).shape == (2, 2)


class TestSetUpWork:
    """Set-up work a generator's route does not read is skipped."""

    @pytest.mark.parametrize("rwa", [False, True])
    def test_commutator_table_is_built_on_first_magnus_use(self, rwa):
        # the frame route reads no table and builds no real copy; without
        # a frame, the real copy (Hermitian coordinates, or the closed
        # drive's realification) is built on first Magnus use, and only
        # its tables are read, in step as in propagate
        lazy = {"_pairs", "_table"}
        for g in (liouville_generator(preset("A-II"), rwa=rwa),
                  closed_generator(preset("A-II"), rwa=rwa)):
            if rwa:
                propagate(g, 0.0, np.pi, 8)
                assert not (lazy | {"_real"}) & vars(g).keys()
                g = without_frame(g)
            assert not (lazy | {"_real"}) & vars(g).keys()
            propagate(g, 0.0, np.pi, 8)
            assert not lazy & vars(g).keys()
            assert lazy <= vars(g._real).keys()
            for order in MagnusOrder:
                step(g, 0.25, 0.125, order)
            assert not lazy & vars(g).keys()

    @pytest.mark.parametrize("span", [2.0 * np.pi, np.pi, 0.7, 4000.0 * np.pi])
    def test_probe_times_are_the_seeded_uniform_draws(self, span):
        want = np.random.default_rng(1729).uniform(0.0, span, size=16)
        assert np.array_equal(span * _probe_fractions(), want)
        assert _probe_fractions() is _probe_fractions()
        assert not _probe_fractions().flags.writeable


class TestBatchedSteps:
    @pytest.mark.parametrize("order", list(MagnusOrder))
    def test_stack_matches_single_steps(self, order):
        g = closed_generator(preset("A-I"), rwa=False)
        times = np.array([0.0, 0.3, 1.7])
        stack = step(g, times, 0.01, order)
        assert stack.shape == (3, 3, 3)
        for t, u in zip(times, stack):
            assert np.max(np.abs(u - step(g, t, 0.01, order))) <= 1e-13

    @pytest.mark.parametrize("order", list(MagnusOrder))
    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("build,case", [(closed_generator, "A-I"),
                                            (liouville_generator, "C-II")])
    def test_propagate_equals_product_of_single_steps(self, build, case, rwa,
                                                      order):
        # CHUNK_STEPS + 7 steps cross one chunk boundary and end in a
        # ragged last chunk.  The RWA generators drop their frame, so the
        # chunked Magnus product is checked on the four-term quadrature
        # drive.  The single steps run on the complex tables, propagate on
        # the real ones.
        g = without_frame(build(preset(case), rwa=rwa))
        steps = CHUNK_STEPS + 7
        t1 = 1.3
        dt = t1 / steps
        cum = propagate(g, 0.0, t1, steps, order=order,
                        return_intermediate=True)
        u = np.eye(g.dim, dtype=complex)
        worst = 0.0
        for k in range(steps):
            u = _STEPPERS[order](g, k * dt, dt) @ u
            worst = max(worst, float(np.max(np.abs(cum[k + 1] - u))))
        assert worst <= 1e-13
        whole = propagate(g, 0.0, t1, steps, order=order)
        assert np.max(np.abs(whole - cum[-1])) <= 1e-13


class TestTabulatedExponents:
    DT = 2.0 * np.pi / 8191

    @staticmethod
    def _assert_matches(g, t, dt):
        for tabulated, reference in ((_exponent4, reference_exponent4),
                                     (_exponent6, reference_exponent6)):
            out, ref = tabulated(g, t, dt), reference(g, t, dt)
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("t", [0.37, "chunk"])
    @pytest.mark.parametrize("rwa", [False, True])
    @pytest.mark.parametrize("build,case", [(closed_generator, "A-I"),
                                            (liouville_generator, "C-II")])
    def test_match_nested_commutators(self, build, case, rwa, t):
        if t == "chunk":
            t = 0.1 + self.DT * np.arange(CHUNK_STEPS)
        self._assert_matches(build(preset(case), rwa=rwa), t, self.DT)

    def test_constant_generator(self, rng):
        # no drive terms: a one-row basis and empty commutator tables
        g = constant_generator(random_complex_matrix(rng, 3))
        self._assert_matches(g, 0.5, 0.01)
        self._assert_matches(g, 0.01 * np.arange(CHUNK_STEPS), 0.01)


class TestBlockedProduct:
    @pytest.mark.parametrize("n", [CHUNK_STEPS, 1000, 1])
    def test_whole_blocks_skip_the_padding(self, rng, n):
        # one more identity step makes the stack need padding; the first n
        # products are the same bits with or without it
        h = np.array([random_complex_matrix(rng, 9) for _ in range(n + 1)])
        unitaries = expm(0.1j * (h + np.conj(np.swapaxes(h, -1, -2))))
        u, steps = unitaries[0], unitaries[1:]
        padded = _running_products(
            [np.concatenate([steps, np.eye(9)[None]])], [u])[0][:n]
        assert np.array_equal(_running_products([steps.copy()], [u])[0],
                              padded)

    @pytest.mark.parametrize("n", [1, 31, 33, CHUNK_STEPS + 7])
    def test_matches_sequential_product(self, rng, n):
        # unitary steps, so the products stay of order one
        h = np.array([random_complex_matrix(rng, 9) for _ in range(n + 1)])
        unitaries = expm(0.1j * (h + np.conj(np.swapaxes(h, -1, -2))))
        u, steps = unitaries[0], unitaries[1:]
        out, = _running_products([steps], [u])
        assert out.shape == (n, 9, 9)
        worst = 0.0
        for s, blocked in zip(steps, out):
            u = s @ u
            worst = max(worst, float(np.max(np.abs(blocked - u))))
        assert worst <= 1e-13


    def test_one_scan_matches_each_chunk_alone(self, rng):
        # chunks of whole and of part blocks, each from its own entry
        h = np.array([random_complex_matrix(rng, 9) for _ in range(131)])
        unitaries = expm(0.1j * (h + np.conj(np.swapaxes(h, -1, -2))))
        entries = list(unitaries[:3])
        chunks = [unitaries[3:35], unitaries[35:36], unitaries[36:]]
        together = _running_products([c.copy() for c in chunks], entries)
        for chunk, u, got in zip(chunks, entries, together):
            assert np.array_equal(got, _running_products([chunk.copy()],
                                                         [u])[0])


class TestPropagateGrids:
    """_propagate_grids propagates several grids over one interval in one
    batched pass; each grid gets the bits of propagating it alone, in the
    generator's own coordinates, and with vec those of propagate."""

    @pytest.mark.parametrize("case, delta_omega_p", [
        ("A-II", 0.0), ("B-II", 0.0), ("C-II", 0.0), ("C-II", 0.05)])
    def test_ladder_matches_each_level_alone(self, case, delta_omega_p):
        # accurate_plan's first three levels over tau = T/r at the floor:
        # one batch of 32 + 64 + 128 steps at q = 1, single chunks at q = 20
        p = preset(case, delta_omega_p=delta_omega_p)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        g = liouville_generator(p)
        r, _ = _repeats(g, period)
        n = MIN_STEPS * round(period / (2.0 * np.pi)) // r
        grids = [(n // 2, False), (n, True), (2 * n, True)]
        self._assert_each_alone(g, period / r, grids, MagnusOrder.ORDER6)

    @pytest.mark.parametrize("order", list(MagnusOrder))
    @pytest.mark.parametrize("build", [closed_generator, liouville_generator])
    def test_merged_chunks_match_each_grid_alone(self, build, order):
        # chunks 100 | 1024 | 476 + 300 + 7: a grid's last chunk shares a
        # batch with the next grids
        g = build(preset("C-II"))
        grids = [(100, True), (CHUNK_STEPS + 476, True), (300, False),
                 (7, True)]
        self._assert_each_alone(g, 1.5, grids, order, t0=0.25)

    @staticmethod
    def _assert_each_alone(g, t1, grids, order, t0=0.0):
        batched = _propagate_grids(g, t0, t1, grids, order)
        for got, grid in zip(batched, grids):
            assert got.dtype == float
            assert np.array_equal(got, _propagate_grids(g, t0, t1, [grid],
                                                         order)[0])
        for got, (steps, stack) in zip(
                _propagate_grids(g, t0, t1, grids, order, vec=True), grids):
            assert np.array_equal(got, propagate(
                g, t0, t1, steps, order=order, return_intermediate=stack))


class TestFrameRoute:
    """The RWA generators declare the rotating frame, in which they are
    constant, so propagate returns Phi(t) exp((t - t0) A_rwf) Phi(t0)^-1
    to rounding, whatever the order and step count."""

    CASES = [("A-II", 0.0, 0.0), ("B-II", 0.0, 0.0), ("C-II", 0.0, 0.7),
             ("B-II", 0.5, 0.0),  # omega_p = 13/2: commensurate period q = 2
             ("B-II", 0.5, 0.7), ("closed-e1", 0.0, 0.0),
             ("closed-e1", 0.0, 0.7)]

    @staticmethod
    def _case(name, delta_omega_p):
        if name == "closed-e1":
            # e1 != 0: the lab propagator carries the global phase e^{-i e1 t}
            p = LambdaParams.tpr(e1=0.5, rabi_p=1.0, rabi_c=1.12)
            return p, closed_generator(p, rwa=True)
        p = preset(name, delta_omega_p=delta_omega_p)
        return p, liouville_generator(p, rwa=True)

    @staticmethod
    def _reference(p, dim, t, t0):
        """Phi(t) exp((t - t0) A_rwf) Phi(t0)^-1, from h_rwf, lindbladian
        and an eigendecomposition exponential."""
        h = h_rwf(p) + p.e1 * np.eye(3)

        def phases(t):
            w = np.exp(-1j * np.array([0.0, p.omega_p,
                                       p.omega_p - p.omega_c]) * t)
            return w if dim == 3 else np.kron(w, np.conj(w))

        if dim == 3:
            a_rwf = -1j * h
        else:
            a_rwf = -1j * (np.kron(h, np.eye(3)) - np.kron(np.eye(3), h.T)) \
                + lindbladian(p)
        return (phases(t)[:, None] * expm_eig((t - t0) * a_rwf)
                * np.conj(phases(t0)))

    @pytest.mark.parametrize("name,delta_omega_p,t0", CASES)
    def test_matches_rotating_frame_exponential(self, name, delta_omega_p,
                                                t0):
        p, g = self._case(name, delta_omega_p)
        period, steps = commensurate_period(p.omega_p, p.omega_c)
        cum = propagate(g, t0, t0 + period, steps, return_intermediate=True)
        assert cum.shape == (steps + 1, g.dim, g.dim)
        grid = np.linspace(t0, t0 + period, steps + 1)
        for k in np.linspace(0, steps, 17).astype(int):
            want = self._reference(p, g.dim, grid[k], t0)
            assert np.max(np.abs(cum[k] - want)) <= 1e-11, k
        whole = propagate(g, t0, t0 + period, steps)
        assert np.max(np.abs(whole - self._reference(
            p, g.dim, t0 + period, t0))) <= 1e-11

    @pytest.mark.parametrize("build", [closed_generator, liouville_generator])
    @pytest.mark.parametrize("case", ["A-II", "B-II", "C-II"])
    def test_propagator_is_the_stacks_last_row(self, case, build):
        # one rule for E^N: the propagator alone is the product of the
        # doubling powers that give the stack's last row, so it has that
        # row's bits at every step count, not only at powers of two
        for delta_omega_p in (0.0, 0.05, 0.005, 0.5, 0.7):
            p = preset(case, delta_omega_p=delta_omega_p)
            g = build(p, rwa=True)
            period, _ = commensurate_period(p.omega_p, p.omega_c)
            for steps in (1, 3, 256, 257, 5120, 8191, 51200):
                stack = propagate(g, 0.0, period, steps,
                                  return_intermediate=True)
                assert np.array_equal(propagate(g, 0.0, period, steps),
                                      stack[-1]), (delta_omega_p, steps)

    def test_phases_take_one_chunk_of_temporaries(self):
        # lamsim validate --case B-II --delta-omega-p 0.005 --drive rwa
        # resolves q = 200 periods on N = 51,200 steps: a (N + 1, 9, 9)
        # complex stack of 63.3 MiB.  The phases Phi(k dt) are applied
        # CHUNK_STEPS rows at a time, so the call peaks within the stack
        # and one chunk's (CHUNK_STEPS, 9, 9) complex stack; phases of all
        # N + 1 rows at once (an (N + 1, 9) float and two complex arrays,
        # 17.6 MiB) do not fit.
        p = preset("B-II", delta_omega_p=0.005)
        g = liouville_generator(p, rwa=True)
        period, _ = commensurate_period(p.omega_p, p.omega_c)
        steps = MIN_STEPS * round(period / (2.0 * np.pi))
        assert steps == 51200
        tracemalloc.start()
        try:
            stack = propagate(g, 0.0, period, steps, return_intermediate=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = stack.nbytes + CHUNK_STEPS * stack[0].nbytes
        assert peak <= bound, (f"{peak / 2**20:.2f} MiB, above "
                               f"{bound / 2**20:.2f} MiB")

    def test_order_has_no_effect(self):
        g = liouville_generator(preset("A-II"), rwa=True)
        out = {order: propagate(g, 0.0, 1.3, 100, order=order,
                                return_intermediate=True)
               for order in MagnusOrder}
        assert np.array_equal(out[MagnusOrder.ORDER4],
                              out[MagnusOrder.ORDER6])

    @pytest.mark.parametrize("build", [closed_generator, liouville_generator])
    def test_full_drive_rejects_rwa_frame(self, build):
        p = preset("A-II")
        rwa, full = build(p, rwa=True), build(p, rwa=False)
        assert full.frame is None
        with pytest.raises(ValueError, match="frame"):
            Generator(full.a0, full.terms, full.coefficients, rwa.frame)

    @pytest.mark.parametrize("build", [closed_generator, liouville_generator])
    def test_frame_rates_off_by_1e_10_are_rejected(self, build):
        # rates off by one part in 1e10 leave a 3e-10 defect at the check's
        # shift, 1: above the claim's 1e-12 tolerance
        rwa = build(preset("A-II"), rwa=True)
        with pytest.raises(ValueError, match="not constant in the declared "
                           "frame: defect 3.000e-10"):
            Generator(rwa.a0, rwa.terms, rwa.coefficients,
                      rwa.frame * (1.0 + 1e-10))

    @pytest.mark.parametrize("shift", [0.3, 2.0, 40.0])
    def test_any_shift_acts_as_the_frame(self, shift):
        # Phi(t) (A(t') - i Theta) Phi(t)^-1 = A(t + t') - i Theta, and the
        # diagonal Phi commutes with i Theta: a shift acts as Phi(shift)
        g = liouville_generator(preset("C-II", delta_omega_p=0.7), rwa=True)
        assert g.shift_defect(shift, np.exp(1j * shift * g.frame)) is None
        assert g.shift_defect(shift) is not None

    @pytest.mark.parametrize("d", [[-1.0, 1.0, 1.0], [0.0] + [1.0] * 8,
                                   [np.nan] + [1.0] * 8])
    def test_shift_defect_checks_its_diagonal(self, d):
        # a Hilbert-space Z on the 9x9 generator, a zero entry (D^-1 does
        # not exist) and a NaN one are refused, not reported as defects
        g = liouville_generator(preset("A-II"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"d \[.*\] is not 9 finite "
                               "nonzero entries"):
                g.shift_defect(np.pi / 2, d)

    def test_frame_shape_checked(self):
        with pytest.raises(ValueError, match="frame"):
            Generator(np.eye(3), frame=np.zeros(2))

    def test_nan_defect_fails_the_frame_check(self):
        # a NaN rate is refused where the frame enters; a NaN defect (NaN >
        # tol is False) must still fail a claim, here the period's
        with pytest.raises(ValueError, match="frame"):
            Generator(-1j * np.diag([0.0, 1.0, 2.0]),
                      frame=[np.nan, 0.0, 0.0])
        g = Generator(np.zeros((1, 1)), [np.ones((1, 1))],
                      lambda t: np.where(t > 1.0, np.nan, np.cos(t))[..., None])
        with pytest.raises(ValueError, match="defect nan"):
            make_plan(g, 2.0 * np.pi, 16)


class TestRealCoordinates:
    """The Liouville generators are real in Hermitian coordinates and find
    that route themselves: step and propagate run their Magnus steps on
    real stacks; results stay in the complex vec basis.  Any other
    generator, such as the closed drive, takes its realification
    [[Re E, -Im E], [Im E, Re E]]; complex coefficients are rejected."""

    @pytest.mark.parametrize("order", list(MagnusOrder))
    @pytest.mark.parametrize("case", ["A-II", "B-II", "C-II"])
    def test_propagate_equals_product_of_complex_steps(self, case, order):
        g = liouville_generator(preset(case))
        assert g._real is not None
        steps = CHUNK_STEPS + 7
        t1 = 1.3
        dt = t1 / steps
        cum = propagate(g, 0.0, t1, steps, order=order,
                        return_intermediate=True)
        assert cum.dtype == complex
        # the reference product runs on the generator's complex tables
        u = np.eye(g.dim, dtype=complex)
        worst = 0.0
        for k in range(steps):
            u = _STEPPERS[order](g, k * dt, dt) @ u
            worst = max(worst, float(np.max(np.abs(cum[k + 1] - u))))
        assert worst <= 1e-13
        assert np.array_equal(cum[0], np.eye(g.dim))
        whole = propagate(g, 0.0, t1, steps, order=order)
        assert whole.dtype == complex
        assert np.max(np.abs(whole - u)) <= 1e-13

    def test_declared_only_without_a_frame(self):
        # the real route, built on first Magnus use: Liouville generators,
        # full drive or RWA, dissipative or not, in Hermitian coordinates,
        # and the 3x3 closed drives in their 6x6 realification; the frame
        # route of the RWA generators never reads it
        for name in ("C-II", "A-I"):
            p = preset(name)
            for rwa in (False, True):
                for dissipative in (False, True):
                    g = liouville_generator(p, rwa, dissipative)
                    assert "_real" not in vars(g)
                    assert g._real._rows.dtype == float
                    assert g._real.dim == g.dim
                closed = closed_generator(p, rwa)
                assert closed._real._rows.dtype == float
                assert closed._real.dim == 2 * closed.dim

    @pytest.mark.parametrize("order", list(MagnusOrder))
    @pytest.mark.parametrize("build", [
        closed_generator, liouville_generator,
        lambda p: liouville_generator(p, dissipative=False),
        lambda p: without_frame(closed_generator(p, rwa=True)),
        lambda p: without_frame(liouville_generator(p, rwa=True))])
    def test_step_is_a_one_step_propagate(self, build, order):
        g = build(preset("C-II"))
        assert np.array_equal(step(g, 0.25, 0.125, order),
                              propagate(g, 0.25, 0.375, 1, order=order))

    def test_period_map_keeps_states_hermitian(self, rng):
        p = preset("A-II")
        g = liouville_generator(p)
        period, steps = commensurate_period(p.omega_p, p.omega_c)
        u_t = propagate(g, 0.0, period, steps)
        h = random_complex_matrix(rng, 3)
        rho = (h + h.conj().T) / 2.0
        out = (u_t @ rho.reshape(9)).reshape(3, 3)
        assert np.max(np.abs(out - out.conj().T)) <= 1e-15

    def test_lifted_sign_gauge_is_diagonal_in_own_coordinates(self):
        g = liouville_generator(preset("A-II"))
        s, s_inv = hermitian_coordinates(3)
        z = np.kron([-1.0, 1.0, -1.0], [-1.0, 1.0, -1.0])
        own = g._own_gauge(z)
        assert own.dtype == float and set(own) == {-1.0, 1.0}
        assert np.array_equal(s_inv @ np.diag(z) @ s, np.diag(own))
        asymmetric = np.ones(9)
        asymmetric[1] = -1.0  # E_12 flips, E_21 does not
        with pytest.raises(ValueError, match="Hermitian"):
            g._own_gauge(asymmetric)
        rwa = liouville_generator(preset("A-II"), rwa=True)
        assert np.array_equal(rwa._own_gauge(z), own)
        with pytest.raises(ValueError, match="Hermitian"):
            rwa._own_gauge(asymmetric)

    def test_every_accepted_sign_gauge_is_its_own_diagonal(self):
        # All 512 sign patterns on vec(rho): a gauge that _own_gauge
        # returns must be S^-1 diag(z) S itself, as the fill takes it; the
        # 64 symmetric patterns, z[3 i + j] = z[3 j + i], are accepted.
        g = liouville_generator(preset("A-II"))
        s, s_inv = hermitian_coordinates(3)
        accepted = 0
        for z in itertools.product([-1.0, 1.0], repeat=9):
            try:
                own = g._own_gauge(np.array(z))
            except ValueError:
                continue
            assert np.allclose(s_inv @ np.diag(z) @ s, np.diag(own),
                               rtol=0.0, atol=1e-15)
            accepted += 1
        assert accepted == 2 ** 6

    @pytest.mark.parametrize("steps", [1, 7, CHUNK_STEPS + 7, 2100])
    @pytest.mark.parametrize("order", list(MagnusOrder))
    @pytest.mark.parametrize("case", ["A-I", "B-I", "C-I"])
    def test_closed_drive_equals_product_of_complex_steps(self, case, order,
                                                          steps):
        # The closed full drive runs in its realification, whose steps are
        # the realified complex steps: one chunk, two and a part, three.
        g = closed_generator(preset(case))
        assert g._real.dim == 2 * g.dim
        t1 = 1.3
        dt = t1 / steps
        complex_steps = _STEPPERS[order](g, np.arange(steps) * dt, dt)
        want = np.empty((steps + 1, g.dim, g.dim), dtype=complex)
        want[0] = np.eye(g.dim)
        for k, u in enumerate(complex_steps):
            want[k + 1] = u @ want[k]
        cum = propagate(g, 0.0, t1, steps, order=order,
                        return_intermediate=True)
        assert cum.dtype == complex and cum.shape == want.shape
        assert np.array_equal(cum[0], np.eye(g.dim))
        assert np.max(np.abs(cum - want)) <= 1e-13
        whole = propagate(g, 0.0, t1, steps, order=order)
        assert whole.dtype == complex
        assert np.max(np.abs(whole - want[-1])) <= 1e-13
        defect = np.conj(np.swapaxes(cum, -1, -2)) @ cum - np.eye(g.dim)
        assert np.max(np.abs(defect)) <= 1e-13
        got = step(g, np.arange(steps) * dt, dt, order)
        assert got.dtype == complex
        assert np.max(np.abs(got - complex_steps)) <= 1e-13
        assert np.max(np.abs(step(g, 0.25, dt, order)
                             - _STEPPERS[order](g, 0.25, dt))) <= 1e-13

    def test_random_complex_generator_is_realified(self, rng):
        # not real in Hermitian coordinates: [[Re E, -Im E], [Im E, Re E]]
        a = random_complex_matrix(rng, 9)
        g = Generator(a)
        assert np.array_equal(g._real._rows.reshape(18, 18), np.block(
            [[a.real, -a.imag], [a.imag, a.real]]))
        assert np.array_equal(g._vec_coordinates(g._real._rows.reshape(
            1, 18, 18)), a[None])

    def test_vectors_in_own_coordinates(self, rng):
        # A Hermitian state carried in the generator's Hermitian
        # coordinates, S^-1 v, comes back as the vec-basis rows of the
        # propagators applied to v: run_case applies an open system's span
        # kept by _propagate_grids to it one block at a time.
        g = liouville_generator(preset("A-II"))
        h = random_complex_matrix(rng, 3)
        v = ((h + h.conj().T) / 2.0).reshape(-1)
        own = g._own_vector(v)
        assert own.dtype == float and own.shape == (g.dim,)
        r = _propagate_grids(g, 0.0, 0.7, [(5, True)])[0]
        got = g._vec_rows(r @ own)
        assert got.dtype == complex and got.shape == (6, g.dim)
        want = propagate(g, 0.0, 0.7, 5, return_intermediate=True) @ v
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_complex_coefficients_raise(self):
        # Hermiticity-preserving terms, but a complex drive function
        g = liouville_generator(preset("C-II"))
        with pytest.raises(ValueError, match="real"):
            Generator(g.a0, g.terms,
                      lambda t: np.exp(1j * t)[..., None] * np.ones(2))

"""Periodic-driving machinery: one-period propagators, the step count that
resolves a period to a measured accuracy, stroboscopic jumps, doubling to
the steady state, micromotion, period-mean maps, and detection of the time
needed to converge to the steady state.

For a generator with period T the propagator over [0, n T + t] factors as
U(t, 0) @ U(T, 0)^n, so a single resolved period plus cheap matrix powers
covers arbitrarily long horizons; repeated squaring of U(T, 0) reaches
exponentially long times, and the average over any one period is one fixed
map (period_mean_map) of the state at the period's start.  Inside T, a
shift by tau = T/r that acts as a +-1 sign gauge, A(t + tau) = Z A(t) Z (a
Floquet dynamical symmetry; Alon, Averbukh & Moiseyev, Phys. Rev. Lett. 80,
3743 (1998)), gives U_T = (Z U_tau)^r for even r, so accurate_plan
resolves only tau (T/4 for the presets, T/2 off resonance) and fills T.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .linalg import frobenius_norm
from .magnus import Generator, _propagate_grids, propagate
from .model import DIM, vec

BASE_STEPS = 2 ** 13 - 1          # time-series grid steps per 2 pi
# How every U_T is resolved (accurate_plan): the three-level estimate of
# U_T's max-entry error it resolves to, and the least stack steps per 2 pi,
# so that the trapezoid mean maps still resolve the drive's harmonics.
STEP_ERROR_TARGET = 1e-12
MIN_STEPS = 256
MAX_PLAN_STEPS = 10 ** 6
MAX_PERIODS = 2 ** 40             # horizon of the steady-state search
# Cap on the rows a Trajectory collects into arrays (152 B per row, ~9.5
# GiB at the cap); its blocks() stream any number of rows.
MAX_ROWS = 2 ** 26


class HorizonError(RuntimeError):
    """Steady-state search exhausted its horizon (MAX_PERIODS)."""


@dataclass(frozen=True)
class PeriodicPlan:
    """One resolved drive period: length T and step count N over T."""

    period: float
    steps_per_period: int

    def __post_init__(self):
        if not 0 < self.period < np.inf:
            raise ValueError(
                f"period must be positive and finite, got {self.period}")
        if self.steps_per_period < 1:
            raise ValueError("steps_per_period must be >= 1")
        if self.steps_per_period > MAX_PLAN_STEPS:
            raise ValueError(
                f"steps_per_period {self.steps_per_period} is above the cap "
                f"{MAX_PLAN_STEPS} at the period T = {self.period:.6g} = "
                f"2 pi q, q = {self.period / (2.0 * np.pi):g}: step counts "
                "grow in proportion to q, the least common denominator of "
                "the drive frequencies")

    @property
    def micromotion_times(self) -> np.ndarray:
        """The steps_per_period + 1 grid times of one period, 0 and T
        included."""
        return np.linspace(0.0, self.period, self.steps_per_period + 1)


def make_plan(g: Generator, period: float, steps_per_period: int
              ) -> PeriodicPlan:
    """Build a plan, checking that the generator really has the claimed
    period at 16 pseudo-random probe times (Generator.shift_defect)."""
    plan = PeriodicPlan(period=period, steps_per_period=steps_per_period)
    bad = g.shift_defect(period)
    if bad is not None:
        raise ValueError(f"generator is not {period}-periodic: defect "
                         f"{bad[0]:.3e} at t={bad[1]:.6f}")
    return plan


def _repeats(g: Generator, period: float) -> tuple[int, np.ndarray]:
    """The largest power of two r <= MIN_STEPS // 2 (the floor's half
    probe keeps >= 1 step) for which a shift by tau = period / r acts as
    the generator's sign gauge Z (Generator.shift_defect), and Z's diagonal
    g.gauge(tau) (I at r = 1), which must be g.dim entries of +-1 (so
    Z = Z^-1 in accurate_plan's fill): the one reader of Generator.gauge.

    Powers of two suffice for period = 2 pi q from commensurate_period:
    the fundamental count gcd(q omega_p, q omega_c) is coprime to q, so
    only its power-of-two part divides the step grid q MIN_STEPS 2^k.  At
    omega_p = 6, omega_c = 4 the drive repeats every T/m = pi and a shift
    by T/(2m) flips the probe: r = 2m = 4, Z = diag(-1, 1, 1); off
    resonance (omega_p = 6.05, q = 20) r = 2."""
    r, z = 1, np.ones(g.dim)
    while r < MIN_STEPS // 2:
        signs = g.gauge(period / (2 * r))
        if np.shape(signs) != (g.dim,) or not np.isin(signs, (-1, 1)).all():
            raise ValueError(f"gauge {signs} is not {g.dim} entries of +-1")
        if g.shift_defect(period / (2 * r), signs) is not None:
            break
        r, z = 2 * r, signs
    return r, z


def commensurate_period(omega_p: float, omega_c: float) -> tuple[float, int]:
    """Smallest 2 pi multiple T = 2 pi q (integer q) that is a period of
    both drive frequencies, and q * BASE_STEPS steps to keep dt fixed.  T
    is the reported period; it need not be the drive's fundamental one,
    which is T / gcd(q omega_p, q omega_c) (pi at omega_p = 6, omega_c =
    4).  The step cap is checked by the PeriodicPlan built with the step
    count in use."""
    from fractions import Fraction

    q = 1
    for omega in (omega_p, omega_c):
        frac = Fraction(omega).limit_denominator(10 ** 4)
        if abs(float(frac) - omega) > 1e-9 * max(1.0, abs(omega)):
            raise ValueError(
                f"drive frequency {omega} is not commensurate with 2 pi "
                "to within 1e-9")
        q = np.lcm(q, frac.denominator)
    return float(q) * (2.0 * np.pi), int(q) * BASE_STEPS


def one_period(g: Generator, plan: PeriodicPlan,
               stack: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """U_T (owned) and the period's N + 1 propagators (identity first,
    U_T last) in the vec basis: ``stack``, the same rows in the
    generator's own coordinates as accurate_plan returns them, mapped
    (ValueError unless it has N + 1 rows), or with no stack the period
    propagated on N sixth-order steps.  On a plan from accurate_plan that
    route is not the accepted map: A-II full is 2.9e-10 off it, C-II
    3.1e-9, against 4.2e-15 and 5.9e-14 with the stack."""
    if stack is not None and len(stack) != plan.steps_per_period + 1:
        raise ValueError(f"a stack of {len(stack) - 1} steps is not the "
                         f"period's {plan.steps_per_period}")
    stack = (propagate(g, 0.0, plan.period, plan.steps_per_period,
                       return_intermediate=True)
             if stack is None else g._vec_coordinates(stack))
    return stack[-1].copy(), stack


def accurate_plan(g: Generator, period: float
                  ) -> tuple[PeriodicPlan, float, np.ndarray | None]:
    """The plan whose eighth-order period map meets STEP_ERROR_TARGET,
    the estimate of that map's max-entry error, and the period's N + 1
    propagators, which one_period(g, plan, stack) maps to the vec basis.

    A generator with a frame takes the floor N = q MIN_STEPS (T = 2 pi q)
    with estimate 0.0, no probe and stack None: its U_N = Phi(T) exp(T B)
    is the same matrix for every N.  Otherwise tau = T/r, with
    the repeats r and sign gauge Z of _repeats, is propagated on a ladder
    of n/2, n and 2n sixth-order steps, n = N/r, in one batched pass
    (magnus._propagate_grids), and U_N = (Z U_tau)^r.  The step is
    time-symmetric, so its error expands in even powers of the step and
    R_N = (64 U_N - U_{N/2}) / 63 is eighth order (Gragg, SIAM J. Numer.
    Anal. B 2, 384 (1965); Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
    (2009)); the estimate is max |R_2N - R_N| / 255 in the vec basis.
    While it is above the target N doubles and only the new finest level
    is propagated: each level is propagated once.  The powers, the
    extrapolations and the stack are real, float64, in the generator's own
    coordinates (Hermitian ones for the full drive, where Z is its own +-1
    diagonal): (64 S_2n[::2] - S_n) / 63 over tau on the n-step grid (the
    ladder's stacks are freed on return), then each later repeat j is one
    batched product, U(j tau + s) = Z^j U(s) Z^j U(j tau), Z^j as exact row
    scalings (Shirley, Phys. Rev. 138, B979 (1965)).  N >= q MIN_STEPS is
    the stack's grid, the finest level takes 2N steps per period, and the
    step cap bounds N, checked before each level.  Every U_T consumer
    (steady state, gap, CPTP checks) reads the U_T mapped from the stack.
    """
    plan = make_plan(g, period,
                     MIN_STEPS * max(1, round(period / (2.0 * np.pi))))
    if g.frame is not None:
        return plan, 0.0, None
    r, z = _repeats(g, period)
    z = g._own_gauge(z)[:, None]

    def levels(*grids: tuple[int, bool]) -> list:
        """(Z U_tau)^r of each (steps, stack) grid, with its stack."""
        out = []
        for sub, (_, stack) in zip(
                _propagate_grids(g, 0.0, period / r, grids), grids):
            u = np.linalg.matrix_power(z * (sub[-1] if stack else sub), r)
            out.append((u, sub) if stack else u)
        return out

    def extrapolate(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
        return (64.0 * fine - coarse) / 63.0

    n = plan.steps_per_period // r
    coarse, mid, hi = levels((n // 2, False), (n, True), (2 * n, True))
    while True:
        delta = extrapolate(hi[0], mid[0]) - extrapolate(mid[0], coarse)
        error = float(np.max(np.abs(g._vec_coordinates(delta)))) / 255.0
        if not math.isfinite(error):
            raise FloatingPointError(
                f"U_T is not finite at {plan.steps_per_period} steps")
        if error <= STEP_ERROR_TARGET:
            break
        plan = replace(plan, steps_per_period=2 * plan.steps_per_period)
        coarse, mid, (hi,) = mid[0], hi, levels(
            (2 * plan.steps_per_period // r, True))
    n = plan.steps_per_period // r
    stack = np.empty((plan.steps_per_period + 1,) + mid[1].shape[1:])
    stack[:n + 1] = extrapolate(hi[1][::2], mid[1])
    for j in range(1, r):
        block = stack[j * n + 1:(j + 1) * n + 1]
        np.matmul(stack[1:n + 1], z ** j * stack[j * n], out=block)
        block *= z ** j
    return plan, error, stack


def stroboscopic(u_period: np.ndarray, micromotion: np.ndarray,
                 n: int, k: int) -> np.ndarray:
    """Propagator to n full periods plus the k-th intra-period grid time:
    micromotion[k] @ u_period^n."""
    if n < 0:
        raise ValueError(f"period count must be non-negative, got {n}")
    if not 0 <= k < len(micromotion):
        raise IndexError(f"micromotion index {k} out of range "
                         f"[0, {len(micromotion)})")
    return micromotion[k] @ np.linalg.matrix_power(u_period, n)


def doubling(u_period: np.ndarray, m: int,
             fixed_functional: np.ndarray) -> np.ndarray:
    """u_period^(2^m) via m successive squarings of a map with the known
    left fixed functional w (trace_functional for a trace-preserving map).
    Squaring doubles any rounding-level defect in w, 1e-14 to 1e-8 over
    ~20 squarings, so a rank-1 correction re-imposes w @ u = w on u_period
    and after every squaring: the defect stays at machine precision."""
    if m < 0:
        raise ValueError(f"doubling count must be non-negative, got {m}")
    u, w = u_period, fixed_functional
    for i in range(m + 1):
        if i:
            u = u @ u
        # the rank-1 reprojection onto w^dag u = w^dag
        u = u - np.outer(w, (w.conj() @ u - w.conj())) / np.vdot(w, w)
    return u


def trace_functional() -> np.ndarray:
    """The vectorized identity, whose left action on a superoperator
    reads off trace preservation."""
    return np.eye(DIM, dtype=complex).reshape(DIM * DIM)


class Trajectory:
    """Time-stamped density-matrix series of ``rows`` rows, streamed from
    ``blocks``: each call of ``blocks()`` forms the (times, states) blocks
    anew from the first row, states of shape (len(times), 3, 3), and
    yields them in order, one at a time.  times, states and populations
    collect every block into arrays on first use, check that each block
    has one state per time and that the times strictly increase, and keep
    them, and raise ValueError before they allocate for more than MAX_ROWS
    rows."""

    def __init__(self, blocks: Callable[[], Iterator], rows: int):
        self._source, self._rows, self._series = blocks, rows, None

    def blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return self._source()

    def _collected(self) -> tuple[np.ndarray, np.ndarray]:
        if self._series is None:
            if self._rows > MAX_ROWS:
                raise ValueError(
                    f"{self._rows} rows to collect, above the cap MAX_ROWS "
                    f"= {MAX_ROWS}; blocks() streams them")
            times = np.empty(self._rows)
            states = np.empty((self._rows, DIM, DIM), dtype=complex)
            row = 0
            for t, rho in self._source():  # ValueError past self._rows
                if np.shape(rho) != (len(t), DIM, DIM):
                    raise ValueError(f"states shape {np.shape(rho)} does "
                                     f"not match {len(t)} times")
                times[row:row + len(t)], states[row:row + len(t)] = t, rho
                row += len(t)
            if row != self._rows:
                raise ValueError(f"{row} rows streamed, not {self._rows}")
            if np.any(np.diff(times) <= 0):
                raise ValueError("times must be strictly increasing")
            self._series = times, states
        return self._series

    @property
    def times(self) -> np.ndarray:
        return self._collected()[0]

    @property
    def states(self) -> np.ndarray:
        return self._collected()[1]

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.einsum("tii->ti", self.states))


def period_mean_map(stack: np.ndarray) -> np.ndarray:
    """sum_k w_k stack[k], w_k the trapezoid weights of a period's even
    grid (of the micromotion: its period-average map; of the states along
    a period: their average), as the pairwise sum of 128-row blocks, each
    one product (Higham, Accuracy and Stability, 2nd ed., sec. 4.2)."""
    n = len(stack)
    weights = np.full(n, 1.0 / (n - 1))
    weights[[0, -1]] *= 0.5
    rows = stack.reshape(n, -1)
    parts = [weights[k:k + 128] @ rows[k:k + 128] for k in range(0, n, 128)]
    while len(parts) > 1:
        parts = [sum(parts[k:k + 2]) for k in range(0, len(parts), 2)]
    return parts[0].reshape(stack.shape[1:])


def _powers_of(squares) -> Callable[[int, np.ndarray], np.ndarray]:
    """(n, v) -> u^n v, as matrix-vector products of v with the squares
    that n's bits select, highest bit first, squares[j] = u^(2^j): the
    list, [u] or more squares, gains each missing square once, by squaring
    the one before, when an n first needs it."""

    def power(n: int, v: np.ndarray) -> np.ndarray:
        while len(squares) < n.bit_length():
            squares.append(squares[-1] @ squares[-1])
        for j in reversed(range(n.bit_length())):
            if n >> j & 1:
                v = squares[j] @ v
        return v

    return power


def convergence_time(g: Generator, plan: PeriodicPlan, rho0: np.ndarray,
                     eps: float = 1e-6, *,
                     precomputed: tuple[np.ndarray, np.ndarray]) -> float:
    """Smallest n T at which the period-averaged state moves by <= eps
    (Frobenius) from the previous period's average, from the period map
    and micromotion stack ``precomputed = one_period(g, plan)``.

    The search doubles n from 1 until the criterion holds (n = 1 when
    the first period meets it), then bisects between n / 2 and n.  The
    states U_T^n v0 come from _powers_of, which forms each U_T^(2^j) once:
    no matrix power is formed per n.  It assumes a dissipative generator
    (a steady state exists) and raises HorizonError, whose message gives
    the last observed delta, if MAX_PERIODS is exhausted.  An eps that is
    not positive and finite raises ValueError: a negative eps is never
    met, a NaN one fails every comparison of the search, and an infinite
    one is met by any first period.
    """
    if g.dim != DIM * DIM:
        raise ValueError("convergence_time expects a Liouville-space generator")
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    u_t, micromotion = precomputed
    mean = period_mean_map(micromotion)
    power, v0 = _powers_of([u_t]), vec(np.asarray(rho0, dtype=complex))

    @functools.cache
    def avg(n: int) -> np.ndarray:
        return mean @ power(n, v0)

    def delta(n: int) -> float:
        return frobenius_norm(avg(n) - avg(n - 1))

    n = 1
    while delta(n) > eps:
        if n > MAX_PERIODS:
            raise HorizonError(
                f"no steady state within {n} periods (delta {delta(n):.3e})")
        n *= 2
    lo, hi = n // 2, n  # delta(lo) > eps >= delta(hi), or lo = 0, hi = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if delta(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi * plan.period

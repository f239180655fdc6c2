"""Magnus-expansion differential steppers and the propagator builder.

A single step approximates the time-ordered exponential of a generic
time-dependent generator A(t) over [t, t + dt] by one matrix exponential.
Both schemes sample the generator at three nodes per step (below) and are
exact for time-independent generators.

Order 4 uses Simpson nodes (the endpoints and midpoint) plus one commutator:

    exp{ dt (A0 + 4 Am + A1)/6 + dt^2/12 [A1, A0] }

with A0 = A(t), Am = A(t + dt/2), A1 = A(t + dt); local error O(dt^5).
Order 6 samples at the three-point Gauss-Legendre nodes and combines
nested commutators (Blanes-Casas-Oteo-Ros single-exponential scheme);
local error O(dt^7).

Because each step is a single exponential of (anti-Hermitian, or
Lindblad-form) generator combinations, closed-dynamics steps are exactly
unitary and open-dynamics steps preserve the trace functional to rounding.

The steppers take one step start time or an array of them.  The generator
is affine, A(t) = sum_m c_m(t) E_m over a basis E = (a0, terms...), so a
chunk's exponents are per-step coefficient vectors times tables of E,
[E_m, E_n] and [E_l, [E_m, E_n]], exponentiated by one call on a stack,
and multiplied up in blocks of _BLOCK steps.  ``_propagate_grids`` does
this for several step counts over one interval in one batched pass (the
levels of periodic.accurate_plan's Richardson ladder), each grid with the
bits of propagating it alone; ``propagate`` is its one-grid case.

A generator may declare a diagonal frame Phi(t) = diag(e^{i theta t}) in
which it is constant: Phi(t)^-1 (A(t) - i Theta) Phi(t) = B.  Its
propagator is then exactly U(t0 + s, t0) = Phi(s) e^{s (A(t0) - i Theta)},
and ``propagate`` takes that route instead of Magnus steps: one batched
exponential call and products of its results, exact to rounding at any
step count and for either order.
The co-rotating (RWA) drive has such a frame (Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009): a constant generator needs no Magnus
correction terms); the full drive does not.

Drive coefficients are real (a complex one is written as two real ones,
over E and iE), so every Magnus step runs on real tables.  A Lindblad
generator on n x n operators maps Hermitian operators to Hermitian
operators, so in the Hermitian coordinates S of
``linalg.hermitian_coordinates`` (the coherence-vector form; Alicki &
Lendi, Lect. Notes Phys. 717 (2007)) its samples, Magnus exponents, step
exponentials and their products are all real.  Any other d x d
generator, such as the closed (3 x 3) drive, is real in its
realification [[Re E, -Im E], [Im E, Re E]], 2d x 2d, which maps sums,
products and exponentials of complex matrices to theirs (numpy
multiplies real 6 x 6 stacks several times faster than complex 3 x 3
ones).  ``step`` and ``propagate`` run the steps on float64 stacks in
those coordinates and map the results back, S R S^-1 or R[:d, :d] +
i R[d:, :d], to the complex basis every interface uses;
``_propagate_grids`` leaves them in those coordinates for its caller to
combine first.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import Callable

import numpy as np

from .linalg import expm, hermitian_coordinates, kron

_GL_OFFSET = np.sqrt(15.0) / 10.0  # 3-point Gauss-Legendre node offset
# Node positions within a step, as fractions of dt.
_NODES4 = np.array([0.0, 0.5, 1.0])
_NODES6 = np.array([0.5 - _GL_OFFSET, 0.5, 0.5 + _GL_OFFSET])

# Steps sampled and exponentiated per batch in propagate: bounds the
# temporaries at a few (CHUNK_STEPS, d, d) stacks whatever the step count.
CHUNK_STEPS = 1024
# Steps per block of the cumulative product in propagate.
_BLOCK = 32
# Largest accepted defect of a claim about a generator, per unit of max(1,
# max |A|): of A(t + s) - D A(t) D^-1, a time shift s acting as a diagonal D
# (shift_defect; a frame Phi as D = Phi(_FRAME_SHIFT), Phi(1) = I only for
# rates in 2 pi Z), or of Im S^-1 E S (Hermitian coordinates).
_CLAIM_TOL, _FRAME_SHIFT = 1e-12, 1.0


class MagnusOrder(enum.Enum):
    ORDER4 = 4
    ORDER6 = 6


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _no_drive(t: np.ndarray) -> np.ndarray:
    return np.zeros(t.shape + (0,))


@functools.cache
def _from_hermitian(n: int) -> np.ndarray:
    """The map back vec(S R S^-1) = kron(S, S^-T) vec(R), row-major, as one
    complex map acting on the right of flattened stacks: kron(S, S^-T)^T,
    C-contiguous and read-only.  Its float64 view, (n^2, 2 n^2) with the
    real and imaginary part of each column side by side, applies it to a
    real stack as one real product whose rows are the complex result."""
    s, s_inv = hermitian_coordinates(n)
    to_vec = np.ascontiguousarray(kron(s, s_inv.T).T)
    to_vec.flags.writeable = False
    return to_vec


@functools.cache
def _probe_fractions() -> np.ndarray:
    """The 16 seeded fractions of a time shift at whose multiples a claim
    about the shift is checked (shift_defect); drawn on first use, so that
    importing the package does not import numpy.random."""
    fractions = np.random.default_rng(1729).random(16)
    fractions.flags.writeable = False
    return fractions


class _Tables:
    """What the Magnus exponents of an affine generator are built from: the
    drive coefficients, the rows of its basis E = (a0, terms...) flattened,
    and, built on first Magnus use, the index pairs m < n and one flattened
    table with rows E_m, [E_m, E_n], then [E_l, [E_m, E_n]], in the basis's
    dtype."""

    def __init__(self, basis: np.ndarray,
                 coefficients: Callable[[np.ndarray], np.ndarray]):
        self.dim = basis.shape[-1]
        self.coefficients = coefficients
        self._rows = basis.reshape(len(basis), self.dim ** 2)

    @functools.cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return np.triu_indices(len(self._rows), 1)

    @functools.cached_property
    def _table(self) -> np.ndarray:
        basis = self._rows.reshape(-1, self.dim, self.dim)
        pairs = _comm(basis[self._pairs[0]], basis[self._pairs[1]])
        nested = _comm(basis[:, None], pairs).reshape((-1,) + basis.shape[1:])
        return np.concatenate([basis, pairs, nested]).reshape(
            -1, self.dim ** 2)


class Generator(_Tables):
    """Affine time-dependent generator A(t) = a0 + sum_k f_k(t) terms[k]
    of a first-order linear flow.

    ``coefficients`` maps an array of times of any shape to the drive
    functions f_k at those times, shape (..., K); the default is no drive
    (a constant generator).  ``frame``, if given, is the real rate vector
    theta of a diagonal frame Phi(t) = diag(e^{i theta t}) in which the
    generator is constant; it is checked (ValueError) and decides the
    route.  The coefficients must be real; Magnus steps run on the real
    tables ``_real``.  ``gauge`` maps a time shift s to the +-1 diagonal
    of a sign gauge Z that s may act as, A(t + s) = Z A(t) Z, which
    periodic checks before use (default I).
    Shapes are checked here.
    """

    def __init__(self, a0, terms=(),
                 coefficients: Callable[[np.ndarray], np.ndarray] = _no_drive,
                 frame=None, gauge=None):
        a0 = np.array(a0, dtype=complex)
        if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
            raise ValueError(f"a0 must be a square matrix, got {a0.shape}")
        terms = np.array(terms, dtype=complex)
        if terms.size == 0:
            terms = terms.reshape((0,) + a0.shape)
        if terms.ndim != 3 or terms.shape[1:] != a0.shape:
            raise ValueError(f"terms must be a (K, {a0.shape[0]}, "
                             f"{a0.shape[0]}) stack, got {terms.shape}")
        probe = coefficients(np.zeros(2))
        if np.shape(probe) != (2, len(terms)):
            raise ValueError(f"coefficients gave shape {np.shape(probe)} for "
                             f"2 times, expected {(2, len(terms))}")
        if not np.isrealobj(probe):
            raise ValueError("coefficients must be real: write a complex "
                             "c(t) E as Re c(t) over E plus Im c(t) over iE")
        self.a0 = a0
        self.terms = terms
        super().__init__(np.concatenate([a0[None], terms]), coefficients)
        self.frame = None
        if frame is not None:
            frame = np.array(frame, dtype=float)
            if frame.shape != (self.dim,) or not np.isfinite(frame).all():
                raise ValueError(f"frame must be a finite length-{self.dim} "
                                 f"rate vector, got {frame}")
            self.frame = frame
            bad = self.shift_defect(_FRAME_SHIFT,
                                    np.exp(1j * _FRAME_SHIFT * frame))
            if bad is not None:
                raise ValueError(
                    f"generator is not constant in the declared frame: "
                    f"defect {bad[0]:.3e} at t={bad[1]:.6f}")
        self.gauge = gauge or (lambda shift: np.ones(len(a0)))

    @functools.cached_property
    def _real(self) -> _Tables:
        """The real tables every Magnus step runs on, built on first Magnus
        use: those of S^-1 E S if the dimension is n^2 (n >= 2) and every
        basis row is real in Hermitian coordinates (to _CLAIM_TOL), else
        those of the 2d x 2d realification of E."""
        basis = self._rows.reshape(-1, self.dim, self.dim)
        n = math.isqrt(self.dim)
        if n >= 2 and n * n == self.dim:
            s, s_inv = hermitian_coordinates(n)
            own = s_inv @ basis @ s
            defect = np.max(np.abs(own.imag), axis=(-2, -1))
            scale = np.maximum(1.0, np.max(np.abs(own), axis=(-2, -1)))
            if np.all(defect <= _CLAIM_TOL * scale):
                return _Tables(own.real.copy(), self.coefficients)
        return _Tables(np.block([[basis.real, -basis.imag],
                                 [basis.imag, basis.real]]),
                       self.coefficients)

    def _vec_coordinates(self, r: np.ndarray) -> np.ndarray:
        """A stack of propagators r in the generator's own coordinates as a
        complex stack in the vec basis: S r S^-1 from Hermitian ones, one
        real product of the flattened stack with _from_hermitian's float64
        view written straight into the result's float64 view, or r[:d, :d]
        + i r[d:, :d] from the realification."""
        d = self.dim
        out = np.empty(r.shape[:-2] + (d, d), dtype=complex)
        if self._real.dim > d:
            out.real = r[..., :d, :d]
            out.imag = r[..., d:, :d]
            return out
        to_vec = _from_hermitian(math.isqrt(d))
        np.matmul(r.reshape(-1, d * d), to_vec.view(np.float64),
                  out=out.reshape(-1, d * d).view(np.float64))
        return out

    def _own_vector(self, v: np.ndarray) -> np.ndarray:
        """A vec-basis vector v of a Hermitian operator in the generator's
        Hermitian coordinates, on which its own-coordinate propagators
        act: S^-1 v, real."""
        return (hermitian_coordinates(math.isqrt(self.dim))[1] @ v).real

    def _vec_rows(self, c: np.ndarray) -> np.ndarray:
        """Rows c of vectors in the generator's Hermitian coordinates in
        the vec basis, as a new complex array: S c."""
        return c @ hermitian_coordinates(math.isqrt(self.dim))[0].T

    def _own_gauge(self, z: np.ndarray) -> np.ndarray:
        """A sign gauge diag(z) in the vec basis as a +-1 diagonal in the
        generator's own coordinates: (z, z) in the realification, or the
        exact diagonal of S^-1 diag(z) S, which is all of it when
        z[i n + j] = z[j n + i]."""
        if self._real.dim > self.dim:
            return np.concatenate([z, z])
        n = math.isqrt(self.dim)
        if not np.array_equal(z.reshape(n, n), z.reshape(n, n).T):
            raise ValueError(f"sign gauge {z} is not diagonal in Hermitian "
                             "coordinates")
        s, s_inv = hermitian_coordinates(n)
        return np.einsum("ij,j,ji->i", s_inv, z, s).real

    def shift_defect(self, shift: float, d=None) -> tuple[float, float] | None:
        """The first (defect, t) among 16 seeded probe times t in [0, shift)
        where max |A(t + shift) - D A(t) D^-1| is NaN or exceeds _CLAIM_TOL
        max(1, |A(t)|) max(1, (t + shift) / 2 pi), or None if shifting time
        by ``shift`` acts as conjugation by D = diag(d): the frame Phi(s)
        of a frame, I (d None) at a period, a sign gauge Z at a half period.
        The last factor admits the rounding of the drive phases omega t,
        which grows with t: at q = 1000 it alone is about 6e-12."""
        probes = shift * _probe_fractions()
        d = np.ones(self.dim) if d is None else np.asarray(d)
        if d.shape != (self.dim,) or not np.all(np.isfinite(d) & (d != 0)):
            raise ValueError(f"d {d} is not {self.dim} finite nonzero entries")
        a = self(probes) * (d[:, None] / d)
        defect = np.max(np.abs(self(probes + shift) - a), axis=(-2, -1))
        scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1))) \
            * np.maximum(1.0, (probes + shift) / (2.0 * np.pi))
        bad = np.flatnonzero(~(defect <= _CLAIM_TOL * scale))
        return (defect[bad[0]], probes[bad[0]]) if bad.size else None

    def __call__(self, t) -> np.ndarray:
        """A(t) for a scalar time, shape (d, d), or for an array of times,
        shape t.shape + (d, d)."""
        t = np.asarray(t, dtype=float)
        a = self.coefficients(t) @ self._rows[1:]
        a += self.a0.reshape(-1)
        return a.reshape(t.shape + self.a0.shape)


def _node_coefficients(g: _Tables, t, dt, nodes: np.ndarray):
    """Coefficients over the basis E of the generator at the three nodes
    of every step starting at t, of length dt (a scalar, or one per step
    as an (n, 1) column): three (n, 1 + K) arrays, n = t.size."""
    if np.any(dt <= 0):
        raise ValueError(f"dt must be positive, got {dt}")
    t = np.asarray(t, dtype=float).reshape(-1, 1) + dt * nodes
    c = np.concatenate([np.ones(t.shape + (1,)), g.coefficients(t)], axis=-1)
    return c[:, 0], c[:, 1], c[:, 2]


def _pair_coefficients(g: _Tables, x, y) -> np.ndarray:
    """Coefficients over the [E_m, E_n] table of [x . E, y . E]."""
    m, n = g._pairs
    return x[:, m] * y[:, n] - x[:, n] * y[:, m]


def _expand(g: _Tables, coefficients: np.ndarray, t) -> np.ndarray:
    """Combinations of the leading table rows, shaped to the times t."""
    return (coefficients @ g._table[:coefficients.shape[-1]]).reshape(
        np.shape(t) + (g.dim, g.dim))


def _exponent4(g: _Tables, t, dt) -> np.ndarray:
    a0, am, a1 = _node_coefficients(g, t, dt, _NODES4)
    return _expand(g, np.concatenate(
        [(dt / 6.0) * (a0 + 4.0 * am + a1),
         (dt * dt / 12.0) * _pair_coefficients(g, a1, a0)], axis=-1), t)


def _exponent6(g: _Tables, t, dt) -> np.ndarray:
    a1, a2, a3 = _node_coefficients(g, t, dt, _NODES6)
    # Graded combinations of the node samples: b1 ~ O(dt), b2, b3 ~ higher.
    b1 = dt * a2
    b2 = (np.sqrt(15.0) / 3.0) * dt * (a3 - a1)
    b3 = (10.0 / 3.0) * dt * (a3 - 2.0 * a2 + a1)
    c1 = _pair_coefficients(g, b1, b2)
    # x = -20 b1 - b3 + c1, y = b2 + c2, c2 = -(2 [b1, b3] + [b1, c1]) / 60
    x = _expand(g, np.concatenate([-20.0 * b1 - b3, c1], axis=-1), t)
    nested = (b1[:, :, None] * c1[:, None, :]).reshape(
        len(b1), b1.shape[1] * c1.shape[1])
    y = _expand(g, np.concatenate(
        [b2, (-1.0 / 30.0) * _pair_coefficients(g, b1, b3),
         (-1.0 / 60.0) * nested], axis=-1), t)
    out = x @ y  # (1 / 240) [x, y], formed in place
    out -= y @ x
    out *= 1.0 / 240.0
    out += _expand(g, b1 + b3 / 12.0, t)
    return out


# The steppers exponentiate the Magnus exponent only after the helper that
# built it has returned, so its node samples and intermediate stacks are
# freed before expm allocates its own.

def step4(g: _Tables, t, dt: float) -> np.ndarray:
    """4th-order Magnus step matrix over [t, t + dt], or a stack of them
    for an array of step start times."""
    return expm(_exponent4(g, t, dt))


def step6(g: _Tables, t, dt: float) -> np.ndarray:
    """6th-order Magnus step matrix over [t, t + dt], or a stack of them
    for an array of step start times."""
    return expm(_exponent6(g, t, dt))


_STEPPERS = {MagnusOrder.ORDER4: step4, MagnusOrder.ORDER6: step6}
_EXPONENTS = {MagnusOrder.ORDER4: _exponent4, MagnusOrder.ORDER6: _exponent6}


def step(g: Generator, t, dt: float, order: MagnusOrder) -> np.ndarray:
    """Magnus step over [t, t + dt] on the generator's real tables: without
    a frame, the bits of propagate(g, t, t + dt, 1, order)."""
    return g._vec_coordinates(_STEPPERS[order](g._real, t, dt))


def propagate(g: Generator, t0: float, t1: float, steps: int,
              order: MagnusOrder = MagnusOrder.ORDER6,
              return_intermediate: bool = False):
    """Ordered product of uniform Magnus steps over [t0, t1].

    Returns the full propagator matrix, or, with return_intermediate, the
    (steps + 1, d, d) array of cumulative propagators at every grid point
    t0 + k dt for k = 0 .. steps (identity first, full propagator last).
    It is the one-grid case of _propagate_grids, mapped back to the vec
    basis chunk by chunk.  A generator with a frame takes the exact route
    of _propagate_in_frame instead, and order has no effect.  Either way
    the full propagator is the stack's last row, to the bit.
    """
    if t1 <= t0:
        raise ValueError(f"require t1 > t0, got [{t0}, {t1}]")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if g.frame is not None:
        return _propagate_in_frame(g, t0, (t1 - t0) / steps, steps,
                                   return_intermediate)
    return _propagate_grids(g, t0, t1, [(steps, return_intermediate)],
                            order, vec=True)[0]


def _propagate_grids(g: Generator, t0: float, t1: float, grids,
                     order: MagnusOrder = MagnusOrder.ORDER6,
                     vec: bool = False) -> list:
    """For each (steps, stack) of grids, uniform Magnus steps over [t0,
    t1] of a generator without a frame: the propagator, or with stack the
    (steps + 1, d, d) cumulative propagators, in the generator's own
    coordinates, or with vec mapped back to the vec basis chunk by chunk.
    Each grid is cut into chunks of CHUNK_STEPS steps, and consecutive
    chunks share a batch while it stays within CHUNK_STEPS steps: one
    exponent evaluation, dt given per step, one expm call per chunk (so a
    grid keeps the Taylor tier and bits it gets alone) and one running-
    product scan, each chunk entered from its grid's product so far.
    Products of finite step maps can overflow, and stay non-finite once
    they do: a grid whose propagator is not finite is FloatingPointError."""
    tables = g._real
    store = g._vec_coordinates if vec else (lambda r: r)
    d = g.dim if vec else tables.dim
    maps = [np.eye(tables.dim)] * len(grids)
    stacks = [None] * len(grids)
    batches, size = [[]], 0
    for i, (steps, stack) in enumerate(grids):
        if stack:
            stacks[i] = np.empty((steps + 1, d, d),
                                 dtype=complex if vec else float)
            stacks[i][0] = np.eye(d)
        for a in range(0, steps, CHUNK_STEPS):
            b = min(a + CHUNK_STEPS, steps)
            if size + b - a > CHUNK_STEPS:
                batches.append([])
                size = 0
            batches[-1].append((i, a, b, (t1 - t0) / steps))
            size += b - a
    for batch in batches:
        t = np.concatenate([t0 + np.arange(a, b) * dt
                            for _, a, b, dt in batch])
        dt = np.concatenate([np.full(b - a, dt) for _, a, b, dt in batch])
        exponents = _EXPONENTS[order](tables, t, dt[:, None])
        edges = np.cumsum([0] + [b - a for _, a, b, _ in batch])
        step_maps = [expm(exponents[lo:hi])
                     for lo, hi in zip(edges, edges[1:])]
        del exponents  # freed before the products, as in step4 and step6
        products = _running_products(step_maps,
                                     [maps[i] for i, _, _, _ in batch])
        for (i, a, b, _), chunk in zip(batch, products):
            maps[i] = chunk[-1]
            if stacks[i] is not None:
                stacks[i][a + 1:b + 1] = store(chunk)
    for (steps, _), u in zip(grids, maps):
        if not np.isfinite(u).all():
            raise FloatingPointError(
                f"the product of {steps} Magnus steps is not finite")
    return [store(u) if s is None else s for u, s in zip(maps, stacks)]


def _frame_powers(g: Generator, t0: float, dt: float,
                  steps: int) -> np.ndarray:
    """E^m = exp(m dt B) for m = 2^i, i < bit_length(steps), of a generator
    with a frame, B = A(t0) - i Theta the rotating-frame generator anchored
    at t0: one batched exponential, not repeated squaring."""
    b = g(t0) - 1j * np.diag(g.frame)
    return expm(np.multiply.outer(
        dt * 2.0 ** np.arange(int(steps).bit_length()), b))


def _frame_fill(powers: np.ndarray, rows: int) -> np.ndarray:
    """E^k for k < rows from the doubling powers E^(2^i) of _frame_powers,
    in doubling batches, E^(m + j) = E^j E^m for j < m: E^k then carries
    the rounding of about log2 k products, not k times the rounding of E.
    Each batch is one product of its n rows stacked, (n d, d) by E^m,
    which numpy hands to one GEMM rather than n small products.  It reads
    the first (rows - 1).bit_length() powers."""
    d = powers.shape[-1]
    out = np.empty((rows, d, d), dtype=complex)
    out[0] = np.eye(d)
    m = 1
    for e_m in powers[:(rows - 1).bit_length()]:
        n = min(m, rows - m)
        np.matmul(out[:n].reshape(-1, d), e_m,
                  out=out[m:m + n].reshape(-1, d))
        m += n
    return out


def _propagate_in_frame(g: Generator, t0: float, dt: float, steps: int,
                        return_intermediate: bool):
    """Exact propagators U(t0 + k dt, t0) = Phi(k dt) E^k of a generator
    with a frame, E = exp(dt B) with B = A(t0) - i Theta the rotating-frame
    generator anchored at t0, from the doubling powers of _frame_powers:
    E^k by _frame_fill, then the phases Phi(k dt), CHUNK_STEPS rows at a
    time.  Without return_intermediate only E^steps is formed, as the
    product of the powers of steps' set bits, lowest bit first: the
    products that give _frame_fill's last row, to the bit."""
    powers = _frame_powers(g, t0, dt, steps)
    if not return_intermediate:
        return np.exp(1j * (steps * dt) * g.frame)[:, None] * functools.reduce(
            np.matmul, [e for i, e in enumerate(powers) if steps >> i & 1])
    powers = _frame_fill(powers, steps + 1)
    for a in range(0, steps + 1, CHUNK_STEPS):
        k = np.arange(a, min(a + CHUNK_STEPS, steps + 1))
        powers[a:a + CHUNK_STEPS] *= np.exp(
            1j * np.multiply.outer(dt * k, g.frame))[:, :, None]
    return powers


def _running_products(chunks: list, entries: list) -> list:
    """Running products chunk[j] @ ... @ chunk[0] @ u, j < n, of each
    (n, d, d) chunk and its entry propagator u: prefix products within
    blocks of _BLOCK steps, each chunk padded to whole blocks with
    identities (batched over every block), a pass over block totals, then
    each block's entry propagator.  A lone chunk of whole blocks is
    overwritten by the prefix products."""
    d = entries[0].shape[-1]
    lengths = [len(c) for c in chunks]
    if any(n % _BLOCK for n in lengths):
        chunks = [np.concatenate([c, np.broadcast_to(
            np.eye(d), (-len(c) % _BLOCK, d, d))]) for c in chunks]
    p = (chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
         ).reshape(-1, _BLOCK, d, d)
    for i in range(1, _BLOCK):
        p[:, i] = p[:, i] @ p[:, i - 1]
    starts = np.cumsum([0] + [-(-n // _BLOCK) for n in lengths])
    entry = []
    for u, start, stop in zip(entries, starts, starts[1:]):
        entry.append(u)
        for total in p[start:stop - 1, -1]:
            entry.append(total @ entry[-1])
    products = (p @ np.array(entry)[:, None]).reshape(-1, d, d)
    return [products[_BLOCK * start:_BLOCK * start + n]
            for n, start in zip(lengths, starts)]

"""Magnus-expansion differential steppers and the propagator builder.

A single step approximates the time-ordered exponential of a generic
time-dependent generator A(t) over [t, t + dt] by one matrix exponential.
Both schemes sample the generator at exactly three interior nodes per step
and are exact for time-independent generators.

Order 4 uses Simpson nodes plus one commutator:

    exp{ dt (A0 + 4 Am + A1)/6 + dt^2/12 [A1, A0] }

with A0 = A(t), Am = A(t + dt/2), A1 = A(t + dt); local error O(dt^5).
Order 6 samples at the three-point Gauss-Legendre nodes and combines
nested commutators (Blanes-Casas-Oteo-Ros single-exponential scheme);
local error O(dt^7).

Because each step is a single exponential of (anti-Hermitian, or
Lindblad-form) generator combinations, closed-dynamics steps are exactly
unitary and open-dynamics steps preserve the trace functional to rounding.

The steppers take one step start time or an array of them: the generator
is affine in a few scalar drive functions, so all nodes of a whole chunk
of steps are sampled, combined and exponentiated by single numpy calls on
(..., d, d) stacks.  Only the cumulative product in ``propagate`` runs
step by step.
"""

from __future__ import annotations

import enum
from typing import Callable

import numpy as np

from .linalg import expm

_GL_OFFSET = np.sqrt(15.0) / 10.0  # 3-point Gauss-Legendre node offset
# Node positions within a step, as fractions of dt.
_NODES4 = np.array([0.0, 0.5, 1.0])
_NODES6 = np.array([0.5 - _GL_OFFSET, 0.5, 0.5 + _GL_OFFSET])

# Steps sampled and exponentiated per batch in propagate: bounds the
# temporaries at a few (CHUNK_STEPS, d, d) stacks whatever the step count.
CHUNK_STEPS = 1024


class MagnusOrder(enum.Enum):
    ORDER4 = 4
    ORDER6 = 6


def _no_drive(t: np.ndarray) -> np.ndarray:
    return np.zeros(t.shape + (0,))


class Generator:
    """Affine time-dependent generator A(t) = a0 + sum_k f_k(t) terms[k]
    of a first-order linear flow.

    ``coefficients`` maps an array of times of any shape to the drive
    functions f_k at those times, shape (..., K); the default is no drive
    (a constant generator).  Shapes are checked once, here.
    """

    def __init__(self, a0, terms=(),
                 coefficients: Callable[[np.ndarray], np.ndarray] = _no_drive):
        a0 = np.array(a0, dtype=complex)
        if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
            raise ValueError(f"a0 must be a square matrix, got {a0.shape}")
        terms = np.array(terms, dtype=complex)
        if terms.size == 0:
            terms = terms.reshape((0,) + a0.shape)
        if terms.ndim != 3 or terms.shape[1:] != a0.shape:
            raise ValueError(f"terms must be a (K, {a0.shape[0]}, "
                             f"{a0.shape[0]}) stack, got {terms.shape}")
        probe = np.shape(coefficients(np.zeros(2)))
        if probe != (2, len(terms)):
            raise ValueError(f"coefficients gave shape {probe} for 2 times, "
                             f"expected {(2, len(terms))}")
        self.a0 = a0
        self.terms = terms
        self.coefficients = coefficients
        self.dim = a0.shape[0]
        self._flat_terms = terms.reshape(len(terms), a0.size)

    def __call__(self, t) -> np.ndarray:
        """A(t) for a scalar time, shape (d, d), or for an array of times,
        shape t.shape + (d, d)."""
        t = np.asarray(t, dtype=float)
        a = self.coefficients(t) @ self._flat_terms
        a += self.a0.reshape(-1)
        return a.reshape(t.shape + self.a0.shape)


def _check_dt(dt: float) -> None:
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _samples(g: Generator, t, dt: float, nodes: np.ndarray):
    """Generator at the three nodes of every step starting at t."""
    _check_dt(dt)
    a = g(np.asarray(t, dtype=float)[..., None] + dt * nodes)
    return a[..., 0, :, :], a[..., 1, :, :], a[..., 2, :, :]


def _exponent4(g: Generator, t, dt: float) -> np.ndarray:
    a0, am, a1 = _samples(g, t, dt, _NODES4)
    return (dt / 6.0) * (a0 + 4.0 * am + a1) \
        + (dt * dt / 12.0) * _comm(a1, a0)


def _exponent6(g: Generator, t, dt: float) -> np.ndarray:
    a1, a2, a3 = _samples(g, t, dt, _NODES6)
    # Graded combinations of the node samples: b1 ~ O(dt), b2, b3 ~ higher.
    b1 = dt * a2
    b2 = (np.sqrt(15.0) / 3.0) * dt * (a3 - a1)
    b3 = (10.0 / 3.0) * dt * (a3 - 2.0 * a2 + a1)
    c1 = _comm(b1, b2)
    c2 = (-1.0 / 60.0) * _comm(b1, 2.0 * b3 + c1)
    return b1 + b3 / 12.0 \
        + (1.0 / 240.0) * _comm(-20.0 * b1 - b3 + c1, b2 + c2)


# The steppers exponentiate the Magnus exponent only after the helper that
# built it has returned, so its node samples and intermediate stacks are
# freed before expm allocates its own.

def step4(g: Generator, t, dt: float) -> np.ndarray:
    """4th-order Magnus step matrix over [t, t + dt], or a stack of them
    for an array of step start times."""
    return expm(_exponent4(g, t, dt))


def step6(g: Generator, t, dt: float) -> np.ndarray:
    """6th-order Magnus step matrix over [t, t + dt], or a stack of them
    for an array of step start times."""
    return expm(_exponent6(g, t, dt))


_STEPPERS = {MagnusOrder.ORDER4: step4, MagnusOrder.ORDER6: step6}


def step(g: Generator, t, dt: float, order: MagnusOrder) -> np.ndarray:
    return _STEPPERS[order](g, t, dt)


def propagate(g: Generator, t0: float, t1: float, steps: int,
              order: MagnusOrder = MagnusOrder.ORDER6,
              return_intermediate: bool = False):
    """Ordered product of uniform Magnus steps over [t0, t1].

    Returns the full propagator matrix, or, with return_intermediate, the
    (steps + 1, d, d) array of cumulative propagators at every grid point
    t0 + k dt for k = 0 .. steps (identity first, full propagator last).
    Steps are built CHUNK_STEPS at a time.
    """
    if t1 <= t0:
        raise ValueError(f"require t1 > t0, got [{t0}, {t1}]")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    dt = (t1 - t0) / steps
    stepper = _STEPPERS[order]
    u = np.eye(g.dim, dtype=complex)
    cumulative = None
    if return_intermediate:
        cumulative = np.empty((steps + 1, g.dim, g.dim), dtype=complex)
        cumulative[0] = u
    for start in range(0, steps, CHUNK_STEPS):
        k = np.arange(start, min(start + CHUNK_STEPS, steps))
        for j, s in enumerate(stepper(g, t0 + k * dt, dt), start=start + 1):
            u = s @ u
            if return_intermediate:
                cumulative[j] = u
    return cumulative if return_intermediate else u

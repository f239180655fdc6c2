"""Physical operators of the driven three-level lambda system.

Basis order is fixed as |1>, |2>, |3> (indices 0, 1, 2), with |2> the
highest-lying excited state.  Vectorization of 3x3 operators is row-major,
so a triple product A @ rho @ C maps to kron(A, C.T) @ vec(rho).

Units: hbar = 1; all energies, frequencies and rates share one unit.

The rotating frame is defined once, by frame_rates: every rotating-frame
factor is its F(t), and the RWA drive's generators declare it as -theta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .linalg import DimensionError, kron
from .magnus import Generator

DIM = 3
LDIM = DIM * DIM

# Table of simulation presets used throughout: moderately strong fields (A),
# weak fields (B), very strong control field (C); suffix I is the closed
# (gamma = 0) variant, suffix II the dissipative one.  Note: the source table
# for these numbers labels its second rate column "gamma_13", but the master
# equation only contains |2>->|1> and |2>->|3> decay channels, so the value
# is interpreted as gamma_23 here.
_PRESET_TABLE = {
    "A": dict(rabi_c=1.12, rabi_p=1.00),
    "B": dict(rabi_c=0.20, rabi_p=0.20),
    "C": dict(rabi_c=10.0, rabi_p=1.00),
}
PRESET_NAMES = ("A-I", "A-II", "B-I", "B-II", "C-I", "C-II")


@dataclass(frozen=True)
class LambdaParams:
    """All physical parameters of one simulation case.

    e1/e2/e3 are level energies, omega_p/omega_c the probe/control field
    frequencies, rabi_p/rabi_c the Rabi frequencies, gamma_12/gamma_23 the
    |2>->|1> and |2>->|3> decay rates, and nbar_12/nbar_23 the bath
    occupation numbers (0 for a zero-temperature photonic bath).
    """

    e2: float
    e3: float
    omega_p: float
    omega_c: float
    rabi_p: float
    rabi_c: float
    gamma_12: float = 0.0
    gamma_23: float = 0.0
    nbar_12: float = 0.0
    nbar_23: float = 0.0
    e1: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(
                    f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not (self.e2 > self.e1 and self.e2 > self.e3):
            raise ValueError("lambda ordering requires e2 > e1 and e2 > e3")
        if not (abs(self.e2 - self.e1) > abs(self.e1 - self.e3)
                and abs(self.e2 - self.e3) > abs(self.e1 - self.e3)):
            raise ValueError(
                "lambda ordering requires |e2-e1|, |e2-e3| > |e1-e3|")
        for name in ("rabi_p", "rabi_c", "gamma_12", "gamma_23",
                     "nbar_12", "nbar_23"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.omega_p <= 0 or self.omega_c <= 0:
            raise ValueError("field frequencies must be positive")

    @classmethod
    def tpr(cls, e2=6.0, e3=2.0, *, delta_omega_p=0.0, delta_omega_c=0.0,
            e1=0.0, **kwargs) -> "LambdaParams":
        """Two-photon-resonance constructor: field frequencies are set from
        the level spacings plus the given detunings."""
        return cls(e2=e2, e3=e3, e1=e1,
                   omega_p=e2 - e1 + delta_omega_p,
                   omega_c=e2 - e3 + delta_omega_c,
                   **kwargs)

    @property
    def is_dissipative(self) -> bool:
        return self.gamma_12 > 0 or self.gamma_23 > 0

    def with_(self, **kwargs) -> "LambdaParams":
        return replace(self, **kwargs)


def preset(name: str, *, delta_omega_p=0.0, delta_omega_c=0.0) -> LambdaParams:
    """Built-in parameter presets A-I ... C-II (see _PRESET_TABLE)."""
    try:
        letter, variant = name.split("-")
        gammas = {"I": {}, "II": dict(gamma_12=0.9, gamma_23=1.0)}[variant]
        fields = dict(_PRESET_TABLE[letter], **gammas)
    except (ValueError, KeyError):
        raise KeyError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return LambdaParams.tpr(delta_omega_p=delta_omega_p,
                            delta_omega_c=delta_omega_c, **fields)


def _op(i: int, j: int) -> np.ndarray:
    """|i><j| with 1-based state labels."""
    m = np.zeros((DIM, DIM), dtype=complex)
    m[i - 1, j - 1] = 1.0
    return m


def h0(p: LambdaParams) -> np.ndarray:
    """Bare Hamiltonian diag(E1, E2, E3)."""
    return np.diag([p.e1, p.e2, p.e3]).astype(complex)


def frame_rates(p: LambdaParams, dim: int = DIM) -> np.ndarray:
    """Rates theta of the rotating frame F(t) = diag(e^{i theta t}), the
    one definition of that frame: theta = (0, w_p, w_p - w_c) on the
    amplitudes (dim 3), a state entering it as F(t) psi; theta_i - theta_j
    at vec(rho)[i, j], row-major (dim 9), its diagonal exactly 0; no other
    dim.  The RWA drive's generators declare the frame -theta."""
    theta = np.array([0.0, p.omega_p, p.omega_p - p.omega_c])
    return {DIM: theta, LDIM: np.subtract.outer(theta, theta).ravel()}[dim]


# The jump operators |i><j| of the four dissipation channels.
_JUMPS = ((1, 2), (2, 1), (3, 2), (2, 3))


def jump_operators(p: LambdaParams) -> list[tuple[np.ndarray, float]]:
    """The four (operator, rate) dissipation channels: stimulated plus
    spontaneous decay |2>->|1> and |2>->|3>, and their bath-driven
    reverses."""
    rates = (p.gamma_12 * (p.nbar_12 + 1.0), p.gamma_12 * p.nbar_12,
             p.gamma_23 * (p.nbar_23 + 1.0), p.gamma_23 * p.nbar_23)
    return [(_op(i, j), rate) for (i, j), rate in zip(_JUMPS, rates)]


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a 3x3 operator."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (DIM, DIM):
        raise DimensionError(f"vec expects a {DIM}x{DIM} matrix, got {a.shape}")
    return a.reshape(LDIM).copy()


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (LDIM,):
        raise DimensionError(f"unvec expects a length-{LDIM} vector, got {v.shape}")
    return v.reshape(DIM, DIM).copy()


@functools.cache
def _channels() -> np.ndarray:
    """The (4, 9, 9) superoperators L ox L* - (L^dag L ox I + I ox L^T L*)
    / 2 of the jump operators, in jump_operators' order, read-only: they
    carry no parameter, so they are built once, on first use."""
    ident = np.eye(DIM)
    ops = np.array([_op(i, j) for i, j in _JUMPS])
    ldl = np.conj(np.swapaxes(ops, -1, -2)) @ ops
    out = kron(ops, ops.conj()) - 0.5 * (
        kron(ldl, ident) + kron(ident, np.swapaxes(ldl, -1, -2)))
    out.flags.writeable = False
    return out


def lindbladian(p: LambdaParams) -> np.ndarray:
    """Time-independent dissipative superoperator (9x9):
    sum_k c_k (L ox L* - (L^dag L ox I + I ox L^T L*) / 2)."""
    d = np.zeros((LDIM, LDIM), dtype=complex)
    for channel, (_, rate) in zip(_channels(), jump_operators(p)):
        if rate != 0.0:
            d += rate * channel
    return d


def ground_state() -> np.ndarray:
    """Initial condition |1><1| used throughout."""
    return _op(1, 1)


# ---------------------------------------------------------------------------
# Generator builders for the Magnus steppers
# ---------------------------------------------------------------------------

def _comm_super(h: np.ndarray) -> np.ndarray:
    """Commutator superoperator kron(h, I) - kron(I, h.T) of one operator,
    or of each operator in a (K, 3, 3) stack."""
    ident = np.eye(DIM)
    return kron(h, ident) - kron(ident, np.swapaxes(h, -1, -2))


def _signs(p: LambdaParams, shift: float) -> np.ndarray:
    """Z = diag(s_p, 1, s_c) for a time shift s, s_k the sign of cos(w_k s):
    where both cosines are +-1, A(t + s) = Z A(t) Z for either drive."""
    s_p, s_c = np.where(np.cos(np.array([p.omega_p, p.omega_c]) * shift)
                        < 0.0, -1.0, 1.0)
    return np.array([s_p, 1.0, s_c])


@functools.cache
def _drive_ops(rwa: bool) -> tuple[np.ndarray, np.ndarray]:
    """The (K, 3, 3) Hermitian drive operators of _drive, X_g = |g><2| +
    |2><g| (probe g = 1, control g = 3) and for the RWA drive then Y_g =
    i(|g><2| - |2><g|), and -1j times their commutator superoperators,
    read-only, built on first use."""
    ops = [_op(1, 2) + _op(2, 1), _op(3, 2) + _op(2, 3)]
    if rwa:
        ops += [1j * (_op(1, 2) - _op(2, 1)), 1j * (_op(3, 2) - _op(2, 3))]
    ops = np.array(ops)
    lifted = -1j * _comm_super(ops)
    ops.flags.writeable = lifted.flags.writeable = False
    return ops, lifted


def _drive(p: LambdaParams, rwa: bool):
    """The drive Hamiltonian as sum_k f_k(t) ops[k]: the map from times
    (...) to the real coefficients f_k, (..., K), of the (K, 3, 3)
    operator stack _drive_ops(rwa)[0].

    Full drive: -rabi cos(w t) on each field's coupling X_g.  RWA: the
    co-rotating half, -rabi/2 (cos(w t) X_g + sin(w t) Y_g), which is
    -rabi/2 e^{-i w t} on the raising part |2><g| and its conjugate on
    the lowering part |g><2|; constant in the rotating frame of
    frame_rates.
    """
    rabi = np.array([p.rabi_p, p.rabi_c]) * (-0.5 if rwa else -1.0)
    omega = np.array([p.omega_p, p.omega_c])
    quadratures = (np.cos, np.sin) if rwa else (np.cos,)

    def coefficients(t: np.ndarray) -> np.ndarray:
        phase = omega * t[..., None]
        return np.concatenate([rabi * f(phase) for f in quadratures], axis=-1)

    return coefficients


def closed_generator(p: LambdaParams, rwa: bool = False) -> Generator:
    """3x3 Hilbert-space generator -i H(t) for unitary dynamics, with the
    real coefficients of _drive.  The RWA drive declares the rotating
    frame -frame_rates(p), so it is propagated exactly; the full drive's
    Magnus steps run on its real 6x6 realification."""
    return Generator(-1j * h0(p), -1j * _drive_ops(rwa)[0], _drive(p, rwa),
                     -frame_rates(p) if rwa else None,
                     gauge=lambda shift: _signs(p, shift))


def liouville_generator(p: LambdaParams, rwa: bool = False,
                        dissipative: bool | None = None) -> Generator:
    """9x9 Liouville-space generator -i L(t) (+ D when dissipative).

    The same affine drive as closed_generator, with every operator lifted
    through the commutator superoperator and the time-independent
    dissipator folded into the constant part.  The RWA drive declares the
    lifted frame -frame_rates(p, LDIM); the dissipator commutes with it.
    Either drive, on its Hermitian operators with real coefficients, is
    real in Hermitian coordinates (linalg.hermitian_coordinates), where
    the full drive's Magnus steps run.  The sign gauge lifts to Z (x) Z;
    each jump operator only changes sign under Z.
    """
    if dissipative is None:
        dissipative = p.is_dissipative
    a0 = -1j * _comm_super(h0(p))
    if dissipative:
        a0 = a0 + lindbladian(p)
    return Generator(a0, _drive_ops(rwa)[1], _drive(p, rwa),
                     -frame_rates(p, LDIM) if rwa else None,
                     lambda shift: np.outer(*2 * [_signs(p, shift)]).ravel())

"""Correctness references for the benchmark gates.

Every reference here is computed by a route that shares no code with the
propagation path under test: the rotating-frame generator is rebuilt from
the parameters, its exponential uses a plain Taylor series with scaling and
squaring (not lamsim's Pade-13 ``expm``), and steady states come from the
null vector of that generator.  Only ``LambdaParams`` fields are read.
"""

from __future__ import annotations

import numpy as np

DIM = 3


def _super(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> a @ rho @ b in row-major vectorization."""
    return np.kron(a, b.T)


def rwf_generator(p) -> np.ndarray:
    """9x9 rotating-frame Lindblad generator -i[H_rwf, .] + D of the
    co-rotating drive; time independent, so it is the exact RWA flow."""
    h = np.zeros((DIM, DIM), dtype=complex)
    h[1, 1] = (p.e2 - p.e1) - p.omega_p
    h[2, 2] = (p.e3 - p.e1) - (p.omega_p - p.omega_c)
    h[0, 1] = h[1, 0] = -0.5 * p.rabi_p
    h[1, 2] = h[2, 1] = -0.5 * p.rabi_c
    ident = np.eye(DIM, dtype=complex)
    gen = -1j * (_super(h, ident) - _super(ident, h))
    channels = (((0, 1), p.gamma_12 * (p.nbar_12 + 1.0)),
                ((1, 0), p.gamma_12 * p.nbar_12),
                ((2, 1), p.gamma_23 * (p.nbar_23 + 1.0)),
                ((1, 2), p.gamma_23 * p.nbar_23))
    for (i, j), rate in channels:
        jump = np.zeros((DIM, DIM), dtype=complex)
        jump[i, j] = 1.0
        ldl = jump.conj().T @ jump
        gen += rate * (_super(jump, jump.conj().T)
                       - 0.5 * (_super(ldl, ident) + _super(ident, ldl)))
    return gen


def expm_taylor(a: np.ndarray, terms: int = 24) -> np.ndarray:
    """e^a by a truncated Taylor series on a / 2^s (1-norm <= 1/2),
    followed by s squarings."""
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    s = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / 2.0 ** s
    out = np.eye(a.shape[0], dtype=complex)
    term = out.copy()
    for k in range(1, terms + 1):
        term = term @ b / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def null_state(gen: np.ndarray) -> np.ndarray:
    """Unit-trace 3x3 state spanning the null space of a 9x9 generator
    (right singular vector of its smallest singular value)."""
    _, _, vh = np.linalg.svd(gen)
    rho = vh[-1].conj().reshape(DIM, DIM)
    return rho / np.trace(rho)


def ground_vec() -> np.ndarray:
    v = np.zeros(DIM * DIM, dtype=complex)
    v[0] = 1.0
    return v


def density_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """(|tr rho - 1|, max |rho - rho^dag|, min eigenvalue of the Hermitian
    part) for a 3x3 state or a stack of them (worst over the stack)."""
    rho = np.asarray(rho, dtype=complex)
    dag = np.conj(np.swapaxes(rho, -1, -2))
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    min_eig = np.linalg.eigvalsh(0.5 * (rho + dag))[..., 0]
    return (float(np.max(np.abs(trace - 1.0))),
            float(np.max(np.abs(rho - dag))),
            float(np.min(min_eig)))


def rel_frobenius(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_F / ||b||_F written out elementwise."""
    diff = np.sqrt(np.sum(np.abs(np.asarray(a) - np.asarray(b)) ** 2))
    return float(diff / np.sqrt(np.sum(np.abs(np.asarray(b)) ** 2)))

import numpy as np
import pytest

from lamsim.model import DIM, LambdaParams, h0, preset
from lamsim.rwa_oracle import lambda_eff


def random_complex_matrix(rng: np.random.Generator, n: int,
                          scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)))


def expm_eig(a: np.ndarray) -> np.ndarray:
    """Matrix exponential from an eigendecomposition, independent of
    lamsim.linalg.expm."""
    vals, vecs = np.linalg.eig(a)
    return vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)


# Pointwise drive references.  The library builds every generator from one
# affine drive description (model._drive); these write the same operators
# out entry by entry, so tests can check the generators against them.

def h_sr(p: LambdaParams, t: float) -> np.ndarray:
    """Exact (counter-rotating included) drive Hamiltonian at time t."""
    h = np.zeros((DIM, DIM), dtype=complex)
    h[0, 1] = h[1, 0] = -p.rabi_p * np.cos(p.omega_p * t)
    h[1, 2] = h[2, 1] = -p.rabi_c * np.cos(p.omega_c * t)
    return h


def h_sr_rwa(p: LambdaParams, t: float) -> np.ndarray:
    """Co-rotating-only drive Hamiltonian at time t."""
    h = np.zeros((DIM, DIM), dtype=complex)
    h[1, 0] = -0.5 * p.rabi_p * np.exp(-1j * p.omega_p * t)
    h[0, 1] = np.conj(h[1, 0])
    h[1, 2] = -0.5 * p.rabi_c * np.exp(-1j * p.omega_c * t)
    h[2, 1] = np.conj(h[1, 2])
    return h


def hamiltonian(p: LambdaParams, t: float, rwa: bool) -> np.ndarray:
    """Full system Hamiltonian h0 + drive at time t."""
    return h0(p) + (h_sr_rwa(p, t) if rwa else h_sr(p, t))


def h_rwf(p: LambdaParams) -> np.ndarray:
    """Time-independent Hamiltonian in the rotating frame (energies taken
    relative to E1)."""
    w2 = p.e2 - p.e1
    w3 = p.e3 - p.e1
    return 0.5 * np.array([
        [0.0, -p.rabi_p, 0.0],
        [-p.rabi_p, 2.0 * (w2 - p.omega_p), -p.rabi_c],
        [0.0, -p.rabi_c, 2.0 * (w3 - (p.omega_p - p.omega_c))],
    ], dtype=complex)


def liouvillian(p: LambdaParams, t: float, rwa: bool = False) -> np.ndarray:
    """Hamiltonian commutator superoperator H ox I - I ox H^T (9x9)."""
    h, ident = hamiltonian(p, t, rwa), np.eye(DIM)
    return np.kron(h, ident) - np.kron(ident, h.T)


def rwa_propagator_tpr(p: LambdaParams, t: float) -> np.ndarray:
    """Closed-form rotating-frame time-evolution operator (unitary) at
    zero-detuning two-photon resonance; rwa_density_tpr is U |1><1| U^dag."""
    lam = lambda_eff(p)
    oc2 = p.rabi_c ** 2
    op2 = p.rabi_p ** 2
    s = oc2 + op2
    c = np.cos(lam * t)
    sn = np.sin(lam * t)
    return np.array([
        [(oc2 + op2 * c) / s,
         1j * p.rabi_p * sn / (2.0 * lam),
         p.rabi_c * p.rabi_p * (c - 1.0) / s],
        [1j * p.rabi_p * sn / (2.0 * lam),
         c,
         1j * p.rabi_c * sn / (2.0 * lam)],
        [p.rabi_c * p.rabi_p * (c - 1.0) / s,
         1j * p.rabi_c * sn / (2.0 * lam),
         (oc2 * c + op2) / s],
    ], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def case_a():
    return preset("A-I")


@pytest.fixture
def case_a_open():
    return preset("A-II")

"""Floquet-Fourier steady-state oracle (Shirley, Phys. Rev. 138, B979
(1965); Grifoni & Hanggi, Phys. Rep. 304, 229 (1998)).

At q = 1 the Liouville generator A(t) = -i [H(t), .] + D is 2 pi-periodic
with integer harmonics only, so the periodic steady state
v(t) = sum_n v_n e^{int} solves one block-banded linear system,
(A_0 - i n) v_n + sum_{m != 0} A_m v_{n-m} = 0 for |n| <= N, with one row
replaced by tr v_0 = 1.  Its rotating-frame period average is read off the
harmonics directly, rho_rwf[i, j] = v_{phi_j - phi_i}[i, j] with
phi = (0, w_p, w_p - w_c).  Nothing here goes through the library's Magnus
steppers, matrix exponential or period maps.
"""

import numpy as np
import pytest

from lamsim.model import DIM, LDIM, lindbladian, preset
from lamsim.sweep import steady_state_summary

from conftest import liouvillian

HARMONICS = 60   # |n| <= N; C-II full still moves 3.5e-8 at N = 40
SAMPLES = 64     # DFT points per period, above twice the top drive harmonic


def floquet_steady_state(p, rwa: bool,
                         harmonics: int = HARMONICS) -> np.ndarray:
    """Rotating-frame period average of the periodic steady state,
    from the harmonics |n| <= harmonics."""
    times = 2.0 * np.pi * np.arange(SAMPLES) / SAMPLES
    a = np.array([-1j * liouvillian(p, t, rwa) + lindbladian(p)
                  for t in times])
    top = round(max(abs(p.omega_p), abs(p.omega_c)))
    a_m = np.fft.fft(a, axis=0) / SAMPLES  # A_m at index m mod SAMPLES
    n = np.arange(-harmonics, harmonics + 1)
    size = len(n)
    block = np.zeros((size, LDIM, size, LDIM), dtype=complex)
    for m in range(-top, top + 1):
        rows = np.arange(max(0, m), min(size, size + m))
        block[rows, :, rows - m, :] = a_m[m % SAMPLES]
    block[np.arange(size), :, np.arange(size), :] -= (
        1j * n[:, None, None] * np.eye(LDIM))
    system = block.reshape(size * LDIM, size * LDIM)
    rhs = np.zeros(size * LDIM, dtype=complex)
    # The trace rows of block n = 0 sum to zero, so rho11's row is spare.
    row = harmonics * LDIM
    system[row] = 0.0
    system[row, row + np.arange(0, LDIM, DIM + 1)] = 1.0
    rhs[row] = 1.0
    v = np.linalg.solve(system, rhs).reshape(size, DIM, DIM)
    phi = np.array([0.0, p.omega_p, p.omega_p - p.omega_c])
    shift = np.rint(phi[None, :] - phi[:, None]).astype(int)
    i, j = np.indices((DIM, DIM))
    return v[shift + harmonics, i, j]


CASES = [
    ("A-II", {}), ("B-II", {}), ("C-II", {}),
    ("B-II", {"delta_omega_p": 1.0}), ("A-II", {"delta_omega_c": -1.0}),
    ("C-II", {"delta_omega_p": -1.0}),
]


@pytest.mark.parametrize("drive", ["full", "rwa"])
@pytest.mark.parametrize("case,detuning", CASES)
def test_steady_state_matches_floquet_oracle(case, detuning, drive):
    p = preset(case, **detuning)
    got = steady_state_summary(p, rwa=(drive == "rwa"))["rho_ss_rwf"]
    want = floquet_steady_state(p, rwa=(drive == "rwa"))
    assert np.max(np.abs(got - want)) <= 1e-12


def test_oracle_converged_in_harmonics():
    # The slowest case, C-II full: the solution no longer moves at N.
    p = preset("C-II")
    at_n = floquet_steady_state(p, rwa=False)
    beyond = floquet_steady_state(p, rwa=False, harmonics=HARMONICS + 10)
    assert np.max(np.abs(at_n - beyond)) <= 1e-13

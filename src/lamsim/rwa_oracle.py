"""Closed-form results for the co-rotating drive at exact two-photon
resonance with zero detuning, used as ground truth for the numerical stack.

At zero detuning the rotating-frame Hamiltonian has eigenvalues
{0, +lam, -lam} with lam = sqrt(rabi_c^2 + rabi_p^2) / 2, which gives a
closed-form time-evolution operator and, for the initial state |1><1|, a
closed-form rotating-frame density matrix (rwa_density_tpr).
"""

from __future__ import annotations

import numpy as np

from .model import LambdaParams

TPR_TOL = 1e-12


class NotTprError(ValueError):
    """Parameters are not at zero-detuning two-photon resonance."""


def _require_tpr(p: LambdaParams) -> None:
    scale = max(1.0, abs(p.e2))
    if (abs(p.omega_p - (p.e2 - p.e1)) > TPR_TOL * scale
            or abs(p.omega_c - (p.e2 - p.e3)) > TPR_TOL * scale):
        raise NotTprError(
            "requires omega_p = e2 - e1 and omega_c = e2 - e3 "
            f"(got omega_p={p.omega_p}, omega_c={p.omega_c})")
    if p.rabi_p == 0.0 and p.rabi_c == 0.0:
        raise NotTprError("requires at least one nonzero Rabi frequency")


def lambda_eff(p: LambdaParams) -> float:
    """Effective Rabi angular frequency sqrt(rabi_c^2 + rabi_p^2) / 2."""
    _require_tpr(p)
    return 0.5 * np.hypot(p.rabi_c, p.rabi_p)


def rwa_density_tpr(p: LambdaParams, t: float) -> np.ndarray:
    """Closed-form rotating-frame density matrix for the initial state
    |1><1| (Hermitian, unit trace)."""
    lam = lambda_eff(p)
    oc2 = p.rabi_c ** 2
    op2 = p.rabi_p ** 2
    s = oc2 + op2
    c1 = np.cos(lam * t)
    c2 = np.cos(2.0 * lam * t)
    s1 = np.sin(lam * t)
    s2 = np.sin(2.0 * lam * t)
    oc = p.rabi_c
    op = p.rabi_p
    r11 = (2.0 * oc2 ** 2 + op2 ** 2 + 4.0 * oc2 * op2 * c1
           + op2 ** 2 * c2) / (2.0 * s ** 2)
    r12 = -1j * (2.0 * oc2 * op * s1 + op ** 3 * s2) / (2.0 * s ** 1.5)
    r13 = (2.0 * oc * op * (op2 - oc2) * (1.0 - c1)
           + oc * op ** 3 * (c2 - 1.0)) / (2.0 * s ** 2)
    r22 = op2 * (1.0 - c2) / (2.0 * s)
    r23 = -1j * oc * op2 * (2.0 * s1 - s2) / (2.0 * s ** 1.5)
    r33 = oc2 * op2 * (-4.0 * c1 + c2 + 3.0) / (2.0 * s ** 2)
    return np.array([
        [r11, r12, r13],
        [np.conj(r12), r22, r23],
        [np.conj(r13), np.conj(r23), r33],
    ], dtype=complex)

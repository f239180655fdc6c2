"""Quantitative diagnostics: co-rotating-approximation error metric,
spectral gap of one-period propagators, CPTP validation, and density-matrix
sanity reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_coordinates
from .model import DIM, LDIM
from .periodic import STEP_ERROR_TARGET, trace_functional

DEGENERATE_GAP_TOL = 1e-12
SAME_DECAY_TOL = 1e-9  # relative: decays this close are ordered by Im(log)
# |lambda_2| at or below the max-entry accuracy periodic.accurate_plan
# guarantees for every reported U_T is rounding noise: the gap it gives is
# reported as unresolved (NaN).
LAMBDA2_FLOOR = STEP_ERROR_TARGET


def rwa_error(rho_rwa: np.ndarray, rho: np.ndarray):
    """Relative Frobenius deviation |rho_rwa - rho|_F / |rho|_F: a float
    for one pair of states, an array for two (..., 3, 3) stacks, with the
    norms taken over the last two axes."""
    rho_rwa = np.asarray(rho_rwa, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho_rwa.shape != rho.shape:
        raise ValueError(f"shape mismatch: {rho_rwa.shape} vs {rho.shape}")
    denom = np.linalg.norm(rho, axis=(-2, -1))
    if np.any(denom == 0.0):
        raise ValueError("reference state has zero norm")
    err = np.linalg.norm(rho_rwa - rho, axis=(-2, -1)) / denom
    return float(err) if err.ndim == 0 else err


@dataclass(frozen=True)
class GapReport:
    """Eigenvalue logs of a one-period propagator, in spectral_gap's
    order, and the resulting decay gap: gap per period, gap_per_time per
    unit time (gap divided by the period).  Both are NaN when the gap is
    unresolved (|lambda_2| <= LAMBDA2_FLOOR)."""

    eigen_logs: np.ndarray
    gap: float
    degenerate: bool
    gap_per_time: float


def resolved_log(log):
    """Whether an eigenvalue with principal log `log` is resolved: its
    modulus e^Re(log) is above LAMBDA2_FLOOR.  At or below the floor it is
    rounding noise."""
    return np.real(log) > math.log(LAMBDA2_FLOOR)


def spectral_gap(u_period: np.ndarray, period: float) -> GapReport:
    """Principal-branch logs of the eigenvalues of a one-period propagator,
    sorted by decay exponent -Re(log) ascending; decays that agree to
    SAME_DECAY_TOL * max(1, |decay|) count as equal and are ordered by
    Im(log) ascending, so conjugate pairs sit side by side and the order
    does not depend on the eigensolver's.

    The steady eigenvalue is the one whose log has real part closest to
    zero; the gap is the smallest decay exponent among the rest, per
    period and per unit of time (gap / period).  A map with all decay
    exponents below tolerance (e.g. a unitary) is reported with gap 0 and
    the degenerate flag set.  When the largest non-steady eigenvalue
    modulus |lambda_2| = e^-gap is at or below LAMBDA2_FLOOR, it is
    rounding noise and the gap is NaN (unresolved).

    A 9x9 map that preserves Hermiticity is real in the Hermitian
    coordinates S of linalg.hermitian_coordinates, S^-1 U S.  When it is
    real there to the max-entry accuracy STEP_ERROR_TARGET of every
    resolved U_T, the eigenvalues come from that real matrix, so conjugate
    pairs are exact conjugates.
    """
    u_period = np.asarray(u_period, dtype=complex)
    if u_period.shape == (LDIM, LDIM):
        s, s_inv = hermitian_coordinates(DIM)
        u_real = s_inv @ u_period @ s
        if (abs(u_real.imag).max()
                <= STEP_ERROR_TARGET * abs(u_real.real).max()):
            u_period = u_real.real
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 is -inf
        logs = np.log(np.linalg.eigvals(u_period).astype(complex))
        logs = logs[np.argsort(-logs.real, kind="stable")]
        decay = -logs.real
        new_decay = np.diff(decay) > SAME_DECAY_TOL * np.maximum(
            1.0, np.abs(decay[:-1]))
    logs = logs[np.lexsort((logs.imag, np.r_[0, np.cumsum(new_decay)]))]
    # the steady eigenvalue, whose log's real part is closest to zero
    decays = -np.delete(logs.real, np.argmin(np.abs(logs.real)))
    if len(decays) == 0 or np.max(decays) <= DEGENERATE_GAP_TOL:
        return GapReport(logs, 0.0, True, 0.0)
    gap = max(0.0, float(np.min(decays)))
    if not resolved_log(-gap):  # log |lambda_2| = -gap
        gap = math.nan
    return GapReport(logs, gap, False, gap / period)


@dataclass(frozen=True)
class CptpReport:
    trace_defect: float
    min_choi_eigenvalue: float
    choi_hermiticity_defect: float


def choi_matrix(m: np.ndarray) -> np.ndarray:
    """Reshuffle a 9x9 superoperator (row-major vectorization convention)
    into its Choi matrix; for a map built from a single Kraus operator A
    the result is the rank-1 projector vec(A) vec(A)^dag."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (LDIM, LDIM):
        raise ValueError(f"expected a {LDIM}x{LDIM} map, got {m.shape}")
    return m.reshape(DIM, DIM, DIM, DIM).transpose(0, 2, 1, 3).reshape(
        LDIM, LDIM)


def trace_defect(m: np.ndarray) -> float:
    """max |w m - w|, w = vec(I): a 9x9 map's trace-preservation defect."""
    w = trace_functional()
    return float(np.max(np.abs(w @ np.asarray(m) - w)))


def cptp_check(m: np.ndarray) -> CptpReport:
    """Raw defects of a 9x9 map: trace preservation (trace_defect),
    complete positivity (Choi minimum eigenvalue) and Choi Hermiticity.
    No thresholding."""
    choi = choi_matrix(m)
    return CptpReport(
        trace_defect=trace_defect(m),
        min_choi_eigenvalue=float(np.min(np.linalg.eigvalsh(
            0.5 * (choi + choi.conj().T)))),
        choi_hermiticity_defect=float(np.max(np.abs(choi - choi.conj().T))))


@dataclass(frozen=True)
class DensityReport:
    trace_defect: float
    hermiticity_defect: float
    min_eigenvalue: float


def density_validity(rho: np.ndarray) -> DensityReport:
    """Raw defect report for a 3x3 state: trace, Hermiticity, minimum
    eigenvalue of the Hermitian part.  No thresholding."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (DIM, DIM):
        raise ValueError(f"expected a {DIM}x{DIM} state, got {rho.shape}")
    herm = 0.5 * (rho + rho.conj().T)
    return DensityReport(
        trace_defect=float(abs(np.trace(rho).real - 1.0)),
        hermiticity_defect=float(np.max(np.abs(rho - rho.conj().T))),
        min_eigenvalue=float(np.min(np.linalg.eigvalsh(herm))),
    )

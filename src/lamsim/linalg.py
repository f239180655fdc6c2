"""Dense complex linear algebra kernel.

Everything here operates on small (<= 64x64) dense complex numpy arrays:
3x3 Hilbert-space operators and 9x9 Liouville-space superoperators.  The
matrix exponential is implemented here directly (scaling-and-squaring with
a degree-13 Pade core) because it dominates the propagation loops and the
matrices are tiny; it takes whole (..., d, d) stacks, so that a chunk of
Magnus steps costs one call.  Eigenvalues are delegated to LAPACK.  This
module pins down the contracts the rest of the package relies on (error
types, finiteness, value semantics).

All functions return freshly allocated arrays and never mutate their
arguments.
"""

from __future__ import annotations

import math

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class EigConvergenceError(RuntimeError):
    """The QR eigenvalue iteration failed to converge."""


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got shape {a.shape}")
    return a


def _require_square(a: np.ndarray, name: str = "matrix") -> None:
    if a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")


# Degree-13 Pade numerator coefficients for exp, b[0] .. b[13].
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
])
# 1-norm below which the [13/13] approximant alone reaches double precision.
_PADE13_THETA = 5.371920351148152


def expm(a) -> np.ndarray:
    """Matrix exponential e^a of one matrix or of a (..., d, d) stack,
    scaling-and-squaring with a [13/13] Pade core; each matrix's squaring
    count is chosen from its own 1-norm.

    Raises DimensionError for non-square input.  Result entries are
    guaranteed finite; a non-finite result (wildly out-of-range input)
    raises FloatingPointError rather than propagating NaNs.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack, got {a.shape}")
    _require_square(a)
    shape = a.shape
    a = a.reshape((math.prod(shape[:-2]),) + shape[-2:])
    with np.errstate(over="ignore"):
        norms = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.all(np.isfinite(norms)):
        raise FloatingPointError("expm input norm is non-finite")
    squarings = np.ceil(np.log2(np.maximum(norms / _PADE13_THETA, 1.0))
                        ).astype(int)
    a_scaled = a / (2.0 ** squarings)[:, None, None]
    ident = np.eye(shape[-1], dtype=complex)
    b = _PADE13
    a2 = a_scaled @ a_scaled
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a_scaled @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                    + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) \
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    out = np.linalg.solve(v - u, v + u)
    for i in range(squarings.max(initial=0)):
        pending = squarings > i
        out[pending] = out[pending] @ out[pending]
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("expm produced non-finite entries")
    return out.reshape(shape)


def kron(a, b) -> np.ndarray:
    """Kronecker product, (a.rows*b.rows) x (a.cols*b.cols)."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def eig(a) -> np.ndarray:
    """All eigenvalues of a square matrix (order unspecified).

    Backed by LAPACK's Hessenberg-reduction + shifted-QR driver.
    Non-convergence raises EigConvergenceError, never silent.
    """
    a = _as_matrix(a)
    _require_square(a)
    if a.shape[0] > 64:
        raise DimensionError(f"eig supports dimension <= 64, got {a.shape[0]}")
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigConvergenceError(str(exc)) from exc


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared moduli of all entries."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def commutator(a, b) -> np.ndarray:
    """a @ b - b @ a for square matrices of equal dimension."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    _require_square(a, "first operand")
    _require_square(b, "second operand")
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a

"""Dense linear algebra kernel.

Everything here operates on small dense numpy arrays: complex 3x3
Hilbert-space operators and 9x9 Liouville-space superoperators, the latter
also real in the Hermitian coordinates of a Hermiticity-preserving
generator (see ``magnus``).  The matrix exponential is implemented here directly because
it dominates the propagation loops and the matrices are tiny; it takes
whole (..., d, d) stacks, so that a chunk of Magnus steps (1-norms below
0.02) costs one solve-free degree-8 Taylor evaluation, while stacks with a
1-norm above 0.05 get scaling-and-squaring with a degree-13 Pade core.  A
real stack stays real in both branches.  Everything else calls numpy
directly.  This module pins down the contracts the rest of the
package relies on (error types, finiteness, value semantics).

All functions return freshly allocated arrays and never mutate their
arguments.
"""

from __future__ import annotations

import math

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


# Degree-13 Pade numerator coefficients for exp, b[0] .. b[13].
_PADE13 = np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
])
# 1-norm below which the [13/13] approximant alone reaches double precision.
_PADE13_THETA = 5.371920351148152
# Largest 1-norm for the unscaled degree-8 Taylor polynomial (tail < 1e-17);
# above it Pade stays unitary to 1e-14 where scaled Taylor drifts to 4e-13.
_TAYLOR8_THETA = 5.0e-2
_TAYLOR8 = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, 9.0)])  # 1 / k!


def expm(a) -> np.ndarray:
    """Matrix exponential e^a of one matrix or of a (..., d, d) stack: a
    degree-8 Taylor polynomial if every 1-norm is at most _TAYLOR8_THETA,
    else scaling-and-squaring with a [13/13] Pade core, each matrix's
    squaring count chosen from its own 1-norm.

    Real input gives a float64 result, anything else complex128.  Raises
    DimensionError for non-square input.  Result entries are guaranteed
    finite; a non-finite result (wildly out-of-range input) raises
    FloatingPointError rather than propagating NaNs.
    """
    a = np.asarray(a)
    a = a.astype(float if np.isrealobj(a) else complex, copy=False)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionError(
            f"expected a square matrix or a stack of them, got {a.shape}")
    shape = a.shape
    a = a.reshape((math.prod(shape[:-2]),) + shape[-2:])
    with np.errstate(over="ignore"):
        norms = np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)
    if not np.all(np.isfinite(norms)):
        raise FloatingPointError("expm input norm is non-finite")
    if norms.max(initial=0.0) <= _TAYLOR8_THETA:
        return _taylor8(a).reshape(shape)
    squarings = np.ceil(np.log2(np.maximum(norms / _PADE13_THETA, 1.0))
                        ).astype(int)
    a_scaled = a / (2.0 ** squarings)[:, None, None]
    ident = np.eye(shape[-1], dtype=a.dtype)
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


def _taylor8(a: np.ndarray) -> np.ndarray:
    """Degree-8 Taylor polynomial of an (n, d, d) stack, Paterson-Stockmeyer
    form B0 + A^3 (B1 + A^3 B2) with B_j = sum_i c_3j+i A^i."""
    c, diag = _TAYLOR8, np.arange(a.shape[-1])
    a2 = a @ a
    a3 = a2 @ a
    out = 0.0
    for j in (6, 3, 0):  # B2, then Horner steps through B1 and B0
        out = c[j + 1] * a + c[j + 2] * a2 + (a3 @ out if j < 6 else 0.0)
        out[:, diag, diag] += c[j]  # the identity term, on the diagonal
    return out  # finite: every entry is bounded by e^theta


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared moduli of all entries."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


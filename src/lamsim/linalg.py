"""Dense linear algebra kernel.

Everything here operates on small dense numpy arrays: complex 3x3
Hilbert-space operators and 9x9 Liouville-space superoperators, the latter
also real in ``hermitian_coordinates``, the package's one coordinate system
for Hermiticity-preserving maps.  The matrix exponential is implemented here
directly because it dominates the propagation loops and the matrices are
tiny; it takes whole (..., d, d) stacks, so that a chunk of Magnus steps
costs one solve-free Taylor evaluation: degree 8 for 1-norms up to 0.05,
12 up to 0.25, 16 up to 0.7 and 25 up to 2.3 (4, 5, 6 and 8 matrix
products), which covers every Magnus stack of the presets' steady-state
search (exponent 1-norms up to 1.7 at its coarsest probe).  Stacks with a
larger 1-norm, such as the exact rotating-frame route's e^{TB}, get
scaling and squaring on the degree-25 polynomial.  No branch takes a
linear solve, and a real stack stays real.  ``kron`` forms Kronecker
products of operators and operator stacks by broadcasting.  Everything
else calls numpy directly.
This module pins down the contracts the rest of the package relies on
(error types, finiteness, value semantics).

No function mutates its arguments; all return freshly allocated arrays
but hermitian_coordinates, whose cached pair is read-only.
"""

from __future__ import annotations

import functools
import math

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


# Largest 1-norm for the unscaled Taylor polynomial of degree 8, 12, 16 and
# 25, its tail theta^(m+1) / (m+1)! below 1e-17 (the tail reaches the unit
# roundoff at 0.070, 0.335, 0.83 and 2.57; Bader, Blanes & Casas,
# Mathematics 7, 1174 (2019)).
_TAYLOR8_THETA = 5.0e-2
_TAYLOR12_THETA = 0.25
_TAYLOR16_THETA = 0.7
_TAYLOR25_THETA = 2.3
_TAYLOR_DEGREES = ((_TAYLOR8_THETA, 8), (_TAYLOR12_THETA, 12),
                   (_TAYLOR16_THETA, 16), (_TAYLOR25_THETA, 25))
_INV_FACTORIAL = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, 26.0)])  # 1 / k!


def expm(a) -> np.ndarray:
    """Matrix exponential e^a of one matrix or of a (..., d, d) stack: the
    Taylor polynomial of the lowest degree in _TAYLOR_DEGREES (8, 12, 16,
    25) whose 1-norm bound holds for every matrix.  Otherwise each matrix
    is scaled into the top tier by 2^-s, s = ceil(log2(|a|_1 / theta_25)),
    and its degree-25 polynomial squared s times (scaling and squaring;
    Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).

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
    # C order: _taylor adds each identity term through a flat view
    a = np.ascontiguousarray(a.reshape((math.prod(shape[:-2]),) + shape[-2:]))
    # column sums, rows added in the order of sum(axis=-2), but faster
    with np.errstate(over="ignore"):
        norms = np.einsum("nij->nj", np.abs(a)).max(axis=-1, initial=0.0)
    if not np.all(np.isfinite(norms)):
        raise FloatingPointError("expm input norm is non-finite")
    for theta, degree in _TAYLOR_DEGREES:
        if norms.max(initial=0.0) <= theta:
            return _taylor(a, degree).reshape(shape)
    theta, degree = _TAYLOR_DEGREES[-1]
    squarings = np.ceil(np.log2(np.maximum(norms / theta, 1.0))).astype(int)
    out = _taylor(a / (2.0 ** squarings)[:, None, None], degree)
    for i in range(squarings.max()):
        pending = squarings > i
        out[pending] = out[pending] @ out[pending]
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("expm produced non-finite entries")
    return out.reshape(shape)


def _taylor(a: np.ndarray, degree: int) -> np.ndarray:
    """Taylor polynomial of degree m of an (n, d, d) stack, in
    Paterson-Stockmeyer form B0 + A^s (B1 + A^s (... + A^s Br)) with
    s = ceil(sqrt m) and r = ceil(m / s) - 1, B_j = sum_i c_sj+i A^i over
    i < s, Br also taking the terms up to c_m A^(m - rs): s - 1 products for
    the powers A^2 .. A^s, kept in one preallocated stack, and r Horner
    products.  Each term is added into its block through one temporary
    stack, in the order of the plain sum."""
    c, n, d = _INV_FACTORIAL, len(a), a.shape[-1]
    s = math.isqrt(degree - 1) + 1
    r = -(-degree // s) - 1
    powers = np.empty((s - 1,) + a.shape, a.dtype)  # A^2 .. A^s
    np.matmul(a, a, out=powers[0])
    for i in range(1, s - 1):
        np.matmul(powers[i - 1], a, out=powers[i])
    term = np.empty_like(a)
    out = None
    for j in range(r, -1, -1):  # Br, then Horner steps down to B0
        top = degree if j == r else s * j + s - 1
        block = c[s * j + 1] * a
        for i in range(s * j + 2, top + 1):
            block += np.multiply(c[i], powers[i - s * j - 2], out=term)
        if out is not None:
            block += np.matmul(powers[-1], out, out=term)
        block.reshape(n, d * d)[:, ::d + 1] += c[s * j]  # identity term
        out = block
    return out  # finite: every entry is bounded by e^theta


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, or of (..., m, n) and (..., p, q) stacks
    matched over their leading axes, as one broadcast product: the same
    entries a_ij b_kl, without np.kron's per-call overhead."""
    shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (
        a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(shape)


@functools.cache
def hermitian_coordinates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """S and its exact inverse, read-only (n^2, n^2) arrays: the columns of
    S are vec E_ii, then vec(E_ij + E_ji) and vec i(E_ji - E_ij) for i < j.
    S has entries 0, +-1 and +-i, S^-1 0, 1, +-1/2 and +-i/2, so a change of
    coordinates only adds and halves.  S^-1 L S is real for every L that
    maps Hermitian operators to Hermitian ones (the coherence-vector form;
    Alicki & Lendi, Lect. Notes Phys. 717 (2007))."""
    e = np.eye(n * n).reshape(n, n, n * n)  # e[i, j] = vec E_ij
    i, j = np.triu_indices(n, 1)
    pairs = np.stack([e[i, j] + e[j, i], 1j * (e[j, i] - e[i, j])], axis=1)
    s = np.concatenate([e[range(n), range(n)],
                        pairs.reshape(-1, n * n)]).T.astype(complex)
    s_inv = s.conj().T / np.sum(np.abs(s) ** 2, axis=0)[:, None]
    s.flags.writeable = s_inv.flags.writeable = False
    return s, s_inv


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared moduli of all entries."""
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


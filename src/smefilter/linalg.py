"""Dense complex linear algebra for small operator matrices.

Everything operates on plain ``numpy`` arrays of complex128.  The matrices
involved are tiny (Hilbert-space dimension of a few, vectorized systems of
dimension a few dozen), so all algorithms are direct dense methods chosen
for predictability rather than asymptotic speed.

Vectorization follows the column-stacking convention: ``vec`` stacks the
columns of an ``n x n`` matrix into a single column of length ``n**2``, so
that ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)`` where ``B.T`` transposes
without conjugating.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

import numpy as np


def as_square(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix, validating the shape."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def trace(a) -> complex:
    """Sum of diagonal entries."""
    return complex(np.trace(as_square(a)))


def max_abs(a) -> float:
    """Max-entry norm ``max_ij |a_ij|``."""
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def allclose(a, b, tol: float) -> bool:
    """Entrywise equality within an explicit absolute tolerance."""
    return max_abs(np.asarray(a) - np.asarray(b)) <= tol


def hermitian_residual(a) -> float:
    """``max_abs(a - dagger(a))``, the distance from Hermiticity."""
    m = as_square(a)
    return max_abs(m - dagger(m))


def require_finite(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` as :func:`as_square` does and validate that it is finite."""
    m = as_square(a)
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is finite, then Hermitian within
    ``1e-9 * (1 + max_abs(a))``."""
    m = require_finite(a, name)
    res = hermitian_residual(m)
    limit = 1e-9 * (1.0 + max_abs(m))
    if res > limit:
        raise ValueError(f"{name} is not Hermitian: residual {res:.3e} > {limit:.3e}")
    return m


def _too_large(nrm: float) -> ValueError:
    return ValueError(f"expm argument is too large: max-entry norm {nrm:.3e} gives no finite result")


def _may_overflow(n: int, squarings: int) -> bool:
    """Whether ``squarings`` squarings of the series sum of an ``n x n``
    argument scaled to max-entry norm 1/2 can overflow.

    Such a sum has entries of modulus at most ``e^(n/2)``, and a squaring at
    most squares the largest modulus and multiplies it by ``n``.  So the
    result's entries stay below ``(n e^(n/2))^(2^squarings)``, which is
    finite while ``2^squarings (log n + n/2)`` is below ``log`` of the
    largest float, about 709.8.
    """
    return squarings >= math.log2(700.0 / (math.log(n) + 0.5 * n))


def expm(a, tol: float = 1e-12) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated series.

    The argument is scaled by a power of two until its max-entry norm is at
    most 1/2, the Taylor series is summed until the next term drops below
    the (scaled) tolerance, and the result is squared back up.  Nilpotent
    arguments terminate the series exactly, so e.g. ``expm(c * N)`` with
    ``N @ N == 0`` returns ``I + c * N`` up to rounding.

    Raises ``ValueError`` naming the max-entry norm when the argument is too
    large for this scheme: when the squarings overflow, or when the
    tolerance, divided by the scaling factor, falls below what 64 series
    terms reach (max-entry norms from about ``1e110``).  Squarings that can
    overflow run with numpy's floating-point warnings off, so the error is
    the only report.
    """
    m = as_square(a)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    n = m.shape[0]
    nrm = float(np.abs(m).max())
    if not np.isfinite(nrm):
        raise ValueError("expm requires finite entries")
    if nrm == 0.0:
        return np.eye(n, dtype=complex)
    squarings = max(0, int(np.ceil(np.log2(nrm / 0.5))))
    b = m / (2.0**squarings) if squarings else m
    x = np.eye(n, dtype=complex)
    x += b
    term = b
    cutoff = tol / (4.0 * 2.0**squarings)
    k = 1
    while float(np.abs(term).max()) > cutoff:
        k += 1
        if k > 64:
            raise _too_large(nrm)
        term = term @ b / k
        x += term
    # Only many squarings can overflow; the bound keeps the check, and the
    # silencing of numpy's overflow warnings ahead of its error, off the
    # common path.
    risky = squarings and _may_overflow(n, squarings)
    with np.errstate(over="ignore", invalid="ignore") if risky else nullcontext():
        for _ in range(squarings):
            x = x @ x
    if risky and not np.isfinite(x).all():
        raise _too_large(nrm)
    return x


def expm_many(a, tol: float = 1e-12) -> np.ndarray:
    """:func:`expm` of every matrix in a stack ``a[b]``.

    Each element gets its own squaring count and series length, and an
    element whose series has converged takes no further terms, so every
    result is bitwise the one :func:`expm` returns for that matrix alone,
    whatever else is in the stack; it raises where :func:`expm` raises for
    an element.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] < 1:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = np.broadcast_to(np.eye(m.shape[1], dtype=complex), m.shape).copy()
    nrm = np.abs(m).max(axis=(1, 2))
    if not np.isfinite(nrm).all():
        raise ValueError("expm requires finite entries")
    live = np.flatnonzero(nrm > 0.0)  # a zero matrix keeps the identity
    squarings = np.zeros(m.shape[0], dtype=int)
    squarings[live] = np.maximum(0, np.ceil(np.log2(nrm[live] / 0.5)))
    # Powers of two, so scaling by them is exact, as the one-matrix branch is.
    scale = np.ldexp(1.0, squarings)
    b = m / scale[:, None, None]
    x[live] += b[live]
    cutoff = tol / (4.0 * scale)
    term = b[live]
    k = 1
    while True:
        going = np.abs(term).max(axis=(1, 2)) > cutoff[live]
        live, term = live[going], term[going]
        if live.size == 0:
            break
        k += 1
        if k > 64:
            raise _too_large(nrm[live[0]])
        term = term @ b[live] / k
        x[live] += term
    most = int(squarings.max(initial=0))
    risky = _may_overflow(m.shape[1], most)
    with np.errstate(over="ignore", invalid="ignore") if risky else nullcontext():
        for j in range(most):
            sel = np.flatnonzero(squarings > j)
            xs = x[sel]
            x[sel] = xs @ xs
    if risky:
        bad = ~np.isfinite(x).all(axis=(1, 2))
        if bad.any():
            raise _too_large(nrm[bad.argmax()])
    return x


def kron(a, b) -> np.ndarray:
    """Kronecker product ``a (x) b``."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def vec(a) -> np.ndarray:
    """Stack the columns of a square matrix into one length-``n**2`` column."""
    return as_square(a).reshape(-1, order="F")


def unvec(v, n: int) -> np.ndarray:
    """Inverse of :func:`vec`; requires ``len(v) == n**2``."""
    w = np.asarray(v, dtype=complex)
    if w.ndim != 1 or w.size != n * n:
        raise ValueError(f"expected a vector of length {n * n}, got shape {w.shape}")
    return w.reshape((n, n), order="F")

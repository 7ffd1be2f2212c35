"""Dense complex linear algebra for small operator matrices.

Everything operates on plain ``numpy`` arrays of complex128.  The matrices
involved are tiny (Hilbert-space dimension of a few, vectorized systems of
dimension a few dozen), so all algorithms are direct dense methods chosen
for predictability rather than asymptotic speed.

There is one matrix exponential, :func:`expm_many`, which scales and
squares a stack of matrices element by element; :func:`expm` is its stack
of one.  Its accuracy and overflow checks are stated once, on
:func:`expm_many`.  Both give real results for real arguments, which the
steppers' real step maps use.

Vectorization follows the column-stacking convention: ``vec`` stacks the
columns of an ``n x n`` matrix into a single column of length ``n**2``, so
that ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)`` where ``B.T`` transposes
without conjugating.
"""

from __future__ import annotations

import math
from functools import lru_cache

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


def _too_large(nrm: float, outcome: str = "finite") -> ValueError:
    return ValueError(f"expm argument is too large: max-entry norm {nrm:.3e} gives no {outcome} result")


# The largest ``2^squarings eps`` an expm result may carry: the rounding
# error of the series sum, doubled by every squaring, relative to the
# result.  The tests and the CLI output set reach at most 2^11 eps (4.5e-13).
_SQUARING_ERROR_LIMIT = 1e-6
# The log of the smallest positive float: a result bounded by its exponential
# is the zero matrix.
_LOG_TINY = math.log(math.ulp(0.0))


def _inaccurate(m: np.ndarray, squarings: int, last_term: np.ndarray) -> bool:
    """Whether ``squarings`` squarings can leave no accurate digit in
    ``expm(m)``, whose scaled series ended with the term ``last_term``:
    ``2^squarings eps`` exceeds ``_SQUARING_ERROR_LIMIT``, the series did
    not end with an exactly zero term, and the exact result is not below
    the smallest float.

    A zero term ends the series of a nilpotent argument exactly, and the
    squarings of such a sum add no rounding for an argument such as
    ``c N`` with ``N = [[0, 1], [0, 0]]``, whose sum ``I + c N / 2^k``
    squares exactly to ``I + c N``.  The exact result is bounded by
    ``exp(mu)``, with ``mu`` the Gershgorin bound on the largest eigenvalue
    of the Hermitian part of ``m``, so the zero matrix is right for an
    argument such as ``diag(-1e20, -1e20)``."""
    if math.ldexp(np.finfo(float).eps, squarings) <= _SQUARING_ERROR_LIMIT or not last_term.any():
        return False
    h = 0.5 * (m + m.conj().T)
    mu = float((h.diagonal().real + np.abs(h).sum(axis=1) - np.abs(h.diagonal())).max())
    return not mu < _LOG_TINY


def _max_entry_norms(m: np.ndarray) -> np.ndarray:
    """The max-entry norm ``max_ij |m[b, i, j]|`` of each matrix of a
    stack, NaN for a matrix holding a NaN: ``np.maximum`` over the rows of
    the contiguous transpose of the ``(B, n^2)`` absolute values, which
    reduces whole rows at a time, where a reduction over the last two axes
    of the stack reduces each small matrix on its own (about 7 against 21
    us on a stack of 256 4x4 matrices).  The maximum is exact, so the norms
    are bitwise those of ``np.abs(m).max(axis=(1, 2))``."""
    n = m.shape[1]
    return np.maximum.reduce(np.ascontiguousarray(np.abs(m).reshape(len(m), n * n).T), 0)


def _real_or_complex(a) -> np.ndarray:
    """``a`` as a float array when it is real, a complex one otherwise."""
    m = np.asarray(a)
    return m.astype(complex if np.iscomplexobj(m) else float, copy=False)


def expm(a, tol: float = 1e-12) -> np.ndarray:
    """The matrix exponential of one square matrix: :func:`expm_many` of a
    stack of one, so the scheme, its errors and its accuracy are those of
    :func:`expm_many`.  A real argument gives a real result."""
    m = _real_or_complex(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return expm_many(m[None], tol)[0]


def expm_many(a, tol: float = 1e-12) -> np.ndarray:
    """The matrix exponential of every matrix in a stack ``a[b]``, by
    scaling-and-squaring with a truncated series; a real stack gives real
    results in real arithmetic, a complex one complex results.

    Each element is scaled by a power of two until its max-entry norm is at
    most 1/2, its Taylor series is summed until the next term drops below
    the (scaled) tolerance, and the result is squared back up.  Each element
    gets its own squaring count and series length, and an element whose
    series has converged takes no further terms, so every result is bitwise
    the one this returns for that matrix alone, whatever else is in the
    stack.  Nilpotent arguments terminate the series exactly, so e.g.
    ``expm(c * N)`` with ``N @ N == 0`` returns ``I + c * N`` up to
    rounding.

    Raises ``ValueError`` unless ``tol`` is positive and every entry finite,
    and, naming the max-entry norm of the first element at fault, when an
    element is too large for this scheme: when ``2^squarings eps`` exceeds
    1e-6 (max-entry norms from about ``2^31``), since the series sum's
    rounding error doubles with every squaring, unless the series ends with
    an exactly zero term, as a nilpotent argument's does, or the exact
    result is below the smallest float (see :func:`_inaccurate`); when the
    tolerance, divided by the scaling factor, falls below what 64 series
    terms reach; or when the squarings overflow.  No call that the tests or
    the CLI output set make comes near that limit: the largest takes 11
    squarings.  The squarings run with numpy's floating-point warnings off,
    so the error is the only report of an overflow.
    """
    m = _real_or_complex(a)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] < 1:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    x = np.empty_like(m)
    x[...] = np.eye(m.shape[1], dtype=m.dtype)
    nrm = _max_entry_norms(m)
    if not np.isfinite(nrm).all():
        raise ValueError("expm requires finite entries")
    live = np.flatnonzero(nrm > 0.0)  # a zero matrix keeps the identity
    squarings = np.zeros(m.shape[0], dtype=int)
    squarings[live] = np.maximum(0, np.ceil(np.log2(nrm[live] / 0.5)))
    # Powers of two, so scaling by them is exact.
    scale = np.ldexp(1.0, squarings[live])
    watch = np.ldexp(np.finfo(float).eps, squarings) > _SQUARING_ERROR_LIMIT
    last_term = np.zeros_like(m) if watch.any() else None  # for _inaccurate
    # The series of the elements ``live`` still summing, in compact arrays;
    # a finished sum goes to ``x``.
    b = m[live] / scale[:, None, None]
    cutoff = tol / (4.0 * scale)
    sums, term = x[live] + b, b
    k = 1
    while True:
        going = _max_entry_norms(term) > cutoff
        if not going.all():
            x[live[~going]] = sums[~going]
            if last_term is not None:
                last_term[live[~going]] = term[~going]
            live, b, cutoff, sums, term = live[going], b[going], cutoff[going], sums[going], term[going]
        if live.size == 0:
            break
        k += 1
        if k > 64:
            raise _too_large(nrm[live[0]])
        term = term @ b / k
        sums += term
    for i in np.flatnonzero(watch):
        if _inaccurate(m[i], int(squarings[i]), last_term[i]):
            raise _too_large(nrm[i], "accurate")
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(int(squarings.max(initial=0))):
            sel = np.flatnonzero(squarings > j)
            xs = x[sel]
            x[sel] = xs @ xs
    if not np.isfinite(x).all():
        raise _too_large(nrm[np.isfinite(x).all(axis=(1, 2)).argmin()])
    return x


def kron(a, b) -> np.ndarray:
    """Kronecker product ``a (x) b`` of two complex matrices.

    One broadcast product and a reshape: the same multiplications as
    ``np.kron``, so the same numbers, without its general-rank set-up."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def vec(a) -> np.ndarray:
    """Stack the columns of a square matrix into one length-``n**2`` column."""
    return as_square(a).reshape(-1, order="F")


def unvec(v, n: int) -> np.ndarray:
    """Inverse of :func:`vec`; requires ``len(v) == n**2``."""
    w = np.asarray(v, dtype=complex)
    if w.ndim != 1 or w.size != n * n:
        raise ValueError(f"expected a vector of length {n * n}, got shape {w.shape}")
    return w.reshape((n, n), order="F")


class HermitianBasis:
    """An orthogonal basis ``B_a`` of the Hermitian ``n x n`` matrices and
    the real coordinates ``s_a = tr(B_a rho)`` that it gives a Hermitian
    ``rho``, which is ``sum_a s_a B_a / tr(B_a^2)``.

    ``B_0`` is the identity, so ``s[0] = tr(rho)``.  Then, for each pair of
    levels ``j < k``, ``E_jk + E_kj`` and ``-i E_jk + i E_kj``, and last the
    diagonal ``sqrt(2/(l(l+1))) (sum_{j<l} E_jj - l E_ll)`` for ``l = 1 ..
    n-1``: the generalized Gell-Mann matrices, which for ``n = 2`` are the
    Pauli matrices ``sigma_x, sigma_y, sigma_z``, so that a 2-level state
    has ``s = tr(rho) (1, x, y, z)`` with its Bloch vector.  ``n = 1`` has
    ``B_0 = [[1]]`` alone.

    A linear map that takes Hermitian matrices to Hermitian matrices is a
    real ``n^2 x n^2`` matrix on these coordinates (:meth:`real_map`), and
    ``tr(A rho)`` a real linear functional of them (:meth:`functional`).
    :meth:`coords` and :meth:`matrices` convert stacks, each element with
    one matrix-vector product, so an element's result does not depend on
    the rest of the stack.
    """

    def __init__(self, n: int):
        mats = [np.eye(n, dtype=complex)]
        for j in range(n):
            for k in range(j + 1, n):
                sym, anti = np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
                sym[j, k] = sym[k, j] = 1.0
                anti[j, k], anti[k, j] = -1j, 1j
                mats += [sym, anti]
        for l in range(1, n):
            diag = np.zeros(n)
            diag[:l], diag[l] = 1.0, -l
            mats.append(np.diag(np.sqrt(2.0 / (l * (l + 1))) * diag).astype(complex))
        b = np.array(mats)
        self.n = n
        self.mats = b
        self.norms = np.einsum("aij,aji->a", b, b).real
        flat = b.reshape(n * n, n * n)  # flat[a, i n + j] = B_a[i, j]
        flat_t = b.transpose(0, 2, 1).reshape(n * n, n * n)  # flat_t[a, i n + j] = B_a[j, i]
        # s = U r, with r the entries of rho row by row as (re, im) pairs:
        # s_a = sum_ij Re B_a[j, i] Re rho_ij - Im B_a[j, i] Im rho_ij
        self._to_coords = np.empty((n * n, 2 * n * n))
        self._to_coords[:, 0::2], self._to_coords[:, 1::2] = flat_t.real, -flat_t.imag
        # r = W s: rho_ij = sum_a s_a B_a[i, j] / tr(B_a^2)
        dual = flat.T / self.norms
        self._to_matrices = np.empty((2 * n * n, n * n))
        self._to_matrices[0::2], self._to_matrices[1::2] = dual.real, dual.imag
        # on column-stacked vectors, s = T vec(rho) and vec(rho) = V s
        self._t, self._v = flat, flat_t.T / self.norms
        for a in (self.mats, self.norms, self._to_coords, self._to_matrices, self._t, self._v):
            a.setflags(write=False)

    def coords(self, rho) -> np.ndarray:
        """The coordinates ``(..., n^2)`` of the Hermitian part of each
        matrix of ``rho``, shape ``(..., n, n)``; a matrix that is not
        finite has coordinates that are not finite, without a warning."""
        r = np.ascontiguousarray(rho, dtype=complex)
        r = r.reshape(r.shape[:-2] + (-1,)).view(float)
        with np.errstate(invalid="ignore"):
            return np.matmul(self._to_coords, r[..., None])[..., 0]

    def matrices(self, s) -> np.ndarray:
        """The Hermitian matrices ``(..., n, n)`` of the coordinates ``s``,
        shape ``(..., n^2)``; each is exactly Hermitian."""
        s = np.ascontiguousarray(s, dtype=float)
        out = np.matmul(self._to_matrices, s[..., None])
        return out.reshape(s.shape[:-1] + (-1,)).view(complex).reshape(s.shape[:-1] + (self.n, self.n))

    def real_map(self, m) -> np.ndarray:
        """The real ``n^2 x n^2`` matrix of the map ``vec(rho) -> m
        vec(rho)`` on column-stacked vectors, which must take Hermitian
        matrices to Hermitian matrices (its imaginary part, rounding error,
        is dropped)."""
        return (self._t @ np.asarray(m, dtype=complex) @ self._v).real

    def functional(self, a) -> np.ndarray:
        """The real vector ``f`` with ``Re tr(a rho) = f . s``."""
        return np.einsum("ij,aji->a", np.asarray(a, dtype=complex), self.mats).real / self.norms


@lru_cache(maxsize=None)
def hermitian_basis(n: int) -> HermitianBasis:
    """The :class:`HermitianBasis` of ``n x n`` matrices, built once per
    ``n``; its arrays are read-only."""
    return HermitianBasis(n)

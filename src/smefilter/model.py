"""System models for the diffusion and jump measurement settings.

Two-level helpers use the basis in which the *first* basis vector is the
excited state and the second the ground state, so the operator matrices read

    sigma_x = [[0, 1], [1, 0]]      sigma_y = [[0, -i], [i, 0]]
    sigma_z = [[1, 0], [0, -1]]     sigma   = [[0, 0], [1, 0]]

``sigma`` maps excited to ground (a lowering operator), ``sigma_z`` assigns
+1 to the excited state, and the Bloch vector of a density operator rho is
``(x, y, z) = (tr(rho sx), tr(rho sy), tr(rho sz))`` with

    rho = (1/2) [[1 + z, x - i y], [x + i y, 1 - z]].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_square, dagger, max_abs, require_hermitian

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA, IDENTITY_2):
    _m.setflags(write=False)


def pauli() -> dict[str, np.ndarray]:
    """Fresh copies of the 2x2 operator set ``sigma_x/y/z`` and ``sigma``."""
    return {
        "sigma_x": SIGMA_X.copy(),
        "sigma_y": SIGMA_Y.copy(),
        "sigma_z": SIGMA_Z.copy(),
        "sigma": SIGMA.copy(),
    }


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DiffusionModel:
    """Validated diffusion-setting system: Hamiltonian ``H``, coupling ``L``,
    detection efficiency ``eta`` with noise scale ``kappa = eta**-0.5``, and
    the derived drift operator ``K = iH + L^dag L / 2``."""

    H: np.ndarray
    L: np.ndarray
    eta: float
    kappa: float
    K: np.ndarray

    @property
    def dim(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class JumpModel:
    """Validated jump-setting system: jump operator ``C``, energy operator
    ``E``, count intensity scale ``lam``, efficiency ``eta``, and the derived
    operators ``G = (lam/2) C^dag C + iE`` and ``H = E + (i lam/2)(C - C^dag)``.

    ``C_inv`` is the inverse of ``C`` when it exists (needed for the pathwise
    solver's gauge-frame states, the gauge being a power of ``C``); ``None``
    marks a singular ``C``.
    """

    C: np.ndarray
    E: np.ndarray
    lam: float
    eta: float
    G: np.ndarray
    H: np.ndarray
    C_inv: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.C.shape[0]

    @property
    def c_invertible(self) -> bool:
        return self.C_inv is not None


@dataclass(frozen=True)
class BlochVector:
    x: float
    y: float
    z: float

    def norm(self) -> float:
        return float(np.sqrt(self.x**2 + self.y**2 + self.z**2))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


def build_diffusion_model(H, L, eta: float) -> DiffusionModel:
    """Validate inputs and derive ``K`` and ``kappa``."""
    Hm = require_hermitian(H, "H")
    Lm = as_square(L)
    if Lm.shape != Hm.shape:
        raise ValueError(f"H and L dimensions differ: {Hm.shape} vs {Lm.shape}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    kappa = float(eta) ** -0.5
    K = 1j * Hm + 0.5 * (dagger(Lm) @ Lm)
    ldl = dagger(Lm) @ Lm
    if max_abs(K + dagger(K) - ldl) > 1e-12 * (1.0 + max_abs(ldl)):
        raise ValueError("derived K violates K + K^dag = L^dag L")
    return DiffusionModel(H=_frozen(Hm), L=_frozen(Lm), eta=float(eta), kappa=kappa, K=_frozen(K))


def build_jump_model(C, E, lam: float, eta: float) -> JumpModel:
    """Validate inputs, derive ``G`` and ``H``, and record invertibility of ``C``."""
    Cm = as_square(C)
    Em = require_hermitian(E, "E")
    if Em.shape != Cm.shape:
        raise ValueError(f"C and E dimensions differ: {Cm.shape} vs {Em.shape}")
    if lam <= 0.0:
        raise ValueError(f"lam must be positive, got {lam}")
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {eta}")
    G = 0.5 * lam * (dagger(Cm) @ Cm) + 1j * Em
    H = Em + 0.5j * lam * (Cm - dagger(Cm))
    cdc = lam * (dagger(Cm) @ Cm)
    if max_abs(G + dagger(G) - cdc) > 1e-12 * (1.0 + max_abs(cdc)):
        raise ValueError("derived G violates G + G^dag = lam C^dag C")
    require_hermitian(H, "derived H")
    sv = np.linalg.svd(Cm, compute_uv=False)
    invertible = sv[0] > 0.0 and sv[-1] > 1e-12 * sv[0]
    C_inv = _frozen(np.linalg.inv(Cm)) if invertible else None
    return JumpModel(
        C=_frozen(Cm), E=_frozen(Em), lam=float(lam), eta=float(eta),
        G=_frozen(G), H=_frozen(H), C_inv=C_inv,
    )


def two_level_model(gamma: float, alpha: float, delta: float, phi: float, eta: float) -> DiffusionModel:
    """Resonantly driven two-level emitter monitored in one field quadrature.

    ``H = (alpha/2) sigma_x + (delta/2) sigma_z`` (Rabi frequency ``alpha``,
    detuning ``delta``) and ``L = sqrt(gamma) exp(-i phi) sigma`` (spontaneous
    emission rate ``gamma``, local-oscillator phase ``phi``).
    """
    if gamma <= 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    H = 0.5 * (alpha * SIGMA_X + delta * SIGMA_Z)
    L = np.sqrt(gamma) * np.exp(-1j * phi) * SIGMA
    return build_diffusion_model(H, L, eta)


def bloch_from_rho(rho) -> BlochVector:
    """Bloch coordinates ``tr(rho sigma_x/y/z)`` of a 2x2 density operator."""
    m = as_square(rho)
    if m.shape[0] != 2:
        raise ValueError("Bloch coordinates are defined for 2x2 density operators")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > 1e-6:
        raise ValueError(f"trace {tr} is not 1 within 1e-6")
    require_hermitian(m, "rho")
    return BlochVector(
        x=float(np.einsum("ij,ji->", m, SIGMA_X).real),
        y=float(np.einsum("ij,ji->", m, SIGMA_Y).real),
        z=float(np.einsum("ij,ji->", m, SIGMA_Z).real),
    )


def rho_from_bloch(b) -> np.ndarray:
    """Density operator ``(I + x sx + y sy + z sz) / 2`` for ``|b| <= 1``."""
    if isinstance(b, BlochVector):
        x, y, z = b.x, b.y, b.z
    else:
        x, y, z = (float(c) for c in b)
    if x * x + y * y + z * z > 1.0 + 1e-9:
        raise ValueError(f"Bloch vector ({x}, {y}, {z}) lies outside the unit ball")
    return 0.5 * (IDENTITY_2 + x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def expected_measurement(rho, L, imag_tol: float = 1e-9) -> float:
    """Mean detector output ``tr((L + L^dag) rho)`` for a normalized state.

    The trace is real for Hermitian ``rho``; an imaginary residue at or above
    ``imag_tol`` signals a corrupted state and raises.
    """
    m = as_square(rho)
    v = complex(np.einsum("ij,ji->", np.asarray(L, dtype=complex) + dagger(L), m))
    if abs(v.imag) >= imag_tol:
        raise ValueError(f"imaginary residue {v.imag:.3e} exceeds {imag_tol:.1e}")
    return float(v.real)


def purity(rho) -> float:
    """``tr(rho @ rho)``; equals 1 exactly for pure states."""
    m = as_square(rho)
    return float(np.einsum("ij,ji->", m, m).real)

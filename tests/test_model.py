import warnings

import numpy as np
import pytest

from smefilter.linalg import allclose, dagger, max_abs
from smefilter.model import (
    IDENTITY_2,
    SIGMA,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    BlochVector,
    bloch_from_rho,
    build_diffusion_model,
    build_jump_model,
    purity,
    rho_from_bloch,
    two_level_model,
)

RHO_PLUS = np.full((2, 2), 0.5, dtype=complex)


def random_density(rng, pure=False):
    """Random 2x2 density operator, uniform-ish inside (or on) the ball."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not pure:
        v *= rng.uniform(0.0, 1.0) ** (1 / 3)
    return rho_from_bloch(v)


class TestPauli:
    def test_printed_matrices(self):
        assert np.array_equal(SIGMA_X, np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.array_equal(SIGMA_Y, np.array([[0, -1j], [1j, 0]], dtype=complex))
        assert np.array_equal(SIGMA_Z, np.array([[1, 0], [0, -1]], dtype=complex))
        assert np.array_equal(SIGMA, np.array([[0, 0], [1, 0]], dtype=complex))

    def test_lowering_from_xy(self):
        assert allclose(SIGMA, 0.5 * (SIGMA_X - 1j * SIGMA_Y), 0.0)

    def test_squares(self):
        for s in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            assert max_abs(s @ s - np.eye(2)) == 0.0
        assert max_abs(SIGMA @ SIGMA) == 0.0

    def test_constants_are_read_only(self):
        for s in (SIGMA_X, SIGMA_Y, SIGMA_Z, SIGMA, IDENTITY_2):
            with pytest.raises(ValueError, match="read-only"):
                s[0, 0] = 9.0


class TestDiffusionModel:
    def test_trivial(self):
        m = build_diffusion_model(np.zeros((2, 2)), np.zeros((2, 2)), 1.0)
        assert max_abs(m.K) == 0.0
        assert m.kappa == 1.0

    def test_two_level_K(self):
        gamma, alpha = 1.0, 7.0 / np.sqrt(2.0)
        m = two_level_model(gamma, alpha, 0.0, 0.0, 0.85)
        expected = 0.5 * gamma * (dagger(SIGMA) @ SIGMA) + 1j * m.H
        assert allclose(m.K, expected, 1e-15)
        assert allclose(m.H, 0.5 * alpha * SIGMA_X, 1e-15)

    def test_kappa_from_eta(self):
        m = two_level_model(1.0, 1.0, 0.0, 0.0, 0.85)
        assert m.kappa == pytest.approx(0.85**-0.5)
        assert m.kappa == pytest.approx(1.08465, abs=1e-5)

    def test_phase_rotates_coupling(self):
        m = two_level_model(4.0, 0.0, 0.0, np.pi / 2, 1.0)
        assert allclose(m.L, -2j * SIGMA, 1e-15)

    def test_zero_drive(self):
        m = two_level_model(1.0, 0.0, 0.0, 0.0, 1.0)
        assert max_abs(m.H) == 0.0

    def test_k_identity_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            H = a + dagger(a)
            L = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = build_diffusion_model(H, L, rng.uniform(0.1, 1.0))
            assert max_abs(m.K + dagger(m.K) - dagger(m.L) @ m.L) <= 1e-12 * (1 + max_abs(m.K))

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="gamma"):
            two_level_model(0.0, 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="eta"):
            build_diffusion_model(np.zeros((2, 2)), np.zeros((2, 2)), 1.5)
        with pytest.raises(ValueError, match="eta"):
            build_diffusion_model(np.zeros((2, 2)), np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError, match="Hermitian"):
            build_diffusion_model(SIGMA, np.zeros((2, 2)), 1.0)

    @pytest.mark.parametrize("index", range(4), ids=["gamma", "alpha", "delta", "phi"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, -np.inf])
    def test_non_finite_two_level_parameter_is_rejected_by_name(self, index, value):
        # an infinite gamma or alpha overflowed L or H with a warning and was
        # blamed on them; a NaN gamma is neither above nor below 0
        name = ("gamma", "alpha", "delta", "phi")[index]
        params = [1.0, 2.0, 0.5, 0.3]
        params[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
                two_level_model(*params, 0.85)


class TestJumpModel:
    def test_trivial(self):
        m = build_jump_model(np.eye(2), np.zeros((2, 2)), 2.0, 1.0)
        assert allclose(m.G, np.eye(2), 1e-15)
        assert max_abs(m.H) == 0.0
        assert m.C_inv is not None

    def test_sigma_x_jump(self):
        m = build_jump_model(SIGMA_X, np.zeros((2, 2)), 1.0, 1.0)
        assert allclose(m.G, 0.5 * np.eye(2), 1e-15)

    def test_derived_identities(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            E = a + dagger(a)
            lam = rng.uniform(0.1, 3.0)
            m = build_jump_model(C, E, lam, 0.8)
            assert max_abs(m.G + dagger(m.G) - lam * dagger(m.C) @ m.C) <= 1e-12 * (1 + max_abs(m.G))
            assert max_abs(m.H - dagger(m.H)) <= 1e-12 * (1 + max_abs(m.H))

    def test_noninvertible_flagged(self):
        m = build_jump_model(SIGMA, np.zeros((2, 2)), 1.0, 1.0)
        assert m.C_inv is None

    def test_mean_drift_matches_lindblad(self):
        # averaging the counting equation must reproduce the deterministic
        # generator with L = sqrt(lam) (C - I)
        rng = np.random.default_rng(23)
        for _ in range(25):
            C = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            E = a + dagger(a)
            lam = rng.uniform(0.2, 2.0)
            eta = rng.uniform(0.3, 1.0)
            m = build_jump_model(C, E, lam, eta)
            rho = random_density(rng)
            j_rho = m.C @ rho @ dagger(m.C)
            tr_j = np.trace(j_rho).real
            drift = (
                -(m.G @ rho)
                - rho @ dagger(m.G)
                + (1 - eta) * lam * j_rho
                + eta * lam * tr_j * rho
            )
            mean_drift = drift + eta * lam * (j_rho - tr_j * rho)
            L = np.sqrt(lam) * (m.C - np.eye(2))
            ldl = dagger(L) @ L
            lindblad = (
                -1j * (m.H @ rho - rho @ m.H)
                + L @ rho @ dagger(L)
                - 0.5 * (ldl @ rho + rho @ ldl)
            )
            assert max_abs(mean_drift - lindblad) <= 1e-10

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="lam"):
            build_jump_model(np.eye(2), np.zeros((2, 2)), 0.0, 1.0)
        with pytest.raises(ValueError, match="eta"):
            build_jump_model(np.eye(2), np.zeros((2, 2)), 1.0, 1.2)
        with pytest.raises(ValueError, match="Hermitian"):
            build_jump_model(np.eye(2), SIGMA, 1.0, 1.0)

    @pytest.mark.parametrize("lam", [np.inf, np.nan, -np.inf])
    def test_non_finite_lam_is_rejected_by_name(self, lam):
        # an infinite lam overflows G and H with warnings; NaN is neither
        # above nor below a bound
        with pytest.raises(ValueError, match=f"^lam must be finite and positive, got {lam}$"):
            build_jump_model(SIGMA, SIGMA_Z, lam, 1.0)


class TestBloch:
    def test_plus_state(self):
        b = bloch_from_rho(RHO_PLUS)
        assert (b.x, b.y, b.z) == pytest.approx((1.0, 0.0, 0.0))

    def test_maximally_mixed(self):
        b = bloch_from_rho(0.5 * np.eye(2))
        assert (b.x, b.y, b.z) == (0.0, 0.0, 0.0)

    def test_excited_state(self):
        assert bloch_from_rho(np.diag([1.0, 0.0]).astype(complex)).z == pytest.approx(1.0)

    def test_roundtrip_on_ball(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            rho = random_density(rng)
            back = rho_from_bloch(bloch_from_rho(rho))
            assert max_abs(back - rho) <= 1e-12

    def test_norm_tracks_purity(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            rho = random_density(rng, pure=bool(rng.integers(2)))
            b = bloch_from_rho(rho)
            assert b.norm() <= 1.0 + 1e-9
            # purity = (1 + |b|^2) / 2 in two dimensions
            assert purity(rho) == pytest.approx(0.5 * (1.0 + b.norm() ** 2), abs=1e-12)
            if abs(purity(rho) - 1.0) <= 1e-6:
                assert b.norm() == pytest.approx(1.0, abs=1e-6)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="unit ball"):
            rho_from_bloch(BlochVector(1.1, 0.0, 0.0))
        with pytest.raises(ValueError, match="trace"):
            bloch_from_rho(np.eye(2))
        with pytest.raises(ValueError, match="2x2"):
            bloch_from_rho(np.eye(3) / 3.0)

    @pytest.mark.parametrize("b", [(np.nan, 0.0, 0.0), (0.0, np.inf, 0.0), BlochVector(0.0, 0.0, -np.inf)])
    def test_non_finite_coordinates_are_rejected(self, b):
        # a NaN coordinate passes the unit-ball check, which cannot name it
        with pytest.raises(ValueError, match=r"^Bloch vector \(.*\) must be finite$"):
            rho_from_bloch(b)


class TestExpectedMeasurement:
    """The detector's mean output ``tr((L + L^dag) rho)``, as online
    diffusion runs compute it, in Bloch coordinates."""

    def test_in_phase_reads_x(self):
        rng = np.random.default_rng(26)
        gamma = 1.7
        m = two_level_model(gamma, 2.0, 0.3, 0.0, 0.9)
        for _ in range(20):
            rho = random_density(rng)
            b = bloch_from_rho(rho)
            assert np.trace((m.L + dagger(m.L)) @ rho).real == pytest.approx(np.sqrt(gamma) * b.x, abs=1e-12)

    def test_quadrature_reads_minus_y(self):
        rng = np.random.default_rng(27)
        gamma = 0.8
        m = two_level_model(gamma, 2.0, 0.3, np.pi / 2, 0.9)
        for _ in range(20):
            rho = random_density(rng)
            b = bloch_from_rho(rho)
            assert np.trace((m.L + dagger(m.L)) @ rho).real == pytest.approx(-np.sqrt(gamma) * b.y, abs=1e-12)

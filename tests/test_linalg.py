import numpy as np
import pytest
import scipy.linalg

from smefilter.linalg import (
    allclose,
    dagger,
    expm,
    expm_many,
    hermitian_residual,
    kron,
    max_abs,
    require_hermitian,
    trace,
    unvec,
    vec,
)
from smefilter.model import SIGMA

RHO_PLUS = np.full((2, 2), 0.5, dtype=complex)  # equal superposition, Bloch (1,0,0)


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


class TestDagger:
    def test_identity(self):
        assert np.array_equal(dagger(np.eye(2)), np.eye(2))

    def test_lowering(self):
        assert np.array_equal(dagger(SIGMA), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_involution(self):
        rng = np.random.default_rng(2)
        x = random_complex(rng, 4)
        assert np.array_equal(dagger(dagger(x)), x)


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(2)) == 2.0

    def test_lowering(self):
        assert trace(SIGMA) == 0.0

    def test_plus_state(self):
        assert trace(RHO_PLUS) == 1.0

    def test_cyclicity(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a, b = random_complex(rng, 3), random_complex(rng, 3)
            assert abs(trace(a @ b) - trace(b @ a)) <= 1e-12 * max(1.0, abs(trace(a @ b)))


class TestExpm:
    def test_zero(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_nilpotent_truncates_exactly(self):
        # series stops at the vanishing square, so the result is I + c*sigma
        for c in (0.3, 2.0, -17.5, 1e3):
            assert allclose(expm(c * SIGMA), np.eye(2) + c * SIGMA, 1e-15 * max(1.0, abs(c)))

    def test_diagonal(self):
        out = expm(np.diag([1.0 + 0j, -2.0]))
        assert allclose(out, np.diag([np.e, np.exp(-2.0)]), 1e-12)

    def test_inverse_identity(self):
        # spectral norm <= 5; the product's attainable accuracy is set by
        # cond(e^A), not by the series truncation
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = random_complex(rng, 3)
            a *= 5.0 / np.linalg.norm(a, 2)
            assert allclose(expm(a) @ expm(-a), np.eye(3), 1e-11)

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_complex(rng, 4)
            assert allclose(expm(a), scipy.linalg.expm(a), 1e-10 * np.exp(max_abs(a)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            expm(np.array([[np.inf, 0], [0, 0]]))

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_bad_tol_rejected(self, tol):
        # a NaN tolerance would stop every series after one term
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="tol"):
            expm(rotation, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            expm_many(rotation[None], tol=tol)

    @pytest.mark.parametrize("s, norm", [(1e20, r"1\.000e\+20"), (1e110, r"1\.000e\+110")])
    def test_huge_argument_rejected_naming_norm(self, s, norm):
        # the squarings of a rotation by 1e20 overflow; from 1e110 on the
        # scaled tolerance is out of reach of the series
        rotation = np.array([[0.0, s], [-s, 0.0]])
        with pytest.raises(ValueError, match=f"max-entry norm {norm}"):
            expm(rotation)
        with pytest.raises(ValueError, match=f"max-entry norm {norm}"):
            expm_many(np.stack([np.eye(2), rotation]))

    @pytest.mark.parametrize("s, norm", [(1e17, r"1\.000e\+17"), (1e19, r"1\.000e\+19")])
    def test_inaccurate_argument_rejected(self, s, norm):
        # 58 and 65 squarings leave no accurate digit: the rotation came out
        # with entries up to 6.8e4, and as the zero matrix
        rotation = np.array([[0.0, -s], [s, 0.0]])
        for a in (rotation, rotation.astype(complex)):
            with pytest.raises(ValueError, match=f"max-entry norm {norm} gives no accurate result"):
                expm(a)
            with pytest.raises(ValueError, match=f"max-entry norm {norm} gives no accurate result"):
                expm_many(np.stack([np.eye(2), a]))

    @pytest.mark.parametrize("c", [1e10, -3e15])
    def test_large_nilpotent_argument_kept_exact(self, c):
        # 35 and more squarings, yet the series ends with a zero term and
        # every squaring of I + c N / 2^k is exact
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        for a in (c * n, (c * n).astype(complex)):
            assert np.array_equal(expm(a), np.eye(2) + c * n)
            assert np.array_equal(expm_many(np.stack([np.eye(2), a]))[1], np.eye(2) + c * n)

    def test_real_argument_gives_real_result(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(4, 4))
        got = expm(a)
        assert got.dtype == float and np.array_equal(expm_many(a[None])[0], got)
        assert allclose(got, expm(a.astype(complex)).real, 1e-13)

    def test_large_finite_results_kept(self):
        assert expm(np.diag([700.0, 0.0]))[0, 0].real == pytest.approx(np.exp(700.0), rel=1e-10)
        assert np.array_equal(expm(np.diag([-1e20, -1e20])), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"max-entry norm 7\.100e\+02"):
            expm(np.diag([710.0, 0.0]))
        # the overflow check of the squarings names the element at fault
        with pytest.raises(ValueError, match=r"max-entry norm 7\.100e\+02"):
            expm_many(np.stack([np.eye(2), np.diag([710.0, 0.0])]))


class TestExpmMany:
    def test_each_element_bitwise_equals_expm(self):
        rng = np.random.default_rng(8)
        stack = [np.zeros((2, 2)), 0.3 * SIGMA, -17.5 * SIGMA]
        # max-entry norms needing 0, 1 and several squarings
        for nrm in (0.05, 0.4, 0.5, 0.9, 3.0, 40.0):
            a = random_complex(rng, 2)
            stack.append(a * (nrm / max_abs(a)))
        stack.append(np.diag([1.0 + 0j, -2.0]))
        batch = np.array(stack, dtype=complex)
        squarings = [max(0, int(np.ceil(np.log2(max_abs(a) / 0.5)))) for a in stack if max_abs(a) > 0]
        assert {0, 1} <= set(squarings) and max(squarings) >= 5
        out = expm_many(batch)
        for a, got in zip(batch, out):
            assert np.array_equal(got, expm(a))
        # an element's result does not depend on what else is in the stack
        for i in range(len(batch)):
            assert np.array_equal(expm_many(batch[i : i + 1])[0], out[i])
        assert np.array_equal(expm_many(batch[::-1]), out[::-1])

    def test_three_level_elements_match(self):
        rng = np.random.default_rng(9)
        batch = np.stack([random_complex(rng, 3) * s for s in (0.01, 0.7, 6.0)])
        for a, got in zip(batch, expm_many(batch, tol=1e-14)):
            assert np.array_equal(got, expm(a, tol=1e-14))

    def test_empty_stack(self):
        assert expm_many(np.zeros((0, 2, 2))).shape == (0, 2, 2)

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError, match="stack"):
            expm_many(np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            expm_many(np.array([np.eye(2), [[np.nan, 0], [0, 0]]]))
        with pytest.raises(ValueError, match="tol"):
            expm_many(np.array([np.eye(2)]), tol=0.0)


class TestKronVec:
    def test_kron_identities(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))
        assert np.array_equal(kron(np.diag([1.0, 2.0]), np.eye(2)), np.diag([1.0, 1.0, 2.0, 2.0]))

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize(
        "shape_a, shape_b", [((1, 1), (1, 1)), ((2, 2), (2, 2)), ((3, 3), (3, 3)), ((2, 3), (3, 2)), ((4, 4), (4, 4))]
    )
    def test_kron_is_np_kron_bitwise(self, shape_a, shape_b, complex_input):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = rng.normal(size=shape_a), rng.normal(size=shape_b)
            if complex_input:
                a, b = a + 1j * rng.normal(size=shape_a), b + 1j * rng.normal(size=shape_b)
            got, want = kron(a, b), np.kron(a.astype(complex), b.astype(complex))
            assert got.dtype == np.complex128
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_vec_column_stacking(self):
        assert np.array_equal(vec(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))
        m = np.array([[1 + 2j, 3], [4, 5 - 1j]])
        assert np.array_equal(vec(m), np.array([1 + 2j, 4, 3, 5 - 1j]))

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(6)
        for n in (2, 3, 5):
            x = random_complex(rng, n)
            assert np.array_equal(unvec(vec(x), n), x)

    def test_kron_vec_identity(self):
        # vec(A X B) == kron(B.T, A) vec(X), with B transposed but not conjugated
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            a, x, b = (random_complex(rng, n) for _ in range(3))
            lhs = vec(a @ x @ b)
            rhs = kron(b.T, a) @ vec(x)
            assert max_abs(lhs - rhs) <= 1e-12 * max(1.0, max_abs(lhs))

    def test_unvec_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            unvec(np.ones(5), 2)


class TestHermitianHelpers:
    def test_residual_zero_for_hermitian(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 3)
        h = a + dagger(a)
        assert hermitian_residual(h) == 0.0

    def test_require_hermitian_tolerance(self):
        almost = np.eye(2) + 1e-12 * np.array([[0, 1j], [0, 0]])
        require_hermitian(almost)
        with pytest.raises(ValueError):
            require_hermitian(np.eye(2) + 1e-3 * np.array([[0, 1j], [0, 0]]))

import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as hst

import smefilter.diffusion
from smefilter.diffusion import (
    CountingRecord,
    DensityState,
    MeasurementRecord,
    NonFiniteStateError,
    PathwiseIntegrator,
    RobustStepper,
    StatePath,
    _LinearEMStepper,
    _MAP_BLOCK,
    _STEP_BLOCK,
    _apply_maps,
    _batch_element,
    _chunk_products,
    _diffusion_steps,
    _one_step,
    _renormalize,
    _start,
    _trajectory,
    _unnormalized_start,
    em_normalized,
    em_unnormalized,
    em_unnormalized_many,
    gauge,
    pathwise_filter,
    pathwise_rhs,
    pathwise_samples,
    read_measurement_record,
    read_record,
    recover,
    robust_filter,
    robust_step,
    write_record,
)
from smefilter.jump import sample_counting_record
from smefilter.linalg import dagger, expm, expm_many, hermitian_basis, kron, max_abs, vec
from smefilter.model import SIGMA, SIGMA_X, SIGMA_Z, build_diffusion_model, purity, rho_from_bloch, two_level_model
from smefilter.ode import rk4_step
from smefilter.traj import _DRAW_BLOCK, SCHEMES, master_propagate, run_ensemble, run_trajectory

RHO_PLUS = np.full((2, 2), 0.5, dtype=complex)
# The steppers carry coordinates in the Hermitian basis (see linalg.HermitianBasis).
PAULI = hermitian_basis(2)
PLUS = PAULI.coords(RHO_PLUS)


def driven_atom_model(phi=0.0, eta=0.85):
    return two_level_model(1.0, 7.0 / np.sqrt(2.0), 0.0, phi, eta)


def random_state(rng, n=2):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ dagger(a)
    return rho / np.trace(rho).real


def brownian_record(rng, model, dt, n):
    return MeasurementRecord(dt, rng.normal(0.0, model.kappa * np.sqrt(dt), n))


# 5,000 well-formed rows, lines 4 to 5003 after a dt comment, a header and one row.
GOOD_ROWS = "".join(f"{0.1 * k:.17g},0\n" for k in range(2, 5002))


def read_counting_record(path):
    return read_record(path, CountingRecord)


class TestMeasurementRecord:
    def test_validation(self):
        with pytest.raises(ValueError, match="dt"):
            MeasurementRecord(0.0, np.zeros(3))
        with pytest.raises(ValueError, match="finite"):
            MeasurementRecord(0.1, np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match="one-dimensional"):
            MeasurementRecord(0.1, np.zeros((2, 2)))

    def test_times_and_cumulative(self):
        rec = MeasurementRecord(0.5, np.array([1.0, -2.0, 0.5]), t0=1.0)
        assert np.allclose(rec.times, [1.0, 1.5, 2.0, 2.5])
        assert np.allclose(rec.cumulative(), [0.0, 1.0, -1.0, -0.5])
        assert rec.duration == pytest.approx(1.5)

    def test_coarsen(self):
        rec = MeasurementRecord(0.1, np.arange(6, dtype=float))
        coarse = rec.coarsen(3)
        assert coarse.dt == pytest.approx(0.3)
        assert np.allclose(coarse.increments, [3.0, 12.0])
        with pytest.raises(ValueError, match="divide"):
            rec.coarsen(4)

    def test_modulus_of_continuity(self):
        # path 0, 1, 0, 3: oscillation over one step is 3, over two steps 3,
        # over the first window of two steps only 1
        rec = MeasurementRecord(1.0, np.array([1.0, -1.0, 3.0]))
        assert rec.modulus_of_continuity(1.0) == pytest.approx(3.0)
        assert rec.modulus_of_continuity(2.0, "initial") == pytest.approx(1.0)
        assert rec.modulus_of_continuity(3.0, "sliding") == pytest.approx(3.0)
        with pytest.raises(ValueError, match="mode"):
            rec.modulus_of_continuity(1.0, "bogus")

    @pytest.mark.parametrize("width", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("mode", ["sliding", "initial"])
    def test_modulus_of_continuity_rejects_a_bad_width_by_name(self, width, mode):
        rec = MeasurementRecord(1.0, np.array([1.0, -1.0, 3.0]))
        with pytest.raises(ValueError, match=f"^width must be finite and positive, got {width}$"):
            rec.modulus_of_continuity(width, mode)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n_steps=hst.integers(1, 400),
        seed=hst.integers(0, 2**32 - 1),
        scale=hst.floats(1e-3, 1e3),
        rounded=hst.booleans(),
        dt=hst.floats(1e-3, 10.0),
        width=hst.sampled_from(["below", "dt", "off-grid", "duration", "beyond"]),
        fraction=hst.floats(0.01, 0.99),
    )
    def test_sliding_modulus_is_the_window_by_window_one_bitwise(
        self, n_steps, seed, scale, rounded, dt, width, fraction
    ):
        # rounded increments make tied extrema and signed zeros
        increments = scale * np.random.default_rng(seed).normal(size=n_steps)
        rec = MeasurementRecord(dt, np.round(increments) if rounded else increments)
        width = {
            "below": fraction * dt,
            "dt": dt,
            "off-grid": (1 + int(fraction * rec.n_steps) + fraction) * dt,
            "duration": rec.duration,
            "beyond": (1.0 + fraction) * rec.duration,
        }[width]
        # the maxima and minima of every window of k + 1 grid points
        k = max(1, min(rec.n_steps, int(width / dt + 1e-9)))
        windows = np.lib.stride_tricks.sliding_window_view(rec.cumulative(), k + 1)
        want = float((windows.max(axis=1) - windows.min(axis=1)).max())
        assert np.float64(rec.modulus_of_continuity(width, "sliding")).tobytes() == np.float64(want).tobytes()

    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        rec = MeasurementRecord(0.01, rng.normal(size=57), t0=0.25)
        path = tmp_path / "record.csv"
        write_record(path, rec, comments=["origin: test"])
        back = read_measurement_record(path)
        assert back.dt == rec.dt and back.t0 == rec.t0
        assert np.array_equal(back.increments, rec.increments)

    def test_csv_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,dN\n0.1,1\n")
        with pytest.raises(ValueError, match="t,dy"):
            read_measurement_record(path)

    @pytest.mark.parametrize(
        "read, header, row, match",
        [
            (read_measurement_record, "t,dy", "0.2,0.5,7", "line 4: expected 2 columns"),
            (read_measurement_record, "t,dy", "0.2,abc", "line 4: could not convert"),
            (read_counting_record, "t,dN", "0.2,0.5", "line 4: invalid literal for int"),
            (read_measurement_record, "t,dy", "# dt: abc", "line 4: could not convert"),
            (read_measurement_record, "t,dy", GOOD_ROWS + "0.2,abc", "line 5004: could not convert"),
            (read_measurement_record, "t,dy", GOOD_ROWS + "0.2", "line 5004: expected 2 columns 't,dy', got 1"),
            (read_measurement_record, "t,dy", "\n \n0.2,0.5\n\n0.3,abc", "line 8: could not convert"),
            (read_counting_record, "t,dN", GOOD_ROWS + "\n# note\n0.2,0.5", "line 5006: invalid literal for int"),
            (read_measurement_record, "t,dN", "0.2,0.5", "line 2: expected header 't,dy', got 't,dN'"),
            (read_counting_record, "t,dy", "0.2,0.5", "line 2: expected header 't,dN', got 't,dy'"),
        ],
    )
    def test_csv_malformed_row_names_line(self, tmp_path, read, header, row, match):
        path = tmp_path / "bad.csv"
        path.write_text(f"# dt: 0.1\n{header}\n0.1,0\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, {match}"):
            read(path)

    def test_csv_comments_and_blank_lines_anywhere(self, tmp_path):
        # a dt or t0 comment counts wherever it stands, the last one winning,
        # and blank lines between rows are skipped
        path = tmp_path / "record.csv"
        path.write_text("\n# dt: 0.1\nt,dy\n\n0.35,1.5\n# dt: 0.25\n  \n0.6,-2\n# t0: 0.1\n\n")
        rec = read_measurement_record(path)
        assert (rec.dt, rec.t0) == (0.25, 0.1)
        assert rec.increments.tolist() == [1.5, -2.0]
        path.write_text("# dt: 0.5\nt,dN\n0.5,1\n\n1,0\n")
        assert read_record(path, CountingRecord).counts.tolist() == [1, 0]

    def test_csv_without_header_rejected(self, tmp_path):
        path = tmp_path / "record.csv"
        path.write_text("# dt: 0.1\n\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: file contains no 't,dy' header$"):
            read_measurement_record(path)


class TestGauge:
    def test_identity_at_origin(self):
        m = driven_atom_model()
        a, a_inv = gauge(m.L, m.kappa, 0.0, 0.0)
        assert np.array_equal(a, np.eye(2))
        assert np.array_equal(a_inv, np.eye(2))

    def test_nilpotent_closed_form(self):
        # L^2 = 0 kills the drift term, leaving A = I - L y
        m = driven_atom_model(eta=1.0)
        for y, t in ((0.7, 0.3), (-2.0, 5.0)):
            a, a_inv = gauge(m.L, 1.0, y, t)
            assert max_abs(a - (np.eye(2) - m.L * y)) <= 1e-14
            assert max_abs(a - scipy.linalg.expm(-m.L * y + 0.5 * (m.L @ m.L) * t)) <= 1e-13

    def test_inverse_pairs(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            L = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            a, a_inv = gauge(L, rng.uniform(1.0, 2.0), rng.normal(), rng.uniform(0, 2))
            assert max_abs(a @ a_inv - np.eye(2)) <= 1e-12

    def test_nonfinite_record_value(self):
        m = driven_atom_model()
        with pytest.raises(ValueError, match="finite"):
            gauge(m.L, m.kappa, np.nan, 0.0)


class TestRecover:
    def test_identity_gauge(self):
        rng = np.random.default_rng(33)
        r = random_state(rng)
        rec = recover(np.eye(2), 3.0 * r)
        assert max_abs(rec.rho_tilde - 3.0 * r) == 0.0
        assert np.trace(rec.rho).real == pytest.approx(1.0)
        assert rec.log_lambda == pytest.approx(np.log(3.0))

    def test_gauge_roundtrip(self):
        # couplings scaled to unit size and record values of a few noise
        # standard deviations, the regime the filters actually visit
        rng = np.random.default_rng(34)
        for n in (2, 4):
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            L = raw / max_abs(raw)
            m = build_diffusion_model(np.zeros((n, n)), L, 0.8)
            for _ in range(20):
                rho_tilde = rng.uniform(0.1, 10.0) * random_state(rng, n)
                a, a_inv = gauge(m.L, m.kappa, rng.uniform(-2, 2), rng.uniform(0, 2))
                rec = recover(a_inv, a @ rho_tilde @ dagger(a))
                assert max_abs(rec.rho_tilde - rho_tilde) <= 1e-11 * max(1.0, max_abs(rho_tilde))

    def test_collapse_rejected(self):
        with pytest.raises(ValueError, match="nonpositive trace"):
            recover(np.eye(2), -np.eye(2))


class TestPathwiseRhs:
    def test_closed_system_reduction(self):
        # L = 0 leaves the similarity-transformed commutator flow
        m = build_diffusion_model(np.array([[1.0, 0.2], [0.2, -1.0]]), np.zeros((2, 2)), 1.0)
        rng = np.random.default_rng(35)
        r = random_state(rng)
        got = pathwise_rhs(m, np.eye(2), np.eye(2), r)
        expected = -1j * (m.H @ r - r @ m.H)
        assert max_abs(got - expected) <= 1e-14

    def test_perfect_detection_drops_gain_term(self):
        m = driven_atom_model(eta=1.0)
        rng = np.random.default_rng(36)
        r = random_state(rng)
        a, a_inv = gauge(m.L, m.kappa, 0.4, 0.2)
        s = a @ m.K @ a_inv
        expected = -(s @ r) - r @ dagger(s)
        assert max_abs(pathwise_rhs(m, a, a_inv, r) - expected) <= 1e-14

    def test_preserves_hermiticity(self):
        m = driven_atom_model()
        rng = np.random.default_rng(37)
        for _ in range(20):
            r = random_state(rng)
            a, a_inv = gauge(m.L, m.kappa, rng.normal(), rng.uniform(0, 2))
            out = pathwise_rhs(m, a, a_inv, r)
            assert max_abs(out - dagger(out)) <= 1e-12


class TestIntegratePathwise:
    def test_free_evolution_constant(self):
        m = build_diffusion_model(np.zeros((2, 2)), np.zeros((2, 2)), 1.0)
        rec = MeasurementRecord(0.1, np.array([0.5, -0.2, 0.1]))
        path = pathwise_filter(m, rec, RHO_PLUS)
        assert len(path) == 4
        for st in path:
            assert max_abs(st.rho - RHO_PLUS) <= 1e-14
            assert st.log_lambda == 0.0

    def test_exact_on_smooth_record(self):
        m = driven_atom_model()
        n = 25
        times = 0.04 * np.arange(n + 1)
        rec = MeasurementRecord(0.04, np.diff(np.sin(times)))
        exact = pathwise_filter(m, rec, RHO_PLUS)
        # an independent chain of scipy exponentials of each step's generator
        rho_tilde = RHO_PLUS.copy()
        for st, dy in zip(exact[1:], rec.increments):
            rho_tilde = reference_step(m, rho_tilde, dy, rec.dt)
            assert close_to(st.rho, rho_tilde / np.trace(rho_tilde).real)
            assert abs(st.log_lambda - np.log(np.trace(rho_tilde).real)) <= 1e-12
        # The gauge-frame RK4 of the pathwise equation converges to it at
        # fourth order: halving the substep cuts the error ~16x.
        errs = []
        for substeps in (1, 2, 4):
            final = gauge_frame_rk4(m, rec, RHO_PLUS, substeps)
            errs.append(max_abs(final.rho - exact[-1].rho))
        assert errs[1] <= errs[0] / 12.0 and errs[2] <= errs[1] / 12.0

    def test_agrees_with_fine_em_on_brownian_path(self):
        m = driven_atom_model()
        rng = np.random.default_rng(38)
        fine = brownian_record(rng, m, 1e-4, 20000)  # T = 2
        em_path = em_unnormalized(m, fine, RHO_PLUS, sample_every=100)
        coarse = fine.coarsen(10)  # dt = 1e-3
        ode_path = pathwise_filter(m, coarse, RHO_PLUS)
        gaps = [
            max_abs(a.rho - b.rho)
            for a, b in zip(ode_path[::10], em_path)
        ]
        assert max(gaps) <= 0.03


def stepwise_pathwise(model, record, rho0):
    """The states along a record, one ``advance`` and one shared tail at a
    time on the coordinates from ``rho0``, as the online run steps."""
    stepper = PathwiseIntegrator(model, record.dt)
    basis = hermitian_basis(model.dim)
    s, log_lambda = _start(rho0, model.dim), 0.0
    states = []
    for dy, t in zip(record.increments, record.times[1:]):
        s, dlog = stepper.advance(s, float(dy), float(t))
        log_lambda += dlog
        states.append(DensityState(basis.matrices(s), log_lambda, float(t)))
    return states


# Block length of the block-boundary tests, whatever the production value.
TEST_BLOCK = 16


class TestPathwiseBlocks:
    @pytest.mark.parametrize("n_steps", [TEST_BLOCK - 1, TEST_BLOCK, TEST_BLOCK + 1, 2 * TEST_BLOCK + 3])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_blocks_match_stepwise_bitwise(self, dim, n_steps, monkeypatch):
        monkeypatch.setattr(smefilter.diffusion, "_MAP_BLOCK", TEST_BLOCK)
        rng = np.random.default_rng(n_steps + 100 * dim)
        if dim == 2:
            m = driven_atom_model()
        else:
            a, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
            m = build_diffusion_model(a + dagger(a), 0.7 * b, 0.6)
        rec = MeasurementRecord(0.01, rng.normal(0.0, m.kappa * 0.1, n_steps), t0=0.3)
        rho0 = random_state(rng, dim)
        filtered = pathwise_filter(m, rec, rho0)
        assert len(filtered) == n_steps + 1
        # the filter starts from rho0 renormalized
        assert filtered[0].t == 0.3 and filtered[0].log_lambda == 0.0
        states = stepwise_pathwise(m, rec, rho0)
        for want, got in zip(states, filtered[1:]):
            assert got.rho.tobytes() == want.rho.tobytes()
            assert got.log_lambda == want.log_lambda and got.t == want.t

    def test_mid_block_blow_up_names_its_time(self):
        # A huge increment puts its step's generator out of expm's range.
        k = _MAP_BLOCK + 5
        inc = np.zeros(2 * _MAP_BLOCK)
        inc[k] = 1e40
        rec = MeasurementRecord(0.01, inc, t0=0.3)
        with pytest.raises(NonFiniteStateError, match=f"pathwise state of step {k + 1} blew up") as err:
            pathwise_filter(driven_atom_model(), rec, RHO_PLUS)
        assert err.value.time == rec.times[k + 1]
        # the online step names the time it is given, and the stack step the
        # element whose map is out of range, in the same words
        stepper = PathwiseIntegrator(driven_atom_model(), 0.01)
        with pytest.raises(NonFiniteStateError, match="pathwise state blew up .* at t = 0.7") as single:
            stepper.advance(PLUS, 1e40, 0.7)
        with pytest.raises(NonFiniteStateError) as stacked:
            stepper.advance_many(np.stack([PLUS] * 3), np.array([0.0, 1e40, 1e40]), 0.7)
        assert stacked.value.time == single.value.time
        assert str(stacked.value) == str(single.value).replace("state", "state of batch element 1", 1)

    def test_blow_up_raises_without_warnings(self):
        # expm rejects the 1e40 step itself: numpy's overflow warnings from
        # its squarings must not show ahead of the error
        inc = np.zeros(2 * _MAP_BLOCK)
        inc[_MAP_BLOCK + 5] = 1e40
        rec = MeasurementRecord(0.01, inc, t0=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError, match=f"pathwise state of step {_MAP_BLOCK + 6} blew up"):
                pathwise_filter(driven_atom_model(), rec, RHO_PLUS)
            with pytest.raises(NonFiniteStateError, match="pathwise state blew up"):
                PathwiseIntegrator(driven_atom_model(), 0.01).advance(PLUS, 1e40, 0.7)
            with pytest.raises(NonFiniteStateError, match="pathwise state of batch element 0 blew up"):
                PathwiseIntegrator(driven_atom_model(), 0.01).advance_many(PLUS[None], np.array([1e40]), 0.7)

    def test_collapse_names_its_time(self):
        stepper = PathwiseIntegrator(driven_atom_model(), 0.01)
        with pytest.raises(NonFiniteStateError, match="collapsed .* at t = 1.02") as err:
            stepper.recover_state(-np.eye(2, dtype=complex), 0.3, 1.02)
        assert err.value.time == 1.02
        bad = RHO_PLUS.copy()
        bad[0, 1] = np.inf
        with pytest.raises(NonFiniteStateError, match="blew up at t = 1.03"):
            stepper.recover_state(bad, 0.3, 1.03)
        state = stepper.recover_state(2.0 * RHO_PLUS, 0.3, 1.04)
        assert np.array_equal(state.rho, RHO_PLUS) and state.log_lambda == 0.3 + np.log(2.0)


def single_steps(model, scheme, record, rho0):
    """The states and ``log_lambda`` along a record, one single-state step at
    a time on the coordinates from ``rho0``, each step building its own map;
    the error of a failing step names it as a replay does."""
    stepper = (RobustStepper if scheme == "robust" else PathwiseIntegrator)(model, record.dt)
    s, log_lambda = _start(rho0, model.dim), 0.0
    coords, logs = [s], [log_lambda]
    for k, (dy, t) in enumerate(zip(record.increments.tolist(), record.times[1:].tolist()), 1):
        s, dlog = stepper.advance(s, dy, t, lambda _b: f"step {k}")
        log_lambda += dlog
        coords.append(s)
        logs.append(log_lambda)
    return hermitian_basis(model.dim).matrices(np.array(coords)), np.array(logs)


def one_level_model():
    return build_diffusion_model(np.zeros((1, 1)), np.array([[0.5]]), 0.8)


class TestReplayBlocks:
    """A replay steps each block of built maps with ``_map_block`` and checks
    the tail once per block; it must be bitwise its single steps, and a
    failing step must raise the error of its own single step."""

    @pytest.mark.parametrize("n_steps", [TEST_BLOCK - 1, TEST_BLOCK, TEST_BLOCK + 1, 3 * TEST_BLOCK + 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["robust", "pathwise"])
    def test_replay_is_its_single_steps_bitwise(self, scheme, dim, n_steps, monkeypatch):
        monkeypatch.setattr(smefilter.diffusion, "_MAP_BLOCK", TEST_BLOCK)
        rng = np.random.default_rng(n_steps + 10 * dim)
        m = {1: one_level_model, 2: driven_atom_model, 3: lambda: three_level_model(rng)}[dim]()
        rec = MeasurementRecord(0.01, rng.normal(0.0, m.kappa * 0.1, n_steps), t0=0.3)
        rho0 = random_state(rng, dim)
        replay = _diffusion_steps(m, scheme, rec.dt, rho0).replay(rec)
        rho, logs = single_steps(m, scheme, rec, rho0)
        assert replay.rho.tobytes() == rho.tobytes()
        assert replay.log_lambda.tobytes() == logs.tobytes()
        assert replay.t.tobytes() == rec.times.tobytes()

    # the first, a middle and the last step of the second block, counted from 1
    FAILING_STEPS = [TEST_BLOCK + 1, TEST_BLOCK + TEST_BLOCK // 2, 2 * TEST_BLOCK]

    @pytest.mark.parametrize("k", FAILING_STEPS)
    def test_robust_failing_step_raises_its_own_error(self, k, monkeypatch):
        # dy = 1e40 takes E(dy) out of the range of exp: the step's map is NaN
        monkeypatch.setattr(smefilter.diffusion, "_MAP_BLOCK", TEST_BLOCK)
        m = build_diffusion_model(np.zeros((2, 2)), [[0.3, 1.0], [0.2j, -0.1]], 0.8)
        assert np.isnan(RobustStepper(m, 0.01).step_maps([1e40])).all()
        inc = np.random.default_rng(k).normal(0.0, 0.1, 3 * TEST_BLOCK)
        inc[k - 1] = 1e40
        rec = MeasurementRecord(0.01, inc, t0=0.3)
        with pytest.raises(NonFiniteStateError) as want:
            single_steps(m, "robust", rec, RHO_PLUS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as got:
                robust_filter(m, rec, RHO_PLUS)
        assert str(got.value) == str(want.value) == f"implicit filter state of step {k} blew up at t = {rec.times[k]:.6g}"
        assert got.value.time == want.value.time == rec.times[k]

    @pytest.mark.parametrize("k", FAILING_STEPS)
    def test_pathwise_failing_step_raises_its_own_error(self, k, monkeypatch):
        # a finite map with a zero trace row: the step's state has trace 0,
        # below the rounding error of its other coordinates
        monkeypatch.setattr(smefilter.diffusion, "_MAP_BLOCK", TEST_BLOCK)
        m = driven_atom_model()
        inc = np.random.default_rng(k).normal(0.0, 0.1, 3 * TEST_BLOCK)
        marker = inc[k - 1] = 0.123456789
        built, built_one = PathwiseIntegrator.step_maps, PathwiseIntegrator.step_map

        def step_maps(self, dy, *sum_sq):
            maps = built(self, dy, *sum_sq)
            maps[np.asarray(dy) == marker, 0] = 0.0
            return maps

        def step_map(self, dy):
            step = built_one(self, dy)
            if dy == marker:
                step[0] = 0.0
            return step

        monkeypatch.setattr(PathwiseIntegrator, "step_maps", step_maps)
        monkeypatch.setattr(PathwiseIntegrator, "step_map", step_map)
        rec = MeasurementRecord(0.01, inc, t0=0.3)
        with pytest.raises(NonFiniteStateError) as want:
            single_steps(m, "pathwise", rec, RHO_PLUS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as got:
                pathwise_filter(m, rec, RHO_PLUS)
        at = f"at t = {rec.times[k]:.6g}"
        assert str(got.value) == str(want.value) == f"pathwise state of step {k} blew up (trace 0.0) {at}"
        assert got.value.time == want.value.time == rec.times[k]


    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("stepper", [RobustStepper, PathwiseIntegrator])
    def test_step_map_is_its_step_maps_bitwise(self, stepper, dim):
        # a failing step of a built block rebuilds its own map, which must
        # be the block's; increments over six decades give the exponentials
        # different squaring counts
        rng = np.random.default_rng(80 + dim)
        m = {1: one_level_model, 2: driven_atom_model, 3: lambda: three_level_model(rng)}[dim]()
        maps = stepper(m, 0.01)
        dys = rng.normal(0.0, 1.0, 30) * 10.0 ** rng.integers(-4, 2, 30)
        dys[7] = 0.0
        for dy, block in zip(dys.tolist(), maps.step_maps(dys)):
            assert maps.step_map(dy).tobytes() == maps.step_maps([dy])[0].tobytes() == block.tobytes()

    @pytest.mark.parametrize("run", [robust_filter, pathwise_filter])
    def test_out_of_range_map_names_its_step(self, run):
        # dy = 1e12 takes a 3-level step's matrix exponential out of expm's
        # range: the replay's block builder and the step itself raise
        m = three_level_model(np.random.default_rng(5))
        rec = MeasurementRecord(0.01, np.array([0.1, 0.2, 1e12, 0.1]))
        with pytest.raises(NonFiniteStateError, match=r" of step 3 blew up \(expm argument is too large") as err:
            run(m, rec, np.eye(3) / 3.0)
        assert str(err.value).endswith(" at t = 0.03") and err.value.time == rec.times[3]

    @pytest.mark.parametrize("stepper", [RobustStepper, PathwiseIntegrator])
    def test_out_of_range_map_names_its_batch_element(self, stepper):
        m = three_level_model(np.random.default_rng(5))
        s = _start(np.eye(3) / 3.0, 3)
        with pytest.raises(NonFiniteStateError, match=r" of batch element 1 blew up \(expm argument") as err:
            stepper(m, 0.01).advance_many(np.stack([s, s, s]), np.array([0.1, 1e12, 1e12]), 0.37)
        assert err.value.time == 0.37


def smooth_and_brownian_records(n_steps, dt, t0=0.0):
    times = dt * np.arange(n_steps + 1)
    smooth = MeasurementRecord(dt, np.diff(2.0 * np.sin(times)), t0)
    brownian = MeasurementRecord(dt, np.random.default_rng(n_steps).normal(0.0, 1.1 * np.sqrt(dt), n_steps), t0)
    return {"smooth": smooth, "brownian": brownian}


def linear_em_replay(m, rec, rho_tilde0):
    """The fine replay of the linear-EM oracle: ``_trajectory`` with the
    steps and maps of ``_LinearEMStepper``, its errors naming record 0."""
    stepper = _LinearEMStepper(m, rec.dt)
    take = _one_step(rec.dt, None, stepper.advance_many)[2]
    s0, log0 = _unnormalized_start(rho_tilde0, m.dim, "rho_tilde0")
    where = lambda k: lambda _: f"record 0 in step {k}"  # noqa: E731
    return _trajectory(take, s0, log0, rec.dt, rec.t0, rec.increments, stepper.step_maps, where)


# the two sampled oracles of diffusion._samples, each called as (model,
# record, start, every), with their fine replays, called as (model, record,
# start), and the words of a failing step k
ORACLES = {
    "pathwise": (pathwise_samples, pathwise_filter, "pathwise state of step {k} blew up"),
    "linear-em": (em_unnormalized, linear_em_replay, "unnormalized state of record 0 in step {k} collapsed"),
}


class TestPathwiseSamples:
    """The convergence oracle steps one product of ``every`` pathwise maps a
    chunk; at ``every = 1`` it is ``pathwise_filter`` bitwise, otherwise near
    it, and where a chunk fails it is ``pathwise_filter`` itself.  The
    linear-EM oracle takes the same loop, ``_samples``, with its own maps,
    and the tests of a failing chunk cover both."""

    @pytest.mark.parametrize("kind", ["smooth", "brownian"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_every_one_is_pathwise_filter_bitwise(self, dim, kind):
        rng = np.random.default_rng(90 + dim)
        m = {1: one_level_model, 2: driven_atom_model, 3: lambda: three_level_model(rng)}[dim]()
        rec = smooth_and_brownian_records(2 * _MAP_BLOCK + 7, 0.01, t0=0.3)[kind]
        rho0 = random_state(rng, dim)
        got, want = pathwise_samples(m, rec, rho0, 1), pathwise_filter(m, rec, rho0)
        assert got.rho.tobytes() == want.rho.tobytes()
        assert got.log_lambda.tobytes() == want.log_lambda.tobytes()
        assert got.t.tobytes() == want.t.tobytes()

    @pytest.mark.parametrize("every", [10, 4 * _MAP_BLOCK])
    @pytest.mark.parametrize("kind", ["smooth", "brownian"])
    def test_chunks_are_near_the_fine_steps(self, kind, every):
        # criterion 4's model and grid; a chunk longer than a block is
        # stepped as shorter chunks that divide it
        m = driven_atom_model()
        rec = smooth_and_brownian_records(5000 if every == 10 else 4 * every, 1e-3)[kind]
        got, want = pathwise_samples(m, rec, RHO_PLUS, every), pathwise_filter(m, rec, RHO_PLUS)[::every]
        assert len(got) == len(want) and got.t.tobytes() == want.t.tobytes()
        assert max_abs(got.rho - want.rho) <= 1e-13
        assert max_abs(got.log_lambda - want.log_lambda) <= 1e-13 * max(1.0, max_abs(want.log_lambda))

    @pytest.mark.parametrize("oracle, kick", [("pathwise", 40.0), ("linear-em", 1e35)])
    def test_overflowing_chunk_products_give_the_fine_states(self, oracle, kick):
        # a QND coupling L = sigma_z grows the state by about e^80 a
        # pathwise step at dy = 40, and by about 2 dy a linear-EM step: each
        # step is in range, and the fine loop renormalizes after each, but
        # ten steps' product overflows
        samples, fine, _ = ORACLES[oracle]
        m = build_diffusion_model(0.5 * SIGMA_X, SIGMA_Z, 1.0)
        inc = np.random.default_rng(3).normal(0.0, 0.1, 600)
        inc[300:320] = kick
        rec = MeasurementRecord(0.01, inc, t0=0.3)
        stepper = PathwiseIntegrator(m, 0.01) if oracle == "pathwise" else _LinearEMStepper(m, 0.01)
        maps = stepper.step_maps(inc[300:310])
        assert np.isfinite(maps).all() and not np.isfinite(_chunk_products(maps, 10)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = samples(m, rec, RHO_PLUS, 10)
        want = fine(m, rec, RHO_PLUS)[::10]
        assert got.rho.tobytes() == want.rho.tobytes()
        assert got.log_lambda.tobytes() == want.log_lambda.tobytes()
        assert got.t.tobytes() == want.t.tobytes()

    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("every", [1, 10])
    @pytest.mark.parametrize("k", [5, _MAP_BLOCK + 5])
    def test_failing_record_raises_the_fine_steps_error(self, k, every, oracle):
        # dy = -1e40 takes the pathwise step's generator out of expm's range
        # and the linear-EM step's trace below zero; the record spans more
        # than two blocks in a whole number of tens
        samples, fine, words = ORACLES[oracle]
        n_steps = 2 * _MAP_BLOCK + 48
        inc = np.zeros(n_steps - n_steps % 10)
        inc[k] = -1e40
        rec = MeasurementRecord(0.01, inc, t0=0.3)
        with pytest.raises(NonFiniteStateError) as want:
            fine(driven_atom_model(), rec, RHO_PLUS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError) as got:
                samples(driven_atom_model(), rec, RHO_PLUS, every)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(words.format(k=k + 1))
        assert got.value.time == rec.times[k + 1]

    @pytest.mark.parametrize("every", [0, -2, 7])
    def test_every_must_divide_the_record(self, every):
        rec = MeasurementRecord(0.01, np.zeros(20))
        with pytest.raises(ValueError, match=f"every = {every} does not divide 20 steps"):
            pathwise_samples(driven_atom_model(), rec, RHO_PLUS, every)


def left_fold(maps, every):
    """The products of each run of ``every`` maps, one map at a time."""
    out = []
    for run in maps.reshape(-1, every, *maps.shape[1:]):
        p = run[0]
        for m in run[1:]:
            p = m @ p
        out.append(p)
    return np.array(out)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    every=hst.integers(1, 17),
    runs=hst.integers(1, 4),
    size=hst.integers(1, 9),
    scale=hst.floats(0.1, 10.0),
    seed=hst.integers(0, 2**32 - 1),
)
def test_chunk_products_are_the_left_fold(every, runs, size, scale, seed):
    # each product's rounding error is bounded by every n eps times the
    # product of the absolute values, for the tree and the fold alike
    maps = scale * np.random.default_rng(seed).normal(size=(runs * every, size, size))
    got = _chunk_products(maps, every)
    if every == 1:
        assert got.tobytes() == maps.tobytes()
    scale = left_fold(np.abs(maps), every)
    assert (np.abs(got - left_fold(maps, every)) <= every * size * np.finfo(float).eps * scale).all()


class TestStiffPathwiseStep:
    def test_stiff_step_gives_valid_state(self):
        # Far outside RK4's stability interval (h |A K A^-1| up to about 2.8),
        # where an RK4 step scales the state by orders of magnitude.
        rng = np.random.default_rng(47)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        L = 1.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        m = build_diffusion_model(a + dagger(a), L, 0.6)
        dt = 0.2
        rec = MeasurementRecord(dt, rng.normal(0.0, m.kappa * np.sqrt(dt), 10))
        y = rec.cumulative()
        stiffness = [stage_stiffness(m, k * dt, y[k], rec.increments[k], dt, 1) for k in range(10)]
        assert min(stiffness) > 5.0 and max(stiffness) > 1e4
        states = pathwise_filter(m, rec, random_state(rng, 3))
        rho_tilde = states[0].rho
        for st, dy in zip(states[1:], rec.increments):
            strict_validate(st)
            rho_tilde = reference_step(m, rho_tilde, dy, dt)
            assert close_to(st.rho, rho_tilde / np.trace(rho_tilde).real)


def _mp_real_exponential(a):
    """``expm(a)`` of a real matrix by ``mpmath.expm`` at 50 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        return np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)


def _stiff_model():
    # TestStiffPathwiseStep's model: at dt = 0.2 its drift has norm 12.9
    rng = np.random.default_rng(47)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return build_diffusion_model(a + dagger(a), 1.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))), 0.6)


def _strong_drift_model():
    # at dt = 0.2 its drift has norm 14.6, which needs a degree above 24
    rng = np.random.default_rng(48)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return build_diffusion_model(10.0 * (a + dagger(a)), 0.5 * np.eye(2) + 0.3 * rng.normal(size=(2, 2)), 0.8)


def _table_cases():
    cases = []
    for n in (1, 2, 3):
        rng = np.random.default_rng(110 + n)
        a, L = (rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n)) for _ in range(2))
        model = build_diffusion_model(0.5 * (a + dagger(a)), 0.8 * L, rng.uniform(0.3, 1.0))
        cases.append(pytest.param(model, 0.05, 16, id=f"{n}-level"))
    cases.append(pytest.param(_stiff_model(), 0.2, 24, id="stiff"))
    return cases


class TestPathwiseTaylorTable:
    @pytest.mark.parametrize("model, dt, degree", _table_cases())
    def test_maps_are_the_exponential(self, model, dt, degree):
        # within 1e-13 relative of the exponential at 50 digits, at 0, half
        # and the whole radius, and just beyond it, where expm_many takes over
        stepper = PathwiseIntegrator(model, dt)
        r = np.sqrt(stepper._radius_sq)
        assert stepper._table.shape[1] == degree + 1
        dys = np.array([0.0, r / 2, -r / 2, r, -r, r * (1.0 + 1e-12)])
        for dy, got in zip(dys, stepper.step_maps(dys)):
            want = _mp_real_exponential(stepper._drift + dy * stepper._coupling)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize(
        "model, dt, dys",
        [
            (_strong_drift_model(), 0.2, [0.0, 0.01, -0.3]),
            # a coupling of 1e10 puts the block matrix beyond expm's range
            (build_diffusion_model(np.zeros((2, 2)), 1e10 * SIGMA, 1.0), 1e-25, [0.0, 1e-12]),
        ],
        ids=["strong-drift", "huge-coupling"],
    )
    def test_model_without_a_table_steps_with_expm_many(self, model, dt, dys):
        stepper = PathwiseIntegrator(model, dt)
        assert stepper._table is None
        dys = np.array(dys)
        want = expm_many(stepper._drift + dys[:, None, None] * stepper._coupling)
        assert stepper.step_maps(dys).tobytes() == want.tobytes()

    def test_runs_within_the_radius_take_no_matrix_exponential(self, monkeypatch):
        # the table is built by expm, under its own name; every step map of
        # a run, its replay and an ensemble comes from the table
        m = driven_atom_model(0.3)
        run = run_trajectory(m, "pathwise", 0.01, 3.0, RHO_PLUS, seed=4)
        assert (run.record.increments**2 <= PathwiseIntegrator(m, 0.01)._radius_sq).all()

        def refuse(*args, **kwargs):
            raise AssertionError("a pathwise step took a matrix exponential")

        monkeypatch.setattr(smefilter.diffusion, "expm_many", refuse)
        again = run_trajectory(m, "pathwise", 0.01, 3.0, RHO_PLUS, seed=4)
        replay = pathwise_filter(m, run.record, RHO_PLUS)
        ens = run_ensemble(m, "pathwise", 0.01, 0.5, RHO_PLUS, 5, base_seed=4)
        assert again.states.rho.tobytes() == replay.rho.tobytes() == run.states.rho.tobytes()
        assert len(ens.final_states) == 5

    def test_runs_across_the_radius_replay_and_batch_bitwise(self):
        # at dt = 0.1 the increments fall on both sides of the radius, in the
        # same replay block and the same ensemble stack
        m, dt, T = driven_atom_model(0.3), 0.1, 30.0
        r_sq = PathwiseIntegrator(m, dt)._radius_sq
        ens = run_ensemble(m, "pathwise", dt, T, RHO_PLUS, 5, base_seed=9)
        total = 0.0
        for i in range(5):
            single = run_trajectory(m, "pathwise", dt, T, RHO_PLUS, seed=9 + i)
            inside = single.record.increments**2 <= r_sq
            assert inside.any() and not inside.all()
            replay = pathwise_filter(m, single.record, RHO_PLUS)
            assert replay.rho.tobytes() == single.states.rho.tobytes()
            assert replay.log_lambda.tobytes() == single.states.log_lambda.tobytes()
            assert ens.final_states[i].rho.tobytes() == single.states.rho[-1].tobytes()
            assert ens.final_states[i].log_lambda == single.states.log_lambda[-1]
            total = total + single.states.rho
        assert np.array_equal(np.stack(ens.mean_rho_path), total / 5)

    def test_increments_at_the_radius_take_one_map_in_every_stack(self):
        # a few ulps either side of the radius: the map of each increment is
        # the same alone, in a stack whose sum of squares clears the radius
        # and in one that does not
        stepper = PathwiseIntegrator(driven_atom_model(), 0.01)
        r = np.sqrt(stepper._radius_sq)
        edge = r * (1.0 + np.finfo(float).eps * np.arange(-4.0, 5.0))
        for dy in np.concatenate([edge, -edge]).tolist():
            got = stepper.propagate(PLUS, dy)
            assert got.tobytes() == _apply_maps(stepper.step_map(dy), PLUS).tobytes()
            for stack in ([dy], [dy, 0.0], [dy, 2.0 * r]):
                x, _ = stepper.advance_many(np.stack([PLUS] * len(stack)), np.array(stack), 1.0)
                assert x[0].tobytes() == (got / got[0]).tobytes()

    def test_blow_up_beyond_the_radius_names_its_element(self):
        # one increment within the radius, one beyond it whose map is
        # finite and one beyond it whose exponential is out of range
        stepper = PathwiseIntegrator(driven_atom_model(), 0.01)
        r = np.sqrt(stepper._radius_sq)
        dys = np.array([r / 3, 3.0 * r, 1e40])
        with pytest.raises(NonFiniteStateError) as err:
            stepper.advance_many(np.stack([PLUS] * 3), dys, 0.7)
        assert str(err.value).startswith("pathwise state of batch element 2 blew up (expm argument is too large")
        assert str(err.value).endswith(" at t = 0.7")
        maps = stepper.step_maps(dys[:2])
        for dy, got in zip(dys[:2].tolist(), maps):
            assert got.tobytes() == stepper.step_map(dy).tobytes()
        assert maps[1].tobytes() == expm(stepper._drift + dys[1] * stepper._coupling).tobytes()


class TestRobustStep:
    def test_zero_width_step_is_noop(self):
        m = driven_atom_model()
        out = robust_step(m, RHO_PLUS, 0.3, 0.0)
        assert np.array_equal(out, RHO_PLUS)

    def test_closed_system_implicit_liouville(self):
        # independent assembly: build the same linear system with raw numpy
        # kron/column-stacking and solve with numpy's solver
        H = np.array([[0.4, 1.0 + 0.5j], [1.0 - 0.5j, -0.4]])
        m = build_diffusion_model(H, np.zeros((2, 2)), 1.0)
        dt = 0.05
        prev = rho_from_bloch((0.3, -0.2, 0.5))
        got = robust_step(m, prev, 0.7, dt)
        eye = np.eye(2)
        big_b = dagger(1j * H) * dt
        system = np.kron(eye, eye + 1j * H * dt) + np.kron(big_b.T, eye)
        x = np.linalg.solve(system, prev.reshape(-1, order="F"))
        expected = x.reshape((2, 2), order="F")
        assert max_abs(got - expected) <= 1e-13
        assert max_abs(got - dagger(got)) <= 1e-13

    def test_matches_independent_assembly_driven_atom_model(self):
        m = driven_atom_model()
        dt, dy = 0.01, 0.13
        prev = rho_from_bloch((0.2, 0.1, -0.4))
        got = robust_step(m, prev, dy, dt)
        eye = np.eye(2)
        k2 = m.kappa**2
        big_a = eye + m.K * dt
        big_b = dagger(m.K) * dt
        big_c = m.L
        big_d = dagger(m.L) * (1.0 - 1.0 / k2) * dt
        system = kron(eye, big_a) + kron(big_b.T, eye) - kron(big_d.T, big_c)
        e_mat = scipy.linalg.expm(m.L * dy / k2 - (m.L @ m.L) * dt / (2 * k2))
        rhs = vec(e_mat @ prev @ dagger(e_mat))
        expected = np.linalg.solve(system, rhs).reshape((2, 2), order="F")
        assert max_abs(got - expected) <= 1e-13

    def test_nonfinite_increment_rejected(self):
        m = driven_atom_model()
        with pytest.raises(ValueError, match="finite"):
            robust_step(m, RHO_PLUS, np.inf, 0.01)

    def test_nan_dt_rejected(self):
        with pytest.raises(ValueError, match="dt must be finite and positive, got nan"):
            robust_step(driven_atom_model(), RHO_PLUS, 0.1, np.nan)

    @pytest.mark.parametrize("dt", [0.0, 0.01])
    def test_non_hermitian_state_rejected(self, dt):
        prev = RHO_PLUS + np.array([[0.0, 0.1], [0.0, 0.0]])
        with pytest.raises(ValueError, match="state_prev is not Hermitian"):
            robust_step(driven_atom_model(), prev, 0.1, dt)


@pytest.mark.parametrize("dt", [np.nan, np.inf])
@pytest.mark.parametrize("stepper", [RobustStepper, PathwiseIntegrator])
def test_steppers_reject_non_finite_dt(stepper, dt):
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        stepper(driven_atom_model(), dt)


def three_level_model(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return build_diffusion_model(a + dagger(a), 0.7 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))), 0.8)


class TestRobustStepperSolve:
    @pytest.mark.parametrize("phi", [0.0, 0.3, 1.1, "3-level"])
    def test_propagate_applies_inverse_near_lu_solve(self, phi):
        # propagate applies one fixed map, built from the inverse of the
        # implicit system, to the step's weights times the state; the oracle
        # is scipy.linalg.lu_solve on the LU factors of the system
        # A X + X B - C X D assembled here term by term, with E(dy) from expm
        rng = np.random.default_rng(29)
        if phi == "3-level":
            m, n = three_level_model(rng), 3
        else:
            m, n = two_level_model(1.0, 7.0 / np.sqrt(2.0), 0.5, phi, 0.6), 2
        stepper = RobustStepper(m, 0.01)
        basis = hermitian_basis(n)
        k2 = m.kappa**2
        eye = np.eye(n)
        big_a, big_b = eye + m.K * 0.01, dagger(m.K) * 0.01
        big_d = dagger(m.L) * (1.0 - 1.0 / k2) * 0.01
        factors = scipy.linalg.lu_factor(kron(eye, big_a) + kron(big_b.T, eye) - kron(big_d.T, m.L))
        for _ in range(1500):
            rho, dy = random_state(rng, n), float(rng.normal(0.0, 0.3))
            e = expm(m.L * (dy / k2) - (m.L @ m.L) * (0.01 / (2.0 * k2)))
            rhs = (e @ rho @ e.conj().T).reshape(-1, order="F")
            s = basis.coords(rho)
            x = stepper.propagate(s, dy)
            u = stepper.weights(np.array([dy]))[0]
            assert np.array_equal(x, (stepper._map @ u).reshape(n * n, n * n) @ s)
            got = basis.matrices(x).reshape(-1, order="F")
            assert max_abs(got - scipy.linalg.lu_solve(factors, rhs)) <= 1e-13


class TestRobustStepperBatch:
    @pytest.mark.parametrize("phi, eta, dt", [(0.0, 0.85, 0.01), (0.3, 0.6, 0.01), (1.1, 0.9, 0.2)])
    def test_batch_matches_one_state_step_bitwise(self, phi, eta, dt):
        # phi = 0.3 makes every entry of the implicit system complex, where a
        # multi-column LAPACK solve would round differently from one column
        m = two_level_model(1.0, 7.0 / np.sqrt(2.0), 0.5, phi, eta)
        stepper = RobustStepper(m, dt)
        rng = np.random.default_rng(17)
        rhos = PAULI.coords(np.stack([random_state(rng) for _ in range(25)]))
        dys = rng.normal(0.0, 3.0 * np.sqrt(dt), 25)
        dys[3] = 0.0
        new, dlog = stepper.advance_many(rhos, dys, 0.5)
        for b in range(25):
            one, one_dlog = stepper.advance(rhos[b], float(dys[b]), 0.5)
            assert np.array_equal(new[b], one)
            assert dlog[b] == one_dlog

    def test_three_level_batch_matches_one_state_step_bitwise(self):
        rng = np.random.default_rng(23)
        m = three_level_model(rng)
        stepper = RobustStepper(m, 0.01)
        rhos = hermitian_basis(3).coords(np.stack([random_state(rng, 3) for _ in range(9)]))
        dys = rng.normal(0.0, 0.1, 9)
        new, dlog = stepper.advance_many(rhos, dys, 0.01)
        for b in range(9):
            one, one_dlog = stepper.advance(rhos[b], float(dys[b]), 0.01)
            assert np.array_equal(new[b], one) and dlog[b] == one_dlog

    def test_collapsed_element_raises_with_time(self):
        stepper = RobustStepper(driven_atom_model(), 0.01)
        rhos = PAULI.coords(np.stack([RHO_PLUS, -np.eye(2, dtype=complex), RHO_PLUS]))
        with pytest.raises(NonFiniteStateError, match="batch element 1") as err:
            stepper.advance_many(rhos, np.array([0.01, 0.02, -0.01]), 0.37)
        assert err.value.time == pytest.approx(0.37)

    def test_nonfinite_increment_rejected(self):
        stepper = RobustStepper(driven_atom_model(), 0.01)
        with pytest.raises(ValueError, match="finite"):
            stepper.advance_many(np.stack([PLUS, PLUS]), np.array([0.0, np.nan]), 0.01)


def _mp_exponential(L, dy, k2, dt):
    """``E(dy) = exp((dy/k^2) L - (dt/2k^2) L^2)`` by ``mpmath.expm`` at 50
    digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        lm = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in L])
        e = mpmath.expm(lm * (mpmath.mpf(dy) / k2) - (lm * lm) * (mpmath.mpf(dt) / (2 * mpmath.mpf(k2))))
        return np.array([[complex(e[i, j]) for j in range(L.shape[0])] for i in range(L.shape[0])])


def _coupling_cases():
    rng = np.random.default_rng(61)
    cases = [(f"random-{i}", rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) for i in range(4)]
    cases.append(("nilpotent", np.array([[0.0, 1.3 - 0.4j], [0.0, 0.0]])))
    cases.append(("scalar", 0.7 * np.eye(2, dtype=complex)))
    for eps in (1.04e-14, 1e-12, 1e-10, 1e-8, 1e-6):
        cases.append((f"near-defective-{eps:g}", np.array([[1.0, 0.3], [0.0, 1.0 + eps]], dtype=complex)))
    return cases


class TestRobustCoefficients:
    # dy up to 10 in size; (eta, dt) = (1/1.1565, 0.02725) is where
    # scipy.linalg.expm is off by 1.1e-3 relative for the eps = 1.04e-14 case
    DYS = (-10.0, -5.2146, -1.0, -0.01, 0.0, 0.3, 2.5, 10.0)
    GRIDS = ((1.0 / 1.1565, 0.02725), (1.0, 0.01), (0.5, 0.2))

    @pytest.mark.parametrize("name, L", _coupling_cases(), ids=[c[0] for c in _coupling_cases()])
    def test_closed_form_is_the_exponential(self, name, L):
        for eta, dt in self.GRIDS:
            m = build_diffusion_model(np.zeros((2, 2)), L, eta)
            stepper, k2 = RobustStepper(m, dt), m.kappa**2
            c = stepper.coefficients(np.array(self.DYS))
            for dy, (c0, c1) in zip(self.DYS, c):
                got = c0 * np.eye(2) + c1 * L
                for want in (_mp_exponential(L, dy, k2, dt), expm(L * (dy / k2) - (L @ L) * (dt / (2.0 * k2)))):
                    assert max_abs(got - want) <= 1e-13 * max_abs(want), (name, eta, dt, dy)

    def test_companion_coefficients_of_three_levels(self):
        # n > 2: the first column of the companion matrix's exponential
        rng = np.random.default_rng(62)
        for _ in range(3):
            L = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = build_diffusion_model(np.zeros((3, 3)), L, 0.8)
            for dy, c in zip(self.DYS, RobustStepper(m, 0.05).coefficients(np.array(self.DYS))):
                got = c[0] * np.eye(3) + c[1] * L + c[2] * (L @ L)
                want = _mp_exponential(L, dy, m.kappa**2, 0.05)
                assert max_abs(got - want) <= 1e-12 * max_abs(want)

    @pytest.mark.parametrize("L", [[[0.3, 1.0], [0.2j, -0.1]], [[0.0, 1.3 - 0.4j], [0.0, 0.0]]])
    def test_in_range_coefficients_are_the_closed_form_bitwise(self, L):
        # the closed form of the docstring, evaluated without a range check
        stepper = RobustStepper(build_diffusion_model(np.zeros((2, 2)), L, 0.7), 0.01)
        a = np.array(self.DYS) * stepper._inv_k2
        s = a - stepper._shift
        if stepper._delta:
            s = np.expm1(stepper._delta * s) / stepper._delta
        f2 = np.exp(stepper._lam2 * a - stepper._lam2_drift)
        c1 = f2 * s
        want = np.stack([f2 - c1 * stepper._lam2, c1], axis=1)
        assert stepper.coefficients(np.array(self.DYS)).tobytes() == want.tobytes()

    def test_out_of_range_exponent_blows_up_without_a_warning(self):
        # exp((lam dy - lam^2 dt/2) / k^2) overflows: the step reports a
        # blown-up state at its time, under the suite's error::RuntimeWarning
        stepper = RobustStepper(build_diffusion_model(np.diag([0.5, -0.5]), [[0.3, 1.0], [0.2j, -0.1]], 0.7), 0.01)
        dys = np.array([0.1, 1e40, -0.2, 1e200])  # the increments' sum of squares overflows too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteStateError, match="blew up") as err:
                stepper.advance(PLUS, 1e40, 0.37)
            assert err.value.time == 0.37
            with pytest.raises(NonFiniteStateError, match="of batch element 1 blew up") as err:
                stepper.advance_many(np.stack([PLUS] * 4), dys, 0.37)
            assert err.value.time == 0.37
            c = stepper.coefficients(dys)
        assert np.isnan(c[[1, 3]]).all()
        assert c[[0, 2]].tobytes() == stepper.coefficients(dys[[0, 2]]).tobytes()

    def test_coefficients_of_sigma_are_exact(self):
        # the driven atom's nilpotent coupling: E(dy) = I + (dy/k^2) L, c0 exactly 1
        m = driven_atom_model(0.3)
        dys = np.array([-0.7, 0.0, 0.013])
        c = RobustStepper(m, 0.01).coefficients(dys)
        assert np.array_equal(c[:, 0], np.ones(3)) and np.array_equal(c[:, 1], dys * (1.0 / m.kappa**2))


@pytest.mark.parametrize("dim", [2, 3])
def test_robust_stack_of_1000_is_each_step_alone(dim):
    # each element of one 1000-state step is bitwise its step alone, and its
    # result in the reversed stack and in a sliced stack
    rng = np.random.default_rng(70 + dim)
    m = driven_atom_model(0.3, 0.6) if dim == 2 else three_level_model(rng)
    stepper = RobustStepper(m, 0.01)
    rhos = hermitian_basis(dim).coords(np.stack([random_state(rng, dim) for _ in range(1000)]))
    dys = rng.normal(0.0, 0.3, 1000)
    dys[[4, 500]] = 0.0
    new, dlog = stepper.advance_many(rhos, dys, 0.5)
    rev, rev_dlog = stepper.advance_many(rhos[::-1], dys[::-1], 0.5)
    part, part_dlog = stepper.advance_many(rhos[3:800:7], dys[3:800:7], 0.5)
    assert np.array_equal(rev[::-1], new) and np.array_equal(rev_dlog[::-1], dlog)
    assert np.array_equal(part, new[3:800:7]) and np.array_equal(part_dlog, dlog[3:800:7])
    for b in range(1000):
        one, one_dlog = stepper.advance(rhos[b], float(dys[b]), 0.5)
        assert new[b].tobytes() == one.tobytes() and dlog[b] == one_dlog


def test_two_level_robust_runs_take_no_matrix_exponential(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a robust step took a matrix exponential")

    monkeypatch.setattr(smefilter.diffusion, "expm", refuse)
    monkeypatch.setattr(smefilter.diffusion, "expm_many", refuse)
    for m in (driven_atom_model(0.3), build_diffusion_model(np.diag([0.5, -0.5]), [[0.3, 1.0], [0.2j, -0.1]], 0.7)):
        ens = run_ensemble(m, "robust", 0.01, 0.5, RHO_PLUS, 5, base_seed=4)
        online = run_trajectory(m, "robust", 0.01, 3.0, RHO_PLUS, seed=4)
        replay = robust_filter(m, online.record, RHO_PLUS)
        assert len(ens.final_states) == 5 and replay[-1].rho.tobytes() == online.states[-1].rho.tobytes()


class TestRobustFilter:
    def test_static_model_stays_put(self):
        m = build_diffusion_model(np.zeros((2, 2)), np.zeros((2, 2)), 1.0)
        rec = MeasurementRecord(0.1, np.zeros(20))
        states = robust_filter(m, rec, RHO_PLUS)
        for st in states:
            assert max_abs(st.rho - RHO_PLUS) <= 1e-12
            assert st.log_lambda == pytest.approx(0.0, abs=1e-12)

    def test_state_validity_on_brownian_record(self):
        m = driven_atom_model()
        rng = np.random.default_rng(39)
        rec = brownian_record(rng, m, 0.01, 500)
        states = robust_filter(m, rec, RHO_PLUS)
        for st in states:
            st.validate()
            b = st.rho
            x = 2 * b[1, 0].real
            y = 2 * b[1, 0].imag
            z = (b[0, 0] - b[1, 1]).real
            assert x * x + y * y + z * z <= 1.0 + 1e-9

    @pytest.mark.parametrize("n_steps", [_MAP_BLOCK - 1, _MAP_BLOCK, _MAP_BLOCK + 1])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_blocks_match_stepwise_and_online_bitwise(self, dim, n_steps):
        rng = np.random.default_rng(n_steps + 100 * dim)
        m = driven_atom_model() if dim == 2 else three_level_model(rng)
        rho0 = random_state(rng, dim)
        online = run_trajectory(m, "robust", 0.01, n_steps * 0.01, rho0, seed=n_steps)
        replay = robust_filter(m, online.record, rho0)
        assert len(replay) == len(online.states) == n_steps + 1
        stepper = RobustStepper(m, 0.01)
        s, log_lam = _start(rho0, dim), 0.0
        for k, dy in enumerate(online.record.increments):
            s, dlog = stepper.advance(s, float(dy), float(online.times[k + 1]))
            log_lam += dlog
            rho = hermitian_basis(dim).matrices(s)
            for got in (replay[k + 1], online.states[k + 1]):
                assert got.rho.tobytes() == rho.tobytes() and got.log_lambda == log_lam

    def test_tracks_pathwise_oracle(self):
        m = driven_atom_model()
        rng = np.random.default_rng(40)
        fine = brownian_record(rng, m, 1e-3, 2000)  # T = 2
        oracle = pathwise_filter(m, fine, RHO_PLUS)
        gaps = []
        for factor in (20, 10):
            coarse = fine.coarsen(factor)
            approx = robust_filter(m, coarse, RHO_PLUS)
            gaps.append(max(max_abs(a.rho - oracle[i * factor].rho) for i, a in enumerate(approx)))
        assert gaps[1] < gaps[0]
        assert gaps[1] <= 0.2


class TestEmUnnormalized:
    def test_static_model_constant(self):
        m = build_diffusion_model(np.zeros((2, 2)), np.zeros((2, 2)), 1.0)
        rec = MeasurementRecord(0.1, np.array([0.4, -0.4, 1.0]))
        states = em_unnormalized(m, rec, RHO_PLUS)
        for st in states:
            assert max_abs(st.rho - RHO_PLUS) <= 1e-14
            assert st.log_lambda == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_unnormalized_reference_recursion(self, dim):
        # the matrix recursion of the docstring, never renormalized: the
        # path's rho_tilde, log_lambda included, follows it
        rng = np.random.default_rng(44)
        if dim == 2:
            m = driven_atom_model()
        else:
            h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = build_diffusion_model(h + dagger(h), rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)), 0.7)
        rec = brownian_record(rng, m, 0.01, 30)
        rho_tilde0 = 2.5 * random_state(rng, dim)
        path = em_unnormalized(m, rec, rho_tilde0, sample_every=3)
        rho_tilde = rho_tilde0
        for k, dy in enumerate(rec.increments, start=1):
            drift = m.L @ rho_tilde @ dagger(m.L) - m.K @ rho_tilde - rho_tilde @ dagger(m.K)
            noise = m.L @ rho_tilde + rho_tilde @ dagger(m.L)
            rho_tilde = rho_tilde + drift * rec.dt + noise * dy / m.kappa**2
            if k % 3 == 0:
                st = path[k // 3]
                assert abs(st.log_lambda - np.log(np.trace(rho_tilde).real)) <= 1e-12
                assert max_abs(st.rho_tilde() - rho_tilde) <= 1e-12 * max_abs(rho_tilde)
        assert abs(path[-1].log_lambda - path[0].log_lambda) > 0.1

    def test_batch_matches_sequential(self):
        m = driven_atom_model()
        rng = np.random.default_rng(41)
        records = [brownian_record(rng, m, 0.01, 40) for _ in range(3)]
        batch = em_unnormalized_many(m, records, RHO_PLUS)
        for rec, path in zip(records, batch):
            # each record of a batch is sampled alone, by the same steps
            single = em_unnormalized(m, rec, RHO_PLUS)
            assert path.rho.tobytes() == single.rho.tobytes()
            assert path.log_lambda.tobytes() == single.log_lambda.tobytes()

    def test_sample_every_thins_output(self):
        # each sample is one product of ten step maps a chunk, near the fine
        # steps; the times are the record's own
        m = driven_atom_model()
        rng = np.random.default_rng(42)
        rec = brownian_record(rng, m, 0.01, 40)
        full = em_unnormalized(m, rec, RHO_PLUS)
        thin = em_unnormalized(m, rec, RHO_PLUS, sample_every=10)
        assert isinstance(thin, StatePath) and len(thin) == 5
        every_tenth = full[::10]
        assert max_abs(thin.rho - every_tenth.rho) <= 1e-13
        assert max_abs(thin.log_lambda - every_tenth.log_lambda) <= 1e-13 * max(1.0, max_abs(full.log_lambda))
        assert thin.t.tobytes() == every_tenth.t.tobytes() == rec.times[::10].tobytes()
        with pytest.raises(ValueError, match="sample_every"):
            em_unnormalized(m, rec, RHO_PLUS, sample_every=7)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_every_step_is_the_fine_replay_bitwise(self, dim):
        # at sample_every = 1 the chunk is the step: the states are those of
        # _trajectory stepping the oracle's maps, over more than two blocks
        rng = np.random.default_rng(46)
        m = driven_atom_model() if dim == 2 else three_level_model(rng)
        rec = MeasurementRecord(0.01, rng.normal(0.0, 0.1, 2 * _MAP_BLOCK + 7), t0=0.3)
        rho_tilde0 = 2.5 * random_state(rng, dim)
        got, want = em_unnormalized(m, rec, rho_tilde0), linear_em_replay(m, rec, rho_tilde0)
        assert got.rho.tobytes() == want.rho.tobytes()
        assert got.log_lambda.tobytes() == want.log_lambda.tobytes()
        assert got.t.tobytes() == want.t.tobytes() == rec.times.tobytes()

    def test_records_may_be_any_iterable(self):
        m = driven_atom_model()
        rng = np.random.default_rng(47)
        records = [brownian_record(rng, m, 0.01, 40) for _ in range(3)]
        got = em_unnormalized_many(m, (rec for rec in records), RHO_PLUS, sample_every=4)
        want = em_unnormalized_many(m, records, RHO_PLUS, sample_every=4)
        assert len(got) == 3
        assert all(a.rho.tobytes() == b.rho.tobytes() for a, b in zip(got, want))
        assert all(a.log_lambda.tobytes() == b.log_lambda.tobytes() for a, b in zip(got, want))

    def test_mean_over_reference_records_follows_master(self):
        # under reference-measure records (centered Gaussian increments of
        # variance kappa^2 dt) the mean unnormalized state obeys the
        # deterministic master flow
        m = driven_atom_model()
        rng = np.random.default_rng(43)
        dt, n, n_rec = 0.01, 200, 600
        records = [brownian_record(rng, m, dt, n) for _ in range(n_rec)]
        paths = em_unnormalized_many(m, records, RHO_PLUS, sample_every=50)
        mean_tilde = np.zeros((len(paths[0]), 2, 2), dtype=complex)
        for path in paths:
            mean_tilde += np.stack([st.rho_tilde() for st in path])
        mean_tilde /= n_rec
        oracle = master_propagate(m.H, m.L, RHO_PLUS, dt / 10.0, n * 10)
        for j, k in enumerate(range(0, n + 1, 50)):
            assert max_abs(mean_tilde[j] - oracle[k * 10]) <= 3.5 / np.sqrt(n_rec) + 5 * dt

    def test_grid_mismatch_rejected(self):
        m = driven_atom_model()
        r1 = MeasurementRecord(0.01, np.zeros(4))
        r2 = MeasurementRecord(0.02, np.zeros(4))
        with pytest.raises(ValueError, match="share"):
            em_unnormalized_many(m, [r1, r2], RHO_PLUS)

    def test_collapse_names_its_record_and_time(self):
        # the noise term of L = sigma moves the trace by <sigma_x> dy: record
        # 1's increment of -10 in step 3 drives it to about -9, while record
        # 0, all zeros, stays valid
        m = build_diffusion_model(np.zeros((2, 2)), SIGMA, 1.0)
        rec = MeasurementRecord(0.01, np.zeros(5), t0=0.3)
        collapsing = MeasurementRecord(0.01, np.array([0.0, 0.0, -10.0, 0.0, 0.0]), t0=0.3)
        with pytest.raises(NonFiniteStateError) as err:
            em_unnormalized_many(m, [rec, collapsing], RHO_PLUS)
        assert re.fullmatch(
            r"unnormalized state of record 1 in step 3 collapsed \(trace -8\.9\d*\) at t = 0\.33", str(err.value)
        )
        assert err.value.time == rec.times[3]


class TestIntegerArguments:
    # each integer argument is checked before any work, as run_ensemble
    # checks n_traj: a float, a bool, a string or None names the argument
    @pytest.mark.parametrize("bad", [2.0, 2.5, True, np.True_, "2", None])
    def test_non_integers_are_rejected_by_name(self, bad):
        got = rf"must be an integer, got {re.escape(repr(bad))}$"
        rec = MeasurementRecord(0.01, np.zeros(20))
        with pytest.raises(ValueError, match=rf"^sample_every {got}"):
            em_unnormalized_many(driven_atom_model(), [], RHO_PLUS, sample_every=bad)
        with pytest.raises(ValueError, match=rf"^every {got}"):
            pathwise_samples(None, rec, None, bad)
        with pytest.raises(ValueError, match=rf"^factor {got}"):
            rec.coarsen(bad)

    @pytest.mark.parametrize(
        "bad, words",
        [(2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"), (-1, "must be >= 0, got -1")],
        ids=["float", "bool", "negative"],
    )
    @pytest.mark.parametrize("call", ["run_trajectory", "run_ensemble", "sample_counting_record"])
    def test_seeds_are_rejected_by_name(self, call, bad, words):
        # checked before any work: no other argument is looked at
        name, run = {
            "run_trajectory": ("seed", lambda seed: run_trajectory(None, None, None, None, None, seed)),
            "run_ensemble": ("base_seed", lambda seed: run_ensemble(None, None, None, None, None, 2, seed)),
            "sample_counting_record": ("seed", lambda seed: sample_counting_record(None, None, None, None, seed)),
        }[call]
        with pytest.raises(ValueError, match=rf"^{name} {re.escape(words)}$"):
            run(bad)

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint8])
    def test_numpy_integers_are_accepted(self, kind):
        m = driven_atom_model()
        rec = brownian_record(np.random.default_rng(45), m, 0.01, 20)
        got, want = em_unnormalized(m, rec, RHO_PLUS, kind(4)), em_unnormalized(m, rec, RHO_PLUS, 4)
        assert got.rho.tobytes() == want.rho.tobytes() and got.t.tobytes() == want.t.tobytes()
        got, want = pathwise_samples(m, rec, RHO_PLUS, kind(5)), pathwise_samples(m, rec, RHO_PLUS, 5)
        assert got.rho.tobytes() == want.rho.tobytes() and got.t.tobytes() == want.t.tobytes()
        got, want = rec.coarsen(kind(2)), rec.coarsen(2)
        assert got.increments.tobytes() == want.increments.tobytes() and got.dt == want.dt


class TestEmNormalized:
    def test_zero_coupling_is_schrodinger_flow(self):
        H = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        m = build_diffusion_model(H, np.zeros((2, 2)), 1.0)
        dt, n = 1e-4, 2000
        states, record = em_normalized(m, dt, np.zeros(n), RHO_PLUS)
        t = dt * n
        u = scipy.linalg.expm(-1j * H * t)
        exact = u @ RHO_PLUS @ dagger(u)
        assert max_abs(states[-1].rho - exact) <= 5e-4
        assert np.allclose(record.increments, 0.0)

    def test_trace_preserved_before_safeguard(self):
        m = driven_atom_model()
        rng = np.random.default_rng(44)
        rho = RHO_PLUS.copy()
        dt = 0.01
        l_sum = m.L + dagger(m.L)
        for _ in range(200):
            dn = rng.normal(0.0, np.sqrt(dt))
            mval = float(np.einsum("ij,ji->", l_sum, rho).real)
            drift = m.L @ rho @ dagger(m.L) - m.K @ rho - rho @ dagger(m.K)
            diff = (m.L @ rho + rho @ dagger(m.L) - mval * rho) / m.kappa
            raw = rho + drift * dt + diff * dn
            assert abs(np.trace(raw).real - 1.0) <= 1e-6
            rho = 0.5 * (raw + dagger(raw)) / np.trace(raw).real

    def test_experiment_parameters_run_to_final_time(self):
        m = driven_atom_model()
        rng = np.random.default_rng(45)
        n = 2500
        states, record = em_normalized(m, 0.01, rng.normal(0.0, 0.1, n), RHO_PLUS)
        assert len(states) == n + 1
        states[-1].validate()

    def test_synthesized_record_feeds_unnormalized_filter(self):
        m = driven_atom_model()
        rng = np.random.default_rng(46)
        dt, n = 0.001, 2000
        states, record = em_normalized(m, dt, rng.normal(0.0, np.sqrt(dt), n), RHO_PLUS)
        replay = em_unnormalized(m, record, RHO_PLUS)
        gap = max(max_abs(a.rho - b.rho) for a, b in zip(states, replay))
        assert gap <= 0.02


class TestPathwiseSchrodinger:
    def test_requires_perfect_detection(self):
        from smefilter.diffusion import pathwise_schrodinger_rhs

        m = driven_atom_model(eta=0.85)
        with pytest.raises(ValueError, match="eta = 1"):
            pathwise_schrodinger_rhs(m, np.eye(2), np.eye(2), np.array([1.0, 0.0]))

    def test_zero_coupling_is_schrodinger(self):
        from smefilter.diffusion import pathwise_schrodinger_rhs

        H = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
        m = build_diffusion_model(H, np.zeros((2, 2)), 1.0)
        phi = np.array([0.6, 0.8], dtype=complex)
        assert max_abs(pathwise_schrodinger_rhs(m, np.eye(2), np.eye(2), phi) - (-1j * H @ phi)) <= 1e-14

    def test_rank_one_consistency_with_pathwise_flow(self):
        from smefilter.diffusion import pathwise_schrodinger_rhs

        m = driven_atom_model(eta=1.0)
        n = 50
        dt = 0.01
        times = dt * np.arange(n + 1)
        rec = MeasurementRecord(dt, np.diff(0.5 * np.sin(3 * times)))
        y = rec.cumulative()
        phi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        substeps = 4
        h = dt / substeps
        for k in range(n):
            slope = rec.increments[k] / dt

            def deriv(tau, vec_phi):
                a, a_inv = gauge(m.L, m.kappa, y[k] + slope * (tau - k * dt), tau)
                return pathwise_schrodinger_rhs(m, a, a_inv, vec_phi)

            for j in range(substeps):
                phi = rk4_step(deriv, k * dt + j * h, phi, h)
        # phi lives in the gauge frame: undo the gauge at the record's end
        psi = gauge(m.L, m.kappa, y[-1], rec.times[-1])[1] @ phi
        outer = np.outer(psi, psi.conj())
        outer /= np.trace(outer).real
        filtered = pathwise_filter(m, rec, RHO_PLUS)
        assert max_abs(outer - filtered[-1].rho) <= 1e-8


class TestBlowupHandling:
    def test_em_collapse_carries_time(self):
        # a catastrophic increment drives the trace negative
        m = driven_atom_model()
        rec = MeasurementRecord(0.01, np.array([0.0, 0.0, -1e6, 0.0]))
        with pytest.raises(NonFiniteStateError) as err:
            em_unnormalized(m, rec, RHO_PLUS)
        assert err.value.time == pytest.approx(0.03)


class TestRenormalizeStack:
    """The stack tail passes a stack at once when its smallest trace is above
    the rounding error of its largest coordinate, and otherwise checks each
    element alone, as it checks a stack of one."""

    @staticmethod
    def stack(traces, n=3):
        rng = np.random.default_rng(43)
        basis = hermitian_basis(n)
        return np.array([t * basis.coords(random_state(rng, n)) for t in traces])

    @pytest.mark.parametrize(
        "entry, value, failure",
        [((2, 0), 0.0, "blew up"), ((2, 0), -0.5, "collapsed"), ((2, 3), np.nan, "blew up"), ((2, 5), 1e20, "blew up")],
        ids=["zero trace", "negative trace", "nan", "swamped trace"],
    )
    def test_first_failing_element_is_named(self, entry, value, failure):
        x = self.stack([1.0, 2.0, 0.5, 3.0, 1.0])
        x[entry] = value
        x[4, 1] = np.nan  # a later failure is not the one named
        # the trace is named when the element's coordinates are finite
        trace = f" (trace {x[2, 0]})" if np.isfinite(value) else ""
        with pytest.raises(NonFiniteStateError) as err:
            _renormalize(x, 0.5, "state", _batch_element)
        assert str(err.value) == f"state of batch element 2 {failure}{trace} at t = 0.5"
        with pytest.raises(NonFiniteStateError) as alone:  # the element in a stack of one
            _renormalize(x[2:3], 0.5, "state")
        assert str(alone.value) == f"state {failure}{trace} at t = 0.5"

    def test_traces_across_the_range_pass_element_by_element(self):
        # the whole-stack test fails here, yet each element passes its own
        traces = 10.0 ** np.arange(-300.0, 301.0, 100.0)
        x = self.stack(traces)
        assert not np.abs(x).max() * np.finfo(float).eps < x[:, 0].min()
        s, logs = _renormalize(x, 0.5, "state", _batch_element)
        for xb, sb, log in zip(x, s, logs):
            alone, log_alone = _renormalize(xb[None], 0.5, "state")
            assert sb.tobytes() == alone[0].tobytes() and log == log_alone[0]
        assert np.allclose(logs, np.log(traces), rtol=0.0, atol=1e-12)

    def test_empty_stack_passes(self):
        s, logs = _renormalize(np.empty((0, 4)), 0.5, "state")
        assert s.shape == (0, 4) and logs.shape == (0,)

    def test_ensemble_element_names_its_trace(self):
        # a drive far beyond what the implicit step resolves leaves the
        # states finite with a zero trace: an ensemble, a run and a replay
        # name the state's failure, and its trace, in the same words
        m = two_level_model(1.0, 1e200, 0.0, 0.0, 0.85)
        with pytest.raises(NonFiniteStateError) as ens:
            run_ensemble(m, "robust", 0.01, 0.05, RHO_PLUS, 3, base_seed=7)
        words = "blew up (trace 0.0) at t = 0.01"
        assert str(ens.value) == f"implicit filter state of trajectory 0 (seed 7) in step 1 {words}"
        with pytest.raises(NonFiniteStateError) as run:
            run_trajectory(m, "robust", 0.01, 0.05, RHO_PLUS, seed=7)
        with pytest.raises(NonFiniteStateError) as replay:
            robust_filter(m, MeasurementRecord(0.01, np.zeros(5)), RHO_PLUS)
        assert str(run.value) == str(replay.value) == f"implicit filter state of step 1 {words}"


@hst.composite
def small_diffusion_models(draw):
    """2- and 3-level models with a random Hamiltonian and coupling, and the
    driven atom, whose nilpotent coupling puts exact zeros in the gauge."""
    eta = draw(hst.floats(0.2, 1.0))
    if draw(hst.booleans()):
        return two_level_model(1.0, 7.0 / np.sqrt(2.0), 0.5, draw(hst.sampled_from((0.0, 0.3))), eta)
    n = draw(hst.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(hst.integers(0, 2**32 - 1)))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    L = draw(hst.floats(0.1, 1.5)) * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return build_diffusion_model(a + dagger(a), L, eta)


@hst.composite
def step_grids(draw):
    """``(dt, t_rel)``: short steps with ``t_rel`` up to ``1e3 dt``, where a
    substep's end ``t + h`` and the next substep's start ``t_rel + (j + 1) h``
    can differ in the last bit, or long steps, where a rounding change in the
    stage arithmetic reaches the state."""
    if draw(hst.booleans()):
        dt = draw(hst.floats(1e-4, 1e-2))
        return dt, draw(hst.floats(0.0, 1e3)) * dt
    dt = draw(hst.floats(0.02, 0.2))
    return dt, draw(hst.floats(0.0, 20.0)) * dt


def reference_gauge(model, y, tau):
    """The gauge pair ``exp(X), exp(-X)`` at record value ``y`` and time ``tau``."""
    L, k2 = model.L, model.kappa * model.kappa
    exponent = (-y / k2) * L + (tau / (2.0 * k2)) * (L @ L)
    return expm(exponent), expm(-exponent)


def reference_advance(model, r, t_rel, y_start, dy, dt, substeps):
    """One step of the gauge-frame equation by RK4, with the gauge rebuilt at
    every stage time."""
    slope = dy / dt
    h = dt / substeps

    def deriv(tau, rr):
        a, a_inv = reference_gauge(model, y_start + slope * (tau - t_rel), tau)
        return pathwise_rhs(model, a, a_inv, rr)

    for j in range(substeps):
        r = rk4_step(deriv, t_rel + j * h, r, h)
    return 0.5 * (r + dagger(r))


def gauge_frame_rk4(model, record, rho0, substeps):
    """The recovered state at the end of a record, from RK4 in the gauge frame
    (where the gauge is the identity at the record start)."""
    y = record.cumulative()
    r = rho0.copy()
    for k, dy in enumerate(record.increments):
        r = reference_advance(model, r, k * record.dt, y[k], dy, record.dt, substeps)
    return recover(reference_gauge(model, y[-1], record.duration)[1], r)


def reference_step(model, rho_tilde, dy, dt):
    """One exact step in the original frame: ``scipy.linalg.expm`` of the
    generator ``gain L . L^dag - J . - . J^dag`` with ``J = K - (dy/(dt k^2)) L
    + L^2/(2k^2)``, each term assembled from its action on the basis."""
    n, L, k2 = model.dim, model.L, model.kappa**2
    j = model.K - (dy / (dt * k2)) * L + (L @ L) / (2.0 * k2)
    gen = np.empty((n * n, n * n), dtype=complex)
    for c in range(n * n):
        e = np.zeros(n * n, dtype=complex)
        e[c] = 1.0
        x = e.reshape((n, n), order="F")
        gen[:, c] = ((1.0 - 1.0 / k2) * L @ x @ dagger(L) - j @ x - x @ dagger(j)).reshape(-1, order="F")
    return (scipy.linalg.expm(dt * gen) @ vec(rho_tilde)).reshape((n, n), order="F")


def stage_stiffness(model, t_rel, y_start, dy, dt, substeps):
    """Largest ``h ||A K A^-1||_2`` over the RK4 stage times of a step."""
    h = dt / substeps
    taus = t_rel + 0.5 * h * np.arange(2 * substeps + 1)
    return max(
        h * np.linalg.norm(a @ model.K @ a_inv, 2)
        for a, a_inv in (reference_gauge(model, y_start + (dy / dt) * (tau - t_rel), tau) for tau in taus)
    )


def close_to(got, want) -> bool:
    """Agreement to rounding: within ``1e-12 max(1, max_abs(want))``."""
    return max_abs(np.asarray(got) - np.asarray(want)) <= 1e-12 * max(1.0, max_abs(want))


RK4_SUBSTEPS = 64
RK4_TOL = 5e-8


def strict_validate(state):
    return state.validate(trace_tol=1e-12, herm_tol=1e-12, eig_floor=-1e-12)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    model=small_diffusion_models(),
    grid=step_grids(),
    y_start=hst.floats(-3.0, 3.0),
    dy_scaled=hst.floats(-3.0, 3.0),
    seed=hst.integers(0, 2**32 - 1),
)
# y runs from 0.9 to 1.09 with eta = 1, so the gauge exponents' norms cross 1
@example(
    model=build_diffusion_model(np.diag([0.5, -0.5]), np.array([[0.3, 1.0], [0.2j, -0.1]]), 1.0),
    grid=(0.1, 0.0), y_start=0.9, dy_scaled=0.6, seed=0,
)
def test_pathwise_step_matches_per_stage_gauges(model, grid, y_start, dy_scaled, seed):
    # The step is exact for any step width and coupling, with no stability
    # interval, and does not depend on the step's time or record value.
    dt, t_rel = grid
    dy = dy_scaled * np.sqrt(dt)
    rho = random_state(np.random.default_rng(seed), model.dim)
    stepper = PathwiseIntegrator(model, dt)
    basis = hermitian_basis(model.dim)
    r = basis.matrices(stepper.propagate(basis.coords(rho), dy))
    state = strict_validate(stepper.recover_state(r, 0.5, 7.0))
    assert np.array_equal(state.rho, dagger(state.rho)) and state.t == 7.0
    want = reference_step(model, rho, dy, dt)
    tr = np.trace(want).real
    assert close_to(state.rho, want / tr)
    assert abs(state.log_lambda - (0.5 + np.log(tr))) <= 1e-12
    # The gauge-frame equation by 64-substep RK4, from the step's time and
    # record value and mapped back with the gauge.  RK4 is only a reference
    # inside its stability interval (h |A K A^-1| up to about 2.8); a scan of
    # 1500 draws found it there within 5.1e-9 of the exact step.
    if stage_stiffness(model, t_rel, y_start, dy, dt, RK4_SUBSTEPS) > 2.8:
        return
    a, _ = reference_gauge(model, y_start, t_rel)
    r = reference_advance(model, a @ rho @ dagger(a), t_rel, y_start, dy, dt, RK4_SUBSTEPS)
    rec = recover(reference_gauge(model, y_start + dy, t_rel + dt)[1], r)
    assert max_abs(state.rho - rec.rho) <= RK4_TOL
    assert abs(state.log_lambda - 0.5 - rec.log_lambda) <= RK4_TOL


def test_block_of_steps_matches_each_step_alone_bitwise():
    # Increments spread over dy_scale fall on both sides of the Taylor
    # table's radius: the table makes the maps of some steps of a block and
    # expm_many, with its own squaring count and series length for each,
    # those of the others.  Some drawn block must hold both.
    mixed = []

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        model=small_diffusion_models(),
        grid=step_grids(),
        n_steps=hst.integers(2, 20),
        dy_scale=hst.floats(0.0, 30.0),
        seed=hst.integers(0, 2**32 - 1),
    )
    def check(model, grid, n_steps, dy_scale, seed):
        dt, _ = grid
        rng = np.random.default_rng(seed)
        dy = dy_scale * np.sqrt(dt) * rng.normal(size=n_steps)
        stepper = PathwiseIntegrator(model, dt)
        inside = dy * dy <= stepper._radius_sq
        mixed.append(inside.any() and not inside.all())
        block = stepper.step_maps(dy)
        rho = random_state(rng, model.dim)
        basis = hermitian_basis(model.dim)
        state = DensityState(rho, 0.0, 0.0)
        for b in range(n_steps):
            alone = stepper.step_maps(dy[b : b + 1])[0]
            assert block[b].tobytes() == alone.tobytes()
            s = basis.coords(state.rho)
            r = _apply_maps(block[b], s)
            assert r.tobytes() == stepper.propagate(s, float(dy[b])).tobytes()
            state = stepper.recover_state(basis.matrices(r), state.log_lambda, 1.0)

    check()
    assert any(mixed)


def assembled_robust_step(model, rho, e, dt):
    """The normalized robust step from the system ``A X + X B - C X D`` built
    term by term and solved by ``scipy.linalg.solve``."""
    n, k2 = model.dim, model.kappa**2
    eye = np.eye(n)
    big_a, big_b = eye + model.K * dt, dagger(model.K) * dt
    big_d = dagger(model.L) * (1.0 - 1.0 / k2) * dt
    system = kron(eye, big_a) + kron(big_b.T, eye) - kron(big_d.T, model.L)
    x = scipy.linalg.solve(system, vec(e @ rho @ dagger(e))).reshape((n, n), order="F")
    return 0.5 * (x + dagger(x)) / np.trace(x).real


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    model=small_diffusion_models(),
    dt=hst.floats(1e-3, 1.0),
    nb=hst.integers(1, 70),
    seed=hst.integers(0, 2**32 - 1),
)
def test_robust_batch_is_each_step_alone_and_near_the_solve(model, dt, nb, seed):
    # The inverse of the implicit system is applied as a stack of products:
    # each element is bitwise the one-state step, whatever the stack size,
    # and within rounding of solving the system itself.
    rng = np.random.default_rng(seed)
    stepper = RobustStepper(model, dt)
    basis = hermitian_basis(model.dim)
    rhos = np.stack([random_state(rng, model.dim) for _ in range(nb)])
    dys = rng.normal(0.0, model.kappa * np.sqrt(dt), nb)
    new, dlog = stepper.advance_many(basis.coords(rhos), dys, 1.0)
    k2 = model.kappa**2
    for b in range(nb):
        one, one_dlog = stepper.advance(basis.coords(rhos[b]), float(dys[b]), 1.0)
        assert new[b].tobytes() == one.tobytes() and dlog[b] == one_dlog
        e = expm(model.L * (dys[b] / k2) - (model.L @ model.L) * (dt / (2.0 * k2)))
        assert max_abs(basis.matrices(new[b]) - assembled_robust_step(model, rhos[b], e, dt)) <= 1e-12


def assert_fails_as_its_single_run(model, scheme, dt, rho0, base_seed, n_traj, err):
    """An ensemble's error names trajectory ``b``, its seed and its step; the
    run of that seed fails in that step at the same time in the same words,
    and no trajectory fails before it."""
    found = re.search(r"trajectory (\d+) \(seed (\d+)\) in step (\d+)", str(err))
    assert found, str(err)
    b, seed, step = (int(g) for g in found.groups())
    assert seed == base_seed + b and b < n_traj
    with pytest.raises(type(err)) as single:
        run_trajectory(model, scheme, dt, step * dt, rho0, seed)
    assert single.value.time == err.time
    assert str(single.value) == str(err).replace(f"trajectory {b} (seed {seed}) in step", "step")
    if step > 1:
        for i in range(n_traj):
            run_trajectory(model, scheme, dt, (step - 1) * dt, rho0, base_seed + i)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    model=small_diffusion_models(),
    scheme=hst.sampled_from(SCHEMES),
    n_traj=hst.integers(1, 40),
    base_seed=hst.integers(0, 2**32 - 1),
    block_end=hst.sampled_from((_DRAW_BLOCK, _DRAW_BLOCK + 3 * _STEP_BLOCK)),  # 256 and 304
    end=hst.sampled_from((-1, 0, 1)),
)
@example(model=driven_atom_model(0.3, 0.5), scheme="pathwise", n_traj=37, base_seed=11, block_end=256, end=0)
@example(
    model=three_level_model(np.random.default_rng(5)), scheme="em", n_traj=23, base_seed=2**32 - 5, block_end=304, end=1
)
@example(model=driven_atom_model(), scheme="robust", n_traj=40, base_seed=7, block_end=256, end=-1)
def test_batched_ensemble_matches_single_runs_bitwise(model, scheme, n_traj, base_seed, block_end, end):
    # Every scheme's ensemble steps its trajectories as one stack; each must
    # end bitwise where its single run ends, over about one block of
    # innovation draws or more, and the mean path must sum the states of
    # each block of steps handed over in trajectory order.  The run ends one
    # step before, at or one step after the end of the first draw block, or
    # of a block of _STEP_BLOCK steps inside the second.  A model that blows up fails
    # in the ensemble as the named trajectory's single run fails.
    dt = 0.01
    n = block_end + end
    rho0 = random_state(np.random.default_rng(base_seed), model.dim)
    try:
        ens = run_ensemble(model, scheme, dt, n * dt, rho0, n_traj, base_seed)
    except NonFiniteStateError as err:
        assert_fails_as_its_single_run(model, scheme, dt, rho0, base_seed, n_traj, err)
        return
    total = None
    for i in range(n_traj):
        single = run_trajectory(model, scheme, dt, n * dt, rho0, base_seed + i)
        assert np.array_equal(ens.final_states[i].rho, single.states[-1].rho)
        assert ens.final_states[i].log_lambda == single.states[-1].log_lambda
        assert ens.final_states[i].t == single.states[-1].t
        path = np.stack([s.rho for s in single.states])
        total = path.copy() if total is None else total + path
    assert np.array_equal(ens.times, single.times)
    assert np.array_equal(np.stack(ens.mean_rho_path), np.stack([t / n_traj for t in total]))


def some_states(rng, m):
    return StatePath(
        np.stack([random_state(rng) for _ in range(m)]), rng.normal(size=m), 0.5 + 0.01 * np.arange(m)
    )


NON_FINITE_ENTRIES = (np.nan, np.inf, -np.inf, complex(0.0, np.nan))


class TestDensityStateValidate:
    @pytest.mark.parametrize(
        "where, bad",
        [
            *((where, bad) for where in ("diagonal", "off-diagonal", "everywhere") for bad in NON_FINITE_ENTRIES),
            *(("log_lambda", bad) for bad in (np.nan, np.inf, -np.inf)),
        ],
    )
    def test_non_finite_state_is_rejected_naming_its_time(self, where, bad):
        # every comparison with NaN is false: no tolerance check may pass it
        rho, log_lambda = np.full((2, 2), 0.5, dtype=complex), 0.0
        if where == "diagonal":
            rho[1, 1] = bad
        elif where == "off-diagonal":
            rho[0, 1], rho[1, 0] = bad, np.conj(bad)
        elif where == "everywhere":
            rho[:] = bad
        else:
            log_lambda = bad
        name = "log_lambda" if where == "log_lambda" else "rho"
        with pytest.raises(ValueError, match=rf"^{name} .*is not finite at t=0\.25$"):
            DensityState(rho, log_lambda, 0.25).validate()

    @pytest.mark.parametrize("tol", ["trace_tol", "herm_tol", "eig_floor"])
    def test_nan_tolerance_fails(self, tol):
        # a tolerance no number is within rejects every state
        state = DensityState(np.full((2, 2), 0.5, dtype=complex), 0.0, 0.25)
        assert state.validate() is state
        with pytest.raises(ValueError, match=r"at t=0\.25$"):
            state.validate(**{tol: np.nan})


class TestStatePath:
    def test_sequence_agrees_with_a_list_of_states(self):
        path = some_states(np.random.default_rng(90), 23)
        states = [DensityState(r, float(lam), float(t)) for r, lam, t in zip(path.rho, path.log_lambda, path.t)]

        def same(a, b):
            return a.rho.tobytes() == b.rho.tobytes() and (a.log_lambda, a.t) == (b.log_lambda, b.t)

        assert len(path) == 23
        for k in [*range(-23, 23), np.int64(4)]:
            assert type(path[k].log_lambda) is float and type(path[k].t) is float
            assert same(path[k], states[k])
        for k in (23, -24):
            with pytest.raises(IndexError):
                path[k]
        for part in (slice(None, None, 10), slice(3, -2), slice(None, None, -3), slice(5, 2), slice(-4, None)):
            assert isinstance(path[part], StatePath) and len(path[part]) == len(states[part])
            assert all(same(a, b) for a, b in zip(path[part], states[part]))
        assert all(same(a, b) for a, b in zip(path, states))
        assert all(same(a, b) for a, b in zip(reversed(path), states[::-1]))

    def test_an_indexed_state_is_found_in_its_path(self):
        # indexing makes a new DensityState each time; states compare by value
        path = some_states(np.random.default_rng(93), 9)
        assert path[3] in path and path.index(path[3]) == 3 and path[3] == path[3]
        assert DensityState(np.eye(2), 0.0, 0.0) == DensityState(np.eye(2), 0.0, 0.0)
        other = path[3]
        assert DensityState(other.rho, other.log_lambda, other.t + 0.01) not in path
        assert (path[3] == path[4]) is False and path[3] != "a state"

    def test_rho_tilde_is_each_states_bitwise(self):
        path = some_states(np.random.default_rng(91), 9)
        assert path.rho_tilde().tobytes() == np.stack([s.rho_tilde() for s in path]).tobytes()


@pytest.mark.parametrize("run_filter", [robust_filter, pathwise_filter])
def test_failing_step_names_its_step_and_time(run_filter):
    # dy = 1e40 takes the robust E(dy) and the pathwise expm out of range
    m = build_diffusion_model(np.zeros((2, 2)), [[0.3, 1.0], [0.2j, -0.1]], 0.8)
    with pytest.raises(NonFiniteStateError, match=r" of step 3 blew up.* at t = 0\.03$") as err:
        run_filter(m, MeasurementRecord(0.01, [0.1, 0.2, 1e40, 0.1]), RHO_PLUS)
    assert err.value.time == pytest.approx(0.03)


@pytest.mark.parametrize("run_filter", [robust_filter, pathwise_filter])
def test_filter_holds_no_object_per_step(run_filter):
    # the states of a 20,000-step replay are arrays: 80 B a step for 2x2
    # states, against 345 B when each step held its own DensityState
    m = driven_atom_model()
    n = 20_000
    rec = brownian_record(np.random.default_rng(92), m, 0.01, n)
    run_filter(m, MeasurementRecord(0.01, rec.increments[:300]), RHO_PLUS)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        states = run_filter(m, rec, RHO_PLUS)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(states) == n + 1
    assert held / n <= 150, f"{held / n:.0f} B per step"

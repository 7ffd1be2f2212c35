import numpy as np
import pytest
import scipy.linalg

from smefilter.diffusion import (
    DensityState,
    MeasurementRecord,
    NonFiniteStateError,
    PathwiseIntegrator,
    RobustStepper,
    _robust_advance,
    em_normalized,
    em_unnormalized,
    em_unnormalized_many,
    gauge,
    integrate_pathwise,
    pathwise_filter,
    pathwise_rhs,
    read_measurement_record,
    recover,
    robust_filter,
    robust_step,
    write_measurement_record,
)
from smefilter.linalg import dagger, expm, kron, max_abs, vec
from smefilter.model import build_diffusion_model, purity, rho_from_bloch, two_level_model
from smefilter.ode import rk4_step
from smefilter.traj import master_propagate

RHO_PLUS = np.full((2, 2), 0.5, dtype=complex)


def driven_atom_model(phi=0.0, eta=0.85):
    return two_level_model(1.0, 7.0 / np.sqrt(2.0), 0.0, phi, eta)


def random_state(rng, n=2):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ dagger(a)
    return rho / np.trace(rho).real


def brownian_record(rng, model, dt, n):
    return MeasurementRecord(dt, rng.normal(0.0, model.kappa * np.sqrt(dt), n))


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

    def test_interpolation(self):
        rec = MeasurementRecord(1.0, np.array([2.0, -1.0]))
        assert rec.interpolate(0.0) == 0.0
        assert rec.interpolate(0.5) == pytest.approx(1.0)
        assert rec.interpolate(1.5) == pytest.approx(1.5)
        assert rec.interpolate(99.0) == pytest.approx(1.0)  # clamped

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

    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        rec = MeasurementRecord(0.01, rng.normal(size=57), t0=0.25)
        path = tmp_path / "record.csv"
        write_measurement_record(path, rec, comments=["origin: test"])
        back = read_measurement_record(path)
        assert back.dt == rec.dt and back.t0 == rec.t0
        assert np.array_equal(back.increments, rec.increments)

    def test_csv_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,dN\n0.1,1\n")
        with pytest.raises(ValueError, match="t,dy"):
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
        path = integrate_pathwise(m, rec, RHO_PLUS, substeps=2)
        for st in path:
            assert max_abs(st.r - RHO_PLUS) <= 1e-14

    def test_rk4_order_on_smooth_record(self):
        m = driven_atom_model()
        n = 25
        times = 0.04 * np.arange(n + 1)
        rec = MeasurementRecord(0.04, np.diff(np.sin(times)))
        truth = integrate_pathwise(m, rec, RHO_PLUS, substeps=16)[-1].r
        errs = []
        for substeps in (1, 2):
            approx = integrate_pathwise(m, rec, RHO_PLUS, substeps=substeps)[-1].r
            errs.append(max_abs(approx - truth))
        # classical fourth order: halving the substep cuts the error ~16x
        assert errs[1] <= errs[0] / 12.0

    def test_agrees_with_fine_em_on_brownian_path(self):
        m = driven_atom_model()
        rng = np.random.default_rng(38)
        fine = brownian_record(rng, m, 1e-4, 20000)  # T = 2
        em_path = em_unnormalized(m, fine, RHO_PLUS, sample_every=100)
        coarse = fine.coarsen(10)  # dt = 1e-3
        ode_path = pathwise_filter(m, coarse, RHO_PLUS, substeps=2)
        gaps = [
            max_abs(a.rho - b.rho)
            for a, b in zip(ode_path[::10], em_path)
        ]
        assert max(gaps) <= 0.03


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


def three_level_model(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return build_diffusion_model(a + dagger(a), 0.7 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))), 0.8)


class TestRobustStepperSolve:
    @pytest.mark.parametrize("phi", [0.0, 0.3, 1.1, "3-level"])
    def test_propagate_matches_lu_solve_bitwise(self, phi):
        # propagate calls LAPACK getrs directly; the oracle is the
        # scipy.linalg.lu_solve wrapper on the same factors and right-hand side
        rng = np.random.default_rng(29)
        if phi == "3-level":
            m, n = three_level_model(rng), 3
        else:
            m, n = two_level_model(1.0, 7.0 / np.sqrt(2.0), 0.5, phi, 0.6), 2
        stepper = RobustStepper(m, 0.01)
        for _ in range(1500):
            rho, dy = random_state(rng, n), float(rng.normal(0.0, 0.3))
            e = expm(stepper._l_scaled * dy - stepper._drift, stepper._tol)
            rhs = (e @ rho @ e.conj().T).reshape(-1, order="F")
            want = scipy.linalg.lu_solve(stepper._factors, rhs, check_finite=False)
            assert np.array_equal(stepper.propagate(rho, dy), want.reshape((n, n), order="F"))


class TestRobustStepperBatch:
    @pytest.mark.parametrize("phi, eta, dt", [(0.0, 0.85, 0.01), (0.3, 0.6, 0.01), (1.1, 0.9, 0.2)])
    def test_batch_matches_one_state_step_bitwise(self, phi, eta, dt):
        # phi = 0.3 makes every entry of the implicit system complex, where a
        # multi-column LAPACK solve would round differently from one column
        m = two_level_model(1.0, 7.0 / np.sqrt(2.0), 0.5, phi, eta)
        stepper = RobustStepper(m, dt)
        rng = np.random.default_rng(17)
        rhos = np.stack([random_state(rng) for _ in range(25)])
        dys = rng.normal(0.0, 3.0 * np.sqrt(dt), 25)
        dys[3] = 0.0
        new, dlog = stepper.advance_many(rhos, dys, 0.5)
        for b in range(25):
            one, one_dlog = _robust_advance(stepper, rhos[b], float(dys[b]), 0.5)
            assert np.array_equal(new[b], one)
            assert dlog[b] == one_dlog

    def test_three_level_batch_matches_one_state_step_bitwise(self):
        rng = np.random.default_rng(23)
        m = three_level_model(rng)
        stepper = RobustStepper(m, 0.01)
        rhos = np.stack([random_state(rng, 3) for _ in range(9)])
        dys = rng.normal(0.0, 0.1, 9)
        new, dlog = stepper.advance_many(rhos, dys, 0.01)
        for b in range(9):
            one, one_dlog = _robust_advance(stepper, rhos[b], float(dys[b]), 0.01)
            assert np.array_equal(new[b], one) and dlog[b] == one_dlog

    def test_collapsed_element_raises_with_time(self):
        stepper = RobustStepper(driven_atom_model(), 0.01)
        rhos = np.stack([RHO_PLUS, -np.eye(2, dtype=complex), RHO_PLUS])
        with pytest.raises(NonFiniteStateError, match="batch element 1") as err:
            stepper.advance_many(rhos, np.array([0.01, 0.02, -0.01]), 0.37)
        assert err.value.time == pytest.approx(0.37)

    def test_nonfinite_increment_rejected(self):
        stepper = RobustStepper(driven_atom_model(), 0.01)
        with pytest.raises(ValueError, match="finite"):
            stepper.advance_many(np.stack([RHO_PLUS, RHO_PLUS]), np.array([0.0, np.nan]), 0.01)


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

    def test_tracks_pathwise_oracle(self):
        m = driven_atom_model()
        rng = np.random.default_rng(40)
        fine = brownian_record(rng, m, 1e-3, 2000)  # T = 2
        oracle = pathwise_filter(m, fine, RHO_PLUS, substeps=4)
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

    def test_batch_matches_sequential(self):
        m = driven_atom_model()
        rng = np.random.default_rng(41)
        records = [brownian_record(rng, m, 0.01, 40) for _ in range(3)]
        batch = em_unnormalized_many(m, records, RHO_PLUS)
        for rec, path in zip(records, batch):
            single = em_unnormalized(m, rec, RHO_PLUS)
            # same recursion; BLAS kernel choice may differ in the last bits
            assert all(max_abs(a.rho - b.rho) <= 1e-13 for a, b in zip(single, path))
            assert all(abs(a.log_lambda - b.log_lambda) <= 1e-12 for a, b in zip(single, path))

    def test_sample_every_thins_output(self):
        m = driven_atom_model()
        rng = np.random.default_rng(42)
        rec = brownian_record(rng, m, 0.01, 40)
        full = em_unnormalized(m, rec, RHO_PLUS)
        thin = em_unnormalized(m, rec, RHO_PLUS, sample_every=10)
        assert len(thin) == 5
        assert all(np.array_equal(a.rho, b.rho) for a, b in zip(full[::10], thin))
        with pytest.raises(ValueError, match="sample_every"):
            em_unnormalized(m, rec, RHO_PLUS, sample_every=7)

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
        r_path = integrate_pathwise(m, rec, RHO_PLUS, substeps=substeps)
        outer = np.outer(phi, phi.conj())
        outer /= np.trace(outer).real
        r_final = r_path[-1].r / np.trace(r_path[-1].r).real
        assert max_abs(outer - r_final) <= 1e-8


class TestBlowupHandling:
    def test_em_collapse_carries_time(self):
        # a catastrophic increment drives the trace negative
        m = driven_atom_model()
        rec = MeasurementRecord(0.01, np.array([0.0, 0.0, -1e6, 0.0]))
        with pytest.raises(NonFiniteStateError) as err:
            em_unnormalized(m, rec, RHO_PLUS)
        assert err.value.time == pytest.approx(0.03)

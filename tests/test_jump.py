import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from smefilter.diffusion import NonFiniteStateError, _normalized_density
from smefilter.jump import (
    CountingRecord,
    InvalidCountingRecordError,
    JumpGauge,
    _exact_propagator,
    _euler_step_many,
    _exact_step_many,
    _jump_steps,
    count_probability,
    jump_pathwise_schrodinger_rhs,
    jump_pathwise_solve,
    jump_sme_step,
    jump_unnorm_step,
    read_counting_record,
    sample_counting_record,
    write_counting_record,
)
from smefilter.linalg import dagger, max_abs
from smefilter.model import SIGMA, SIGMA_X, SIGMA_Z, build_jump_model, purity
from smefilter.ode import rk4_step
from smefilter.traj import master_propagate, run_ensemble, run_trajectory

RHO_PLUS = np.full((2, 2), 0.5, dtype=complex)
GROUND = np.diag([0.0, 1.0]).astype(complex)
EXCITED = np.diag([1.0, 0.0]).astype(complex)


def unitary_jump_model(theta=0.4, lam=1.0, eta=0.7):
    """Invertible (unitary) jump operator, so the gauge power is benign."""
    c = np.cos(theta) * np.eye(2, dtype=complex) - 1j * np.sin(theta) * SIGMA_X
    return build_jump_model(c, 0.5 * SIGMA_Z, lam, eta)


def unnorm_path(model, record, rho_tilde0, refine=1):
    """Euler path of the linear equation, optionally on a refined grid with
    the count applied at the end of its original step."""
    rt = np.asarray(rho_tilde0, dtype=complex).copy()
    out = [rt.copy()]
    dt = record.dt / refine
    for dn in record.counts:
        for j in range(refine):
            rt = jump_unnorm_step(model, rt, int(dn) if j == refine - 1 else 0, dt)
        out.append(rt.copy())
    return out


class TestCountingRecord:
    def test_validation(self):
        with pytest.raises(ValueError, match="dt"):
            CountingRecord(0.0, np.array([0, 1]))
        with pytest.raises(ValueError, match="0 or 1"):
            CountingRecord(0.1, np.array([0, 2]))

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            CountingRecord(0.1, [0.5, 1.0, 0.9])
        assert np.array_equal(CountingRecord(0.1, [0.0, 1.0]).counts, [0, 1])

    def test_derived_series(self):
        rec = CountingRecord(0.5, np.array([0, 1, 0, 1]), t0=1.0)
        assert np.array_equal(rec.cumulative_counts(), [0, 0, 1, 1, 2])
        assert np.allclose(rec.jump_times, [2.0, 3.0])
        assert rec.total == 2

    def test_csv_roundtrip(self, tmp_path):
        rec = CountingRecord(0.25, np.array([1, 0, 0, 1, 0]))
        path = tmp_path / "counts.csv"
        write_counting_record(path, rec)
        back = read_counting_record(path)
        assert back.dt == rec.dt and back.t0 == rec.t0
        assert np.array_equal(back.counts, rec.counts)

    def test_csv_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,dy\n0.1,0.3\n")
        with pytest.raises(ValueError, match="t,dN"):
            read_counting_record(path)


class TestSampling:
    def test_zero_coupling_gives_empty_record(self):
        m = build_jump_model(np.zeros((2, 2)), 0.5 * SIGMA_Z, 1.0, 1.0)
        rec = sample_counting_record(m, RHO_PLUS, dt=0.01, T=2.0, seed=1)
        assert rec.total == 0

    def test_identity_jump_operator_is_poisson(self):
        # tr(C rho C^dag) = 1, so counts are Bernoulli(lam dt) per step;
        # the seed-averaged total must sit within 3 sigma of lam T
        lam, dt, T, n_seeds = 1.0, 0.01, 2.0, 1000
        m = build_jump_model(np.eye(2), 0.5 * SIGMA_Z, lam, 1.0)
        totals = [sample_counting_record(m, RHO_PLUS, dt, T, seed).total for seed in range(n_seeds)]
        n = int(round(T / dt))
        p = lam * dt
        mean_expected = n * p
        sigma = np.sqrt(n * p * (1 - p) / n_seeds)
        assert abs(np.mean(totals) - mean_expected) <= 3.0 * sigma

    def test_increments_are_binary(self):
        m = unitary_jump_model()
        rec = sample_counting_record(m, RHO_PLUS, dt=0.01, T=3.0, seed=7)
        assert set(np.unique(rec.counts)).issubset({0, 1})
        assert np.all(np.diff(rec.cumulative_counts()) >= 0)

    def test_deterministic_given_seed(self):
        m = unitary_jump_model()
        a = sample_counting_record(m, RHO_PLUS, dt=0.01, T=2.0, seed=3)
        b = sample_counting_record(m, RHO_PLUS, dt=0.01, T=2.0, seed=3)
        assert np.array_equal(a.counts, b.counts)

    def test_rate_guard(self):
        m = build_jump_model(np.eye(2), np.zeros((2, 2)), 30.0, 1.0)
        with pytest.raises(ValueError, match="smaller dt"):
            sample_counting_record(m, RHO_PLUS, dt=0.01, T=1.0, seed=0)
        with pytest.raises(ValueError, match="smaller dt"):
            count_probability(m, RHO_PLUS, 0.01)

    def test_sampler_matches_reference_loop_bitwise(self):
        # the online em run draws its count from tr(C rho C^dag); this loop
        # takes count_probability, which rounds the probability as the
        # pathwise run does, an ulp or so from the em run's own, which no
        # uniform of this seed falls between
        m = unitary_jump_model(theta=0.9, lam=2.0)
        dt, n, seed = 0.01, 400, 21
        uniforms = np.random.default_rng(seed).random(n)
        rho = _normalized_density(RHO_PLUS)
        counts, rhos, logs, log_lam = [], [rho], [0.0], 0.0
        for k in range(n):
            dn = 1 if uniforms[k] < count_probability(m, rho, dt, k * dt) else 0
            step, dlog = _euler_step_many(m, rho[None], np.array([dn]), dt, (k + 1) * dt)
            rho = step[0]
            log_lam += float(dlog[0])
            counts.append(dn)
            rhos.append(rho)
            logs.append(log_lam)
        assert sum(counts) > 0
        res = run_trajectory(m, "em", dt, n * dt, RHO_PLUS, seed)
        assert np.array_equal(res.record.counts, counts)
        assert all(np.array_equal(st.rho, r) for st, r in zip(res.states, rhos))
        assert [st.log_lambda for st in res.states] == logs

    def test_exact_sampler_matches_reference_loop_bitwise(self):
        # the count of each step is drawn from the exact state of the record
        # so far, and that state then takes one exact step; no Euler state.
        # C = sigma makes the count probability depend on the state; with
        # this seed a count drawn from the Euler state lands elsewhere.
        m = build_jump_model(SIGMA, 1.5 * SIGMA_X, 2.0, 0.8)
        dt, n, seed = 0.02, 400, 7
        uniforms = np.random.default_rng(seed).random(n)
        jump_map, phi = _exact_propagator(m, dt)
        rho = _normalized_density(RHO_PLUS)
        counts, rhos, logs, log_lam = [], [rho], [0.0], 0.0
        for k in range(n):
            dn = uniforms[k] < count_probability(m, rho, dt, k * dt)
            step, dlog = _exact_step_many(jump_map, phi, rho[None], np.array([dn]), (k + 1) * dt)
            rho = step[0]
            log_lam += float(dlog[0])
            counts.append(int(dn))
            rhos.append(rho)
            logs.append(log_lam)
        assert sum(counts) > 0
        # the flow does not depend on the start time
        record = sample_counting_record(m, RHO_PLUS, dt, n * dt, seed, t0=0.37)
        assert np.array_equal(record.counts, counts) and record.t0 == 0.37
        res = run_trajectory(m, "pathwise", dt, n * dt, RHO_PLUS, seed)
        assert np.array_equal(res.record.counts, counts)
        assert all(np.array_equal(st.rho, r) for st, r in zip(res.states, rhos))
        assert [st.log_lambda for st in res.states] == logs

    def test_exact_sampler_mean_count_matches_master_equation(self):
        # the mean count of step k is eta lam tr(C rho_mean C^dag) dt, with
        # rho_mean the unconditional state: the master equation with H = E
        # and L = sqrt(lam) C.  C = sigma makes the intensity follow the
        # driven excited population.
        lam, eta, dt, T, n_seeds = 2.0, 0.8, 0.01, 2.0, 400
        m = build_jump_model(SIGMA, 1.5 * SIGMA_X, lam, eta)
        totals = np.array([sample_counting_record(m, RHO_PLUS, dt, T, seed).total for seed in range(n_seeds)])
        n = int(round(T / dt))
        rho_mean = master_propagate(m.E, np.sqrt(lam) * m.C, RHO_PLUS, dt / 10.0, 10 * n)
        intensity = [np.trace(m.C @ rho_mean[10 * k] @ dagger(m.C)).real for k in range(n)]
        expected = eta * lam * dt * sum(intensity)
        sigma = totals.std(ddof=1) / np.sqrt(n_seeds)
        assert max(intensity) > 1.5 * min(intensity)
        assert abs(totals.mean() - expected) <= 3.0 * sigma


class TestBatchedSteps:
    def test_sampler_count_on_annihilated_state_names_element(self):
        # a uniform of -1 forces a count; C = sigma kills the ground state
        m = build_jump_model(SIGMA, np.zeros((2, 2)), 1.0, 1.0)
        rho = np.stack([RHO_PLUS, GROUND, RHO_PLUS])
        with pytest.raises(InvalidCountingRecordError, match="at t = 0.31 .* for batch element 1:"):
            _jump_steps(m, "em", 0.01, RHO_PLUS).sample(rho, np.array([2.0, -1.0, 2.0]), 0.3)

    def test_exact_count_on_annihilated_state_names_element(self):
        m = build_jump_model(SIGMA, np.zeros((2, 2)), 1.0, 1.0)
        jump_map, phi = _exact_propagator(m, 0.01)
        rho = np.stack([RHO_PLUS, RHO_PLUS, GROUND])
        with pytest.raises(InvalidCountingRecordError, match="t = 0.03 .* batch element 2"):
            _exact_step_many(jump_map, phi, rho, np.array([True, False, True]), 0.03)

    def test_exact_collapse_without_count_names_element(self):
        m = build_jump_model(SIGMA, np.zeros((2, 2)), 1.0, 1.0)
        jump_map, phi = _exact_propagator(m, 0.01)
        rho = np.stack([RHO_PLUS, np.zeros((2, 2), dtype=complex)])
        with pytest.raises(NonFiniteStateError, match="batch element 1 collapsed") as err:
            _exact_step_many(jump_map, phi, rho, np.array([False, False]), 0.02)
        assert err.value.time == pytest.approx(0.02)


class TestSmeStep:
    def test_small_intensity_is_liouville(self):
        e_op = 0.5 * SIGMA_Z
        m = build_jump_model(np.eye(2), e_op, 1e-12, 1.0)
        dt = 1e-3
        got = jump_sme_step(m, RHO_PLUS, 0, dt)
        expected = RHO_PLUS + dt * (-1j) * (e_op @ RHO_PLUS - RHO_PLUS @ e_op)
        expected /= np.trace(expected).real
        assert max_abs(got - expected) <= 1e-9

    def test_count_flips_ground_to_excited(self):
        m = build_jump_model(SIGMA_X, np.zeros((2, 2)), 1.0, 1.0)
        out = jump_sme_step(m, GROUND, 1, 1e-9)
        assert max_abs(out - EXCITED) <= 1e-6

    def test_count_on_annihilated_state_rejected(self):
        # lowering operator kills the ground state
        m = build_jump_model(SIGMA, np.zeros((2, 2)), 1.0, 1.0)
        with pytest.raises(InvalidCountingRecordError):
            jump_sme_step(m, GROUND, 1, 1e-9)

    def test_input_validation(self):
        m = unitary_jump_model()
        with pytest.raises(ValueError, match="dn"):
            jump_sme_step(m, RHO_PLUS, 2, 0.01)
        with pytest.raises(ValueError, match="dt"):
            jump_sme_step(m, RHO_PLUS, 0, 0.0)


class TestUnnormStep:
    def test_small_intensity_unitary_flow(self):
        e_op = 0.5 * SIGMA_Z
        m = build_jump_model(np.eye(2), e_op, 1e-12, 1.0)
        dt = 1e-3
        got = jump_unnorm_step(m, RHO_PLUS, 0, dt)
        expected = RHO_PLUS + dt * (-1j) * (e_op @ RHO_PLUS - RHO_PLUS @ e_op)
        assert max_abs(got - expected) <= 1e-9

    def test_count_applies_jump_map(self):
        m = build_jump_model(SIGMA, np.zeros((2, 2)), 1.0, 1.0)
        out = jump_unnorm_step(m, np.eye(2, dtype=complex), 1, 1e-12)
        # C I C^dag = sigma sigma^dag projects onto the ground state
        assert max_abs(out - GROUND) <= 1e-9

    def test_normalized_path_matches_sme_path(self):
        m = unitary_jump_model()
        rec = sample_counting_record(m, RHO_PLUS, dt=0.01, T=3.0, seed=11)
        fine = unnorm_path(m, rec, RHO_PLUS, refine=100)
        rho = RHO_PLUS.copy()
        worst = 0.0
        for k, dn in enumerate(rec.counts):
            rho = jump_sme_step(m, rho, int(dn), rec.dt)
            ref = fine[k + 1] / np.trace(fine[k + 1]).real
            worst = max(worst, max_abs(rho - ref))
        assert worst <= 0.05


class TestJumpGauge:
    def test_requires_invertible(self):
        m = build_jump_model(SIGMA, np.zeros((2, 2)), 1.0, 1.0)
        with pytest.raises(ValueError, match="not invertible"):
            JumpGauge.identity(m)

    def test_count_multiplies_by_inverse(self):
        m = unitary_jump_model()
        g = JumpGauge.identity(m)
        a_before = g.a.copy()
        g.advance()
        assert np.array_equal(g.a, a_before @ m.C_inv)
        assert g.count == 1
        g.advance()
        assert max_abs(g.a @ g.a_inv - np.eye(2)) <= 1e-10


class TestPathwiseSolve:
    def test_empty_record_reduces_to_drift_ode(self):
        m = unitary_jump_model()
        rec = CountingRecord(0.01, np.zeros(300, dtype=int))
        _, recovered = jump_pathwise_solve(m, rec, RHO_PLUS, substeps=4)
        fine = unnorm_path(m, rec, RHO_PLUS, refine=50)
        gap = max(
            max_abs(st.rho - ft / np.trace(ft).real) for st, ft in zip(recovered, fine)
        )
        assert gap <= 1e-3

    def test_matches_fine_unnormalized_path(self):
        m = unitary_jump_model()
        rec = sample_counting_record(m, RHO_PLUS, dt=0.01, T=3.0, seed=5)
        assert rec.total > 0
        _, recovered = jump_pathwise_solve(m, rec, RHO_PLUS, substeps=8)
        fine = unnorm_path(m, rec, RHO_PLUS, refine=100)
        gap = max(
            max_abs(st.rho - ft / np.trace(ft).real) for st, ft in zip(recovered, fine)
        )
        assert gap <= 1e-3

    def test_r_is_continuous_but_recovered_state_jumps(self):
        m = unitary_jump_model(theta=0.9)
        rec = sample_counting_record(m, RHO_PLUS, dt=0.01, T=3.0, seed=5)
        jump_steps = np.flatnonzero(rec.counts)
        assert jump_steps.size > 0
        r_path, recovered = jump_pathwise_solve(m, rec, RHO_PLUS, substeps=4)
        k = int(jump_steps[0])
        r_step = max_abs(r_path[k + 1].r - r_path[k].r)
        rho_step = max_abs(recovered[k + 1].rho - recovered[k].rho)
        assert rho_step > 5 * r_step / max(1.0, max_abs(r_path[k].r))

    def test_recovered_jump_matches_jump_map(self):
        # at a count, the normalized recovered state transforms as
        # J rho / tr(J rho) of the drift-evolved preceding state
        m = unitary_jump_model(theta=0.7)
        dt = 1e-4
        rec = CountingRecord(dt, np.array([0, 0, 1, 0], dtype=int))
        _, recovered = jump_pathwise_solve(m, rec, RHO_PLUS, substeps=4)
        before = recovered[2].rho
        jumped = m.C @ before @ dagger(m.C)
        jumped /= np.trace(jumped).real
        assert max_abs(recovered[3].rho - jumped) <= 1e-3

    def test_perfect_detection_preserves_purity(self):
        m = unitary_jump_model(eta=1.0)
        rec = sample_counting_record(m, RHO_PLUS, dt=0.01, T=3.0, seed=9)
        _, recovered = jump_pathwise_solve(m, rec, RHO_PLUS, substeps=8)
        for st in recovered:
            assert purity(st.rho) >= 1.0 - 1e-6

    def test_singular_jump_operator_solved(self):
        # C = sigma (plain photodetection) has no inverse, hence no gauge
        # frame, but the recovered states need none
        m = build_jump_model(SIGMA, 0.5 * SIGMA_X, 1.0, 1.0)
        res = run_trajectory(m, "pathwise", 0.01, 5.0, RHO_PLUS, seed=3)
        assert res.record.total > 0
        for st in res.states:
            st.validate(trace_tol=1e-12, herm_tol=1e-12, eig_floor=-1e-12)
        r_path, recovered = jump_pathwise_solve(m, res.record, RHO_PLUS)
        assert r_path is None
        assert all(np.array_equal(a.rho, b.rho) for a, b in zip(recovered, res.states))

    def test_count_on_annihilated_state_rejected(self):
        # with no drive the ground state stays put, and C = sigma kills it
        m = build_jump_model(SIGMA, np.zeros((2, 2)), 1.0, 1.0)
        rec = CountingRecord(0.01, np.array([0, 0, 1, 0]))
        with pytest.raises(InvalidCountingRecordError, match="t = 0.03 .* for step 3:"):
            jump_pathwise_solve(m, rec, GROUND)

    @pytest.mark.parametrize("name", ["unitary", "sigma", "three_level"])
    def test_online_record_replays_bitwise(self, name):
        # the online pathwise run and the offline solve take the same exact
        # step, so replaying the sampled record gives the run's states
        if name == "three_level":
            rng = np.random.default_rng(4)
            c = 0.6 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            e = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = build_jump_model(c, 0.5 * (e + dagger(e)), 1.0, 0.8)
            rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        else:
            m = unitary_jump_model(theta=0.9) if name == "unitary" else build_jump_model(SIGMA, 0.5 * SIGMA_X, 1.0, 1.0)
            rho0 = RHO_PLUS
        res = run_trajectory(m, "pathwise", 0.01, 3.0, rho0, seed=17)
        assert res.record.total > 0
        _, replay = jump_pathwise_solve(m, res.record, rho0)
        assert len(replay) == len(res.states)
        for got, want in zip(replay, res.states):
            assert np.array_equal(got.rho, want.rho)
            assert got.log_lambda == want.log_lambda and got.t == want.t
        ens = run_ensemble(m, "pathwise", 0.01, 3.0, rho0, 3, base_seed=17)
        assert np.array_equal(ens.final_states[0].rho, res.states[-1].rho)
        assert ens.final_states[0].log_lambda == res.states[-1].log_lambda


class TestJumpPathwiseSchrodinger:
    def test_requires_perfect_detection(self):
        m = unitary_jump_model(eta=0.7)
        with pytest.raises(ValueError, match="eta = 1"):
            jump_pathwise_schrodinger_rhs(m, np.eye(2), np.eye(2), np.array([1.0, 0.0]))

    def test_identity_jump_operator_reduces_to_schrodinger(self):
        e_op = 0.5 * SIGMA_Z
        m = build_jump_model(np.eye(2), e_op, 1.0, 1.0)
        phi = np.array([0.6, 0.8], dtype=complex)
        got = jump_pathwise_schrodinger_rhs(m, np.eye(2), np.eye(2), phi)
        assert max_abs(got - (-1j) * (e_op @ phi)) <= 1e-14

    def test_rank_one_consistency(self):
        m = unitary_jump_model(eta=1.0)
        rec = sample_counting_record(m, RHO_PLUS, dt=0.01, T=2.0, seed=13)
        _, recovered = jump_pathwise_solve(m, rec, RHO_PLUS, substeps=4)
        gauge = JumpGauge.identity(m)
        phi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        substeps = 4
        h = rec.dt / substeps
        for k, dn in enumerate(rec.counts):
            a, a_inv = gauge.a, gauge.a_inv

            def deriv(_t, v):
                return jump_pathwise_schrodinger_rhs(m, a, a_inv, v)

            for _ in range(substeps):
                phi = rk4_step(deriv, 0.0, phi, h)
            if dn:
                gauge.advance()
        back = gauge.a_inv @ phi
        outer = np.outer(back, back.conj())
        outer /= np.trace(outer).real
        assert max_abs(outer - recovered[-1].rho) <= 1e-6


_UNIT = hst.floats(-1.0, 1.0, allow_nan=False)


def _complex_matrix(draw, rows, cols):
    return np.array([[complex(draw(_UNIT), draw(_UNIT)) for _ in range(cols)] for _ in range(rows)])


def _scaled(draw, m):
    """``m`` rescaled to a drawn Frobenius norm between 0.5 and 2."""
    norm = np.linalg.norm(m)
    assume(norm > 0.1)
    return m * (draw(hst.floats(0.5, 2.0)) / norm)


@hst.composite
def jump_models(draw):
    """2x2 models whose ``C`` and ``E`` have Frobenius norms between 0.5 and
    2, so that the count probability stays below 0.1 at ``dt = 0.01`` and
    the drive moves states out of the kernel of a rank-one ``C``; half of
    the models have one."""
    if draw(hst.booleans()):
        c = _complex_matrix(draw, 2, 1) @ _complex_matrix(draw, 1, 2)
    else:
        c = _complex_matrix(draw, 2, 2)
    e = _complex_matrix(draw, 2, 2)
    lam = draw(hst.floats(0.5, 2.0))
    eta = draw(hst.floats(0.2, 1.0))
    return build_jump_model(_scaled(draw, c), _scaled(draw, e + dagger(e)), lam, eta)


def exact_flow_oracle(model, record, rho0):
    """Normalized states and log traces of the linear counting equation:
    ``scipy.linalg.expm`` of its generator between counts, ``conj(C) (x) C``
    at counts."""
    n = model.dim
    eye = np.eye(n)
    jump_map = np.kron(model.C.conj(), model.C)
    generator = (
        -np.kron(eye, model.G)
        - np.kron(model.G.conj(), eye)
        + (1.0 - model.eta) * model.lam * jump_map
        + model.eta * model.lam * np.eye(n * n)
    )
    phi = scipy.linalg.expm(record.dt * generator)
    v = np.asarray(rho0, dtype=complex).reshape(-1, order="F")
    out, log_lam = [(v.reshape((n, n), order="F"), 0.0)], 0.0
    for dn in record.counts:
        v = phi @ v
        if dn:
            v = jump_map @ v
        tr = np.trace(v.reshape((n, n), order="F")).real
        v = v / tr
        log_lam += np.log(tr)
        out.append((v.reshape((n, n), order="F"), log_lam))
    return out


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(model=jump_models(), seed=hst.integers(0, 2**32 - 1))
def test_exact_propagator_matches_oracle_and_keeps_states_valid(model, seed):
    record = sample_counting_record(model, RHO_PLUS, 0.01, 4.0, seed)
    r_path, recovered = jump_pathwise_solve(model, record, RHO_PLUS)
    assert (r_path is None) == (model.C_inv is None)
    oracle = exact_flow_oracle(model, record, RHO_PLUS)
    for state, (rho, log_lam) in zip(recovered, oracle):
        assert max_abs(state.rho - rho) <= 1e-10
        assert abs(state.log_lambda - log_lam) <= 1e-10
        state.validate(trace_tol=1e-12, herm_tol=1e-12, eig_floor=-1e-12)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    model=jump_models(),
    scheme=hst.sampled_from(("em", "pathwise")),
    n_traj=hst.integers(1, 40),
    base_seed=hst.integers(0, 2**32 - 1),
)
def test_batched_ensemble_matches_single_runs_bitwise(model, scheme, n_traj, base_seed):
    # 300 steps span more than one block of uniform draws
    dt, T = 0.01, 3.0
    ens = run_ensemble(model, scheme, dt, T, RHO_PLUS, n_traj, base_seed)
    total = None
    for i in range(n_traj):
        single = run_trajectory(model, scheme, dt, T, RHO_PLUS, base_seed + i)
        assert np.array_equal(ens.final_states[i].rho, single.states[-1].rho)
        assert ens.final_states[i].log_lambda == single.states[-1].log_lambda
        assert ens.final_states[i].t == single.states[-1].t
        path = np.stack([s.rho for s in single.states])
        total = path.copy() if total is None else total + path
    assert np.array_equal(np.stack(ens.mean_rho_path), np.stack([t / n_traj for t in total]))

import re
from types import SimpleNamespace

import numpy as np
import pytest

import smefilter.traj
from smefilter.diffusion import (
    MeasurementRecord,
    NonFiniteStateError,
    PathwiseIntegrator,
    RobustStepper,
    _MAP_BLOCK,
    _STEP_BLOCK,
    _diffusion_steps,
    _em_maps,
    _em_step_many,
    em_normalized,
    em_unnormalized,
    pathwise_filter,
    robust_filter,
)
from smefilter.jump import (
    CountingRecord,
    InvalidCountingRecordError,
    _euler_maps,
    _euler_step_many,
    _exact_propagator,
    _exact_step_many,
    jump_pathwise_solve,
    jump_sme_step,
    jump_unnorm_step,
    sample_counting_record,
)
from smefilter.linalg import HermitianBasis, dagger, hermitian_basis, max_abs
from smefilter.model import (
    SIGMA,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    bloch_from_rho,
    build_diffusion_model,
    build_jump_model,
    two_level_model,
)
from smefilter.ode import rk4_step
from smefilter.traj import (
    ConvergenceRow,
    _bloch_fast,
    _trajectory_in,
    convergence_report,
    lipschitz_report,
    master_propagate,
    master_rhs,
    run_ensemble,
    run_trajectory,
    steady_state_stats,
)

RHO_PLUS = np.full((2, 2), 0.5, dtype=complex)
# The steppers carry coordinates in the Hermitian basis (see linalg.HermitianBasis).
PAULI = hermitian_basis(2)


def driven_atom_model(phi=0.0, eta=0.85):
    return two_level_model(1.0, 7.0 / np.sqrt(2.0), 0.0, phi, eta)


def criterion9_jump_model():
    c = np.cos(0.4) * np.eye(2, dtype=complex) - 1j * np.sin(0.4) * SIGMA_X
    return build_jump_model(c, 0.5 * SIGMA_Z, 1.0, 0.7)


def check_replays_failure(model, dt, base_seed, n_traj, error):
    """The failure a batched em ensemble reports names a trajectory, its seed,
    the step and the time; the run with that seed must fail with the same
    error in that step and not before, and no trajectory may fail earlier.
    Returns the trajectory, the step and the replayed run's error."""
    found = re.search(r"trajectory (\d+) \(seed (\d+)\) in step (\d+)", str(error.value))
    assert found, str(error.value)
    b, seed, step = (int(g) for g in found.groups())
    assert seed == base_seed + b and b < n_traj
    assert "t = " in str(error.value)
    with pytest.raises(error.type) as replay:
        run_trajectory(model, "em", dt, step * dt, RHO_PLUS, seed)
    assert re.search(rf"\bstep {step}\b", str(replay.value)), str(replay.value)
    if step > 1:
        for i in range(n_traj):
            run_trajectory(model, "em", dt, (step - 1) * dt, RHO_PLUS, base_seed + i)
    return b, step, replay


class TestMasterEquation:
    def test_commuting_hamiltonian_is_stationary(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        assert max_abs(master_rhs(SIGMA_Z, np.zeros((2, 2)), rho)) == 0.0

    def test_trace_preserving(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            H = a + dagger(a)
            L = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            r = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = r @ dagger(r)
            rho /= np.trace(rho).real
            assert abs(np.trace(master_rhs(H, L, rho))) <= 1e-12

    def test_amplitude_damping_decay(self):
        # excited population decays exponentially toward the ground state:
        # z(t) = -1 + (z0 + 1) exp(-gamma t)
        gamma = 1.3
        L = np.sqrt(gamma) * SIGMA
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        dt, n = 0.001, 2000
        path = master_propagate(np.zeros((2, 2)), L, rho0, dt, n)
        for k in (500, 1000, 2000):
            z = float((path[k][0, 0] - path[k][1, 1]).real)
            expected = -1.0 + 2.0 * np.exp(-gamma * k * dt)
            assert z == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_propagate_is_staged_rk4(self, n):
        # one matrix per step against the staged oracle, on Hermitian and
        # non-Hermitian start matrices
        rng = np.random.default_rng(53 + n)
        for hermitian in (True, False):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            H = a + dagger(a)
            L = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            r = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rho0 = r @ dagger(r) / np.trace(r @ dagger(r)).real if hermitian else r
            dt, steps = 0.002, 400
            path = master_propagate(H, L, rho0, dt, steps)
            assert len(path) == steps + 1 and np.array_equal(path[0], rho0)
            state = np.asarray(rho0, dtype=complex)
            for k in range(steps):
                state = rk4_step(lambda _t, rho: master_rhs(H, L, rho), k * dt, state, dt)
                assert path[k + 1].shape == (n, n)
                assert max_abs(path[k + 1] - state) <= 1e-12

    def test_propagate_zero_steps_is_the_start(self):
        rho0 = np.array([[0.3, 0.1 - 0.2j], [0.4j, 0.7]])
        path = master_propagate(SIGMA_Z, SIGMA, rho0, 0.01, 0)
        assert len(path) == 1 and np.array_equal(path[0], rho0) and path[0] is not rho0


class TestRunTrajectory:
    def test_rerun_is_identical(self):
        m = driven_atom_model()
        a = run_trajectory(m, "robust", 0.01, 1.0, RHO_PLUS, seed=5)
        b = run_trajectory(m, "robust", 0.01, 1.0, RHO_PLUS, seed=5)
        assert np.array_equal(a.record.increments, b.record.increments)
        assert all(np.array_equal(x.rho, y.rho) for x, y in zip(a.states, b.states))

    def test_no_coupling_precesses_at_constant_radius(self):
        m = build_diffusion_model(0.5 * SIGMA_X, np.zeros((2, 2)), 1.0)
        res = run_trajectory(m, "robust", 0.01, 2.0, RHO_PLUS, seed=1)
        for b in res.bloch:
            assert b.norm() == pytest.approx(1.0, abs=1e-9)

    def test_offline_robust_replay_bitwise(self):
        m = driven_atom_model()
        res = run_trajectory(m, "robust", 0.01, 2.0, RHO_PLUS, seed=8)
        replay = robust_filter(m, res.record, RHO_PLUS)
        assert all(np.array_equal(a.rho, b.rho) for a, b in zip(res.states, replay))
        assert all(a.log_lambda == b.log_lambda for a, b in zip(res.states, replay))

    def test_offline_em_replay_bitwise(self):
        # the em step takes the record increment, as the robust and pathwise
        # steps do, so a replay of the record is the online run; the run
        # spans more than one block of the replay
        m = driven_atom_model()
        res = run_trajectory(m, "em", 0.01, (_MAP_BLOCK + 44) * 0.01, RHO_PLUS, seed=8)
        replay = _diffusion_steps(m, "em", 0.01, RHO_PLUS).replay(res.record)
        assert len(replay) == len(res.states)
        assert all(np.array_equal(a.rho, b.rho) for a, b in zip(res.states, replay))
        assert all(a.log_lambda == b.log_lambda and a.t == b.t for a, b in zip(res.states, replay))

    def test_offline_pathwise_replay_bitwise(self):
        # the replay builds its step maps a block at a time; the online run
        # builds one per step
        m = driven_atom_model()
        n_steps = max(50, 2 * _MAP_BLOCK + 3)
        res = run_trajectory(m, "pathwise", 0.01, n_steps * 0.01, RHO_PLUS, seed=8)
        replay = pathwise_filter(m, res.record, RHO_PLUS)
        assert len(replay) == len(res.states)
        assert all(np.array_equal(a.rho, b.rho) for a, b in zip(res.states, replay))
        assert all(a.log_lambda == b.log_lambda for a, b in zip(res.states, replay))

    def test_em_and_robust_converge_together(self):
        # both schemes filter the same sampled record (shared by coarsening a
        # fine one); the sup gap decays like the record's step oscillation,
        # ~1/sqrt(2) per halving, so a 4x refinement at least halves it
        from smefilter.diffusion import em_unnormalized

        m = driven_atom_model()
        rng = np.random.default_rng(52)
        fine = MeasurementRecord(5e-4, rng.normal(0.0, m.kappa * np.sqrt(5e-4), 10240))
        gaps = []
        for factor in (16, 8, 4):
            rec = fine.coarsen(factor)
            rob = robust_filter(m, rec, RHO_PLUS)
            em = em_unnormalized(m, rec, RHO_PLUS)
            gaps.append(max(max_abs(a.rho - b.rho) for a, b in zip(rob, em)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] <= 0.7 * gaps[0]

    def test_jump_em_scheme_runs(self):
        theta = 0.4
        c = np.cos(theta) * np.eye(2, dtype=complex) - 1j * np.sin(theta) * SIGMA_X
        m = build_jump_model(c, 0.5 * SIGMA_Z, 1.0, 0.7)
        res = run_trajectory(m, "em", 0.01, 2.0, RHO_PLUS, seed=4)
        assert isinstance(res.record, CountingRecord)
        res.states[-1].validate()

    def test_jump_pathwise_scheme_runs(self):
        theta = 0.4
        c = np.cos(theta) * np.eye(2, dtype=complex) - 1j * np.sin(theta) * SIGMA_X
        m = build_jump_model(c, 0.5 * SIGMA_Z, 1.0, 0.7)
        res = run_trajectory(m, "pathwise", 0.01, 2.0, RHO_PLUS, seed=4)
        res.states[-1].validate()

    def test_jump_robust_rejected(self):
        m = build_jump_model(np.eye(2), np.zeros((2, 2)), 1.0, 1.0)
        with pytest.raises(ValueError, match="diffusion"):
            run_trajectory(m, "robust", 0.01, 1.0, RHO_PLUS, seed=0)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            run_trajectory(driven_atom_model(), "midpoint", 0.01, 1.0, RHO_PLUS, seed=0)

    def test_time_span_validated(self):
        with pytest.raises(ValueError, match="at least dt"):
            run_trajectory(driven_atom_model(), "robust", 0.1, 0.05, RHO_PLUS, seed=0)

    def test_bloch_fast_matches_validating_converter(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = a @ dagger(a)
            rho /= np.trace(rho).real
            fast = _bloch_fast(rho)
            slow = bloch_from_rho(rho)
            assert (fast.x, fast.y, fast.z) == pytest.approx((slow.x, slow.y, slow.z), abs=1e-12)


class TestRunEnsemble:
    @pytest.mark.parametrize("n_traj", [2.5, 2.0, True, np.True_, "2", None])
    def test_n_traj_must_be_an_integer(self, n_traj):
        # checked before any work: the NaN T is never read
        with pytest.raises(ValueError, match=r"^n_traj must be an integer, got "):
            run_ensemble(driven_atom_model(), "robust", 0.01, float("nan"), RHO_PLUS, n_traj, 1)

    @pytest.mark.parametrize("n_traj", [0, -2, np.int64(0)])
    def test_n_traj_must_be_positive(self, n_traj):
        with pytest.raises(ValueError, match=r"^n_traj must be >= 1, got "):
            run_ensemble(driven_atom_model(), "robust", 0.01, float("nan"), RHO_PLUS, n_traj, 1)

    @pytest.mark.parametrize("n_traj", [np.int64(3), np.int32(3), np.uint8(3)])
    def test_numpy_integer_n_traj(self, n_traj):
        m = driven_atom_model()
        got = run_ensemble(m, "robust", 0.01, 0.05, RHO_PLUS, n_traj, 1)
        want = run_ensemble(m, "robust", 0.01, 0.05, RHO_PLUS, 3, 1)
        assert type(got.n_traj) is int and got.n_traj == 3
        assert np.array_equal(got.mean_rho_path, want.mean_rho_path)
        assert got.final_states == want.final_states

    def test_robust_batch_matches_sequential_runs_bitwise(self):
        # a generic phase, more steps than one block of innovation draws, and
        # more trajectories than numpy sums pairwise
        m = two_level_model(1.0, 7.0 / np.sqrt(2.0), 0.5, 0.3, 0.7)
        dt, T, base, n_traj = 0.01, 3.0, 40, 12
        ens = run_ensemble(m, "robust", dt, T, RHO_PLUS, n_traj, base_seed=base)
        singles = [run_trajectory(m, "robust", dt, T, RHO_PLUS, seed=base + i) for i in range(n_traj)]
        for i, single in enumerate(singles):
            assert np.array_equal(ens.final_states[i].rho, single.states[-1].rho)
            assert ens.final_states[i].log_lambda == single.states[-1].log_lambda
            assert ens.final_states[i].t == single.states[-1].t
            assert ens.final_bloch[i] == single.bloch[-1]
        assert np.array_equal(ens.times, singles[0].times)
        total = np.stack([s.rho for s in singles[0].states])
        for single in singles[1:]:
            total += np.stack([s.rho for s in single.states])
        assert np.array_equal(np.stack(ens.mean_rho_path), np.stack([t / n_traj for t in total]))

    @pytest.mark.parametrize(
        "model, scheme, T",
        [
            *[(driven_atom_model(), s, 1.0) for s in ("robust", "em", "pathwise")],
            *[(criterion9_jump_model(), s, 3.0) for s in ("em", "pathwise")],
        ],
    )
    def test_single_trajectory_matches(self, model, scheme, T):
        # a 1-trajectory ensemble is its run: every state of the mean path
        # and the final state, log_lambda, time and Bloch vector, bitwise
        ens = run_ensemble(model, scheme, 0.01, T, RHO_PLUS, 1, base_seed=12)
        single = run_trajectory(model, scheme, 0.01, T, RHO_PLUS, seed=12)
        if isinstance(single.record, CountingRecord):
            assert single.record.total > 0
        assert np.array_equal(np.stack(ens.mean_rho_path), np.stack([s.rho for s in single.states]))
        assert np.array_equal(ens.final_states[0].rho, single.states[-1].rho)
        assert ens.final_states[0].log_lambda == single.states[-1].log_lambda
        assert ens.final_states[0].t == single.states[-1].t
        assert ens.final_bloch[0] == single.bloch[-1]
        assert np.array_equal(ens.times, single.times)

    def test_conversion_takes_at_most_4096_states_a_call(self, monkeypatch):
        # a counting pathwise run hands over 256 steps a call: 20
        # trajectories convert them in slices of 204 and 52 steps, and the
        # mean path is still the sum of the single runs in trajectory order
        sizes, convert = [], HermitianBasis.matrices

        def spy(self, s):
            sizes.append(np.asarray(s)[..., 0].size)
            return convert(self, s)

        monkeypatch.setattr(HermitianBasis, "matrices", spy)
        m, n_traj, T = criterion9_jump_model(), 20, 2.6
        ens = run_ensemble(m, "pathwise", 0.01, T, RHO_PLUS, n_traj, base_seed=5)
        assert max(sizes) == (4096 // n_traj) * n_traj
        total = sum(run_trajectory(m, "pathwise", 0.01, T, RHO_PLUS, 5 + i).states.rho for i in range(n_traj))
        assert np.array_equal(np.stack(ens.mean_rho_path), np.stack([t / n_traj for t in total]))

    def test_singular_jump_operator_pathwise_states_valid(self):
        m = build_jump_model(SIGMA, 0.5 * SIGMA_X, 1.0, 1.0)
        ens = run_ensemble(m, "pathwise", 0.01, 5.0, RHO_PLUS, 24, base_seed=3)
        for st in ens.final_states:
            st.validate(trace_tol=1e-12, herm_tol=1e-12, eig_floor=-1e-12)

    def test_jump_scheme_validated(self):
        m = criterion9_jump_model()
        with pytest.raises(ValueError, match="diffusion"):
            run_ensemble(m, "robust", 0.01, 1.0, RHO_PLUS, 2, base_seed=0)
        with pytest.raises(ValueError, match="scheme"):
            run_ensemble(m, "midpoint", 0.01, 1.0, RHO_PLUS, 2, base_seed=0)

    def test_count_probability_failure_names_trajectory(self):
        # a strong drive makes explicit Euler overshoot; the first trajectory
        # to fail is not trajectory 0
        m = build_jump_model(SIGMA, 10.0 * SIGMA_X, 1.0, 1.0)
        with pytest.raises(ValueError, match="count probability .* use a smaller dt") as err:
            run_ensemble(m, "em", 0.05, 2.0, RHO_PLUS, 8, base_seed=5)
        b, step, _ = check_replays_failure(m, 0.05, 5, 8, err)
        assert b > 0
        assert f"at t = {(step - 1) * 0.05:.6g};" in str(err.value)

    @pytest.mark.parametrize("scheme", ["em", "pathwise"])
    def test_single_run_names_failing_step(self, scheme):
        # the drive raises the excited population, and with it the count
        # probability of C = sigma, past 0.1 some steps into the run
        m = build_jump_model(SIGMA, 5.0 * SIGMA_X, 6.0, 1.0)
        dt, seed = 0.02, 1
        with pytest.raises(ValueError, match="count probability .* use a smaller dt") as err:
            run_trajectory(m, scheme, dt, 3.0, RHO_PLUS, seed)
        found = re.search(r"for step (\d+) at t = ", str(err.value))
        assert found, str(err.value)
        step = int(found.group(1))
        assert step > 1
        assert f"for step {step} at t = {(step - 1) * dt:.6g};" in str(err.value)
        run_trajectory(m, scheme, dt, (step - 1) * dt, RHO_PLUS, seed)
        if scheme == "pathwise":
            with pytest.raises(ValueError) as sampled:
                sample_counting_record(m, RHO_PLUS, dt, 3.0, seed)
            assert str(sampled.value) == str(err.value)

    def test_invalid_count_names_trajectory(self):
        # Euler overshoot drives tr(C rho C^dag) negative before a count
        m = build_jump_model(SIGMA, 20.0 * SIGMA_X, 1.0, 1.0)
        with pytest.raises(InvalidCountingRecordError) as err:
            run_ensemble(m, "em", 0.05, 2.0, RHO_PLUS, 8, base_seed=5)
        b, step, replay = check_replays_failure(m, 0.05, 5, 8, err)
        assert b > 0
        assert str(err.value).startswith(f"count arrived at t = {step * 0.05:.6g} where")
        assert str(replay.value).startswith(f"count arrived at t = {step * 0.05:.6g} where")

    def test_blown_up_state_names_trajectory(self):
        # with no jump operator nothing is counted, and explicit Euler on a
        # fast rotation grows until it overflows
        m = build_jump_model(np.zeros((2, 2)), 20.0 * SIGMA_Y, 1.0, 1.0)
        with pytest.raises(NonFiniteStateError, match="blew up") as err:
            run_ensemble(m, "em", 0.05, 5.0, RHO_PLUS, 3, base_seed=5)
        b, step, replay = check_replays_failure(m, 0.05, 5, 3, err)
        assert err.value.time == pytest.approx(step * 0.05)
        assert replay.value.time == err.value.time
        assert re.search(rf"blew up( \(trace \S+\))? at t = {step * 0.05:.6g}$", str(replay.value))
        # the run fails in the ensemble's words
        assert str(replay.value) == str(err.value).replace(f"trajectory {b} (seed {5 + b}) in step", "step")

    def test_diffusion_em_blow_up_names_trajectory(self):
        # explicit Euler-Maruyama on a fast rotation grows until it
        # overflows; the innovations differ, and the first trajectory to
        # fail is not trajectory 0
        m = build_diffusion_model(10.0 * SIGMA_Y, SIGMA, 1.0)
        with pytest.raises(NonFiniteStateError, match="blew up") as err:
            run_ensemble(m, "em", 0.05, 5.0, RHO_PLUS, 8, base_seed=5)
        b, step, replay = check_replays_failure(m, 0.05, 5, 8, err)
        assert b > 0
        assert err.value.time == pytest.approx(step * 0.05)
        assert replay.value.time == err.value.time
        at = rf"blew up( \(trace \S+\))? at t = {step * 0.05:.6g}"
        assert re.fullmatch(rf"normalized state of trajectory {b} \(seed {5 + b}\) in step {step} {at}", str(err.value))
        assert str(replay.value) == str(err.value).replace(f"trajectory {b} (seed {5 + b}) in step", "step")

    def test_failure_inside_a_summed_block_names_trajectory(self):
        # the ensemble of test_diffusion_em_blow_up_names_trajectory, with a
        # slower rotation and shorter steps: the failing step falls inside
        # the second block of _STEP_BLOCK steps handed over, after the first
        # has been summed
        m = build_diffusion_model(6.0 * SIGMA_Y, SIGMA, 1.0)
        with pytest.raises(NonFiniteStateError, match="blew up") as err:
            run_ensemble(m, "em", 0.04, 5.0, RHO_PLUS, 8, base_seed=5)
        b, step, replay = check_replays_failure(m, 0.04, 5, 8, err)
        assert step > _STEP_BLOCK and step % _STEP_BLOCK > 1
        at = rf"blew up( \(trace \S+\))? at t = {step * 0.04:.6g}"
        assert re.fullmatch(rf"normalized state of trajectory {b} \(seed {5 + b}\) in step {step} {at}", str(err.value))
        assert err.value.time == replay.value.time

    @pytest.mark.parametrize(
        "model, scheme",
        [
            *[(driven_atom_model(0.3), s) for s in ("robust", "em", "pathwise")],
            *[(criterion9_jump_model(), s) for s in ("em", "pathwise")],
        ],
    )
    def test_ensembles_never_run_single_trajectories(self, model, scheme, monkeypatch):
        # every ensemble runs on the batched engine, never trajectory by trajectory
        def single_run(*args, **kwargs):
            raise AssertionError("run_ensemble ran a single trajectory")

        monkeypatch.setattr("smefilter.traj.run_trajectory", single_run)
        ens = run_ensemble(model, scheme, 0.01, 0.5, RHO_PLUS, 2, base_seed=3)
        assert len(ens.final_states) == 2 and len(ens.mean_rho_path) == 51

    def test_robust_collapse_names_trajectory(self):
        stepper = RobustStepper(driven_atom_model(), 0.01)
        rhos = PAULI.coords(np.stack([RHO_PLUS, -np.eye(2, dtype=complex)]))
        named = r"trajectory 1 \(seed 41\) in step 7 collapsed \(trace -1\.9\d*\) at t = 0.07$"
        with pytest.raises(NonFiniteStateError, match=named):
            stepper.advance_many(rhos, np.array([0.01, 0.02]), 0.07, _trajectory_in(40, 7))

    def test_mean_tracks_master_equation(self):
        m = driven_atom_model()
        dt, T, n_traj = 0.01, 2.0, 200
        ens = run_ensemble(m, "robust", dt, T, RHO_PLUS, n_traj, base_seed=900)
        oracle = master_propagate(m.H, m.L, RHO_PLUS, dt / 10.0, int(round(T / dt)) * 10)
        allow = 3.0 / np.sqrt(n_traj) + 5.0 * dt
        for k, mean_rho in enumerate(ens.mean_rho_path):
            mb = _bloch_fast(mean_rho)
            ob = _bloch_fast(oracle[10 * k])
            assert abs(mb.x - ob.x) <= allow
            assert abs(mb.y - ob.y) <= allow
            assert abs(mb.z - ob.z) <= allow

    def test_every_final_bloch_inside_ball(self):
        m = driven_atom_model()
        ens = run_ensemble(m, "robust", 0.01, 1.0, RHO_PLUS, 20, base_seed=31)
        for b in ens.final_bloch:
            assert b.norm() <= 1.0 + 1e-9

    def test_other_dimensions_report_no_bloch_vectors(self):
        # a 3-level model has no Bloch vector: neither a single run nor an
        # ensemble may report one, and the steady-state statistics refuse it
        lower = np.zeros((3, 3), dtype=complex)
        lower[0, 1] = lower[1, 2] = 1.0
        m = build_diffusion_model(np.diag([0.0, 1.0, 2.0]).astype(complex), lower, 0.8)
        rho0 = np.full((3, 3), 1.0 / 3.0, dtype=complex)
        ens = run_ensemble(m, "robust", 0.01, 0.5, rho0, 4, base_seed=3)
        assert run_trajectory(m, "robust", 0.01, 0.5, rho0, seed=3).bloch is None
        assert ens.final_bloch is None
        assert set(ens.summary) == {"mean_purity"}
        with pytest.raises(ValueError, match="need a 2-level model, got dimension 3"):
            steady_state_stats(ens)

    def test_one_level_model_reports_purity_only(self):
        m = build_diffusion_model(np.zeros((1, 1)), np.array([[0.5]]), 0.8)
        assert run_trajectory(m, "em", 0.01, 0.1, np.eye(1), seed=1).bloch is None
        ens = run_ensemble(m, "em", 0.01, 0.1, np.eye(1), 3, base_seed=1)
        assert ens.final_bloch is None
        assert ens.summary == {"mean_purity": 1.0}

    @pytest.mark.parametrize("scheme", ["robust", "em", "pathwise"])
    def test_one_level_model_runs_every_scheme(self, scheme):
        # a robust run of a 1-level model raised AttributeError: its stepper
        # built the closed-form n = 2 branch only, but took it for n = 1
        m = build_diffusion_model(np.zeros((1, 1)), np.array([[0.5]]), 0.8)
        res = run_trajectory(m, scheme, 0.01, 0.5, np.eye(1), seed=3)
        assert res.states.rho.shape == (51, 1, 1) and np.isfinite(res.states.log_lambda).all()
        replay = _diffusion_steps(m, scheme, 0.01, np.eye(1)).replay(res.record)
        assert replay.rho.tobytes() == res.states.rho.tobytes()
        assert replay.log_lambda.tobytes() == res.states.log_lambda.tobytes()
        ens = run_ensemble(m, scheme, 0.01, 0.5, np.eye(1), 1, base_seed=3)
        assert ens.final_states[0].rho.tobytes() == res.states[-1].rho.tobytes()
        assert ens.final_states[0].log_lambda == res.states[-1].log_lambda
        assert ens.mean_rho_path.tobytes() == res.states.rho.tobytes()

    def test_n_traj_validated(self):
        with pytest.raises(ValueError, match="n_traj"):
            run_ensemble(driven_atom_model(), "robust", 0.01, 1.0, RHO_PLUS, 0, base_seed=0)


class TestSteadyStateStats:
    def test_degenerate_ensemble_occupies_single_bin(self):
        m = build_diffusion_model(np.zeros((2, 2)), np.zeros((2, 2)), 1.0)
        ens = run_ensemble(m, "robust", 0.1, 0.5, RHO_PLUS, 3, base_seed=0)
        stats = steady_state_stats(ens)
        hist = stats["histograms"]["x"]
        assert sum(hist["counts"]) == 3
        assert hist["counts"][-1] == 3  # everything at x = 1
        assert stats["fraction_abs_x_above"] == 1.0
        assert stats["mean_purity"] == pytest.approx(1.0, abs=1e-12)

    def test_histograms_have_fixed_binning(self):
        m = driven_atom_model()
        ens = run_ensemble(m, "robust", 0.01, 0.5, RHO_PLUS, 5, base_seed=77)
        stats = steady_state_stats(ens)
        for coord in ("x", "y", "z"):
            assert len(stats["histograms"][coord]["counts"]) == 41
            assert len(stats["histograms"][coord]["edges"]) == 42


class TestConvergenceReport:
    def test_smooth_record_errors_decrease(self):
        m = driven_atom_model()
        fine_dt = 0.005
        n = 400  # T = 2
        times = fine_dt * np.arange(n + 1)
        rec = MeasurementRecord(fine_dt, np.diff(2.0 * np.sin(times)))
        rows = convergence_report(m, rec, [0.04, 0.02, 0.01], RHO_PLUS)
        errs = [r.sup_error for r in rows]
        assert errs[1] < errs[0] and errs[2] < errs[1]
        # smooth path: the window oscillation shrinks linearly with the window
        assert rows[2].w_sliding < rows[1].w_sliding < rows[0].w_sliding

    def test_initial_window_is_at_most_sliding(self):
        m = driven_atom_model()
        rng = np.random.default_rng(54)
        rec = MeasurementRecord(0.005, rng.normal(0.0, 0.07, 400))
        rows = convergence_report(m, rec, [0.02], RHO_PLUS)
        assert rows[0].w_initial <= rows[0].w_sliding

    def test_iterator_of_deltas_gives_the_rows_of_its_list(self):
        m = driven_atom_model()
        rec = MeasurementRecord(0.01, np.random.default_rng(5).normal(0.0, 0.1, 200))
        rows = convergence_report(m, rec, [0.02, 0.04], RHO_PLUS)
        assert len(rows) == 2
        assert convergence_report(m, rec, iter([0.02, 0.04]), RHO_PLUS) == rows
        assert convergence_report(m, rec, (d for d in (0.02, 0.04)), RHO_PLUS) == rows

    def test_nondivisible_delta_rejected(self):
        m = driven_atom_model()
        rec = MeasurementRecord(0.003, np.zeros(100))
        with pytest.raises(ValueError, match="integer multiple"):
            convergence_report(m, rec, [0.01], RHO_PLUS)

    @staticmethod
    def fine_oracle_rows(m, rec, deltas):
        """The report as it was computed against the whole fine oracle,
        ``pathwise_filter`` at every fine step."""
        oracle = pathwise_filter(m, rec, RHO_PLUS)
        rows = []
        for delta in deltas:
            factor = int(round(delta / rec.dt))
            approx = robust_filter(m, rec.coarsen(factor), RHO_PLUS)
            w = (rec.modulus_of_continuity(delta, mode) for mode in ("sliding", "initial"))
            rows.append(ConvergenceRow(delta, float(np.abs(approx.rho - oracle.rho[::factor]).max()), *w))
        return rows

    @pytest.mark.parametrize("kind", ["smooth", "brownian"])
    def test_coprime_factors_give_the_fine_oracle_rows_bitwise(self, kind):
        # factors 3 and 2 have gcd 1: the oracle is pathwise_filter itself
        m = driven_atom_model()
        times = 1e-3 * np.arange(601)
        inc = np.diff(2.0 * np.sin(times)) if kind == "smooth" else np.random.default_rng(7).normal(0.0, 0.034, 600)
        rec = MeasurementRecord(1e-3, inc)
        deltas = [0.003, 0.002]
        assert convergence_report(m, rec, deltas, RHO_PLUS) == self.fine_oracle_rows(m, rec, deltas)

    def test_common_factor_rows_are_near_the_fine_oracle_rows(self):
        # the default deltas at fine_dt = 1e-3: factors 40, 20 and 10
        m = driven_atom_model()
        rec = MeasurementRecord(1e-3, np.random.default_rng(104).normal(0.0, 0.034, 2000))
        deltas = [0.04, 0.02, 0.01]
        got = convergence_report(m, rec, deltas, RHO_PLUS)
        for row, want in zip(got, self.fine_oracle_rows(m, rec, deltas)):
            assert abs(row.sup_error - want.sup_error) <= 1e-13
            assert (row.delta, row.w_sliding, row.w_initial) == (want.delta, want.w_sliding, want.w_initial)

    @pytest.mark.parametrize(
        "delta, message",
        [
            (0.015, "delta 0.015 is not an integer multiple of the fine step 0.01"),
            (float("nan"), "delta nan is not an integer multiple of the fine step 0.01"),
            (float("inf"), "delta inf is not an integer multiple of the fine step 0.01"),
            (-0.02, "delta -0.02 is not an integer multiple of the fine step 0.01"),
            (0.03, "delta 0.03 (3 fine steps) does not divide the record's 100 steps"),
        ],
        ids=["fraction", "nan", "inf", "negative", "not-dividing"],
    )
    def test_every_delta_is_checked_before_the_oracle(self, delta, message, monkeypatch):
        # a bad delta after a good one fails before the fine oracle runs
        def oracle(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(smefilter.traj, "pathwise_samples", oracle)
        rec = MeasurementRecord(0.01, np.zeros(100))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convergence_report(driven_atom_model(), rec, [0.02, delta], RHO_PLUS)

    @pytest.mark.parametrize("deltas", [[], (), np.array([])], ids=["list", "tuple", "array"])
    def test_empty_deltas_rejected_before_the_oracle(self, deltas, monkeypatch):
        def oracle(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(smefilter.traj, "pathwise_samples", oracle)
        rec = MeasurementRecord(0.01, np.zeros(100))
        with pytest.raises(ValueError, match="^deltas must not be empty$"):
            convergence_report(driven_atom_model(), rec, deltas, RHO_PLUS)


class TestLipschitzReport:
    def test_zero_epsilon_gives_zero_gap(self):
        m = driven_atom_model()
        rng = np.random.default_rng(55)
        rec = MeasurementRecord(0.01, rng.normal(0.0, 0.1, 100))
        rows = lipschitz_report(m, rec, [0.0, 1e-3], RHO_PLUS)
        assert rows[0].sup_gap_rho == 0.0 and rows[0].ratio == 0.0
        assert rows[1].sup_gap_rho > 0.0
        # the epsilons are read once, so any iterable of them will do
        assert lipschitz_report(m, rec, iter([0.0, 1e-3]), RHO_PLUS) == rows

    def test_ratios_stable_over_three_decades(self):
        m = driven_atom_model()
        rng = np.random.default_rng(56)
        rec = MeasurementRecord(0.01, rng.normal(0.0, m.kappa * 0.1, 500))
        rows = lipschitz_report(m, rec, [1e-2, 1e-3, 1e-4], RHO_PLUS)
        ratios = [r.ratio for r in rows]
        assert max(ratios) / min(ratios) < 2.0

    def test_unnormalized_gap_reported(self):
        m = driven_atom_model()
        rng = np.random.default_rng(57)
        rec = MeasurementRecord(0.01, rng.normal(0.0, 0.1, 200))
        rows = lipschitz_report(m, rec, [1e-3], RHO_PLUS)
        assert rows[0].sup_gap_rho_tilde > 0.0

    def test_negative_epsilon_rejected(self):
        m = driven_atom_model()
        rec = MeasurementRecord(0.01, np.zeros(10))
        with pytest.raises(ValueError, match="nonnegative"):
            lipschitz_report(m, rec, [-1e-3], RHO_PLUS)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_epsilon_rejected_by_name(self, eps):
        # with no RuntimeWarning from scaling the perturbation by inf
        m = driven_atom_model()
        rec = MeasurementRecord(0.01, np.zeros(10))
        with pytest.raises(ValueError, match=f"^epsilon must be finite, got {eps}$"):
            lipschitz_report(m, rec, [1e-3, eps], RHO_PLUS)

    @pytest.mark.parametrize(
        "eps, message",
        [(float("nan"), "epsilon must be finite, got nan"), (-1e-4, "epsilon must be nonnegative, got -0.0001")],
        ids=["nan", "negative"],
    )
    def test_every_epsilon_is_checked_before_the_filter(self, eps, message, monkeypatch):
        # a bad epsilon after good ones fails before the base filter runs
        calls = []
        robust_filter = smefilter.traj.robust_filter

        def counted(*args):
            calls.append(args)
            return robust_filter(*args)

        monkeypatch.setattr(smefilter.traj, "robust_filter", counted)
        rec = MeasurementRecord(0.01, np.random.default_rng(58).normal(0.0, 0.1, 200))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lipschitz_report(driven_atom_model(), rec, [1e-2, 1e-3, eps], RHO_PLUS)
        assert calls == []


WIDTH = "dt must be finite and positive"
LENGTH = "T must be finite and at least dt = 0.01"
STEP_COUNT_ENTRIES = {
    "run_trajectory-dt": (lambda x: run_trajectory(driven_atom_model(), "em", x, 1.0, RHO_PLUS, seed=1), WIDTH),
    "run_trajectory-T": (lambda x: run_trajectory(driven_atom_model(), "em", 0.01, x, RHO_PLUS, seed=1), LENGTH),
    "em_normalized": (lambda x: em_normalized(driven_atom_model(), x, np.zeros(3), RHO_PLUS), WIDTH),
    "jump_sme_step": (lambda x: jump_sme_step(criterion9_jump_model(), RHO_PLUS, 0, x), WIDTH),
    "jump_unnorm_step": (lambda x: jump_unnorm_step(criterion9_jump_model(), RHO_PLUS, 0, x), WIDTH),
    "sample_counting_record-dt": (lambda x: sample_counting_record(criterion9_jump_model(), RHO_PLUS, x, 1, 1), WIDTH),
    "sample_counting_record-T": (lambda x: sample_counting_record(criterion9_jump_model(), RHO_PLUS, 0.01, x, 1), LENGTH),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", STEP_COUNT_ENTRIES)
def test_non_finite_step_width_and_length_rejected(entry, bad):
    # RuntimeWarnings are errors here, so a width that reaches the arithmetic fails too
    call, message = STEP_COUNT_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"{message}, got {bad}"):
        call(bad)


@pytest.mark.parametrize("entry", ["run_trajectory-T", "sample_counting_record-T"])
def test_length_off_the_step_grid_rejected(entry):
    # 0.015 / 0.01 is 1.4999999999999998 steps
    call, _ = STEP_COUNT_ENTRIES[entry]
    with pytest.raises(ValueError, match=r"^T must be a whole number of steps of dt = 0\.01, got 0\.015$"):
        call(0.015)


STATE_ENTRIES = {
    **{
        f"run_trajectory-{scheme}": (
            lambda x, scheme=scheme: run_trajectory(driven_atom_model(), scheme, 0.01, 0.1, x, seed=1),
            "rho0",
        )
        for scheme in ("robust", "em", "pathwise")
    },
    **{
        f"run_trajectory-jump-{scheme}": (
            lambda x, scheme=scheme: run_trajectory(criterion9_jump_model(), scheme, 0.01, 0.1, x, seed=1),
            "rho0",
        )
        for scheme in ("em", "pathwise")
    },
    **{
        f"run_ensemble-{scheme}": (
            lambda x, scheme=scheme: run_ensemble(driven_atom_model(), scheme, 0.01, 0.1, x, 2, 1),
            "rho0",
        )
        for scheme in ("robust", "em", "pathwise")
    },
    "run_ensemble-jump": (lambda x: run_ensemble(criterion9_jump_model(), "em", 0.01, 0.1, x, 2, 1), "rho0"),
    "robust_filter": (lambda x: robust_filter(driven_atom_model(), MeasurementRecord(0.01, np.zeros(3)), x), "rho0"),
    "jump_pathwise_solve": (
        lambda x: jump_pathwise_solve(criterion9_jump_model(), CountingRecord(0.01, np.zeros(3, int)), x),
        "r0",
    ),
    "em_unnormalized": (
        lambda x: em_unnormalized(driven_atom_model(), MeasurementRecord(0.01, np.zeros(3)), x),
        "rho_tilde0",
    ),
    "build_diffusion_model": (lambda x: build_diffusion_model(x, SIGMA, 0.5), "H"),
    "build_jump_model": (lambda x: build_jump_model(SIGMA, x, 1.0, 0.5), "E"),
    "build_diffusion_model-L": (lambda x: build_diffusion_model(SIGMA_X, x, 0.5), "L"),
    "build_jump_model-C": (lambda x: build_jump_model(x, SIGMA_X, 1.0, 0.5), "C"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("entry", STATE_ENTRIES)
def test_non_finite_state_or_operator_rejected_by_name(entry, bad):
    # one bad diagonal entry; RuntimeWarnings are errors here, so a check
    # that reached the arithmetic first would fail with one of those
    call, name = STATE_ENTRIES[entry]
    x = RHO_PLUS.copy()
    x[1, 1] = bad
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
        call(x)


@pytest.mark.parametrize("entry", [e for e in STATE_ENTRIES if not e.startswith("build_")])
def test_state_of_another_dimension_rejected_by_name(entry):
    # a valid 3-level state for a 2-level model
    call, name = STATE_ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{name} is 3x3 but the model has dimension 2$"):
        call(np.eye(3, dtype=complex) / 3.0)


def _stack(x):
    return PAULI.coords(np.stack([RHO_PLUS, x]))


def _em_normalized_step(x, t):
    # no coupling and K = -x/dt: one step takes RHO_PLUS to RHO_PLUS + 2 x RHO_PLUS
    model = SimpleNamespace(K=-x / 0.01, L=np.zeros((2, 2), dtype=complex), kappa=1.0)
    em_normalized(model, 0.01, np.zeros(1), RHO_PLUS, t0=t - 0.01)


SINGLE_STEPS = {
    "robust": lambda x, t: RobustStepper(driven_atom_model(), 0.01).advance(PAULI.coords(x), 0.1, t),
    "pathwise": lambda x, t: PathwiseIntegrator(driven_atom_model(), 0.01).advance(PAULI.coords(x), 0.1, t),
    "em_normalized": _em_normalized_step,
    "jump_sme_step": lambda x, t: jump_sme_step(criterion9_jump_model(), x, 0, 0.01),
}
STACK_STEPS = {
    "advance_many": lambda x, t: RobustStepper(driven_atom_model(), 0.01).advance_many(_stack(x), np.full(2, 0.1), t),
    "pathwise_advance_many": lambda x, t: PathwiseIntegrator(driven_atom_model(), 0.01).advance_many(
        _stack(x), np.full(2, 0.1), t
    ),
    "em_step_many": lambda x, t: _em_step_many(
        _em_maps(driven_atom_model()), driven_atom_model().kappa, _stack(x), np.full(2, 0.1), 0.01, t
    ),
    "euler_step_many": lambda x, t: _euler_step_many(
        _euler_maps(criterion9_jump_model(), 0.01), _stack(x), np.zeros(2, bool), t
    ),
    "exact_step_many": lambda x, t: _exact_step_many(
        *_exact_propagator(criterion9_jump_model(), 0.01), _stack(x), np.zeros(2, bool), t
    ),
}


@pytest.mark.parametrize("kind", ["blew up", "collapsed"])
@pytest.mark.parametrize("step", [*SINGLE_STEPS, *STACK_STEPS])
def test_shared_tail_errors_name_the_failure_and_time(step, kind):
    # a NaN state "blew up"; the negated identity, whose trace is -2, "collapsed"
    # and, its coordinates being finite, has its trace named
    x = np.full((2, 2), np.nan, dtype=complex) if kind == "blew up" else -np.eye(2, dtype=complex)
    with pytest.raises(NonFiniteStateError) as err:
        {**SINGLE_STEPS, **STACK_STEPS}[step](x, 0.37)
    message = str(err.value)
    if step == "jump_sme_step":  # it takes no time
        assert err.value.time is None and message.startswith(f"normalized jump state {kind}")
    else:
        assert err.value.time == pytest.approx(0.37)
        of = " of batch element 1" if step in STACK_STEPS else ""
        trace = r" \(trace -[12]\.\d*\)" if kind == "collapsed" else ""
        assert re.search(rf"{of} {kind}{trace} at t = 0\.37$", message), message

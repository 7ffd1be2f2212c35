"""Trajectory and ensemble orchestration, plus convergence and continuity
diagnostics.

A trajectory is a pure function of ``(model, scheme, dt, T, rho0, seed)``:
the driving record is generated online from the filtered state itself
(``dy_n = m_(n-1) dt + kappa dnu_n`` with ``dnu ~ N(0, dt)`` for diffusion;
for jumps a per-step Bernoulli count with probability
``eta lam tr(C rho C^dag) dt``, drawn from the state the run evolves) and
returned alongside the states, so that an offline replay of the record
gives the run's states bitwise.  The steps of every scheme are chosen in
one place per record kind, ``diffusion._diffusion_steps`` and
``jump._jump_steps``; single runs and replays take their single-state or
stack-of-one steps, and ensembles their stack steps.  Ensembles give
trajectory ``i`` the seed ``base_seed + i`` and run on one batched engine,
``_run_batched``: it steps all trajectories together as one stack of states
and keeps only the running state sum and the final states.  Each
trajectory's states are bitwise those of ``run_trajectory`` with its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import (
    SCHEMES,  # noqa: F401  (re-exported: the diffusion schemes, which run_trajectory takes)
    DensityState,
    MeasurementRecord,
    _diffusion_steps,
    _innovation_run,
    _normalized_density,
    _robust_advance,  # noqa: F401  (bench/spans.py traces this name in this module)
    _step_count,
    pathwise_filter,
    robust_filter,
)
# No code of this module calls ``sample_counting_record`` or
# ``jump_pathwise_solve``, but bench/spans.py traces them under these names
# here, as it does ``run_trajectory``, so they stay bound in this module.
from .jump import (  # noqa: F401
    CountingRecord,
    _jump_steps,
    _online_run,
    jump_pathwise_solve,
    sample_counting_record,
)
from .linalg import dagger, max_abs
from .model import BlochVector, DiffusionModel, JumpModel, purity

# Steps of random numbers a batched ensemble draws per trajectory at a time;
# it bounds the draw buffer at this many steps whatever the run length.
_DRAW_BLOCK = 256


@dataclass(frozen=True)
class TrajectoryResult:
    """One filtered run: uniform time grid, normalized states, Bloch path for
    2x2 systems, the driving record, and the seed that produced it."""

    times: np.ndarray
    states: list[DensityState]
    bloch: list[BlochVector] | None
    record: MeasurementRecord | CountingRecord
    seed: int
    scheme: str


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregate of independent trajectories: the mean normalized state path,
    the final-time states and, for 2x2 systems, Bloch vectors per trajectory
    and final-time Bloch statistics."""

    n_traj: int
    times: np.ndarray
    mean_rho_path: list[np.ndarray]
    final_states: list[DensityState]
    final_bloch: list[BlochVector] | None
    summary: dict
    base_seed: int
    scheme: str


def master_rhs(H, L, rho) -> np.ndarray:
    """Deterministic mean evolution:
    ``-i[H, rho] + L rho L^dag - (L^dag L rho + rho L^dag L) / 2``."""
    Hm = np.asarray(H, dtype=complex)
    Lm = np.asarray(L, dtype=complex)
    ldl = dagger(Lm) @ Lm
    return (
        -1j * (Hm @ rho - rho @ Hm)
        + Lm @ rho @ dagger(Lm)
        - 0.5 * (ldl @ rho + rho @ ldl)
    )


def master_propagate(H, L, rho0, dt: float, n_steps: int) -> list[np.ndarray]:
    """RK4 integration of the mean evolution; the deterministic oracle that
    ensemble averages are checked against."""
    from .ode import rk4_step

    def f(_t, rho):
        return master_rhs(H, L, rho)

    state = np.asarray(rho0, dtype=complex)
    out = [state.copy()]
    for k in range(n_steps):
        state = rk4_step(f, k * dt, state, dt)
        out.append(state.copy())
    return out


def _bloch_fast(rho: np.ndarray) -> BlochVector:
    """Bloch coordinates without validation (hot path; tests check agreement
    with the validating converter)."""
    return BlochVector(
        x=2.0 * float(rho[1, 0].real),
        y=2.0 * float(rho[1, 0].imag),
        z=float((rho[0, 0] - rho[1, 1]).real),
    )


def _bloch_path(states: list[DensityState]) -> list[BlochVector] | None:
    if states[0].rho.shape[0] != 2:
        return None
    return [_bloch_fast(s.rho) for s in states]


def _bloch_coords(bloch: list[BlochVector]) -> dict[str, np.ndarray]:
    """The ``x``, ``y`` and ``z`` coordinates of Bloch vectors, as arrays."""
    return {c: np.array([getattr(b, c) for b in bloch]) for c in "xyz"}


def _run_diffusion_trajectory(model, scheme, dt, n, rho0, seed, substeps):
    """One online diffusion run, its record and its states:
    ``diffusion._innovation_run`` of the scheme's steps, with the
    innovations ``dnu ~ N(0, dt)`` drawn from ``default_rng(seed)``."""
    steps = _diffusion_steps(model, scheme, dt, substeps)
    dnu = np.random.default_rng(seed).normal(0.0, np.sqrt(dt), n)
    return _innovation_run(model, steps, dt, dnu, rho0)


def _draws(base_seed, n_traj, n, draw):
    """Each step's random numbers for a batched ensemble: row ``k`` holds
    step ``k``'s number for every trajectory.

    Trajectory ``i`` draws from its own generator seeded ``base_seed + i``,
    ``_DRAW_BLOCK`` steps at a time; ``draw(rng, size)`` gives the same
    stream in blocks as in one call, so the numbers are those a single run
    with that seed draws.
    """
    rngs = [np.random.default_rng(base_seed + i) for i in range(n_traj)]
    for k in range(0, n, _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, n - k)
        yield from np.stack([draw(g, size) for g in rngs], axis=1)


def _trajectory_in(base_seed, step):
    """How a batched ensemble names trajectory ``b`` in the errors of its
    ``step``-th step (counted from 1, ending at ``t = step dt``), so that the
    failing run can be replayed with ``run_trajectory``."""
    return lambda b: f"trajectory {b} (seed {base_seed + b}) in step {step}"


def _batched_step(model, scheme, dt, rho0, substeps):
    """The stack step of a batched ensemble of ``scheme``, its start state
    and ``log_lambda``, and ``draw(rng, size)``, which draws a trajectory's
    numbers as its single run draws them.

    ``step(rho, x, k, where)`` takes the stack ``rho`` through step ``k``
    (from 0) with the draws ``x`` and returns the new stack and the log
    normalization factors, naming trajectory ``b`` in errors as
    ``where(b)``.  Diffusion runs take the stack step of
    ``diffusion._diffusion_steps`` on the record increments their single
    runs form, ending at ``(k + 1) dt``; jump runs take the sampler step of
    ``jump._jump_steps``, starting at ``k dt``.
    """
    if isinstance(model, JumpModel):
        steps = _jump_steps(model, scheme, dt, rho0, substeps)

        def step(rho, u, k, where):
            return steps.sample(rho, u, k * dt, where)[1:]

        return step, steps.start, steps.log0, lambda g, size: g.random(size)
    many = _diffusion_steps(model, scheme, dt, substeps).many
    l_sum = model.L + dagger(model.L)

    def step(rho, dnu, k, where):
        m = np.einsum("ij,bji->b", l_sum, rho).real
        return many(rho, m * dt + model.kappa * dnu, (k + 1) * dt, where)

    scale = np.sqrt(dt)
    return step, _normalized_density(rho0), 0.0, lambda g, size: g.normal(0.0, scale, size)


def _run_batched(step, start, log0, draw, n, n_traj, base_seed):
    """Step the trajectories of an ensemble as one stack of states.

    Trajectory ``i`` draws its numbers from its own generator seeded
    ``base_seed + i`` (see :func:`_draws`), and ``step`` gives each element
    of the stack the arithmetic of a single run, so every state is bitwise
    the one ``run_trajectory`` computes for that seed.  Returns the state
    sums over trajectories at every grid point (added in trajectory order,
    as a loop over trajectories adds them), the final states and their
    ``log_lambda``.
    """
    rho = np.broadcast_to(start, (n_traj,) + start.shape).copy()
    log_lam = np.full(n_traj, log0)
    sum_rho = np.empty((n + 1,) + start.shape, dtype=complex)
    sum_rho[0] = rho.sum(axis=0)
    for k, x in enumerate(_draws(base_seed, n_traj, n, draw)):
        rho, dlog = step(rho, x, k, _trajectory_in(base_seed, k + 1))
        log_lam += dlog
        sum_rho[k + 1] = rho.sum(axis=0)
    return sum_rho, rho, log_lam


def run_trajectory(model, scheme: str, dt: float, T: float, rho0, seed: int, substeps: int = 4) -> TrajectoryResult:
    """Run one trajectory, generating the driving record online.

    Replaying the returned record offline with the scheme's steps, as
    ``smefilter filter`` does, reproduces the same states bit for bit.
    """
    n = _step_count(dt, T)
    if isinstance(model, DiffusionModel):
        record, states = _run_diffusion_trajectory(model, scheme, dt, n, rho0, seed, substeps)
    elif isinstance(model, JumpModel):
        record, states = _online_run(_jump_steps(model, scheme, dt, rho0, substeps), dt, n, seed)
    else:
        raise TypeError(f"expected DiffusionModel or JumpModel, got {type(model).__name__}")
    return TrajectoryResult(
        times=record.times,
        states=states,
        bloch=_bloch_path(states),
        record=record,
        seed=int(seed),
        scheme=scheme,
    )


def run_ensemble(
    model,
    scheme: str,
    dt: float,
    T: float,
    rho0,
    n_traj: int,
    base_seed: int,
    substeps: int = 4,
) -> EnsembleResult:
    """Run ``n_traj`` independent trajectories with seeds ``base_seed + i``;
    aggregates the mean state path and final-time Bloch statistics.

    Every scheme runs on the one batched engine, which steps all
    trajectories together as one stack with the scheme's stack step.
    Trajectory ``i`` ends bitwise where ``run_trajectory`` with seed
    ``base_seed + i`` ends, and the mean path sums states in trajectory
    order.  A failure names the trajectory, its seed, the step and the time.
    """
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    if not isinstance(model, (DiffusionModel, JumpModel)):
        raise TypeError(f"expected DiffusionModel or JumpModel, got {type(model).__name__}")
    n = _step_count(dt, T)
    step, start, log0, draw = _batched_step(model, scheme, dt, rho0, substeps)
    sum_rho, rho, log_lam = _run_batched(step, start, log0, draw, n, n_traj, base_seed)
    times = dt * np.arange(n + 1)
    final_states = [DensityState(r, float(lam), n * dt) for r, lam in zip(rho, log_lam)]
    final_bloch = _bloch_path(final_states)
    mean_rho_path = [sum_rho[k] / n_traj for k in range(sum_rho.shape[0])]
    summary = {}
    if final_bloch is not None:
        coords = _bloch_coords(final_bloch)
        summary["final_bloch_mean"] = {c: float(v.mean()) for c, v in coords.items()}
        summary["final_bloch_stddev"] = {c: float(v.std()) for c, v in coords.items()}
    summary["mean_purity"] = float(np.mean([purity(s.rho) for s in final_states]))
    return EnsembleResult(
        n_traj=n_traj,
        times=times,
        mean_rho_path=mean_rho_path,
        final_states=final_states,
        final_bloch=final_bloch,
        summary=summary,
        base_seed=int(base_seed),
        scheme=scheme,
    )


def steady_state_stats(ensemble: EnsembleResult, threshold: float = 0.6, bins: int = 41) -> dict:
    """Fixed-bin histograms of the final-time Bloch coordinates over [-1, 1],
    the fraction of trajectories beyond ``threshold`` in |x| and |z|, and the
    mean purity.  Raises for an ensemble of a model of dimension other than
    2, which has no Bloch vectors."""
    if ensemble.final_bloch is None:
        dim = ensemble.final_states[0].rho.shape[0]
        raise ValueError(f"steady-state Bloch statistics need a 2-level model, got dimension {dim}")
    coords = _bloch_coords(ensemble.final_bloch)
    histograms = {}
    for name, vals in coords.items():
        counts, edges = np.histogram(vals, bins=bins, range=(-1.0, 1.0))
        histograms[name] = {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}
    return {
        "threshold": float(threshold),
        "bins": int(bins),
        "histograms": histograms,
        "fraction_abs_x_above": float(np.mean(np.abs(coords["x"]) > threshold)),
        "fraction_abs_z_above": float(np.mean(np.abs(coords["z"]) > threshold)),
        "mean_purity": float(np.mean([purity(s.rho) for s in ensemble.final_states])),
    }


@dataclass(frozen=True)
class ConvergenceRow:
    delta: float
    sup_error: float
    w_sliding: float
    w_initial: float


def convergence_report(
    model,
    y_fine: MeasurementRecord,
    deltas,
    rho0=None,
    oracle_substeps: int = 8,
) -> list[ConvergenceRow]:
    """Error of the implicit filter at each step size against the fine
    pathwise oracle run on the same record.

    The oracle, :func:`pathwise_filter`, solves the pathwise flow exactly on
    the piecewise-linear interpolant of the fine record, one matrix
    exponential per fine step; ``oracle_substeps`` is validated but does
    not change it.

    Each ``delta`` must be an integer multiple of the fine step.  The record's
    modulus of continuity over windows of width ``delta`` is reported in two
    readings: ``w_sliding`` maximizes over all windows, ``w_initial`` only
    over the first one.
    """
    if rho0 is None:
        rho0 = np.eye(model.dim, dtype=complex) / model.dim
    oracle = pathwise_filter(model, y_fine, rho0, oracle_substeps)
    rows = []
    for delta in deltas:
        ratio = delta / y_fine.dt
        factor = int(round(ratio))
        if factor < 1 or abs(ratio - factor) > 1e-9:
            raise ValueError(f"delta {delta} is not an integer multiple of the fine step {y_fine.dt}")
        approx = robust_filter(model, y_fine.coarsen(factor), rho0)
        sup_error = max(
            max_abs(approx[i].rho - oracle[i * factor].rho) for i in range(len(approx))
        )
        rows.append(
            ConvergenceRow(
                delta=float(delta),
                sup_error=float(sup_error),
                w_sliding=y_fine.modulus_of_continuity(delta, "sliding"),
                w_initial=y_fine.modulus_of_continuity(delta, "initial"),
            )
        )
    return rows


@dataclass(frozen=True)
class LipschitzRow:
    epsilon: float
    sup_gap_rho: float
    sup_gap_rho_tilde: float
    ratio: float


def lipschitz_report(model, record: MeasurementRecord, epsilons, rho0=None) -> list[LipschitzRow]:
    """Response of the filter to record perturbations of sup-norm ``eps``.

    The perturbation has a fixed shape (one sine arch over the record span,
    sup-norm 1) scaled by ``eps``; the gap is reported for both the
    normalized and the unnormalized states, and ``ratio`` is the normalized
    gap per unit ``eps``.
    """
    if rho0 is None:
        rho0 = np.eye(model.dim, dtype=complex) / model.dim
    base = robust_filter(model, record, rho0)
    base_tilde = [s.rho_tilde() for s in base]
    shape = np.sin(2.0 * np.pi * (record.times - record.t0) / record.duration)
    shape_inc = np.diff(shape)
    rows = []
    for eps in epsilons:
        if eps < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {eps}")
        if eps == 0.0:
            rows.append(LipschitzRow(0.0, 0.0, 0.0, 0.0))
            continue
        perturbed = MeasurementRecord(record.dt, record.increments + eps * shape_inc, record.t0)
        other = robust_filter(model, perturbed, rho0)
        gap_rho = max(max_abs(a.rho - b.rho) for a, b in zip(base, other))
        gap_tilde = max(max_abs(x - b.rho_tilde()) for x, b in zip(base_tilde, other))
        rows.append(LipschitzRow(float(eps), float(gap_rho), float(gap_tilde), float(gap_rho / eps)))
    return rows

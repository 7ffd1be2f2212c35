"""Trajectory and ensemble orchestration, plus convergence and continuity
diagnostics.

A trajectory is a pure function of ``(model, scheme, dt, T, rho0, seed)``:
the driving record, a diffusion record of increments ``dy`` or a counting
record, is generated online from the filtered state itself and returned
alongside its states, one ``diffusion.StatePath``, so that an offline
replay of the record gives the run's states bitwise.  A scheme's steps
come from one factory per record kind, ``diffusion._diffusion_steps`` or
``jump._jump_steps``, as one interface, ``diffusion._Steps``: a single run
is ``steps.run(steps.draw(rng, n))``, and only the record kind's module
knows what a run draws and how the record follows from the draws.
Ensembles give trajectory ``i`` the seed ``base_seed + i`` and run on one
batched engine, ``_run_batched``: it steps all trajectories together as
one stack of state coordinates with ``steps.many`` and keeps only the
running state sum, one array over the grid, and the final states.  Each
trajectory's states are bitwise those of ``run_trajectory`` with its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import (
    SCHEMES,  # noqa: F401  (re-exported: the diffusion schemes, which run_trajectory takes)
    DensityState,
    MeasurementRecord,
    Record,
    RobustStepper,
    StatePath,
    _diffusion_steps,
    _step_count,
    pathwise_filter,
    robust_filter,
)
# No code of this module calls ``sample_counting_record`` or
# ``jump_pathwise_solve``, but bench/spans.py traces them under these names
# here, as it does ``run_trajectory``, so they stay bound in this module.
from .jump import (  # noqa: F401
    CountingRecord,  # re-exported
    _jump_steps,
    jump_pathwise_solve,
    sample_counting_record,
)
from .linalg import dagger, hermitian_basis, max_abs, unvec, vec
from .model import BlochVector, DiffusionModel, JumpModel

# The single-state robust step, under the name bench/spans.py traces in
# this module; no code calls it.
_robust_advance = RobustStepper.advance

# Steps of random numbers a batched ensemble draws per trajectory at a time;
# it bounds the draw buffer at this many steps whatever the run length.
_DRAW_BLOCK = 256

# States whose coordinates a batched ensemble holds before it converts them
# to matrices and adds them to its mean path: 64 steps at 64 trajectories.
# The bench's `ens_robust` workload (64 trajectories) ran at a median 880k
# steps/s with 1024, 866k with 4096 and 878k with 16384, speeds within the
# runs' spread, with a peak RSS of 61.3, 61.4-61.6 and 62.7 MB (3 runs
# each, 2-core Xeon).
_SUM_BLOCK = 4096


@dataclass(frozen=True)
class TrajectoryResult:
    """One filtered run: uniform time grid, the :class:`StatePath` of its
    normalized states, Bloch path for 2x2 systems, the driving record, and
    the seed that produced it."""

    times: np.ndarray
    states: StatePath
    bloch: list[BlochVector] | None
    record: Record
    seed: int
    scheme: str


@dataclass(frozen=True)
class EnsembleResult:
    """Aggregate of independent trajectories: the mean normalized state at
    every grid point as one ``(m, n, n)`` array, the final-time states and,
    for 2x2 systems, Bloch vectors per trajectory and final-time Bloch
    statistics."""

    n_traj: int
    times: np.ndarray
    mean_rho_path: np.ndarray
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
    """RK4 integration of the mean evolution :func:`master_rhs`; the
    deterministic oracle that ensemble averages are checked against.
    Returns the ``n_steps + 1`` states, ``rho0`` first.

    The evolution is linear and time-invariant, ``d vec(rho)/dt = G
    vec(rho)`` on column-stacked ``vec(rho)``, with column ``j`` of ``G`` the
    evolution of the ``j``-th unit matrix, so one classical RK4 step of
    width ``dt`` is exactly the product with ``T = I + a (I + a/2 (I + a/3
    (I + a/4)))``, ``a = dt G``.  ``T`` is built once and each step is one
    matrix-vector product; the states agree with staged ``ode.rk4_step``
    steps of :func:`master_rhs` to rounding."""
    rho0 = np.asarray(rho0, dtype=complex)
    n = rho0.shape[0]
    eye = np.eye(n * n)
    a = dt * np.stack([vec(master_rhs(H, L, unvec(e, n))) for e in eye], axis=1)
    step = eye
    for j in (4, 3, 2, 1):
        step = eye + (a / j) @ step
    out = np.empty((n_steps + 1, n * n), dtype=complex)
    out[0] = vec(rho0)
    for k in range(n_steps):
        step.dot(out[k], out[k + 1])
    # out[k] is vec(rho_k), which read row by row is rho_k transposed
    return list(out.reshape(-1, n, n).transpose(0, 2, 1).copy())


def _state_columns(rhos) -> list[np.ndarray]:
    """The Bloch coordinates ``x``, ``y``, ``z`` and the purity of each state
    of the stack ``rhos``, as four columns: the one computation of these for
    run outputs.  Each entry is bitwise its state's in a stack of one, and
    each purity bitwise :func:`model.purity`.  A 1-level state has no Bloch
    coordinates: they are NaN."""
    r = np.asarray(rhos, dtype=complex)
    purities = np.einsum("bij,bji->b", r, r).real
    if r.shape[1] < 2:
        return [np.full(len(r), np.nan)] * 3 + [purities]
    return [2.0 * r[:, 1, 0].real, 2.0 * r[:, 1, 0].imag, (r[:, 0, 0] - r[:, 1, 1]).real, purities]


def _bloch_fast(rho: np.ndarray) -> BlochVector:
    """The Bloch vector of one state, unvalidated: :func:`_state_columns` on
    a stack of one (tests check it against the validating converter)."""
    return _bloch_path(_state_columns([rho]))[0]


def _bloch_path(columns: list[np.ndarray], dim: int = 2) -> list[BlochVector] | None:
    """The Bloch vectors of a stack of ``dim``-level states from its
    :func:`_state_columns`, or ``None`` unless ``dim`` is 2."""
    return list(map(BlochVector, *(c.tolist() for c in columns[:3]))) if dim == 2 else None


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


def _scheme_steps(model, scheme: str, dt: float, rho0, substeps: int):
    """The steps of ``scheme`` for the record kind of ``model``:
    ``diffusion._diffusion_steps`` or ``jump._jump_steps``."""
    if isinstance(model, DiffusionModel):
        return _diffusion_steps(model, scheme, dt, rho0, substeps)
    if isinstance(model, JumpModel):
        return _jump_steps(model, scheme, dt, rho0, substeps)
    raise TypeError(f"expected DiffusionModel or JumpModel, got {type(model).__name__}")


def _run_batched(steps, n: int, n_traj: int, base_seed: int):
    """Step the trajectories of an ensemble as one stack of coordinates.

    Trajectory ``i`` draws its numbers from its own generator seeded
    ``base_seed + i`` (see :func:`_draws`), and the stack step
    ``steps.many`` gives each element of the stack the arithmetic of a
    single run, so every state is bitwise the one ``run_trajectory``
    computes for that seed.  Returns the state sums over trajectories at
    every grid point, the final states and their ``log_lambda``.

    The stack's coordinates are held for up to ``_SUM_BLOCK // n_traj``
    grid points (at least one) and converted and summed once per block:
    each state is converted to a matrix with its own matrix-vector product,
    as a single run converts its own, and the matrices of a grid point are
    added in trajectory order, as a loop over trajectories adds them, so
    each sum is bitwise the one of its grid point alone.
    """
    basis = hermitian_basis(math.isqrt(steps.start.size))
    s = np.broadcast_to(steps.start, (n_traj, steps.start.size)).copy()
    log_lam = np.full(n_traj, steps.log0)
    sum_rho = np.empty((n + 1, basis.n, basis.n), dtype=complex)
    h = max(1, min(n + 1, _SUM_BLOCK // n_traj))
    held = np.empty((h,) + s.shape)  # grid point k in held[k % h]
    held[0] = s
    for k, x in enumerate(_draws(base_seed, n_traj, n, steps.draw), 1):
        s, dlog = steps.many(s, x, k - 1, _trajectory_in(base_seed, k))
        log_lam += dlog
        if k % h == 0:
            sum_rho[k - h : k] = basis.matrices(held).sum(axis=1)
        held[k % h] = s
    sum_rho[n - n % h :] = basis.matrices(held[: n % h + 1]).sum(axis=1)
    return sum_rho, basis.matrices(s), log_lam


def run_trajectory(model, scheme: str, dt: float, T: float, rho0, seed: int, substeps: int = 4) -> TrajectoryResult:
    """Run one trajectory, generating the driving record online.

    Replaying the returned record offline with the scheme's steps, as
    ``smefilter filter`` does, reproduces the same states bit for bit.
    """
    n = _step_count(dt, T)
    steps = _scheme_steps(model, scheme, dt, rho0, substeps)
    record, states = steps.run(steps.draw(np.random.default_rng(seed), n))
    return TrajectoryResult(
        times=record.times,
        states=states,
        bloch=_bloch_path(_state_columns(states.rho), states.rho.shape[1]),
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
    n = _step_count(dt, T)
    sum_rho, rho, log_lam = _run_batched(_scheme_steps(model, scheme, dt, rho0, substeps), n, n_traj, base_seed)
    times = dt * np.arange(n + 1)
    final_states = [DensityState(r, float(lam), n * dt) for r, lam in zip(rho, log_lam)]
    columns = _state_columns(rho)
    final_bloch = _bloch_path(columns, rho.shape[1])
    mean_rho_path = sum_rho / n_traj
    summary = {}
    if final_bloch is not None:
        summary["final_bloch_mean"] = {c: float(v.mean()) for c, v in zip("xyz", columns)}
        summary["final_bloch_stddev"] = {c: float(v.std()) for c, v in zip("xyz", columns)}
    summary["mean_purity"] = float(columns[3].mean())
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
    mean purity of the ensemble's summary.  Raises for an ensemble of a model
    of dimension other than 2, which has no Bloch vectors."""
    if ensemble.final_bloch is None:
        dim = ensemble.final_states[0].rho.shape[0]
        raise ValueError(f"steady-state Bloch statistics need a 2-level model, got dimension {dim}")
    coords = dict(zip("xyz", _state_columns([s.rho for s in ensemble.final_states])))
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
        "mean_purity": ensemble.summary["mean_purity"],
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
        sup_error = max_abs(approx.rho - oracle.rho[::factor])
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
    base_tilde = base.rho_tilde()
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
        gap_rho = max_abs(base.rho - other.rho)
        gap_tilde = max_abs(base_tilde - other.rho_tilde())
        rows.append(LipschitzRow(float(eps), float(gap_rho), float(gap_tilde), float(gap_rho / eps)))
    return rows

"""Trajectory and ensemble orchestration, plus convergence and continuity
diagnostics.

A trajectory is a pure function of ``(model, scheme, dt, T, rho0, seed)``:
the driving record, a diffusion record of increments ``dy`` or a counting
record, is generated online from the filtered state itself and returned
alongside its states, one ``diffusion.StatePath``, so that an offline
replay of the record gives the run's states bitwise.  A scheme's steps
come from one factory per record kind, ``diffusion._diffusion_steps`` or
``jump._jump_steps``, as one interface, ``diffusion._Steps``, and only the
record kind's module knows what a run draws and how the record follows
from the draws.  Every online run steps a stack of trajectories through one
loop, ``diffusion._online``, trajectory ``i`` of an ensemble with the seed
``base_seed + i``: a single run is the ensemble of one of its seed.  An
ensemble keeps only the running state sum, one array over the grid, and
the final states, each bitwise that of ``run_trajectory`` with its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .diffusion import (
    SCHEMES,  # noqa: F401  (re-exported: the diffusion schemes, which run_trajectory takes)
    _DRAW_BLOCK,
    DensityState,
    MeasurementRecord,
    Record,
    RobustStepper,
    StatePath,
    _diffusion_steps,
    _integer,
    _online,
    _path,
    _step_count,
    pathwise_filter,  # noqa: F401  (bench/spans.py traces this name in this module)
    pathwise_samples,
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

# The robust step of one state, under the name bench/spans.py traces in this
# module; no code calls it.
_robust_advance = RobustStepper.advance


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
    """The random numbers of the stack of an online run, in blocks of
    ``diffusion._DRAW_BLOCK`` steps: row ``j`` of a block holds its step
    ``j``'s number for every trajectory.

    Trajectory ``i`` draws from its own generator seeded ``base_seed + i``,
    a block at a time; ``draw(rng, size)`` gives the same stream in blocks
    as in one call, so the numbers are those a single run with that seed
    draws.
    """
    rngs = [np.random.default_rng(base_seed + i) for i in range(n_traj)]
    for k in range(0, n, _DRAW_BLOCK):
        size = min(_DRAW_BLOCK, n - k)
        yield np.stack([draw(g, size) for g in rngs], axis=1)


def _trajectory_in(base_seed, step):
    """How an ensemble names trajectory ``b`` in the errors of its
    ``step``-th step (counted from 1, ending at ``t = step dt``), so that the
    failing run can be replayed with ``run_trajectory``."""
    return lambda b: f"trajectory {b} (seed {base_seed + b}) in step {step}"


def _scheme_steps(model, scheme: str, dt: float, rho0):
    """The steps of ``scheme`` for the record kind of ``model``:
    ``diffusion._diffusion_steps`` or ``jump._jump_steps``."""
    if isinstance(model, DiffusionModel):
        return _diffusion_steps(model, scheme, dt, rho0)
    if isinstance(model, JumpModel):
        return _jump_steps(model, scheme, dt, rho0)
    raise TypeError(f"expected DiffusionModel or JumpModel, got {type(model).__name__}")


def run_trajectory(model, scheme: str, dt: float, T: float, rho0, seed: int) -> TrajectoryResult:
    """Run one trajectory, generating the driving record online: the
    ensemble of one of ``seed``, whose errors name the step and its time.

    Replaying the returned record offline with the scheme's steps, as
    ``smefilter filter`` does, reproduces the same states bit for bit.
    """
    n = _step_count(dt, T)
    steps = _scheme_steps(model, scheme, dt, rho0)
    record, states = _path(steps, n, _draws(seed, 1, n, steps.draw))
    return TrajectoryResult(
        times=record.times,
        states=states,
        bloch=_bloch_path(_state_columns(states.rho), states.rho.shape[1]),
        record=record,
        seed=int(seed),
        scheme=scheme,
    )


def run_ensemble(model, scheme: str, dt: float, T: float, rho0, n_traj: int, base_seed: int) -> EnsembleResult:
    """Run ``n_traj`` independent trajectories with seeds ``base_seed + i``;
    aggregates the mean state path and final-time Bloch statistics.

    The trajectories step together as one stack through the loop of every
    online run, ``diffusion._online``, so trajectory ``i`` ends bitwise
    where ``run_trajectory`` with seed ``base_seed + i`` ends.  A failure
    names the trajectory, its seed, the step and the time.

    The online loop hands over the states of several steps a call
    (``steps.span`` at most), and each call's states are converted and
    summed into the mean path as they come: each state is converted to a
    matrix with its own matrix-vector product, as a single run converts its
    own, and the matrices of a grid point are added in trajectory order, as
    a loop over trajectories adds them, so each sum of the mean path is
    bitwise the one of its grid point alone.  Each trajectory's log factors
    are added in sequence, as a single run adds them.

    ``n_traj`` must be an integer, Python's or numpy's, not a bool, and at
    least 1; it is checked before any work.
    """
    n_traj = _integer(n_traj, "n_traj")
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    n = _step_count(dt, T)
    steps = _scheme_steps(model, scheme, dt, rho0)
    basis = hermitian_basis(math.isqrt(steps.start.size))
    sum_rho = np.empty((n + 1, basis.n, basis.n), dtype=complex)
    sum_rho[0] = basis.matrices(np.tile(steps.start, (1, n_traj, 1))).sum(axis=1)
    k, log_lam = 1, np.full(n_traj, steps.log0)
    blocks = _draws(base_seed, n_traj, n, steps.draw)
    for states, _, dlogs in _online(steps, n_traj, blocks, partial(_trajectory_in, base_seed)):
        dlogs[0] += log_lam
        log_lam = np.add.accumulate(dlogs, out=dlogs)[-1]
        sum_rho[k : k + len(states)] = basis.matrices(states).sum(axis=1)
        k += len(states)
    rho = basis.matrices(states[-1])
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


def convergence_report(model, y_fine: MeasurementRecord, deltas, rho0=None) -> list[ConvergenceRow]:
    """Error of the implicit filter at each step size against the fine
    pathwise oracle run on the same record.

    The oracle, :func:`pathwise_samples`, solves the pathwise flow exactly on
    the piecewise-linear interpolant of the fine record, one matrix
    exponential per fine step, and is sampled only where the report reads
    it: at multiples of ``every``, the greatest common divisor of the
    coarse factors, it steps one product of ``every`` fine step maps per
    chunk, within about ``every n^2 eps`` of :func:`pathwise_filter` (and
    bitwise it at ``every = 1``).

    ``deltas`` must not be empty, and each ``delta`` must be an integer
    multiple of the fine step that divides the record; every delta is
    checked before the oracle runs.  The
    record's modulus of continuity over windows of width ``delta`` is
    reported in two readings: ``w_sliding`` maximizes over all windows,
    ``w_initial`` only over the first one.
    """
    deltas = list(deltas)
    if rho0 is None:
        rho0 = np.eye(model.dim, dtype=complex) / model.dim
    factors = [_coarse_factor(delta, y_fine.dt) for delta in deltas]
    if not factors:
        raise ValueError("deltas must not be empty")
    coarse = [y_fine.coarsen(factor) for factor in factors]
    every = math.gcd(*factors)
    oracle = pathwise_samples(model, y_fine, rho0, every)
    rows = []
    for delta, factor, record in zip(deltas, factors, coarse):
        approx = robust_filter(model, record, rho0)
        sup_error = max_abs(approx.rho - oracle.rho[:: factor // every])
        rows.append(
            ConvergenceRow(
                delta=float(delta),
                sup_error=float(sup_error),
                w_sliding=y_fine.modulus_of_continuity(delta, "sliding"),
                w_initial=y_fine.modulus_of_continuity(delta, "initial"),
            )
        )
    return rows


def _coarse_factor(delta, fine_dt: float) -> int:
    """The whole number ``delta / fine_dt`` of fine steps in a coarse step of
    width ``delta``; raises ``ValueError`` unless it is one, at least 1."""
    ratio = delta / fine_dt
    factor = round(ratio) if math.isfinite(ratio) else 0
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise ValueError(f"delta {delta} is not an integer multiple of the fine step {fine_dt}")
    return factor


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
    epsilons = list(epsilons)
    for eps in epsilons:
        if not math.isfinite(eps):
            raise ValueError(f"epsilon must be finite, got {eps}")
        if eps < 0.0:
            raise ValueError(f"epsilon must be nonnegative, got {eps}")
    if rho0 is None:
        rho0 = np.eye(model.dim, dtype=complex) / model.dim
    base = robust_filter(model, record, rho0)
    base_tilde = base.rho_tilde()
    shape = np.sin(2.0 * np.pi * (record.times - record.t0) / record.duration)
    shape_inc = np.diff(shape)
    rows = []
    for eps in epsilons:
        if eps == 0.0:
            rows.append(LipschitzRow(0.0, 0.0, 0.0, 0.0))
            continue
        perturbed = MeasurementRecord(record.dt, record.increments + eps * shape_inc, record.t0)
        other = robust_filter(model, perturbed, rho0)
        gap_rho = max_abs(base.rho - other.rho)
        gap_tilde = max_abs(base_tilde - other.rho_tilde())
        rows.append(LipschitzRow(float(eps), float(gap_rho), float(gap_tilde), float(gap_rho / eps)))
    return rows

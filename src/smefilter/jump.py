"""Evolutions driven by a counting (photon-detection) record.

The counting analog of the diffusion machinery: explicit steppers for the
normalized and linear (unnormalized) jump equations, the pathwise route, and
online runs that draw each step's count with probability
``eta lam tr(C rho C^dag) dt`` from the state they evolve.  In the pathwise
route the gauge ``A = C^(-N_t)`` is piecewise constant and commutes with
``C``, so between counts the state follows a linear, time-invariant flow
whose exact one-step propagator is a single matrix exponential, computed
once per record; a count applies the jump map ``rho -> C rho C^dag``.  That
needs no ``C^-1``, so non-invertible jump operators such as ``C = sigma``
are solved as well; only the gauge-frame state ``r = A rho~ A^dag``, which
:func:`jump_pathwise_solve` alone builds, needs ``C`` invertible.

Each scheme has one stack step ``(rho, dn, t, where) -> (rho, dlog)``,
ending in the shared tail ``diffusion._renormalize_many``: the Euler step
:func:`_euler_step_many` for ``em``, the exact :func:`_exact_step_many` for
``pathwise``.  :func:`_jump_steps` chooses it, with the online step that
draws each count from the state it evolves and then takes it
(:func:`_sampler`), in one place.  Ensembles take these steps on the whole
stack; single runs, replays (:func:`_replay`) and :func:`jump_sme_step` on a
stack of one, so every replay of a run's record is bitwise that run.

Within one step the drift is applied first, then the count map; the two
orders differ only at higher order in ``dt``, and a fixed convention keeps
runs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .diffusion import (
    SCHEMES,
    DensityState,
    NonFiniteStateError,
    PathwiseState,
    _apply_maps,
    _batch_element,
    _grid,
    _normalized_density,
    _read_record,
    _renormalize_many,
    _step_count,
    _step_width,
    _write_record,
    recover,  # noqa: F401  (bench/spans.py traces this name in this module)
)
from .linalg import as_square, dagger, expm, kron, require_hermitian
from .ode import rk4_step  # noqa: F401  (bench/spans.py traces this name in this module)


class InvalidCountingRecordError(ValueError):
    """A count appears where the jump map annihilates the state."""


@dataclass(frozen=True)
class CountingRecord:
    """Uniformly sampled counting record: per-step increments ``dN in {0, 1}``
    over steps of width ``dt`` starting at ``t0``."""

    dt: float
    counts: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        dt, t0 = _grid(self.dt, self.t0)
        c = np.asarray(self.counts)
        if c.ndim != 1:
            raise ValueError(f"counts must be one-dimensional, got shape {c.shape}")
        if c.size and not np.isin(c, (0, 1)).all():
            raise ValueError("count increments must all be 0 or 1")
        c = c.astype(int)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t0", t0)

    @property
    def n_steps(self) -> int:
        return int(self.counts.size)

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def cumulative_counts(self) -> np.ndarray:
        """Nondecreasing count ``N`` at the grid points, ``N[0] = 0``."""
        n = np.zeros(self.n_steps + 1, dtype=int)
        np.cumsum(self.counts, out=n[1:])
        return n

    @property
    def jump_times(self) -> np.ndarray:
        """Times at which a count is registered (step end times)."""
        return self.times[1:][self.counts == 1]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def write_counting_record(path, record: CountingRecord, comments: Sequence[str] = ()) -> None:
    """Write a record as CSV with header ``t,dN`` (times are interval ends)."""
    _write_record(path, "counting-record", "dN", record, record.counts, "%d", comments)


def read_counting_record(path) -> CountingRecord:
    """Read a CSV written by :func:`write_counting_record`."""
    dt, t0, values = _read_record(path, "dN", int)
    return CountingRecord(dt, np.array(values, dtype=int), t0)


@dataclass
class JumpGauge:
    """Piecewise-constant gauge ``A = C^(-N)``, updated only when a count
    arrives; owned by a single trajectory."""

    c: np.ndarray
    c_inv: np.ndarray
    count: int
    a: np.ndarray
    a_inv: np.ndarray

    @classmethod
    def identity(cls, model) -> "JumpGauge":
        if model.C_inv is None:
            raise ValueError(
                "jump operator C is not invertible: the gauge C^(-N) is undefined"
            )
        n = model.dim
        return cls(
            c=model.C,
            c_inv=model.C_inv,
            count=0,
            a=np.eye(n, dtype=complex),
            a_inv=np.eye(n, dtype=complex),
        )

    def advance(self) -> None:
        """Register one count: ``A -> A C^-1`` and ``A^-1 -> C A^-1``."""
        self.a = self.a @ self.c_inv
        self.a_inv = self.c @ self.a_inv
        self.count += 1


def jump_sme_step(model, rho, dn: int, dt: float) -> np.ndarray:
    """One explicit Euler step of the normalized counting-record equation:
    drift ``[-G rho - rho G^dag + (1-eta) lam J rho + eta lam rho tr(J rho)] dt``
    followed, when ``dn = 1``, by the count map ``rho -> J rho / tr(J rho)``,
    then renormalization.  It is :func:`_euler_step_many` on a stack of one;
    its errors name no time."""
    if dn not in (0, 1):
        raise ValueError(f"dn must be 0 or 1, got {dn}")
    rho, _ = _euler_step_many(model, as_square(rho)[None], np.array([dn]), _step_width(dt), None, None)
    return rho[0]


def jump_unnorm_step(model, rho_tilde, dn: int, dt: float) -> np.ndarray:
    """One explicit Euler step of the linear counting-record equation:
    ``rho~ += [-G rho~ - rho~ G^dag + (1-eta) lam J rho~ + eta lam rho~] dt``,
    then ``rho~ -> J rho~`` when ``dn = 1``."""
    if dn not in (0, 1):
        raise ValueError(f"dn must be 0 or 1, got {dn}")
    dt = _step_width(dt)
    rt = as_square(rho_tilde)
    C, G, lam, eta = model.C, model.G, model.lam, model.eta
    drift = -(G @ rt) - (rt @ dagger(G)) + (1.0 - eta) * lam * (C @ rt @ dagger(C)) + eta * lam * rt
    out = rt + dt * drift
    if dn:
        out = C @ out @ dagger(C)
    if not np.isfinite(out).all():
        raise NonFiniteStateError(message="unnormalized jump state blew up")
    return out


def count_probability(model, rho, dt: float, t: float | None = None) -> float:
    """Per-step count probability ``eta lam tr(C rho C^dag) dt`` of the
    state ``rho``, rounded as an online ``pathwise`` run rounds it.

    Raises when the probability reaches 0.1: the per-step Bernoulli
    approximation of the point process degrades there, so decrease ``dt``.
    """
    intensity = _intensities(dagger(model.C) @ model.C, np.asarray(rho, dtype=complex)[None])
    return float(_count_probabilities(model, intensity, dt, t)[0])


def _intensities(cdc: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The count intensities ``tr(C rho[b] C^dag) = tr(C^dag C rho[b])`` of
    a stack of states, from ``cdc = C^dag C``; each element rounds as it
    does in a stack of one."""
    return np.einsum("ij,bji->b", cdc, rho).real


def _count_probabilities(model, intensity: np.ndarray, dt: float, t: float | None, where=None) -> np.ndarray:
    """The count probabilities ``eta lam intensity[b] dt`` of a stack in a
    step starting at time ``t``, checked as :func:`count_probability`
    checks one; the error names the failing element as ``where(b)``."""
    p = model.eta * model.lam * intensity * dt
    bad = p >= 0.1
    if bad.any():
        b = int(bad.argmax())
        of = "" if where is None else f" for {where(b)}"
        at = "" if t is None else f" at t = {t:.6g}"
        raise ValueError(f"per-step count probability {p[b]:.3f} >= 0.1{of}{at}; use a smaller dt")
    return p


def _invalid_count(t, tr: float, b: int, where) -> InvalidCountingRecordError:
    """The error for a count arriving at time ``t`` on element ``b`` of a
    stack, whose ``tr(C rho C^dag)`` is ``tr``; it names the element as
    ``where(b)``, and ``None`` for ``t`` or ``where`` names no time or
    element."""
    at = "" if t is None else f" at t = {t:.6g}"
    of = "" if where is None else f" for {where(b)}"
    return InvalidCountingRecordError(
        f"count arrived{at} where tr(C rho C^dag) = {tr:.3e}{of}: record is invalid for this model"
    )


def _euler_step_many(model, rho: np.ndarray, dn: np.ndarray, dt: float, t, where=_batch_element):
    """The explicit-Euler step of :func:`jump_sme_step` for a stack of states
    ``rho[b]`` with counts ``dn[b]``, over a step of width ``dt`` ending at
    time ``t``.  Each element is bitwise its step in a stack of one.

    Returns the new states and the log trace growth of the matching linear
    step: ``log(1 + dt eta lam (1 - tr(J rho)))`` for the drift, plus on a
    count ``log tr(J rho)`` of the post-drift state.  Errors name the
    failing element as ``where(b)`` and the time ``t``; ``None`` names none.
    """
    C, G, lam, eta = model.C, model.G, model.lam, model.eta
    c_dag = dagger(C)
    j_rho = C @ rho @ c_dag
    tr_j = np.trace(j_rho, axis1=1, axis2=2).real
    drift = -(G @ rho) - (rho @ dagger(G)) + (1.0 - eta) * lam * j_rho + (eta * lam * tr_j)[:, None, None] * rho
    out = rho + dt * drift
    dlog = np.log1p(dt * eta * lam * (1.0 - tr_j))
    if dn.any():
        hit = np.flatnonzero(dn)
        before = out[hit]
        j_out = C @ before @ c_dag
        tr_jo = np.trace(j_out, axis1=1, axis2=2).real
        bad = ~(np.isfinite(tr_jo) & (tr_jo > 1e-300))
        if bad.any():
            b = int(bad.argmax())
            raise _invalid_count(t, tr_jo[b], hit[b], where)
        dlog[hit] += np.log(tr_jo / np.trace(before, axis1=1, axis2=2).real)
        out[hit] = j_out / tr_jo[:, None, None]
    return _renormalize_many(out, t, "normalized jump state", where)[0], dlog


def _sampler(model, intensity, replay, dt: float):
    """The online step ``sample(rho, u, t, where) -> (dn, rho, dlog)`` from
    time ``t`` of a stack of states ``rho[b]`` with uniforms ``u[b]``: a
    count registers when ``u[b]`` is below the count probability
    ``eta lam intensity(rho)[b] dt``, and the stack then takes the step
    ``replay(rho, dn, t + dt, where)``.  Errors name the failing element as
    ``where(b)``: the count-probability check at ``t``, the others at the
    step's end ``t + dt``."""

    def sample(rho, u, t, where=_batch_element):
        dn = u < _count_probabilities(model, intensity(rho), dt, t, where)
        return (dn, *replay(rho, dn, t + dt, where))

    return sample


def _exact_propagator(model, dt: float):
    """The jump map ``conj(C) (x) C`` and the exact one-step propagator
    ``Phi = expm(dt Gen)`` of :func:`jump_pathwise_solve` on column-stacked
    vectors."""
    n = model.dim
    C, G, lam, eta = model.C, model.G, model.lam, model.eta
    eye = np.eye(n, dtype=complex)
    jump_map = kron(C.conj(), C)
    generator = (
        (1.0 - eta) * lam * jump_map - kron(eye, G) - kron(G.conj(), eye) + eta * lam * np.eye(n * n)
    )
    return jump_map, expm(dt * generator)


def _exact_start(r0):
    """The normalized, hermitized initial state of the exact solve and its
    ``log_lambda``, the log of the trace of ``r0``."""
    r = require_hermitian(r0, "r0")
    tr = float(np.trace(r).real)
    if tr <= 0.0:
        raise ValueError("r0 must have positive trace")
    rho = r / tr
    return 0.5 * (rho + dagger(rho)), float(np.log(tr))


def _exact_step_many(jump_map, phi, rho: np.ndarray, dn: np.ndarray, t: float, where=_batch_element):
    """One step of :func:`jump_pathwise_solve` for a stack of states
    ``rho[b]`` with counts ``dn[b]``, ending at time ``t``; returns the new
    states and the log traces added to ``log_lambda``.

    ``Phi``, and on a count the jump map, go through
    :func:`diffusion._apply_maps`, so each result is bitwise what the step
    gives for that element alone, whatever else is in the stack.  Errors
    name the failing element as ``where(b)``.
    """
    x = _apply_maps(phi, rho)
    if dn.any():
        hit = np.flatnonzero(dn)
        x[hit] = _apply_maps(jump_map, x[hit])
    try:
        return _renormalize_many(x, t, "pathwise jump state", where)
    except NonFiniteStateError:
        for b in np.flatnonzero(dn):  # a count on a state that C annihilates is the record's fault
            tr = np.trace(x[b]).real if np.isfinite(x[b]).all() else np.nan
            if tr <= 0.0:
                raise _invalid_count(t, tr, b, where) from None
        raise


class _JumpSteps(NamedTuple):
    """The steps of one counting scheme; see :func:`_jump_steps`."""

    sample: Callable
    replay: Callable
    start: np.ndarray
    log0: float


def _jump_steps(model, scheme: str, dt: float, rho0, substeps: int = 4) -> _JumpSteps:
    """The stack steps of the counting ``scheme`` over steps of width ``dt``
    and its start state and ``log_lambda`` from ``rho0``.  ``replay(rho, dn,
    t, where) -> (rho, dlog)`` steps to time ``t`` with the counts ``dn``:
    :func:`_euler_step_many` from the normalized ``rho0`` and 0 for ``em``,
    :func:`_exact_step_many` from the start of :func:`jump_pathwise_solve`
    for ``pathwise``.  ``sample`` (see :func:`_sampler`) draws each count
    from the state it evolves, with the intensity ``tr(C rho C^dag)`` of
    :func:`count_probability` for ``pathwise``, and takes ``replay``.
    Single runs, ensembles and replays all take these steps."""
    if scheme == "robust":
        raise ValueError("scheme 'robust' applies to diffusion models; use 'em' or 'pathwise'")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if scheme == "pathwise" and substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    start = _normalized_density(rho0)
    if scheme == "em":
        c_dag = dagger(model.C)

        def intensity(rho):
            return np.trace(model.C @ rho @ c_dag, axis1=1, axis2=2).real

        def replay(rho, dn, t, where):
            return _euler_step_many(model, rho, dn, dt, t, where)

        return _JumpSteps(_sampler(model, intensity, replay, dt), replay, start, 0.0)
    replay = partial(_exact_step_many, *_exact_propagator(model, dt))
    intensity = partial(_intensities, dagger(model.C) @ model.C)
    return _JumpSteps(_sampler(model, intensity, replay, dt), replay, *_exact_start(start))


def _online_run(steps: _JumpSteps, dt: float, n: int, seed: int, t0: float = 0.0):
    """One online counting run over ``n`` steps from ``t0``: the ``sample``
    step of :func:`_jump_steps` on a stack of one state, with one uniform
    per step from ``default_rng(seed)``.  A batched ensemble takes the same
    step, so each of its trajectories is bitwise this run.  Errors name the
    step, counted from 1, and its time.  Returns the counting record and the
    states at every grid point."""
    uniforms = np.random.default_rng(seed).random(n)
    times = t0 + dt * np.arange(n + 1)
    counts = np.zeros(n, dtype=int)
    log_lam = steps.log0
    states = [DensityState(steps.start, log_lam, float(times[0]))]
    stack = steps.start[None]
    for k in range(n):
        dn, stack, dlog = steps.sample(stack, uniforms[k : k + 1], float(times[k]), lambda _b, k=k: f"step {k + 1}")
        counts[k] = dn[0]
        log_lam += float(dlog[0])
        states.append(DensityState(stack[0], log_lam, float(times[k + 1])))
    return CountingRecord(dt, counts, t0), states


def sample_counting_record(model, rho0, dt: float, T: float, seed: int, t0: float = 0.0) -> CountingRecord:
    """Sample a counting record online from the exact pathwise state.

    Each step draws one uniform ``u`` and registers a count when
    ``u < eta lam tr(C rho C^dag) dt``, with ``rho`` the exact normalized
    state of the record so far; the state then takes the exact step of
    :func:`jump_pathwise_solve`.  So the record is the one
    ``run_trajectory(model, "pathwise", ...)`` samples with this seed, and
    deterministic given the seed.  Errors name the step and its time.
    """
    n = _step_count(dt, T)
    return _online_run(_jump_steps(model, "pathwise", dt, rho0), dt, n, seed, t0)[0]


def _replay(step, rho: np.ndarray, log_lam: float, record: CountingRecord) -> list[DensityState]:
    """The states along ``record`` from ``rho`` with ``log_lam`` at its
    start: the stack step ``step(rho, dn, t, where)`` of a scheme on a stack
    of one, naming the step, counted from 1, in its errors."""
    times = record.times.tolist()
    states = [DensityState(rho, log_lam, times[0])]
    stack = rho[None]
    for k, dn in enumerate(record.counts[:, None]):
        stack, dlog = step(stack, dn, times[k + 1], lambda _b, k=k: f"step {k + 1}")
        log_lam += float(dlog[0])
        states.append(DensityState(stack[0], log_lam, times[k + 1]))
    return states


def jump_pathwise_solve(model, record: CountingRecord, r0, substeps: int = 4):
    """Solve the pathwise flow exactly along a counting record.

    The gauge ``A = C^(-N_t)`` commutes with ``C``, so in the original frame
    ``rho~ = A^-1 r A^-dag`` obeys, between counts, the linear time-invariant
    equation
    ``rho~' = -G rho~ - rho~ G^dag + (1-eta) lam C rho~ C^dag + eta lam rho~``.
    On column-stacked vectors its generator is
    ``Gen = -(I (x) G) - (conj(G) (x) I) + (1-eta) lam (conj(C) (x) C) + eta lam I``,
    and ``Phi = expm(dt Gen)`` is the exact propagator over one step, built
    once.  Each step applies ``Phi``, then ``conj(C) (x) C`` on a count,
    renormalizes (adding the log of the trace to ``log_lambda``) and
    hermitizes: it is :func:`_exact_step_many` on a stack of one state, the
    step an online ``pathwise`` run takes, so replaying that run's record
    gives its states bitwise.

    Returns ``(r_path, recovered)``: the recovered normalized states with
    ``log_lambda`` at every grid point (``r0`` need not be normalized; its
    log trace is the initial ``log_lambda``), and the gauge-frame states
    ``r = A rho~ A^dag``, continuous across counts.  ``r_path`` is ``None``
    when ``C`` is not invertible, since the gauge frame does not exist then;
    the recovered states never need ``C^-1``.

    ``substeps`` is validated for the callers that pass it but not used:
    the flow between grid points is exact.  Raises
    :class:`InvalidCountingRecordError` for a count on a state that ``C``
    annihilates, and :class:`NonFiniteStateError` when the state stops being
    finite; both name the step and its time.
    """
    if substeps < 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    rho, log_lam = _exact_start(r0)
    recovered = _replay(partial(_exact_step_many, *_exact_propagator(model, record.dt)), rho, log_lam, record)
    if model.C_inv is None:
        return None, recovered
    gauge = JumpGauge.identity(model)
    gauges = [gauge.a]
    for _ in range(record.total):
        gauge.advance()
        gauges.append(gauge.a)
    a = np.stack(gauges)[record.cumulative_counts()]
    scale = np.exp([s.log_lambda for s in recovered])[:, None, None]
    r = scale * (a @ np.stack([s.rho for s in recovered]) @ a.conj().transpose(0, 2, 1))
    return [PathwiseState(rk, float(tk)) for rk, tk in zip(r, record.times)], recovered


def jump_pathwise_schrodinger_rhs(model, a_t, a_t_inv, phi) -> np.ndarray:
    """Pure-state reduction of the gauge-frame flow,
    ``dphi/dt = (-A G A^-1 + (lam/2) I) phi``; valid only for eta = 1."""
    if abs(model.eta - 1.0) > 1e-12:
        raise ValueError(
            f"jump pathwise Schrodinger reduction requires eta = 1, got eta = {model.eta}"
        )
    op = -(a_t @ model.G @ a_t_inv) + 0.5 * model.lam * np.eye(model.dim, dtype=complex)
    return op @ np.asarray(phi, dtype=complex)

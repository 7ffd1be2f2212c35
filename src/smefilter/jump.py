"""Evolutions driven by a counting (photon-detection) record.

The counting analog of the diffusion machinery: explicit steppers for the
normalized and linear (unnormalized) jump equations, the pathwise route, and
online runs that draw each step's count with probability
``eta lam tr(C rho C^dag) dt`` from the state they evolve.  The record kind
:class:`CountingRecord` lives beside the diffusion one in ``diffusion`` and
is re-exported here.  In the pathwise route the gauge ``A = C^(-N_t)`` is
piecewise constant and commutes with ``C``, so between counts the state
follows a linear, time-invariant flow whose exact one-step propagator is a
single matrix exponential, computed once per record; a count applies the
jump map ``rho -> C rho C^dag``.  That needs no ``C^-1``, so non-invertible
jump operators such as ``C = sigma`` are solved as well; only the
gauge-frame state ``r = A rho~ A^dag``, which :func:`jump_pathwise_solve`
alone builds, needs ``C`` invertible.

Each scheme has one stack step ``(s, dn, t, where) -> (s, dlog)`` on the
real coordinates ``s`` of the states in the Hermitian basis of
``linalg.hermitian_basis``, ending in the shared real tail
``diffusion._renormalize``: the Euler step :func:`_euler_step_many` for
``em``, the exact :func:`_exact_step_many` for ``pathwise``.  The drift,
the jump map ``rho -> C rho C^dag`` and the exact propagator are real
``n^2 x n^2`` matrices, built once, and the count intensity
``tr(C rho C^dag)`` a real functional.  :func:`_jump_steps` builds a
scheme's steps, the interface ``diffusion._Steps`` that the diffusion
schemes share, around it: a run draws one uniform per step and counts when
it falls below the count probability of the state the run evolves.  Online
runs take the stack step through the one online loop ``diffusion._online``,
a single run on a stack of one, and so do replays and :func:`jump_sme_step`,
so every replay of a run's record is bitwise that run.

Within one step the drift is applied first, then the count map; the two
orders differ only at higher order in ``dt``, and a fixed convention keeps
runs deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .diffusion import (
    SCHEMES,
    CountingRecord,
    NonFiniteStateError,
    PathwiseState,
    _apply_maps,
    _batch_element,
    _path,
    _renormalize,
    _step_count,
    _step_width,
    _Steps,
    _start,
    _steps,
    _unnormalized_start,
    recover,  # noqa: F401  (bench/spans.py traces this name in this module)
)
from .linalg import as_square, dagger, expm, hermitian_basis, kron
from .ode import rk4_step  # noqa: F401  (bench/spans.py traces this name in this module)


class InvalidCountingRecordError(ValueError):
    """A count appears where the jump map annihilates the state."""


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
    then renormalization.  It is :func:`_euler_step_many` on a stack of one,
    from the coordinates of the Hermitian part of ``rho``; its errors name
    no time."""
    if dn not in (0, 1):
        raise ValueError(f"dn must be 0 or 1, got {dn}")
    rho = as_square(rho)
    basis = hermitian_basis(rho.shape[0])
    maps = _euler_maps(model, _step_width(dt))
    s, _ = _euler_step_many(maps, basis.coords(rho)[None], np.array([dn]), None, None)
    return basis.matrices(s[0])


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
    state ``rho``, rounded as an online ``pathwise`` run rounds it for the
    coordinates of ``rho``.

    Raises when the probability reaches 0.1: the per-step Bernoulli
    approximation of the point process degrades there, so decrease ``dt``.
    """
    rho = as_square(rho)
    intensity = _apply_maps(_intensity(model), hermitian_basis(rho.shape[0]).coords(rho))[0]
    return float(_count_probabilities(model, intensity, _step_width(dt), t))


def _intensity(model) -> np.ndarray:
    """The count intensity ``tr(C rho C^dag)`` as a real functional of the
    coordinates, a ``1 x n^2`` map."""
    return hermitian_basis(model.dim).functional(dagger(model.C) @ model.C)[None]


def _count_probabilities(model, intensity: np.ndarray, dt: float, t: float | None, where=None) -> np.ndarray:
    """The count probabilities ``eta lam intensity[b] dt`` of a stack, or
    the one of a single state, in a step starting at time ``t``, checked as
    :func:`count_probability` checks one; the error names the failing
    element as ``where(b)``."""
    p = model.eta * model.lam * intensity * dt
    bad = p >= 0.1
    if bad.any():
        b = int(np.argmax(bad))
        of = "" if where is None else f" for {where(b)}"
        at = "" if t is None else f" at t = {t:.6g}"
        raise ValueError(f"per-step count probability {np.ravel(p)[b]:.3f} >= 0.1{of}{at}; use a smaller dt")
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


class _EulerMaps(NamedTuple):
    """The real maps of the explicit-Euler counting step on coordinates:
    ``step``, whose row 0 is the intensity ``tr(C rho C^dag)`` and whose
    other ``n^2`` rows are the drift ``dt (-G rho - rho G^dag + (1-eta) lam
    C rho C^dag)``, so one product gives both; ``jump``, the map ``rho -> C
    rho C^dag``; and ``rate``, ``dt eta lam``."""

    step: np.ndarray
    jump: np.ndarray
    rate: float


def _euler_maps(model, dt: float) -> _EulerMaps:
    """The :class:`_EulerMaps` of ``model`` for steps of width ``dt``."""
    C, G, lam, eta = model.C, model.G, model.lam, model.eta
    basis = hermitian_basis(model.dim)
    eye = np.eye(model.dim, dtype=complex)
    jump_map = kron(C.conj(), C)
    drift = -kron(eye, G) - kron(G.conj(), eye) + (1.0 - eta) * lam * jump_map
    step = np.vstack([_intensity(model), basis.real_map(dt * drift)])
    return _EulerMaps(step, basis.real_map(jump_map), dt * eta * lam)


def _euler_step_many(maps: _EulerMaps, s: np.ndarray, dn: np.ndarray, t, where=_batch_element):
    """The explicit-Euler step of :func:`jump_sme_step` for a stack of
    coordinates ``s[b]`` with counts ``dn[b]``, with the maps of
    :func:`_euler_maps` for a step ending at time ``t``.  Each element is
    bitwise its step in a stack of one.

    Returns the new coordinates and the log trace growth of the matching
    linear step: ``log(1 + dt eta lam (1 - tr(J rho)))`` for the drift, plus
    on a count ``log tr(J rho)`` of the post-drift state.  Errors name the
    failing element as ``where(b)`` and the time ``t``; ``None`` names none.
    """
    y = _apply_maps(maps.step, s)
    tr_j = y[:, 0]
    out = s + y[:, 1:] + (maps.rate * tr_j)[:, None] * s
    dlog = np.log1p(maps.rate * (1.0 - tr_j))
    if dn.any():
        hit = np.flatnonzero(dn)
        before = out[hit]
        j_out = _apply_maps(maps.jump, before)
        tr_jo = j_out[:, 0]
        bad = ~(np.isfinite(tr_jo) & (tr_jo > 1e-300))
        if bad.any():
            b = int(bad.argmax())
            raise _invalid_count(t, tr_jo[b], hit[b], where)
        dlog[hit] += np.log(tr_jo / before[:, 0])
        out[hit] = j_out / tr_jo[:, None]
    return _renormalize(out, t, "normalized jump state", where)[0], dlog


def _exact_propagator(model, dt: float):
    """The jump map ``rho -> C rho C^dag`` and the exact one-step propagator
    ``Phi = expm(dt Gen)`` of :func:`jump_pathwise_solve`, both real
    matrices on coordinates: ``Gen`` takes Hermitian matrices to Hermitian
    matrices, so its exponential is that of its real matrix."""
    n = model.dim
    C, G, lam, eta = model.C, model.G, model.lam, model.eta
    basis = hermitian_basis(n)
    eye = np.eye(n, dtype=complex)
    jump_map = kron(C.conj(), C)
    generator = (
        (1.0 - eta) * lam * jump_map - kron(eye, G) - kron(G.conj(), eye) + eta * lam * np.eye(n * n)
    )
    return basis.real_map(jump_map), expm(basis.real_map(dt * generator))


def _exact_step_many(jump_map, phi, s: np.ndarray, dn: np.ndarray, t: float, where=_batch_element):
    """One step of :func:`jump_pathwise_solve` for a stack of coordinates
    ``s[b]`` with counts ``dn[b]``, ending at time ``t``; returns the new
    coordinates and the log traces added to ``log_lambda``.

    ``Phi``, and on a count the jump map, go through
    :func:`diffusion._apply_maps`, so each result is bitwise what the step
    gives for that element alone, whatever else is in the stack.  Errors
    name the failing element as ``where(b)``.
    """
    x = _apply_maps(phi, s)
    if dn.any():
        hit = np.flatnonzero(dn)
        x[hit] = _apply_maps(jump_map, x[hit])
    try:
        return _renormalize(x, t, "pathwise jump state", where)
    except NonFiniteStateError:
        for b in np.flatnonzero(dn):  # a count on a state that C annihilates is the record's fault
            tr = x[b, 0] if np.isfinite(x[b]).all() else np.nan
            if tr <= 0.0:
                raise _invalid_count(t, tr, b, where) from None
        raise


def _counting_steps(model, dt: float, start, log0: float, stack) -> _Steps:
    """The steps (see ``diffusion._steps``) of a counting scheme over steps
    of width ``dt`` from the coordinates ``start`` with ``log0``, with the
    stack step ``stack(s, dn, t, where) -> (s, dlog)``.  A run draws one
    uniform ``u`` per step and counts when it is below the count probability
    ``eta lam tr(C rho C^dag) dt`` of the state at the step's start, the
    time that the probability check names."""
    intensity = _intensity(model)

    def observe(s, u, t, where):
        return u < _count_probabilities(model, _apply_maps(intensity, s)[..., 0], dt, t - dt, where)

    def draw(rng, size):
        return rng.random(size)

    return _steps(CountingRecord, dt, start, log0, draw, observe, stack)


def _exact_steps(model, dt: float, start, log0: float) -> _Steps:
    """The steps of the exact ``pathwise`` counting scheme from the
    coordinates ``start`` with ``log0`` (see :func:`diffusion._unnormalized_start`):
    :func:`_exact_step_many`."""
    return _counting_steps(model, dt, start, log0, partial(_exact_step_many, *_exact_propagator(model, dt)))


def _jump_steps(model, scheme: str, dt: float, rho0) -> _Steps:
    """The steps of the counting ``scheme`` over steps of width ``dt``, from
    ``rho0``: :func:`_euler_step_many` from the normalized ``rho0`` with
    ``log_lambda = 0`` for ``em``, and the exact :func:`_exact_steps` from
    the start of :func:`jump_pathwise_solve` for ``pathwise``.  Single runs,
    replays and ensembles all take these steps."""
    if scheme == "robust":
        raise ValueError("scheme 'robust' applies to diffusion models; use 'em' or 'pathwise'")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    dt = _step_width(dt)
    start = _start(rho0, model.dim)
    if scheme == "pathwise":
        return _exact_steps(model, dt, start, 0.0)
    maps = _euler_maps(model, dt)

    def stack(s, dn, t, where):
        return _euler_step_many(maps, s, dn, t, where)

    return _counting_steps(model, dt, start, 0.0, stack)


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
    steps = _jump_steps(model, "pathwise", dt, rho0)
    return _path(steps, n, steps.draw(np.random.default_rng(seed), n)[:, None], t0)[0]


def jump_pathwise_solve(model, record: CountingRecord, r0):
    """Solve the pathwise flow exactly along a counting record.

    The gauge ``A = C^(-N_t)`` commutes with ``C``, so in the original frame
    ``rho~ = A^-1 r A^-dag`` obeys, between counts, the linear time-invariant
    equation
    ``rho~' = -G rho~ - rho~ G^dag + (1-eta) lam C rho~ C^dag + eta lam rho~``.
    On column-stacked vectors its generator is
    ``Gen = -(I (x) G) - (conj(G) (x) I) + (1-eta) lam (conj(C) (x) C) + eta lam I``,
    and ``Phi = expm(dt Gen)`` is the exact propagator over one step, built
    once, as a real matrix on the coordinates of the Hermitian basis.  Each
    step applies ``Phi``, then the jump map ``conj(C) (x) C`` on a count,
    and renormalizes, adding the log of the trace to ``log_lambda``: this
    is the replay of :func:`_exact_steps` from ``r0``, the step an online
    ``pathwise`` run takes on a stack of one state, so replaying that run's
    record gives its states bitwise.

    Returns ``(r_path, recovered)``: the recovered normalized states with
    ``log_lambda`` at every grid point (``r0`` need not be normalized; its
    log trace is the initial ``log_lambda``), and the gauge-frame states
    ``r = A rho~ A^dag``, continuous across counts.  ``r_path`` is ``None``
    when ``C`` is not invertible, since the gauge frame does not exist then,
    or when ``C^(-N)`` or ``exp(log_lambda)`` has left the range of floats,
    so that a state is not finite; the recovered states never need ``C^-1``.

    Raises :class:`InvalidCountingRecordError` for a count on a state that
    ``C`` annihilates, and :class:`NonFiniteStateError` when the state stops
    being finite; both name the step and its time.
    """
    recovered = _exact_steps(model, record.dt, *_unnormalized_start(r0, model.dim, "r0")).replay(record)
    if model.C_inv is None:
        return None, recovered
    with np.errstate(over="ignore", invalid="ignore"):  # a frame out of range is dropped below
        gauge = JumpGauge.identity(model)
        gauges = [gauge.a]
        for _ in range(record.total):
            gauge.advance()
            gauges.append(gauge.a)
        a = np.stack(gauges)[record.cumulative_counts()]
        scale = np.exp(recovered.log_lambda)[:, None, None]
        r = scale * (a @ recovered.rho @ a.conj().transpose(0, 2, 1))
    if not np.isfinite(r).all():
        return None, recovered
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

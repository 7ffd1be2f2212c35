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
it falls below the count probability of the state the run evolves.  The
``em`` scheme takes its stack step one step at a time.  The ``pathwise``
scheme steps count to count (:func:`_segments`): between counts the state
follows the fixed map ``Phi``, so each trajectory takes up to ``K`` steps
with one product of a table of the powers of ``Phi``, built once, and the
step of a count is :func:`_exact_step_many`'s.  Online runs step through
the one online loop ``diffusion._online``, a single run on a stack of one,
and replays cut the same steps, so every replay of a run's record is
bitwise that run.

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
    _DRAW_BLOCK,
    SCHEMES,
    CountingRecord,
    NonFiniteStateError,
    PathwiseState,
    _any,
    _apply_maps,
    _batch_element,
    _integer,
    _max,
    _one_step,
    _path,
    _renormalize,
    _step_count,
    _step_width,
    _Steps,
    _start,
    _steps,
    _tail_failures,
    _unnormalized_start,
    recover,  # noqa: F401  (bench/spans.py traces this name in this module)
)
from .linalg import as_square, dagger, expm, hermitian_basis, kron
from .ode import rk4_step  # noqa: F401  (bench/spans.py traces this name in this module)

# Powers Phi^1 ... Phi^K of the exact one-step map that a ``pathwise``
# counting run tabulates once, so that it takes up to K steps between
# counts with one product (see :func:`_segments`); a power of two, so that
# K divides ``diffusion._DRAW_BLOCK`` and ``diffusion._MAP_BLOCK``.  With
# 16, 32, 64 and 128 powers the bench's `jump_ens` workload (16
# trajectories of 250 steps, a count every ~140 steps) ran at a median
# 693k, 741k, 800k and 811k steps/s (3 runs each of `bench/run.py
# --seconds 8`, 2-core Xeon); an ensemble of 16 trajectories of 250 steps
# with a count probability of 0.095 took a best 6.6, 6.1, 6.3 and 7.1 ms
# of 40 calls, and the `filter` of a 10,000-step `jump_ens` record 6.3,
# 4.4, 3.8 and 3.5 us a step, best of 15.
_POWERS = 64

# Bytes the table of powers may take, which caps K for large models: a
# 2-level table of 64 powers takes 8 kB, and a 10-level one 8 powers.
_TABLE_BYTES = 1 << 20

# The largest magnitude of an entry of a tabulated power: far inside the
# range of floats, so that its product with a normalized state and the
# tail's test of the product stay finite.
_POWER_RANGE = 1e100


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
    if _any(bad, None):
        b = int(np.argmax(bad))
        raise _high_probability(t, np.ravel(p)[b], b, where)
    return p


def _high_probability(t, p: float, b: int, where) -> ValueError:
    """The error for the count probability ``p >= 0.1`` of element ``b`` of
    a stack in a step starting at time ``t``; it names the element as
    ``where(b)``, and ``None`` for ``t`` or ``where`` names no time or
    element."""
    of = "" if where is None else f" for {where(b)}"
    at = "" if t is None else f" at t = {t:.6g}"
    return ValueError(f"per-step count probability {p:.3f} >= 0.1{of}{at}; use a smaller dt")


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
    if _any(dn, None):
        hit = np.flatnonzero(dn)
        before = out[hit]
        j_out = _apply_maps(maps.jump, before)
        tr_jo = j_out[:, 0]
        bad = ~(np.isfinite(tr_jo) & (tr_jo > 1e-300))
        if _any(bad, None):
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
    """One exact step of a stack of coordinates ``s[b]`` with counts
    ``dn[b]``, ending at time ``t``; returns the new coordinates and the log
    traces added to ``log_lambda``.  :func:`_segments` takes it for the
    step that ends a segment early, a count's step or one whose product
    fails the tail's test, and so for every step at ``K = 1``.

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


def _uniforms(rng, size):
    """The numbers a counting run draws: one uniform per step."""
    return rng.random(size)


def _power_table(phi: np.ndarray) -> np.ndarray:
    """The powers ``Phi^1, ..., Phi^K`` of the exact one-step map ``Phi``,
    a ``(K, n^2, n^2)`` stack.  ``K`` is the largest power of two up to
    ``_POWERS`` whose table fits in ``_TABLE_BYTES`` and whose every entry
    is finite and at most ``_POWER_RANGE`` in magnitude, and at least 1,
    ``Phi`` itself.  The powers are built by doubling, ``Phi^(m + j) =
    Phi^m Phi^j`` for the ``m`` powers so far in one batched product; a
    power out of range goes to inf or NaN without a floating-point warning
    and caps ``K``."""
    depth = 1
    while depth < _POWERS and 2 * depth * phi.nbytes <= _TABLE_BYTES:
        depth *= 2
    powers = phi[None]
    with np.errstate(all="ignore"):
        while len(powers) < depth:
            powers = np.concatenate([powers, np.matmul(powers[-1], powers)])
        fits = _max(np.abs(powers), (1, 2)) <= _POWER_RANGE
    k = 1
    while k < depth and fits[: 2 * k].all():
        k *= 2
    return powers[:k]


class _ExactMaps(NamedTuple):
    """The real maps of the exact counting step on coordinates: ``jump``,
    the map ``rho -> C rho C^dag``; ``phi``, the one-step propagator of
    :func:`_exact_propagator`; ``table``, its powers ``Phi^1 ... Phi^K`` of
    :func:`_power_table` stacked into one ``K n^2 x n^2`` matrix, with
    ``depth = K``; ``intensity``, the functional of :func:`_intensity`; and
    ``rate``, ``eta lam``."""

    jump: np.ndarray
    phi: np.ndarray
    table: np.ndarray
    depth: int
    intensity: np.ndarray
    rate: float


def _exact_maps(model, dt: float) -> _ExactMaps:
    """The :class:`_ExactMaps` of ``model`` for steps of width ``dt``."""
    jump_map, phi = _exact_propagator(model, dt)
    powers = _power_table(phi)
    table = powers.reshape(-1, phi.shape[1])
    return _ExactMaps(jump_map, phi, table, len(powers), _intensity(model), model.eta * model.lam)


def _named(name, b: int, _element: int) -> str:
    """How a step taken alone on a stack of one names its one element:
    as trajectory ``b`` of the stack it came from, ``name(b)``."""
    return name(b)


def _segments(maps: _ExactMaps, dt: float, s, values, k: int, where, t0: float, drawn: bool):
    """The exact steps ``k + 1`` to ``k + L`` of the stack of normalized
    coordinates ``s[b]`` at grid point ``k``, a multiple of ``K =
    maps.depth``, with the values ``values[j, b]`` of the ``L`` steps: the
    draws of an online run when ``drawn``, the counts of a record
    otherwise.  Returns each step's coordinates, counts and log factors,
    as the online step of :func:`diffusion._steps` does.

    Between counts the state follows the fixed map ``Phi``, so each
    trajectory advances from its anchor ``a``, its normalized state at its
    last count or at the last multiple of ``K`` steps of the grid: one pass
    takes every running trajectory's products ``Phi^j a``, ``j = 1 ... K``,
    with one stacked product of the table of powers, one matrix-vector
    product per trajectory, so no result depends on the stack.  Step ``j``
    of a segment gives the state ``Phi^j a / tr(Phi^j a)`` and the log
    factor ``log(tr(Phi^j a) / tr(Phi^(j-1) a))``, and takes every check of
    a step: an online run draws the step's count from the state at its
    start, whose count probability must stay below 0.1, and the tail's
    test ``eps max |x| < tr(x)`` (``diffusion._tail_failures``, on the
    whole pass at once) must hold for ``x = Phi^j a``.  The first step of a
    segment with a count, or whose test fails, ends it: that step is taken
    alone from the state at its start by :func:`_exact_step_many`, whose
    result, when it passes, is the next anchor.  At ``K = 1`` every step is
    ``_exact_step_many``'s.

    A failing trajectory stops; the others go on to the end of the ``L``
    steps.  Then the error of the earliest failing step is raised, and at
    that step the error of a count probability at 0.1 before the error of
    a count on an annihilated state before the tail's, each for the first
    trajectory, as one stack step raises them: each is the error of one
    trajectory's step alone, naming trajectory ``b`` in step ``j`` as
    ``where(j)(b)``, with its time.
    """
    n_steps, size = values.shape[0], s.shape[1]
    depth, offsets = maps.depth, np.arange(maps.depth)
    states = np.empty((n_steps, len(s), size))
    counts = np.zeros(values.shape, dtype=bool)
    dlogs = np.empty(values.shape)
    anchors, done = s.copy(), np.zeros(len(s), dtype=int)
    live, errors = np.arange(len(s)), []
    while live.size:
        a, at = anchors[live], done[live]
        room = np.minimum(depth - (k + at) % depth, n_steps - at)  # to the segment's end
        with np.errstate(all="ignore"):  # past a failing step, products go on unchecked and unread
            x = _apply_maps(maps.table, a).reshape(len(live), depth, size)
            tr = x[:, :, 0]
            ahead = x / tr[:, :, None]
            dlog = np.log(tr / np.concatenate([a[:, :1], tr[:, :-1]], axis=1))
            bad = _tail_failures(x)
            event = np.zeros(tr.shape, dtype=bool) if bad is None else bad
            begin = np.concatenate([a[:, None], ahead[:, :-1]], axis=1)  # the state at each step's start
            own = np.minimum(at[:, None] + offsets, n_steps - 1), live[:, None]
            if drawn:
                p = maps.rate * _apply_maps(maps.intensity, begin)[..., 0] * dt
                high, hit = p >= 0.1, values[own] < p
                event |= high | hit
            else:
                hit = values[own] != 0
                event |= hit
        event &= offsets < room[:, None]
        stop = _any(event, 1)
        first = np.where(stop, event.argmax(1), room)  # steps taken from the table
        r, c = np.nonzero(offsets < first[:, None])
        states[at[r] + c, live[r]], dlogs[at[r] + c, live[r]] = ahead[r, c], dlog[r, c]
        at = at + first
        ended = ~stop
        anchors[live[ended]] = ahead[ended, first[ended] - 1]
        failed = np.zeros(len(live), dtype=bool)
        ev = np.flatnonzero(stop)  # the steps that end segments early
        j, numbers = first[ev], k + at[ev] + 1
        if drawn:
            for e in np.flatnonzero(high[ev, j]):  # a step whose count probability is too high fails first
                i, step = ev[e], numbers[e]
                t = t0 + step * dt
                errors.append((step, 0, live[i], _high_probability(t - dt, p[i, j[e]], live[i], where(step))))
                failed[i] = True
            go = ~high[ev, j]
            ev, j, numbers = ev[go], j[go], numbers[go]
        if ev.size:  # each is one exact step from its start: one stack step, or each alone for its error
            start, dn = begin[ev, j], hit[ev, j]
            try:
                y, dl = _exact_step_many(maps.jump, maps.phi, start, dn, None, None)
            except (InvalidCountingRecordError, NonFiniteStateError):
                y, dl = start.copy(), np.empty(len(ev))
                for e, (i, step) in enumerate(zip(ev, numbers)):
                    name = partial(_named, where(step), live[i])
                    try:
                        y[e : e + 1], dl[e : e + 1] = _exact_step_many(
                            maps.jump, maps.phi, start[e : e + 1], dn[e : e + 1], t0 + step * dt, name
                        )
                    except (InvalidCountingRecordError, NonFiniteStateError) as exc:
                        rank = 1 if isinstance(exc, InvalidCountingRecordError) else 2
                        errors.append((step, rank, live[i], exc))
                        failed[i] = True
                ok = ~failed[ev]
                ev, dn, y, dl = ev[ok], dn[ok], y[ok], dl[ok]
            rows, cols = at[ev], live[ev]
            states[rows, cols], counts[rows, cols], dlogs[rows, cols] = y, dn, dl
            anchors[cols] = y
            at[ev] += 1
        done[live] = at
        live = live[(at < n_steps) & ~failed]
    if errors:
        raise min(errors, key=lambda e: e[:3])[3]
    return states, counts, dlogs


def _exact_steps(model, dt: float, start, log0: float) -> _Steps:
    """The steps of the exact ``pathwise`` counting scheme from the
    coordinates ``start`` with ``log0`` (see :func:`diffusion._unnormalized_start`),
    count to count: :func:`_segments` with the maps of :func:`_exact_maps`,
    built once, for up to ``diffusion._DRAW_BLOCK`` steps a call online
    and ``diffusion._MAP_BLOCK`` in a replay.  An online run draws one
    uniform per step and counts when it is below the count probability
    ``eta lam tr(C rho C^dag) dt`` of the state at the step's start; a
    replay cuts the same segments at the record's counts, so it is bitwise
    the run."""
    maps = _exact_maps(model, dt)

    def many(s, xs, k, where, t0=0.0):
        return _segments(maps, dt, s, xs, k, where, t0, True)

    def take(s, vs, k, where, t0):
        states, _, dlogs = _segments(maps, dt, s, vs, k, where, t0, False)
        return states, dlogs

    return _steps(CountingRecord, dt, start, log0, _uniforms, _DRAW_BLOCK, many, take)


def _jump_steps(model, scheme: str, dt: float, rho0) -> _Steps:
    """The steps of the counting ``scheme`` over steps of width ``dt``, from
    ``rho0``: :func:`_euler_step_many` from the normalized ``rho0`` with
    ``log_lambda = 0`` for ``em``, one step at a time, and the exact
    :func:`_exact_steps` from the start of :func:`jump_pathwise_solve` for
    ``pathwise``.  Single runs, replays and ensembles all take these steps.
    An ``em`` run draws one uniform ``u`` per step and counts when it is
    below the count probability ``eta lam tr(C rho C^dag) dt`` of the state
    at the step's start, the time that the probability check names."""
    if scheme == "robust":
        raise ValueError("scheme 'robust' applies to diffusion models; use 'em' or 'pathwise'")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    dt = _step_width(dt)
    start = _start(rho0, model.dim)
    if scheme == "pathwise":
        return _exact_steps(model, dt, start, 0.0)
    intensity = _intensity(model)

    def observe(s, u, t, where):
        return u < _count_probabilities(model, _apply_maps(intensity, s)[..., 0], dt, t - dt, where)

    stack = partial(_euler_step_many, _euler_maps(model, dt))
    return _steps(CountingRecord, dt, start, 0.0, _uniforms, *_one_step(dt, observe, stack))


def sample_counting_record(model, rho0, dt: float, T: float, seed: int, t0: float = 0.0) -> CountingRecord:
    """Sample a counting record online from the exact pathwise state.

    Each step draws one uniform ``u`` and registers a count when
    ``u < eta lam tr(C rho C^dag) dt``, with ``rho`` the exact normalized
    state of the record so far, which steps count to count as
    :func:`jump_pathwise_solve` steps it.  So the record is the one
    ``run_trajectory(model, "pathwise", ...)`` samples with this seed, and
    deterministic given the seed, which must be an integer at least 0, as
    ``run_trajectory`` checks it.  Errors name the step and its time.
    """
    seed = _integer(seed, "seed", 0)
    n = _step_count(dt, T)
    steps = _jump_steps(model, "pathwise", dt, rho0)
    return _path(steps, n, [steps.draw(np.random.default_rng(seed), n)[:, None]], t0)[0]


def jump_pathwise_solve(model, record: CountingRecord, r0):
    """Solve the pathwise flow exactly along a counting record.

    The gauge ``A = C^(-N_t)`` commutes with ``C``, so in the original frame
    ``rho~ = A^-1 r A^-dag`` obeys, between counts, the linear time-invariant
    equation
    ``rho~' = -G rho~ - rho~ G^dag + (1-eta) lam C rho~ C^dag + eta lam rho~``.
    On column-stacked vectors its generator is
    ``Gen = -(I (x) G) - (conj(G) (x) I) + (1-eta) lam (conj(C) (x) C) + eta lam I``,
    and ``Phi = expm(dt Gen)`` is the exact propagator over one step, built
    once, as a real matrix on the coordinates of the Hermitian basis, with
    its powers ``Phi^1 ... Phi^K``.  The solve steps count to count (see
    :func:`_segments`): from its anchor, the normalized state at the last
    count or at the last multiple of ``K`` steps, the state after ``j``
    steps without a count is ``Phi^j a`` divided by its trace, and
    ``log_lambda`` grows by the log of the ratio of consecutive traces; a
    count's step applies ``Phi``, then the jump map ``conj(C) (x) C``, to
    the state at its start and renormalizes, adding the log of the trace.
    The products of powers round differently from one ``Phi`` a step, by a
    few units of ``eps``; this is the replay of :func:`_exact_steps` from
    ``r0``, which cuts the segments of an online ``pathwise`` run on a
    stack of one state, so replaying that run's record gives its states
    bitwise.

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

"""Evolutions driven by a scalar diffusive measurement record.

Three routes to the same conditional state are implemented, enabling
cross-validation:

* ``em_normalized`` / ``em_unnormalized`` -- explicit Euler-Maruyama
  integration of the nonlinear and linear stochastic master equations; the
  linear one, whose step is linear in the increment (a map scheme,
  :class:`_LinearEMStepper`), serves only as an independent oracle;
* ``PathwiseIntegrator`` / ``pathwise_filter`` -- the stochastic-integral-free
  reformulation: a gauge transform ``A_t = exp(-(L/k^2) y_t + (L^2/2k^2) t)``
  turns the linear equation into an ordinary differential equation for
  ``r_t = A_t rho_tilde_t A_t^dag`` in which the record enters only as a
  parameter.  On the piecewise-linear record interpolant the gauge exponent
  has a constant slope within each record step and commutes with ``L``, so
  in the original frame the flow of a step is linear and time-invariant:
  it is solved exactly, as the exponential of its ``n^2 x n^2`` generator,
  which depends on the step's increment only;
* ``robust_step`` / ``robust_filter`` -- an implicit Euler discretization of
  the pathwise equation, transformed back so each step solves the linear
  matrix system ``A X + X B - C X D = E(dy) X_prev E(dy)^dag`` with

      A = I + K dt,   B = K^dag dt,   C = L,   D = L^dag (1 - 1/k^2) dt,
      E(dy) = exp((L/k^2) dy - (L^2/2k^2) dt),

  vectorized via ``[(I (x) A) + (B^T (x) I) - (D^T (x) C)] vec(X) = vec(rhs)``
  (plain transposes, no conjugation).  The system depends on the model and
  ``dt`` only: it is inverted once, by one ``np.linalg.solve``, to ``S``.
  ``E(dy)`` is a function of ``L``, ``sum_{j<n} c_j(dy) L^j`` by
  Cayley-Hamilton, with coefficients in closed form for ``n = 2``, so a step
  is one fixed real ``n^2 x n^4`` map ``M`` applied to ``u (x) s``, with
  ``n^2`` real weights ``u`` made of ``conj(c_j) c_k`` (see
  :class:`RobustStepper`).

Every stepper carries its state as the ``n^2`` real coordinates ``s`` of
``rho`` in one Hermitian basis, ``linalg.hermitian_basis(n)``: the Pauli
matrices for ``n = 2`` (``s = tr(rho) (1, x, y, z)``) and the generalized
Gell-Mann matrices otherwise, with ``s[0] = tr(rho)``.  Every step map
takes Hermitian matrices to Hermitian matrices, so in these coordinates it
is a real ``n^2 x n^2`` matrix, and the measured mean and the count
intensity are real linear functionals; a state is Hermitian by
construction.  The maps that do not depend on the record are built once;
the pathwise and robust ones of a step, from its increment, for a block of
steps at a time in a replay.  A run converts its start state to
coordinates once and its states back to matrices once.

The robust and pathwise steps, and the linear Euler-Maruyama oracle's, are
all ``x = R(dy) s``, with a real map ``R`` of the step's increment alone,
and one base, :class:`_MapStepper`, takes their one step, the stack step
``advance_many``, and their errors; a scheme only builds its maps.  The two
oracles, :func:`pathwise_samples` and :func:`em_unnormalized_many`, read
their states only every few steps, and sample a record through one loop,
:func:`_samples`, which steps one product of the maps of each chunk of
steps and falls back to the fine replay where a chunk fails.

Unnormalized solutions grow or decay exponentially, so every step maps the
normalized coordinates to unnormalized ones and then takes one shared real
tail, :func:`_renormalize`, on a stack of states: it checks that
the trace ``s[0]`` is above the rounding error of the largest coordinate
(so the state is finite, its trace positive and not swamped by its growth)
and returns ``s / s[0]`` and ``log s[0]``, which the robust, pathwise and
jump steps add to ``log_lambda``; ``rho_tilde = exp(log_lambda) * rho``
losslessly.

Both record kinds, :class:`MeasurementRecord` (increments ``dy``) and
:class:`CountingRecord` (counts ``dN``), derive from :class:`Record` and
state their CSV format once; :func:`write_record` and :func:`read_record`,
which picks the kind by the file's header, serve both.

The schemes of both record kinds share one interface, :class:`_Steps`:
a start state and ``log_lambda``, the numbers a run draws, the online
step of a stack and a replay, built from a scheme's pieces by
:func:`_steps`, for the diffusion schemes by :func:`_diffusion_steps` and
for the counting ones by ``jump._jump_steps``.  A scheme's online and
replay steps take several steps a call: one stack step at a time
(:func:`_one_step`), or, for the exact counting scheme, count to count
(``jump._segments``).  Every online run steps a stack of trajectories
through one loop, :func:`_online`: an ensemble, or a single run, the
ensemble of one whose path :func:`_path` keeps.  A replay takes the same
steps on a stack of one through :func:`_trajectory`,
and steps each block of prebuilt robust or pathwise maps with
:func:`_map_block`, which gives each state the same matrix-vector product
and division by its trace, and applies ``np.log`` to the same traces and
adds them into ``log_lambda`` in sequence, once per block.  The stack step
gives each element the arithmetic of a stack of one, through one kernel,
:func:`_apply_maps`, which gives each state one matrix-vector product; so
every replay of a run's record is bitwise that run, and a trajectory's
states do not depend on the stack it runs in.

A run's states are one :class:`StatePath`: arrays of ``rho``,
``log_lambda`` and ``t`` over its grid points, which :func:`_path`,
:func:`_trajectory` and :func:`_samples` convert from coordinates at the
end of a run.  Indexing it gives one
:class:`DensityState`; writers and reports read the arrays.
"""

from __future__ import annotations

import itertools
import math
from collections import abc
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
# No code of this module calls scipy: bench/spans.py traces
# ``scipy.linalg.lu_solve`` through this name here, so it stays bound.  The
# bare import loads no ``scipy.linalg``.
import scipy  # noqa: F401

from .csvtext import csv_rows
from .linalg import (
    as_square,
    dagger,
    expm,
    expm_many,
    hermitian_basis,
    hermitian_residual,
    kron,
    require_hermitian,
)
from .ode import rk4_step  # noqa: F401  (bench/spans.py traces this name in this module)

# Record steps whose step maps ``pathwise_filter`` and ``robust_filter``
# build at a time with one ``step_maps`` call of their stepper, and that
# :func:`_map_block` then steps; the sampled oracles of ``_samples`` build
# the whole chunks that fit in as many.  With
# 256, 512, 1024 and 2048 steps a block, the bench's `converge` workload
# (3525 steps a call, its oracle in chunks of 10 steps) ran at a median 472k,
# 505k, 470k and 444k steps/s with a peak RSS of 60.8-60.9, 60.9-61.0,
# 61.1-61.3 and 62.3-62.5 MB, and `replay_robust` (one 10,000-step replay)
# at 234k, 237k, 238k and 240k steps/s with 67.6-68.0 MB at each size (3
# runs each of `bench/run.py --seconds 8`, 2-core Xeon).  Six more
# alternating `converge` runs of each gave 511k (503k-515k) at 512 and 488k
# (476k-542k) at 1024.  Those pathwise maps were each an ``expm_many``; with
# the maps from ``PathwiseIntegrator``'s Taylor table, three alternating
# `converge` runs of each gave a median 607k, 662k and 641k steps/s at 256,
# 512 and 1024, with a peak RSS of 60.96-61.15 MB at each size.
_MAP_BLOCK = 512

_EPS = float(np.finfo(float).eps)
# without the Python wrappers of ndarray.max, min and any
_max, _min, _any = np.maximum.reduce, np.minimum.reduce, np.logical_or.reduce

# Steps of random numbers an online run draws per trajectory at a time; it
# bounds the draw buffer at this many steps whatever the run length.
_DRAW_BLOCK = 256

# Steps that a scheme taking one step at a time takes in one call of its
# online or replay step (see :func:`_one_step`), so that the caller handles
# their states once.  A 64-trajectory robust ensemble of 250 steps, timed
# in one process against the per-step loop it replaced, in 50 interleaved
# calls, took a median 4.0%, 1.8%, 2.3% and 2.8% longer at 8, 16, 32 and 64
# steps a call (2-core Xeon).
_STEP_BLOCK = 16

SCHEMES = ("robust", "em", "pathwise")

# Rows :func:`_write_csv` formats and writes at a time, which bounds the
# writer's working set.  Writing a 10,001-row trajectory of six columns
# allocated at most 0.53, 0.99, 1.87 and 3.72 MB at 256, 512, 1024 and 2048
# rows a block (tracemalloc), and took a median 29.9, 23.0, 24.7 and 26.6 ms
# (15 runs each, interleaved, 2-core Xeon); the per-row formatting took
# 36-58 ms on the same host.
_CSV_BLOCK = 512

# Bytes of lines :func:`read_record` reads and parses at a time, which
# bounds the text and Python numbers it holds besides the parsed values.
# Reading a 10,000-row record allocated at most 0.68, 0.83, 1.13 and 1.93 MB
# at 16, 32, 64 and 128 kB a chunk (tracemalloc), and 0.82 MB line by line.
_READ_CHUNK = 1 << 15


class NonFiniteStateError(ArithmeticError):
    """Integration produced a non-finite or collapsed state."""

    def __init__(self, time: float | None = None, message: str = "state became non-finite"):
        self.time = None if time is None else float(time)
        suffix = "" if self.time is None else f" at t = {self.time:.6g}"
        super().__init__(message + suffix)


def _batch_element(b: int) -> str:
    """How a batched step names its element ``b`` in an error message."""
    return f"batch element {b}"


def _step_of(k: int):
    """How a single run names its step ``k`` (from 1) in its errors."""
    return lambda _b: f"step {k}"


def _tail_failures(x: np.ndarray):
    """The states of a stack of coordinates ``x[..., a]`` that fail the
    tail's test, whose trace ``x[..., 0]`` is not above the rounding error
    ``eps max_a |x_a|`` of its largest coordinate (see :func:`_failure`): a
    mask, true where a state fails, or ``None`` when the whole stack passes
    at once, its smallest trace above the rounding error of its largest
    coordinate, which implies every state's test (rounding is monotone)."""
    tr, size = x[..., 0], np.abs(x)
    if _max(size, None, initial=0.0) * _EPS < _min(tr, None, initial=np.inf):
        return None
    return ~(_max(size, -1) * _EPS < tr)


def _renormalize(x: np.ndarray, t, what: str, where=None):
    """The one tail of every step, on a stack of coordinates ``x[b]``: the
    states divided by their traces ``x[:, 0]`` and the log traces, each
    rounded as it is alone.

    Raises :class:`NonFiniteStateError` at ``t`` when a state fails the
    tail's test (:func:`_tail_failures`), naming the first failing element as
    ``where(b)`` (nothing when ``where`` is ``None``) and, when its
    coordinates are finite, its trace."""
    bad = _tail_failures(x)
    if bad is None or not _any(bad, None):
        return x / x[:, :1], np.log(x[:, 0])
    b = int(bad.argmax())
    of = "" if where is None else f" of {where(b)}"
    trace = f" (trace {x[b, 0]})" if np.isfinite(x[b]).all() else ""
    raise NonFiniteStateError(t, f"{what}{of} {_failure(x[b])}{trace}")


def _apply_maps(maps: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The coordinates ``maps @ s`` of each state ``s[b]`` of a stack, or of
    a single state ``s``, under one real map for all or a stack of maps,
    one per state; a functional is a map with one row.

    Each vector is one column of a single broadcast ``np.matmul``, a
    matrix-vector product per state, so each result is bitwise the one of
    its state alone, whatever else is in the stack; one matrix-matrix
    product with all vectors as its columns would round differently.
    """
    return np.matmul(maps, np.ascontiguousarray(s)[..., None])[..., 0]


def _failure(s: np.ndarray) -> str:
    """How the tail names the failure of the state of coordinates ``s``:
    "blew up" when it is not finite or its growth has swamped its trace,
    which then lies below the rounding error of its largest coordinate (no
    density matrix comes near: its coordinates are at most ``sqrt(2)`` times
    its trace); "collapsed" otherwise."""
    if not np.isfinite(s).all():
        return "blew up"
    largest = np.abs(s).max()
    return "blew up" if 0.0 < largest and abs(s[0]) <= _EPS * largest else "collapsed"


def _start(rho0, dim: int, name: str = "rho0") -> np.ndarray:
    """The normalized coordinates of the start state ``rho0`` of a run of a
    ``dim``-level model, checked as :func:`_normalized_density` checks it."""
    s = hermitian_basis(dim).coords(_normalized_density(_of_dimension(rho0, dim, name), name))
    return s / s[0]


@dataclass(frozen=True)
class DensityState:
    """Normalized state ``rho`` at time ``t`` plus the accumulated log of the
    normalization factor, so the unnormalized state is recoverable as
    ``exp(log_lambda) * rho``."""

    rho: np.ndarray
    log_lambda: float
    t: float

    def __eq__(self, other):
        """Equal values: ``rho`` by :func:`numpy.array_equal`, and the same
        ``log_lambda`` and ``t``; two states indexed from one
        :class:`StatePath` are distinct objects with these values."""
        if not isinstance(other, DensityState):
            return NotImplemented
        return np.array_equal(self.rho, other.rho) and (self.log_lambda, self.t) == (other.log_lambda, other.t)

    def rho_tilde(self) -> np.ndarray:
        return np.exp(self.log_lambda) * self.rho

    def validate(
        self,
        trace_tol: float = 1e-9,
        herm_tol: float = 1e-9,
        eig_floor: float = -1e-7,
    ) -> "DensityState":
        """Raise if ``rho`` or ``log_lambda`` is not finite, or if trace,
        Hermiticity, or positivity drift out of tolerance; a NaN fails every
        tolerance."""
        if not np.isfinite(self.rho).all():
            raise ValueError(f"rho is not finite at t={self.t:.6g}")
        if not math.isfinite(self.log_lambda):
            raise ValueError(f"log_lambda {self.log_lambda} is not finite at t={self.t:.6g}")
        tr = complex(np.trace(self.rho))
        if not abs(tr - 1.0) <= trace_tol:
            raise ValueError(f"trace {tr} deviates from 1 beyond {trace_tol:.1e} at t={self.t:.6g}")
        res = hermitian_residual(self.rho)
        if not res <= herm_tol:
            raise ValueError(f"Hermiticity residual {res:.3e} exceeds {herm_tol:.1e} at t={self.t:.6g}")
        h = 0.5 * (self.rho + dagger(self.rho))
        lo = float(np.linalg.eigvalsh(h)[0])
        if not lo >= eig_floor:
            raise ValueError(f"minimum eigenvalue {lo:.3e} below {eig_floor:.1e} at t={self.t:.6g}")
        return self


@dataclass(frozen=True, eq=False)
class StatePath(abc.Sequence):
    """The states of a run at its grid points, held as arrays: ``rho`` of
    shape ``(m, n, n)``, ``log_lambda`` and ``t`` of shape ``(m,)``.

    Indexing gives the :class:`DensityState` of one grid point, with
    ``log_lambda`` and ``t`` as Python floats, and slicing a ``StatePath``;
    ``len``, iteration and ``reversed`` come from :class:`Sequence`.  Code
    that needs a whole path reads the arrays."""

    rho: np.ndarray
    log_lambda: np.ndarray
    t: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return StatePath(self.rho[k], self.log_lambda[k], self.t[k])
        return DensityState(self.rho[k], float(self.log_lambda[k]), float(self.t[k]))

    def rho_tilde(self) -> np.ndarray:
        """The unnormalized states ``exp(log_lambda) * rho``, each bitwise
        its :meth:`DensityState.rho_tilde`."""
        return np.exp(self.log_lambda)[:, None, None] * self.rho


@dataclass(frozen=True)
class PathwiseState:
    """Gauge-transformed unnormalized state ``r`` at time ``t``."""

    r: np.ndarray
    t: float


def _step_width(dt) -> float:
    """A step width as a float, checked finite and positive."""
    dt = float(dt)
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    return dt


def _integer(value, name: str, least: int | None = None) -> int:
    """``value`` as a Python ``int`` when it is an integer, Python's or
    numpy's, not a bool, and at least ``least`` when that is given;
    otherwise ``ValueError`` naming it ``name``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _time_origin(t0) -> float:
    """A start time as a float, checked finite."""
    t0 = float(t0)
    if not np.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    return t0


def _step_count(dt, T) -> int:
    """The number ``T / dt`` of steps of width ``dt`` in a run of length
    ``T``, the one grid rule of every run: ``dt`` is checked as
    :func:`_step_width` checks it, ``T`` finite and at least ``dt``, and
    ``T / dt`` a whole number up to rounding (``2.5 / 0.01`` is
    249.99999999999997, which counts as 250)."""
    dt, T = _step_width(dt), float(T)
    if not dt <= T < np.inf:
        raise ValueError(f"T must be finite and at least dt = {dt}, got {T}")
    n = round(T / dt)
    if abs(T / dt - n) > 1e-9 * n:
        raise ValueError(f"T must be a whole number of steps of dt = {dt}, got {T}")
    return n


class Record:
    """A uniformly sampled record: one value per step of width ``dt`` from
    ``t0``, in the kind's attribute ``field``, read as :attr:`values`.

    Each kind states its format once, as class attributes: the
    ``format_name`` of its ``# format:`` line, the CSV ``column`` of its
    values, their ``parse`` and ``dtype``, the run ``mode`` it drives and
    the ``file_name`` a run writes it to.  Its ``_valid`` marks the values
    it takes, and ``invalid`` says what the others lack.  Complex values
    are rejected, as are arrays of any dimension but one.
    """

    def __post_init__(self):
        dt, t0 = _step_width(self.dt), _time_origin(self.t0)
        values = np.asarray(self.values)
        if values.ndim != 1:
            raise ValueError(f"{self.field} must be one-dimensional, got shape {values.shape}")
        if np.iscomplexobj(values):
            raise ValueError(f"{self.field} must be real, got dtype {values.dtype}")
        if not self._valid(values).all():
            raise ValueError(self.invalid)
        values = values.astype(self.dtype)
        values.setflags(write=False)
        object.__setattr__(self, self.field, values)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t0", t0)

    @property
    def values(self) -> np.ndarray:
        """The record's values, one per step."""
        return getattr(self, self.field)

    @property
    def n_steps(self) -> int:
        return int(self.values.size)

    @property
    def times(self) -> np.ndarray:
        """Grid ``t0, t0 + dt, ..., t0 + n dt`` (length ``n_steps + 1``)."""
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class MeasurementRecord(Record):
    """Uniformly sampled scalar record: increments ``dy_n`` over steps of
    width ``dt`` starting at ``t0``.  The continuous path ``y_t`` is the
    piecewise-linear interpolant of the cumulative sums with ``y(t0) = 0``."""

    dt: float
    increments: np.ndarray
    t0: float = 0.0

    format_name, column, field, parse, dtype = "measurement-record", "dy", "increments", float, float
    mode, file_name, invalid = "diffusion", "measurement_record.csv", "record increments must be finite"

    @staticmethod
    def _valid(values: np.ndarray) -> np.ndarray:
        return np.isfinite(values.astype(float))

    @property
    def duration(self) -> float:
        return self.dt * self.n_steps

    def cumulative(self) -> np.ndarray:
        """Path values ``y`` at the grid points, ``y[0] = 0``."""
        y = np.empty(self.n_steps + 1)
        y[0] = 0.0
        np.cumsum(self.increments, out=y[1:])
        return y

    def coarsen(self, factor: int) -> "MeasurementRecord":
        """Aggregate ``factor`` consecutive increments into one."""
        factor = _integer(factor, "factor")
        if factor < 1 or self.n_steps % factor != 0:
            raise ValueError(f"factor {factor} does not divide {self.n_steps} steps")
        inc = self.increments.reshape(-1, factor).sum(axis=1)
        return MeasurementRecord(self.dt * factor, inc, self.t0)

    def modulus_of_continuity(self, width: float, mode: str = "sliding") -> float:
        """Largest oscillation of ``y`` over windows of the given width.

        ``mode="sliding"`` maximizes over every window inside the record;
        ``mode="initial"`` restricts both sample points to the first window.
        Window edges snap down to the sampling grid.

        The sliding maxima and minima of the ``k + 1`` points of a window are
        built by doubling: shifted ``np.maximum`` and ``np.minimum`` pairs
        cover spans of 1, 2, 4, ... points up to the largest power of two
        ``p <= k + 1``, and one more pair at offset ``k + 1 - p`` covers the
        window.  That is ``O(n log k)`` work rather than ``O(n k)``, and since
        a maximum or minimum is one of its arguments, the modulus is the
        same number as the window-by-window one.
        """
        if not 0.0 < width < math.inf:
            raise ValueError(f"width must be finite and positive, got {width}")
        k = max(1, min(self.n_steps, int(width / self.dt + 1e-9)))
        y = self.cumulative()
        if mode == "initial":
            head = y[: k + 1]
            return float(head.max() - head.min())
        if mode != "sliding":
            raise ValueError(f"unknown mode {mode!r}")
        hi = lo = y
        span = 1  # points each entry of hi and lo covers
        while span < k + 1:
            shift = min(span, k + 1 - span)
            hi, lo = np.maximum(hi[:-shift], hi[shift:]), np.minimum(lo[:-shift], lo[shift:])
            span += shift
        return float(_max(hi - lo))


@dataclass(frozen=True, eq=False)
class CountingRecord(Record):
    """Uniformly sampled counting record: per-step increments ``dN in {0, 1}``
    over steps of width ``dt`` starting at ``t0``."""

    dt: float
    counts: np.ndarray
    t0: float = 0.0

    format_name, column, field, parse, dtype = "counting-record", "dN", "counts", int, int
    mode, file_name, invalid = "jump", "counting_record.csv", "count increments must all be 0 or 1"

    @staticmethod
    def _valid(values: np.ndarray) -> np.ndarray:
        return np.isin(values, (0, 1))

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


# The record kinds that :func:`read_record` tells apart by their headers.
_RECORD_KINDS = (MeasurementRecord, CountingRecord)


def _write_csv(path, comments: Sequence[str], header: str, columns: Sequence[np.ndarray]) -> None:
    """Write a CSV file: a ``# <comment>`` line per comment, the header, and
    the rows of the equal-length one-dimensional arrays ``columns``, each
    column formatted by its dtype (see :func:`.csvtext.csv_rows`).  Rows are
    formatted and written :data:`_CSV_BLOCK` at a time, so no whole-file
    text is ever built."""
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns must have equal lengths, got {lengths}")
    with open(path, "wb") as fh:
        fh.write(("".join(f"# {c}\n" for c in comments) + header + "\n").encode())
        for k in range(0, lengths[0] if lengths else 0, _CSV_BLOCK):
            fh.write(csv_rows([c[k : k + _CSV_BLOCK] for c in columns]))


def write_record(path, record: Record, comments: Sequence[str] = ()) -> None:
    """Write a record of any kind as CSV: a ``# format: <format_name> v1``
    line, its ``dt`` and ``t0``, the comments, the header ``t,<column>`` and
    one row per step with the step's end time and its value."""
    head = [f"format: {record.format_name} v1", f"dt: {record.dt:.17g}", f"t0: {record.t0:.17g}", *comments]
    _write_csv(path, head, f"t,{record.column}", [record.times[1:], record.values])


def _take_setting(comment: str, settings: dict) -> None:
    """Take a ``# dt:`` or ``# t0:`` comment line into ``settings``, its
    value checked as :class:`Record` checks it; other comments are notes."""
    body = comment[1:].strip()
    if body[:3] == "dt:":
        settings["dt"] = _step_width(float(body[3:]))
    elif body[:3] == "t0:":
        settings["t0"] = _time_origin(float(body[3:]))


def _first_bad_line(path, kinds, headers: str) -> tuple[int, str]:
    """The number and error of the first bad line of a record file, its
    lines checked one by one as :func:`read_record` reads them; that reader
    only calls it once some line has failed."""
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            try:
                if s[:1] == "#":
                    _take_setting(s, {})
                elif s and header is None:
                    header = s
                    kind = next((k for k in kinds if s == f"t,{k.column}"), None)
                    if kind is None:
                        raise ValueError(f"expected header {headers}, got {s!r}")
                elif s:
                    cells = s.split(",")
                    if len(cells) != 2:
                        raise ValueError(f"expected 2 columns {header!r}, got {len(cells)}")
                    float(cells[0])
                    kind.parse(cells[1])
            except ValueError as exc:
                return lineno, str(exc)
    raise AssertionError(f"{path}: no line fails when checked one by one")


def _row_line(path, i: int) -> int:
    """The line number of row ``i`` (from 0, after the header) of a record
    file."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = (n for n, line in enumerate(fh, 1) if line.strip()[:1] not in ("", "#"))
        return next(itertools.islice(rows, i + 1, None))


def read_record(path, kind: type[Record] | None = None) -> Record:
    """Read a CSV written by :func:`write_record` as a record of the class
    ``kind``, or, when ``kind`` is ``None``, of the kind of
    :data:`_RECORD_KINDS` whose header ``t,<column>`` the file has.  ``dt``
    and ``t0`` missing from the comments are inferred from the first row
    times.

    ``#`` lines are comments wherever they stand, and the last ``# dt:`` and
    ``# t0:`` among them count; blank lines are skipped.  The first other
    line is the header, and each line after it a row of two cells, the time
    and the value parsed with the kind's ``parse``.  Row ``k`` (from 1) must
    stand at ``t0 + k dt``, up to ``1e-6 dt`` plus the rounding of the
    times.  A malformed file is rejected naming its path and its first bad
    line by number: a bad ``dt`` or ``t0`` comment, header, cell count or
    cell, and then the first row off the grid or with a value the kind
    rejects.

    The lines are read :data:`_READ_CHUNK` bytes at a time, and their rows
    parsed a column at a time: split into cells once and each column parsed
    in one ``map``.  Only when something fails is the file read again, line
    by line, for the number of the bad line.
    """
    kinds = _RECORD_KINDS if kind is None else (kind,)
    headers = " or ".join(f"'t,{k.column}'" for k in kinds)
    settings, kind, times, values = {}, None, [], []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for chunk in iter(lambda: fh.readlines(_READ_CHUNK), []):
                lines = list(map(str.strip, chunk))
                if "#" in "".join(chunk):
                    for s in lines:
                        if s[:1] == "#":
                            _take_setting(s, settings)
                    lines = [s for s in lines if s[:1] != "#"]
                rows = list(filter(None, lines))
                if kind is None and rows:
                    kind = next((k for k in kinds if rows[0] == f"t,{k.column}"), None)
                    if kind is None:
                        raise ValueError
                    rows = rows[1:]
                if rows:
                    # n rows split into 2n cells hold n commas: one each if
                    # every row holds one
                    cells = ",".join(rows).split(",")
                    if len(cells) != 2 * len(rows) or not all(map(str.__contains__, rows, itertools.repeat(","))):
                        raise ValueError
                    times.append(np.array(list(map(float, cells[0::2])), dtype=float))
                    values.append(np.array(list(map(kind.parse, cells[1::2]))))
    except ValueError:
        lineno, message = _first_bad_line(path, kinds, headers)
        raise ValueError(f"{path}, line {lineno}: {message}") from None
    if kind is None:
        raise ValueError(f"{path}: file contains no {headers} header")
    times, values = (np.concatenate(c) if c else np.array([]) for c in (times, values))
    dt, t0 = settings.get("dt"), settings.get("t0")
    if dt is None:
        if times.size < 2:
            raise ValueError(f"{path}: cannot infer dt: need a '# dt:' comment or at least two rows")
        try:
            dt = _step_width(times[1] - times[0])
        except ValueError as exc:
            raise ValueError(f"{path}, line {_row_line(path, 1)}: dt from the first two rows: {exc}") from None
    if t0 is None:
        try:
            t0 = _time_origin(times[0] - dt) if times.size else 0.0
        except ValueError as exc:
            raise ValueError(f"{path}, line {_row_line(path, 0)}: t0 from the first row: {exc}") from None
    k = np.arange(1, times.size + 1)
    grid = t0 + dt * k
    scale = dt if "dt" in settings else abs(times[0]) + abs(times[1])
    off_grid = ~(np.abs(times - grid) <= 1e-6 * dt + 2 * _EPS * (np.abs(times) + abs(t0) + k * scale))
    bad = off_grid | ~kind._valid(values)
    if bad.any():
        i = int(np.argmax(bad))
        message = f"time {times[i]:.17g} is not t0 + {i + 1} dt = {grid[i]:.17g}" if off_grid[i] else kind.invalid
        raise ValueError(f"{path}, line {_row_line(path, i)}: {message}")
    return kind(dt, values, t0)


def read_measurement_record(path) -> MeasurementRecord:
    """Read a CSV of header ``t,dy`` written by :func:`write_record`."""
    return read_record(path, MeasurementRecord)


def _of_dimension(x, dim: int, name: str) -> np.ndarray:
    """``x`` as a square matrix, checked to have the model's dimension
    ``dim``; the error names it ``name``."""
    m = as_square(x)
    if m.shape[0] != dim:
        raise ValueError(f"{name} is {m.shape[0]}x{m.shape[1]} but the model has dimension {dim}")
    return m


def _unnormalized_start(r0, dim: int, name: str):
    """The normalized coordinates of the Hermitian part of ``r0``, the
    unnormalized start of a ``dim``-level model's linear equation, and its
    ``log_lambda``, the log of the trace of ``r0``; ``r0`` must be finite,
    Hermitian and of positive trace, and errors name it ``name``."""
    s = hermitian_basis(dim).coords(require_hermitian(_of_dimension(r0, dim, name), name))
    if not s[0] > 0.0:
        raise ValueError(f"{name} must have positive trace")
    return s / s[0], float(np.log(s[0]))


def _normalized_density(rho0, name: str = "rho0") -> np.ndarray:
    m = require_hermitian(rho0, name)
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > 1e-6:
        raise ValueError(f"{name} trace {tr} is not 1 within 1e-6")
    return m / tr


def gauge(L, kappa: float, y_t: float, t: float, tol: float = 1e-12):
    """Gauge transform ``A_t = exp(-(L/k^2) y_t + (L^2/2k^2) t)`` and its
    exact inverse (the exponential of the negated exponent; the exponent
    commutes with itself, so this is the inverse up to rounding)."""
    Lm = as_square(L)
    if not np.isfinite(y_t):
        raise ValueError(f"record value y_t = {y_t} is not finite")
    k2 = kappa * kappa
    exponent = (-y_t / k2) * Lm + (t / (2.0 * k2)) * (Lm @ Lm)
    return expm(exponent, tol), expm(-exponent, tol)


def pathwise_rhs(model, a_t, a_t_inv, r) -> np.ndarray:
    """Time derivative of the gauge-transformed state:
    ``L r L^dag (1 - 1/k^2) - (A K A^-1) r - r (A K A^-1)^dag``."""
    s = a_t @ model.K @ a_t_inv
    L = model.L
    gain = 1.0 - 1.0 / model.kappa**2
    return gain * (L @ r @ dagger(L)) - s @ r - r @ dagger(s)


class Recovery(NamedTuple):
    rho_tilde: np.ndarray
    rho: np.ndarray
    log_lambda: float


def recover(a_t_inv, r) -> Recovery:
    """Undo the gauge: ``rho_tilde = A^-1 r (A^dag)^-1``, normalized ``rho``,
    and ``log_lambda = log(tr(rho_tilde))``."""
    a_inv = as_square(a_t_inv)
    rho_tilde = a_inv @ as_square(r) @ dagger(a_inv)
    tr = float(np.trace(rho_tilde).real)
    if not np.isfinite(tr) or tr <= 0.0:
        raise ValueError(f"recovered state has nonpositive trace {tr}: numerical collapse")
    return Recovery(rho_tilde, rho_tilde / tr, float(np.log(tr)))


class _MapStepper:
    """The step of a scheme whose step is ``x = R(dy) s``: a real map ``R``
    of the step's record increment ``dy`` alone, applied to the coordinates
    ``s``, then :func:`_renormalize`.

    A subclass gives ``what``, the noun by which errors name its state, and
    ``step_maps(dy, sum_sq=None)``: the ``(B, n^2, n^2)`` stack of the maps
    of the increments ``dy[b]``, each bitwise the one of its increment
    alone, raising ``ValueError`` when one is out of range; ``sum_sq``, when
    given, is the increments' finite sum of squares ``np.vdot(dy, dy)``.
    The one step is the stack step :meth:`advance_many`; a single state
    takes it as a stack of one, and every step builds its maps through
    :meth:`_maps`, so a single state and a stack meet the same errors in the
    same words.
    """

    def step_map(self, dy: float) -> np.ndarray:
        """The real map ``R`` of one step of increment ``dy``:
        ``step_maps([dy])[0]``."""
        return self.step_maps(np.array([dy]))[0]

    def propagate(self, s: np.ndarray, dy: float, t: float | None = None, where=None) -> np.ndarray:
        """The unnormalized coordinates ``R(dy) s`` of one state ``s`` one
        step of increment ``dy`` later, ending at time ``t``, as a stack of
        one; errors (see :meth:`_maps`) name the step as ``where(0)``."""
        return _apply_maps(self._maps(np.array([dy], dtype=float), t, where), s[None])[0]

    def advance(self, s: np.ndarray, dy: float, t: float, where=None):
        """:meth:`advance_many` of the one state ``s`` as a stack of one:
        its new coordinates and log trace; errors name it as ``where(0)``."""
        x, dlog = self.advance_many(s[None], [dy], t, where)
        return x[0], dlog[0]

    def advance_many(self, s: np.ndarray, dy, t: float, where=_batch_element):
        """The step of a stack of coordinates ``s[b]`` with increments
        ``dy[b]``, ending at time ``t``: the maps of :meth:`step_maps`
        through :func:`_apply_maps`, then :func:`_renormalize`, each element
        bitwise its step in a stack of one.  Returns the new coordinates and
        the log factors; errors name the failing element as ``where(b)``."""
        maps = self._maps(np.asarray(dy, dtype=float), t, where)
        return _renormalize(_apply_maps(maps, s), t, self.what, where)

    def _maps(self, dy: np.ndarray, t, where):
        """:meth:`step_maps` of the increments ``dy``, all finite when their
        sum of squares ``vdot`` is (one product, inf without a warning on
        overflow), which it is then given.  Otherwise, or when it raises
        ``ValueError``, raises the error of the first increment at fault,
        naming it as ``where(b)`` and the time ``t``: ``ValueError`` when it
        is not finite, and :class:`NonFiniteStateError` when its
        :meth:`step_map` raises."""
        sum_sq = float(np.vdot(dy, dy))
        if math.isfinite(sum_sq):
            try:
                return self.step_maps(dy, sum_sq)
            except ValueError:
                pass
        for b, dy_b in enumerate(dy.tolist()):
            of = "" if where is None else f" of {where(b)}"
            if not math.isfinite(dy_b):
                at = "" if t is None else f" at t = {t:.6g}"
                raise ValueError(f"record increment dy = {dy_b}{of} is not finite{at}")
            try:
                self.step_map(dy_b)
            except ValueError as exc:
                raise NonFiniteStateError(t, f"{self.what}{of} blew up ({exc})") from None
        return self.step_maps(dy)


# The Taylor table of the pathwise step map ``P(dy) = expm(D + dy C) =
# sum_i dy^i A_i`` (see :func:`_taylor_table`).  ``A_i`` sums, over ``k >=
# i``, the products of ``i`` factors ``C`` and ``k - i`` factors ``D``
# divided by ``k!``, so in the max-row-sum norm
#
#     ||A_i|| <= e^||D|| ||C||^i / i!.
#
# With ``c = max(||C||, 1)``, ``rho = _TAYLOR_RHO`` and the radius ``r = rho
# / c``, the terms past degree ``K`` of an increment ``|dy| <= r`` sum to at
# most ``e^||D|| rho^(K+1) / (K+1)! (K+2) / (K+2-rho)``, and ``||P(dy)|| >=
# e^-(||D|| + rho)``, since the inverse ``expm(-D - dy C)`` has norm at most
# ``e^(||D|| + rho)``.  The degree ``K`` is the least that takes the
# truncation error, relative to ``||P(dy)||``, below ``eps/2``: 16 while
# ``||D|| <= 0.43`` (the driven atom at ``dt = 0.01`` has ``||D|| = 0.025``).
# A model that needs a degree above ``_TAYLOR_MAX_DEGREE``, a drift of norm
# above about 13.8, has no table, and every increment takes ``expm_many``.
# ``c >= 1`` keeps ``r < 1``, so the powers of an increment within it cannot
# overflow.  The table is built by ``expm`` at ``_TAYLOR_TOL``, whose series
# cutoff is absolute, far below the rounding of the table's entries.
_TAYLOR_RHO = 0.75
_TAYLOR_MAX_DEGREE = 24
_TAYLOR_TOL = 1e-18


def _taylor_table(drift: np.ndarray, coupling: np.ndarray):
    """The table ``A`` of the maps ``P(dy) = expm(drift + dy coupling) =
    sum_i dy^i A_i`` to degree ``K``, laid out ``n^4 x (K+1)``, row ``a n^2
    + b`` holding ``A_i[a, b]`` in column ``i``, and the square of its
    radius ``r`` (see ``_TAYLOR_RHO``); or ``None`` and ``-inf`` when no
    degree up to ``_TAYLOR_MAX_DEGREE`` meets the bound, or when the block
    matrix is beyond ``expm``.

    ``A_i`` is the block ``(0, i)`` of ``expm`` of the ``(K+1) n^2``-square
    block-bidiagonal matrix with ``drift`` on its diagonal and ``coupling``
    above it: that matrix is ``I (x) drift + N (x) coupling`` with the shift
    ``N``, ``N^(K+1) = 0``, so its exponential is ``sum_i N^i (x) A_i``."""
    m, rho = len(drift), _TAYLOR_RHO
    # the log of the bound's factor e^(2 ||D|| + rho) (inf for a non-finite drift)
    log_factor = 2.0 * float(np.abs(drift).sum(axis=1).max()) + rho
    for k in range(_TAYLOR_MAX_DEGREE + 1):
        log_tail = (k + 1) * math.log(rho) - math.lgamma(k + 2) + math.log((k + 2) / (k + 2 - rho))
        if log_factor + log_tail <= math.log(0.5 * _EPS):
            break
    else:
        return None, -np.inf
    blocks = np.zeros((k + 1, m, k + 1, m))
    i = np.arange(k + 1)
    blocks[i, :, i], blocks[i[:-1], :, i[1:]] = drift, coupling
    try:
        e = expm(blocks.reshape((k + 1) * m, (k + 1) * m), _TAYLOR_TOL)
    except ValueError:
        return None, -np.inf
    radius = rho / max(float(np.abs(coupling).sum(axis=1).max()), 1.0)
    return e[:m].reshape(m, k + 1, m).transpose(0, 2, 1).reshape(m * m, k + 1), radius * radius


class PathwiseIntegrator(_MapStepper):
    """Exact stepper of the pathwise flow on the piecewise-linear record.

    The gauge exponent ``X(t) = -(y(t)/k^2) L + (t/2k^2) L^2`` commutes with
    ``L``, and within a record step of width ``dt`` and increment ``dy`` the
    record ``y`` has the constant slope ``dy/dt``.  Undoing the gauge, the
    flow is then linear and time-invariant in the original frame,
    ``rho~' = gain L rho~ L^dag - J rho~ - rho~ J^dag`` with
    ``J = K - (dy/(dt k^2)) L + L^2/(2k^2)`` and ``gain = 1 - 1/k^2``, so the
    step maps ``vec(rho~)`` by ``expm(dt Gen)`` with ``Gen = gain
    conj(L) (x) L - I (x) J - conj(J) (x) I`` (column stacking).  ``Gen``
    takes Hermitian matrices to Hermitian matrices, so in the coordinates of
    the Hermitian basis it is a real matrix, and the step's map is the real
    ``P = expm(dt Gen) = expm(D + dy C)``, with the drift ``D`` and the
    coupling ``C`` fixed by the model and ``dt``.  ``P`` depends on ``dy``
    only: not on the time and not on the record value.

    ``P(dy)`` is an entire function of ``dy``, ``sum_i dy^i A_i``, and the
    stepper builds the table of ``A_0 ... A_K`` once (see
    :func:`_taylor_table`): the first block row of the exponential of the
    ``(K+1)``-block bidiagonal matrix with ``D`` on its diagonal and ``C``
    above it (C. Van Loan, "Computing integrals involving the matrix
    exponential", IEEE TAC 23 (1978) 395).  :meth:`step_maps` makes the map
    of an increment within the table's radius from the table and the
    increment's powers, and that of any other increment with
    :func:`expm_many`.

    The state is carried normalized, as coordinates, and stepped as every
    :class:`_MapStepper` steps it, with :meth:`advance_many` on a stack of
    states.  Each map is bitwise the one of its increment alone, so a
    replay and an ensemble are bitwise the online run.
    """

    what = "pathwise state"

    def __init__(self, model, dt: float):
        dt = _step_width(dt)
        n, L, k2 = model.dim, model.L, model.kappa**2
        eye = np.eye(n)
        j0 = model.K + (L @ L) / (2.0 * k2)
        self._basis = basis = hermitian_basis(n)
        # dt Gen = drift + dy coupling
        self._drift = basis.real_map(
            dt * ((1.0 - 1.0 / k2) * kron(L.conj(), L) - kron(eye, j0) - kron(j0.conj(), eye))
        )
        self._coupling = basis.real_map((kron(eye, L) + kron(L.conj(), eye)) / k2)
        # the table, and the square of its radius: -inf, which no increment
        # is within, when there is none
        self._table, self._radius_sq = _taylor_table(self._drift, self._coupling)

    def step_maps(self, dy, sum_sq=None) -> np.ndarray:
        """The real maps ``P`` with ``s_end = P s_start`` of steps with
        increments ``dy[b]``; returns a ``(B, n^2, n^2)`` stack.

        An increment within the table's radius, ``dy^2 <= r^2``, takes the
        map ``sum_i dy^i A_i``: its powers by ``np.multiply.accumulate``,
        then one matrix-vector product with the table, laid out ``n^4 x
        (K+1)``, through :func:`_apply_maps`.  Any other increment, and one
        that is not finite, takes :func:`expm_many` of its generator, which
        raises the error of an argument it cannot take.  So each map is
        bitwise the one of its increment alone.  The sum of squares
        ``sum_sq``, when given, bounds every ``dy^2`` (rounding is monotone),
        so ``sum_sq <= r^2`` puts the whole stack within the radius at
        once."""
        dy = np.asarray(dy, dtype=float)
        if sum_sq is not None and sum_sq <= self._radius_sq:
            return self._taylor(dy)
        with np.errstate(over="ignore"):
            inside = dy * dy <= self._radius_sq
        if inside.all():
            return self._taylor(dy)
        maps = np.empty((dy.size, *self._drift.shape))
        beyond = ~inside
        maps[beyond] = expm_many(self._drift + dy[beyond, None, None] * self._coupling)
        if inside.any():
            maps[inside] = self._taylor(dy[inside])
        return maps

    def _taylor(self, dy: np.ndarray) -> np.ndarray:
        """The maps ``sum_i dy[b]^i A_i`` of increments within the radius."""
        powers = np.empty((dy.size, self._table.shape[1]))
        powers[:, 0], powers[:, 1:] = 1.0, dy[:, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        return _apply_maps(self._table, powers).reshape(dy.size, *self._drift.shape)

    def recover_state(self, r: np.ndarray, log_lambda: float, t: float) -> DensityState:
        """The unnormalized state ``r``, a matrix, at time ``t`` through
        :func:`_renormalize` as a stack of one, its log trace added to
        ``log_lambda``."""
        s, dlog = _renormalize(self._basis.coords(r)[None], t, self.what)
        return DensityState(self._basis.matrices(s[0]), log_lambda + float(dlog[0]), t)


def pathwise_filter(model, record: MeasurementRecord, rho0):
    """Pathwise filter: the replay of a record (see :func:`_diffusion_steps`
    and :func:`_trajectory`), each step bitwise
    :meth:`PathwiseIntegrator.advance_many` on a stack of one; a failing
    step raises :class:`NonFiniteStateError` naming the step and its
    time."""
    return _diffusion_steps(model, "pathwise", record.dt, rho0).replay(record)


def _chunk_products(maps: np.ndarray, every: int) -> np.ndarray:
    """The products ``maps[j every + every - 1] @ ... @ maps[j every]``,
    later map on the left, of each run of ``every`` maps of a stack whose
    length is a multiple of ``every``: a pairwise tree of batched
    ``np.matmul`` calls over all runs at once, an odd map out carried to the
    next level.  At ``every = 1`` it returns the maps themselves.  Overflow
    goes to inf or NaN without a floating-point warning."""
    p = maps.reshape(-1, every, *maps.shape[1:])
    with np.errstate(all="ignore"):
        while p.shape[1] > 1:
            pairs = p.shape[1] // 2
            prod = np.matmul(p[:, 1 : 2 * pairs : 2], p[:, 0 : 2 * pairs : 2])
            p = np.concatenate([prod, p[:, 2 * pairs :]], axis=1) if p.shape[1] % 2 else prod
    return p[:, 0]


def _samples(stepper: _MapStepper, record: MeasurementRecord, start, log0: float, every: int, where=_step_of):
    """The states of the replay of ``record`` by ``stepper`` from the
    normalized coordinates ``start`` with ``log_lambda = log0``, at every
    ``every``-th grid point, ``every`` dividing its step count: the
    :class:`StatePath` at times ``t0, t0 + every dt, ...``.  The one loop of
    both sampled oracles, :func:`pathwise_samples` and
    :func:`em_unnormalized_many`.

    The step maps of ``stepper.step_maps`` are built for
    ``_MAP_BLOCK``-rounded blocks of whole chunks of ``c`` steps at a time,
    ``c`` the largest divisor of ``every`` not above ``_MAP_BLOCK``, and each
    chunk's maps multiplied into one (:func:`_chunk_products`), which
    :func:`_map_block` steps: one product with the state, one division by
    its trace and one check a chunk, and no state kept between chunk ends.
    The products round differently from the fine steps, by about ``c n^2
    eps`` relative; at ``every = 1`` the chunk is the step and the states
    are bitwise the fine replay's.  When a block fails to build or a chunk
    fails the check, as an overflowing product does, the states are those of
    the fine replay, :func:`_trajectory` with the same stepper's steps and
    maps, every ``every``-th of them, which either passes or raises the
    error of its failing fine step, naming it as ``where(k)(0)``."""
    c = max(d for d in range(1, min(every, _MAP_BLOCK) + 1) if every % d == 0)
    block = c * (_MAP_BLOCK // c)
    coords = np.empty((record.n_steps // c + 1, start.size))
    logs = np.empty(len(coords))
    coords[0], logs[0] = start, log0
    xs = record.increments
    for lo in range(0, len(xs), block):
        j = lo // c
        try:
            chunks = _chunk_products(stepper.step_maps(xs[lo : lo + block]), c)
        except ValueError:
            break
        if _map_block(chunks, coords[j : j + len(chunks) + 1], logs[j : j + len(chunks) + 1]) < len(chunks):
            break
    else:
        keep = slice(None, None, every // c)
        rho = hermitian_basis(math.isqrt(start.size)).matrices(coords[keep])
        return StatePath(rho, logs[keep], record.times[::every])
    take = _one_step(record.dt, None, stepper.advance_many)[2]  # a replay observes nothing
    return _trajectory(take, start, log0, record.dt, record.t0, xs, stepper.step_maps, where)[::every]


def pathwise_samples(model, record: MeasurementRecord, rho0, every: int) -> StatePath:
    """The states of :func:`pathwise_filter` at every ``every``-th grid
    point of the record, ``every`` dividing its step count: the
    :class:`StatePath` at times ``t0, t0 + every dt, ...``.

    :func:`_samples` with a :class:`PathwiseIntegrator`, whose step maps are
    each one product of its Taylor table with the powers of the increment
    when the increment is within the table's radius.  The states are within
    about ``every n^2 eps`` of :func:`pathwise_filter`'s and bitwise its
    states at ``every = 1``.  Where a chunk fails they are its states, since
    the fine replay of ``_samples`` with this stepper is
    :func:`pathwise_filter` bitwise, which either passes or raises the error
    of its failing fine step."""
    every = _integer(every, "every")
    if every < 1 or record.n_steps % every:
        raise ValueError(f"every = {every} does not divide {record.n_steps} steps")
    return _samples(PathwiseIntegrator(model, record.dt), record, _start(rho0, model.dim), 0.0, every)


class RobustStepper(_MapStepper):
    """Implicit filter step as one fixed real map of weighted coordinates.

    The implicit matrix ``(I (x) A) + (B^T (x) I) - (D^T (x) C)`` depends only
    on the model and ``dt``, so it is inverted once, to ``S``, by one
    ``np.linalg.solve`` against the identity (LAPACK ``gesv``).  ``E(dy) =
    exp((dy/k^2) L - (dt/2k^2) L^2)`` is a function of ``L``, so by
    Cayley-Hamilton it is ``sum_{j<n} c_j(dy) L^j`` (see
    :meth:`coefficients`), and the step's unnormalized state is ``X = S(E rho
    E^dag) = sum_jk conj(c_j) c_k S(L^k rho L^j^dag)``.  Pairing the terms
    ``jk`` and ``kj``, which are each other's adjoints, it is a real
    combination of Hermitian-preserving maps: ``S(L^j rho L^j^dag)`` with
    weight ``|c_j|^2``, and, for ``j < k``, ``S(L^k rho L^j^dag + h.c.)`` and
    ``S(i L^k rho L^j^dag + h.c.)`` with weights ``Re`` and ``Im`` of
    ``conj(c_j) c_k``.  In the coordinates of the Hermitian basis each of
    these ``n^2`` maps is a real ``n^2 x n^2`` matrix ``M_a``, and the step
    is ``x = R(dy) s`` with the real step map ``R = sum_a u_a M_a`` of the
    real weights ``u`` of :meth:`weights`: the fixed real ``n^2 x n^4``
    matrix ``M = [M_0 ... M_(n^2-1)]``, built once, applied to ``u (x) s``.
    :meth:`step_maps` builds ``R`` as one matrix-vector product of ``M``,
    laid out ``n^4 x n^2``, with ``u``, and a step is taken as every
    :class:`_MapStepper` takes it.  A step makes no matrix exponential of
    its own for ``n = 2``, and no matrix product but these two.
    """

    what = "implicit filter state"

    def __init__(self, model, dt: float):
        dt = _step_width(dt)
        n = model.dim
        K, L = model.K, model.L
        k2 = model.kappa**2
        eye = np.eye(n, dtype=complex)
        system = (
            np.eye(n * n, dtype=complex)
            + dt * kron(eye, K)
            + dt * kron(K.conj(), eye)
            - (1.0 - 1.0 / k2) * dt * kron(L.conj(), L)
        )
        inverse = np.linalg.solve(system, np.eye(n * n, dtype=complex))
        powers = [eye]
        for _ in range(n - 1):
            powers.append(powers[-1] @ L)
        # S(L^k rho L^j^dag) on column-stacked vectors
        term = [[inverse @ kron(lj.conj(), lk) for lk in powers] for lj in powers]
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        maps = [term[j][j] for j in range(n)]
        for j, k in pairs:
            maps += [term[j][k] + term[k][j], 1j * (term[j][k] - term[k][j])]
        # row i n^2 + j, column a: entry (i, j) of M_a
        self._map = np.stack([hermitian_basis(n).real_map(m) for m in maps], axis=-1).reshape(n**4, n * n)
        # where weights() finds u in the (re, im) pairs of conj(c_j) c_k, row by row
        self._weight_index = np.array(
            [2 * (j * n + j) for j in range(n)] + [2 * (j * n + k) + part for j, k in pairs for part in (0, 1)]
        )
        # E(dy) = exp(a X - b X^2) at X = L, with a = dy/k^2 and b = dt/2k^2
        self._inv_k2, b = 1.0 / k2, dt / (2.0 * k2)
        if n == 2:
            # L's eigenvalues mid -+ q, with q^2 from the entries, so that a
            # (nearly) defective L gives a (nearly) zero delta; |lam2| <=
            # |lam1|, so that c0 = f(lam2) - c1 lam2 cancels least
            (l00, l01), (l10, l11) = L.tolist()
            mid, q = 0.5 * (l00 + l11), complex(np.sqrt(0.25 * (l00 - l11) ** 2 + l01 * l10))
            lam1, lam2 = sorted((mid + q, mid - q), key=abs, reverse=True)
            self._lam2, self._delta = lam2, lam1 - lam2
            self._shift, self._lam2_drift = (lam1 + lam2) * b, lam2 * lam2 * b
            # the largest |a| at which the real parts slope a - offset of both
            # exponents of coefficients() are within half the range of exp,
            # negative when none is, kept as its square with its sign
            half = 0.5 * np.log(np.finfo(float).max)
            lines = [(lam2.real, self._lam2_drift.real), (self._delta.real, (self._delta * self._shift).real)]
            limit = min(
                (half + offset) / abs(slope) if slope else np.copysign(np.inf, half + offset) for slope, offset in lines
            )
            self._a_sq_in_range = np.copysign(limit * limit, limit)
        else:
            # the companion matrix of L's characteristic polynomial: its
            # functions' first columns are the coefficients of the same
            # functions of L in powers of L
            p = np.poly(L)
            cm = np.zeros((n, n), dtype=complex)
            cm[1:, :-1] = np.eye(n - 1)
            cm[:, -1] = -p[:0:-1]
            self._companion, self._companion_drift = cm, (cm @ cm) * b
        self._n = n

    def coefficients(self, dy, sum_sq=None) -> np.ndarray:
        """The ``(B, n)`` coefficients ``c[b]`` with ``E(dy[b]) = sum_j
        c[b, j] L^j``; each row is bitwise the one of its increment alone.

        For ``n = 2``, with ``L``'s eigenvalues ``lam1, lam2``, ``delta = lam1
        - lam2``, ``s = dy/k^2 - (lam1 + lam2) dt/2k^2`` and ``f(lam) =
        exp(lam dy/k^2 - lam^2 dt/2k^2)``, they are the divided difference
        ``c1 = (f(lam1) - f(lam2)) / delta = f(lam2) expm1(delta s) / delta``,
        which is ``f(lam2) s`` at ``delta = 0`` (an ``L`` with one eigenvalue,
        such as the defective ``sigma``), and ``c0 = f(lam2) - c1 lam2``.
        Both exponents, ``lam2 dy/k^2 - lam2^2 dt/2k^2`` and ``delta s``,
        have real parts affine in ``dy``; only when the increments' sum of
        squares, ``sum_sq`` when given and ``np.vdot(dy, dy)`` otherwise,
        could take one of them past half the range of ``exp`` are they
        computed under ``np.errstate``, and rows that are not finite
        become NaN, which passes through the step without a floating-point
        warning, so the step's tail reports the state as blown up.  For
        ``n != 2`` the coefficients are the first columns of the same
        exponentials of the companion matrix, from :func:`expm_many`.
        """
        dy = np.asarray(dy, dtype=float)
        a = dy * self._inv_k2
        if self._n != 2:
            return expm_many(a[:, None, None] * self._companion - self._companion_drift)[:, :, 0]
        if sum_sq is None:
            sum_sq = np.vdot(dy, dy)  # inf, not a warning, on overflow
        # sum_sq / k^4 bounds every a^2 up to a few roundings, which the
        # gate's margin of half the range of exp absorbs
        if sum_sq * self._inv_k2 * self._inv_k2 <= self._a_sq_in_range:
            return self._closed_form(a)
        with np.errstate(all="ignore"):
            c = self._closed_form(a)
        c[~np.isfinite(c).all(axis=1)] = np.nan
        return c

    def _closed_form(self, a: np.ndarray) -> np.ndarray:
        """The ``n = 2`` coefficients of :meth:`coefficients` at ``a =
        dy/k^2``."""
        s = a - self._shift
        if self._delta:
            s = np.expm1(self._delta * s) / self._delta
        f2 = np.exp(self._lam2 * a - self._lam2_drift)
        c = np.empty((a.size, 2), dtype=complex)
        c1 = np.multiply(f2, s, out=c[:, 1])
        np.subtract(f2, c1 * self._lam2, out=c[:, 0])
        return c

    def weights(self, dy, sum_sq=None) -> np.ndarray:
        """The ``(B, n^2)`` real weights ``u[b]`` of the increments ``dy[b]``
        (see :meth:`coefficients`, which takes ``sum_sq``): ``|c_j|^2`` for
        each ``j``, then ``Re`` and ``Im`` of ``conj(c_j) c_k`` for each ``j <
        k``; each row bitwise the one of its increment alone."""
        c = self.coefficients(dy, sum_sq)
        w = c.conj()[:, :, None] * c[:, None, :]
        return w.reshape(c.shape[0], -1).view(float)[:, self._weight_index]

    def step_maps(self, dy, sum_sq=None) -> np.ndarray:
        """The real maps ``R`` with ``x = R s`` of steps with increments
        ``dy[b]``, a ``(B, n^2, n^2)`` stack: each one matrix-vector product
        of ``M`` with its row of :meth:`weights` (given ``sum_sq``), so each
        is bitwise the one of its increment alone."""
        u = self.weights(dy, sum_sq)
        return _apply_maps(self._map, u).reshape(u.shape[0], self._n * self._n, self._n * self._n)


def robust_step(model, state_prev, dy: float, dt: float) -> np.ndarray:
    """Single implicit step mapping the previous unnormalized state, a
    Hermitian matrix, through the solve of ``A X + X B - C X D = E(dy)
    X_prev E(dy)^dag``.

    A zero-width step is a no-op.  Raises ``ValueError`` when
    ``state_prev`` is not Hermitian (see :func:`linalg.require_hermitian`),
    since the step acts on its coordinates.
    """
    prev = require_hermitian(state_prev, "state_prev")
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if dt == 0.0:
        return prev.copy()
    basis = hermitian_basis(prev.shape[0])
    return basis.matrices(RobustStepper(model, dt).propagate(basis.coords(prev), dy))


def robust_filter(model, record: MeasurementRecord, rho0):
    """Robust filter: the replay of a record (see :func:`_diffusion_steps`
    and :func:`_trajectory`), each step bitwise
    :meth:`RobustStepper.advance_many` on a stack of one; a failing step
    raises :class:`NonFiniteStateError` naming the step and its time."""
    return _diffusion_steps(model, "robust", record.dt, rho0).replay(record)


def _em_maps(model) -> np.ndarray:
    """The real map of the explicit Euler-Maruyama steps on coordinates,
    ``(1 + 2 n^2) x n^2``: row 0 is the measured mean ``tr((L + L^dag)
    rho)``, the next ``n^2`` rows the drift ``L rho L^dag - K rho - rho
    K^dag`` and the last ``n^2`` the noise ``L rho + rho L^dag``, so one
    product gives all three.  Only ``K``, ``L`` and the shape of ``L`` are
    read from ``model``."""
    K, L = model.K, model.L
    basis = hermitian_basis(L.shape[0])
    eye = np.eye(L.shape[0], dtype=complex)
    drift = basis.real_map(kron(L.conj(), L) - kron(eye, K) - kron(K.conj(), eye))
    noise = basis.real_map(kron(eye, L) + kron(L.conj(), eye))
    return np.vstack([basis.functional(L + dagger(L)), drift, noise])


class _LinearEMStepper(_MapStepper):
    """The explicit Euler-Maruyama step of the linear (unnormalized)
    equation, ``s -> (I + dt drift) s + (dy/k^2) noise s`` with the real
    maps of :func:`_em_maps`, as a map scheme: it is ``x = R(dy) s`` with
    ``R(dy) = step_mat + dy stoch``, linear in the increment, where
    ``step_mat = I + dt drift`` and ``stoch = noise / k^2`` are built
    once."""

    what = "unnormalized state"

    def __init__(self, model, dt: float):
        n2 = model.dim**2
        maps = _em_maps(model)
        self._step_mat = np.eye(n2) + _step_width(dt) * maps[1 : 1 + n2]
        self._stoch = maps[1 + n2 :] / model.kappa**2

    def step_maps(self, dy, sum_sq=None) -> np.ndarray:
        """The ``(B, n^2, n^2)`` maps ``step_mat + dy[b] stoch``, each one
        entry by entry, so bitwise the map of its increment alone."""
        return self._step_mat + np.asarray(dy, dtype=float)[:, None, None] * self._stoch


def em_unnormalized_many(model, records, rho_tilde0, sample_every: int = 1):
    """Euler-Maruyama integration of the linear (unnormalized) equation for
    several records sharing one grid, any iterable of them.

    Returns one :class:`StatePath` per record.  Each record is sampled alone,
    by :func:`_samples` with one :class:`_LinearEMStepper` for all: the
    maps ``I + dt drift + (dy/k^2) noise`` of each chunk of steps
    (``sample_every`` of them, or its largest divisor up to ``_MAP_BLOCK``)
    are multiplied into one, and the state takes one product and one
    renormalization a chunk, with the log factor accumulated, so arbitrarily
    long runs neither overflow nor underflow.  The states are within about
    ``sample_every n^2 eps`` of the fine steps, bitwise them at
    ``sample_every = 1``, and are the fine steps' own where a chunk fails; a
    failing step raises :class:`NonFiniteStateError` naming ``record b``,
    the step and its time.  ``sample_every`` thins the output (it must
    divide the step count), while integration always uses the full grid.
    """
    sample_every = _integer(sample_every, "sample_every")
    records = list(records)
    if not records:
        raise ValueError("need at least one record")
    first = records[0]
    if any((rec.dt, rec.t0, rec.n_steps) != (first.dt, first.t0, first.n_steps) for rec in records):
        raise ValueError("all records must share dt, t0, and length")
    if sample_every < 1 or first.n_steps % sample_every != 0:
        raise ValueError(f"sample_every {sample_every} does not divide {first.n_steps} steps")
    s0, log0 = _unnormalized_start(rho_tilde0, model.dim, "rho_tilde0")
    stepper = _LinearEMStepper(model, first.dt)
    return [
        _samples(stepper, rec, s0, log0, sample_every, lambda k, b=b: lambda _: f"record {b} in step {k}")
        for b, rec in enumerate(records)
    ]


def em_unnormalized(model, record: MeasurementRecord, rho_tilde0, sample_every: int = 1):
    """Explicit Euler-Maruyama for the linear equation driven by ``dy``:
    ``rho~ += (L rho~ L^dag - K rho~ - rho~ K^dag) dt + (L rho~ + rho~ L^dag) dy / k^2``,
    with the log factor kept in ``log_lambda``: :func:`em_unnormalized_many`
    of the one record, whose errors name it ``record 0``."""
    return em_unnormalized_many(model, [record], rho_tilde0, sample_every)[0]


def _em_step_many(
    maps: np.ndarray, kappa: float, s: np.ndarray, dy: np.ndarray, dt: float, t: float, where=_batch_element
):
    """One explicit Euler-Maruyama step of the normalized equation for a
    stack of coordinates ``s[b]`` with record increments ``dy[b]``, over a
    step of width ``dt`` ending at time ``t``, with the maps of
    :func:`_em_maps`: drift plus noise driven by the innovation ``dnu = (dy
    - m dt) / kappa``, with ``m = tr((L + L^dag) rho)``.  Each element is
    bitwise its step in a stack of one.  Returns the new coordinates and
    the log-likelihood increments ``(m dy - m^2 dt / 2) / kappa^2``; errors
    name the failing element as ``where(b)`` and the time ``t``."""
    y = _apply_maps(maps, s)
    m, drift, noise = y[:, 0], y[:, 1 : 1 + s.shape[1]], y[:, 1 + s.shape[1] :]
    dnu = (dy - m * dt) / kappa
    x = s + drift * dt + ((noise - m[:, None] * s) / kappa) * dnu[:, None]
    return _renormalize(x, t, "normalized state", where)[0], (m * dy - 0.5 * m * m * dt) / kappa**2


class _Steps(NamedTuple):
    """The steps of one scheme over one record kind from one start state,
    the same for online runs, replays and ensembles (see :func:`_steps`).
    ``record`` is the :class:`Record` kind, ``dt`` the step width,
    ``start`` the start state's coordinates and ``span`` the most steps
    ``many`` takes in one call."""

    record: type[Record]
    dt: float
    start: np.ndarray
    log0: float
    draw: Callable
    span: int
    many: Callable
    replay: Callable


def _map_block(maps: np.ndarray, coords: np.ndarray, logs: np.ndarray) -> int:
    """Step the state ``coords[0]`` with ``log_lambda = logs[0]`` through
    the real maps ``maps[j]``, one a step, into ``coords[j + 1]`` and
    ``logs[j + 1]``; returns how many steps, from the first, pass the tail's
    check.  Only their results are written in full: a failing state goes
    on through the rest of the block as NaN or worse, without a
    floating-point warning, into coordinates that the caller overwrites.

    Each step is :meth:`_MapStepper.advance_many` on a stack of one with
    its bookkeeping taken out of the loop: the map's product with the
    state, by ``ndarray.dot``, which calls the same BLAS ``dgemv`` as the
    ``np.matmul`` of :func:`_apply_maps` on a contiguous matrix and vector
    with less overhead a call, and the division by the trace ``x[0]``, for
    each step; then, once for the block, :func:`_tail_failures` on every
    step's unnormalized coordinates, ``np.log`` of the traces and their sum into
    ``log_lambda`` by ``np.add.accumulate``, which adds in sequence.  So
    every result is bitwise the step's own."""
    x = np.empty((len(maps), coords.shape[1]))
    s = coords[0]
    with np.errstate(all="ignore"):
        for m, y, out in zip(maps, x, coords[1:]):
            m.dot(s, y)
            s = np.divide(y, y[0], out=out)
        bad = _tail_failures(x)
    done = len(maps) if bad is None or not bad.any() else int(bad.argmax())
    np.log(x[:done, 0], out=logs[1 : done + 1])
    np.add.accumulate(logs[: done + 1], out=logs[: done + 1])
    return done


def _trajectory(
    take, start: np.ndarray, log0: float, dt: float, t0: float, xs: np.ndarray, build=None, where=_step_of
) -> StatePath:
    """The loop of a replay: one trajectory from the coordinates ``start``
    with ``log_lambda = log0`` at ``t0``, step ``k`` taking the record value
    ``xs[k]`` and ending at ``t0 + (k + 1) dt``; its errors name it as
    ``where(k + 1)(0)``, ``step k + 1`` by default.

    ``build``, when given, builds the real maps of ``_MAP_BLOCK`` steps at
    a time, with which one step of ``take`` is the map's product with the
    state and :func:`_renormalize`; :func:`_map_block` steps such a block
    bitwise as ``take`` does, up to its first step that fails the tail's
    check.  ``take(s, vs, k, where, t0) -> (states, dlogs)``, the scheme's
    replay step (see :func:`_steps`), takes the rest of each block in one
    call on a stack of one, rebuilding a failing step's map and raising its
    own error; without a builder, or in a block it rejects, that is the
    whole block, from a multiple of ``_MAP_BLOCK``.  The log factors of a
    block are summed by ``np.add.accumulate``, which adds in sequence.
    Returns the :class:`StatePath` of every grid point, the start included,
    from coordinates written into one array and converted to matrices
    once."""
    times = t0 + dt * np.arange(len(xs) + 1)
    coords = np.empty((len(times), start.size))
    logs = np.empty(len(times))
    coords[0], logs[0] = start, log0
    for lo in range(0, len(xs), _MAP_BLOCK):
        hi = min(lo + _MAP_BLOCK, len(xs))
        try:
            maps = build(xs[lo:hi]) if build else None
        except ValueError:
            maps = None
        first = lo if maps is None else lo + _map_block(maps, coords[lo : hi + 1], logs[lo : hi + 1])
        if first < hi:
            states, dlogs = take(coords[first : first + 1], xs[first:hi, None], first, where, t0)
            coords[first + 1 : hi + 1], logs[first + 1 : hi + 1] = states[:, 0], dlogs[:, 0]
        np.add.accumulate(logs[first : hi + 1], out=logs[first : hi + 1])
    return StatePath(hermitian_basis(math.isqrt(start.size)).matrices(coords), logs, times)


def _one_step(dt: float, observe, stack):
    """The ``span``, ``many`` and ``take`` of :func:`_steps` of a scheme
    that takes one step at a time, ``_STEP_BLOCK`` steps a call, made of its
    pieces, all on a stack of coordinates ``s[b]``, whose errors name the
    failing element as ``where(b)``:

    * ``observe(s, x, t, where) -> v``: the record values that the draws
      ``x[b]`` give in a step ending at time ``t``;
    * ``stack(s, v, t, where) -> (s, dlog)``: the step with record values
      ``v[b]``, ending at ``t``, each element bitwise its stack of one.
    """

    def many(s, xs, k, where, t0=0.0):
        states, values, dlogs = np.empty((len(xs), *s.shape)), [], np.empty(xs.shape)
        for j, x in enumerate(xs):
            t, name = t0 + (k + j + 1) * dt, where(k + j + 1)
            v = observe(s, x, t, name)
            s, dlogs[j] = stack(s, v, t, name)
            states[j] = s
            values.append(v)
        return states, np.array(values), dlogs

    def take(s, vs, k, where, t0):
        states, dlogs = np.empty((len(vs), *s.shape)), np.empty(vs.shape)
        for j, v in enumerate(vs):
            s, dlogs[j] = stack(s, v, t0 + (k + j + 1) * dt, where(k + j + 1))
            states[j] = s
        return states, dlogs

    return _STEP_BLOCK, many, take


def _steps(
    record: type[Record], dt: float, start, log0: float, draw, span: int, many, take, build=None
) -> _Steps:
    """The :class:`_Steps` of a scheme of the :class:`Record` kind
    ``record`` over steps of width ``dt`` from the normalized start
    coordinates ``start`` with ``log_lambda = log0``, made of its pieces,
    all on a stack of coordinates ``s[b]`` at grid point ``k`` (from 0),
    whose errors name trajectory ``b`` in step ``j`` (from 1, ending at
    ``t0 + j dt``) as ``where(j)(b)``:

    * ``draw(rng, size)``: the numbers ``x`` a run draws for ``size`` steps;
    * ``many(s, xs, k, where, t0=0.0) -> (states, values, dlogs)``: the
      online step of every run (see :func:`_online`), which takes the stack
      through steps ``k + 1`` to ``k + L`` with the draws ``xs[j, b]`` of
      its ``L <= span`` steps, forming each record value from its draw and
      the state; it returns each step's coordinates, record values and log
      factors, each of shape ``(L, B, ...)``, each element bitwise its stack
      of one;
    * ``take(s, vs, k, where, t0) -> (states, dlogs)``: the same steps with
      the record values ``vs[j, b]`` given;
    * ``build(vs)``: the real maps of steps with record values ``vs``, with
      which one step of ``take`` is :func:`_apply_maps` and
      :func:`_renormalize`; or ``None``.

    ``span`` divides ``_DRAW_BLOCK``, so runs start a call at its multiples
    and replays, through :func:`_trajectory`, at those of ``_MAP_BLOCK``
    where a scheme needs it.  ``replay(record) -> StatePath`` replays a
    record with ``take`` and the maps of ``build``, bitwise the run that
    wrote it.  :func:`_one_step` makes ``span``, ``many`` and ``take`` of a
    scheme that steps one step at a time.
    """

    def replay(rec):
        return _trajectory(take, start, log0, rec.dt, rec.t0, rec.values, build)

    return _Steps(record, dt, start, log0, draw, span, many, replay)


def _online(steps: _Steps, n_traj: int, blocks, where, t0: float = 0.0):
    """The one loop of every online run: ``n_traj`` trajectories from the
    start of ``steps``, stepped as one stack by ``steps.many``, each element
    bitwise its stack of one, so a single run is an ensemble of one.  Each
    of ``blocks`` holds the draws of the next steps, ``block[j, b]`` for
    trajectory ``b``, in a whole number of spans but for the last, so that
    every call but the last starts at a multiple of ``steps.span``; errors
    name trajectory ``b`` in step ``j`` as ``where(j)(b)``.  Yields, for up
    to ``steps.span`` steps at a time, their new coordinates, record values
    and log factors (see :func:`_steps`)."""
    s, k, span = np.tile(steps.start, (n_traj, 1)), 0, steps.span
    for xs in blocks:
        for lo in range(0, len(xs), span):
            states, values, dlogs = steps.many(s, xs[lo : lo + span], k, where, t0)
            s, k = states[-1], k + len(states)
            yield states, values, dlogs


def _path(steps: _Steps, n: int, blocks, t0: float = 0.0):
    """A single online run of ``n`` steps from ``t0``, :func:`_online` on a
    stack of one with the draws ``blocks``, whose errors name the step and
    its time: its record and its :class:`StatePath`.  The steps' log
    factors are summed by ``np.add.accumulate``, which adds in sequence,
    and the coordinates converted to matrices, once, at the end."""
    coords = np.empty((n + 1, steps.start.size))
    logs = np.empty(n + 1)
    values = np.empty(n, dtype=steps.record.dtype)
    coords[0], logs[0] = steps.start, steps.log0
    k = 0
    for states, v, dlogs in _online(steps, 1, blocks, _step_of, t0):
        m = k + len(states)
        coords[k + 1 : m + 1], values[k:m], logs[k + 1 : m + 1] = states[:, 0], v[:, 0], dlogs[:, 0]
        k = m
    np.add.accumulate(logs, out=logs)
    record = steps.record(steps.dt, values, t0)
    return record, StatePath(hermitian_basis(math.isqrt(coords.shape[1])).matrices(coords), logs, record.times)


def _diffusion_steps(model, scheme: str, dt: float, rho0) -> _Steps:
    """The steps (see :func:`_steps`) of the diffusion ``scheme`` over steps
    of width ``dt``, from the normalized ``rho0`` with ``log_lambda = 0``.

    A run draws innovations ``dnu ~ N(0, dt)``, scaled to the noise
    ``kappa dnu`` of the record, and forms the record increment ``dy = m dt
    + kappa dnu`` of each step from the measured mean ``m = tr((L + L^dag)
    rho)`` of the state it evolves, a real functional of its coordinates;
    every step takes ``dy``.  The robust and pathwise schemes step as their
    :class:`_MapStepper` does, :class:`RobustStepper` and
    :class:`PathwiseIntegrator`, with ``advance_many``, and a replay
    prebuilds the maps with ``step_maps`` and steps them by blocks with
    :func:`_map_block`.  ``em`` takes :func:`_em_step_many`.
    """
    dt = _step_width(dt)
    n = model.L.shape[0]
    start = _start(rho0, n)
    build = None
    if scheme in ("robust", "pathwise"):
        stepper = RobustStepper(model, dt) if scheme == "robust" else PathwiseIntegrator(model, dt)
        stack, build = stepper.advance_many, stepper.step_maps
    elif scheme == "em":
        em_maps = _em_maps(model)
        stack = lambda s, dy, t, where: _em_step_many(em_maps, model.kappa, s, dy, dt, t, where)
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    mean, scale = hermitian_basis(n).functional(model.L + dagger(model.L))[None], np.sqrt(dt)

    def observe(s, noise, _t, _where):
        return _apply_maps(mean, s)[..., 0] * dt + noise

    def draw(rng, size):
        return model.kappa * rng.normal(0.0, scale, size)

    return _steps(MeasurementRecord, dt, start, 0.0, draw, *_one_step(dt, observe, stack), build)


def em_normalized(model, dt: float, nu_increments, rho0, t0: float = 0.0):
    """Explicit Euler-Maruyama for the normalized nonlinear equation, driven
    by innovation increments ``dnu ~ N(0, dt)``: the online ``em`` run of
    :func:`_diffusion_steps` through :func:`_path`, which synthesizes the
    record ``dy_n = m_(n-1) dt + kappa dnu_n``; its errors name the step,
    counted from 1, and its time.  Returns ``(states, record)``, ``states``
    a :class:`StatePath`; ``log_lambda`` accumulates the discrete
    log-likelihood ``(m dy - m^2 dt / 2) / kappa^2``.
    """
    dnu = np.asarray(nu_increments, dtype=float)
    if dnu.ndim != 1 or not np.isfinite(dnu).all():
        raise ValueError("nu_increments must be a finite one-dimensional array")
    record, states = _path(_diffusion_steps(model, "em", dt, rho0), len(dnu), [model.kappa * dnu[:, None]], t0)
    return states, record


def pathwise_schrodinger_rhs(model, a_t, a_t_inv, phi) -> np.ndarray:
    """Pure-state reduction of the pathwise flow, ``dphi/dt = -(A K A^-1) phi``;
    valid only for perfect detection (kappa = 1)."""
    if abs(model.kappa - 1.0) > 1e-12:
        raise ValueError(
            f"pathwise Schrodinger reduction requires eta = 1 (kappa = 1), got kappa = {model.kappa}"
        )
    return -(a_t @ model.K @ a_t_inv) @ np.asarray(phi, dtype=complex)

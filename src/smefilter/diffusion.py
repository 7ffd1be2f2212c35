"""Evolutions driven by a scalar diffusive measurement record.

Three routes to the same conditional state are implemented, enabling
cross-validation:

* ``em_normalized`` / ``em_unnormalized`` -- explicit Euler-Maruyama
  integration of the nonlinear and linear stochastic master equations; the
  linear one serves only as an independent oracle;
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

The robust and pathwise steps are both ``x = R(dy) s``, with a real map
``R`` of the step's increment alone, and one base, :class:`_MapStepper`,
takes both schemes' single-state step ``advance``, their stack step
``advance_many`` and their errors; a scheme only builds its maps.

Unnormalized solutions grow or decay exponentially, so every step maps the
normalized coordinates to unnormalized ones and then takes one shared real
tail, :func:`_renormalize`, for a single state or a stack: it checks that
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
a start state and ``log_lambda``, the numbers a run draws, an online run,
a replay and an ensemble's stack step, built from a scheme's pieces by
:func:`_steps`.  :func:`_diffusion_steps` builds the diffusion schemes,
whose every step takes the record increment ``dy`` of its step, and
``jump._jump_steps`` the counting ones.  Online runs and replays step
through one loop, :func:`_trajectory`, with the scheme's single-state
step ``step(s, x, t, where)``, which has the signature of its stack step;
a robust or pathwise replay steps each block of prebuilt maps with
:func:`_map_block`, which gives each state the same matrix-vector product
and division by its trace, and applies ``np.log`` to the same traces and
adds them into ``log_lambda`` in sequence, once per block.  So every
replay of a run's record is bitwise that run; the stack step gives each
element of an ensemble's stack the same arithmetic.  Every step applies
its real maps and functionals through one kernel, :func:`_apply_maps`,
which gives each state of a stack one matrix-vector product.

A run's states are one :class:`StatePath`: arrays of ``rho``,
``log_lambda`` and ``t`` over its grid points, which :func:`_trajectory`
and :func:`em_unnormalized_many` convert from coordinates at the end of a
run.  Indexing it gives one :class:`DensityState`; writers and reports read
the arrays.
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

# Record steps whose step maps ``pathwise_filter`` builds at a time with one
# ``expm_many`` call, and ``robust_filter`` with one
# ``RobustStepper.step_maps`` call, and that :func:`_map_block` then steps.
# The bench's `converge` workload (3525 steps a call) ran at a median 160k
# steps/s with 64 steps a block, 206k with 256 and 210k with 1024, with a
# peak RSS of 61.4-61.5, 61.3-61.4 and 62.1-62.4 MB (3 runs each, 2-core
# Xeon).
_MAP_BLOCK = 256

_EPS = float(np.finfo(float).eps)

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


def _renormalize(x: np.ndarray, t, what: str, where=None):
    """The one tail of every step, on the coordinates ``x`` of a single
    state, shape ``(n^2,)``, or of a stack, ``(B, n^2)``: the states
    divided by their traces ``x[..., 0]``, and the log traces, each rounded
    as it is alone (a single state's check reads Python floats, which is
    faster and changes no result).

    Raises :class:`NonFiniteStateError` at ``t`` when a state's trace is
    not above the rounding error ``eps max_a |x_a|`` of its largest
    coordinate: when the state is not finite, its trace is not positive, or
    its growth has swamped its trace (see :func:`_failure`).  The error
    names the first failing element of a stack, or a single state, as
    ``where(b)``, or nothing when ``where`` is ``None``.

    A stack whose smallest trace is above the rounding error of its largest
    coordinate passes at once: rounding is monotone, so that implies every
    element's own check.  Otherwise each element is checked alone."""
    if x.ndim == 1:
        tr = float(x[0])
        if float(np.abs(x).max()) * _EPS < tr:
            return x / tr, np.log(tr)
    else:
        size = np.abs(x)
        if size.max(initial=0.0) * _EPS < x[:, 0].min(initial=np.inf) or (size.max(axis=1) * _EPS < x[:, 0]).all():
            return x / x[:, :1], np.log(x[:, 0])
    stack = x.reshape(-1, x.shape[-1])
    b = next(b for b, xb in enumerate(stack) if not np.abs(xb).max() * _EPS < xb[0])
    of = "" if where is None else f" of {where(b)}"
    trace = f" (trace {stack[b, 0]})" if x.ndim == 1 and np.isfinite(stack[b]).all() else ""
    raise NonFiniteStateError(t, f"{what}{of} {_failure(stack[b])}{trace}")


def _apply_maps(maps: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The coordinates ``maps @ s`` of a single state ``s`` or of each state
    ``s[b]`` of a stack, under one real map for all or a stack of maps, one
    per state; a functional is a map with one row.

    Each vector is one column of a single broadcast ``np.matmul``, a
    matrix-vector product per state, so each result is bitwise the one of
    its state alone, whatever else is in the stack; one matrix-matrix
    product with all vectors as its columns would round differently.
    """
    s = np.ascontiguousarray(s)
    if s.ndim == 1:  # the same product as a stack's column, one call fewer
        return np.matmul(maps, s)
    return np.matmul(maps, s[..., None])[..., 0]


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
        """Raise if trace, Hermiticity, or positivity drift out of tolerance."""
        tr = complex(np.trace(self.rho))
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"trace {tr} deviates from 1 beyond {trace_tol:.1e} at t={self.t:.6g}")
        res = hermitian_residual(self.rho)
        if res > herm_tol:
            raise ValueError(f"Hermiticity residual {res:.3e} exceeds {herm_tol:.1e} at t={self.t:.6g}")
        h = 0.5 * (self.rho + dagger(self.rho))
        lo = float(np.linalg.eigvalsh(h)[0])
        if lo < eig_floor:
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
    it takes, and ``invalid`` says what the others lack.
    """

    def __post_init__(self):
        dt, t0 = _step_width(self.dt), _time_origin(self.t0)
        values = np.asarray(self.values)
        if values.ndim != 1:
            raise ValueError(f"{self.field} must be one-dimensional, got shape {values.shape}")
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
        if factor < 1 or self.n_steps % factor != 0:
            raise ValueError(f"factor {factor} does not divide {self.n_steps} steps")
        inc = self.increments.reshape(-1, factor).sum(axis=1)
        return MeasurementRecord(self.dt * factor, inc, self.t0)

    def modulus_of_continuity(self, width: float, mode: str = "sliding") -> float:
        """Largest oscillation of ``y`` over windows of the given width.

        ``mode="sliding"`` maximizes over every window inside the record;
        ``mode="initial"`` restricts both sample points to the first window.
        Window edges snap down to the sampling grid.
        """
        if width <= 0.0:
            raise ValueError("width must be positive")
        k = max(1, min(self.n_steps, int(width / self.dt + 1e-9)))
        y = self.cumulative()
        if mode == "initial":
            head = y[: k + 1]
            return float(head.max() - head.min())
        if mode != "sliding":
            raise ValueError(f"unknown mode {mode!r}")
        windows = np.lib.stride_tricks.sliding_window_view(y, k + 1)
        return float((windows.max(axis=1) - windows.min(axis=1)).max())


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
    ``step_maps(dy)``: the ``(B, n^2, n^2)`` stack of the maps of the
    increments ``dy[b]``, each bitwise the one of its increment alone,
    raising ``ValueError`` when one is out of range.  The map of a single
    step is that of a stack of one, :meth:`step_map`.  Every step builds its
    maps through :meth:`_maps`, so a single state and a stack meet the same
    errors in the same words.
    """

    def step_map(self, dy: float) -> np.ndarray:
        """The real map ``R`` of one step of increment ``dy``:
        ``step_maps([dy])[0]``."""
        return self.step_maps(np.array([dy]))[0]

    def propagate(self, s: np.ndarray, dy: float, t: float | None = None, where=None) -> np.ndarray:
        """The unnormalized coordinates ``R(dy) s`` one step of increment
        ``dy`` after the coordinates ``s``, ending at time ``t``; errors (see
        :meth:`_maps`) name the step as ``where(0)``."""
        return _apply_maps(self._maps(self.step_map, dy, math.isfinite(dy), t, where), s)

    def advance(self, s: np.ndarray, dy: float, t: float, where=None):
        """The single-state step: :meth:`propagate`, then
        :func:`_renormalize`; returns the new coordinates and their log
        trace.  Errors name the step as ``where(0)``."""
        return _renormalize(self.propagate(s, dy, t, where), t, self.what, where)

    def advance_many(self, s: np.ndarray, dy, t: float, where=_batch_element):
        """The step of a stack of coordinates ``s[b]`` with increments
        ``dy[b]``, ending at time ``t``: the maps of :meth:`step_maps`
        through :func:`_apply_maps`, one matrix-vector product per state,
        then :func:`_renormalize`, so each element is bitwise its
        :meth:`advance`.  Returns the new coordinates and the log
        normalization factors; errors name the failing element as
        ``where(b)``."""
        dy = np.asarray(dy, dtype=float)
        maps = self._maps(self.step_maps, dy, np.isfinite(dy).all(), t, where)
        return _renormalize(_apply_maps(maps, s), t, self.what, where)

    def _maps(self, build, dy, finite: bool, t, where):
        """``build(dy)``: the map of one increment or the maps of a stack,
        when ``finite`` says every increment is finite.  Otherwise, or when
        ``build`` raises ``ValueError``, raises the error of the first
        increment at fault, naming it as ``where(b)`` and the time ``t``:
        ``ValueError`` when it is not finite, :class:`NonFiniteStateError`
        when its :meth:`step_map` raises."""
        if finite:
            try:
                return build(dy)
            except ValueError as exc:
                error = exc
        for b, dy_b in enumerate(np.ravel(dy).tolist()):
            of = "" if where is None else f" of {where(b)}"
            if not math.isfinite(dy_b):
                at = "" if t is None else f" at t = {t:.6g}"
                raise ValueError(f"record increment dy = {dy_b}{of} is not finite{at}")
            try:
                self.step_map(dy_b)
            except ValueError as exc:
                raise NonFiniteStateError(t, f"{self.what}{of} blew up ({exc})") from None
        raise error


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
    ``P = expm(dt Gen)``.  ``P`` depends on ``dy`` only: not on the time and
    not on the record value.

    The state is carried normalized, as coordinates, and stepped as every
    :class:`_MapStepper` steps it.  :meth:`step_maps` builds the maps of
    many steps with one :func:`expm_many` call, which treats each element as
    it treats it alone, and a single step its map as a stack of one; so
    :func:`pathwise_filter`, applying the maps of ``_MAP_BLOCK`` steps at a
    time, and :meth:`advance_many`, stepping a stack of states, are bitwise
    the online run.  ``substeps`` is validated for the callers that pass it
    but not used.
    """

    what = "pathwise state"

    def __init__(self, model, dt: float, substeps: int = 4):
        if substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {substeps}")
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

    def step_maps(self, dy) -> np.ndarray:
        """The real maps ``P`` with ``s_end = P s_start`` of steps with
        increments ``dy[b]``; returns a ``(B, n^2, n^2)`` stack."""
        dy = np.asarray(dy, dtype=float)
        return expm_many(self._drift + dy[:, None, None] * self._coupling)

    def recover_state(self, r: np.ndarray, log_lambda: float, t: float) -> DensityState:
        """The unnormalized state ``r``, a matrix, at time ``t`` through
        :func:`_renormalize`, its log trace added to ``log_lambda``."""
        s, dlog = _renormalize(self._basis.coords(r), t, self.what)
        return DensityState(self._basis.matrices(s), log_lambda + float(dlog), t)


def pathwise_filter(model, record: MeasurementRecord, rho0, substeps: int = 4):
    """Pathwise filter: the replay of a record (see :func:`_diffusion_steps`
    and :func:`_trajectory`), each step bitwise its
    :meth:`PathwiseIntegrator.advance`; a failing step raises
    :class:`NonFiniteStateError` naming the step and its time."""
    return _diffusion_steps(model, "pathwise", record.dt, rho0, substeps).replay(record)


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

    def coefficients(self, dy) -> np.ndarray:
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
        squares could take one of them past half the range of ``exp`` are
        they computed under ``np.errstate``, and rows that are not finite
        become NaN, which passes through the step without a floating-point
        warning, so the step's tail reports the state as blown up.  For
        ``n != 2`` the coefficients are the first columns of the same
        exponentials of the companion matrix, from :func:`expm_many`.
        """
        a = np.asarray(dy, dtype=float) * self._inv_k2
        if self._n != 2:
            return expm_many(a[:, None, None] * self._companion - self._companion_drift)[:, :, 0]
        # the sum of squares bounds every |a|; vdot gives inf, not a warning, on overflow
        if np.vdot(a, a) <= self._a_sq_in_range:
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

    def weights(self, dy) -> np.ndarray:
        """The ``(B, n^2)`` real weights ``u[b]`` of the increments ``dy[b]``
        (see :meth:`coefficients`): ``|c_j|^2`` for each ``j``, then ``Re``
        and ``Im`` of ``conj(c_j) c_k`` for each ``j < k``; each row bitwise
        the one of its increment alone."""
        c = self.coefficients(dy)
        w = c.conj()[:, :, None] * c[:, None, :]
        return w.reshape(c.shape[0], -1).view(float)[:, self._weight_index]

    def step_maps(self, dy) -> np.ndarray:
        """The real maps ``R`` with ``x = R s`` of steps with increments
        ``dy[b]``, a ``(B, n^2, n^2)`` stack: each one matrix-vector product
        of ``M`` with its row of :meth:`weights`, so each is bitwise the
        one of its increment alone."""
        u = self.weights(dy)
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
    and :func:`_trajectory`), each step bitwise its
    :meth:`RobustStepper.advance`; a failing step raises
    :class:`NonFiniteStateError` naming the step and its time."""
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


def em_unnormalized_many(model, records, rho_tilde0, sample_every: int = 1):
    """Euler-Maruyama integration of the linear (unnormalized) equation for
    several records sharing one grid, stepped together for speed.

    Returns one :class:`StatePath` per record, views of one
    ``(records, samples, n, n)`` array.  The states are carried as
    coordinates (see :class:`linalg.HermitianBasis`), one column per record,
    and each step is ``s -> (I + dt drift) s + (dy/k^2) noise s`` with the
    real maps of :func:`_em_maps`.  States are renormalized every step with
    the log factor accumulated, so arbitrarily long runs neither overflow
    nor underflow; ``sample_every`` thins the stored output (it must divide
    the step count), while integration always uses the full grid.
    """
    if not records:
        raise ValueError("need at least one record")
    first = records[0]
    for rec in records[1:]:
        if rec.dt != first.dt or rec.t0 != first.t0 or rec.n_steps != first.n_steps:
            raise ValueError("all records must share dt, t0, and length")
    n_steps = first.n_steps
    if sample_every < 1 or n_steps % sample_every != 0:
        raise ValueError(f"sample_every {sample_every} does not divide {n_steps} steps")
    s0, log0 = _unnormalized_start(rho_tilde0, model.dim, "rho_tilde0")
    n = model.dim
    maps = _em_maps(model)
    step_mat = np.eye(n * n) + first.dt * maps[1 : 1 + n * n]
    stoch = maps[1 + n * n :] / model.kappa**2
    nb = len(records)
    v = np.tile(s0[:, None], (1, nb))
    logs = np.full(nb, log0)
    dys = np.stack([rec.increments for rec in records], axis=1)
    times = first.times
    coords = np.empty((nb, n_steps // sample_every + 1, n * n))
    out_logs = np.empty(coords.shape[:2])
    coords[:, 0], out_logs[:, 0] = v.T, logs
    for step in range(n_steps):
        v = step_mat @ v + (stoch @ v) * dys[step]
        tr = v[0].copy()  # a view would read the divided row below
        if not np.isfinite(tr).all() or (tr <= 0.0).any():
            raise NonFiniteStateError(float(times[step + 1]), "unnormalized state collapsed")
        v /= tr
        logs += np.log(tr)
        if (step + 1) % sample_every == 0:
            j = (step + 1) // sample_every
            coords[:, j], out_logs[:, j] = v.T, logs
    rhos = hermitian_basis(n).matrices(coords)
    return [StatePath(r, lam, times[::sample_every]) for r, lam in zip(rhos, out_logs)]


def em_unnormalized(model, record: MeasurementRecord, rho_tilde0, sample_every: int = 1):
    """Explicit Euler-Maruyama for the linear equation driven by ``dy``:
    ``rho~ += (L rho~ L^dag - K rho~ - rho~ K^dag) dt + (L rho~ + rho~ L^dag) dy / k^2``,
    renormalized every step with the log factor kept in ``log_lambda``."""
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
    ``start`` holds the start state's coordinates."""

    start: np.ndarray
    log0: float
    draw: Callable
    run: Callable
    replay: Callable
    many: Callable


def _map_block(maps: np.ndarray, coords: np.ndarray, logs: np.ndarray) -> int:
    """Step the state ``coords[0]`` with ``log_lambda = logs[0]`` through
    the real maps ``maps[j]``, one a step, into ``coords[j + 1]`` and
    ``logs[j + 1]``; returns how many steps, from the first, pass the tail's
    check.  Only their results are written in full: a failing state goes
    on through the rest of the block as NaN or worse, without a
    floating-point warning, into coordinates that the caller overwrites.

    Each step is the single-state step :meth:`_MapStepper.advance` with
    its bookkeeping taken out of the loop: the map's product with the
    state, by ``ndarray.dot``, which calls the same BLAS ``dgemv`` as the
    ``np.matmul`` of :func:`_apply_maps` on a contiguous matrix and vector
    with less overhead a call, and the division by the trace ``x[0]``, for
    each step; then, once for the block,
    :func:`_renormalize`'s check ``eps max_a |x_a| < x_0`` on every step's
    unnormalized coordinates, ``np.log`` of the traces and their sum into
    ``log_lambda`` by ``np.add.accumulate``, which adds in sequence.  So
    every result is bitwise the step's own."""
    x = np.empty((len(maps), coords.shape[1]))
    s = coords[0]
    with np.errstate(all="ignore"):
        for m, y, out in zip(maps, x, coords[1:]):
            m.dot(s, y)
            s = np.divide(y, y[0], out=out)
        ok = np.abs(x).max(axis=1) * _EPS < x[:, 0]
    done = len(maps) if ok.all() else int(ok.argmin())
    np.log(x[:done, 0], out=logs[1 : done + 1])
    np.add.accumulate(logs[: done + 1], out=logs[: done + 1])
    return done


def _trajectory(step, start: np.ndarray, log0: float, dt: float, t0: float, xs: np.ndarray, build=None) -> StatePath:
    """The one loop that steps a single trajectory, online or in a replay.

    It starts from the coordinates ``start`` with ``log_lambda = log0`` at
    ``t0``; step ``k`` takes ``step(s, x, t, where) -> (s, dlog)`` with
    ``x = xs[k]``, ending at ``t = t0 + (k + 1) dt``, and ``where`` names it
    ``step k + 1`` in its errors.  ``build``, when given, is the builder of
    the real maps of the steps with values ``xs``, with which ``step`` is
    the map's product with the state followed by :func:`_renormalize`; it
    is called for ``_MAP_BLOCK`` steps at a time, and a block whose maps it
    built is stepped by :func:`_map_block`, bitwise this loop.  From the
    block's first step that fails the tail's check, if any, the block goes
    on through ``step``, which rebuilds that step's map, bitwise the
    block's, and raises its own error.  Without a builder (online runs,
    ``em`` and counting records), and in a block that the builder rejects,
    every step is taken through ``step``, and the one at fault raises.
    Returns the :class:`StatePath` of every grid point, the start included:
    each step writes its coordinates into an array allocated before the
    first, which is converted to matrices once, at the end."""
    times = t0 + dt * np.arange(len(xs) + 1)
    coords = np.empty((len(times), start.size))
    logs = np.empty(len(times))
    coords[0], logs[0] = start, log0

    def where(_b):  # called only while step k fails, so it reads that k
        return f"step {k}"

    for lo in range(0, len(xs), _MAP_BLOCK):
        hi = min(lo + _MAP_BLOCK, len(xs))
        try:
            maps = build(xs[lo:hi]) if build else None
        except ValueError:
            maps = None
        first = lo if maps is None else lo + _map_block(maps, coords[lo : hi + 1], logs[lo : hi + 1])
        ends = times[first + 1 : hi + 1].tolist()
        s, log_lam = coords[first], logs[first]
        for k, x, t in zip(range(first + 1, hi + 1), xs[first:hi].tolist(), ends):
            s, dlog = step(s, x, t, where)
            log_lam += dlog
            coords[k], logs[k] = s, log_lam
    return StatePath(hermitian_basis(math.isqrt(start.size)).matrices(coords), logs, times)


def _steps(record: type[Record], dt: float, start, log0: float, draw, observe, stack, step=None, build=None) -> _Steps:
    """The :class:`_Steps` of a scheme over steps of width ``dt`` from the
    normalized start coordinates ``start`` with ``log_lambda = log0``, made
    of its pieces, all on coordinates:

    * ``draw(rng, size)``: the numbers ``x`` a run draws for ``size`` steps;
    * ``observe(s, x, t, where) -> v``: the record values of a step ending
      at time ``t`` that the draws ``x`` give for one state or a stack;
    * ``stack(s, v, t, where) -> (s, dlog)``: the step of a stack of
      states ``s[b]`` with record values ``v[b]``, ending at ``t``;
    * ``step(s, v, t, where) -> (s, dlog)``: the step of a single state,
      bitwise its ``stack`` step; ``stack`` on a stack of one when
      ``None``;
    * ``build(vs)``: the real maps of steps with record values ``vs``, with
      which ``step`` is the map's product with the state, as
      :func:`_apply_maps` makes it, followed by :func:`_renormalize`; or
      ``None``.

    Errors name the failing element of a stack, or the step of a single run,
    as ``where(b)``.  ``record`` is the :class:`Record` kind.  ``run(xs,
    t0=0.0) -> (record, states)`` is an online run with the draws ``xs`` and
    ``replay(record) -> states`` the replay of a record, both through
    :func:`_trajectory`, the replay with the maps of ``build``, so every
    replay of a run's record is bitwise that run; ``states`` is a
    :class:`StatePath`.
    ``many(s, x, k, where) -> (s, dlog)`` takes an ensemble's stack through
    step ``k`` (from 0, ending at ``(k + 1) dt``) with the draws ``x``,
    each element bitwise its run.
    """
    if step is None:

        def step(s, v, t, where):
            x, dlog = stack(s[None], np.array([v]), t, where)
            return x[0], float(dlog[0])

    def run(xs, t0=0.0):
        values = []

        def online(s, x, t, where):
            v = observe(s, x, t, where)
            values.append(v)
            return step(s, v, t, where)

        states = _trajectory(online, start, log0, dt, t0, xs)
        return record(dt, np.array(values), t0), states

    def replay(rec):
        return _trajectory(step, start, log0, rec.dt, rec.t0, rec.values, build)

    def many(s, x, k, where):
        t = (k + 1) * dt
        return stack(s, observe(s, x, t, where), t, where)

    return _Steps(start, log0, draw, run, replay, many)


def _diffusion_steps(model, scheme: str, dt: float, rho0, substeps: int = 4) -> _Steps:
    """The steps (see :func:`_steps`) of the diffusion ``scheme`` over steps
    of width ``dt``, from the normalized ``rho0`` with ``log_lambda = 0``.

    A run draws innovations ``dnu ~ N(0, dt)`` and forms the record
    increment ``dy = m dt + kappa dnu`` of each step from the measured mean
    ``m = tr((L + L^dag) rho)`` of the state it evolves, a real functional
    of its coordinates; every step takes ``dy``.  The robust and pathwise
    schemes step as their :class:`_MapStepper` does, :class:`RobustStepper`
    and :class:`PathwiseIntegrator`: ``advance`` on a single state and
    ``advance_many`` on a stack, and a replay prebuilds the maps with
    ``step_maps`` and steps them by blocks with :func:`_map_block`.  ``em``
    takes :func:`_em_step_many`, on a stack of one for a single state.
    """
    dt = _step_width(dt)
    n = model.L.shape[0]
    start = _start(rho0, n)
    step = build = None
    if scheme in ("robust", "pathwise"):
        stepper = RobustStepper(model, dt) if scheme == "robust" else PathwiseIntegrator(model, dt, substeps)
        stack, step, build = stepper.advance_many, stepper.advance, stepper.step_maps
    elif scheme == "em":
        em_maps = _em_maps(model)
        stack = lambda s, dy, t, where: _em_step_many(em_maps, model.kappa, s, dy, dt, t, where)
    else:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    mean, scale = hermitian_basis(n).functional(model.L + dagger(model.L))[None], np.sqrt(dt)

    def observe(s, dnu, _t, _where):
        return _apply_maps(mean, s)[..., 0] * dt + model.kappa * dnu

    def draw(rng, size):
        return rng.normal(0.0, scale, size)

    return _steps(MeasurementRecord, dt, start, 0.0, draw, observe, stack, step, build)


def em_normalized(model, dt: float, nu_increments, rho0, t0: float = 0.0):
    """Explicit Euler-Maruyama for the normalized nonlinear equation, driven
    by innovation increments ``dnu ~ N(0, dt)``: the online ``em`` run of
    :func:`_diffusion_steps`, which synthesizes the record
    ``dy_n = m_(n-1) dt + kappa dnu_n``; its errors name the step, counted
    from 1, and its time.  Returns ``(states, record)``, ``states`` a
    :class:`StatePath`; ``log_lambda`` accumulates the discrete
    log-likelihood ``(m dy - m^2 dt / 2) / kappa^2``.
    """
    dnu = np.asarray(nu_increments, dtype=float)
    if dnu.ndim != 1 or not np.isfinite(dnu).all():
        raise ValueError("nu_increments must be a finite one-dimensional array")
    record, states = _diffusion_steps(model, "em", dt, rho0).run(dnu, t0)
    return states, record

def pathwise_schrodinger_rhs(model, a_t, a_t_inv, phi) -> np.ndarray:
    """Pure-state reduction of the pathwise flow, ``dphi/dt = -(A K A^-1) phi``;
    valid only for perfect detection (kappa = 1)."""
    if abs(model.kappa - 1.0) > 1e-12:
        raise ValueError(
            f"pathwise Schrodinger reduction requires eta = 1 (kappa = 1), got kappa = {model.kappa}"
        )
    return -(a_t @ model.K @ a_t_inv) @ np.asarray(phi, dtype=complex)

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
  ``dt`` only: it is LU-factored once, inverted once, and its inverse is
  applied to every step's right-hand side as a stacked matrix-vector product.

Unnormalized solutions grow or decay exponentially, so every step maps the
normalized state to an unnormalized one and then takes one shared tail:
:func:`_renormalize` for a single state, :func:`_renormalize_many` for a
stack.  It checks the state finite and its trace positive, renormalizes,
hermitizes and returns ``log tr``, which the robust, pathwise and jump
steps add to ``log_lambda``; ``rho_tilde = exp(log_lambda) * rho``
losslessly.

Each scheme has one step shape: every step takes the record increment
``dy`` of its step, and :func:`_diffusion_steps` chooses a scheme's steps
in one place.  Its single-state step serves online runs
(:func:`_innovation_run`, which forms ``dy`` from the innovation) and
replays (:func:`_blockwise`) alike, so every replay of a run's record is
bitwise that run; its stack step serves ensembles, each element bitwise
its single-state step.  The robust, pathwise and exact jump stack steps
apply their linear maps through one kernel, :func:`_apply_maps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg

from .linalg import (
    as_square,
    dagger,
    expm,
    expm_many,
    hermitian_residual,
    kron,
    require_hermitian,
)
from .ode import rk4_step  # noqa: F401  (bench/spans.py traces this name in this module)

# Record steps whose step maps ``pathwise_filter``, and whose exponentials
# ``robust_filter``, build at a time with one ``expm_many`` call.  A `converge`
# call (3000 oracle steps) took a median 0.150 s with 16 steps a block, 0.117 s
# with 64 and 0.108 s with 256; larger blocks ran no faster (2-core Xeon).
_MAP_BLOCK = 256

SCHEMES = ("robust", "em", "pathwise")

# Rows :func:`_write_csv` formats and writes at a time.  It bounds the
# Python numbers and text held in memory; writing a 10,001-row trajectory
# took the same time at 256 to 4096 rows a block.
_CSV_BLOCK = 1024


class NonFiniteStateError(ArithmeticError):
    """Integration produced a non-finite or collapsed state."""

    def __init__(self, time: float | None = None, message: str = "state became non-finite"):
        self.time = None if time is None else float(time)
        suffix = "" if self.time is None else f" at t = {self.time:.6g}"
        super().__init__(message + suffix)


def _batch_element(b: int) -> str:
    """How a batched step names its element ``b`` in an error message."""
    return f"batch element {b}"


def _renormalize(x: np.ndarray, t, what: str):
    """The tail of every single-state step: ``x`` divided by its trace and
    hermitized, and ``log tr(x)``.  Raises :class:`NonFiniteStateError` at
    ``t`` when ``x`` is not finite or its trace is not positive."""
    if not np.isfinite(x).all():
        raise NonFiniteStateError(t, f"{what} blew up")
    tr = float(np.trace(x).real)
    if not tr > 0.0:
        raise NonFiniteStateError(t, f"{what} {_failure(x)} (trace {tr})")
    return (0.5 / tr) * (x + x.conj().T), float(np.log(tr))


def _renormalize_many(x: np.ndarray, t, what: str, where=_batch_element):
    """:func:`_renormalize` for a stack of states ``x[b]``, each rounded as
    in a stack of one; returns the new states and the log traces.  Errors
    name the first failing element as ``where(b)``, or none when ``where``
    is ``None``."""
    if np.isfinite(x).all():
        tr = np.trace(x, axis1=1, axis2=2).real
        if (tr > 0.0).all():
            return (0.5 / tr)[:, None, None] * (x + x.conj().transpose(0, 2, 1)), np.log(tr)
    b = next(b for b, xb in enumerate(x) if not (np.isfinite(xb).all() and np.trace(xb).real > 0.0))
    of = "" if where is None else f" of {where(b)}"
    raise NonFiniteStateError(t, f"{what}{of} {_failure(x[b])}")


def _apply_maps(maps: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The states ``unvec(maps[b] @ vec(rho[b]))`` of a stack ``rho[b]``
    under ``n^2 x n^2`` maps on column-stacked vectors: one map for the whole
    stack, or a stack of maps, one per state.

    Each vector is one ``(n^2, 1)`` column of a single broadcast
    ``np.matmul``, so each result is bitwise the matrix-vector product of its
    state alone, whatever else is in the stack; one matrix-matrix product
    with all vectors as its columns would round differently.  The reshapes
    only move data.
    """
    nb, n = rho.shape[0], rho.shape[1]
    cols = rho.transpose(0, 2, 1).reshape(nb, n * n, 1)  # cols[b] is vec(rho[b]) as a column
    return np.matmul(maps, cols).reshape(nb, n, n).transpose(0, 2, 1)


def _failure(x: np.ndarray) -> str:
    """How the tail names the failure of the state ``x``: "blew up" when it
    is not finite or its growth has swamped its trace, which then lies below
    the rounding error of its diagonal's sum; "collapsed" otherwise."""
    if not np.isfinite(x).all():
        return "blew up"
    swamped = abs(np.trace(x).real) < np.finfo(float).eps * np.abs(np.diagonal(x).real).sum()
    return "blew up" if swamped else "collapsed"


@dataclass(frozen=True)
class DensityState:
    """Normalized state ``rho`` at time ``t`` plus the accumulated log of the
    normalization factor, so the unnormalized state is recoverable as
    ``exp(log_lambda) * rho``."""

    rho: np.ndarray
    log_lambda: float
    t: float

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


def _step_count(dt, T) -> int:
    """The number of steps of width ``dt`` in a run of length ``T``,
    ``round(T / dt)``; ``dt`` is checked as :func:`_step_width` checks it,
    and ``T`` finite and at least ``dt``."""
    dt, T = _step_width(dt), float(T)
    if not dt <= T < np.inf:
        raise ValueError(f"T must be finite and at least dt = {dt}, got {T}")
    return int(round(T / dt))


def _grid(dt, t0) -> tuple[float, float]:
    """A record's step width and start time as floats, checked finite and,
    for ``dt``, positive."""
    dt, t0 = _step_width(dt), float(t0)
    if not np.isfinite(t0):
        raise ValueError(f"t0 must be finite, got {t0}")
    return dt, t0


@dataclass(frozen=True)
class MeasurementRecord:
    """Uniformly sampled scalar record: increments ``dy_n`` over steps of
    width ``dt`` starting at ``t0``.  The continuous path ``y_t`` is the
    piecewise-linear interpolant of the cumulative sums with ``y(t0) = 0``."""

    dt: float
    increments: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        dt, t0 = _grid(self.dt, self.t0)
        inc = np.array(self.increments, dtype=float)
        if inc.ndim != 1:
            raise ValueError(f"increments must be one-dimensional, got shape {inc.shape}")
        if not np.isfinite(inc).all():
            raise ValueError("record increments must be finite")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "t0", t0)

    @property
    def n_steps(self) -> int:
        return int(self.increments.size)

    @property
    def times(self) -> np.ndarray:
        """Grid ``t0, t0 + dt, ..., t0 + n dt`` (length ``n_steps + 1``)."""
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

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


def _write_csv(
    path, comments: Sequence[str], header: str, columns: Sequence[np.ndarray], formats: Sequence[str]
) -> None:
    """Write a CSV file: a ``# <comment>`` line per comment, the header, and
    row ``k`` of the equal-length one-dimensional arrays ``columns``, with
    column ``j`` in the ``%``-format ``formats[j]``.  Rows are converted to
    Python numbers, formatted and written :data:`_CSV_BLOCK` at a time, so
    neither a whole column of Python numbers nor a whole-file string is
    ever built."""
    row = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"# {c}\n" for c in comments) + header + "\n")
        for k in range(0, min(map(len, columns), default=0), _CSV_BLOCK):
            block = zip(*[c[k : k + _CSV_BLOCK].tolist() for c in columns])
            fh.write("".join([row % r for r in block]))


def _write_record(path, kind: str, column: str, record, values, cell: str, comments: Sequence[str]) -> None:
    """Write a uniformly sampled record as CSV: a ``# format: <kind> v1``
    line, its ``dt`` and ``t0``, the comments, the header ``t,<column>`` and
    one row per step with the step's end time and ``values[k]`` in the
    ``%``-format ``cell``."""
    head = [f"format: {kind} v1", f"dt: {record.dt:.17g}", f"t0: {record.t0:.17g}", *comments]
    _write_csv(path, head, f"t,{column}", [record.times[1:], values], ("%.17g", cell))


def _setting(s: str):
    """The ``(key, value)`` of a ``# dt:`` or ``# t0:`` comment line ``s``,
    or ``None`` for any other comment."""
    body = s[1:].strip()
    return (body[:2], float(body[3:])) if body[:3] in ("dt:", "t0:") else None


def _cells(s: str, column: str) -> list[str]:
    """The two cells of the data line ``s`` of a ``t,<column>`` record."""
    cells = s.split(",")
    if len(cells) != 2:
        raise ValueError(f"expected 2 columns 't,{column}', got {len(cells)}")
    return cells


def _first_bad_line(lines: list[str], column: str, parse) -> tuple[int, ValueError]:
    """The number and error of the first of the stripped ``lines`` that fails
    a check of :func:`_read_record`; called only once a read has failed."""
    header = None
    for lineno, s in enumerate(lines, 1):
        try:
            if s[:1] == "#":
                _setting(s)
            elif s and header is None:
                header = s
                if s != f"t,{column}":
                    raise ValueError(f"expected header 't,{column}', got {s!r}")
            elif s:
                t, v = _cells(s, column)
                float(t), parse(v)
        except ValueError as exc:
            return lineno, exc
    raise AssertionError("every failed read has a bad line")


def _read_record(path, column: str, parse):
    """Read a CSV written by :func:`_write_record` with header
    ``t,<column>``, parsing each value with ``parse``.  Returns ``dt``,
    ``t0`` and the values; ``dt`` and ``t0`` missing from the comments are
    inferred from the row times.

    ``#`` lines are comments wherever they stand, and the last ``# dt:`` and
    ``# t0:`` among them count; blank lines are skipped.  The first other
    line is the header, and each line after it a row of two cells.  The
    whole file is parsed column by column in one pass; only when that fails
    is it scanned for the first bad line, which the error names by number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        # lines as iterating the file gives them: splitlines() would also
        # split at form feeds and other separators a row's cell may hold
        lines = [s.strip() for s in fh.read().split("\n")]
    rows = [s for s in lines if s and s[0] != "#"]
    try:
        settings = dict(filter(None, [_setting(s) for s in lines if s[:1] == "#"]))
        if rows and rows[0] != f"t,{column}":
            raise ValueError  # the scan below words it
        cells = [_cells(s, column) for s in rows[1:]]
        times = [float(c[0]) for c in cells]
        values = [parse(c[1]) for c in cells]
    except ValueError:
        lineno, exc = _first_bad_line(lines, column, parse)
        raise ValueError(f"{path}, line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"file contains no 't,{column}' header")
    dt, t0 = settings.get("dt"), settings.get("t0")
    if dt is None:
        if len(times) < 2:
            raise ValueError("cannot infer dt: need a '# dt:' comment or at least two rows")
        dt = times[1] - times[0]
    if t0 is None:
        t0 = (times[0] - dt) if times else 0.0
    return dt, t0, values


def write_measurement_record(path, record: MeasurementRecord, comments: Sequence[str] = ()) -> None:
    """Write a record as CSV with header ``t,dy`` (times are interval ends)."""
    _write_record(path, "measurement-record", "dy", record, record.increments, "%.17g", comments)


def read_measurement_record(path) -> MeasurementRecord:
    """Read a CSV written by :func:`write_measurement_record`."""
    dt, t0, values = _read_record(path, "dy", float)
    return MeasurementRecord(dt, np.array(values), t0)


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


class PathwiseIntegrator:
    """Exact stepper of the pathwise flow on the piecewise-linear record.

    The gauge exponent ``X(t) = -(y(t)/k^2) L + (t/2k^2) L^2`` commutes with
    ``L``, and within a record step of width ``dt`` and increment ``dy`` the
    record ``y`` has the constant slope ``dy/dt``.  Undoing the gauge, the
    flow is then linear and time-invariant in the original frame,
    ``rho~' = gain L rho~ L^dag - J rho~ - rho~ J^dag`` with
    ``J = K - (dy/(dt k^2)) L + L^2/(2k^2)`` and ``gain = 1 - 1/k^2``, so the
    step maps ``vec(rho~)`` by ``P = expm(dt Gen)`` with ``Gen = gain
    conj(L) (x) L - I (x) J - conj(J) (x) I`` (column stacking).  ``P``
    depends on ``dy`` only: not on the time and not on the record value.

    The state is carried normalized: :meth:`advance` applies the map of one
    step, and :func:`_pathwise_advance` follows it with the shared tail.
    :meth:`step_maps` builds the maps of many steps with one
    :func:`expm_many` call, which treats each element as :func:`expm` treats
    it alone, so :func:`pathwise_filter`, applying the maps of
    ``_MAP_BLOCK`` steps at a time, and :meth:`advance_many`, stepping a
    stack of states, are bitwise the online run.  ``substeps`` is validated
    for the callers that pass it but not used.
    """

    def __init__(self, model, dt: float, substeps: int = 4, tol: float = 1e-12):
        if substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {substeps}")
        dt = _step_width(dt)
        n, L, k2 = model.dim, model.L, model.kappa**2
        eye = np.eye(n)
        j0 = model.K + (L @ L) / (2.0 * k2)
        # dt Gen = drift + dy coupling
        self._drift = dt * (
            (1.0 - 1.0 / k2) * kron(L.conj(), L) - kron(eye, j0) - kron(j0.conj(), eye)
        )
        self._coupling = (kron(eye, L) + kron(L.conj(), eye)) / k2
        self._tol = float(tol)

    def step_maps(self, dy) -> np.ndarray:
        """The maps ``P`` with ``vec(rho~_end) = P vec(rho~_start)`` of steps
        with increments ``dy[b]``; returns a ``(B, n^2, n^2)`` stack."""
        dy = np.asarray(dy, dtype=float)
        return expm_many(self._drift + dy[:, None, None] * self._coupling, self._tol)

    def advance(self, rho: np.ndarray, dy: float, t: float, step_map: np.ndarray | None = None) -> np.ndarray:
        """The unnormalized state one step of increment ``dy`` after ``rho``,
        ending at time ``t``; ``step_map`` is the step's map when it has been
        built already.  Raises :class:`NonFiniteStateError` at ``t`` when the
        map is out of :func:`expm`'s range."""
        if step_map is None:
            try:
                step_map = expm(self._drift + dy * self._coupling, self._tol)
            except ValueError as exc:
                raise NonFiniteStateError(t, f"pathwise state blew up ({exc})") from None
        return (step_map @ rho.reshape(-1, order="F")).reshape(rho.shape, order="F")

    def advance_many(self, rho: np.ndarray, dy: np.ndarray, t: float, where=_batch_element):
        """:func:`_pathwise_advance` for a stack of states ``rho[b]`` with
        increments ``dy[b]``, ending at time ``t``: the maps of
        :meth:`step_maps` through :func:`_apply_maps`, then
        :func:`_renormalize_many`.  Each element is bitwise its single-state
        step.  Returns the new states and the log normalization factors;
        errors name the failing element as ``where(b)``, and a map out of
        :func:`expm`'s range raises :class:`NonFiniteStateError` at ``t``."""
        try:
            maps = self.step_maps(dy)
        except ValueError:
            for b, dy_b in enumerate(np.asarray(dy, dtype=float).tolist()):
                try:
                    expm(self._drift + dy_b * self._coupling, self._tol)
                except ValueError as exc:
                    raise NonFiniteStateError(t, f"pathwise state of {where(b)} blew up ({exc})") from None
            raise
        return _renormalize_many(_apply_maps(maps, rho), t, "pathwise state", where)

    def recover_state(self, r: np.ndarray, log_lambda: float, t: float) -> DensityState:
        """``r`` at time ``t`` through :func:`_renormalize`, its log trace
        added to ``log_lambda``."""
        rho, dlog = _renormalize(r, t, "pathwise state")
        return DensityState(rho, log_lambda + dlog, t)


def _pathwise_advance(integrator: PathwiseIntegrator, rho: np.ndarray, dy: float, t: float, step_map=None):
    """The single-state pathwise step: :meth:`PathwiseIntegrator.advance`,
    then :func:`_renormalize`; returns the new state and its log trace."""
    return _renormalize(integrator.advance(rho, dy, t, step_map), t, "pathwise state")


def _blockwise(steps, record: MeasurementRecord, rho0):
    """The states at every grid point of ``record`` (initial state included)
    of a scheme's single-state ``steps.step`` (see :func:`_diffusion_steps`)
    from the normalized ``rho0``, naming the step, counted from 1, in its
    errors.  ``made`` is what ``steps.build`` gives for ``dy``, built for
    ``_MAP_BLOCK`` increments at a time; it is ``None`` without a builder and
    in a block that the builder rejects, so each step builds its own and the
    one at fault raises."""
    step, build = steps.step, steps.build
    times = record.times.tolist()
    rho, log_lam = _normalized_density(rho0), 0.0
    out = [DensityState(rho, log_lam, times[0])]
    for lo in range(0, record.n_steps, _MAP_BLOCK):
        dys = record.increments[lo : lo + _MAP_BLOCK]
        try:
            made = build(dys) if build else [None] * len(dys)
        except ValueError:
            made = [None] * len(dys)
        for k, dy, m in zip(range(lo, lo + len(dys)), dys.tolist(), made):
            rho, dlog = step(rho, dy, times[k + 1], m, lambda _b, k=k: f"step {k + 1}")
            log_lam += dlog
            out.append(DensityState(rho, log_lam, times[k + 1]))
    return out


def pathwise_filter(model, record: MeasurementRecord, rho0, substeps: int = 4, tol: float = 1e-12):
    """Pathwise filter: :func:`_pathwise_advance` along a record through
    :func:`_blockwise`, each step map bitwise the one its step builds alone;
    a failing step raises :class:`NonFiniteStateError` at its time."""
    return _blockwise(_diffusion_steps(model, "pathwise", record.dt, substeps, tol), record, rho0)


class RobustStepper:
    """Implicit filter step with the record-independent system inverted once.

    The implicit matrix ``(I (x) A) + (B^T (x) I) - (D^T (x) C)`` depends only
    on the model and ``dt``, so it is LU-factored once and inverted once; each
    step computes ``E(dy)``, forms the right-hand side and applies the inverse.
    """

    def __init__(self, model, dt: float, tol: float = 1e-12):
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
        self._factors = scipy.linalg.lu_factor(system, check_finite=False)
        self._inverse = scipy.linalg.lu_solve(self._factors, np.eye(n * n, dtype=complex), check_finite=False)
        self._l_scaled = L / k2
        self._drift = (L @ L) * (dt / (2.0 * k2))
        self._n = n
        self._tol = float(tol)

    def exponentials(self, dy) -> np.ndarray:
        """The stack of ``E(dy[b])``, each bitwise what :meth:`propagate`
        computes for its increment alone."""
        return expm_many(self._l_scaled * np.asarray(dy, dtype=float)[:, None, None] - self._drift, self._tol)

    def propagate(self, state_prev: np.ndarray, dy: float, e: np.ndarray | None = None) -> np.ndarray:
        """One implicit step of the unnormalized filter recursion; ``e`` is
        ``E(dy)`` when it has been computed already (see :meth:`exponentials`)."""
        if not np.isfinite(dy):
            raise ValueError(f"record increment dy = {dy} is not finite")
        if e is None:
            e = expm(self._l_scaled * dy - self._drift, self._tol)
        rhs = e @ state_prev @ e.conj().T
        x = self._inverse @ rhs.reshape(-1, order="F")
        return x.reshape((self._n, self._n), order="F")

    def advance_many(self, rho: np.ndarray, dy: np.ndarray, t: float, where=_batch_element):
        """The normalized update of :func:`_robust_advance` for a stack of
        states ``rho[b]`` with increments ``dy[b]``, ending at time ``t``;
        returns the new states and the log normalization factors.

        Each element's result is bitwise what :func:`_robust_advance` gives
        for it alone: the exponentials come from :func:`expm_many`, and
        :func:`_apply_maps` applies the inverse to each right-hand side as
        :meth:`propagate` does.  Errors name the failing element as
        ``where(b)``.
        """
        dy = np.asarray(dy, dtype=float)
        bad = np.flatnonzero(~np.isfinite(dy))
        if bad.size:
            raise ValueError(f"record increment dy = {dy[bad[0]]} of {where(bad[0])} is not finite at t = {t:.6g}")
        e = self.exponentials(dy)
        rhs = e @ rho @ e.conj().transpose(0, 2, 1)
        return _renormalize_many(_apply_maps(self._inverse, rhs), t, "implicit filter state", where)


def robust_step(model, state_prev, dy: float, dt: float, tol: float = 1e-12) -> np.ndarray:
    """Single implicit step mapping the previous unnormalized state through
    the solve of ``A X + X B - C X D = E(dy) X_prev E(dy)^dag``.

    A zero-width step is a no-op.
    """
    prev = as_square(state_prev)
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt}")
    if dt == 0.0:
        return prev.copy()
    return RobustStepper(model, dt, tol).propagate(prev, dy)


def _robust_advance(stepper: RobustStepper, rho: np.ndarray, dy: float, t: float, e: np.ndarray | None = None):
    """The single-state robust step: :meth:`RobustStepper.propagate`, then
    :func:`_renormalize`; returns the new state and its log trace.  ``e`` is
    passed on to :meth:`RobustStepper.propagate`."""
    return _renormalize(stepper.propagate(rho, dy, e), t, "implicit filter state")


def robust_filter(model, record: MeasurementRecord, rho0, tol: float = 1e-12):
    """Robust filter: :func:`_robust_advance` along a record through
    :func:`_blockwise`, each ``E(dy)`` bitwise the one its step computes
    alone."""
    return _blockwise(_diffusion_steps(model, "robust", record.dt, tol=tol), record, rho0)


def _em_vectorized_operators(model, dt: float):
    """Step matrices of the linear stochastic equation in vectorized form:
    the update is ``v -> (I + dt drift) v + dy (stoch v)``."""
    n = model.dim
    K, L = model.K, model.L
    eye = np.eye(n, dtype=complex)
    drift = kron(L.conj(), L) - kron(eye, K) - kron(K.conj(), eye)
    step_mat = np.eye(n * n, dtype=complex) + dt * drift
    stoch = (kron(eye, L) + kron(L.conj(), eye)) / model.kappa**2
    return step_mat, stoch


def em_unnormalized_many(model, records, rho_tilde0, sample_every: int = 1):
    """Euler-Maruyama integration of the linear (unnormalized) equation for
    several records sharing one grid, stepped together for speed.

    Returns one state list per record.  States are renormalized every step
    with the log factor accumulated, so arbitrarily long runs neither
    overflow nor underflow; ``sample_every`` thins the stored output (it must
    divide the step count), while integration always uses the full grid.
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
    init = require_hermitian(rho_tilde0, "rho_tilde0")
    tr0 = float(np.trace(init).real)
    if tr0 <= 0.0:
        raise ValueError("rho_tilde0 must have positive trace")
    n = model.dim
    step_mat, stoch = _em_vectorized_operators(model, first.dt)
    idx = np.arange(n * n)
    tperm = (idx // n) + (idx % n) * n
    tr_idx = np.arange(n) * (n + 1)
    nb = len(records)
    rho_init = init / tr0
    v = np.tile(rho_init.reshape(-1, order="F")[:, None], (1, nb))
    logs = np.full(nb, np.log(tr0))
    dys = np.stack([rec.increments for rec in records], axis=1)
    times = first.times
    outs = [[DensityState(rho_init.copy(), float(np.log(tr0)), float(times[0]))] for _ in range(nb)]
    for step in range(n_steps):
        v = step_mat @ v + (stoch @ v) * dys[step]
        v = 0.5 * (v + v[tperm].conj())
        tr = v[tr_idx].sum(axis=0).real
        if not np.isfinite(tr).all() or (tr <= 0.0).any():
            raise NonFiniteStateError(float(times[step + 1]), "unnormalized state collapsed")
        v /= tr
        logs += np.log(tr)
        if (step + 1) % sample_every == 0:
            t = float(times[step + 1])
            for b in range(nb):
                outs[b].append(
                    DensityState(v[:, b].reshape((n, n), order="F").copy(), float(logs[b]), t)
                )
    return outs


def em_unnormalized(model, record: MeasurementRecord, rho_tilde0, sample_every: int = 1):
    """Explicit Euler-Maruyama for the linear equation driven by ``dy``:
    ``rho~ += (L rho~ L^dag - K rho~ - rho~ K^dag) dt + (L rho~ + rho~ L^dag) dy / k^2``,
    renormalized every step with the log factor kept in ``log_lambda``."""
    return em_unnormalized_many(model, [record], rho_tilde0, sample_every)[0]


def _em_step_many(model, rho: np.ndarray, dy: np.ndarray, dt: float, t: float, where=_batch_element):
    """One explicit Euler-Maruyama step of the normalized equation for a
    stack of states ``rho[b]`` with record increments ``dy[b]``, over a step
    of width ``dt`` ending at time ``t``, driven by the innovation
    ``dnu = (dy - m dt) / kappa`` with ``m = tr((L + L^dag) rho)``.  Each
    element is bitwise its step in a stack of one.  Returns the new states
    and the log-likelihood increments ``(m dy - m^2 dt / 2) / kappa^2``;
    errors name the failing element as ``where(b)`` and the time ``t``."""
    K, L, kappa = model.K, model.L, model.kappa
    Ld = dagger(L)
    m = np.einsum("ij,bji->b", L + Ld, rho).real
    dnu = (dy - m * dt) / kappa
    lr = L @ rho
    drift = lr @ Ld - K @ rho - rho @ dagger(K)
    diff = (lr + rho @ Ld - m[:, None, None] * rho) / kappa
    x = rho + drift * dt + diff * dnu[:, None, None]
    return _renormalize_many(x, t, "normalized state", where)[0], (m * dy - 0.5 * m * m * dt) / kappa**2


class _Steps(NamedTuple):
    """The steps of a diffusion scheme (see :func:`_diffusion_steps`)."""

    step: Callable
    build: Callable | None
    many: Callable


def _diffusion_steps(model, scheme: str, dt: float, substeps: int = 4, tol: float = 1e-12) -> _Steps:
    """The steps of the diffusion ``scheme`` over steps of width ``dt``, each
    taking its record increment ``dy`` and ending at time ``t``:

    * ``step(rho, dy, t, made, where) -> (rho, dlog)``, the single-state step
      of online runs and replays: :func:`_robust_advance` or
      :func:`_pathwise_advance`, taking ``made`` from ``build``, or
      :func:`_em_step_many` on a stack of one, naming its step ``where(0)``;
    * ``build(dys)``: :meth:`RobustStepper.exponentials` or
      :meth:`PathwiseIntegrator.step_maps`, and ``None`` for ``em``;
    * ``many(rho, dy, t, where) -> (rho, dlog)``, the stack step of
      ensembles, each element bitwise its single-state step.
    """
    if scheme == "robust":
        stepper = RobustStepper(model, dt, tol)
        return _Steps(
            lambda rho, dy, t, e, _where: _robust_advance(stepper, rho, dy, t, e),
            stepper.exponentials,
            stepper.advance_many,
        )
    if scheme == "pathwise":
        integrator = PathwiseIntegrator(model, dt, substeps, tol)
        return _Steps(
            lambda rho, dy, t, p, _where: _pathwise_advance(integrator, rho, dy, t, p),
            integrator.step_maps,
            integrator.advance_many,
        )
    if scheme != "em":
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")

    def many(rho, dy, t, where):
        return _em_step_many(model, rho, dy, dt, t, where)

    def step(rho, dy, t, _made, where):
        x, dlog = many(rho[None], np.array([dy]), t, where)
        return x[0], float(dlog[0])

    return _Steps(step, None, many)


def _innovation_run(model, steps: _Steps, dt: float, dnu: np.ndarray, rho0, t0: float = 0.0):
    """One online diffusion run from the normalized ``rho0`` at ``t0``,
    driven by the innovations ``dnu``: each step forms its record increment
    ``dy = m dt + kappa dnu`` from the measured mean ``m = tr((L + L^dag)
    rho)`` of the state it evolves and takes the single-state ``steps.step``
    (see :func:`_diffusion_steps`) as :func:`_blockwise` does, so a replay
    of the record is bitwise this run.  Returns the record and the states."""
    rho, log_lam = _normalized_density(rho0), 0.0
    l_sum = model.L + dagger(model.L)
    times = (t0 + dt * np.arange(dnu.size + 1)).tolist()
    states = [DensityState(rho, log_lam, times[0])]
    dys = np.empty(dnu.size)
    for k, dn in enumerate(dnu.tolist()):
        m = float(np.einsum("ij,ji->", l_sum, rho).real)
        dys[k] = dy = m * dt + model.kappa * dn
        rho, dlog = steps.step(rho, dy, times[k + 1], None, lambda _b, k=k: f"step {k + 1}")
        log_lam += dlog
        states.append(DensityState(rho, log_lam, times[k + 1]))
    return MeasurementRecord(dt, dys, t0), states


def em_normalized(model, dt: float, nu_increments, rho0, t0: float = 0.0):
    """Explicit Euler-Maruyama for the normalized nonlinear equation, driven
    by innovation increments ``dnu ~ N(0, dt)``: the online run
    :func:`_innovation_run` of the ``em`` step, which synthesizes the record
    ``dy_n = m_(n-1) dt + kappa dnu_n``; its errors name the step, counted
    from 1, and its time.  Returns ``(states, record)``; ``log_lambda``
    accumulates the discrete log-likelihood ``(m dy - m^2 dt / 2) / kappa^2``.
    """
    dt = _step_width(dt)
    dnu = np.asarray(nu_increments, dtype=float)
    if dnu.ndim != 1 or not np.isfinite(dnu).all():
        raise ValueError("nu_increments must be a finite one-dimensional array")
    record, states = _innovation_run(model, _diffusion_steps(model, "em", dt), dt, dnu, rho0, t0)
    return states, record


def pathwise_schrodinger_rhs(model, a_t, a_t_inv, phi) -> np.ndarray:
    """Pure-state reduction of the pathwise flow, ``dphi/dt = -(A K A^-1) phi``;
    valid only for perfect detection (kappa = 1)."""
    if abs(model.kappa - 1.0) > 1e-12:
        raise ValueError(
            f"pathwise Schrodinger reduction requires eta = 1 (kappa = 1), got kappa = {model.kappa}"
        )
    return -(a_t @ model.K @ a_t_inv) @ np.asarray(phi, dtype=complex)

"""Evolutions driven by a scalar diffusive measurement record.

Three routes to the same conditional state are implemented, enabling
cross-validation:

* ``em_normalized`` / ``em_unnormalized`` -- explicit Euler-Maruyama
  integration of the nonlinear and linear stochastic master equations;
* ``integrate_pathwise`` / ``pathwise_filter`` -- the stochastic-integral-free
  reformulation: a gauge transform ``A_t = exp(-(L/k^2) y_t + (L^2/2k^2) t)``
  turns the linear equation into an ordinary differential equation for
  ``r_t = A_t rho_tilde_t A_t^dag`` in which the record enters only as a
  parameter, integrated here with classical RK4 on the piecewise-linear
  record interpolant;
* ``robust_step`` / ``robust_filter`` -- an implicit Euler discretization of
  the pathwise equation, transformed back so each step solves the linear
  matrix system ``A X + X B - C X D = E(dy) X_prev E(dy)^dag`` with

      A = I + K dt,   B = K^dag dt,   C = L,   D = L^dag (1 - 1/k^2) dt,
      E(dy) = exp((L/k^2) dy - (L^2/2k^2) dt),

  vectorized via ``[(I (x) A) + (B^T (x) I) - (D^T (x) C)] vec(X) = vec(rhs)``
  (plain transposes, no conjugation) and solved by dense LU.

Unnormalized solutions grow or decay exponentially, so every stepper
renormalizes each step and accumulates ``log_lambda``, the log of the
normalization factor; ``rho_tilde = exp(log_lambda) * rho`` losslessly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
from .ode import rk4_step


class NonFiniteStateError(ArithmeticError):
    """Integration produced a non-finite or collapsed state."""

    def __init__(self, time: float | None = None, message: str = "state became non-finite"):
        self.time = None if time is None else float(time)
        suffix = "" if self.time is None else f" at t = {self.time:.6g}"
        super().__init__(message + suffix)


def _batch_element(b: int) -> str:
    """How a batched step names its element ``b`` in an error message."""
    return f"batch element {b}"


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


@dataclass(frozen=True)
class MeasurementRecord:
    """Uniformly sampled scalar record: increments ``dy_n`` over steps of
    width ``dt`` starting at ``t0``.  The continuous path ``y_t`` is the
    piecewise-linear interpolant of the cumulative sums with ``y(t0) = 0``."""

    dt: float
    increments: np.ndarray
    t0: float = 0.0

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        inc = np.array(self.increments, dtype=float)
        if inc.ndim != 1:
            raise ValueError(f"increments must be one-dimensional, got shape {inc.shape}")
        if not np.isfinite(inc).all():
            raise ValueError("record increments must be finite")
        inc.setflags(write=False)
        object.__setattr__(self, "increments", inc)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t0", float(self.t0))

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

    def interpolate(self, t: float) -> float:
        """Piecewise-linear ``y(t)``, clamped to the record's time span."""
        if self.n_steps == 0:
            return 0.0
        s = np.clip((t - self.t0) / self.dt, 0.0, float(self.n_steps))
        k = min(int(s), self.n_steps - 1)
        y = self.cumulative()
        return float(y[k] + (s - k) * (y[k + 1] - y[k]))

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


def write_measurement_record(path, record: MeasurementRecord, comments: Sequence[str] = ()) -> None:
    """Write a record as CSV with header ``t,dy`` (times are interval ends)."""
    times = record.times
    lines = [
        "# format: measurement-record v1",
        f"# dt: {record.dt:.17g}",
        f"# t0: {record.t0:.17g}",
    ]
    lines += [f"# {c}" for c in comments]
    lines.append("t,dy")
    lines += [f"{times[i + 1]:.17g},{dy:.17g}" for i, dy in enumerate(record.increments)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_measurement_record(path) -> MeasurementRecord:
    """Read a CSV written by :func:`write_measurement_record`."""
    dt = None
    t0 = None
    times: list[float] = []
    values: list[float] = []
    saw_header = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            s = line.strip()
            if not s:
                continue
            if s.startswith("#"):
                body = s[1:].strip()
                if body.startswith("dt:"):
                    dt = float(body[3:])
                elif body.startswith("t0:"):
                    t0 = float(body[3:])
                continue
            if not saw_header:
                if s != "t,dy":
                    raise ValueError(f"expected header 't,dy', got {s!r}")
                saw_header = True
                continue
            t_str, dy_str = s.split(",")
            times.append(float(t_str))
            values.append(float(dy_str))
    if not saw_header:
        raise ValueError("file contains no 't,dy' header")
    if dt is None:
        if len(times) < 2:
            raise ValueError("cannot infer dt: need a '# dt:' comment or at least two rows")
        dt = times[1] - times[0]
    if t0 is None:
        t0 = (times[0] - dt) if times else 0.0
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
    """RK4 driver for the gauge-transformed flow on one record interval.

    The record enters through its piecewise-linear interpolant; each RK4
    stage rebuilds the gauge at the stage time.  Shared by
    :func:`integrate_pathwise`, :func:`pathwise_filter`, and the online
    trajectory runner so that offline replays are bit-identical.
    """

    def __init__(self, model, dt: float, substeps: int = 4, tol: float = 1e-12):
        if substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {substeps}")
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.model = model
        self.dt = float(dt)
        self.substeps = int(substeps)
        self.tol = float(tol)

    def advance(self, r: np.ndarray, t_rel: float, y_start: float, dy: float) -> np.ndarray:
        """Integrate ``r`` over ``[t_rel, t_rel + dt]`` (times relative to the
        record start, where the gauge is the identity)."""
        model, tol = self.model, self.tol
        slope = dy / self.dt
        h = self.dt / self.substeps
        cache: dict = {"t": None, "aa": None}

        def deriv(tau, rr):
            if cache["t"] != tau:
                cache["t"] = tau
                cache["aa"] = gauge(model.L, model.kappa, y_start + slope * (tau - t_rel), tau, tol)
            a, a_inv = cache["aa"]
            return pathwise_rhs(model, a, a_inv, rr)

        for j in range(self.substeps):
            r = rk4_step(deriv, t_rel + j * h, r, h)
        return 0.5 * (r + dagger(r))

    def recover_state(self, r: np.ndarray, y: float, t_rel: float, t_abs: float) -> DensityState:
        _, a_inv = gauge(self.model.L, self.model.kappa, y, t_rel, self.tol)
        rec = recover(a_inv, r)
        rho = 0.5 * (rec.rho + dagger(rec.rho))
        return DensityState(rho, rec.log_lambda, t_abs)


def integrate_pathwise(model, record: MeasurementRecord, r0, substeps: int = 4, tol: float = 1e-12):
    """Integrate the pathwise flow along a record; returns the gauge-frame
    states at every grid point (initial state included)."""
    r = require_hermitian(r0, "r0").copy()
    if float(np.trace(r).real) <= 0.0:
        raise ValueError("r0 must have positive trace")
    stepper = PathwiseIntegrator(model, record.dt, substeps, tol)
    times = record.times
    y = record.cumulative()
    out = [PathwiseState(r.copy(), float(times[0]))]
    for k, dy in enumerate(record.increments):
        r = stepper.advance(r, float(k * record.dt), float(y[k]), float(dy))
        if not np.isfinite(r).all():
            raise NonFiniteStateError(float(times[k + 1]), "pathwise state blew up")
        out.append(PathwiseState(r.copy(), float(times[k + 1])))
    return out


def pathwise_filter(model, record: MeasurementRecord, rho0, substeps: int = 4, tol: float = 1e-12):
    """Pathwise-ODE filter: integrate the gauge frame and undo the gauge at
    every grid point, yielding normalized states with log-normalization."""
    rho = _normalized_density(rho0)
    stepper = PathwiseIntegrator(model, record.dt, substeps, tol)
    times = record.times
    y = record.cumulative()
    r = rho.copy()
    out = [DensityState(rho, 0.0, float(times[0]))]
    for k, dy in enumerate(record.increments):
        r = stepper.advance(r, float(k * record.dt), float(y[k]), float(dy))
        if not np.isfinite(r).all():
            raise NonFiniteStateError(float(times[k + 1]), "pathwise state blew up")
        out.append(
            stepper.recover_state(r, float(y[k + 1]), float((k + 1) * record.dt), float(times[k + 1]))
        )
    return out


class RobustStepper:
    """Implicit filter step with the record-independent system prefactored.

    The implicit matrix ``(I (x) A) + (B^T (x) I) - (D^T (x) C)`` depends only
    on the model and ``dt``, so it is LU-factored once; each step computes
    ``E(dy)``, forms the right-hand side, and back-substitutes.
    """

    def __init__(self, model, dt: float, tol: float = 1e-12):
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
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
        self._getrs = scipy.linalg.get_lapack_funcs("getrs", (self._factors[0],))
        self._l_scaled = L / k2
        self._drift = (L @ L) * (dt / (2.0 * k2))
        self._n = n
        self._tol = float(tol)

    def propagate(self, state_prev: np.ndarray, dy: float) -> np.ndarray:
        """One implicit step of the unnormalized filter recursion."""
        if not np.isfinite(dy):
            raise ValueError(f"record increment dy = {dy} is not finite")
        e = expm(self._l_scaled * dy - self._drift, self._tol)
        rhs = e @ state_prev @ e.conj().T
        # The LAPACK call scipy.linalg.lu_solve makes, without its argument
        # handling; the column is a fresh copy, so it is solved in place.
        lu, piv = self._factors
        x, info = self._getrs(lu, piv, rhs.reshape(-1, order="F"), overwrite_b=True)
        if info != 0:
            raise ValueError(f"LAPACK getrs rejected argument {-info}")
        return x.reshape((self._n, self._n), order="F")

    def advance_many(self, rho: np.ndarray, dy: np.ndarray, t: float, where=_batch_element):
        """The normalized update of :func:`_robust_advance` for a stack of
        states ``rho[b]`` with increments ``dy[b]``, ending at time ``t``;
        returns the new states and the log normalization factors.

        Each element's result is bitwise what :func:`_robust_advance` gives
        for it alone.  The exponentials come from :func:`expm_many`.  The
        solve stays one LAPACK ``getrs`` call per element: with several
        right-hand sides ``getrs`` takes a triangular-matrix path whose
        rounding differs from the one-column path that :meth:`propagate`
        takes, by up to an ulp for a generic model.  Errors name the failing
        element as ``where(b)``.
        """
        nb, n = rho.shape[0], self._n
        dy = np.asarray(dy, dtype=float)
        bad = np.flatnonzero(~np.isfinite(dy))
        if bad.size:
            raise ValueError(f"record increment dy = {dy[bad[0]]} of {where(bad[0])} is not finite at t = {t:.6g}")
        e = expm_many(self._l_scaled * dy[:, None, None] - self._drift, self._tol)
        rhs = e @ rho @ e.conj().transpose(0, 2, 1)
        cols = rhs.transpose(0, 2, 1).reshape(nb, n * n)  # row b is vec(rhs[b])
        lu, piv = self._factors
        for col in cols:  # each row is contiguous, so getrs solves it in place
            self._getrs(lu, piv, col, overwrite_b=True)
        x = cols.reshape(nb, n, n).transpose(0, 2, 1)
        tr = np.trace(x, axis1=1, axis2=2).real
        bad = np.flatnonzero(~(np.isfinite(tr) & (tr > 0.0) & np.isfinite(x).all(axis=(1, 2))))
        if bad.size:
            raise NonFiniteStateError(t, f"implicit filter state of {where(bad[0])} collapsed")
        return (0.5 / tr)[:, None, None] * (x + x.conj().transpose(0, 2, 1)), np.log(tr)


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


def _robust_advance(stepper: RobustStepper, rho: np.ndarray, dy: float, t: float):
    """Normalized update: step, renormalize, hermitize; returns the new state
    and the log of the per-step normalization factor."""
    x = stepper.propagate(rho, dy)
    tr = float(np.trace(x).real)
    if not np.isfinite(tr) or tr <= 0.0 or not np.isfinite(x).all():
        raise NonFiniteStateError(t, "implicit filter state collapsed")
    return (0.5 / tr) * (x + x.conj().T), float(np.log(tr))


def robust_filter(model, record: MeasurementRecord, rho0, tol: float = 1e-12):
    """Iterate the implicit step along a record, renormalizing every step and
    accumulating ``log_lambda``; returns normalized states at every grid
    point (initial state included)."""
    rho = _normalized_density(rho0)
    stepper = RobustStepper(model, record.dt, tol)
    times = record.times
    log_lam = 0.0
    out = [DensityState(rho, 0.0, float(times[0]))]
    for k, dy in enumerate(record.increments):
        rho, dlog = _robust_advance(stepper, rho, float(dy), float(times[k + 1]))
        log_lam += dlog
        out.append(DensityState(rho, log_lam, float(times[k + 1])))
    return out


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


def em_normalized(model, dt: float, nu_increments, rho0, t0: float = 0.0):
    """Explicit Euler-Maruyama for the normalized nonlinear equation, driven
    by innovation increments ``dnu ~ N(0, dt)``; synthesizes the record
    ``dy_n = m_(n-1) dt + kappa dnu_n`` alongside.

    Returns ``(states, record)``; ``log_lambda`` accumulates the discrete
    log-likelihood ``(m dy - m^2 dt / 2) / kappa^2``.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    dnu = np.asarray(nu_increments, dtype=float)
    if dnu.ndim != 1 or not np.isfinite(dnu).all():
        raise ValueError("nu_increments must be a finite one-dimensional array")
    rho = _normalized_density(rho0)
    K, L, kappa = model.K, model.L, model.kappa
    Ld = dagger(L)
    l_sum = L + Ld
    states = [DensityState(rho, 0.0, t0)]
    dys = np.empty(dnu.size)
    log_lam = 0.0
    for k, dn in enumerate(dnu):
        m = float(np.einsum("ij,ji->", l_sum, rho).real)
        dy = m * dt + kappa * dn
        lr = L @ rho
        drift = lr @ Ld - K @ rho - rho @ dagger(K)
        diff = (lr + rho @ Ld - m * rho) / kappa
        rho = rho + drift * dt + diff * dn
        tr = float(np.trace(rho).real)
        if not np.isfinite(tr) or tr <= 0.0 or not np.isfinite(rho).all():
            raise NonFiniteStateError(t0 + (k + 1) * dt, "normalized state blew up")
        rho = (0.5 / tr) * (rho + rho.conj().T)
        log_lam += (m * dy - 0.5 * m * m * dt) / kappa**2
        dys[k] = dy
        states.append(DensityState(rho, log_lam, t0 + (k + 1) * dt))
    return states, MeasurementRecord(dt, dys, t0)


def pathwise_schrodinger_rhs(model, a_t, a_t_inv, phi) -> np.ndarray:
    """Pure-state reduction of the pathwise flow, ``dphi/dt = -(A K A^-1) phi``;
    valid only for perfect detection (kappa = 1)."""
    if abs(model.kappa - 1.0) > 1e-12:
        raise ValueError(
            f"pathwise Schrodinger reduction requires eta = 1 (kappa = 1), got kappa = {model.kappa}"
        )
    return -(a_t @ model.K @ a_t_inv) @ np.asarray(phi, dtype=complex)

"""Command-line front end: config parsing, experiment subcommands, and
deterministic output emission.

Subcommands: ``simulate`` (online trajectory/ensemble runs), ``filter``
(offline replay of a stored record), ``converge`` (step-size error table
against the fine pathwise oracle), ``lipschitz`` (record-perturbation
response table).  Identical config and seed produce byte-identical outputs;
every output file embeds the config echo, the seed, and the package version.
Floats in CSV files are written with 17 significant digits (round-trip exact
for 64-bit floats).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .diffusion import (
    MeasurementRecord,
    _blockwise,
    _diffusion_steps,
    _write_csv,
    read_measurement_record,
    robust_filter,  # noqa: F401  (bench/spans.py traces this name in this module)
    write_measurement_record,
)
from .jump import _jump_steps, _replay, read_counting_record, write_counting_record
from .model import IDENTITY_2, SIGMA, SIGMA_X, SIGMA_Y, SIGMA_Z, build_jump_model, purity, two_level_model
from .traj import (
    SCHEMES,
    _bloch_fast,
    convergence_report,
    lipschitz_report,
    run_ensemble,
    run_trajectory,
    steady_state_stats,
)

_MODES = ("diffusion", "jump")
_RECORD_KINDS = ("smooth", "brownian")

_OPERATORS = {
    "identity": IDENTITY_2,
    "zero": np.zeros((2, 2), dtype=complex),
    "pauli_x": SIGMA_X,
    "pauli_y": SIGMA_Y,
    "pauli_z": SIGMA_Z,
    "sigma": SIGMA,
    "sigma_dag": SIGMA.conj().T,
}

_ALPHA_DEFAULT = 7.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; defaults reproduce the two-level homodyne
    experiment (gamma=1, alpha=7/sqrt(2), Delta=0, phi=0, eta=0.85, dt=0.01,
    T=25)."""

    mode: str = "diffusion"
    scheme: str = "robust"
    gamma: float = 1.0
    alpha: float = _ALPHA_DEFAULT
    delta: float = 0.0
    phi: float = 0.0
    eta: float = 0.85
    c_spec: object = None
    e_spec: object = "zero"
    lam: float = 1.0
    dt: float = 0.01
    T: float = 25.0
    n_traj: int = 1
    seed: int = 0
    output_dir: str = "."
    substeps: int = 4
    deltas: tuple = (0.04, 0.02, 0.01)
    fine_dt: float = 0.001
    record_kind: str = "smooth"
    epsilons: tuple = (1e-2, 1e-3, 1e-4)

    def to_dict(self) -> dict:
        d = {
            "mode": self.mode,
            "scheme": self.scheme,
            "eta": self.eta,
            "dt": self.dt,
            "T": self.T,
            "n_traj": self.n_traj,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "substeps": self.substeps,
            "deltas": list(self.deltas),
            "fine_dt": self.fine_dt,
            "record_kind": self.record_kind,
            "epsilons": list(self.epsilons),
        }
        if self.mode == "diffusion":
            d.update({"gamma": self.gamma, "alpha": self.alpha, "Delta": self.delta, "phi": self.phi})
        else:
            d.update({"C": self.c_spec, "E": self.e_spec, "lambda": self.lam})
        return d

    def build_model(self):
        if self.mode == "diffusion":
            return two_level_model(self.gamma, self.alpha, self.delta, self.phi, self.eta)
        return build_jump_model(
            _parse_operator(self.c_spec, "C"),
            _parse_operator(self.e_spec, "E"),
            self.lam,
            self.eta,
        )

    def initial_state(self) -> np.ndarray:
        """Equal superposition of ground and excited state (Bloch (1, 0, 0))."""
        return np.full((2, 2), 0.5, dtype=complex)


def _parse_operator(spec, field: str) -> np.ndarray:
    if isinstance(spec, str):
        if spec not in _OPERATORS:
            names = ", ".join(sorted(_OPERATORS))
            raise ValueError(f"{field}: unknown operator name {spec!r}; known names: {names}")
        return _OPERATORS[spec].copy()
    if isinstance(spec, list):
        rows = []
        for i, row in enumerate(spec):
            if not isinstance(row, list) or len(row) != len(spec):
                raise ValueError(f"{field}: row {i} does not make the matrix square")
            out_row = []
            for j, entry in enumerate(row):
                if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                    out_row.append(complex(entry))
                elif (
                    isinstance(entry, list)
                    and len(entry) == 2
                    and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
                ):
                    out_row.append(complex(entry[0], entry[1]))
                else:
                    raise ValueError(f"{field}[{i}][{j}]: expected a number or [re, im] pair")
            rows.append(out_row)
        return np.array(rows, dtype=complex)
    raise ValueError(f"{field}: expected an operator name or a nested-list matrix")


def _require_number(raw: dict, key: str, default: float, positive: bool = False) -> float:
    if key not in raw:
        return default
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{key}: expected a number, got {v!r}")
    v = float(v)
    if not np.isfinite(v):
        raise ValueError(f"{key}: must be finite, got {v}")
    if positive and v <= 0.0:
        raise ValueError(f"{key}: must be positive, got {v}")
    return v


def _require_int(raw: dict, key: str, default: int, minimum: int | None = None) -> int:
    if key not in raw:
        return default
    v = raw[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{key}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ValueError(f"{key}: must be >= {minimum}, got {v}")
    return v


def _require_choice(raw: dict, key: str, default: str, choices) -> str:
    v = raw.get(key, default)
    if v not in choices:
        raise ValueError(f"{key}: expected one of {list(choices)}, got {v!r}")
    return v


def _require_float_list(raw: dict, key: str, default: tuple) -> tuple:
    if key not in raw:
        return default
    v = raw[key]
    if not isinstance(v, list) or not v:
        raise ValueError(f"{key}: expected a non-empty list of numbers")
    out = []
    for i, item in enumerate(v):
        if isinstance(item, bool) or not isinstance(item, (int, float)) or item <= 0:
            raise ValueError(f"{key}[{i}]: expected a positive number, got {item!r}")
        out.append(float(item))
    return tuple(out)


_KNOWN_KEYS = {
    "mode", "scheme", "gamma", "alpha", "Delta", "phi", "eta",
    "C", "E", "lambda", "dt", "T", "n_traj", "seed", "output_dir",
    "substeps", "deltas", "fine_dt", "record_kind", "epsilons",
}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; an empty object yields the default
    experiment.  Unknown keys are rejected, and model constraints are
    re-validated by building the model once."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(raw) - _KNOWN_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    mode = _require_choice(raw, "mode", "diffusion", _MODES)
    scheme = _require_choice(raw, "scheme", "robust", SCHEMES)
    if mode == "jump" and scheme == "robust":
        raise ValueError("scheme: 'robust' applies to diffusion mode; use 'em' or 'pathwise'")
    if mode == "diffusion":
        for key in ("C", "E", "lambda"):
            if key in raw:
                raise ValueError(f"{key}: only valid with mode 'jump'")
    else:
        for key in ("gamma", "alpha", "Delta", "phi"):
            if key in raw:
                raise ValueError(f"{key}: only valid with mode 'diffusion'")
        if "C" not in raw:
            raise ValueError("C: required for mode 'jump'")
    eta = _require_number(raw, "eta", 0.85)
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta: must lie in (0, 1], got {eta}")
    dt = _require_number(raw, "dt", 0.01, positive=True)
    T = _require_number(raw, "T", 25.0, positive=True)
    if T < dt:
        raise ValueError(f"T: must be at least dt = {dt}, got {T}")
    config = RunConfig(
        mode=mode,
        scheme=scheme,
        gamma=_require_number(raw, "gamma", 1.0, positive=True),
        alpha=_require_number(raw, "alpha", _ALPHA_DEFAULT),
        delta=_require_number(raw, "Delta", 0.0),
        phi=_require_number(raw, "phi", 0.0),
        eta=eta,
        c_spec=raw.get("C"),
        e_spec=raw.get("E", "zero"),
        lam=_require_number(raw, "lambda", 1.0, positive=True),
        dt=dt,
        T=T,
        n_traj=_require_int(raw, "n_traj", 1, minimum=1),
        seed=_require_int(raw, "seed", 0),
        output_dir=str(raw.get("output_dir", ".")),
        substeps=_require_int(raw, "substeps", 4, minimum=1),
        deltas=_require_float_list(raw, "deltas", (0.04, 0.02, 0.01)),
        fine_dt=_require_number(raw, "fine_dt", 0.001, positive=True),
        record_kind=_require_choice(raw, "record_kind", "smooth", _RECORD_KINDS),
        epsilons=_require_float_list(raw, "epsilons", (1e-2, 1e-3, 1e-4)),
    )
    config.build_model()
    return config


def _provenance_comments(config: RunConfig) -> list[str]:
    return [
        f"version: {__version__}",
        f"seed: {config.seed}",
        "config: " + json.dumps(config.to_dict(), sort_keys=True),
    ]


def _provenance_object(config: RunConfig) -> dict:
    return {"version": __version__, "seed": config.seed, "config": config.to_dict()}


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _state_columns(rhos) -> list[np.ndarray]:
    """The Bloch coordinates ``x``, ``y``, ``z`` and the purity of each state
    of the stack ``rhos``, as four columns; each entry is bitwise what
    :func:`_bloch_fast` and :func:`purity` give for its state alone."""
    r = np.asarray(rhos, dtype=complex)
    return [
        2.0 * r[:, 1, 0].real,
        2.0 * r[:, 1, 0].imag,
        (r[:, 0, 0] - r[:, 1, 1]).real,
        np.einsum("bij,bji->b", r, r).real,
    ]


def _float_csv(path: Path, config: RunConfig, header: str, columns) -> None:
    """A CSV of float columns with the run's provenance comments."""
    _write_csv(path, _provenance_comments(config), header, columns, ["%.17g"] * len(columns))


def _trajectory_csv(path: Path, config: RunConfig, times, states) -> None:
    x, y, z, pur = _state_columns([st.rho for st in states])
    log_lambda = np.array([st.log_lambda for st in states])
    _float_csv(path, config, "t,x,y,z,log_lambda,purity", [times, x, y, z, log_lambda, pur])


def _write_record(path: Path, config: RunConfig, record) -> None:
    comments = _provenance_comments(config)
    if isinstance(record, MeasurementRecord):
        write_measurement_record(path, record, comments)
    else:
        write_counting_record(path, record, comments)


def _run_summary(record, states) -> dict:
    """The ``summary.json`` fields of a single run or replay: its step count
    and the Bloch vector, purity and ``log_lambda`` of its final state."""
    final = states[-1]
    b = _bloch_fast(final.rho)
    return {
        "n_steps": record.n_steps,
        "final_bloch": {"x": b.x, "y": b.y, "z": b.z},
        "final_purity": purity(final.rho),
        "final_log_lambda": final.log_lambda,
    }


def cmd_simulate(config: RunConfig, out_dir: Path) -> list[Path]:
    """Run the configured experiment online and write trajectory/ensemble
    CSVs plus a summary JSON."""
    model = config.build_model()
    rho0 = config.initial_state()
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    summary = _provenance_object(config)
    if config.n_traj == 1:
        res = run_trajectory(model, config.scheme, config.dt, config.T, rho0, config.seed, config.substeps)
        traj_path = out_dir / "trajectory.csv"
        _trajectory_csv(traj_path, config, res.times, res.states)
        record_name = "measurement_record.csv" if config.mode == "diffusion" else "counting_record.csv"
        record_path = out_dir / record_name
        _write_record(record_path, config, res.record)
        summary.update(_run_summary(res.record, res.states))
        summary_path = out_dir / "summary.json"
        _write_json(summary_path, summary)
        written += [traj_path, record_path, summary_path]
    else:
        ens = run_ensemble(
            model, config.scheme, config.dt, config.T, rho0, config.n_traj, config.seed, config.substeps
        )
        mean_path = out_dir / "mean_path.csv"
        _float_csv(mean_path, config, "t,x,y,z,purity", [ens.times, *_state_columns(ens.mean_rho_path)])
        final_path = out_dir / "final_bloch.csv"
        _write_csv(
            final_path,
            _provenance_comments(config),
            "trajectory,x,y,z,purity",
            [np.arange(ens.n_traj), *_state_columns([st.rho for st in ens.final_states])],
            ["%d"] + ["%.17g"] * 4,
        )
        summary.update(
            {
                "n_traj": ens.n_traj,
                "final_bloch_summary": ens.summary,
                "steady_state": steady_state_stats(ens),
            }
        )
        summary_path = out_dir / "ensemble_summary.json"
        _write_json(summary_path, summary)
        written += [mean_path, final_path, summary_path]
    return written


def _record_header(path: Path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            s = line.strip()
            if s and not s.startswith("#"):
                return s
    raise ValueError(f"{path}: no header line found")


def cmd_filter(config: RunConfig, record_path: Path, out_dir: Path) -> list[Path]:
    """Replay a stored record offline through the configured scheme's steps,
    the ones its online run takes, so the replay of a run's record gives
    that run's states bitwise."""
    header = _record_header(record_path)
    if header == "t,dy":
        kind = "diffusion"
    elif header == "t,dN":
        kind = "jump"
    else:
        raise ValueError(f"{record_path}: unrecognized record header {header!r}")
    if kind != config.mode:
        raise ValueError(f"record is a {kind} record but config mode is '{config.mode}'")
    model = config.build_model()
    rho0 = config.initial_state()
    if kind == "diffusion":
        record = read_measurement_record(record_path)
        states = _blockwise(_diffusion_steps(model, config.scheme, record.dt, config.substeps), record, rho0)
    else:
        record = read_counting_record(record_path)
        steps = _jump_steps(model, config.scheme, record.dt, rho0, config.substeps)
        states = _replay(steps.replay, steps.start, steps.log0, record)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = out_dir / "filtered_trajectory.csv"
    _trajectory_csv(traj_path, config, record.times, states)
    summary = _provenance_object(config)
    summary.update(_run_summary(record, states))
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, summary)
    return [traj_path, summary_path]


def _diagnostic_record(config: RunConfig, model) -> MeasurementRecord:
    n = int(round(config.T / config.fine_dt))
    if config.record_kind == "smooth":
        times = config.fine_dt * np.arange(n + 1)
        return MeasurementRecord(config.fine_dt, np.diff(np.sin(times)))
    rng = np.random.default_rng(config.seed)
    return MeasurementRecord(
        config.fine_dt, rng.normal(0.0, model.kappa * np.sqrt(config.fine_dt), n)
    )


def cmd_converge(config: RunConfig, out_dir: Path) -> list[Path]:
    """Step-size error table for the implicit filter against the fine
    pathwise oracle on one record."""
    if config.mode != "diffusion":
        raise ValueError("converge diagnostic applies to diffusion mode")
    model = config.build_model()
    record = _diagnostic_record(config, model)
    rows = convergence_report(model, record, config.deltas, config.initial_state())
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "convergence_report.csv"
    _float_csv(path, config, "delta,sup_error,w_sliding,w_initial", np.array([astuple(r) for r in rows]).T)
    return [path]


def cmd_lipschitz(config: RunConfig, out_dir: Path) -> list[Path]:
    """Record-perturbation response table for the implicit filter."""
    if config.mode != "diffusion":
        raise ValueError("lipschitz diagnostic applies to diffusion mode")
    model = config.build_model()
    n = int(round(config.T / config.dt))
    rng = np.random.default_rng(config.seed)
    record = MeasurementRecord(config.dt, rng.normal(0.0, model.kappa * np.sqrt(config.dt), n))
    rows = lipschitz_report(model, record, config.epsilons, config.initial_state())
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "lipschitz_report.csv"
    _float_csv(path, config, "epsilon,sup_gap_rho,sup_gap_rho_tilde,ratio", np.array([astuple(r) for r in rows]).T)
    return [path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smefilter",
        description="Simulate and filter continuously monitored open quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run trajectories or ensembles with an online record"),
        ("filter", "replay a stored record offline through the filter"),
        ("converge", "step-size error table against the pathwise oracle"),
        ("lipschitz", "record-perturbation response table"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=Path, help="JSON config file (defaults to {})")
        p.add_argument("--out", type=Path, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")
        if name == "filter":
            p.add_argument("--record", type=Path, required=True, help="record CSV to replay")
    args = parser.parse_args(argv)
    try:
        text = args.config.read_text(encoding="utf-8") if args.config else "{}"
        config = parse_config(text)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        out_dir = args.out if args.out is not None else Path(config.output_dir)
        if args.command == "simulate":
            written = cmd_simulate(config, out_dir)
        elif args.command == "filter":
            written = cmd_filter(config, args.record, out_dir)
        elif args.command == "converge":
            written = cmd_converge(config, out_dir)
        else:
            written = cmd_lipschitz(config, out_dir)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

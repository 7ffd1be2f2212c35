"""Command-line front end: config parsing, experiment subcommands, and
deterministic output emission.

Subcommands: ``simulate`` (online trajectory/ensemble runs), ``filter``
(offline replay of a stored record), ``converge`` (step-size error table
against the fine pathwise oracle), ``lipschitz`` (record-perturbation
response table).  Identical config and seed produce byte-identical outputs;
every output file embeds the config echo, the seed, and the package version.
Floats in CSV files are written with 17 significant digits (round-trip exact
for 64-bit floats).

One table, ``_KEYS``, states each config key once: the ``RunConfig``
attribute that holds it, the check that reads its value and the mode it
belongs to.  Parsing, the unknown-key and wrong-mode rejections and the
config echo all derive from it, and ``RunConfig``'s field defaults are the
only defaults.  ``T`` must be a whole number of ``dt`` steps, and for
``converge`` of ``fine_dt`` steps, by the one grid rule
:func:`diffusion._step_count`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import astuple, dataclass, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .diffusion import (
    MeasurementRecord,
    _step_count,
    _write_csv,
    read_measurement_record,  # noqa: F401  (bench/spans.py traces this name in this module)
    read_record,
    robust_filter,  # noqa: F401  (bench/spans.py traces this name in this module)
    write_record,
)
from .model import IDENTITY_2, SIGMA, SIGMA_X, SIGMA_Y, SIGMA_Z, build_jump_model, two_level_model
from .traj import (
    SCHEMES,
    _scheme_steps,
    _state_columns,
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


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration; defaults reproduce the two-level homodyne
    experiment (gamma=1, alpha=7/sqrt(2), Delta=0, phi=0, eta=0.85, dt=0.01,
    T=25)."""

    mode: str = "diffusion"
    scheme: str = "robust"
    gamma: float = 1.0
    alpha: float = 7.0 / np.sqrt(2.0)
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
    deltas: tuple = (0.04, 0.02, 0.01)
    fine_dt: float = 0.001
    record_kind: str = "smooth"
    epsilons: tuple = (1e-2, 1e-3, 1e-4)

    def to_dict(self) -> dict:
        """The config echo: every key of the config's mode, lists as lists."""
        d = {key: getattr(self, k.attr) for key, k in _KEYS.items() if k.mode in (None, self.mode)}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in d.items()}

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
        if len(rows) != 2:  # initial_state and the Bloch columns are 2-level
            raise ValueError(f"{field}: expected a 2x2 matrix, got {len(rows)}x{len(rows)}")
        return np.array(rows, dtype=complex)
    raise ValueError(f"{field}: expected an operator name or a nested-list matrix")


def _require_number(key: str, v, positive: bool = False) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValueError(f"{key}: expected a number, got {v!r}")
    v = float(v)
    if not np.isfinite(v):
        raise ValueError(f"{key}: must be finite, got {v}")
    if positive and v <= 0.0:
        raise ValueError(f"{key}: must be positive, got {v}")
    return v


def _require_int(key: str, v, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{key}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ValueError(f"{key}: must be >= {minimum}, got {v}")
    return v


def _require_choice(key: str, v, choices) -> str:
    if v not in choices:
        raise ValueError(f"{key}: expected one of {list(choices)}, got {v!r}")
    return v


def _require_float_list(key: str, v) -> tuple:
    if not isinstance(v, list) or not v:
        raise ValueError(f"{key}: expected a non-empty list of numbers")
    out = []
    for i, item in enumerate(v):
        if isinstance(item, bool) or not isinstance(item, (int, float)) or not 0 < item < np.inf:
            raise ValueError(f"{key}[{i}]: expected a finite positive number, got {item!r}")
        out.append(float(item))
    return tuple(out)


def _require_string(key: str, v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"{key}: expected a string, got {v!r}")
    return v


def _operator_spec(key: str, v):
    """An operator name or matrix as given; :meth:`RunConfig.build_model`
    checks it."""
    return v


class _Key(NamedTuple):
    attr: str  # the RunConfig attribute that holds the key's value
    check: Callable  # (key, value) -> the value as held, or ValueError naming the key
    mode: str | None  # the one mode the key is valid with, None for both


_POSITIVE = partial(_require_number, positive=True)
_AT_LEAST_ONE = partial(_require_int, minimum=1)

# Every config key; RunConfig's field defaults stand for the absent ones.
_KEYS = {
    "mode": _Key("mode", partial(_require_choice, choices=_MODES), None),
    "scheme": _Key("scheme", partial(_require_choice, choices=SCHEMES), None),
    "gamma": _Key("gamma", _POSITIVE, "diffusion"),
    "alpha": _Key("alpha", _require_number, "diffusion"),
    "Delta": _Key("delta", _require_number, "diffusion"),
    "phi": _Key("phi", _require_number, "diffusion"),
    "eta": _Key("eta", _require_number, None),
    "C": _Key("c_spec", _operator_spec, "jump"),
    "E": _Key("e_spec", _operator_spec, "jump"),
    "lambda": _Key("lam", _POSITIVE, "jump"),
    "dt": _Key("dt", _POSITIVE, None),
    "T": _Key("T", _POSITIVE, None),
    "n_traj": _Key("n_traj", _AT_LEAST_ONE, None),
    "seed": _Key("seed", partial(_require_int, minimum=0), None),
    "output_dir": _Key("output_dir", _require_string, None),
    "deltas": _Key("deltas", _require_float_list, None),
    "fine_dt": _Key("fine_dt", _POSITIVE, None),
    "record_kind": _Key("record_kind", partial(_require_choice, choices=_RECORD_KINDS), None),
    "epsilons": _Key("epsilons", _require_float_list, None),
}


def _steps_of(key: str, dt: float, T: float) -> int:
    """The number of steps of width ``dt`` in ``T``, by the one grid rule
    :func:`_step_count`; its error is prefixed with the config key ``key``."""
    try:
        return _step_count(dt, T)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; an empty object yields the default
    experiment.  Unknown keys and keys of the other mode are rejected, and
    model constraints are re-validated by building the model once."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(raw) - set(_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    config = RunConfig(**{_KEYS[key].attr: _KEYS[key].check(key, value) for key, value in raw.items()})
    for key in raw:
        if _KEYS[key].mode not in (None, config.mode):
            raise ValueError(f"{key}: only valid with mode '{_KEYS[key].mode}'")
    if config.mode == "jump" and config.scheme == "robust":
        raise ValueError("scheme: 'robust' applies to diffusion mode; use 'em' or 'pathwise'")
    if config.mode == "jump" and "C" not in raw:
        raise ValueError("C: required for mode 'jump'")
    if not 0.0 < config.eta <= 1.0:
        raise ValueError(f"eta: must lie in (0, 1], got {config.eta}")
    _steps_of("T", config.dt, config.T)
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


def _run_csv(path: Path, config: RunConfig, header: str, columns) -> None:
    """A CSV of the given columns with the run's provenance comments."""
    _write_csv(path, _provenance_comments(config), header, columns)


def _trajectory_csv(path: Path, config: RunConfig, states) -> None:
    x, y, z, pur = _state_columns(states.rho)
    _run_csv(path, config, "t,x,y,z,log_lambda,purity", [states.t, x, y, z, states.log_lambda, pur])


def _run_summary(record, states) -> dict:
    """The ``summary.json`` fields of a single run or replay: its step count
    and the Bloch vector, purity and ``log_lambda`` of its final state."""
    final = states[-1]
    x, y, z, pur = (float(c[0]) for c in _state_columns([final.rho]))
    return {
        "n_steps": record.n_steps,
        "final_bloch": {"x": x, "y": y, "z": z},
        "final_purity": pur,
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
        res = run_trajectory(model, config.scheme, config.dt, config.T, rho0, config.seed)
        traj_path = out_dir / "trajectory.csv"
        _trajectory_csv(traj_path, config, res.states)
        record_path = out_dir / res.record.file_name
        write_record(record_path, res.record, _provenance_comments(config))
        summary.update(_run_summary(res.record, res.states))
        summary_path = out_dir / "summary.json"
        _write_json(summary_path, summary)
        written += [traj_path, record_path, summary_path]
    else:
        ens = run_ensemble(model, config.scheme, config.dt, config.T, rho0, config.n_traj, config.seed)
        mean_path = out_dir / "mean_path.csv"
        _run_csv(mean_path, config, "t,x,y,z,purity", [ens.times, *_state_columns(ens.mean_rho_path)])
        final_path = out_dir / "final_bloch.csv"
        final_bloch = _state_columns([st.rho for st in ens.final_states])
        _run_csv(final_path, config, "trajectory,x,y,z,purity", [np.arange(ens.n_traj), *final_bloch])
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


def cmd_filter(config: RunConfig, record_path: Path, out_dir: Path) -> list[Path]:
    """Replay a stored record offline through the configured scheme's steps,
    the ones its online run takes, so the replay of a run's record gives
    that run's states bitwise."""
    record = read_record(record_path)
    if record.mode != config.mode:
        raise ValueError(f"record is a {record.mode} record but config mode is '{config.mode}'")
    steps = _scheme_steps(config.build_model(), config.scheme, record.dt, config.initial_state())
    states = steps.replay(record)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = out_dir / "filtered_trajectory.csv"
    _trajectory_csv(traj_path, config, states)
    summary = _provenance_object(config)
    summary.update(_run_summary(record, states))
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, summary)
    return [traj_path, summary_path]


def _diagnostic_record(config: RunConfig, model, key: str, kind: str) -> MeasurementRecord:
    """A record over ``[0, T]`` on steps of width ``config.<key>``: the
    increments of ``sin t`` (``kind`` ``"smooth"``) or a Brownian path of the
    config's seed (``"brownian"``).  A ``T`` that is not a whole number of
    these steps is rejected naming ``key``."""
    dt = getattr(config, key)
    n = _steps_of(key, dt, config.T)
    if kind == "smooth":
        return MeasurementRecord(dt, np.diff(np.sin(dt * np.arange(n + 1))))
    rng = np.random.default_rng(config.seed)
    return MeasurementRecord(dt, rng.normal(0.0, model.kappa * np.sqrt(dt), n))


def _report_csv(path: Path, config: RunConfig, rows) -> list[Path]:
    """Write a diagnostic table, one row per dataclass in ``rows``, headed by
    the dataclass's field names."""
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ",".join(f.name for f in fields(rows[0]))
    _run_csv(path, config, header, np.array([astuple(r) for r in rows]).T)
    return [path]


def cmd_converge(config: RunConfig, out_dir: Path) -> list[Path]:
    """Step-size error table for the implicit filter against the fine
    pathwise oracle on one record."""
    if config.mode != "diffusion":
        raise ValueError("converge diagnostic applies to diffusion mode")
    model = config.build_model()
    record = _diagnostic_record(config, model, "fine_dt", config.record_kind)
    rows = convergence_report(model, record, config.deltas, config.initial_state())
    return _report_csv(out_dir / "convergence_report.csv", config, rows)


def cmd_lipschitz(config: RunConfig, out_dir: Path) -> list[Path]:
    """Record-perturbation response table for the implicit filter."""
    if config.mode != "diffusion":
        raise ValueError("lipschitz diagnostic applies to diffusion mode")
    model = config.build_model()
    record = _diagnostic_record(config, model, "dt", "brownian")
    rows = lipschitz_report(model, record, config.epsilons, config.initial_state())
    return _report_csv(out_dir / "lipschitz_report.csv", config, rows)


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
            config = replace(config, seed=_KEYS["seed"].check("seed", args.seed))
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

"""The benchmark's four workloads: their inputs, references and output checks.

A workload turns a seed into a ``Case``: the arguments of one public
``smefilter.cli`` command, the inputs that command reads, and the reference
its outputs are checked against.  Everything a case needs is computed by
``prepare``, so the timed region holds only the command call.

Sizes are scaled down from the acceptance criteria they mirror so that a
run holds several calls: about a second per call on a 2-core Xeon, except
``converge`` (see ``WORKLOADS``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from smefilter import cli
from smefilter.traj import master_propagate

STATE_LIMIT = 1.0 + 1e-9  # Bloch norm and purity of a valid state
SHAPE_SPREAD_LIMIT = 3.0  # criterion 4: sup_error / (delta + w) within +/-50% of a central value

# Criterion 9 jump model: C = cos(0.4) I - i sin(0.4) sigma_x, E = sigma_z / 2.
_C, _S = float(np.cos(0.4)), float(np.sin(0.4))
JUMP_MODEL = {
    "mode": "jump",
    "C": [[_C, [0.0, -_S]], [[0.0, -_S], _C]],
    "E": [[0.5, 0.0], [0.0, -0.5]],
    "lambda": 1.0,
    "eta": 0.7,
}


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV written by smefilter: ``#`` comments, one header line."""
    lines = [s for s in path.read_text(encoding="utf-8").splitlines() if s and not s.startswith("#")]
    header = lines[0].split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2).reshape(-1, len(header))
    return {name: data[:, j] for j, name in enumerate(header)}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _config(fields: dict) -> cli.RunConfig:
    return cli.parse_config(json.dumps(fields))


def _bloch(rhos) -> np.ndarray:
    rho = np.asarray(rhos)
    return np.stack([2.0 * rho[:, 1, 0].real, 2.0 * rho[:, 1, 0].imag, (rho[:, 0, 0] - rho[:, 1, 1]).real], axis=1)


def _columns(cols: dict[str, np.ndarray], names) -> np.ndarray:
    return np.stack([cols[n] for n in names], axis=1)


def _sup_gap(got: np.ndarray, want: np.ndarray) -> float:
    if got.shape != want.shape:
        return float("inf")
    return float(np.abs(got - want).max())


@dataclass
class Case:
    """One workload at one seed, ready to run and check.

    ``assess`` maps one call's outputs (file name -> path) to the call's
    ``sup_err`` and whether its accuracy check passed.
    """

    command: str
    args: tuple
    steps: int
    assess: Callable[[dict[str, Path]], tuple[float, bool]]

    def run(self, out_dir: Path) -> dict[str, Path]:
        # Looked up on the module at call time, so a traced run calls the wrapper.
        command = getattr(cli, self.command)
        return {p.name: p for p in command(*self.args, out_dir)}


def _mean_field_case(config: cli.RunConfig, L, tolerance: float) -> Case:
    """An ensemble ``simulate`` whose mean Bloch path must follow the
    master-equation flow with coupling ``L``, integrated at ``dt/10``."""
    model = config.build_model()
    n = int(round(config.T / config.dt))
    path = master_propagate(model.H, L, config.initial_state(), config.dt / 10.0, 10 * n)
    want = _bloch(path[::10])

    def assess(outputs):
        err = _sup_gap(_columns(read_csv(outputs["mean_path.csv"]), "xyz"), want)
        return err, err <= tolerance

    return Case("cmd_simulate", (config,), config.n_traj * n, assess)


def prepare_ens_robust(seed: int, work: Path, size: dict) -> Case:
    """Criterion 7/8 shape: many short robust trajectories of the driven atom."""
    config = _config({"scheme": "robust", "phi": 0.0, "eta": 0.85, "dt": 0.01, "seed": seed, **size})
    model = config.build_model()
    return _mean_field_case(config, model.L, 3.0 / np.sqrt(config.n_traj))


def prepare_jump_ens(seed: int, work: Path, size: dict) -> Case:
    """Criterion 9c shape: pathwise jump trajectories against the mean-field
    flow with ``L = sqrt(lam) (C - I)``."""
    config = _config({**JUMP_MODEL, "scheme": "pathwise", "dt": 0.01, "seed": seed, **size})
    model = config.build_model()
    L = np.sqrt(model.lam) * (model.C - np.eye(model.dim))
    return _mean_field_case(config, L, 3.0 / np.sqrt(config.n_traj) + 5.0 * config.dt)


def prepare_replay_robust(seed: int, work: Path, size: dict) -> Case:
    """Offline robust replay of one long record written by an online run at
    the same seed; the replayed states must equal the online ones exactly."""
    config = _config({"scheme": "robust", "dt": 0.01, "n_traj": 1, "seed": seed, **size})
    online = {p.name: p for p in cli.cmd_simulate(config, work / "online")}
    record = online["measurement_record.csv"]
    cols = read_csv(online["trajectory.csv"])
    names = list(cols)
    want = _columns(cols, names)

    def assess(outputs):
        err = _sup_gap(_columns(read_csv(outputs["filtered_trajectory.csv"]), names), want)
        return err, err == 0.0

    return Case("cmd_filter", (config, record), int(round(config.T / config.dt)), assess)


def prepare_converge(seed: int, work: Path, size: dict) -> Case:
    """Criterion 4 shape on a Brownian record: the implicit filter's error
    against the fine pathwise oracle tracks ``delta + w(delta)``."""
    config = _config({"record_kind": "brownian", "fine_dt": 1e-3, "seed": seed, **size})
    n_fine = int(round(config.T / config.fine_dt))
    coarse = sum(n_fine // int(round(d / config.fine_dt)) for d in config.deltas)

    def assess(outputs):
        rows = read_csv(outputs["convergence_report.csv"])
        k = rows["sup_error"] / (rows["delta"] + rows["w_sliding"])
        err = float(rows["sup_error"][np.argmin(rows["delta"])])
        ok = bool(np.isfinite(k).all() and k.min() > 0.0 and k.max() / k.min() <= SHAPE_SPREAD_LIMIT)
        return err, ok

    return Case("cmd_converge", (config,), n_fine + coarse, assess)


@dataclass(frozen=True)
class Workload:
    """A named workload: how to prepare it, at the measured size and at a
    small size that runs the same code paths (the warm-up call, and tests)."""

    prepare: Callable[[int, Path, dict], Case]
    size: dict
    small: dict


# ``converge`` uses T = 3 (about 5 s per call): on shorter records the shape
# check itself fails for some seeds (spread above 3 for 3 of about 125 seeds
# at T = 1, up to 2.99 over 160 seeds at T = 2; at most 2.19 over 138 seeds
# at T = 3), and longer calls follow the host's speed changes less closely
# (see ``HostSpeed`` in run.py).
WORKLOADS = {
    "ens_robust": Workload(prepare_ens_robust, {"T": 2.5, "n_traj": 64}, {"T": 0.1, "n_traj": 2}),
    "replay_robust": Workload(prepare_replay_robust, {"T": 100.0}, {"T": 0.1}),
    "converge": Workload(prepare_converge, {"T": 3.0}, {"T": 0.08}),
    "jump_ens": Workload(prepare_jump_ens, {"T": 2.5, "n_traj": 16}, {"T": 0.1, "n_traj": 2}),
}


class Tally:
    """Counts of attempted and failed command calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)
        return ok


def invalid_rows(outputs: dict[str, Path]) -> int:
    """Rows of the output CSVs holding a non-finite value or an invalid state
    (Bloch norm or purity above ``STATE_LIMIT``)."""
    bad = 0
    for path in outputs.values():
        if path.suffix != ".csv":
            continue
        cols = read_csv(path)
        data = np.stack(list(cols.values()), axis=1)
        row_bad = ~np.isfinite(data).all(axis=1)
        if {"x", "y", "z", "purity"} <= cols.keys():
            norm = np.sqrt(cols["x"] ** 2 + cols["y"] ** 2 + cols["z"] ** 2)
            row_bad |= ~(norm <= STATE_LIMIT) | ~(cols["purity"] <= STATE_LIMIT)
        bad += int(row_bad.sum())
    return bad


def check_outputs(case: Case, outputs: dict[str, Path], tally: Tally, expected_hashes: dict | None, label: str):
    """Record the accuracy, validity and byte-identity checks of one call.

    Returns the call's ``sup_err`` and the sha256 of each output file.  With
    ``expected_hashes`` given, every file must match it byte for byte
    (criterion 10: reruns in one process write identical files).
    """
    try:
        err, accurate = case.assess(outputs)
        bad = invalid_rows(outputs)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        tally.record(f"{label}: outputs unreadable ({exc})", False)
        return float("inf"), {}
    tally.record(f"{label}: sup_err {err!r} out of tolerance", accurate)
    tally.record(f"{label}: {bad} invalid output rows", bad == 0)
    hashes = {name: sha256(path) for name, path in sorted(outputs.items())}
    if expected_hashes is not None:
        tally.record(f"{label}: outputs differ from the first call", hashes == expected_hashes)
    return err, hashes

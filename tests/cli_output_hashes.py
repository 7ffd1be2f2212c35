"""Write a fixed set of CLI outputs and print the sha256 of each file.

Usage::

    PYTHONPATH=src python tests/cli_output_hashes.py OUT_DIR

The set: 23 ``simulate`` calls (single runs and ensembles of every scheme
and both modes), the ``filter`` replay of each of the 9 single runs'
records, a smooth and a Brownian ``converge`` and one ``lipschitz``, 90
files in all, each under ``OUT_DIR/<command>/<run>/``; the configs go to
``OUT_DIR/configs``.  One ``sha256  relative/path`` line is printed per
output file, sorted by path.  The script calls only
:func:`smefilter.cli.main`, so it runs unchanged against any version of the
package with this command line; two versions write the same bytes exactly
when their printed lines agree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from math import cos, sin
from pathlib import Path

from smefilter.cli import main

# criterion 9's jump model: C = cos(0.4) I - i sin(0.4) sigma_x, E = sigma_z / 2
_C9 = [[cos(0.4), [0.0, -sin(0.4)]], [[0.0, -sin(0.4)], cos(0.4)]]
_E9 = [[0.5, 0.0], [0.0, -0.5]]
_JUMP_OPERATORS = {
    "pauli_x": {"C": "pauli_x", "E": "pauli_x"},
    "sigma": {"C": "sigma", "E": "pauli_x"},
    "c9": {"C": _C9, "E": _E9, "eta": 0.7},
}


def _runs() -> list[tuple[str, dict]]:
    """The ``simulate`` calls as (directory name, config)."""
    runs = [("default", {"T": 2.0})]
    for phi in (0.0, 0.3):
        runs.append((f"robust-ens-phi{phi}", {"T": 2.5, "n_traj": 64, "phi": phi, "seed": 11}))
    for scheme in ("em", "pathwise"):
        runs.append((f"{scheme}-single", {"scheme": scheme, "T": 2.0, "seed": 3}))
        runs.append((f"{scheme}-ens", {"scheme": scheme, "T": 2.0, "n_traj": 4, "seed": 3}))
        for phi in (0.0, 0.3):
            runs.append((f"{scheme}-ens16-phi{phi}", {"scheme": scheme, "T": 2.5, "n_traj": 16, "phi": phi}))
        for name, ops in _JUMP_OPERATORS.items():
            jump = {"mode": "jump", "scheme": scheme, "T": 3.0, "seed": 5, **ops}
            runs.append((f"jump-{scheme}-{name}-single", jump))
            runs.append((f"jump-{scheme}-{name}-ens", {**jump, "n_traj": 32}))
    return runs


def _call(out: Path, command: str, name: str, config: dict, *extra: str) -> None:
    path = out / "configs" / f"{command}-{name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):  # main prints each path it writes
        code = main([command, "--config", str(path), "--out", str(out / command / name), *extra])
    if code != 0:
        raise SystemExit(f"{command} {name} failed")


def write_set(out: Path) -> None:
    """Write every output of the set under ``out``."""
    (out / "configs").mkdir(parents=True, exist_ok=True)
    for name, config in _runs():
        _call(out, "simulate", name, config)
        if config.get("n_traj", 1) == 1:
            kind = "measurement" if config.get("mode", "diffusion") == "diffusion" else "counting"
            record = out / "simulate" / name / f"{kind}_record.csv"
            _call(out, "filter", name, config, "--record", str(record))
    for kind in ("smooth", "brownian"):
        _call(out, "converge", kind, {"T": 1.0, "fine_dt": 0.002, "record_kind": kind, "seed": 9})
    _call(out, "lipschitz", "default", {"T": 2.0, "seed": 9})


def hashes(out: Path) -> list[str]:
    """The ``sha256  relative/path`` line of every output file under ``out``,
    sorted by path."""
    commands = ("simulate", "filter", "converge", "lipschitz")
    files = sorted(p for c in commands for p in (out / c).rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}" for p in files]


def main_hashes(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: cli_output_hashes.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    write_set(out)
    print("\n".join(hashes(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main_hashes(sys.argv[1:]))

"""List the files that differ between two CLI output sets, with their gaps.

Usage::

    python tests/cli_output_gaps.py OLD_DIR NEW_DIR

``OLD_DIR`` and ``NEW_DIR`` are output sets written by
``tests/cli_output_hashes.py``, for example by two versions of the package.
The script prints how many files are byte-identical, then one line per file
whose bytes differ or that only one set has.  Under a differing CSV it
prints the largest absolute gap of each column, and under a differing JSON
file that of each numeric field whose values differ, in the order the file
holds them; ``#`` comment lines of a CSV are compared only as bytes.  The
exit status is 0 when the sets are byte-identical and 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

COMMANDS = ("simulate", "filter", "converge", "lipschitz")


def _files(out: Path) -> set[str]:
    return {p.relative_to(out).as_posix() for c in COMMANDS for p in (out / c).rglob("*") if p.is_file()}


def _csv_columns(path: Path) -> dict[str, np.ndarray]:
    lines = [s for s in path.read_text(encoding="utf-8").splitlines() if s and not s.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in s.split(",")] for s in lines[1:]]).reshape(-1, len(header))
    return {name: rows[:, j] for j, name in enumerate(header)}


def _json_fields(value, path: str = "") -> dict[str, np.ndarray]:
    """The numeric leaves of a JSON value by their dotted path; a list of
    numbers is one field."""
    if isinstance(value, dict):
        return {k: v for key in value for k, v in _json_fields(value[key], f"{path}.{key}".lstrip(".")).items()}
    if isinstance(value, list) and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value):
        return {path: np.array(value, dtype=float)}
    if isinstance(value, list):
        return {k: v for i, x in enumerate(value) for k, v in _json_fields(x, f"{path}[{i}]").items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {path: np.array([value], dtype=float)}
    return {}


def _fields(path: Path) -> dict[str, np.ndarray] | None:
    if path.suffix == ".csv":
        return _csv_columns(path)
    if path.suffix == ".json":
        return _json_fields(json.loads(path.read_text(encoding="utf-8")))
    return None


def gap_lines(old: Path, new: Path) -> list[str]:
    """The report's lines for one file that both sets hold and whose bytes
    differ."""
    a, b = _fields(old), _fields(new)
    if a is None or b is None:
        return []
    lines = []
    for name in [*a, *(k for k in b if k not in a)]:
        if name not in a or name not in b:
            lines.append(f"  {name}: only in {'new' if name in b else 'old'}")
        elif a[name].shape != b[name].shape:
            lines.append(f"  {name}: {a[name].size} values old, {b[name].size} new")
        else:
            gap = float(np.abs(a[name] - b[name]).max(initial=0.0))
            if gap or old.suffix == ".csv":
                lines.append(f"  {name}: {gap:.3g}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: cli_output_gaps.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old, new = Path(argv[0]), Path(argv[1])
    in_old, in_new = _files(old), _files(new)
    both = sorted(in_old & in_new)
    differ = [f for f in both if (old / f).read_bytes() != (new / f).read_bytes()]
    print(f"{len(both) - len(differ)} of {len(in_old | in_new)} files byte-identical")
    for f in sorted(in_old ^ in_new):
        print(f"{f}: only in {'new' if f in in_new else 'old'}")
    for f in differ:
        print(f"{f}: differs")
        for line in gap_lines(old / f, new / f):
            print(line)
    return 0 if not differ and in_old == in_new else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

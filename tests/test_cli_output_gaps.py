"""``tests/cli_output_gaps.py`` on two hand-made output sets."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "cli_output_gaps.py"


def _tool():
    spec = importlib.util.spec_from_file_location("cli_output_gaps", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_lists_differing_files_with_column_gaps(tmp_path, capsys):
    csv = "# seed: 1\nt,x\n0,1\n0.5,0.25\n"
    summary = {"config": {"dt": 0.01}, "final": [0.5, 0.25], "n": 3}
    old = _write(tmp_path / "old", {
        "simulate/a/trajectory.csv": csv,
        "simulate/a/summary.json": json.dumps(summary),
        "filter/a/same.csv": csv,
        "lipschitz/only_old.csv": csv,
    })
    new = _write(tmp_path / "new", {
        "simulate/a/trajectory.csv": csv.replace("0.25", "0.2500000000000001"),
        "simulate/a/summary.json": json.dumps({**summary, "final": [0.5, 0.75]}),
        "filter/a/same.csv": csv,
        "configs/ignored.json": "{}",
    })
    tool = _tool()
    assert tool.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "1 of 4 files byte-identical",
        "lipschitz/only_old.csv: only in old",
        "simulate/a/summary.json: differs",
        "  final: 0.5",
        "simulate/a/trajectory.csv: differs",
        "  t: 0",
        "  x: 1.11e-16",
    ]
    assert tool.main([str(old), str(old)]) == 0
    assert capsys.readouterr().out == "4 of 4 files byte-identical\n"
    assert tool.main([str(old)]) == 2

"""Rerun identity of the whole CLI output set of ``tests/cli_output_hashes.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "cli_output_hashes.py"


def test_output_set_is_byte_identical_on_rerun(tmp_path):
    # every scheme of both modes, filter replays, converge and lipschitz:
    # two in-process runs write the same bytes to every one of the 90 files
    spec = importlib.util.spec_from_file_location("cli_output_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = []
    for name in ("first", "second"):
        tool.write_set(tmp_path / name)
        runs.append(tool.hashes(tmp_path / name))
    assert len(runs[0]) == 90
    assert runs[0] == runs[1]

"""The benchmark's output checks must hold on the code as it stands.

``bench/workloads.py`` counts an invalid output row, a rerun whose files
differ, or a robust replay that drifts from the online run by one ulp as a
failed operation.  This runs each workload at its small size, twice, and
makes any of these a unit-test failure.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up there
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_case_is_valid_and_reruns_byte_identical(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    case = workload.prepare(3, tmp_path / "input", workload.small)
    first, second = (case.run(tmp_path / f"out{i}") for i in range(2))
    assert workloads.invalid_rows(first) == 0
    assert first.keys() == second.keys()
    assert all(workloads.sha256(first[f]) == workloads.sha256(second[f]) for f in first)
    if name == "replay_robust":
        assert case.assess(first)[0] == 0.0

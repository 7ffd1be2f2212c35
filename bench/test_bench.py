"""Tests of the benchmark's own code: span arithmetic, tracing, the metric
names it declares, and the output checks that feed ``fail_frac``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import run
import spans
import workloads
from smefilter import diffusion, linalg

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_summarize_on_hand_built_tree():
    tree = [
        ["cli.cmd", 0.0, 10.0, -1],
        ["traj.run", 1.0, 9.0, 0],
        ["diffusion.step", 2.0, 4.0, 1],
        ["linalg.expm", 2.5, 3.0, 2],
        ["diffusion.step", 5.0, 8.0, 1],
    ]
    calls, total, self_s = spans.summarize(tree)
    assert calls == {"cli.cmd": 1, "traj.run": 1, "diffusion.step": 2, "linalg.expm": 1}
    assert total["diffusion.step"] == pytest.approx(5.0)
    assert dict(self_s) == pytest.approx({"cli": 2.0, "traj": 3.0, "diffusion": 4.5, "linalg": 0.5})
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_tracer_wraps_lookups_and_restores_them(tmp_path):
    case = workloads.prepare_ens_robust(3, tmp_path, {"T": 0.05, "n_traj": 2})
    tracer = spans.Tracer()
    with tracer:
        outputs = case.run(tmp_path / "out")
    assert diffusion.expm is linalg.expm and diffusion.scipy is scipy
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.cmd_simulate" and tracer.spans[0][3] == -1
    assert names.count("diffusion.RobustStepper.propagate") == case.steps
    assert names.count("linalg.expm") == names.count("diffusion.lu_solve") == case.steps
    for name, start, end, parent in tracer.spans[1:]:
        assert tracer.spans[parent][1] <= start <= end <= tracer.spans[parent][2]
        if name == "diffusion.lu_solve":
            assert tracer.spans[parent][0] == "diffusion.RobustStepper.propagate"
    calls, total, self_s = spans.summarize(tracer.spans)
    assert sum(self_s.values()) == pytest.approx(total["cli.cmd_simulate"])
    metrics = run.layer_metrics((calls, total, self_s), case.steps, 1)
    assert set(metrics) == set(run.PER_LAYER) - {"trace_overhead_frac"}
    assert metrics["linalg.expm.per_step"] == 1.0
    assert metrics["traj.run_trajectory.calls"] == 2
    assert set(outputs) == {"mean_path.csv", "final_bloch.csv", "ensemble_summary.json"}


def test_declared_metrics_match_what_run_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == [BENCH.name]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    }


def _rewrite(path: Path, column: str, row: int, value) -> None:
    """Replace one field of a smefilter CSV, keeping every other byte."""
    lines = path.read_text().split("\n")
    header = next(i for i, s in enumerate(lines) if s and not s.startswith("#"))
    j = lines[header].split(",").index(column)
    k = range(header + 1, len(lines) - 1)[row]  # the text ends with a newline
    fields = lines[k].split(",")
    fields[j] = value(float(fields[j])) if callable(value) else value
    lines[k] = ",".join(fields)
    path.write_text("\n".join(lines))


# workload -> corruptions: (file, column, row, new value, the check that must fail)
CORRUPTIONS = {
    "ens_robust": [
        ("mean_path.csv", "x", 1, "5.0", "sup_err"),
        ("final_bloch.csv", "purity", 0, "1.5", "invalid"),
    ],
    "jump_ens": [
        ("mean_path.csv", "z", -1, "-5.0", "sup_err"),
        ("final_bloch.csv", "y", 1, "1.2", "invalid"),
    ],
    "replay_robust": [
        ("filtered_trajectory.csv", "log_lambda", 3, lambda v: repr(v + abs(v) * 1e-15 + 1e-300), "sup_err"),
        ("filtered_trajectory.csv", "purity", 2, "nan", "invalid"),
    ],
    "converge": [
        ("convergence_report.csv", "sup_error", -1, lambda v: repr(10.0 * v), "sup_err"),
        ("convergence_report.csv", "w_initial", 0, "inf", "invalid"),
    ],
}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_output_checks_count_corrupted_files(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    case = workload.prepare(5, tmp_path / "in", workload.small)
    tally = workloads.Tally()
    outputs = case.run(tmp_path / "out")
    err, hashes = workloads.check_outputs(case, outputs, tally, None, "first")
    assert tally.failed == 0 and tally.attempted == 2
    assert err == 0.0 if name == "replay_robust" else 0.0 < err < float("inf")
    workloads.check_outputs(case, outputs, tally, hashes, "rerun")
    assert tally.failed == 0 and tally.attempted == 5

    for file, column, row, value, check in CORRUPTIONS[name]:
        shutil.copytree(tmp_path / "out", tmp_path / "bad", dirs_exist_ok=True)
        bad = {n: tmp_path / "bad" / n for n in outputs}
        _rewrite(bad[file], column, row, value)
        tally = workloads.Tally()
        workloads.check_outputs(case, bad, tally, hashes, "corrupted")
        assert tally.failed >= 2, (file, column)
        assert any(check in f for f in tally.failures), tally.failures
        assert any("differ from the first call" in f for f in tally.failures)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ens_robust", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""

"""Benchmark runner for smefilter: one workload, one seed, one run.

    python3 bench/run.py --workload ens_robust --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  The workload's inputs and references are generated from the seed
in set-up; then the workload's ``smefilter.cli`` command is called in a
closed loop, one call at a time in this one process, until ``--seconds``
have passed.  Every call's outputs are checked (see ``workloads.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: ``steps_per_s`` over all timed calls, ``setup_s``
(median import time in a fresh interpreter plus the median of three
in-process set-ups, each of which prepares the inputs and references and
makes one small warm-up call) and ``peak_rss_mb``.  The two times are scaled
to the speed of an idle reference host (see ``HostSpeed``); the wall-clock
values are in the ``info`` line.
With ``--trace 1`` calls alternate between untraced and traced, and it holds
the per-layer metrics, each the median over the traced calls (see
``spans.py``), and the tracing overhead, the mean traced call against the
mean untraced call.  The line before it is an ``info`` object with the environment,
``fail_frac``, ``sup_err`` and the sha256 of each output file.  Both are also
written to ``.bench_out/results/``, with the spans of the last traced call.

Exits with code 2, printing no result, when the package sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# The matrices are 2x2 and 4x4: a BLAS thread pool would only add scheduling.
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_REPEATS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import smefilter.cli; print(time.perf_counter() - t)"

PER_LAYER = {
    "diffusion.RobustStepper.propagate.calls": "count",
    "diffusion.RobustStepper.propagate.us": "us",
    "diffusion.lu_solve.us": "us",
    "diffusion.PathwiseIntegrator.advance.calls": "count",
    "diffusion.PathwiseIntegrator.advance.us": "us",
    "diffusion.gauge.per_step": "1/step",
    "diffusion.recover.calls": "count",
    "diffusion.read_measurement_record.s": "s",
    "linalg.expm.calls": "count",
    "linalg.expm.us": "us",
    "linalg.expm.per_step": "1/step",
    "ode.rk4_step.calls": "count",
    "jump.jump_pathwise_solve.s": "s",
    "jump.sample_counting_record.s": "s",
    "jump.counts": "count",
    "traj.run_trajectory.calls": "count",
    "cli.bytes_written": "B",
    "linalg.self_s": "s",
    "ode.self_s": "s",
    "diffusion.self_s": "s",
    "jump.self_s": "s",
    "traj.self_s": "s",
    "cli.self_s": "s",
    "trace_overhead_frac": "frac",
}


def layer_metrics(stats, steps: int, bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced call, from ``spans.summarize``.

    A metric is named ``<span>.<statistic>`` (``calls``, ``us`` per call,
    inclusive ``s``, calls ``per_step``) or ``<layer>.self_s``.
    """
    calls, total, self_s = stats
    out = {"jump.counts": calls["jump.JumpGauge.advance"], "cli.bytes_written": bytes_written}
    for metric in PER_LAYER:
        if metric in out or metric == "trace_overhead_frac":
            continue
        span, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls[span]
        elif stat == "us":
            out[metric] = 1e6 * total[span] / calls[span] if calls[span] else 0.0
        elif stat == "s":
            out[metric] = total[span]
        elif stat == "per_step":
            out[metric] = calls[span] / steps
        else:
            out[metric] = self_s[span]
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "smefilter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREADS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter; a process
    imports a module only once, so each sample needs its own process."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True, env={**os.environ, "PYTHONPATH": path},
        )
        times.append(float(child.stdout))
    return statistics.median(times)


class HostSpeed:
    """The host's current slowdown, from a fixed reference kernel.

    The host is shared: its speed swings by up to 2x, for seconds to minutes
    at a time, which moves a run's wall-clock figures by +-25% from run to
    run.  The kernel, interpreter work around 2x2 NumPy products like the
    package's own, slows down with the host.  Its time divided by
    ``REFERENCE_S``, its time on the idle reference host, is the slowdown;
    each call's time is divided by the mean slowdown just before and just
    after it, and the set-up time by the mean slowdown during set-up.
    """

    REFERENCE_S = 0.0215  # idle 2-vCPU Xeon at 2.1 GHz, Python 3.11.7, NumPy 2.4.6

    def __init__(self):
        import numpy

        self._a = numpy.array([[0.3, 0.1j], [0.2, 0.4]])
        self._eye = numpy.eye(2, dtype=complex)
        self._abs = numpy.abs
        self._kernel()  # the first call pays one-off costs

    def _kernel(self) -> float:
        a, ad, x, total = self._a, self._a.conj().T, self._eye, 0.0
        t0 = time.perf_counter()
        for _ in range(3000):
            x = 0.5 * (a @ x @ ad) + 0.25 * x
            total += float(self._abs(x).max()) * 1e-3
        return time.perf_counter() - t0

    def slowdown(self) -> float:
        return statistics.median(self._kernel() for _ in range(3)) / self.REFERENCE_S


def measure(case, seconds: float, work: Path, tally, tracer, speed: HostSpeed) -> dict:
    """Call the case's command until ``seconds`` have passed; with a tracer,
    every second call is traced.  Only the command call is timed; each call's
    time is also given scaled by the host's slowdown around it."""
    from spans import summarize
    from workloads import check_outputs

    out = work / "out"
    plain, traced, layers = [], [], []  # timings are (wall seconds, scaled seconds)
    expected, sup_err = None, 0.0
    min_calls = 4 if tracer else 3
    start = time.perf_counter()
    before = speed.slowdown()
    i = 0
    while i < min_calls or time.perf_counter() - start < seconds:
        label = f"call {i}"
        with_trace = tracer is not None and i % 2 == 1
        i += 1
        shutil.rmtree(out, ignore_errors=True)
        if with_trace:
            tracer.spans.clear()
        gc.collect()
        try:
            with tracer if with_trace else nullcontext():
                t0 = time.perf_counter()
                outputs = case.run(out)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a failing call is counted and the loop goes on
            tally.record(f"{label}: {type(exc).__name__}: {exc}", False)
            before = speed.slowdown()
            continue
        after = speed.slowdown()
        timing = (wall, wall / (0.5 * (before + after)))
        before = after
        tally.record(label, True)
        err, hashes = check_outputs(case, outputs, tally, expected, label)
        expected = expected or hashes or None
        sup_err = max(sup_err, err)
        if with_trace:
            traced.append(timing)
            size = sum(p.stat().st_size for p in outputs.values())
            layers.append(layer_metrics(summarize(tracer.spans), case.steps, size))
        else:
            plain.append(timing)
    if not plain or (tracer and not traced):
        raise RuntimeError(f"no successful call to measure: {tally.failures[:5]}")
    return {"plain": plain, "traced": traced, "layers": layers, "sup_err": sup_err, "sha256": expected}


def write_spans(path: Path, spans) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("name,start,end,parent\n")
        fh.writelines(f"{n},{s!r},{e!r},{p}\n" for n, s, e, p in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "smefilter" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    # Imported here, not at the top, so that the BLAS limits apply.
    import smefilter.cli  # noqa: F401
    import spans
    import workloads

    if Path(smefilter.__file__).resolve().parent != SRC / "smefilter":
        print(f"error: smefilter was imported from {smefilter.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        tally = workloads.Tally()
        speed = HostSpeed()
        setup_slowdowns = [speed.slowdown()]
        import_s = import_seconds()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            setup_slowdowns.append(speed.slowdown())
            t0 = time.perf_counter()
            case = workload.prepare(args.seed, work / "input", workload.size)
            # The warm-up runs the same code paths at the small size, where
            # the accuracy tolerances do not apply, so its outputs go unchecked.
            warm = workload.prepare(args.seed, work / "warmup", workload.small)
            warm.run(work / "warmup" / "out")
            setup_times.append(time.perf_counter() - t0)
        setup_slowdowns.append(speed.slowdown())
        tracer = spans.Tracer() if args.trace else None
        run = measure(case, args.seconds, work, tally, tracer, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # All steps over all timed seconds, not the median call: within a run the
    # host's speed changes every few seconds, and the median call flips
    # between its slow and fast phases.
    wall_s, scaled_s = (sum(column) for column in zip(*run["plain"]))
    calls = len(run["plain"])
    wall_setup_s = import_s + statistics.median(setup_times)
    setup_slowdown = statistics.mean(setup_slowdowns)
    if args.trace:
        metrics = {
            name: {"value": statistics.median(row[name] for row in run["layers"]), "unit": unit}
            for name, unit in PER_LAYER.items()
            if name != "trace_overhead_frac"
        }
        traced_scaled_s = sum(scaled for _, scaled in run["traced"])
        overhead = (traced_scaled_s / len(run["traced"])) / (scaled_s / calls) - 1.0
        metrics["trace_overhead_frac"] = {"value": overhead, "unit": PER_LAYER["trace_overhead_frac"]}
    else:
        metrics = {
            "steps_per_s": {"value": case.steps * calls / scaled_s, "unit": "1/s"},
            "setup_s": {"value": wall_setup_s / setup_slowdown, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "steps_per_call": case.steps,
        "calls": len(run["plain"]) + len(run["traced"]),
        "wall_steps_per_s": {"value": case.steps * calls / wall_s, "unit": "1/s"},
        "wall_setup_s": {"value": wall_setup_s, "unit": "s"},
        "setup_slowdown": setup_slowdown,
        "call_s": [wall for wall, _ in run["plain"]],
        "call_slowdown": [wall / scaled for wall, scaled in run["plain"]],
        "traced_call_s": [wall for wall, _ in run["traced"]],
        "fail_frac": {"value": tally.failed / tally.attempted, "unit": "frac"},
        "sup_err": {"value": run["sup_err"], "unit": "1"},
        "setup_parts_s": {"import": import_s, "repeats": setup_times},
        "failures": tally.failures[:20],
        "sha256": run["sha256"],
        "environment": environment(),
    }
    stem = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    if args.trace:
        write_spans(stem.with_name(stem.name + "-spans.csv.gz"), tracer.spans)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's tracer must still find every name it wraps.

``bench/spans.py`` wraps functions where their callers look them up, some
of them names that production code no longer calls (for example
``diffusion.rk4_step``, ``jump.recover`` and ``traj.sample_counting_record``).
Deleting one of them breaks a traced benchmark run; this test makes that a
unit-test failure instead.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_tracer_wraps_and_restores_every_name():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.__enter__()
        undo = list(tracer._undo)
        assert undo and all(getattr(owner, attr) is not original for owner, attr, original in undo)
    finally:
        tracer.__exit__(None, None, None)  # restores what was patched, even after a failed lookup
    assert all(getattr(owner, attr) is original for owner, attr, original in undo)

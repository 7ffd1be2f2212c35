"""Spans for the traced run, recorded around the package's public functions.

Modules bind each other's functions at import (``from .linalg import expm``),
so a function is wrapped in every namespace where a caller looks it up, not
only where it is defined.  A span is ``[name, start, end, parent]`` with the
parent given as an index into the span list (-1 for a root).  Spans are kept
in memory; the caller writes them out at the end.  No file of the package is
changed.

The wrapped names are public, except ``diffusion._robust_advance``, the step
``traj`` calls across the layer boundary.  Code that is not wrapped counts
as self time of the span that calls it: the right-hand-side closures passed
to ``ode.rk4_step`` count as ``ode``, and the CSV writing in ``cli`` as
``cli``.  ``model`` only builds systems, which ``cli`` does once per call,
so none of its functions is wrapped.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

import scipy.linalg

# Namespace -> the names looked up there that a workload's timed call crosses.
LOOKUPS = {
    "smefilter.cli": (
        "cmd_simulate", "cmd_filter", "cmd_converge", "run_ensemble", "steady_state_stats",
        "convergence_report", "read_measurement_record", "robust_filter",
    ),
    "smefilter.traj": (
        "run_trajectory", "_robust_advance", "sample_counting_record", "jump_pathwise_solve",
        "pathwise_filter", "robust_filter",
    ),
    "smefilter.diffusion": ("expm", "gauge", "recover", "rk4_step"),
    "smefilter.jump": ("recover", "rk4_step"),
}
# Methods are looked up on their class.
METHODS = (
    ("smefilter.diffusion", "RobustStepper", "propagate"),
    ("smefilter.diffusion", "PathwiseIntegrator", "advance"),
    ("smefilter.diffusion", "PathwiseIntegrator", "recover_state"),
    ("smefilter.jump", "JumpGauge", "advance"),
)


def span_name(fn) -> str:
    """``<defining module>.<qualified name>``, e.g. ``linalg.expm``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class _View:
    """A module as one caller sees it: the module's attributes, some replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Installs span-recording wrappers while used as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        for module_name, names in LOOKUPS.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                self._patch(module, name, self.wrap(fn, span_name(fn)))
        for module_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            fn = getattr(cls, meth)
            self._patch(cls, meth, self.wrap(fn, span_name(fn)))
        # diffusion calls scipy.linalg.lu_solve through its own ``scipy`` name.
        diffusion = importlib.import_module("smefilter.diffusion")
        lu_solve = self.wrap(scipy.linalg.lu_solve, "diffusion.lu_solve")
        self._patch(diffusion, "scipy", _View(diffusion.scipy, linalg=_View(scipy.linalg, lu_solve=lu_solve)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def summarize(spans) -> tuple[Counter, dict, dict]:
    """Calls and inclusive seconds per span name, and self seconds per layer.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: Counter = Counter()
    total: dict = defaultdict(float)
    self_s: dict = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name.split(".", 1)[0]] += end - start - child[i]
    return calls, total, self_s

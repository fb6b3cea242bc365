"""Per-layer spans and counts for one rtdeph CLI call, taken from outside.

``Tracer.install`` wraps each layer's public function listed in
``TARGETS``.  A wrapper replaces the function wherever a caller looks it up:
in its defining module and in every rtdeph module that imported it by name
(``rtdeph.cli.estimate_autocorrelation``, ``rtdeph.analytic
.entanglement_of_formation``, ...).  Spans stay in memory; ``summary``
turns them into per-layer busy time (``.s``), self time (``.self_s``),
call counts and the work counters of ``COUNTERS``.

Self time attributes every instant of the root span to the innermost spans
open at that instant, split evenly when several run at once (the dwell
kernel runs on a thread pool).  The self times of all spans therefore add
up to the root span's duration; the root's own share is the time no layer
accounts for.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import threading
import time

import numpy as np

ROOT_SPAN = "trace.root"

#: (module, function, layer name).  The four cmd_* functions turn results
#: into CSV/JSON text, so their self time is the CLI's formatting cost.
TARGETS = (
    ("rtdeph.noise", "sample_batch", "noise.sample_batch"),
    ("rtdeph.noise", "estimate_autocorrelation", "noise.estimate_autocorrelation"),
    ("rtdeph._kernels", "dwell_times", "kernels.dwell_times"),
    ("rtdeph._kernels", "levels_at_times", "kernels.levels_at_times"),
    ("rtdeph.engine", "run_ensemble", "engine.run_ensemble"),
    ("rtdeph.engine", "recovery_report", "engine.recovery_report"),
    ("rtdeph.states", "binary_entropy", "states.binary_entropy"),
    ("rtdeph.states", "concurrence", "states.concurrence"),
    ("rtdeph.states", "entanglement_of_formation", "states.entanglement_of_formation"),
    ("rtdeph.analytic", "coherence_factor", "analytic.coherence_factor"),
    ("rtdeph.cli", "build_compare_report", "cli.build_compare_report"),
    ("rtdeph.cli", "cmd_figure1", "cli.format"),
    ("rtdeph.cli", "cmd_compare", "cli.format"),
    ("rtdeph.cli", "cmd_recovery", "cli.format"),
    ("rtdeph.cli", "cmd_autocorr", "cli.format"),
    ("rtdeph.cli", "_write_artifact", "cli._write_artifact"),
)

LAYERS = tuple(sorted({layer for _, _, layer in TARGETS}))


def _count_sample_batch(counts, args, kwargs, batch):
    n, k = batch.switch_times.shape
    counts["noise.trajectories"] += n
    counts["noise.switches"] += int(batch.counts.sum())
    counts["noise.padded_values"] += n * k


def _count_dwell(counts, args, kwargs, out):
    counts["kernels.dwell_times.values"] += out.size
    inputs = [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]
    counts["kernels.dwell_times.bytes"] += out.nbytes + sum(a.nbytes for a in inputs)


def _count_entropy(counts, args, kwargs, out):
    counts["states.binary_entropy.values"] += int(np.size(out))


def _count_artifact(counts, args, kwargs, out):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["cli.artifact_bytes"] += len(text.encode("utf-8"))


#: Work counters per layer, computed from the arguments and the result.
COUNTERS = {
    "noise.sample_batch": _count_sample_batch,
    "kernels.dwell_times": _count_dwell,
    "states.binary_entropy": _count_entropy,
    "cli._write_artifact": _count_artifact,
}


class Tracer:
    """Spans ``[layer, parent index, start, end]`` and counters of one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = collections.defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, layer, fn, args, kwargs):
        stack = self._stack()
        # a pool thread's first span belongs to the span that submitted it,
        # which is the one open on the main thread
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append([layer, parent, 0.0, 0.0])
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index][2:] = [start, end]
        counter = COUNTERS.get(layer)
        if counter is not None:
            with self._lock:
                counter(self.counts, args, kwargs, result)
        return result

    def install(self) -> None:
        """Replace every target with a timing wrapper wherever rtdeph refers to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "rtdeph" or name.startswith("rtdeph.")]
        for module_name, attr, layer in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, args, kwargs)
        return wrapper

    def root(self, fn, *args):
        """Run ``fn(*args)`` as the root span."""
        return self.call(ROOT_SPAN, fn, args, {})

    def summary(self) -> dict[str, float]:
        """Additive totals: per-layer ``.s``, ``.self_s`` and ``.calls``, the
        counters, ``trace.wall_s`` and ``trace.unattributed_s``."""
        self_time = _attribute(self.spans)
        out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("s", "self_s", "calls")}
        out.update(self.counts)
        for (layer, _, start, end), own in zip(self.spans, self_time):
            if layer == ROOT_SPAN:
                out["trace.wall_s"] = out.get("trace.wall_s", 0.0) + (end - start)
                out["trace.unattributed_s"] = out.get("trace.unattributed_s", 0.0) + own
                continue
            out[f"{layer}.s"] += end - start
            out[f"{layer}.self_s"] += own
            out[f"{layer}.calls"] += 1
        return out


def _attribute(spans) -> list[float]:
    """Self time per span: each instant goes to the innermost open spans."""
    events = []
    for i, (_, _, start, end) in enumerate(spans):
        # at equal times, starts come first, parents open before children
        # and children close before parents
        events.append((start, 0, i))
        events.append((end, 1, -i))
    events.sort()
    self_time = [0.0] * len(spans)
    open_children = [0] * len(spans)
    is_open = [False] * len(spans)
    innermost: set[int] = set()
    previous = None
    for t, kind, key in events:
        if innermost:
            share = (t - previous) / len(innermost)
            for i in innermost:
                self_time[i] += share
        previous = t
        i = key if kind == 0 else -key
        parent = spans[i][1]
        if kind == 0:
            is_open[i] = True
            innermost.add(i)
            if parent is not None:
                open_children[parent] += 1
                innermost.discard(parent)
        else:
            is_open[i] = False
            innermost.discard(i)
            if parent is not None:
                open_children[parent] -= 1
                if open_children[parent] == 0 and is_open[parent]:
                    innermost.add(parent)
    return self_time


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from totals summed over a round's CLI calls."""
    metrics = dict(totals)
    trajectories = totals.get("noise.trajectories", 0.0)
    switches = totals.get("noise.switches", 0.0)
    padded = totals.get("noise.padded_values", 0.0)
    metrics["noise.trajectories"] = trajectories
    metrics["noise.switches_mean"] = switches / trajectories if trajectories else 0.0
    metrics["noise.padded_width"] = padded / trajectories if trajectories else 0.0
    metrics["noise.fill_ratio"] = switches / padded if padded else 0.0
    for name in ("kernels.dwell_times.values", "kernels.dwell_times.bytes",
                 "states.binary_entropy.values", "cli.artifact_bytes"):
        metrics.setdefault(name, 0.0)
    return metrics

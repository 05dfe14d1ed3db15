"""Layer spans recorded from outside the package.

:func:`install` replaces the public entry points of each layer of
``repro`` with thin wrappers that record one span per call (layer name,
start, end, parent span, thread).  Nothing inside ``src/`` changes: the
wrappers are installed on the module and class attributes the package
itself looks up at call time.  Spans stay in memory; :meth:`Tracer.layers`
folds them into per-layer self and inclusive times when a repetition
ends.

A layer's *self* time is its spans' durations minus the part covered by
child spans of other layers; its *inclusive* time counts only its
outermost spans, so nested calls of one layer are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict

#: (module, attribute path, layer) — the calls each layer is timed on.
TARGETS = (
    ("repro.sim.vectorized", "VectorizedLotSimulator.__init__", "farm"),
    ("repro.sim.vectorized", "VectorizedLotSimulator.run", "farm"),
    ("repro.sim.closed_form", "ClosedFormLotSimulator.__init__", "farm"),
    ("repro.pll.lot", "premeasure_lot", "lot"),
    ("repro.core.sequencer", "ToneTestSequencer.run", "sequencer.run"),
    ("repro.core.sequencer", "ToneTestSequencer.measure_nominal_frequency",
     "sequencer.nominal"),
    ("repro.core.executor", "SerialSweepExecutor.run_tones",
     "executor.serial"),
    ("repro.core.executor", "ProcessPoolSweepExecutor.run_tones",
     "executor.pool"),
    ("repro.core.warm", "LockStateCache.save", "warm.spill"),
    ("repro.core.warm", "LockStateCache.merge", "warm.merge"),
    ("repro.core.monitor", "TransferFunctionMonitor.run", "monitor.run"),
    ("repro.core.monitor", "TransferFunctionMonitor.evaluate_outcomes",
     "monitor.evaluate"),
    ("repro.reporting.device_report", "batch_device_reports",
     "reporting.batch"),
    ("repro.reporting.device_report", "batch_device_screen",
     "reporting.batch"),
    ("repro.reporting.device_report", "device_report", "reporting.render"),
    # Names the package imported into other modules before install().
    ("repro.service.service", "device_report", "reporting.render"),
    ("repro.pll.population.engine", "batch_device_screen",
     "reporting.batch"),
    ("repro.pll.population.engine", "sample_die", "population.sample"),
    ("repro.pll.population.engine", "screen_population",
     "population.screen"),
    ("repro.pll.population.aggregate", "PopulationAggregate.update",
     "population.aggregate"),
)


class Tracer:
    """In-memory span recorder plus the counters the wrappers collect."""

    def __init__(self) -> None:
        self.spans = []  # [layer, start, end, parent index, thread id]
        self.counts = defaultdict(float)
        self.caches = []  # every LockStateCache / ToneMeasurementCache
        self._local = threading.local()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def wrap(self, layer, fn, after=None):
        """``fn`` recorded as a ``layer`` span; ``after`` sees the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            record = [layer, time.perf_counter(), None,
                      stack[-1] if stack else None, threading.get_ident()]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                with self._lock:
                    after(self, args, result, record[2] - record[1])
            return result

        return traced

    def layers(self):
        """``{layer: (self_s, inclusive_s, calls)}`` over finished spans."""
        done = [(i, s) for i, s in enumerate(self.spans) if s[2] is not None]
        child_time = defaultdict(float)
        for __, s in done:
            if s[3] is not None:
                child_time[s[3]] += s[2] - s[1]
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, s in done:
            duration = s[2] - s[1]
            entry = out[s[0]]
            entry[0] += duration - child_time[i]
            entry[2] += 1
            parent = s[3]
            if parent is None or self.spans[parent][0] != s[0]:
                entry[1] += duration
        return {k: tuple(v) for k, v in out.items()}

    def covered_s(self, intervals=None):
        """Time covered by top-level spans, optionally only those that
        start inside one of ``intervals`` (``(start, end)`` pairs on the
        ``time.perf_counter`` clock)."""
        return sum(
            s[2] - s[1] for s in self.spans
            if s[2] is not None and s[3] is None
            and (intervals is None
                 or any(a <= s[1] <= b for a, b in intervals))
        )


def _after_premeasure(tracer, args, stats, duration):
    c = tracer.counts
    c["lot.tones"] += stats.tones
    c["lot.skipped"] += stats.skipped
    c["lot.cached"] += stats.cached
    c["lot.lanes_unique"] += stats.unique
    for field in ("closed_form_lanes", "vector", "drained", "ejected",
                  "scalar", "tones_vectorized", "measured",
                  "measure_ejected", "measure_failed", "settle_s",
                  "monitor_s", "measure_s"):
        c["farm." + field] += getattr(stats, field)


def _after_pool(tracer, args, outcomes, duration):
    executor, frequencies = args[0], args[4]
    width = max(1, min(executor.n_workers, len(frequencies)))
    c = tracer.counts
    tone_s = 0.0
    for outcome in outcomes:
        timing = getattr(outcome.measurement, "timing", None)
        if timing is None:
            continue
        tone_s += timing.total_s
        c["pool.tones_timed"] += 1
        c["pool.tones_warm"] += int(timing.warm)
    c["executor.pool_tones"] += len(outcomes)
    c["pool.tone_s"] += tone_s
    c["executor.pool_overhead_s"] += duration - tone_s / width


def _after_spill(tracer, args, entries, duration):
    try:
        tracer.counts["warm.spill_bytes"] += os.path.getsize(args[1])
    except OSError:
        pass


def _after_population(tracer, args, result, duration):
    tracer.counts["population.chunks"] += result[1].n_chunks


_AFTER = {
    "premeasure_lot": _after_premeasure,
    "ProcessPoolSweepExecutor.run_tones": _after_pool,
    "LockStateCache.save": _after_spill,
    "screen_population": _after_population,
}


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install() -> Tracer:
    """Wrap every target in :data:`TARGETS`; returns the live tracer."""
    tracer = Tracer()
    for module_name, attr, layer in TARGETS:
        owner, name = _resolve(module_name, attr)
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        setattr(owner, name, tracer.wrap(layer, original, _AFTER.get(attr)))

    from repro.core.warm import LockStateCache, ToneMeasurementCache

    # Cache instances are remembered so their own hit/miss counters can
    # be summed when the repetition ends.
    for cls in (LockStateCache, ToneMeasurementCache):
        init = cls.__init__

        def remember(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            tracer.caches.append(self)

        cls.__init__ = functools.wraps(init)(remember)
    return tracer


def cache_counts(tracer) -> dict:
    """Summed counters of every cache the repetition created."""
    from repro.core.warm import LockStateCache

    out = defaultdict(int)
    for cache in tracer.caches:
        prefix = "lock" if isinstance(cache, LockStateCache) else "measure"
        for key in ("hits", "misses", "evictions"):
            out[f"{prefix}.{key}"] += cache.stats_detail[key]
    return dict(out)


def layer_record(tracer) -> dict:
    """JSON-able digest of one traced repetition (spans folded)."""
    from repro.core.sequencer import nominal_frequency_memo_stats

    memo = nominal_frequency_memo_stats()
    return {
        "layers": {k: list(v) for k, v in tracer.layers().items()},
        "counts": dict(tracer.counts),
        "caches": cache_counts(tracer),
        "memo": {"hits": memo.hits, "misses": memo.misses},
    }

"""Lot-level planning for the ``auto`` engine's settle farm.

:func:`premeasure_lot` is the bridge between the batch-screening /
sweep layers and the settle farm
(:class:`~repro.sim.vectorized.VectorizedLotSimulator`).  Given the
(device, stimulus, config, tones) jobs of a lot, it:

1. keys each tone exactly the way the monitor does
   (:func:`~repro.core.sequencer.measurement_cache_key`), so a
   published entry is indistinguishable from one the monitor wrote
   itself;
2. deduplicates: behaviourally identical dies (equal physics
   signatures) collapse to one *lane* per unique key, which is where
   an 8-identical-die lot turns 104 tones into 13 lanes, and a tone
   the cache already holds runs no lane at all;
3. runs the unique lanes through Table 2 stages 0–4 on the farm's
   per-lane kernel and publishes each outcome in the
   :class:`~repro.core.warm.ToneMeasurementCache` the orchestrating
   sweep's monitor consults: the finished measurement, or the
   :class:`~repro.errors.MeasurementError` text the scalar sequencer
   raises for that tone.

Nothing else is published.  A lane the farm cannot represent runs
nothing here, and a lane the kernel ejects mid-measurement publishes
nothing: the orchestrating sweep settles and measures that tone itself
on the scalar engine, so correctness never depends on the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.core.sequencer import measurement_cache_key
from repro.core.warm import ToneMeasurementCache
from repro.sim.vectorized import (
    MeasureSpec,
    SettleLane,
    VectorizedLotSimulator,
)

__all__ = ["LotPresettleStats", "premeasure_lot"]

#: One lot job: (pll, stimulus, config, modulation frequencies).
LotJob = Tuple[object, object, object, Sequence[float]]


@dataclass
class LotPresettleStats:
    """What the farm pass did, for logs and benchmarks."""

    tones: int = 0        # (device, tone) pairs considered
    unique: int = 0       # lanes actually run (after dedup)
    cached: int = 0       # tones already in the measurement cache
    skipped: int = 0      # uncacheable tones left to the scalar sweep
    # ``closed_form_lanes`` and ``drained`` name tiers the farm no
    # longer has and always read 0; perfbench's tracer still reads them.
    closed_form_lanes: int = 0
    vector: int = 0       # lanes settled on the farm's kernel
    drained: int = 0
    ejected: int = 0      # left the kernel mid-settle, scalar finish
    scalar: int = 0       # unsupported lanes, left to the sweep
    failed: int = 0       # settle raised; lane left to the sweep
    tones_vectorized: int = 0  # lanes that settled on the kernel
    hct4046_lanes: int = 0     # lanes with a recognised nonlinear VCO law
    measured: int = 0          # stage 1-4 measurements finished in-farm
    measure_ejected: int = 0   # measurement lanes left to the sweep
    measure_failed: int = 0    # MeasurementError raised (and published)
    settle_s: float = 0.0      # farm wall time in stage 0
    monitor_s: float = 0.0     # farm wall time in stages 1-2 (arm/watch)
    measure_s: float = 0.0     # farm wall time in stages 3-4 (hold/count)

    def summary(self) -> str:
        text = (
            f"presettle: {self.tones} tones -> {self.unique} unique lanes "
            f"({self.cached} already warm, {self.skipped} uncacheable); "
            f"{self.vector} vector / {self.ejected} ejected / "
            f"{self.scalar} scalar; "
            f"{self.tones_vectorized} tones vectorized, "
            f"{self.hct4046_lanes} nonlinear lanes"
            + (f"; {self.failed} failed" if self.failed else "")
        )
        if self.measured or self.measure_ejected or self.measure_failed:
            text += (
                f" | premeasure: {self.measured} measured in-farm, "
                f"{self.measure_ejected} ejected"
                + (f", {self.measure_failed} failed"
                   if self.measure_failed else "")
            )
        return text


def premeasure_lot(
    jobs: Iterable[LotJob],
    measurement_cache: ToneMeasurementCache,
) -> LotPresettleStats:
    """Measure a lot's unique tones on the farm into ``measurement_cache``.

    Only tones :func:`~repro.core.sequencer.measurement_cache_key` keys
    run — the monitor's own dedup rule — so everything else simply runs
    on the scalar engine inside its sweep.  Every lane is carried
    through stages 0–4 and its outcome published: the finished
    :class:`~repro.core.sequencer.ToneMeasurement`, or the in-farm
    :class:`~repro.errors.MeasurementError` text, which the monitor
    answers as a failed tone.  Lanes the farm cannot represent or
    ejects mid-measurement publish nothing.

    A tone whose stimulus cannot even build its edge source is skipped:
    the device's own sweep raises (and a batch screen stubs) exactly
    that error, so one bad device never aborts the lot's farm.  The
    digest is returned and left on ``measurement_cache.presettle_stats``.
    """
    stats = LotPresettleStats()
    lanes = []
    keys = []
    seen = set()
    for pll, stimulus, config, freqs in jobs:
        freqs = [float(f) for f in freqs]
        stats.tones += len(freqs)
        try:
            config.validate_against_pfd(pll.pfd_reset_delay)
        except Exception:  # noqa: BLE001 - the sweep raises this itself
            stats.skipped += len(freqs)
            continue
        for f_mod in freqs:
            key = measurement_cache_key(pll, stimulus, config, f_mod)
            if key is None:
                stats.skipped += 1
                continue
            if key in seen:
                continue
            seen.add(key)
            if key in measurement_cache:
                stats.cached += 1
                continue
            try:
                stimulus.make_source(f_mod, 0.0)
            except Exception:  # noqa: BLE001 - the sweep raises this itself
                stats.skipped += 1
                continue
            lanes.append(SettleLane(
                pll=pll,
                stimulus=stimulus,
                f_mod=f_mod,
                settle_end=config.settle_cycles / f_mod,
                measure=MeasureSpec(config=config),
            ))
            keys.append(key)
    stats.unique = len(lanes)
    measurement_cache.presettle_stats = stats
    if not lanes:
        return stats
    farm = VectorizedLotSimulator(lanes)
    for key, result in zip(keys, farm.run()):
        if result.error is not None:
            stats.failed += 1
        if result.mode == "vector":
            stats.vector += 1
            stats.tones_vectorized += 1
        elif result.mode == "ejected":
            stats.ejected += 1
        else:
            stats.scalar += 1
        if result.nonlinear:
            stats.hct4046_lanes += 1
        if result.measurement is not None:
            measurement_cache.put(key, result.measurement)
    stats.measured = farm.stats["measured"]
    stats.measure_ejected = farm.stats["measure_ejected"]
    stats.measure_failed = farm.stats["measure_failed"]
    stats.settle_s = farm.wall_settle_s
    stats.monitor_s = farm.wall_monitor_s
    stats.measure_s = farm.wall_measure_s
    return stats

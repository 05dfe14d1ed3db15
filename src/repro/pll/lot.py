"""Lot-level settle planning for the vectorized engine.

:func:`premeasure_lot` is the bridge between the batch-screening /
sweep layers and the settle farm
(:class:`~repro.sim.vectorized.VectorizedLotSimulator`).  Given the
(device, stimulus, config, tones) jobs of a lot, it:

1. computes each tone's settle-cache key exactly the way
   :class:`~repro.core.sequencer.ToneTestSequencer` does — so a
   presettled entry is indistinguishable from one the sequencer wrote
   itself;
2. deduplicates: behaviourally identical dies (equal physics
   signatures) collapse to one *lane* per unique key, which is where
   an 8-identical-die lot turns 104 settles into 13;
3. runs the unique lanes through the farm's per-lane kernel
   (unsupported lanes settle on the scalar engine instead —
   correctness never depends on the fast path) and stores the
   resulting snapshots in ``cache``.

The orchestrating sweep then runs exactly as before: every stage-0
lookup hits warm, and stages 1–4 (counters, peak detection, eq. 7–8)
stay on the scalar engine whose results the snapshot guarantee makes
bit-identical to a cold run.  A lane whose settle *fails* is simply
left cold — the sweep reproduces the identical error itself, so
failure semantics do not change either.

Given a :class:`~repro.core.warm.ToneMeasurementCache` as well, it
extends the same plan past the settle barrier: it attaches a
:class:`~repro.sim.vectorized.MeasureSpec` to every lane whose
finished measurement is dedupable, so the farm carries each lane
through stages 1–4 (arm, peak watch, hold-and-count) on its per-lane
kernel and publishes the outcome in the cache the orchestrating
sweep's executor already consults: the finished measurement, or the
:class:`~repro.errors.MeasurementError` text the scalar sequencer
raises for that tone.  Lanes the kernel ejects are left out of the
cache — the sweep measures them from the settled snapshot, so
correctness never depends on the fast path here either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.core.executor import _measurement_cache_key
from repro.core.sequencer import ToneTestSequencer
from repro.core.warm import LockStateCache, ToneMeasurementCache
from repro.engines import FARM_ENGINES, validate_engine
from repro.pll.simulator import RecordLevel
from repro.sim.closed_form import ClosedFormLotSimulator
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
    """What the presettle pass did, for logs and benchmarks."""

    tones: int = 0        # (device, tone) pairs considered
    unique: int = 0       # lanes actually settled (after dedup)
    cached: int = 0       # keys already present in the cache
    skipped: int = 0      # uncacheable tones left to the scalar sweep
    # ``closed_form_lanes`` and ``drained`` name tiers the farm no
    # longer has and always read 0; perfbench's tracer still reads them.
    closed_form_lanes: int = 0
    vector: int = 0       # lanes completed on the farm's kernel
    drained: int = 0
    ejected: int = 0      # left the fast path mid-flight, scalar finish
    scalar: int = 0       # unsupported lanes, full scalar settle
    failed: int = 0       # settle raised; lane left cold
    tones_vectorized: int = 0  # lanes that finished on the kernel
    hct4046_lanes: int = 0     # lanes with a recognised nonlinear VCO law
    measured: int = 0          # stage 1-4 measurements finished in-farm
    measure_ejected: int = 0   # measurement lanes handed back to scalar
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
    cache: LockStateCache,
    measurement_cache: Optional[ToneMeasurementCache] = None,
    *,
    record: Union[RecordLevel, str] = RecordLevel.COUNTERS,
    engine: str = "vectorized",
) -> LotPresettleStats:
    """Warm ``cache`` (and optionally ``measurement_cache``) for a lot.

    ``record`` must match the record level the orchestrating sweep's
    sequencers use (the cache key includes it); the monitor default is
    ``"counters"``.  Only the reproducible stage-0 configuration is
    presettled — fixed settle from the nominal lock point with at least
    one PFD compare cycle between settle end and arm
    (``8·f_mod ≤ f_ref``) — mirroring the sequencer's own cacheability
    rule, so everything else simply runs cold as it does today.

    With ``measurement_cache`` given, every lane whose finished
    measurement is dedupable (the executor's measurement-cache rule)
    also carries a :class:`~repro.sim.vectorized.MeasureSpec`, so the
    farm continues through stages 1–4 and publishes each outcome in
    the cache: the finished
    :class:`~repro.core.sequencer.ToneMeasurement`, or the in-farm
    :class:`~repro.errors.MeasurementError` text, which the executor
    answers as a failed tone.  Already-settled lanes re-enter the farm
    from their cached snapshot (mode ``"warm"``) for stages 1–4 alone.
    Lanes the kernel ejects mid-measurement are left out of the
    measurement cache, so the orchestrating sweep measures them from
    the settled snapshot.  Without ``measurement_cache`` only the
    settle runs.

    ``engine`` names the farm: ``"vectorized"`` (default),
    ``"closed_form"`` and ``"auto"`` all settle every supported lane on
    the same per-lane kernel, so at this level they are one farm.
    """
    validate_engine(engine, FARM_ENGINES)
    record = RecordLevel.coerce(record)
    stats = LotPresettleStats()
    lanes = []
    keys = []
    mkeys = []
    seen = set()
    for pll, stimulus, config, freqs in jobs:
        freqs = [float(f) for f in freqs]
        try:
            sequencer = ToneTestSequencer(pll, stimulus, config,
                                          record=record)
        except Exception:  # noqa: BLE001 - the sweep raises this itself
            stats.tones += len(freqs)
            stats.skipped += len(freqs)
            continue
        for f_mod in freqs:
            stats.tones += 1
            if not (f_mod > 0.0 and 8.0 * f_mod <= pll.f_ref):
                stats.skipped += 1
                continue
            try:
                key = sequencer._settle_cache_key(f_mod)
            except Exception:  # noqa: BLE001 - exotic stimulus: run cold
                stats.skipped += 1
                continue
            if key in seen:
                continue
            seen.add(key)
            spec = None
            mkey = None
            if measurement_cache is not None:
                mkey = _measurement_cache_key(pll, stimulus, config,
                                              f_mod)
                if mkey is not None and mkey in measurement_cache:
                    mkey = None
                if mkey is not None:
                    spec = MeasureSpec(config=config,
                                       arm_index=config.settle_cycles)
            snap = cache.peek(key)
            if snap is not None and spec is None:
                stats.cached += 1
                continue
            lanes.append(SettleLane(
                pll=pll,
                stimulus=stimulus,
                f_mod=f_mod,
                settle_end=config.settle_cycles / f_mod,
                record=record,
                measure=spec,
                presettled=snap,
            ))
            keys.append(key)
            mkeys.append(mkey)
    stats.unique = len(lanes)
    if not lanes:
        cache.presettle_stats = stats
        return stats
    if engine == "vectorized":
        farm = VectorizedLotSimulator(lanes)
    else:
        farm = ClosedFormLotSimulator(lanes)
    for key, mkey, result in zip(keys, mkeys, farm.run()):
        if result.mode == "warm":
            # Re-entered from the settle cache for measurement only;
            # the snapshot it carries is the one already stored.
            stats.cached += 1
        else:
            if result.snapshot is not None:
                cache.put(key, result.snapshot)
            else:
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
        if (mkey is not None and measurement_cache is not None
                and result.measurement is not None):
            measurement_cache.put(mkey, result.measurement)
    farm_stats = getattr(farm, "stats", {})
    stats.measured = int(farm_stats.get("measured", 0))
    stats.measure_ejected = int(farm_stats.get("measure_ejected", 0))
    stats.measure_failed = int(farm_stats.get("measure_failed", 0))
    stats.settle_s = float(getattr(farm, "wall_settle_s", 0.0))
    stats.monitor_s = float(getattr(farm, "wall_monitor_s", 0.0))
    stats.measure_s = float(getattr(farm, "wall_measure_s", 0.0))
    # Leave the digest on the cache so callers that only see the cache
    # (the CLI lot command, the benches) can surface what the farm did.
    cache.presettle_stats = stats
    return stats


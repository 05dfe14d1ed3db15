"""Streaming population screen: bounded memory at any population size.

:func:`screen_population` drives a :class:`~.samplers.PopulationSpec`'s
die stream through :func:`~repro.reporting.device_report.batch_device_screen`
in chunks, folding every outcome into a
:class:`~.aggregate.PopulationAggregate` and (optionally) appending one
JSONL record per die — then discarding the chunk.  Nothing scales with
the population: the warm :class:`~repro.core.warm.LockStateCache` is
LRU-bounded, outcomes live only for their chunk, and the aggregate is
O(sketch bins).

**Chunk sizing** follows the warm-cache dedup structure: each die's
sweep settles ``points`` tone lanes, so the default chunk holds as many
dies as keep one chunk's settle lanes inside the cache capacity
(same-physics families — duplicate sampled dies, repeated faults on one
base die — then land in the same chunk and actually share their settled
states instead of being evicted between chunks).

**Determinism**: sampling is index-addressed, chunks group dies by
physics signature only for execution (outcomes are re-ordered back to
die-index order before aggregation), and warm/cold measurement paths
are bit-identical by the snapshot guarantee — so the aggregate summary
is byte-identical across runs *and* across chunk sizes.

**Workers**: under ``n_workers > 1`` the warm cache stays in this
process.  Each pool worker receives only its share of the chunk's
finished tones and screens on a fresh local lock-state cache; nothing
travels back, so :attr:`PopulationScreenStats.cache_entries` counts
only what the farm pass settled here (0 on the scalar engine).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, IO, Optional, Tuple, Union

from repro.core.warm import LockStateCache
from repro.engines import validate_engine
from repro.errors import ConfigurationError
from repro.reporting.device_report import (
    DeviceReportRequest,
    batch_device_screen,
)

from .aggregate import PopulationAggregate
from .samplers import PopulationSpec, SampledDie, get_corner, sample_die

__all__ = [
    "ChunkProgress",
    "PopulationScreenStats",
    "resolve_chunk_size",
    "screen_population",
]


@dataclass(frozen=True)
class ChunkProgress:
    """Live digest handed to the progress callback after each chunk."""

    chunk_index: int
    n_chunks: int
    dies_done: int
    dies_total: int
    wall_s: float
    passed: int
    errors: int

    @property
    def yield_so_far(self) -> Optional[float]:
        return None if self.dies_done == 0 else self.passed / self.dies_done

    @property
    def dies_per_s(self) -> Optional[float]:
        return None if self.wall_s <= 0.0 else self.dies_done / self.wall_s


@dataclass(frozen=True)
class PopulationScreenStats:
    """Wall-clock/caching observability for one screen run.

    Kept apart from the :class:`PopulationAggregate` summary on purpose:
    the summary is the deterministic byte-identity artefact, the stats
    are wall-clock-dependent.
    """

    dies: int
    wall_s: float
    dies_per_s: float
    chunk_size: int
    n_chunks: int
    engine: str
    n_workers: int
    cache_entries: int
    # Aggregate farm wall split (stage 0 / stages 1-2 / stages 3-4)
    # summed over every chunk's premeasure pass; all zero on the
    # scalar engine, where no farm runs.
    settle_s: float = 0.0
    monitor_s: float = 0.0
    measure_s: float = 0.0
    measured: int = 0
    measure_ejected: int = 0
    measure_failed: int = 0


def resolve_chunk_size(
    spec: PopulationSpec,
    cache_capacity: int,
    n_workers: int = 1,
) -> int:
    """Chunk size from the warm-cache dedup structure.

    One die's sweep creates ``points`` tone-settle lanes (no screen
    path settles a nominal-lock baseline); the chunk is sized so a
    whole chunk's lanes fit the cache without evicting each other
    (bounded at 256 dies so a huge cache cannot make chunks — and their
    peak outcome memory — unbounded), then rounded up to give every
    pool worker at least one die.
    """
    fit = max(1, cache_capacity // spec.points)
    size = max(8, min(fit, 256))
    size = max(size, n_workers)
    return min(size, spec.size)


def _family_key(die: SampledDie) -> str:
    """Stable intra-chunk grouping key: same physics sorts together."""
    try:
        return repr(die.pll.physics_signature())
    except Exception:  # noqa: BLE001 - exotic device: group by name
        return f"~name:{die.pll.name}"


def screen_population(
    spec: PopulationSpec,
    *,
    chunk_size: Optional[int] = None,
    n_workers: int = 1,
    engine: str = "auto",
    cache: Optional[LockStateCache] = None,
    jsonl: Optional[Union[str, IO[str]]] = None,
    progress: Optional[Callable[[ChunkProgress], None]] = None,
) -> Tuple[PopulationAggregate, PopulationScreenStats]:
    """Screen a whole sampled population in bounded-memory chunks.

    Parameters
    ----------
    spec:
        The population to draw and screen.
    chunk_size:
        Dies per streamed chunk; default from
        :func:`resolve_chunk_size`.  The aggregate summary is
        byte-identical for any choice.
    n_workers / engine:
        Forwarded to :func:`~repro.reporting.device_report.batch_device_screen`
        per chunk — a pool fans each chunk out, shipping every worker
        the finished tones of its own dies' physics families;
        ``engine`` selects the settle engine (``"auto"`` settles and
        measures each chunk's lanes on the farm's per-lane kernel).
    cache:
        Warm :class:`~repro.core.warm.LockStateCache` shared across
        chunks (created with a 4096-entry LRU bound when omitted — the
        memory model relies on the bound, not on the population size).
    jsonl:
        Path or open text handle; one JSON record per die is appended
        as it is screened (streaming export, nothing retained).
    progress:
        Callback invoked with a :class:`ChunkProgress` after each chunk.

    Returns the ``(aggregate, stats)`` pair: the deterministic summary
    state and the wall-clock observability record.
    """
    validate_engine(engine)
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers!r}")
    corner = get_corner(spec.corner)
    if cache is None:
        cache = LockStateCache(max_entries=4096)
    size = (
        resolve_chunk_size(spec, cache.max_entries, n_workers)
        if chunk_size is None else chunk_size
    )
    if size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {size!r}")

    stimulus = corner.stimulus()
    config = corner.config()
    plan = corner.plan(spec.points)
    limits = corner.limits(spec.rel_tol, spec.peak_tol_db)
    aggregate = PopulationAggregate.for_golden(corner.golden())

    own_handle = isinstance(jsonl, str)
    sink: Optional[IO[str]] = open(jsonl, "w") if own_handle else jsonl

    n_chunks = (spec.size + size - 1) // size
    farm_settle_s = farm_monitor_s = farm_measure_s = 0.0
    farm_measured = farm_measure_ejected = farm_measure_failed = 0
    t0 = time.perf_counter()
    try:
        for chunk_index in range(n_chunks):
            start = chunk_index * size
            stop = min(start + size, spec.size)
            dies = [sample_die(spec, i) for i in range(start, stop)]
            # Group same-physics families adjacently for execution (the
            # measurement dedup and warm cache then fire within the
            # chunk), but aggregate strictly in die-index order so the
            # summary never depends on the grouping.
            order = sorted(range(len(dies)), key=lambda j: _family_key(dies[j]))
            requests = [
                DeviceReportRequest(
                    pll=dies[j].pll, stimulus=stimulus, plan=plan,
                    config=config, limits=limits,
                )
                for j in order
            ]
            grouped = batch_device_screen(
                requests, n_workers=n_workers, cache=cache, engine=engine
            )
            chunk_presettle = getattr(cache, "presettle_stats", None)
            if chunk_presettle is not None:
                farm_settle_s += chunk_presettle.settle_s
                farm_monitor_s += chunk_presettle.monitor_s
                farm_measure_s += chunk_presettle.measure_s
                farm_measured += chunk_presettle.measured
                farm_measure_ejected += chunk_presettle.measure_ejected
                farm_measure_failed += chunk_presettle.measure_failed
                # One digest per chunk: don't double-count on the next
                # chunk if the farm has nothing left to run there.
                cache.presettle_stats = None
            outcomes = [None] * len(dies)
            for position, j in enumerate(order):
                outcomes[j] = grouped[position]
            for die, outcome in zip(dies, outcomes):
                aggregate.update(die.fault, outcome)
                if sink is not None:
                    sink.write(json.dumps({
                        "index": die.index,
                        "name": outcome.name,
                        "fault": die.fault,
                        "passed": outcome.passed,
                        "error": outcome.error,
                        "fn_hz": outcome.fn_hz,
                        "zeta": outcome.zeta,
                        "f3db_hz": outcome.f3db_hz,
                        "peak_db": outcome.peak_db,
                        "failed_tones": outcome.failed_tones,
                    }, sort_keys=True) + "\n")
            if progress is not None:
                progress(ChunkProgress(
                    chunk_index=chunk_index,
                    n_chunks=n_chunks,
                    dies_done=stop,
                    dies_total=spec.size,
                    wall_s=time.perf_counter() - t0,
                    passed=aggregate.counts.passed,
                    errors=aggregate.counts.errors,
                ))
    finally:
        if own_handle and sink is not None:
            sink.close()

    wall = time.perf_counter() - t0
    stats = PopulationScreenStats(
        dies=spec.size,
        wall_s=wall,
        dies_per_s=spec.size / wall if wall > 0.0 else float("inf"),
        chunk_size=size,
        n_chunks=n_chunks,
        engine=engine,
        n_workers=n_workers,
        cache_entries=len(cache),
        settle_s=farm_settle_s,
        monitor_s=farm_monitor_s,
        measure_s=farm_measure_s,
        measured=farm_measured,
        measure_ejected=farm_measure_ejected,
        measure_failed=farm_measure_failed,
    )
    return aggregate, stats

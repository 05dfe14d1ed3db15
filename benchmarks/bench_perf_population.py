"""Performance — population-scale yield screening (streaming Monte-Carlo).

Not a paper figure: this guards the ``repro.pll.population`` subsystem.
A seeded 96-die population on the time-scaled 180 nm CDR corner (5 %
component sigma, 10 % fault incidence) is streamed through
:func:`~repro.pll.population.screen_population` in warm-cache-sized
chunks.  The bench records throughput, yield and fault coverage into
``BENCH_sweep.json`` under ``population_*`` keys and asserts the
streaming memory model twice over:

* the 96-die run samples ``VmRSS`` after every chunk and asserts a
  plateau (process memory is bounded by the cache caps, not the
  population), and
* a small dedicated run under ``tracemalloc`` — against a warm cache
  deliberately capped below one run's lane count, so the LRU bound is
  actually exercised — asserts the traced Python heap plateaus too.
  (tracemalloc costs ~25x on this allocation-heavy simulator, which is
  why the precise assert rides a small population, not the main run.)

It also proves the determinism contract: the same seed produces a
byte-identical aggregate summary across runs *and* across chunk sizes.

Throughput is host-honest: dies are physics-distinct (every one settles
for real), so the floor is only gated on >= 4-core hosts where the
chunk pool can overlap work; smaller hosts record the trajectory only.

``REPRO_POPULATION_SMOKE=1`` additionally runs the CI tier-2 smoke: a
seeded 512-die population screened end to end against a 1024-entry
cache (saturated a third of the way in) with the same RSS plateau
assertion, recorded under ``population_smoke_*`` keys.
"""

import os
import tracemalloc

import pytest

from bench_perf_sweep import _merge_results_json
from check_regression import gate
from repro.core.executor import _visible_cpu_count
from repro.core.warm import LockStateCache
from repro.pll.population import (
    PopulationSpec,
    ToleranceSpec,
    screen_population,
)
from repro.reporting import format_table

#: Cores needed before the throughput floor is gated.
GATE_CORES = 4
#: RSS plateau slack after the first chunk (allocator arenas, cache
#: fill up to its LRU cap, pool workers).
RSS_SLACK_KB = 64 * 1024
#: Traced-heap plateau bound relative to the post-first-chunk baseline.
TRACED_GROWTH_FACTOR = 1.5
TRACED_SLACK_KB = 4 * 1024


def _rss_kb():
    """Current VmRSS in kB (Linux), or None where /proc is absent."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _screen_with_rss(spec, **kwargs):
    """Screen ``spec`` sampling VmRSS after every chunk."""
    rss = []
    aggregate, stats = screen_population(
        spec, progress=lambda p: rss.append(_rss_kb()), **kwargs
    )
    return aggregate, stats, rss


def _rss_plateaus(rss):
    """True when RSS stops growing after the first chunk (or no /proc)."""
    if len(rss) < 2 or any(v is None for v in rss):
        return True
    return max(rss[1:]) <= rss[0] + RSS_SLACK_KB


def test_perf_population(report):
    cores = _visible_cpu_count()
    n_workers = min(4, cores)
    spec = PopulationSpec(
        corner="cdr180",
        size=96,
        seed=2026,
        tolerance=ToleranceSpec(distribution="truncated", rel_sigma=0.05),
        fault_rate=0.10,
        points=9,
    )

    # Pin 4 chunks: the auto-resolved chunk would swallow all 96 dies
    # in one (cache capacity 4096 >> 96 x 10 lanes), leaving nothing
    # for the per-chunk RSS plateau to assert.
    aggregate, stats, rss = _screen_with_rss(
        spec, chunk_size=24, n_workers=n_workers
    )
    summary = aggregate.summary()
    rss_flat = _rss_plateaus(rss)
    assert rss_flat, (
        f"streamed screen RSS grew past the plateau bound: {rss} kB"
    )
    # The farm measurement phase actually carried cdr180 lanes through
    # stages 1-4 (the throughput above includes the batched measure).
    assert stats.measured > 0
    assert stats.settle_s > 0.0

    # Determinism: same seed, different chunk size, fresh caches — the
    # aggregate summary must be byte-identical, run to run and chunk
    # size to chunk size.  A 16-die slice keeps the pair cheap.
    pair_spec = PopulationSpec(
        corner=spec.corner, size=16, seed=spec.seed,
        tolerance=spec.tolerance, fault_rate=spec.fault_rate,
        points=spec.points,
    )
    first, _, __ = _screen_with_rss(pair_spec, chunk_size=5)
    second, _, __ = _screen_with_rss(pair_spec, chunk_size=16)
    byte_identical = (
        first.to_json(pair_spec.describe())
        == second.to_json(pair_spec.describe())
    )
    assert byte_identical

    yield_fraction = summary["yield"]["yield"]
    coverage = summary["fault_detection"]["coverage"]
    false_reject = summary["fault_detection"]["false_reject_rate"]
    rows = [
        ["dies", spec.size],
        ["corner", spec.corner],
        ["visible cores", cores],
        ["chunk size", f"{stats.chunk_size} ({stats.n_chunks} chunks)"],
        ["wall", f"{stats.wall_s:.2f} s"],
        ["throughput", f"{stats.dies_per_s:.2f} dies/s"],
        ["yield", f"{yield_fraction:.3f}" if yield_fraction is not None
         else "n/a"],
        ["fault coverage", f"{coverage:.3f}" if coverage is not None
         else "n/a (no faults drawn)"],
        ["false reject", f"{false_reject:.3f}" if false_reject is not None
         else "n/a"],
        ["farm stage split",
         f"settle {stats.settle_s:.2f} s / monitor "
         f"{stats.monitor_s:.2f} s / measure {stats.measure_s:.2f} s"],
        ["measured in-farm",
         f"{stats.measured} ({stats.measure_ejected} ejected, "
         f"{stats.measure_failed} failed)"],
        ["RSS per chunk", " ".join(f"{v}kB" for v in rss)
         if all(v is not None for v in rss) else "n/a"],
        ["RSS flat", "yes" if rss_flat else "NO"],
        ["byte identical", "yes" if byte_identical else "NO"],
    ]
    report(
        "perf_population",
        format_table(
            ["metric", "value"], rows,
            title=f"Population yield screen ({spec.size} dies, "
                  f"{spec.corner} corner)",
        ),
    )

    gated = cores >= GATE_CORES
    results = {
        "population_dies": spec.size,
        "population_corner": spec.corner,
        "population_points": spec.points,
        "population_fault_rate": spec.fault_rate,
        "population_visible_cores": cores,
        "population_n_workers": n_workers,
        "population_chunk_size": stats.chunk_size,
        "population_n_chunks": stats.n_chunks,
        "population_wall_s": round(stats.wall_s, 4),
        "population_throughput_dies_per_s": round(stats.dies_per_s, 4),
        "population_yield": yield_fraction,
        "population_yield_ci": [
            summary["yield"]["yield_wilson_low"],
            summary["yield"]["yield_wilson_high"],
        ],
        "population_fault_coverage": coverage,
        "population_false_reject_rate": false_reject,
        "population_errors": summary["yield"]["errors"],
        "population_farm_stage_split_s": {
            "settle": round(stats.settle_s, 4),
            "monitor": round(stats.monitor_s, 4),
            "measure": round(stats.measure_s, 4),
        },
        "population_farm_measured_lanes": {
            "measured": stats.measured,
            "measure_ejected": stats.measure_ejected,
            "measure_failed": stats.measure_failed,
        },
        "population_rss_kb_per_chunk": rss,
        "population_rss_flat": rss_flat,
        "population_byte_identical": byte_identical,
        "population_gated": gated,
    }
    if gated:
        stale = ("population_throughput_skipped",)
    else:
        results["population_throughput_skipped"] = (
            f"only {cores} visible core(s); physics-distinct dies cannot "
            "overlap without a chunk pool"
        )
        stale = ()
    _merge_results_json(results, remove=stale)
    assert not gate(results)


def test_perf_population_traced_heap(report):
    """Precise flat-memory proof: traced heap under a saturated cache.

    The warm cache is capped below one population's lane count (12 dies
    x 5 lanes > 20 entries), so the LRU bound is exercised from the
    second chunk on — any per-die state the engine retained would show
    as monotone traced-heap growth instead of a plateau.
    """
    spec = PopulationSpec(
        corner="table3", size=12, seed=7, points=4, rel_tol=0.35,
    )
    cache = LockStateCache(max_entries=20)
    traced = []
    tracemalloc.start()
    try:
        screen_population(
            spec, chunk_size=3, cache=cache,
            progress=lambda p: traced.append(
                tracemalloc.get_traced_memory()[0] // 1024
            ),
        )
    finally:
        tracemalloc.stop()
    baseline = traced[0]
    bound = baseline * TRACED_GROWTH_FACTOR + TRACED_SLACK_KB
    traced_flat = max(traced[1:]) <= bound
    assert traced_flat, (
        f"traced heap grew past the plateau bound: {traced} kB per chunk"
    )
    report(
        "perf_population_traced",
        format_table(
            ["metric", "value"],
            [
                ["dies / chunks", f"{spec.size} / {len(traced)}"],
                ["cache cap", cache.max_entries],
                ["traced heap/chunk",
                 " ".join(f"{v}kB" for v in traced)],
                ["plateau bound", f"{bound:.0f} kB"],
            ],
            title="Population traced-heap plateau (LRU-saturated cache)",
        ),
    )
    results = {
        "population_traced_kb_per_chunk": traced,
        "population_traced_flat": traced_flat,
    }
    _merge_results_json(results)
    assert not gate(results)


@pytest.mark.skipif(
    os.environ.get("REPRO_POPULATION_SMOKE") != "1",
    reason="512-die CI smoke; set REPRO_POPULATION_SMOKE=1 to run",
)
def test_perf_population_smoke_512(report):
    """Seeded 512-die smoke for CI tier-2: bounded memory end to end.

    The 1024-entry cache saturates a third of the way through the
    population, so the RSS trace crosses the LRU bound mid-run and the
    plateau assert means what it says.
    """
    cores = _visible_cpu_count()
    spec = PopulationSpec(
        corner="table3",
        size=512,
        seed=512,
        fault_rate=0.05,
        points=5,
        rel_tol=0.35,
    )
    cache = LockStateCache(max_entries=1024)
    aggregate, stats, rss = _screen_with_rss(
        spec, n_workers=min(4, cores), cache=cache
    )
    summary = aggregate.summary()
    rss_flat = _rss_plateaus(rss)
    assert rss_flat, (
        f"512-die smoke RSS grew past the plateau bound: {rss} kB"
    )
    assert summary["yield"]["dies"] == spec.size

    report(
        "perf_population_smoke",
        format_table(
            ["metric", "value"],
            [
                ["dies", spec.size],
                ["wall", f"{stats.wall_s:.2f} s"],
                ["throughput", f"{stats.dies_per_s:.2f} dies/s"],
                ["yield", summary["yield"]["yield"]],
                ["cache entries", f"{stats.cache_entries} "
                 f"(cap {cache.max_entries})"],
                ["RSS per chunk", " ".join(f"{v}kB" for v in rss)
                 if all(v is not None for v in rss) else "n/a"],
            ],
            title="Population 512-die CI smoke (table3 corner)",
        ),
    )
    results = {
        "population_smoke_dies": spec.size,
        "population_smoke_wall_s": round(stats.wall_s, 4),
        "population_smoke_throughput_dies_per_s": round(
            stats.dies_per_s, 4
        ),
        "population_smoke_yield": summary["yield"]["yield"],
        "population_smoke_rss_kb_per_chunk": rss,
        "population_smoke_rss_flat": rss_flat,
    }
    _merge_results_json(results)
    assert not gate(results)

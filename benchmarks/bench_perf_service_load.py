"""Performance — sharded sweep-job service under saturation load.

Not a paper figure: this guards the service front-end.  A fleet of
physics-distinct corner dies (the corner-lot bench's current-mode
lag-lead lot — every job settles for real, no warm-cache flattery) is
dumped on the queue all at once and drained at increasing scheduler
widths.  For each width the bench records job throughput, queue-depth
high-water mark and job-latency percentiles into ``BENCH_sweep.json``
under ``service_load_*`` keys, and checks that every report is
byte-identical to the width-1 service's — sharding changes *when* jobs
run, never *what* they produce.

Scaling expectations are host-honest: shard workers are Python threads,
so CPU-bound jobs only overlap usefully when each job's tones also fan
out over the process pool.  On a >= 4-core host the 2-shard service
(2-worker jobs) must clear 1.6x the width-1 throughput; on smaller
hosts the numbers are recorded for the trajectory but not gated.
"""

import asyncio
import time

from bench_perf_sweep import _merge_results_json, cdr_corner_lot
from repro.core.executor import _visible_cpu_count
from repro.reporting import format_table
from repro.service import JobState, SweepJobRequest, SweepJobService

#: Throughput floor for the 2-shard service on a >= 4-core host.
TWO_SHARD_SPEEDUP_FLOOR = 1.6
#: Cores needed before the floor is gated (2 shards x 2 workers).
GATE_CORES = 4


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted, non-empty list."""
    index = round(q * (len(sorted_values) - 1))
    return sorted_values[index]


def _drain_fleet(shards, n_workers, requests):
    """One saturated service session at the given scheduler width.

    Every job is submitted before the loop yields to the scheduler, so
    the queue starts at its high-water mark and the measured wall is a
    genuine drain, not an arrival-limited trickle.
    """

    async def main():
        service = SweepJobService(shards=shards, queue_limit=len(requests))
        await service.start()
        t0 = time.perf_counter()
        jobs = [
            service.submit(
                SweepJobRequest(
                    pll=r.pll,
                    stimulus=r.stimulus,
                    plan=r.plan,
                    config=r.config,
                    n_workers=n_workers,
                    label=f"load-{i:02d}",
                )
            )
            for i, r in enumerate(requests)
        ]
        depth_high_water = 0
        for job in jobs:
            async for event in service.watch(job.job_id):
                if event.kind == "accepted":
                    depth_high_water = max(
                        depth_high_water, event.payload["queue_depth"]
                    )
        wall = time.perf_counter() - t0
        stats = service.stats()
        await service.stop()
        return jobs, wall, depth_high_water, stats

    return asyncio.run(main())


def test_perf_service_load(report):
    requests, _ = cdr_corner_lot()
    cores = _visible_cpu_count()
    n_tones = len(requests[0].plan.frequencies_hz)
    # Always measure 1 and 2 shards (the acceptance pair); wider fleets
    # only where the host has the cores to make them meaningful.
    widths = [1, 2] + [w for w in (4, 8, 16) if 2 < w <= cores]
    n_workers = 2 if cores >= GATE_CORES else 1

    walls = {}
    throughput = {}
    latency = {}
    depth = {}
    reports_by_width = {}
    for width in widths:
        jobs, wall, high_water, stats = _drain_fleet(
            width, n_workers, requests
        )
        assert all(job.state is JobState.DONE for job in jobs)
        assert stats["shards"] == width
        # Saturation sanity: everything was queued before anything ran.
        assert high_water == len(requests)
        latencies = sorted(
            job.finished_at - job.submitted_at for job in jobs
        )
        walls[width] = wall
        throughput[width] = len(jobs) / wall
        depth[width] = high_water
        latency[width] = {
            "p50_s": round(_percentile(latencies, 0.50), 4),
            "p90_s": round(_percentile(latencies, 0.90), 4),
            "max_s": round(latencies[-1], 4),
        }
        reports_by_width[width] = {
            job.request.pll.name: job.report for job in jobs
        }

    # Sharding must not change a byte of any artefact: every width's
    # reports match the width-1 service's, die for die.
    byte_identical = all(
        reports_by_width[width] == reports_by_width[1]
        for width in widths[1:]
    )
    assert byte_identical

    speedup_2shard = throughput[2] / throughput[1]
    rows = [
        ["jobs", len(requests)],
        ["tones per job", n_tones],
        ["visible cores", cores],
        ["workers per job", n_workers],
    ]
    for width in widths:
        rows.append([
            f"{width}-shard",
            f"{walls[width]:.2f} s wall, "
            f"{throughput[width]:.2f} jobs/s, "
            f"p50 {latency[width]['p50_s']:.2f} s / "
            f"p90 {latency[width]['p90_s']:.2f} s / "
            f"max {latency[width]['max_s']:.2f} s",
        ])
    rows += [
        ["2-shard speedup", f"{speedup_2shard:.2f}x"
         + ("" if cores >= GATE_CORES
            else f" (recorded only; {cores} visible core(s))")],
        ["queue high water", depth[1]],
        ["reports identical", "yes (byte-exact at every width)"],
    ]
    table = format_table(
        ["metric", "value"],
        rows,
        title=f"Service saturation load ({len(requests)} corner dies, "
              f"{n_tones}-tone jobs)",
    )
    report("perf_service_load", table)

    results = {
        "service_load_jobs": len(requests),
        "service_load_tones": n_tones,
        "service_load_visible_cores": cores,
        "service_load_n_workers": n_workers,
        "service_load_wall_s": {
            str(w): round(walls[w], 4) for w in widths
        },
        "service_load_throughput_jobs_per_s": {
            str(w): round(throughput[w], 4) for w in widths
        },
        "service_load_latency_s": {
            str(w): latency[w] for w in widths
        },
        "service_load_queue_depth_high_water": depth[1],
        "service_load_speedup_2shard": round(speedup_2shard, 3),
        "service_load_byte_identical": byte_identical,
    }
    if cores >= GATE_CORES:
        results["service_load_speedup_gated"] = True
        stale = ("service_load_speedup_skipped",)
    else:
        results["service_load_speedup_gated"] = False
        results["service_load_speedup_skipped"] = (
            f"only {cores} visible core(s); thread shards cannot "
            "overlap CPU-bound jobs without a pool underneath"
        )
        stale = ()
    _merge_results_json(results, remove=stale)

    # The acceptance floor: with 2 shards each fanning its job over a
    # 2-worker pool, four busy cores must clear 1.6x the width-1
    # throughput.  Hosts without the cores record the trajectory only.
    if cores >= GATE_CORES:
        assert speedup_2shard >= TWO_SHARD_SPEEDUP_FLOOR

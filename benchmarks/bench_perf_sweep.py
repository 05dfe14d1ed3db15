"""Performance — full 13-tone sweep wall time: cold, warm, parallel, lot.

Not a paper figure: this guards the executor, warm-start and farm
layers.  Three runs of the same paper sweep are timed and cross-checked:

* **cold serial** — fresh monitor and empty measurement cache, every
  tone settles and measures from scratch; timed best of
  :data:`BEST_OF`, because ``serial_wall_s`` is budgeted against the
  committed baseline and single wall-clock samples on a shared box are
  noisy;
* **warm serial** — the same monitor re-runs the plan on the
  :class:`~repro.core.warm.ToneMeasurementCache` the cold run filled,
  so every tone is answered with its finished measurement and nothing
  is simulated.  The warm result is *bit-identical* to the cold one;
* **parallel** — a fresh monitor fans the plan out over a process pool.
  On a multi-core host the per-tone tasks approach linear speedup; on a
  single-core host :func:`~repro.core.executor.executor_for` falls back
  to the serial loop, so the "parallel" path can never lose to serial
  by more than timing noise.

A fourth scenario times the production workload the paper motivates
(§5, Table 2): **batch screening a lot**.  The same ≥8-device lot runs
through :func:`~repro.reporting.batch_device_reports` cold (every
device measures every tone) and warm (one shared
:class:`~repro.core.warm.ToneMeasurementCache`, keyed by physics
signature, so the lot measures each tone family once), and every
report must be byte-identical to its cold counterpart.  Further
scenarios put the farm (``engine="auto"``) against the scalar cold
screen on a nonlinear hct4046 lot, the no-dedup fault-library lot and
the corner-varied lot, and time a service whose second session runs
warm from a spilled cache.

Besides the human-readable tables, each test merges its numbers into
``benchmarks/results/BENCH_sweep.json``, the machine-readable perf
trajectory, and ends with ``assert not gate(results)``: every speedup
floor and identity flag lives once, in ``check_regression.GATES``.
``python benchmarks/check_regression.py`` judges the whole file against
the committed baseline, including the ``serial_wall_s`` budget.
"""

import asyncio
import json
import pathlib
import tempfile
import time
import warnings
from dataclasses import replace

from check_regression import RETIRED_KEYS, gate
from repro.core.executor import ParallelFallbackWarning, _visible_cpu_count
from repro.core.monitor import TransferFunctionMonitor
from repro.core.warm import ToneMeasurementCache
from repro.presets import paper_bist_config, paper_stimulus, paper_sweep
from repro.reporting import (
    DeviceReportRequest,
    batch_device_reports,
    format_table,
)

N_TONES = 13
N_WORKERS = 4
BEST_OF = 3
LOT_SIZE = 8
HCT_LOT_SIZE = 4

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _merge_results_json(updates: dict, remove: tuple = ()) -> None:
    """Fold ``updates`` into BENCH_sweep.json, preserving other keys.

    ``remove`` drops stale keys a run deliberately did not produce (for
    example the parallel measurement on a single-core host) so the
    trajectory never carries numbers the current host could not have
    measured.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_sweep.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    for key in remove:
        data.pop(key, None)
    data.update(updates)
    path.write_text(json.dumps(data, indent=2) + "\n")


def _identical(a, b):
    return (
        a.f_mod == b.f_mod
        and a.held.vco_frequency_hz == b.held.vco_frequency_hz
        and a.held.measurement.count == b.held.measurement.count
        and a.phase_count.pulses == b.phase_count.pulses
        and a.peak_event.time == b.peak_event.time
        and a.delta_f_hz == b.delta_f_hz
        and a.phase_delay_deg == b.phase_delay_deg
    )


def _timing_rows(result):
    rows = []
    for m in result.measurements:
        t = m.timing
        rows.append([
            f"{m.f_mod:.3g}",
            f"{t.settle_s * 1e3:.1f}",
            f"{t.monitor_s * 1e3:.1f}",
            f"{t.measure_s * 1e3:.1f}",
            "warm" if t.warm else "cold",
        ])
    return rows


def test_perf_sweep(report, paper_dut):
    plan = paper_sweep(points=N_TONES)
    cores = _visible_cpu_count()

    t_cold = float("inf")
    for __ in range(BEST_OF):
        monitor = TransferFunctionMonitor(
            paper_dut, paper_stimulus("multitone"), paper_bist_config()
        )
        cache = ToneMeasurementCache()
        t0 = time.perf_counter()
        cold = monitor.run(plan, engine="scalar", measurement_cache=cache)
        t_cold = min(t_cold, time.perf_counter() - t0)
    assert cache.stats == (0, N_TONES)

    # Same monitor, same plan, the cache the last cold run filled:
    # every tone is answered with its finished measurement.
    t0 = time.perf_counter()
    warm = monitor.run(plan, engine="scalar", measurement_cache=cache)
    t_warm = time.perf_counter() - t0
    assert cache.stats == (N_TONES, N_TONES)

    # The parallel scenario only means something when a pool can
    # actually form: on a single visible core executor_for falls back
    # to the serial loop, and timing that fallback would publish a
    # "speedup" that is pure scheduler noise.  Skip the measurement
    # (and annotate the JSON) instead of polluting the trajectory.
    measure_parallel = cores >= 2
    parallel = None
    t_parallel = None
    if measure_parallel:
        # Fresh monitor so the pool starts cold too — an honest
        # comparison against the cold serial run.
        parallel_monitor = TransferFunctionMonitor(
            paper_dut, paper_stimulus("multitone"), paper_bist_config()
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ParallelFallbackWarning)
            t0 = time.perf_counter()
            parallel = parallel_monitor.run(plan, n_workers=N_WORKERS,
                                            engine="scalar")
            t_parallel = time.perf_counter() - t0

    # Tone-level vectorization: a fresh monitor, empty cache, and the
    # plan's 13 tones advanced as lanes of one settle farm.  This is the
    # single-device cold sweep — no cross-die sharing to hide behind.
    vec_monitor = TransferFunctionMonitor(
        paper_dut, paper_stimulus("multitone"), paper_bist_config()
    )
    t0 = time.perf_counter()
    vec_single = vec_monitor.run(plan, engine="auto")
    t_vec_single = time.perf_counter() - t0

    # The warm-start guarantee: a finished tone answers bit-identically.
    assert len(cold.measurements) == len(warm.measurements) == N_TONES
    assert all(
        _identical(a, b)
        for a, b in zip(cold.measurements, warm.measurements)
    )
    warm_served = sum(1 for m in warm.measurements if m.timing.warm)
    assert warm_served == N_TONES

    assert cold.failed_tones == warm.failed_tones
    if measure_parallel:
        # The executor guarantee: identical results however they ran.
        assert len(parallel.measurements) == N_TONES
        assert all(
            _identical(a, b)
            for a, b in zip(cold.measurements, parallel.measurements)
        )
        assert cold.failed_tones == parallel.failed_tones

    # The farm guarantee: the vectorized single-device sweep is
    # bit-identical to the scalar cold one, tone for tone.
    assert len(vec_single.measurements) == N_TONES
    vec_single_identical = all(
        _identical(a, b)
        for a, b in zip(cold.measurements, vec_single.measurements)
    )
    assert vec_single_identical
    assert cold.failed_tones == vec_single.failed_tones

    warm_speedup = t_cold / t_warm
    vec_single_speedup = t_cold / t_vec_single
    speedup = t_cold / t_parallel if measure_parallel else None
    parallel_rows = [
        [f"parallel wall ({N_WORKERS} workers)", f"{t_parallel:.2f} s"],
        ["parallel speedup", f"{speedup:.2f}x"],
    ] if measure_parallel else [
        ["parallel", f"skipped ({cores} visible core)"],
    ]
    table = format_table(
        ["metric", "value"],
        [
            ["tones", N_TONES],
            ["visible cores", cores],
            ["cold serial wall", f"{t_cold:.2f} s (best of {BEST_OF})"],
            ["warm serial wall", f"{t_warm:.2f} s"],
            ["warm speedup", f"{warm_speedup:.2f}x"],
            ["warm-served tones", f"{warm_served}/{N_TONES}"],
            ["vectorized cold wall", f"{t_vec_single:.2f} s"],
            ["vectorized speedup", f"{vec_single_speedup:.2f}x"],
        ] + parallel_rows + [
            ["results identical", "yes (bit-exact)"],
        ],
        title="Sweep executor performance (13-tone paper sweep)",
    )
    breakdown = format_table(
        ["f_mod (Hz)", "settle (ms)", "monitor (ms)", "measure (ms)",
         "start"],
        _timing_rows(warm),
        title="warm-run per-tone timing",
    )
    report("perf_sweep", table + "\n\n" + breakdown)

    results = {
        "tones": N_TONES,
        "visible_cores": cores,
        # Back-compat key: "serial" means the cold serial run.
        "serial_wall_s": round(t_cold, 4),
        "warm_wall_s": round(t_warm, 4),
        "warm_speedup": round(warm_speedup, 3),
        "warm_served_tones": warm_served,
        "vec_single_device_wall_s": round(t_vec_single, 4),
        "vec_single_device_speedup": round(vec_single_speedup, 3),
        "vec_single_device_bit_identical": vec_single_identical,
        "measured_tones": len(cold.measurements),
        "failed_tones": sorted(cold.failed_tones),
        "bit_identical": True,
    }
    if measure_parallel:
        results.update({
            "n_workers": N_WORKERS,
            "parallel_wall_s": round(t_parallel, 4),
            "speedup": round(speedup, 3),
        })
        stale = ("parallel_skipped",)
    else:
        results["parallel_skipped"] = (
            f"only {cores} visible core(s); pool measurement would "
            "time the serial fallback"
        )
        stale = ("n_workers", "parallel_wall_s", "speedup")
    # "cold_wall_s" was a duplicate of serial_wall_s; retired when the
    # closed-form trajectory keys landed.
    _merge_results_json(results, remove=stale + ("cold_wall_s",))
    assert not gate(results)


def test_perf_batch_screen(report, paper_dut):
    """Lot screening: warm-state-shared batch vs per-device cold."""
    plan = paper_sweep(points=N_TONES)
    stimulus = paper_stimulus("multitone")
    config = paper_bist_config()
    # Distinct die names, identical physics: exactly what the signature
    # keying exists for — the lot shares one finished tone per tone.
    lot = [
        DeviceReportRequest(
            pll=replace(paper_dut, name=f"{paper_dut.name}-{i:03d}"),
            stimulus=stimulus,
            plan=plan,
            config=config,
        )
        for i in range(LOT_SIZE)
    ]

    t0 = time.perf_counter()
    cold_reports = batch_device_reports(lot, engine="scalar")
    t_cold = time.perf_counter() - t0

    warm_cache = ToneMeasurementCache()
    t0 = time.perf_counter()
    warm_reports = batch_device_reports(lot, cache=warm_cache,
                                        engine="scalar")
    t_warm = time.perf_counter() - t0

    # Warm screening must not change a single byte of any artefact.
    assert len(cold_reports) == len(warm_reports) == LOT_SIZE
    byte_identical = cold_reports == warm_reports
    assert byte_identical
    for i, (cold_text, req) in enumerate(zip(cold_reports, lot)):
        assert cold_text.startswith(f"# BIST report — {req.pll.name}")

    detail = warm_cache.stats_detail
    # The lot measures each tone once; every other device is answered.
    assert detail["misses"] == N_TONES
    assert detail["hits"] == (LOT_SIZE - 1) * N_TONES

    # The auto engine: one farm pass over the lot's unique tones, then
    # every device of the lot screens warm — no die ever pays a scalar
    # cold settle.  Must beat the *cold* screen by the acceptance floor
    # and change no byte of any artefact.
    vec_cache = ToneMeasurementCache()
    t0 = time.perf_counter()
    vec_reports = batch_device_reports(lot, cache=vec_cache, engine="auto")
    t_vec = time.perf_counter() - t0
    vec_byte_identical = vec_reports == cold_reports
    assert vec_byte_identical
    vec_detail = vec_cache.stats_detail
    # The farm settles *and measures* every tone of the lot's one
    # physics family in-farm, and the lot's measurement cache answers
    # every tone of all eight dies: no die reaches the sequencer.
    assert vec_detail["hits"] == LOT_SIZE * N_TONES
    assert vec_detail["misses"] == 0
    assert vec_detail["entries"] == N_TONES
    presettle = vec_cache.presettle_stats
    assert presettle is not None
    assert presettle.ejected == 0
    assert presettle.tones_vectorized == N_TONES
    assert presettle.measured == N_TONES
    assert presettle.measure_ejected == 0

    batch_speedup = t_cold / t_warm
    vec_speedup = t_cold / t_vec
    table = format_table(
        ["metric", "value"],
        [
            ["lot size", LOT_SIZE],
            ["tones per device", N_TONES],
            ["cold lot wall", f"{t_cold:.2f} s"],
            ["warm lot wall", f"{t_warm:.2f} s"],
            ["lot speedup", f"{batch_speedup:.2f}x"],
            ["vectorized lot wall", f"{t_vec:.2f} s"],
            ["vectorized speedup vs cold", f"{vec_speedup:.2f}x"],
            ["finished tones", detail["entries"]],
            ["cache hits/misses", f"{detail['hits']}/{detail['misses']}"],
            ["reports identical", "yes (byte-exact, all engines)"],
        ],
        title=f"Batch screening ({LOT_SIZE}-device lot, 13-tone paper sweep)",
    )
    report("perf_batch_screen", table)

    results = {
        "batch_lot_size": LOT_SIZE,
        "batch_cold_wall_s": round(t_cold, 4),
        "batch_warm_wall_s": round(t_warm, 4),
        "batch_warm_speedup": round(batch_speedup, 3),
        "batch_cache_hits": detail["hits"],
        "batch_cache_misses": detail["misses"],
        "batch_byte_identical": byte_identical,
        "vec_batch_wall_s": round(t_vec, 4),
        "vec_batch_speedup": round(vec_speedup, 3),
        "vec_batch_byte_identical": vec_byte_identical,
    }
    _merge_results_json(results)
    assert not gate(results)


def test_perf_hct4046_lot(report):
    """The paper's actual DUT — the nonlinear 74HCT4046A — on the farm.

    Before the masked nonlinear lanes landed, every hct4046 device
    ejected to the scalar engine and the farm bought nothing.
    This scenario pins the fix: a lot of nonlinear dies screens on the
    auto engine with *zero* ejections, byte-identical artefacts,
    and a wall-time win recorded in the trajectory.
    """
    from repro.presets import paper_pll

    plan = paper_sweep(points=N_TONES)
    stimulus = paper_stimulus("multitone")
    config = paper_bist_config()
    dut = paper_pll(nonlinear=True)
    lot = [
        DeviceReportRequest(
            pll=replace(dut, name=f"{dut.name}-{i:03d}"),
            stimulus=stimulus,
            plan=plan,
            config=config,
        )
        for i in range(HCT_LOT_SIZE)
    ]

    t0 = time.perf_counter()
    cold_reports = batch_device_reports(lot, engine="scalar")
    t_cold = time.perf_counter() - t0

    vec_cache = ToneMeasurementCache()
    t0 = time.perf_counter()
    vec_reports = batch_device_reports(lot, cache=vec_cache, engine="auto")
    t_vec = time.perf_counter() - t0

    byte_identical = vec_reports == cold_reports
    assert byte_identical
    stats = vec_cache.presettle_stats
    assert stats is not None
    # The whole point: nonlinear lanes ride the farm instead of
    # ejecting or falling back to the scalar settle.
    assert stats.ejected == 0
    assert stats.scalar == 0
    assert stats.hct4046_lanes == N_TONES
    assert stats.tones_vectorized == N_TONES

    speedup = t_cold / t_vec
    table = format_table(
        ["metric", "value"],
        [
            ["lot size", HCT_LOT_SIZE],
            ["tones per device", N_TONES],
            ["cold lot wall", f"{t_cold:.2f} s"],
            ["vectorized lot wall", f"{t_vec:.2f} s"],
            ["vectorized speedup vs cold", f"{speedup:.2f}x"],
            ["nonlinear lanes on the farm",
             f"{stats.hct4046_lanes}/{N_TONES}"],
            ["ejections", stats.ejected],
            ["reports identical", "yes (byte-exact)"],
        ],
        title=f"HCT4046 lot screening ({HCT_LOT_SIZE} nonlinear dies, "
              "13-tone paper sweep)",
    )
    report("perf_hct4046_lot", table)

    results = {
        "vec_hct4046_lot": {
            "lot_size": HCT_LOT_SIZE,
            "tones": N_TONES,
            "cold_wall_s": round(t_cold, 4),
            "vec_wall_s": round(t_vec, 4),
            "speedup": round(speedup, 3),
            "ejected_lanes": stats.ejected,
            "nonlinear_lanes": stats.hct4046_lanes,
            "byte_identical": byte_identical,
        },
    }
    _merge_results_json(results)
    assert not gate(results)


def fault_library_lot():
    """Healthy die plus every fault in the library: zero dedup anywhere.

    All eight dies are physics-distinct, so neither the settle cache
    nor the measurement cache can collapse lanes across dies — every
    (die, tone) pair settles *and* measures.  This is the lot shape
    the farm measurement phase exists for: the win has to come from
    batching stages 1-4, not from skipping them.
    """
    from repro.pll.faults import FAULT_LIBRARY, apply_fault
    from repro.presets import paper_pll

    plan = paper_sweep(points=N_TONES)
    stimulus = paper_stimulus("multitone")
    config = paper_bist_config()
    duts = [paper_pll()] + [
        apply_fault(paper_pll(), FAULT_LIBRARY[label])
        for label in sorted(FAULT_LIBRARY)
    ]
    return [
        DeviceReportRequest(
            pll=replace(d, name=f"die-{i:02d}"),
            stimulus=stimulus,
            plan=plan,
            config=config,
        )
        for i, d in enumerate(duts)
    ]


def test_perf_vec_measure_fault_screen(report):
    """Stages 1-4 on the farm kernel: the fault-library cold screen.

    A heterogeneous 8-die lot (healthy + all seven library faults)
    where dedup is impossible — the settle farm alone bought ~1.3x
    here because the scalar stage 1-4 replay dominated.  With the
    measurement phase batched the auto screen must clear its floor
    against the scalar engine while every report stays byte-identical,
    including the die whose sweep legitimately fails mid-plan.
    """
    requests = fault_library_lot()
    lot_size = len(requests)
    cores = _visible_cpu_count()

    t0 = time.perf_counter()
    cold_reports = batch_device_reports(requests, engine="scalar")
    t_cold = time.perf_counter() - t0

    vec_cache = ToneMeasurementCache()
    t0 = time.perf_counter()
    vec_reports = batch_device_reports(
        requests, cache=vec_cache, engine="auto"
    )
    t_vec = time.perf_counter() - t0

    byte_identical = vec_reports == cold_reports
    assert byte_identical
    stats = vec_cache.presettle_stats
    assert stats is not None
    # No dedup on this lot: every (die, tone) pair is its own lane.
    assert stats.unique == lot_size * N_TONES
    # The farm carried the bulk of the lot through stages 1-4, and no
    # lane was handed back to the scalar sequencer: in-farm failures
    # are published (byte identity above covers them too).
    assert stats.measured > lot_size * N_TONES // 2
    assert stats.measure_ejected == 0
    assert stats.settle_s > 0.0 and stats.monitor_s > 0.0
    # Every library fault, the pump dead zone included, settles on a
    # fast path: no lane falls back to a full scalar settle.
    assert stats.scalar == 0

    speedup = t_cold / t_vec
    table = format_table(
        ["metric", "value"],
        [
            ["lot size", f"{lot_size} (healthy + 7 faults)"],
            ["tones per device", N_TONES],
            ["unique lanes", stats.unique],
            ["cold scalar wall", f"{t_cold:.2f} s"],
            ["vectorized wall", f"{t_vec:.2f} s"],
            ["speedup", f"{speedup:.2f}x"],
            ["farm stage split",
             f"settle {stats.settle_s:.2f} s / monitor "
             f"{stats.monitor_s:.2f} s / measure "
             f"{stats.measure_s:.2f} s"],
            ["measured in-farm",
             f"{stats.measured} ({stats.measure_ejected} ejected, "
             f"{stats.measure_failed} failed)"],
            ["reports identical", "yes (byte-exact)"],
        ],
        title=f"Farm measurement phase ({lot_size}-die fault-library "
              "cold screen, no dedup)",
    )
    report("perf_vec_measure", table)

    # The ratio is engine-vs-engine inside one process, so its floor
    # binds on every host; ``vec_measure_gated`` only records whether
    # the host had a second core to keep timer noise off it.
    results = {
        "vec_measure_lot_size": lot_size,
        "vec_measure_visible_cores": cores,
        "vec_measure_gated": cores >= 2,
        "vec_measure_cold_wall_s": round(t_cold, 4),
        "vec_measure_vec_wall_s": round(t_vec, 4),
        "vec_measure_speedup": round(speedup, 3),
        "vec_measure_byte_identical": byte_identical,
        "vec_measure_lanes": {
            "unique": stats.unique,
            "vector": stats.vector,
            "ejected": stats.ejected,
            "scalar": stats.scalar,
            "measured": stats.measured,
            "measure_ejected": stats.measure_ejected,
            "measure_failed": stats.measure_failed,
        },
        "vec_measure_stage_split_s": {
            "settle": round(stats.settle_s, 4),
            "monitor": round(stats.monitor_s, 4),
            "measure": round(stats.measure_s, 4),
        },
    }
    _merge_results_json(results)
    assert not gate(results)


CF_LOT_SIZE = 8


def cdr_corner_pll(index=0, lot_size=CF_LOT_SIZE):
    """One die of the corner-varied current-mode lag-lead lot.

    Every law of this loop is polynomial (the current pump ramps the
    lag-lead linearly), so the farm kernel's inter-event update is a
    ramp or a hold; the ±1.6% process spread keeps all ``lot_size``
    dies physics-distinct, so no lane dedups away.
    """
    import math

    from repro.pll import ChargePumpPLL, CurrentChargePump, VCO
    from repro.pll.loop_filter import PassiveLagLeadFilter

    d = 1.0 + 0.004 * (index - lot_size / 2)
    return ChargePumpPLL(
        pump=CurrentChargePump(i_up=50e-6 * d),
        loop_filter=PassiveLagLeadFilter(r1=1e3 * d, r2=2e3 * d,
                                         c=100e-9),
        vco=VCO(800e3, 100e3 * d, 1.5, f_min=400e3, f_max=1200e3),
        n=4,
        f_ref=200e3,
        pfd_reset_delay=2e-9,
        name=f"cdr-ll-{index:03d}",
    ), math.sqrt(50e-6 * d * 100e3 * d / (4 * 100e-9)) / (2 * math.pi)


def cdr_corner_lot():
    """(requests, jobs): the 8-die 13-tone corner-lot bench scenario."""
    from repro.core.architecture import BISTConfig
    from repro.core.monitor import SweepPlan
    from repro.stimulus import MultiToneFSKStimulus

    # Under a current drive the lag-lead acts like a series r2-C, so
    # the loop's effective natural frequency is sqrt(Ip*Kv/(N*C))/2π —
    # the linear model's lag-lead formula does not apply here.
    __, fn = cdr_corner_pll(CF_LOT_SIZE // 2)
    plan = SweepPlan.around(fn, decades_below=0.8, decades_above=0.55,
                            points=N_TONES)
    stimulus = MultiToneFSKStimulus(200e3, deviation=50.0, steps=10)
    config = BISTConfig(
        test_clock_hz=100e6,
        settle_cycles=3,
        frequency_count_periods=128,
        detector_inverter_delay=8e-9,
        detector_and_delay=1e-9,
    )
    requests = [
        DeviceReportRequest(
            pll=cdr_corner_pll(i)[0],
            stimulus=stimulus,
            plan=plan,
            config=config,
        )
        for i in range(CF_LOT_SIZE)
    ]
    jobs = [
        (r.pll, r.stimulus, r.config, tuple(r.plan.frequencies_hz))
        for r in requests
    ]
    return requests, jobs


def _farm_wall(jobs, repeats=2):
    """Best-of-N farm wall, settle plus measure (fresh cache each)."""
    from repro.pll.lot import premeasure_lot

    best = float("inf")
    stats = None
    for __ in range(repeats):
        t0 = time.perf_counter()
        run_stats = premeasure_lot(jobs, ToneMeasurementCache())
        wall = time.perf_counter() - t0
        if wall < best:
            best, stats = wall, run_stats
    return best, stats


def test_perf_corner_screen(report):
    """The farm vs the scalar cold screen on a process-corner lot.

    An 8-die corner-varied current-mode lot has 104 physics-distinct
    (die, tone) lanes — no dedup to hide behind, every lane settles.
    Every lane must settle on the farm's per-lane kernel (none ejected
    or scalar), the ``auto`` screen must match the scalar cold screen
    byte for byte, and it must beat that screen by the absolute
    ``vec_corner_speedup`` floor.
    """
    requests, jobs = cdr_corner_lot()

    t_farm, farm_stats = _farm_wall(jobs)

    # Every lane settles on the kernel; none may eject or fall back.
    n_lanes = CF_LOT_SIZE * N_TONES
    assert farm_stats.unique == n_lanes
    assert farm_stats.vector == farm_stats.tones_vectorized == n_lanes
    assert farm_stats.ejected == farm_stats.scalar == 0

    # The full screen (settle + stages 1-4 + rendering, not just the
    # farm) against the scalar cold screen.
    t0 = time.perf_counter()
    cold_reports = batch_device_reports(requests, engine="scalar")
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = batch_device_reports(requests, cache=ToneMeasurementCache(),
                                engine="auto")
    t_auto = time.perf_counter() - t0
    screens_identical = fast == cold_reports
    assert screens_identical
    speedup = t_cold / t_auto

    table = format_table(
        ["metric", "value"],
        [
            ["lot size", CF_LOT_SIZE],
            ["tones per device", N_TONES],
            ["unique lanes", n_lanes],
            ["farm wall", f"{t_farm * 1e3:.0f} ms"],
            ["kernel lanes", f"{farm_stats.vector}/{n_lanes}"],
            ["cold screen wall", f"{t_cold:.2f} s"],
            ["auto screen wall", f"{t_auto:.2f} s"],
            ["auto vs cold speedup", f"{speedup:.2f}x"],
            ["reports identical", "yes (byte-exact)"],
        ],
        title=f"Corner lot ({CF_LOT_SIZE} corner-varied dies, "
              f"{N_TONES}-tone screen)",
    )
    report("perf_corner_screen", table)

    results = {
        "vec_corner_speedup": round(speedup, 3),
        "vec_corner_screen": {
            "lot_size": CF_LOT_SIZE,
            "tones": N_TONES,
            "vec_farm_wall_s": round(t_farm, 4),
            "cold_wall_s": round(t_cold, 4),
            "auto_wall_s": round(t_auto, 4),
            "byte_identical": screens_identical,
        },
    }
    _merge_results_json(results, remove=RETIRED_KEYS)
    assert not gate(results)


def _service_lot(cache_path, pll, plan, label):
    """One full service session: start, run one job, drain, spill."""
    from repro.service import SweepJobRequest, SweepJobService

    async def main():
        service = SweepJobService(cache_path=cache_path)
        await service.start()
        request = SweepJobRequest(
            pll=pll,
            stimulus=paper_stimulus("multitone"),
            plan=plan,
            config=paper_bist_config(),
            label=label,
            engine="scalar",
        )
        t0 = time.perf_counter()
        job = service.submit(request)
        events = [e async for e in service.watch(job.job_id)]
        wall = time.perf_counter() - t0
        stats = service.stats()
        await service.stop()
        return job, events, wall, stats

    return asyncio.run(main())


def test_perf_service_warm_across_jobs(report, paper_dut):
    """Two service sessions, one disk spill: the second lot runs warm.

    The production story the service exists for: a lot finishes, the
    service (or the whole host) goes away, and the next session's first
    job — same plan, same-physics devices — reloads the spilled
    measurement cache and answers every tone without simulating it.
    Byte-identical artefacts, measurably faster.
    """
    plan = paper_sweep(points=N_TONES)
    with tempfile.TemporaryDirectory(prefix="repro-bench-svc-") as tmp:
        cache_path = pathlib.Path(tmp) / "service.cache"
        cold_job, cold_events, t_cold, cold_stats = _service_lot(
            cache_path, paper_dut, plan, "lot-1"
        )
        # A *fresh* service: only the spilled file carries the warmth.
        warm_job, warm_events, t_warm, warm_stats = _service_lot(
            cache_path, replace(paper_dut, name=f"{paper_dut.name}-b"),
            plan, "lot-2",
        )

    # Streaming must release tones strictly in plan order, both runs.
    for events in (cold_events, warm_events):
        indices = [
            e.payload["index"] for e in events if e.kind == "tone"
        ]
        assert indices == list(range(N_TONES))

    # The second lot is served from the persisted cache...
    assert cold_job.warm_tones == 0
    assert warm_job.warm_tones == N_TONES
    assert warm_stats["cache"]["hits"] == N_TONES
    assert warm_stats["cache"]["misses"] == 0
    # ...and warmth never changes a byte of the artefact (device names
    # differ by construction; everything below the title must match).
    cold_body = cold_job.report.split("\n", 1)[1]
    warm_body = warm_job.report.split("\n", 1)[1]
    byte_identical = cold_body == warm_body
    assert byte_identical

    service_speedup = t_cold / t_warm
    table = format_table(
        ["metric", "value"],
        [
            ["tones per job", N_TONES],
            ["cold session wall", f"{t_cold:.2f} s"],
            ["warm session wall", f"{t_warm:.2f} s"],
            ["service warm speedup", f"{service_speedup:.2f}x"],
            ["warm-served tones", f"{warm_job.warm_tones}/{N_TONES}"],
            ["cache hits (2nd lot)", warm_stats["cache"]["hits"]],
            ["reports identical", "yes (byte-exact below the title)"],
        ],
        title="Service warm-across-jobs (13-tone job, two sessions, "
              "one disk spill)",
    )
    report("perf_service_warm", table)

    results = {
        "service_warm_across_jobs": {
            "tones": N_TONES,
            "cold_wall_s": round(t_cold, 4),
            "warm_wall_s": round(t_warm, 4),
            "speedup": round(service_speedup, 3),
            "warm_served_tones": warm_job.warm_tones,
            "cache_hits": warm_stats["cache"]["hits"],
            "cache_misses": warm_stats["cache"]["misses"],
            "byte_identical": byte_identical,
        },
    }
    _merge_results_json(results)
    assert not gate(results)

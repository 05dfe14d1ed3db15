"""Tier-2 perf gate: the serial sweep must not regress vs the baseline.

A pytest wrapper around :mod:`check_regression` so the perf budget runs
inside the benchmark suite (``pytest benchmarks/ -m tier2``).  It
measures a *fresh* cold serial sweep — best of three, because single
wall-clock samples on a shared box are noisy — and compares it against
the BENCH_sweep.json committed at HEAD with the 20 % slowdown budget.

Skips (rather than fails) when there is no committed baseline to judge
against, e.g. on a fresh checkout before the first benchmark commit.
"""

import pathlib
import sys
import time

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from check_regression import (  # noqa: E402
    CORNER_SCREEN_SPEEDUP_FLOOR,
    POPULATION_THROUGHPUT_FLOOR,
    SERVICE_LOAD_SPEEDUP_FLOOR,
    SLOWDOWN_THRESHOLD,
    VEC_BATCH_SPEEDUP_FLOOR,
    VEC_MEASURE_SPEEDUP_FLOOR,
    VEC_SINGLE_SPEEDUP_FLOOR,
    check_corner_screen_floor,
    check_namespaces,
    check_population,
    check_service_load,
    check_vec_floor,
    check_vec_measure,
    check_vec_single_floor,
    compare,
    load_committed,
)
from repro.core.monitor import TransferFunctionMonitor  # noqa: E402
from repro.presets import (  # noqa: E402
    paper_bist_config,
    paper_stimulus,
    paper_sweep,
)

pytestmark = pytest.mark.tier2

BEST_OF = 3


def _measure_cold_serial(paper_dut, tones: int) -> float:
    plan = paper_sweep(points=tones)
    best = float("inf")
    for _ in range(BEST_OF):
        monitor = TransferFunctionMonitor(
            paper_dut, paper_stimulus("multitone"), paper_bist_config()
        )
        t0 = time.perf_counter()
        monitor.run(plan, engine="scalar")
        best = min(best, time.perf_counter() - t0)
    return best


def test_serial_sweep_within_budget(report, paper_dut):
    baseline = load_committed()
    if baseline is None:
        pytest.skip("no committed BENCH_sweep.json baseline at HEAD")
    tones = baseline.get("tones", 13)

    wall = _measure_cold_serial(paper_dut, tones)
    fresh = {
        "tones": tones,
        "serial_wall_s": round(wall, 4),
        "bit_identical": True,
    }
    problems = compare(baseline, fresh, SLOWDOWN_THRESHOLD)

    verdict = "PASS" if not problems else "; ".join(problems)
    report("perf_regression_guard", "\n".join([
        f"baseline serial : {baseline['serial_wall_s']:.4f} s",
        f"fresh serial    : {wall:.4f} s (best of {BEST_OF})",
        f"budget          : +{SLOWDOWN_THRESHOLD * 100:.0f} %",
        f"verdict         : {verdict}",
    ]))
    assert not problems, problems


def test_vec_batch_speedup_within_floor(report, paper_dut):
    """The vectorised lot engine must hold its >=5x acceptance floor.

    Measures a fresh 8-die, 13-tone screen cold (scalar) and with
    ``engine="auto"`` and applies the absolute
    :data:`~check_regression.VEC_BATCH_SPEEDUP_FLOOR` — one round each,
    because the two walls ride the same machine noise and only their
    ratio is judged.  Skips against baselines that predate the key.
    """
    from dataclasses import replace

    from repro.reporting import DeviceReportRequest, batch_device_reports

    baseline = load_committed()
    if baseline is None:
        pytest.skip("no committed BENCH_sweep.json baseline at HEAD")
    if baseline.get("vec_batch_speedup") is None:
        pytest.skip("baseline predates the vectorised lot engine")

    tones = baseline.get("tones", 13)
    lot_size = baseline.get("batch_lot_size", 8)
    plan = paper_sweep(points=tones)
    lot = [
        DeviceReportRequest(
            pll=replace(paper_dut, name=f"{paper_dut.name}-{i:03d}"),
            stimulus=paper_stimulus("multitone"),
            plan=plan,
            config=paper_bist_config(),
        )
        for i in range(lot_size)
    ]

    t0 = time.perf_counter()
    cold_reports = batch_device_reports(lot, engine="scalar")
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    vec_reports = batch_device_reports(lot, engine="auto")
    t_vec = time.perf_counter() - t0

    fresh = {
        "vec_batch_speedup": round(t_cold / t_vec, 3),
        "vec_batch_byte_identical": vec_reports == cold_reports,
    }
    problems = check_vec_floor(baseline, fresh)

    verdict = "PASS" if not problems else "; ".join(problems)
    report("perf_vec_batch_guard", "\n".join([
        f"lot             : {lot_size} devices x {tones} tones",
        f"scalar cold wall: {t_cold:.4f} s",
        f"vectorized wall : {t_vec:.4f} s",
        f"speedup         : {fresh['vec_batch_speedup']:.2f}x "
        f"(floor {VEC_BATCH_SPEEDUP_FLOOR:.1f}x)",
        f"byte-identical  : {fresh['vec_batch_byte_identical']}",
        f"verdict         : {verdict}",
    ]))
    assert not problems, problems


def test_corner_screen_speedup_within_floor(report):
    """The farm must hold its >=5x floor on the corner-varied lot.

    Re-screens the bench's corner-varied current-mode lot (104
    physics-distinct lanes) cold on the scalar engine and with
    ``engine="auto"``, and applies the absolute
    :data:`~check_regression.CORNER_SCREEN_SPEEDUP_FLOOR` to the wall
    ratio — one round each, same machine noise, only the ratio judged.
    Skips against baselines that predate the ``vec_corner_speedup``
    key.
    """
    from bench_perf_sweep import cdr_corner_lot
    from repro.core.warm import LockStateCache
    from repro.reporting import batch_device_reports

    baseline = load_committed()
    if baseline is None:
        pytest.skip("no committed BENCH_sweep.json baseline at HEAD")
    if baseline.get("vec_corner_speedup") is None:
        pytest.skip("baseline predates the corner-lot screen floor")

    requests, jobs = cdr_corner_lot()
    t0 = time.perf_counter()
    cold_reports = batch_device_reports(requests, engine="scalar")
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    auto_reports = batch_device_reports(
        requests, cache=LockStateCache(), engine="auto"
    )
    t_auto = time.perf_counter() - t0

    fresh = {
        "vec_corner_speedup": round(t_cold / t_auto, 3),
        "vec_corner_screen": {"byte_identical":
                              auto_reports == cold_reports},
    }
    problems = check_corner_screen_floor(baseline, fresh)

    verdict = "PASS" if not problems else "; ".join(problems)
    report("perf_corner_screen_guard", "\n".join([
        f"lot             : {len(jobs)} devices",
        f"scalar cold wall: {t_cold:.4f} s",
        f"auto wall       : {t_auto:.4f} s",
        f"speedup         : {fresh['vec_corner_speedup']:.2f}x "
        f"(floor {CORNER_SCREEN_SPEEDUP_FLOOR:.1f}x)",
        f"byte-identical  : {fresh['vec_corner_screen']['byte_identical']}",
        f"verdict         : {verdict}",
    ]))
    assert not problems, problems


def test_service_load_within_floor(report):
    """The sharded service must stay byte-exact and hold its floor.

    Re-drains the saturation lot through the width-1 and 2-shard
    service and applies :func:`~check_regression.check_service_load`:
    byte identity unconditionally, the >=
    :data:`~check_regression.SERVICE_LOAD_SPEEDUP_FLOOR` throughput
    ratio only on hosts with the cores to gate it (thread shards
    cannot overlap CPU-bound jobs without a pool underneath).  Skips
    against baselines that predate the sharded service.
    """
    from bench_perf_service_load import GATE_CORES, _drain_fleet
    from bench_perf_sweep import cdr_corner_lot
    from repro.core.executor import _visible_cpu_count

    baseline = load_committed()
    if baseline is None:
        pytest.skip("no committed BENCH_sweep.json baseline at HEAD")
    if baseline.get("service_load_throughput_jobs_per_s") is None:
        pytest.skip("baseline predates the sharded service")

    requests, __ = cdr_corner_lot()
    cores = _visible_cpu_count()
    gated = cores >= GATE_CORES
    n_workers = 2 if gated else 1

    by_width = {}
    for width in (1, 2):
        jobs, wall, __, __ = _drain_fleet(width, n_workers, requests)
        by_width[width] = {
            "throughput": len(jobs) / wall,
            "wall": wall,
            "reports": {job.request.pll.name: job.report for job in jobs},
        }

    speedup = by_width[2]["throughput"] / by_width[1]["throughput"]
    fresh = {
        "service_load_throughput_jobs_per_s": {
            str(w): round(by_width[w]["throughput"], 4) for w in (1, 2)
        },
        "service_load_byte_identical":
            by_width[2]["reports"] == by_width[1]["reports"],
        "service_load_speedup_2shard": round(speedup, 3),
        "service_load_speedup_gated": gated,
    }
    problems = check_service_load(baseline, fresh)

    verdict = "PASS" if not problems else "; ".join(problems)
    report("perf_service_load_guard", "\n".join([
        f"lot             : {len(requests)} jobs, "
        f"{cores} visible core(s), {n_workers} worker(s)/job",
        f"1-shard wall    : {by_width[1]['wall']:.4f} s",
        f"2-shard wall    : {by_width[2]['wall']:.4f} s",
        f"speedup         : {speedup:.2f}x "
        + (f"(floor {SERVICE_LOAD_SPEEDUP_FLOOR:.1f}x)" if gated
           else "(recorded only; host below gate)"),
        f"byte-identical  : {fresh['service_load_byte_identical']}",
        f"verdict         : {verdict}",
    ]))
    assert not problems, problems


def test_vec_single_speedup_within_floor(report, paper_dut):
    """Tone-level vectorization must hold its single-device floor.

    A *single* 13-tone device screened with ``engine="auto"``
    rides the settle farm across tones (no lot to amortise over), and
    must stay >= :data:`~check_regression.VEC_SINGLE_SPEEDUP_FLOOR`
    faster than the scalar cold sweep.  One round each — the two walls
    ride the same machine noise and only their ratio is judged.  Skips
    against baselines that predate the key.
    """
    baseline = load_committed()
    if baseline is None:
        pytest.skip("no committed BENCH_sweep.json baseline at HEAD")
    if baseline.get("vec_single_device_speedup") is None:
        pytest.skip("baseline predates tone-level vectorization")

    tones = baseline.get("tones", 13)
    plan = paper_sweep(points=tones)

    scalar_monitor = TransferFunctionMonitor(
        paper_dut, paper_stimulus("multitone"), paper_bist_config()
    )
    t0 = time.perf_counter()
    cold = scalar_monitor.run(plan, engine="scalar")
    t_cold = time.perf_counter() - t0

    vec_monitor = TransferFunctionMonitor(
        paper_dut, paper_stimulus("multitone"), paper_bist_config()
    )
    t0 = time.perf_counter()
    vec = vec_monitor.run(plan, engine="auto")
    t_vec = time.perf_counter() - t0

    identical = len(cold.measurements) == len(vec.measurements) and all(
        a.delta_f_hz == b.delta_f_hz and a.phase_delay_deg == b.phase_delay_deg
        for a, b in zip(cold.measurements, vec.measurements)
    )
    fresh = {
        "vec_single_device_speedup": round(t_cold / t_vec, 3),
        "vec_single_device_bit_identical": identical,
    }
    problems = check_vec_single_floor(baseline, fresh)

    verdict = "PASS" if not problems else "; ".join(problems)
    report("perf_vec_single_guard", "\n".join([
        f"device          : 1 device x {tones} tones",
        f"scalar cold wall: {t_cold:.4f} s",
        f"vectorized wall : {t_vec:.4f} s",
        f"speedup         : {fresh['vec_single_device_speedup']:.2f}x "
        f"(floor {VEC_SINGLE_SPEEDUP_FLOOR:.1f}x)",
        f"bit-identical   : {fresh['vec_single_device_bit_identical']}",
        f"verdict         : {verdict}",
    ]))
    assert not problems, problems


def test_vec_measure_speedup_within_floor(report):
    """The farm measurement phase must hold its >=2x fault-lot floor.

    Re-screens the bench's heterogeneous fault-library lot (healthy +
    all seven faults — no dedup anywhere, so the win has to come from
    batching stages 1-4) cold and with ``engine="auto"`` and
    applies :func:`~check_regression.check_vec_measure`: byte identity
    unconditionally, the floor on gated hosts.  Skips against
    baselines that predate the ``vec_measure_*`` keys.
    """
    from bench_perf_sweep import fault_library_lot
    from repro.core.executor import _visible_cpu_count
    from repro.core.warm import LockStateCache
    from repro.reporting import batch_device_reports

    baseline = load_committed()
    if baseline is None:
        pytest.skip("no committed BENCH_sweep.json baseline at HEAD")
    if baseline.get("vec_measure_speedup") is None:
        pytest.skip("baseline predates the farm measurement phase")

    requests = fault_library_lot()
    cores = _visible_cpu_count()

    t0 = time.perf_counter()
    cold_reports = batch_device_reports(requests, engine="scalar")
    t_cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    vec_reports = batch_device_reports(
        requests, cache=LockStateCache(), engine="auto"
    )
    t_vec = time.perf_counter() - t0

    gated = cores >= 2
    fresh = {
        "vec_measure_speedup": round(t_cold / t_vec, 3),
        "vec_measure_byte_identical": vec_reports == cold_reports,
        "vec_measure_gated": gated,
    }
    problems = check_vec_measure(baseline, fresh)

    verdict = "PASS" if not problems else "; ".join(problems)
    report("perf_vec_measure_guard", "\n".join([
        f"lot             : {len(requests)} fault-library dies "
        "(no dedup)",
        f"scalar cold wall: {t_cold:.4f} s",
        f"vectorized wall : {t_vec:.4f} s",
        f"speedup         : {fresh['vec_measure_speedup']:.2f}x "
        + (f"(floor {VEC_MEASURE_SPEEDUP_FLOOR:.1f}x)" if gated
           else "(recorded only; host below gate)"),
        f"byte-identical  : {fresh['vec_measure_byte_identical']}",
        f"verdict         : {verdict}",
    ]))
    assert not problems, problems


def test_vec_measure_check_logic():
    """The checker's gating/tolerant-missing contract, key by key."""
    baseline = {"vec_measure_speedup": 2.5}
    # Pre-measurement-phase baselines tolerate a fresh result without
    # the keys...
    assert check_vec_measure({}, {}) == []
    # ...but once the baseline carries the key it can never vanish.
    assert check_vec_measure(baseline, {}) != []
    # Byte identity fails regardless of gating.
    assert check_vec_measure(baseline, {
        "vec_measure_speedup": 2.5,
        "vec_measure_byte_identical": False,
        "vec_measure_gated": False,
    })
    # The floor only binds on gated hosts.
    below = {
        "vec_measure_speedup": VEC_MEASURE_SPEEDUP_FLOOR - 0.5,
        "vec_measure_byte_identical": True,
    }
    assert check_vec_measure(baseline, {**below,
                                        "vec_measure_gated": False}) == []
    assert check_vec_measure(baseline, {**below,
                                        "vec_measure_gated": True})


def test_vec_and_service_namespaces_are_closed():
    """Renamed/misspelled ``vec_*``/``service_*`` keys must fail the
    check, and the namespace tables themselves must partition."""
    assert check_namespaces({}) == []
    fresh = {
        "vec_measure_speedup": 2.5,
        "vec_mesure_speedup": 2.5,          # the typo under test
        "service_load_speedup_2shard": 1.6,
        "service_laod_wall_s": 1.0,         # and its service twin
    }
    problems = check_namespaces(fresh)
    assert any("vec_mesure_speedup" in p for p in problems)
    assert any("service_laod_wall_s" in p for p in problems)
    assert not any("vec_measure_speedup" in p for p in problems)


def test_population_within_floor(report):
    """The population screen must stay deterministic and hold its floor.

    Re-screens a 16-die slice of the bench's CDR-corner population at
    two chunk sizes and applies
    :func:`~check_regression.check_population`: byte identity of the
    aggregate summary unconditionally, the throughput floor only on
    hosts with the cores to gate it.  Skips against baselines that
    predate the population subsystem.
    """
    from bench_perf_population import GATE_CORES
    from repro.core.executor import _visible_cpu_count
    from repro.pll.population import (
        PopulationSpec,
        ToleranceSpec,
        screen_population,
    )

    baseline = load_committed()
    if baseline is None:
        pytest.skip("no committed BENCH_sweep.json baseline at HEAD")
    if baseline.get("population_throughput_dies_per_s") is None:
        pytest.skip("baseline predates the population subsystem")

    cores = _visible_cpu_count()
    gated = cores >= GATE_CORES
    spec = PopulationSpec(
        corner="cdr180", size=16, seed=2026,
        tolerance=ToleranceSpec(distribution="truncated", rel_sigma=0.05),
        fault_rate=0.10, points=9,
    )
    first, stats = screen_population(
        spec, chunk_size=5, n_workers=min(4, cores)
    )
    second, __ = screen_population(
        spec, chunk_size=16, n_workers=min(4, cores)
    )
    fresh = {
        "population_throughput_dies_per_s": round(stats.dies_per_s, 4),
        "population_byte_identical":
            first.to_json(spec.describe()) == second.to_json(spec.describe()),
        "population_gated": gated,
    }
    problems = check_population(baseline, fresh)

    verdict = "PASS" if not problems else "; ".join(problems)
    report("perf_population_guard", "\n".join([
        f"population      : {spec.size} dies, {cores} visible core(s)",
        f"throughput      : {stats.dies_per_s:.2f} dies/s "
        + (f"(floor {POPULATION_THROUGHPUT_FLOOR:.1f})" if gated
           else "(recorded only; host below gate)"),
        f"byte-identical  : {fresh['population_byte_identical']}",
        f"verdict         : {verdict}",
    ]))
    assert not problems, problems


def test_population_namespace_is_closed():
    """A renamed/misspelled ``population_*`` key must fail the check —
    otherwise the metric silently detaches from its baseline."""
    baseline = {"population_throughput_dies_per_s": 3.0}
    fresh = {
        "population_throughput_dies_per_s": 3.0,
        "population_byte_identical": True,
        "population_gated": False,
        "population_troughput_dies_per_s": 3.0,  # the typo under test
    }
    problems = check_population(baseline, fresh)
    assert any("unknown population key" in p for p in problems)
    # Pre-population baselines tolerate a fresh result without the keys.
    assert check_population({}, {}) == []
    # ...but once the baseline carries the key it can never vanish.
    assert check_population(baseline, {}) != []
    # Broken memory model or determinism fails regardless of gating.
    for flag in ("population_rss_flat", "population_traced_flat",
                 "population_smoke_rss_flat", "population_byte_identical"):
        bad = {
            "population_throughput_dies_per_s": 3.0,
            "population_gated": False,
            flag: False,
        }
        assert check_population(baseline, bad), flag

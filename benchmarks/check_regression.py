"""Guard the sweep perf trajectory against silent serial slowdowns.

``bench_perf_sweep.py`` writes ``benchmarks/results/BENCH_sweep.json``
every time it runs; the committed copy is the performance baseline this
branch inherited.  This checker compares a *fresh* result against that
baseline and fails when the cold serial sweep got more than 20 % slower
— the regression budget for the hot path the paper's test time rests
on.

Two entry points:

* ``python benchmarks/check_regression.py [--fresh PATH] [--threshold F]``
  compares an existing fresh JSON (default: the results file on disk)
  against the committed baseline (``git show HEAD:...``) and exits
  non-zero on regression;
* :func:`compare` — the pure comparison, reused by the tier-2 pytest
  wrapper in ``bench_regression_guard.py``.

Wall-clock measurements on shared machines are noisy, so callers that
*measure* (rather than load) a fresh number should take the best of a
few runs before comparing; the pytest wrapper does exactly that.  The
baseline is machine-relative: re-committing a freshly generated
``BENCH_sweep.json`` re-anchors the budget to the committing host.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import List, Optional

SLOWDOWN_THRESHOLD = 0.20
#: Absolute floor for the vectorised lot engine: the 8-die cold screen
#: must stay >= 5x faster than the scalar cold screen.  Raised in
#: staged steps as the farm's coverage grew — 3x when it only settled
#: linear lanes across dies (PR 5), 5x now that nonlinear HCT4046
#: lanes ride the kernel and stage 1-4 measurements dedup across
#: same-physics dies — wherever the baseline happens to sit.
VEC_BATCH_SPEEDUP_FLOOR = 5.0
#: Absolute floor for tone-level vectorization: a *single-device*
#: 13-tone cold sweep on the vectorised engine must stay >= 1.5x
#: faster than the scalar engine (the bench itself targets >= 2x; the
#: tier-2 gate leaves headroom for noisy shared hosts).
VEC_SINGLE_SPEEDUP_FLOOR = 1.5
#: Absolute floor for the farm on the 8-die corner-varied current-mode
#: lot (104 physics-distinct lanes, no dedup): the ``auto`` screen must
#: stay >= 5x faster than the scalar cold screen.  Replaces the retired
#: closed-form-tier-vs-lockstep ratio, whose two subjects were folded
#: into the one per-lane kernel.  Measured 8.9-11x on a 2-vCPU host;
#: the floor leaves headroom for shared-host timing noise.
CORNER_SCREEN_SPEEDUP_FLOOR = 5.0
#: Absolute floor for the sharded service front-end: with 2 scheduler
#: shards each fanning its job over a 2-worker pool, job throughput on
#: the saturation lot must stay >= 1.5x the width-1 service's (the
#: bench itself gates 1.6x; the checker leaves noise headroom).  Only
#: enforced when the fresh result says the host had the cores to gate
#: it (``service_load_speedup_gated``) — thread shards cannot overlap
#: CPU-bound jobs on a small box, so there the numbers are trajectory
#: records, not promises.
SERVICE_LOAD_SPEEDUP_FLOOR = 1.5
#: Absolute floor for the farm measurement phase: on the heterogeneous
#: fault-library lot (healthy + 7 faults, no dedup anywhere), the
#: vectorized screen must stay >= 2x faster than the scalar cold
#: screen.  This is the lot where the settle farm alone bought ~1.3x —
#: the floor is only clearable with stages 1-4 batched.  Enforced when
#: the fresh run says it was gated (``vec_measure_gated``, >= 2 visible
#: cores keep timer noise off the ratio); byte identity is
#: unconditional.
VEC_MEASURE_SPEEDUP_FLOOR = 2.0
#: Absolute floor for the population screen's throughput on the 96-die
#: CDR-corner run (the bench itself gates 2.0 dies/s; the checker
#: leaves noise headroom).  Only enforced when the fresh run was gated
#: (``population_gated``, >= 4 visible cores) — physics-distinct dies
#: cannot overlap on a small box, so there the numbers are trajectory
#: records, not promises.
POPULATION_THROUGHPUT_FLOOR = 1.5
#: Every ``population_*`` key the population bench is allowed to write.
#: A fresh result carrying a ``population_``-prefixed key outside this
#: set fails the check — renamed or misspelled keys would otherwise
#: detach the trajectory silently (the old name goes stale in the
#: baseline, the new one is never compared).
POPULATION_KNOWN_KEYS = frozenset({
    "population_dies",
    "population_corner",
    "population_points",
    "population_fault_rate",
    "population_visible_cores",
    "population_n_workers",
    "population_chunk_size",
    "population_n_chunks",
    "population_wall_s",
    "population_throughput_dies_per_s",
    "population_yield",
    "population_yield_ci",
    "population_fault_coverage",
    "population_false_reject_rate",
    "population_errors",
    "population_farm_stage_split_s",
    "population_farm_measured_lanes",
    "population_rss_kb_per_chunk",
    "population_rss_flat",
    "population_byte_identical",
    "population_gated",
    "population_throughput_skipped",
    "population_traced_kb_per_chunk",
    "population_traced_flat",
    "population_smoke_dies",
    "population_smoke_wall_s",
    "population_smoke_throughput_dies_per_s",
    "population_smoke_yield",
    "population_smoke_rss_kb_per_chunk",
    "population_smoke_rss_flat",
})
#: Every ``vec_*`` key the sweep benches are allowed to write — the
#: same closed-namespace rule as ``population_*``: a fresh result
#: carrying a prefixed key outside the set fails, so renamed metrics
#: cannot silently detach from their baselines.
VEC_KNOWN_KEYS = frozenset({
    "vec_corner_speedup",
    "vec_corner_screen",
    "vec_batch_wall_s",
    "vec_batch_speedup",
    "vec_batch_byte_identical",
    "vec_single_device_wall_s",
    "vec_single_device_speedup",
    "vec_single_device_bit_identical",
    "vec_hct4046_lot",
    "vec_measure_lot_size",
    "vec_measure_visible_cores",
    "vec_measure_gated",
    "vec_measure_cold_wall_s",
    "vec_measure_vec_wall_s",
    "vec_measure_speedup",
    "vec_measure_byte_identical",
    "vec_measure_lanes",
    "vec_measure_stage_split_s",
})
#: Every ``service_*`` key the service benches are allowed to write.
SERVICE_KNOWN_KEYS = frozenset({
    "service_warm_across_jobs",
    "service_load_jobs",
    "service_load_tones",
    "service_load_visible_cores",
    "service_load_n_workers",
    "service_load_wall_s",
    "service_load_throughput_jobs_per_s",
    "service_load_latency_s",
    "service_load_queue_depth_high_water",
    "service_load_speedup_2shard",
    "service_load_byte_identical",
    "service_load_speedup_gated",
    "service_load_speedup_skipped",
})
#: The closed namespaces, by prefix.  ``population_`` is checked inside
#: :func:`check_population` (its closure predates the others);
#: :func:`check_namespaces` closes the rest and proves the prefixes
#: partition cleanly.
NAMESPACES = {
    "population_": POPULATION_KNOWN_KEYS,
    "service_": SERVICE_KNOWN_KEYS,
    "vec_": VEC_KNOWN_KEYS,
}
#: Keys a newer benchmark deliberately stopped writing.  A fresh result
#: that carries the corner-screen trajectory must no longer carry them;
#: stale copies in an old baseline are ignored.  The ``closed_form_*``
#: keys timed the closed-form tier against the lockstep farm, both now
#: folded into the one per-lane kernel.
RETIRED_KEYS = (
    "cold_wall_s",
    "closed_form_farm_wall_s",
    "closed_form_vec_farm_wall_s",
    "closed_form_batch_speedup",
    "closed_form_bit_identical",
    "closed_form_screen",
)
RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_sweep.json"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_committed() -> Optional[dict]:
    """The baseline BENCH_sweep.json as committed at HEAD, else None."""
    try:
        blob = subprocess.run(
            ["git", "show", "HEAD:benchmarks/results/BENCH_sweep.json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    try:
        return json.loads(blob)
    except json.JSONDecodeError:
        return None


def compare(
    baseline: dict,
    fresh: dict,
    threshold: float = SLOWDOWN_THRESHOLD,
) -> List[str]:
    """Return human-readable violations; empty list means no regression.

    Only the *serial* wall time is budgeted: parallel wall depends on
    the host's core count and warm wall on cache behaviour, so both are
    reported by the benchmark but not gated here.
    """
    problems: List[str] = []
    base_serial = baseline.get("serial_wall_s")
    fresh_serial = fresh.get("serial_wall_s")
    if base_serial is None or fresh_serial is None:
        problems.append("serial_wall_s missing from baseline or fresh result")
        return problems
    if baseline.get("tones") != fresh.get("tones"):
        problems.append(
            f"tone counts differ (baseline {baseline.get('tones')}, "
            f"fresh {fresh.get('tones')}); wall times not comparable"
        )
        return problems
    limit = base_serial * (1.0 + threshold)
    if fresh_serial > limit:
        problems.append(
            f"cold serial sweep regressed: {fresh_serial:.4f} s vs "
            f"baseline {base_serial:.4f} s "
            f"(+{(fresh_serial / base_serial - 1.0) * 100:.0f} %, "
            f"budget +{threshold * 100:.0f} %)"
        )
    if not fresh.get("bit_identical", False):
        problems.append("fresh run did not report bit-identical results")
    return problems


def check_vec_floor(
    baseline: dict,
    fresh: dict,
    floor: float = VEC_BATCH_SPEEDUP_FLOOR,
) -> List[str]:
    """Floor check for the vectorised lot engine's batch speedup.

    Unlike the wall-time budget this is an *absolute* floor, not
    baseline-relative — the acceptance bar is ">= 5x over the scalar
    cold screen", full stop.  Results that predate the key (either
    side) are tolerated: a fresh result is only required to carry
    ``vec_batch_speedup`` once the committed baseline does, so old
    baselines never fail and the key can never silently vanish.
    """
    problems: List[str] = []
    fresh_vec = fresh.get("vec_batch_speedup")
    if fresh_vec is None:
        if baseline.get("vec_batch_speedup") is not None:
            problems.append(
                "vec_batch_speedup missing from the fresh result "
                "(the committed baseline has it)"
            )
        return problems
    if fresh_vec < floor:
        problems.append(
            f"vectorized lot engine below its floor: "
            f"{fresh_vec:.2f}x vs required {floor:.1f}x over the "
            "scalar cold screen"
        )
    if fresh.get("vec_batch_byte_identical") is False:
        problems.append(
            "vectorized lot reports were not byte-identical to scalar"
        )
    return problems


def check_vec_single_floor(
    baseline: dict,
    fresh: dict,
    floor: float = VEC_SINGLE_SPEEDUP_FLOOR,
) -> List[str]:
    """Floor check for tone-level vectorization (single-device sweep).

    Same tolerant-missing discipline as :func:`check_vec_floor`: an
    absolute floor on ``vec_single_device_speedup``, required of the
    fresh result only once the committed baseline carries the key, so
    pre-tone-vectorization baselines never fail and the key can never
    silently vanish afterwards.
    """
    problems: List[str] = []
    fresh_vec = fresh.get("vec_single_device_speedup")
    if fresh_vec is None:
        if baseline.get("vec_single_device_speedup") is not None:
            problems.append(
                "vec_single_device_speedup missing from the fresh result "
                "(the committed baseline has it)"
            )
        return problems
    if fresh_vec < floor:
        problems.append(
            f"single-device vectorized sweep below its floor: "
            f"{fresh_vec:.2f}x vs required {floor:.1f}x over the "
            "scalar cold sweep"
        )
    if fresh.get("vec_single_device_bit_identical") is False:
        problems.append(
            "single-device vectorized sweep was not bit-identical to scalar"
        )
    return problems


def check_corner_screen_floor(
    baseline: dict,
    fresh: dict,
    floor: float = CORNER_SCREEN_SPEEDUP_FLOOR,
) -> List[str]:
    """Floor check for the farm on the corner-varied lot.

    Same tolerant-missing discipline as :func:`check_vec_floor`: an
    absolute floor on ``vec_corner_speedup`` (the scalar cold screen's
    wall over the ``auto`` screen's), required of the fresh result only
    once the committed baseline carries the key.  Byte identity of
    every engine's screen is unconditional.
    """
    problems: List[str] = []
    fresh_speedup = fresh.get("vec_corner_speedup")
    if fresh_speedup is None:
        if baseline.get("vec_corner_speedup") is not None:
            problems.append(
                "vec_corner_speedup missing from the fresh result "
                "(the committed baseline has it)"
            )
        return problems
    if fresh_speedup < floor:
        problems.append(
            f"corner-lot auto screen below its floor: "
            f"{fresh_speedup:.2f}x vs required {floor:.1f}x over the "
            "scalar cold screen"
        )
    screen = fresh.get("vec_corner_screen")
    if screen is not None and screen.get("byte_identical") is False:
        problems.append(
            "corner-lot farm screen reports were not byte-identical "
            "to scalar"
        )
    return problems


def check_service_load(
    baseline: dict,
    fresh: dict,
    floor: float = SERVICE_LOAD_SPEEDUP_FLOOR,
) -> List[str]:
    """Floor check for the sharded sweep-job service under load.

    Same tolerant-missing discipline as :func:`check_vec_floor`: the
    fresh result must carry ``service_load_throughput_jobs_per_s`` only
    once the committed baseline does, so pre-sharding baselines never
    fail and the key can never silently vanish afterwards.  Byte
    identity across shard widths is unconditional; the 2-shard speedup
    floor applies only when the fresh run itself was gated (>= 4
    visible cores) — otherwise the recorded ratio is informational.
    """
    problems: List[str] = []
    fresh_tp = fresh.get("service_load_throughput_jobs_per_s")
    if fresh_tp is None:
        if baseline.get("service_load_throughput_jobs_per_s") is not None:
            problems.append(
                "service_load_throughput_jobs_per_s missing from the "
                "fresh result (the committed baseline has it)"
            )
        return problems
    if fresh.get("service_load_byte_identical") is False:
        problems.append(
            "sharded service reports were not byte-identical to the "
            "width-1 service's"
        )
    speedup = fresh.get("service_load_speedup_2shard")
    if fresh.get("service_load_speedup_gated") and (
        speedup is None or speedup < floor
    ):
        shown = "missing" if speedup is None else f"{speedup:.2f}x"
        problems.append(
            f"2-shard service throughput below its floor: {shown} vs "
            f"required {floor:.1f}x over the width-1 service "
            "(gated host)"
        )
    return problems


def check_vec_measure(
    baseline: dict,
    fresh: dict,
    floor: float = VEC_MEASURE_SPEEDUP_FLOOR,
) -> List[str]:
    """Floor check for the farm measurement phase (stages 1-4).

    Same tolerant-missing discipline as :func:`check_vec_floor`: the
    fresh result must carry ``vec_measure_speedup`` only once the
    committed baseline does, so pre-measurement-phase baselines never
    fail and the key can never silently vanish afterwards.  Byte
    identity of the fault-library screen is unconditional; the 2x
    floor applies only when the fresh run itself was gated
    (``vec_measure_gated``) — elsewhere the ratio is a trajectory
    record, not a promise.
    """
    problems: List[str] = []
    fresh_vm = fresh.get("vec_measure_speedup")
    if fresh_vm is None:
        if baseline.get("vec_measure_speedup") is not None:
            problems.append(
                "vec_measure_speedup missing from the fresh result "
                "(the committed baseline has it)"
            )
        return problems
    if fresh.get("vec_measure_byte_identical") is False:
        problems.append(
            "fault-library vectorized screen reports were not "
            "byte-identical to scalar"
        )
    if fresh.get("vec_measure_gated") and fresh_vm < floor:
        problems.append(
            f"farm measurement phase below its floor: {fresh_vm:.2f}x "
            f"vs required {floor:.1f}x over the scalar cold screen on "
            "the no-dedup fault lot (gated host)"
        )
    return problems


def check_population(
    baseline: dict,
    fresh: dict,
    floor: float = POPULATION_THROUGHPUT_FLOOR,
) -> List[str]:
    """Guard the population-screen trajectory and its key namespace.

    Same tolerant-missing discipline as :func:`check_vec_floor`: the
    fresh result must carry ``population_throughput_dies_per_s`` only
    once the committed baseline does, so pre-population baselines never
    fail and the key can never silently vanish afterwards.  On top of
    that the whole ``population_*`` namespace is closed: any prefixed
    key outside :data:`POPULATION_KNOWN_KEYS` fails, so a renamed
    metric cannot silently detach from its baseline.  Determinism and
    the memory plateaus are unconditional; the throughput floor applies
    only when the fresh run itself was gated (>= 4 visible cores).
    """
    problems: List[str] = []
    unknown = sorted(
        key for key in fresh
        if key.startswith("population_") and key not in POPULATION_KNOWN_KEYS
    )
    for key in unknown:
        problems.append(
            f"unknown population key {key!r} in the fresh result; add it "
            "to POPULATION_KNOWN_KEYS (or fix the benchmark's spelling)"
        )
    fresh_tp = fresh.get("population_throughput_dies_per_s")
    if fresh_tp is None:
        if baseline.get("population_throughput_dies_per_s") is not None:
            problems.append(
                "population_throughput_dies_per_s missing from the "
                "fresh result (the committed baseline has it)"
            )
        return problems
    if fresh.get("population_byte_identical") is False:
        problems.append(
            "population aggregate summaries were not byte-identical "
            "across chunk sizes"
        )
    for key, label in (
        ("population_rss_flat", "RSS"),
        ("population_traced_flat", "traced heap"),
        ("population_smoke_rss_flat", "512-die smoke RSS"),
    ):
        if fresh.get(key) is False:
            problems.append(
                f"population screen {label} grew past its plateau bound "
                "(streaming memory model broken)"
            )
    if fresh.get("population_gated") and fresh_tp < floor:
        problems.append(
            f"population screen throughput below its floor: "
            f"{fresh_tp:.2f} dies/s vs required {floor:.1f} dies/s "
            "(gated host)"
        )
    return problems


def namespace_partition_problems() -> List[str]:
    """Static sanity on the namespace tables themselves.

    Every known key must carry its own namespace's prefix and no
    other's — a key listed under two prefixes (or under a prefix it
    does not start with) would make the closure checks ambiguous.
    Violations here are checker bugs, not benchmark regressions, but
    they fail the run all the same: an ambiguous table cannot guard
    anything.
    """
    problems: List[str] = []
    for prefix, known in NAMESPACES.items():
        for key in sorted(known):
            owners = [p for p in NAMESPACES if key.startswith(p)]
            if owners != [prefix]:
                problems.append(
                    f"namespace table broken: {key!r} is listed under "
                    f"{prefix!r} but matches prefixes {owners!r}"
                )
    return problems


def check_namespaces(fresh: dict) -> List[str]:
    """Close the ``vec_*`` and ``service_*`` key namespaces.

    Mirrors the ``population_*`` closure inside
    :func:`check_population` (kept there for its gating context): any
    prefixed key outside its namespace's known set fails, so a renamed
    or misspelled metric cannot silently detach from its baseline.
    Also asserts the namespace tables partition cleanly via
    :func:`namespace_partition_problems`.
    """
    problems = namespace_partition_problems()
    for prefix in ("vec_", "service_"):
        known = NAMESPACES[prefix]
        for key in sorted(fresh):
            if key.startswith(prefix) and key not in known:
                problems.append(
                    f"unknown {prefix}* key {key!r} in the fresh result; "
                    "add it to the checker's known-key table (or fix "
                    "the benchmark's spelling)"
                )
    return problems


def check_retired_keys(fresh: dict) -> List[str]:
    """A fresh result on the corner-screen trajectory must not resurrect
    keys the benchmark retired (stale merges defeat the trajectory)."""
    if fresh.get("vec_corner_speedup") is None:
        return []
    return [
        f"retired key {key!r} present in the fresh result; "
        "regenerate BENCH_sweep.json with the current benchmark"
        for key in RETIRED_KEYS
        if key in fresh
    ]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when the serial sweep got slower than the "
                    "committed baseline allows.",
    )
    parser.add_argument(
        "--fresh", type=pathlib.Path, default=RESULTS_PATH,
        help="fresh BENCH_sweep.json to judge (default: results dir)",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="baseline JSON file (default: the copy committed at HEAD)",
    )
    parser.add_argument(
        "--threshold", type=float, default=SLOWDOWN_THRESHOLD,
        help="allowed fractional slowdown (default 0.20)",
    )
    args = parser.parse_args(argv)

    if args.baseline is not None:
        baseline = json.loads(args.baseline.read_text())
    else:
        baseline = load_committed()
    if baseline is None:
        print("no committed baseline (new file or no git); nothing to check")
        return 0
    if not args.fresh.exists():
        print(f"fresh result {args.fresh} missing; "
              "run bench_perf_sweep.py first")
        return 2

    fresh = json.loads(args.fresh.read_text())
    problems = compare(baseline, fresh, args.threshold)
    problems += check_vec_floor(baseline, fresh)
    problems += check_vec_single_floor(baseline, fresh)
    problems += check_corner_screen_floor(baseline, fresh)
    problems += check_service_load(baseline, fresh)
    problems += check_vec_measure(baseline, fresh)
    problems += check_population(baseline, fresh)
    problems += check_namespaces(fresh)
    problems += check_retired_keys(fresh)
    if problems:
        for problem in problems:
            print(f"REGRESSION: {problem}")
        return 1
    print(
        f"ok: serial {fresh['serial_wall_s']:.4f} s vs baseline "
        f"{baseline['serial_wall_s']:.4f} s "
        f"(budget +{args.threshold * 100:.0f} %)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

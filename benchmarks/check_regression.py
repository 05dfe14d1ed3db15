"""One gating table for the perf trajectory in ``BENCH_sweep.json``.

The perf benches (``bench_perf_sweep.py``, ``bench_perf_service_load.py``,
``bench_perf_population.py``) write their numbers into
``benchmarks/results/BENCH_sweep.json``; the committed copy is the
baseline this branch inherited.  Every bound on those numbers lives in
one table, :data:`GATES`: a row names a key, a kind, a bound and an
optional gate.

* ``floor`` — the fresh value must be >= the bound (an absolute
  speedup or throughput floor, host-independent by construction);
* ``budget`` — the fresh value must be <= baseline * (1 + bound),
  compared only when both records timed the same number of ``tones``;
* ``true`` — an identity or plateau flag must not read ``False``.

:func:`check` applies every row with three rules: a row's key the
baseline has must not vanish from the fresh record; a flag that reads
``False`` fails whatever any gate says; a bound binds only when its
gate holds (and a gated row whose gate holds must carry a value).  The
fresh record's keys are closed too: a key outside :data:`KNOWN_KEYS`
fails, so a renamed or misspelled metric cannot silently detach from
its baseline, and a key in :data:`RETIRED_KEYS` fails with a hint to
regenerate the file.

Two entry points:

* :func:`gate` — what each bench test ends with
  (``assert not gate(results)``): the table applied to the record the
  test just wrote, with no baseline, so floors and flags bind and the
  baseline-relative budgets wait for the command line;
* ``python benchmarks/check_regression.py [--fresh PATH] [--baseline
  PATH]`` — judges a whole fresh file (default: the results file on
  disk) against the baseline (default: ``git show HEAD:...``) and
  exits non-zero on any problem.

Budgets are machine-relative: re-committing a freshly generated
``BENCH_sweep.json`` re-anchors them to the committing host.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Any, List, NamedTuple, Optional, Tuple


class Gate(NamedTuple):
    """One row of the gating table."""

    #: Dotted path into the record (``vec_hct4046_lot.speedup``).
    key: str
    #: ``"floor"``, ``"budget"`` or ``"true"``.
    kind: str
    bound: float = 0.0
    #: ``(key, minimum)``: the bound binds only when the fresh record's
    #: ``key`` is >= ``minimum`` (``True`` counts as 1).  None: always.
    when: Optional[Tuple[str, float]] = None


GATES = (
    # The cold serial 13-tone sweep (best of 3): the hot path the
    # paper's test time rests on may not get more than 20 % slower.
    Gate("serial_wall_s", "budget", 0.20),
    Gate("bit_identical", "true"),
    # A repeated sweep answered from the measurement cache simulates
    # nothing; typically far above 3x, 1.3x is conservative.
    Gate("warm_speedup", "floor", 1.3),
    # Four workers on >= 4 cores must at least halve the wall; on a
    # dual/tri-core host the pool must not lose to serial by > 1.5x.
    Gate("speedup", "floor", 2.0, when=("visible_cores", 4)),
    Gate("speedup", "floor", 0.67, when=("visible_cores", 2)),
    # The farm on a single device (13 tones, no lot to amortise over).
    Gate("vec_single_device_speedup", "floor", 2.0),
    Gate("vec_single_device_bit_identical", "true"),
    # The 8-die identical lot: a shared measurement cache on the scalar
    # engine, and the farm plus that cache.
    Gate("batch_warm_speedup", "floor", 3.0),
    Gate("batch_byte_identical", "true"),
    Gate("vec_batch_speedup", "floor", 6.0),
    Gate("vec_batch_byte_identical", "true"),
    # The paper's nonlinear 74HCT4046A on the farm (a 4-die lot
    # amortises less, so 2x rather than 6x).
    Gate("vec_hct4046_lot.speedup", "floor", 2.0),
    Gate("vec_hct4046_lot.byte_identical", "true"),
    # The no-dedup fault-library lot: only batched stages 1-4 clear 2x
    # (the settle farm alone bought ~1.3x).  Engine-vs-engine in one
    # process, so gated on every host.
    Gate("vec_measure_speedup", "floor", 2.0),
    Gate("vec_measure_byte_identical", "true"),
    # The 104-lane corner-varied lot (no dedup): auto vs cold scalar.
    Gate("vec_corner_speedup", "floor", 5.0),
    Gate("vec_corner_screen.byte_identical", "true"),
    # A spilled cache warms the next service session.
    Gate("service_warm_across_jobs.speedup", "floor", 1.3),
    Gate("service_warm_across_jobs.byte_identical", "true"),
    # Thread shards overlap CPU-bound jobs only with a pool underneath,
    # so the 2-shard floor binds on hosts with the cores for it.
    Gate("service_load_speedup_2shard", "floor", 1.6,
         when=("service_load_speedup_gated", True)),
    Gate("service_load_byte_identical", "true"),
    # Physics-distinct dies overlap only with a chunk pool (>= 4 cores).
    Gate("population_throughput_dies_per_s", "floor", 2.0,
         when=("population_gated", True)),
    Gate("population_byte_identical", "true"),
    Gate("population_rss_flat", "true"),
    Gate("population_traced_flat", "true"),
    Gate("population_smoke_rss_flat", "true"),
)

#: Every top-level key the perf benches write.
KNOWN_KEYS = frozenset({
    # bench_perf_sweep.py
    "tones", "visible_cores", "serial_wall_s", "warm_wall_s",
    "warm_speedup", "warm_served_tones", "measured_tones", "failed_tones",
    "bit_identical", "n_workers", "parallel_wall_s", "speedup",
    "parallel_skipped",
    "vec_single_device_wall_s", "vec_single_device_speedup",
    "vec_single_device_bit_identical",
    "batch_lot_size", "batch_cold_wall_s", "batch_warm_wall_s",
    "batch_warm_speedup", "batch_cache_hits", "batch_cache_misses",
    "batch_byte_identical",
    "vec_batch_wall_s", "vec_batch_speedup", "vec_batch_byte_identical",
    "vec_hct4046_lot",
    "vec_measure_lot_size", "vec_measure_visible_cores",
    "vec_measure_gated", "vec_measure_cold_wall_s",
    "vec_measure_vec_wall_s", "vec_measure_speedup",
    "vec_measure_byte_identical", "vec_measure_lanes",
    "vec_measure_stage_split_s",
    "vec_corner_speedup", "vec_corner_screen",
    "service_warm_across_jobs",
    # bench_perf_service_load.py
    "service_load_jobs", "service_load_tones",
    "service_load_visible_cores", "service_load_n_workers",
    "service_load_wall_s", "service_load_throughput_jobs_per_s",
    "service_load_latency_s", "service_load_queue_depth_high_water",
    "service_load_speedup_2shard", "service_load_byte_identical",
    "service_load_speedup_gated", "service_load_speedup_skipped",
    # bench_perf_population.py
    "population_dies", "population_corner", "population_points",
    "population_fault_rate", "population_visible_cores",
    "population_n_workers", "population_chunk_size",
    "population_n_chunks", "population_wall_s",
    "population_throughput_dies_per_s", "population_yield",
    "population_yield_ci", "population_fault_coverage",
    "population_false_reject_rate", "population_errors",
    "population_farm_stage_split_s", "population_farm_measured_lanes",
    "population_rss_kb_per_chunk", "population_rss_flat",
    "population_byte_identical", "population_gated",
    "population_throughput_skipped", "population_traced_kb_per_chunk",
    "population_traced_flat", "population_smoke_dies",
    "population_smoke_wall_s", "population_smoke_throughput_dies_per_s",
    "population_smoke_yield", "population_smoke_rss_kb_per_chunk",
    "population_smoke_rss_flat",
})
#: Keys a newer benchmark deliberately stopped writing.  ``cold_wall_s``
#: duplicated ``serial_wall_s``; the ``closed_form_*`` keys timed the
#: closed-form tier against the lockstep farm, both now folded into the
#: one per-lane kernel.  Stale copies in an old baseline are ignored.
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


def _lookup(record: dict, key: str) -> Any:
    """The value at dotted ``key`` in ``record``, else None."""
    for part in key.split("."):
        if not isinstance(record, dict):
            return None
        record = record.get(part)
    return record


def check(baseline: dict, fresh: dict) -> List[str]:
    """Every :data:`GATES` row applied; empty list means no problem."""
    problems = [
        f"retired key {key!r} in the fresh result; regenerate "
        "BENCH_sweep.json with the current benchmarks"
        if key in RETIRED_KEYS else
        f"unknown key {key!r} in the fresh result; add it to KNOWN_KEYS "
        "(or fix the benchmark's spelling)"
        for key in sorted(fresh)
        if key not in KNOWN_KEYS
    ]
    for row in GATES:
        value = _lookup(fresh, row.key)
        base = _lookup(baseline, row.key)
        held = row.when is None or (
            (_lookup(fresh, row.when[0]) or 0) >= row.when[1]
        )
        gate_note = "" if row.when is None else f" (gated on {row.when[0]})"
        if value is None:
            if base is not None:
                problems.append(
                    f"{row.key} missing from the fresh result "
                    "(the baseline has it)"
                )
            elif row.when is not None and held:
                problems.append(f"{row.key} missing{gate_note}")
        elif row.kind == "true":
            if value is False:
                problems.append(f"{row.key} is False")
        elif not held:
            continue
        elif row.kind == "floor":
            if value < row.bound:
                problems.append(
                    f"{row.key} below its floor: {value:.3f} vs "
                    f"required {row.bound:g}{gate_note}"
                )
        elif base is None:
            continue
        elif baseline.get("tones") != fresh.get("tones"):
            problems.append(
                f"tone counts differ (baseline {baseline.get('tones')}, "
                f"fresh {fresh.get('tones')}); {row.key} not comparable"
            )
        elif value > base * (1.0 + row.bound):
            problems.append(
                f"{row.key} over budget: {value:.4f} vs baseline "
                f"{base:.4f} (+{(value / base - 1.0) * 100:.0f} %, "
                f"budget +{row.bound * 100:.0f} %)"
            )
    return problems


def gate(fresh: dict) -> List[str]:
    """The table applied to one bench's fresh record, without a baseline."""
    return check({}, fresh)


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


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Judge a fresh BENCH_sweep.json against the gating "
                    "table and the committed baseline.",
    )
    parser.add_argument(
        "--fresh", type=pathlib.Path, default=RESULTS_PATH,
        help="fresh BENCH_sweep.json to judge (default: results dir)",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="baseline JSON file (default: the copy committed at HEAD)",
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
              "run the perf benches first")
        return 2

    problems = check(baseline, json.loads(args.fresh.read_text()))
    if problems:
        for problem in problems:
            print(f"REGRESSION: {problem}")
        return 1
    print(f"ok: {len(GATES)} gating rows hold against the baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

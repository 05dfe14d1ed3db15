"""Self-contained per-device test report (markdown).

Production test flows archive one artefact per device; this renders
everything a failure-analysis engineer needs from one BIST run — set-up,
per-tone table, extracted parameters, limit verdicts and (for failures)
the diagnosis ranking — as plain markdown.

:func:`batch_device_reports` runs the measure-and-render pipeline for a
whole lot of devices; like the sweep executor it is serial by default
and fans devices out over a process pool for ``n_workers > 1``.  Each
device is an independent (PLL, stimulus, config, plan) job, so the
reports come back in request order and are byte-identical to the serial
run.  A device that cannot be measured — a dead reference tone, a
mis-configured request, any per-device error — still yields an artefact
(a failure-stub report) because production archives one document per
device, pass or fail; one bad device never aborts the lot.

Passing a shared :class:`~repro.core.warm.LockStateCache` warm-starts
the whole screen: the lot settles each (stimulus, tone, device-physics)
family once and every behaviourally identical device thereafter restores
the settled state instead of re-simulating it — bit-identical by the
snapshot guarantee, so warm lot reports equal cold ones byte for byte.
Under ``n_workers > 1`` the entries of each chunk's physics families
ride to its worker inside its one chunk payload, and the settled states
and cache lookups workers make are folded back into the parent cache on
return (:mod:`repro.core.warm` owns both halves of that shipping).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.sensitivity import DiagnosisCandidate
from repro.core.architecture import BISTConfig
from repro.core.limits import LimitReport, TestLimits
from repro.core.monitor import SweepPlan, SweepResult, TransferFunctionMonitor
from repro.core.warm import (
    LockStateCache,
    ToneMeasurementCache,
    WorkerReturn,
    adopt_worker_return,
    run_with_shipment,
    warm_shipment,
)
from repro.engines import FARM_ENGINES, validate_engine
from repro.errors import ConfigurationError, MeasurementError
from repro.pll.config import ChargePumpPLL
from repro.stimulus.modulation import ModulatedStimulus

__all__ = [
    "device_report",
    "DeviceReportRequest",
    "DeviceScreenOutcome",
    "batch_device_reports",
    "batch_device_screen",
]


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n{body}\n"


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.6g}"
        return str(cell)

    lines = [
        "| " + " | ".join(headers) + " |",
        "| " + " | ".join("---" for __ in headers) + " |",
    ]
    lines += [
        "| " + " | ".join(fmt(c) for c in row) + " |" for row in rows
    ]
    return "\n".join(lines)


def device_report(
    pll: ChargePumpPLL,
    sweep: SweepResult,
    limits: Optional[LimitReport] = None,
    diagnosis: Optional[Sequence[DiagnosisCandidate]] = None,
    include_timing: bool = False,
) -> str:
    """Render one device's BIST outcome as a markdown document.

    Parameters
    ----------
    pll:
        The device under test (identification/configuration header).
    sweep:
        The completed transfer-function sweep.
    limits:
        Optional limit-comparison outcome (adds the verdict section).
    diagnosis:
        Optional ranked single-component hypotheses (usually only
        attached for failing devices).
    include_timing:
        Add the per-tone wall-time breakdown (settle/monitor/measure,
        warm vs cold start).  Off by default because wall time is
        non-deterministic — archived reports stay byte-identical across
        reruns and executors unless timing is explicitly requested.
    """
    parts = [f"# BIST report — {pll.name}\n"]

    parts.append(_section("Device", _md_table(
        ["parameter", "value"],
        [
            ["reference frequency", f"{pll.f_ref:g} Hz"],
            ["feedback divider N", pll.n],
            ["nominal output", f"{pll.f_out_nominal:g} Hz"],
            ["pump", repr(pll.pump)],
            ["loop filter", repr(pll.loop_filter)],
        ],
    )))

    resp = sweep.response
    tone_rows = [
        [f"{f:.3g}", f"{m:+.2f}", f"{p:+.1f}"]
        for f, m, p in zip(
            resp.frequencies_hz, resp.magnitude_db, resp.phase_deg
        )
    ]
    for f_mod, reason in sorted(sweep.failed_tones.items()):
        tone_rows.append([f"{f_mod:.3g}", "—", f"FAILED: {reason}"])
    parts.append(_section(
        f"Measured transfer function [{sweep.stimulus_label}]",
        _md_table(["f_mod (Hz)", "magnitude (dB)", "phase (deg)"],
                  tone_rows),
    ))

    timed = [
        m for m in sweep.measurements if getattr(m, "timing", None) is not None
    ] if include_timing else []
    if timed:
        rows = [
            [
                f"{m.f_mod:.3g}",
                f"{m.timing.settle_s * 1e3:.1f}",
                f"{m.timing.monitor_s * 1e3:.1f}",
                f"{m.timing.measure_s * 1e3:.1f}",
                "warm" if m.timing.warm else "cold",
            ]
            for m in timed
        ]
        total = sum(m.timing.total_s for m in timed)
        warm = sum(1 for m in timed if m.timing.warm)
        parts.append(_section(
            f"Test time — {total:.2f} s total, {warm}/{len(timed)} tones warm",
            _md_table(
                ["f_mod (Hz)", "settle (ms)", "monitor (ms)",
                 "measure (ms)", "start"],
                rows,
            ),
        ))

    if sweep.estimated is not None:
        est = sweep.estimated
        parts.append(_section("Extracted parameters", _md_table(
            ["parameter", "value"],
            [
                ["natural frequency", f"{est.fn_hz:.3f} Hz"],
                ["damping", f"{est.zeta:.4f}"],
                ["peaking", f"{est.peak_db:+.2f} dB @ {est.f_peak_hz:.3f} Hz"],
                ["f3dB", f"{est.f3db_hz:.3f} Hz" if est.f3db_hz else
                 "beyond sweep"],
            ],
        )))
    else:
        parts.append(_section("Extracted parameters",
                              "_not extractable from this sweep_"))

    if limits is not None:
        verdict = "**PASS**" if limits.passed else "**FAIL**"
        rows = [
            [c.name, f"{c.value:.4g}", f"[{c.low:.4g}, {c.high:.4g}]",
             "pass" if c.passed else "FAIL"]
            for c in limits.checks
        ]
        parts.append(_section(
            f"Limit comparison — {verdict}",
            _md_table(["check", "measured", "band", "result"], rows),
        ))

    if diagnosis:
        rows = [
            [i + 1, c.component, f"{c.scale:.2f}x", f"{c.residual:.4f}"]
            for i, c in enumerate(diagnosis)
        ]
        parts.append(_section(
            "Diagnosis (single-component hypotheses, best first)",
            _md_table(["rank", "component", "best-fit scale", "residual"],
                      rows),
        ))

    return "\n".join(parts)


@dataclass(frozen=True)
class DeviceReportRequest:
    """One device's measure-and-report job (picklable by construction).

    Carries everything needed to run the sweep *and* render the report
    in a worker process: the device, the stimulus family, the test
    hardware configuration, the sweep plan, and (optionally) the limits
    to verdict against.
    """

    pll: ChargePumpPLL
    stimulus: ModulatedStimulus
    plan: SweepPlan
    config: BISTConfig = BISTConfig()
    limits: Optional[TestLimits] = None


def _failure_stub(pll: ChargePumpPLL, reason: str) -> str:
    """Markdown artefact for a device whose sweep could not complete."""
    return "\n".join([
        f"# BIST report — {pll.name}\n",
        _section("Verdict — **FAIL (sweep aborted)**", reason),
    ])


def _measure_one(
    request: DeviceReportRequest,
    cache: Optional[LockStateCache],
    measurement_cache: Optional[ToneMeasurementCache],
) -> Tuple[SweepResult, Optional[LimitReport]]:
    """Run one device's sweep and, when it has limits, its verdict."""
    monitor = TransferFunctionMonitor(
        request.pll, request.stimulus, request.config, cache=cache
    )
    if request.limits is not None:
        return monitor.run_and_check(
            request.plan, request.limits, measurement_cache=measurement_cache
        )
    sweep = monitor.run(request.plan, measurement_cache=measurement_cache)
    return sweep, None


def _render_one(
    request: DeviceReportRequest,
    cache: Optional[LockStateCache] = None,
    measurement_cache: Optional[ToneMeasurementCache] = None,
) -> str:
    """Worker: measure one device and render its report (module-level,
    picklable).

    *Any* per-device failure — a dead reference tone, a configuration
    that fails validation, an unexpected error in the measure/render
    pipeline — becomes a failure-stub artefact rather than an exception:
    a lot screen archives one document per device and one bad device
    must never abort the remaining devices (least of all by killing a
    pool map mid-lot).

    ``measurement_cache`` (vectorized serial screens) shares finished
    stage 1–4 measurements across behaviourally identical dies; reports
    stay byte-identical because timing never reaches the artefact.
    """
    try:
        sweep, verdict = _measure_one(request, cache, measurement_cache)
        return device_report(request.pll, sweep, limits=verdict)
    except MeasurementError as exc:
        # The reference tone died: no transfer function exists, but the
        # lot archive still needs an artefact for this device.
        return _failure_stub(request.pll, str(exc))
    except Exception as exc:  # noqa: BLE001 - any per-device error stubs
        return _failure_stub(request.pll, f"{type(exc).__name__}: {exc}")


@dataclass(frozen=True)
class DeviceScreenOutcome:
    """One device's numeric screen verdict (picklable, no markdown).

    The population engine aggregates tens of thousands of these; parsing
    the archived markdown back into numbers would be both slow and
    brittle, so the measure pipeline exposes its numeric endpoint
    directly.  ``error`` is ``None`` for a completed sweep (even a
    failing one) and carries the failure-stub reason otherwise;
    extracted parameters are ``None`` whenever the sweep could not
    produce them.  ``passed`` is the limit verdict — a device that
    errored, or that has no extractable parameters, never passes.
    """

    name: str
    passed: bool
    error: Optional[str] = None
    fn_hz: Optional[float] = None
    zeta: Optional[float] = None
    f3db_hz: Optional[float] = None
    peak_db: Optional[float] = None
    failed_tones: int = 0
    failed_checks: Tuple[str, ...] = ()


def _screen_one(
    request: DeviceReportRequest,
    cache: Optional[LockStateCache] = None,
    measurement_cache: Optional[ToneMeasurementCache] = None,
) -> DeviceScreenOutcome:
    """Worker: measure one device into a numeric outcome (module-level,
    picklable).  Mirrors :func:`_render_one`'s failure semantics — any
    per-device error becomes an outcome with ``error`` set, never an
    exception that could abort the lot."""
    try:
        sweep, verdict = _measure_one(request, cache, measurement_cache)
    except MeasurementError as exc:
        return DeviceScreenOutcome(
            name=request.pll.name, passed=False, error=str(exc)
        )
    except Exception as exc:  # noqa: BLE001 - any per-device error stubs
        return DeviceScreenOutcome(
            name=request.pll.name, passed=False,
            error=f"{type(exc).__name__}: {exc}",
        )
    est = sweep.estimated
    if verdict is not None:
        passed = verdict.passed
        failed_checks = tuple(
            c.name for c in verdict.checks if not c.passed
        )
    else:
        passed = est is not None
        failed_checks = ()
    return DeviceScreenOutcome(
        name=request.pll.name,
        passed=passed,
        error=None,
        fn_hz=None if est is None else est.fn_hz,
        zeta=None if est is None else est.zeta,
        f3db_hz=None if est is None else est.f3db_hz,
        peak_db=None if est is None else est.peak_db,
        failed_tones=len(sweep.failed_tones),
        failed_checks=failed_checks,
    )


# (chunk of (lot_index, request), exported warm entries or None,
#  exported finished-measurement entries or None)
_BatchChunkPayload = Tuple[
    Tuple[Tuple[int, DeviceReportRequest], ...],
    Optional[Tuple],
    Optional[Tuple],
]


def _run_chunk(payload: _BatchChunkPayload, one: Callable):
    """Measure one chunk of the lot through ``one`` (module-level
    helper shared by the render and screen chunk workers).

    The chunk shares one local :class:`~repro.core.warm.LockStateCache`
    seeded from the parent's shipment
    (:func:`~repro.core.warm.run_with_shipment`) when warm screening is
    on — so the worker's first device of each physics family settles
    cold (unless the parent already knew it) and every later one
    restores.  Returns the ``(lot_index, result)`` pairs plus the
    worker's discoveries and lookup counts, for the parent to fold back.

    Finished stage 1-4 measurements ship the same way into a local
    :class:`~repro.core.warm.ToneMeasurementCache` — the farm's
    premeasure pass filled the parent's cache before the pool split the
    lot, so a chunk's dies answer dedupable tones without replaying the
    counters.  Worker-discovered measurements are *not* merged back:
    the parent's measurement cache dies with the batch call, so there
    is nothing for them to warm.
    """
    chunk, warm_entries, measurement_entries = payload
    local_measurements: Optional[ToneMeasurementCache] = None
    if measurement_entries is not None:
        local_measurements = ToneMeasurementCache(
            max_entries=max(
                1024, len(measurement_entries) + 16 * len(chunk)
            )
        )
        local_measurements.merge(measurement_entries)
    return run_with_shipment(
        warm_entries,
        16 * len(chunk),
        lambda cache: [
            (index, one(request, cache=cache,
                        measurement_cache=local_measurements))
            for index, request in chunk
        ],
    )


def _render_chunk(
    payload: _BatchChunkPayload,
) -> Tuple[List[Tuple[int, str]], Optional[WorkerReturn]]:
    """Worker: measure and render one chunk of the lot (picklable)."""
    return _run_chunk(payload, _render_one)


def _screen_chunk(
    payload: _BatchChunkPayload,
) -> Tuple[
    List[Tuple[int, DeviceScreenOutcome]], Optional[WorkerReturn]
]:
    """Worker: measure one chunk into numeric outcomes (picklable)."""
    return _run_chunk(payload, _screen_one)


def batch_device_reports(
    requests: Sequence[DeviceReportRequest],
    n_workers: int = 1,
    cache: Optional[LockStateCache] = None,
    engine: str = "scalar",
) -> List[str]:
    """Measure and render a lot of devices, one report per request.

    Serial for ``n_workers == 1``; a process pool otherwise.  Devices
    are independent, and chunks are re-assembled by lot index, so the
    returned reports match ``requests`` index-for-index and are
    byte-identical whichever way they ran.

    ``cache`` opts the lot into **warm screening**: every device's
    monitor draws settled stage-0 states from (and contributes them to)
    the one shared :class:`~repro.core.warm.LockStateCache`.  Entries
    are keyed by device *physics signature*, so a lot of
    same-configuration dies — or repeated injected faults across a
    fault-library screen — settles each (stimulus, tone) family once
    and serves the rest warm, with reports byte-identical to the cold
    run (the snapshot guarantee).  Under ``n_workers > 1`` the cache's
    entries ship to each worker in its chunk payload and the workers'
    discoveries are merged back afterwards, leaving ``cache`` as warm
    as a serial screen would have.  ``None`` (default) screens every
    device cold, preserving the historical behaviour.

    ``engine`` selects the lot's farm engine.  ``"vectorized"``
    first runs every unique (physics, stimulus, tone) lane of the
    whole lot on the settle farm's per-lane kernel
    (:func:`repro.pll.lot.premeasure_lot`) — one pass over the lot's
    deduplicated settle *and* stage 1-4 measurement work — and then
    screens warm exactly as above.  ``"closed_form"`` and ``"auto"``
    name the same farm.  Reports stay
    byte-identical to the scalar engine on every path (the snapshot
    guarantee); only wall time changes.  A private cache is created
    when ``cache`` is ``None`` so the presettled states are actually
    served.
    """
    return _batch_measure(
        requests, n_workers, cache, engine, _render_one, _render_chunk,
        what="report",
    )


def batch_device_screen(
    requests: Sequence[DeviceReportRequest],
    n_workers: int = 1,
    cache: Optional[LockStateCache] = None,
    engine: str = "scalar",
) -> List[DeviceScreenOutcome]:
    """Measure a lot of devices into numeric outcomes, one per request.

    The structured sibling of :func:`batch_device_reports`: the same
    measure pipeline (serial or pooled, warm cache, engine presettle,
    per-device failure isolation) but returning
    :class:`DeviceScreenOutcome` records instead of markdown — this is
    the endpoint the streaming population engine aggregates, where
    rendering (and then re-parsing) an archival document per die would
    dominate the screen.  Outcomes come back in request order and are
    identical whichever way they ran, by the same snapshot guarantee
    that makes reports byte-identical.
    """
    return _batch_measure(
        requests, n_workers, cache, engine, _screen_one, _screen_chunk,
        what="outcome",
    )


def _batch_measure(
    requests: Sequence[DeviceReportRequest],
    n_workers: int,
    cache: Optional[LockStateCache],
    engine: str,
    one: Callable,
    chunk_worker: Callable,
    what: str,
) -> List:
    """Shared measure-a-lot machinery behind reports and screens."""
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers!r}")
    validate_engine(engine)
    jobs = list(requests)
    measurement_cache: Optional[ToneMeasurementCache] = None
    if engine in FARM_ENGINES and jobs:
        if cache is None:
            cache = LockStateCache(max_entries=max(256, 16 * len(jobs)))
        # Lazy import: the farm (and NumPy array machinery) only loads
        # for lots that opt into it.
        from repro.pll.lot import premeasure_lot

        # The lot also shares *finished* measurements: behaviourally
        # identical dies measure each tone once.  The farm fills this
        # cache up front — every lane runs stages 1-4 on the farm's
        # kernel, not just the settle — and every die's sweep then
        # answers its tones from the cache.  Reports stay byte-equal:
        # a hit differs only in the comparison-excluded timing, an
        # in-farm MeasurementError is published as its exact text, and
        # a lane the farm ejected is simply absent, so the sweep
        # measures it itself.
        measurement_cache = ToneMeasurementCache(
            max_entries=max(1024, 16 * len(jobs))
        )
        premeasure_lot(
            [(job.pll, job.stimulus, job.config, job.plan.frequencies_hz)
             for job in jobs],
            cache,
            measurement_cache,
            engine=engine,
        )
    workers = min(n_workers, len(jobs))
    if workers <= 1:
        return [
            one(job, cache=cache, measurement_cache=measurement_cache)
            for job in jobs
        ]
    # Stride the lot so each worker's chunk samples the request order
    # evenly (mirrors the tone executor's cost-spreading dispatch).
    chunks = [
        tuple((i, jobs[i]) for i in range(w, len(jobs), workers))
        for w in range(workers)
    ]
    # Each chunk ships only its own physics families' warm entries —
    # for a heterogeneous population lot the payload stays proportional
    # to the chunk, not to everything the shared cache has ever seen.
    payloads: List[_BatchChunkPayload] = []
    for chunk in chunks:
        plls = [request.pll for __, request in chunk]
        payloads.append((
            chunk,
            warm_shipment(cache, plls),
            warm_shipment(measurement_cache, plls),
        ))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk_results = list(pool.map(chunk_worker, payloads))
    results: List[Optional[object]] = [None] * len(jobs)
    for produced, returned in chunk_results:
        adopt_worker_return(cache, returned)
        for index, value in produced:
            results[index] = value
    missing = [i for i, value in enumerate(results) if value is None]
    if missing:
        raise MeasurementError(
            f"batch pool returned no {what} for lot indices {missing!r}"
        )
    return results

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

Passing a shared :class:`~repro.core.warm.ToneMeasurementCache`
warm-starts the whole screen: the lot measures each (stimulus, tone,
device-physics) family once and every behaviourally identical device
thereafter is answered with the finished tone instead of re-simulating
it — a hit differs only in the comparison-excluded timing, so warm lot
reports equal cold ones byte for byte.  Under ``n_workers > 1`` the lot
is cut into contiguous chunks in lot order, so a same-physics family
that sits together (the population engine sorts families adjacent)
lands in one worker.  Warm state moves one way only, and only as
finished tones: each chunk's payload carries the lot's finished
measurements for its own physics families
(:func:`~repro.core.warm.warm_shipment`), seeding one fresh local cache
the chunk's dies share.  Only the per-device results travel back.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.sensitivity import DiagnosisCandidate
from repro.core.architecture import BISTConfig
from repro.core.limits import LimitReport, TestLimits
from repro.core.monitor import SweepPlan, SweepResult, TransferFunctionMonitor
from repro.core.warm import ToneMeasurementCache, warm_shipment
from repro.engines import validate_engine
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
    cache: Optional[ToneMeasurementCache],
) -> Tuple[SweepResult, Optional[LimitReport]]:
    """Run one device's sweep and, when it has limits, its verdict.

    Always the scalar sweep: under ``engine="auto"`` the lot's one farm
    pass has already filled ``cache``, and a per-device farm could only
    retry the lanes it left behind.
    """
    monitor = TransferFunctionMonitor(
        request.pll, request.stimulus, request.config
    )
    if request.limits is not None:
        return monitor.run_and_check(
            request.plan, request.limits, engine="scalar",
            measurement_cache=cache,
        )
    sweep = monitor.run(request.plan, engine="scalar",
                        measurement_cache=cache)
    return sweep, None


def _render_one(
    request: DeviceReportRequest,
    cache: Optional[ToneMeasurementCache] = None,
) -> str:
    """Worker: measure one device and render its report (module-level,
    picklable).

    *Any* per-device failure — a dead reference tone, a configuration
    that fails validation, an unexpected error in the measure/render
    pipeline — becomes a failure-stub artefact rather than an exception:
    a lot screen archives one document per device and one bad device
    must never abort the remaining devices (least of all by killing a
    pool map mid-lot).

    ``cache`` shares finished tones across behaviourally identical
    dies; reports stay byte-identical because timing never reaches the
    artefact.
    """
    try:
        sweep, verdict = _measure_one(request, cache)
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
    cache: Optional[ToneMeasurementCache] = None,
) -> DeviceScreenOutcome:
    """Worker: measure one device into a numeric outcome (module-level,
    picklable).  Mirrors :func:`_render_one`'s failure semantics — any
    per-device error becomes an outcome with ``error`` set, never an
    exception that could abort the lot."""
    try:
        sweep, verdict = _measure_one(request, cache)
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


def _run_chunk(one: Callable, payload: tuple) -> List[Tuple[int, object]]:
    """Worker: measure one chunk of the lot through ``one`` (module-level,
    so ``functools.partial(_run_chunk, one)`` pickles).

    ``payload`` is ``(chunk of (lot_index, request), the chunk's
    finished-tone entries or None)``.  ``None`` is a cold lot: every
    die runs cold.  Otherwise the entries — what the farm's premeasure
    pass published before the pool split the lot — seed one fresh local
    :class:`~repro.core.warm.ToneMeasurementCache` the chunk's dies
    share, the serial path's rule.  Only the ``(lot_index, result)``
    pairs travel back.
    """
    chunk, measurements = payload
    cache: Optional[ToneMeasurementCache] = None
    if measurements is not None:
        cache = ToneMeasurementCache(
            max_entries=max(1024, len(measurements) + 16 * len(chunk))
        )
        cache.merge(measurements)
    return [(index, one(request, cache=cache)) for index, request in chunk]


def batch_device_reports(
    requests: Sequence[DeviceReportRequest],
    n_workers: int = 1,
    cache: Optional[ToneMeasurementCache] = None,
    engine: str = "auto",
) -> List[str]:
    """Measure and render a lot of devices, one report per request.

    Serial for ``n_workers == 1``; a process pool otherwise.  Devices
    are independent, and chunks are re-assembled by lot index, so the
    returned reports match ``requests`` index-for-index and are
    byte-identical whichever way they ran.

    ``cache`` opts the lot into **warm screening**: every device's
    monitor answers its tones from (and publishes them to) the one
    shared :class:`~repro.core.warm.ToneMeasurementCache`.  Entries are
    keyed by device *physics signature*, so a lot of same-configuration
    dies — or repeated injected faults across a fault-library screen —
    measures each (stimulus, tone) family once and answers the rest
    warm, with reports byte-identical to the cold run.  Under
    ``n_workers > 1`` the cache stays in this process: each worker
    screens its contiguous chunk on a fresh local cache seeded with the
    chunk's share of ``cache``, so same-physics dies within a chunk
    share a tone, and nothing folds back — ``cache`` keeps only what
    was there before plus what the farm pass published.  With ``None``
    (default) the scalar engine screens every device cold.

    ``engine="auto"`` (default) first runs every unique (physics,
    stimulus, tone, config) lane of the whole lot through Table 2
    stages 0–4 on the settle farm's per-lane kernel
    (:func:`repro.pll.lot.premeasure_lot`) and then screens warm
    exactly as above; a private cache is created when ``cache`` is
    ``None`` so the farm's finished tones are actually served.
    ``"scalar"`` runs no farm: the reference.  Reports are
    byte-identical on both engines and every path; only wall time
    changes.
    """
    return _batch_measure(
        requests, n_workers, cache, engine, _render_one, what="report",
    )


def batch_device_screen(
    requests: Sequence[DeviceReportRequest],
    n_workers: int = 1,
    cache: Optional[ToneMeasurementCache] = None,
    engine: str = "auto",
) -> List[DeviceScreenOutcome]:
    """Measure a lot of devices into numeric outcomes, one per request.

    The structured sibling of :func:`batch_device_reports`: the same
    measure pipeline (serial or pooled, warm cache, farm premeasure,
    per-device failure isolation) but returning
    :class:`DeviceScreenOutcome` records instead of markdown — this is
    the endpoint the streaming population engine aggregates, where
    rendering (and then re-parsing) an archival document per die would
    dominate the screen.  Outcomes come back in request order and are
    identical whichever way they ran, just as reports are
    byte-identical.
    """
    return _batch_measure(
        requests, n_workers, cache, engine, _screen_one, what="outcome",
    )


def _batch_measure(
    requests: Sequence[DeviceReportRequest],
    n_workers: int,
    cache: Optional[ToneMeasurementCache],
    engine: str,
    one: Callable,
    what: str,
) -> List:
    """Shared measure-a-lot machinery behind reports and screens."""
    if n_workers < 1:
        raise ConfigurationError(f"n_workers must be >= 1, got {n_workers!r}")
    jobs = list(requests)
    if validate_engine(engine) == "auto" and jobs:
        if cache is None:
            cache = ToneMeasurementCache(max_entries=max(1024, 16 * len(jobs)))
        # Lazy import: the farm (and NumPy array machinery) only loads
        # for lots that opt into it.
        from repro.pll.lot import premeasure_lot

        # The farm fills the cache up front — every unique lane runs
        # stages 0-4 on the farm's kernel — and every die's sweep then
        # answers its tones from the cache.  Reports stay byte-equal:
        # a hit differs only in the comparison-excluded timing, an
        # in-farm MeasurementError is published as its exact text, and
        # a lane the farm skipped or ejected is simply absent, so the
        # first sweep that needs it measures it itself.
        premeasure_lot(
            [(job.pll, job.stimulus, job.config, job.plan.frequencies_hz)
             for job in jobs],
            cache,
        )
    workers = min(n_workers, len(jobs))
    if workers <= 1:
        return [one(job, cache=cache) for job in jobs]
    # Contiguous chunks in lot order: a same-physics family that sits
    # together in the lot lands in one worker and shares its tones.
    bounds = [len(jobs) * w // workers for w in range(workers + 1)]
    chunks = [
        tuple((i, jobs[i]) for i in range(bounds[w], bounds[w + 1]))
        for w in range(workers)
    ]
    # Each chunk ships only its own physics families' finished tones —
    # for a heterogeneous population lot the payload stays proportional
    # to the chunk, not to everything the lot has measured.
    payloads = [
        (chunk, warm_shipment(cache, [request.pll for __, request in chunk]))
        for chunk in chunks
    ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk_results = list(pool.map(partial(_run_chunk, one), payloads))
    results: List[Optional[object]] = [None] * len(jobs)
    for produced in chunk_results:
        for index, value in produced:
            results[index] = value
    missing = [i for i, value in enumerate(results) if value is None]
    if missing:
        raise MeasurementError(
            f"batch pool returned no {what} for lot indices {missing!r}"
        )
    return results

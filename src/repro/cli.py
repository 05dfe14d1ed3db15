"""Command-line interface: ``python -m repro <command>``.

Commands
--------
theory     print the reconstructed design point and its theoretical Bode plot
sweep      run the full BIST transfer-function sweep on the paper PLL
selftest   run the four-step self-test (lock / nominal / droop / sweep)
screen     push the macro-fault library through the BIST with limits
lot        batch-screen a lot of devices (warm-state-shared, one report each)
diagnose   rank single-component explanations for a measured (fn, zeta)
plan       DCO / detector / counter feasibility checks for DfT planning
serve      run the sweep-job service (unix socket and/or TCP)
submit     submit a sweep job to a running service (optionally watch it)
watch      stream a submitted job's tone results as they finish
status     show a running service's queue / cache / throughput snapshot
shutdown   ask a running service to drain and exit

Every measurement command operates on the reconstructed Table 3 device;
``--fault`` injects a defect from the library first (see ``screen`` for
the labels).  The ``serve``/``submit``/``watch`` family speaks the
JSON-lines protocol of :mod:`repro.service` — jobs stream tone results
while the sweep is still running, and the service's warm cache persists
to disk between sessions.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import (
    PLLLinearModel,
    SecondOrderParameters,
    diagnose_shift,
)
from repro.core import (
    PLLSelfTest,
    TestLimits,
    TransferFunctionMonitor,
)
from repro.engines import ENGINES
from repro.errors import MeasurementError, ReproError
from repro.pll.faults import FAULT_LIBRARY, apply_fault
from repro.presets import (
    paper_bist_config,
    paper_pll,
    paper_stimulus,
    paper_sweep,
)
from repro.reporting import ascii_bode, format_table
from repro.stimulus.dco import DCO

__all__ = ["main", "build_parser"]


def _device(args) -> "object":
    pll = paper_pll(nonlinear=getattr(args, "nonlinear", False))
    fault_label = getattr(args, "fault", None)
    if fault_label:
        if fault_label not in FAULT_LIBRARY:
            known = ", ".join(sorted(FAULT_LIBRARY))
            raise SystemExit(
                f"unknown fault {fault_label!r}; known faults: {known}"
            )
        pll = apply_fault(pll, FAULT_LIBRARY[fault_label])
    return pll


def _golden_limits(rel_tol: float = 0.25) -> TestLimits:
    golden_pll = paper_pll()
    golden = SecondOrderParameters(
        golden_pll.natural_frequency(), golden_pll.damping()
    )
    return TestLimits.from_golden(golden, rel_tol=rel_tol, peak_tol_db=1.5)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_theory(args) -> int:
    from repro.analysis import loop_stability

    pll = _device(args)
    model = PLLLinearModel(pll)
    params = model.second_order()
    margins = loop_stability(pll)
    print(format_table(
        ["parameter", "value"],
        [
            ["device", pll.name],
            ["fn", f"{params.fn_hz:.3f} Hz"],
            ["zeta (eq. 6)", f"{params.zeta:.4f}"],
            ["peaking", f"{params.peaking_db:.3f} dB @ "
                        f"{params.peak_frequency_hz:.3f} Hz"],
            ["f3dB", f"{params.f3db_hz:.3f} Hz"],
            ["Kd", f"{pll.kd:.4g}"],
            ["Ko", f"{pll.ko:.4g} rad/s/V"],
            ["gain crossover", f"{margins.crossover_hz:.3f} Hz"],
            ["phase margin", f"{margins.phase_margin_deg:.1f} deg"],
        ],
        title="linear design point",
    ))
    freqs = paper_sweep(points=args.points).frequencies_hz
    print()
    print(ascii_bode([model.bode(freqs)], title="theoretical closed loop"))
    return 0


# Monotone per-process profile counter: combined with the pid it makes
# every dump filename unique, so concurrent lot/sweep invocations (or a
# script profiling both in one process) never clobber each other's dump.
_PROFILE_SEQ = 0


def _profile_dump_path(path: str) -> str:
    """Unique per-invocation variant of the requested dump path.

    ``sweep.prof`` becomes ``sweep.<pid>-<seq>.prof`` — same directory,
    recognisable stem, collision-free across processes (pid) and across
    repeated invocations within one process (seq).
    """
    import os

    global _PROFILE_SEQ
    _PROFILE_SEQ += 1
    root, ext = os.path.splitext(path)
    return f"{root}.{os.getpid()}-{_PROFILE_SEQ}{ext or '.prof'}"


def _profiled(path: Optional[str], engine: Optional[str] = None):
    """Context manager: cProfile the enclosed block when ``path`` is set.

    Writes the raw ``pstats`` dump to a unique per-invocation variant of
    ``path`` (see :func:`_profile_dump_path`; loadable with
    ``python -m pstats`` or snakeviz) and prints the top-20 functions by
    cumulative time, so perf work starts from a measurement instead of a
    guess.  ``engine`` annotates the table header with which settle
    engine produced the numbers — a scalar and a farm profile of
    the same workload look nothing alike, and an unlabelled dump is a
    trap.  With ``path`` falsy the block runs unprofiled at zero cost.
    """
    import contextlib

    if not path:
        return contextlib.nullcontext()

    dump_path = _profile_dump_path(path)

    @contextlib.contextmanager
    def _run():
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            profiler.dump_stats(dump_path)
            stream = io.StringIO()
            pstats.Stats(profiler, stream=stream) \
                .sort_stats("cumulative").print_stats(20)
            ran = f" (engine: {engine})" if engine else ""
            print(f"profile written to {dump_path}{ran}; "
                  "top 20 by cumulative time:")
            print(stream.getvalue().rstrip())

    return _run()


def _timing_summary(measurements) -> Optional[str]:
    """One-line wall-time digest of a sweep's per-tone timing."""
    timings = [m.timing for m in measurements if m.timing is not None]
    if not timings:
        return None
    settle = sum(t.settle_s for t in timings)
    monitor = sum(t.monitor_s for t in timings)
    measure = sum(t.measure_s for t in timings)
    warm = sum(1 for t in timings if t.warm)
    return (
        f"tone wall time: {settle + monitor + measure:.2f}s "
        f"(settle {settle:.2f}s, monitor {monitor:.2f}s, "
        f"measure {measure:.2f}s; {warm}/{len(timings)} tones warm)"
    )


def cmd_sweep(args) -> int:
    pll = _device(args)
    stimulus = paper_stimulus(args.stimulus)
    monitor = TransferFunctionMonitor(pll, stimulus, paper_bist_config())
    plan = paper_sweep(points=args.points)
    try:
        with _profiled(args.profile, engine=args.engine):
            result = monitor.run(
                plan, n_workers=args.workers, engine=args.engine
            )
    except MeasurementError as exc:
        print(f"sweep failed: {exc}")
        return 2
    if args.out:
        from repro.reporting import device_report

        limits = _golden_limits().check(result.estimated) \
            if result.estimated is not None else None
        with open(args.out, "w") as fh:
            fh.write(device_report(
                pll, result, limits=limits, include_timing=True
            ))
        print(f"wrote {args.out}")
    print(result.summary())
    timing = _timing_summary(result.measurements)
    if timing:
        print(timing)
    print()
    print(format_table(
        ["f_mod (Hz)", "magnitude (dB)", "phase (deg)"],
        [
            [f"{f:.2f}", f"{m:+.2f}", f"{p:+.1f}"]
            for f, m, p in zip(
                result.response.frequencies_hz,
                result.response.magnitude_db,
                result.response.phase_deg,
            )
        ],
        title=f"measured transfer function [{stimulus.label}]",
    ))
    print()
    print(ascii_bode([result.response], title="measured closed loop"))
    return 0


def cmd_selftest(args) -> int:
    pll = _device(args)
    test = PLLSelfTest(
        pll=pll,
        stimulus=paper_stimulus(args.stimulus),
        plan=paper_sweep(points=args.points),
        limits=_golden_limits(),
        config=paper_bist_config(),
    )
    report = test.run()
    print(report)
    return 0 if report.passed else 1


def cmd_screen(args) -> int:
    from repro.reporting.device_report import (
        DeviceReportRequest,
        batch_device_screen,
    )

    duts = [("healthy", paper_pll())]
    duts += [
        (label, apply_fault(paper_pll(), fault))
        for label, fault in sorted(FAULT_LIBRARY.items())
    ]
    stimulus = paper_stimulus(args.stimulus)
    limits = _golden_limits()
    config = paper_bist_config()
    plan = paper_sweep(points=args.points)
    # One lot screen: the farm settles and measures every die's tones in
    # one pass, and --workers splits the dies across lot-chunk workers.
    outcomes = batch_device_screen(
        [
            DeviceReportRequest(pll=dut, stimulus=stimulus, plan=plan,
                                config=config, limits=limits)
            for __, dut in duts
        ],
        n_workers=args.workers,
    )
    rows = []
    for (label, __), outcome in zip(duts, outcomes):
        if outcome.error is not None:
            rows.append([label, "—", "—", f"FAIL ({outcome.error})"])
            continue
        rows.append([
            label,
            "—" if outcome.fn_hz is None else f"{outcome.fn_hz:.2f}",
            "—" if outcome.zeta is None else f"{outcome.zeta:.3f}",
            "PASS" if outcome.passed else "FAIL",
        ])
    print(format_table(
        ["device", "fn (Hz)", "zeta", "verdict"], rows,
        title="fault-library screening",
    ))
    return 0


def cmd_lot(args) -> int:
    """Batch-screen a lot of devices against the paper sweep and limits.

    The production workload of §5/Table 2: every die gets the full
    transfer-function BIST and one archived markdown artefact.  The
    lot shares finished tones through one
    :class:`~repro.core.warm.ToneMeasurementCache` — each (stimulus,
    tone, device-physics) family is measured once and every
    behaviourally identical die is answered with it, byte-identical to
    a cold screen.
    """
    import pathlib
    import time
    from dataclasses import replace

    from repro.core.warm import ToneMeasurementCache
    from repro.reporting import DeviceReportRequest, batch_device_reports

    if args.size < 1:
        raise SystemExit(f"lot size must be >= 1, got {args.size}")
    stimulus = paper_stimulus(args.stimulus)
    config = paper_bist_config()
    plan = paper_sweep(points=args.points)
    limits = _golden_limits()
    template = _device(args)
    requests = [
        DeviceReportRequest(
            pll=replace(template, name=f"{template.name}-{i:03d}"),
            stimulus=stimulus,
            plan=plan,
            config=config,
            limits=limits,
        )
        for i in range(args.size)
    ]
    cache = ToneMeasurementCache()
    t0 = time.perf_counter()
    with _profiled(args.profile, engine=args.engine):
        reports = batch_device_reports(
            requests, n_workers=args.workers, cache=cache,
            engine=args.engine,
        )
    wall = time.perf_counter() - t0

    def _verdict(text: str) -> str:
        if "FAIL (sweep aborted)" in text:
            return "FAIL (aborted)"
        if "**PASS**" in text:
            return "PASS"
        if "**FAIL**" in text:
            return "FAIL"
        return "?"

    rows = [
        [req.pll.name, _verdict(text)]
        for req, text in zip(requests, reports)
    ]
    if args.out_dir:
        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for req, text in zip(requests, reports):
            (out_dir / f"{req.pll.name}.md").write_text(text)
        print(f"wrote {len(reports)} reports to {out_dir}")
    mode = "warm-shared" + ("" if args.engine == "scalar"
                            else f", {args.engine}")
    print(format_table(
        ["device", "verdict"], rows,
        title=f"lot screen — {args.size} devices, {wall:.2f} s ({mode})",
    ))
    detail = cache.stats_detail
    print(
        f"warm cache: {detail['entries']} finished tones, "
        f"{detail['hits']} hits / {detail['misses']} misses"
    )
    presettle = cache.presettle_stats
    if presettle is not None:
        print(presettle.summary())
        if presettle.settle_s or presettle.monitor_s or presettle.measure_s:
            print(
                f"farm wall: settle {presettle.settle_s:.2f}s / "
                f"monitor {presettle.monitor_s:.2f}s / "
                f"measure {presettle.measure_s:.2f}s"
            )
    failed = sum(1 for __, v in rows if v != "PASS")
    return 1 if failed else 0


def cmd_population(args) -> int:
    """Screen a sampled device population with streaming aggregation.

    The 10k-die workload: dies are drawn from seeded process-variation
    distributions around a corner's nominals (plus injected macro
    faults at ``--fault-rate``), streamed through the batch screen in
    bounded-memory chunks, and folded into online aggregates — yield
    with Wilson intervals, (fn, ζ, f3dB) quantile sketches, fault
    coverage against the injected ground truth.  Per-die records can be
    exported as JSONL while streaming; the final summary JSON is
    byte-identical for a given seed regardless of chunking.
    """
    import json as _json

    from repro.pll.population import (
        ChunkProgress,
        PopulationSpec,
        ToleranceSpec,
        screen_population,
    )

    try:
        spec = PopulationSpec(
            corner=args.corner,
            size=args.dies,
            seed=args.seed,
            tolerance=ToleranceSpec(
                distribution=args.dist,
                rel_sigma=args.sigma,
                clip_sigmas=args.clip,
            ),
            fault_rate=args.fault_rate,
            points=args.points,
            rel_tol=args.rel_tol,
        )
    except ReproError as exc:
        raise SystemExit(str(exc)) from None

    def live(p: ChunkProgress) -> None:
        if args.quiet:
            return
        y = p.yield_so_far
        rate = p.dies_per_s
        print(
            f"chunk {p.chunk_index + 1}/{p.n_chunks}: "
            f"{p.dies_done}/{p.dies_total} dies, "
            f"yield {y:.3f}, {p.errors} errors, "
            f"{rate:.1f} dies/s" if y is not None and rate is not None
            else f"chunk {p.chunk_index + 1}/{p.n_chunks}",
            flush=True,
        )

    with _profiled(args.profile, engine=args.engine):
        aggregate, stats = screen_population(
            spec,
            chunk_size=args.chunk,
            n_workers=args.workers,
            engine=args.engine,
            jsonl=args.jsonl,
            progress=live,
        )
    if not args.quiet:
        print(
            f"screened {stats.dies} dies in {stats.wall_s:.1f} s "
            f"({stats.dies_per_s:.1f} dies/s, chunk={stats.chunk_size}, "
            f"engine={stats.engine}, workers={stats.n_workers}); "
            f"warm cache {stats.cache_entries} entries",
        )
        if stats.settle_s or stats.monitor_s or stats.measure_s:
            print(
                f"farm wall: settle {stats.settle_s:.2f} s / "
                f"monitor {stats.monitor_s:.2f} s / "
                f"measure {stats.measure_s:.2f} s; "
                f"{stats.measured} tones measured in-farm"
                + (f", {stats.measure_ejected} ejected"
                   if stats.measure_ejected else "")
                + (f", {stats.measure_failed} failed"
                   if stats.measure_failed else "")
            )
        if args.jsonl:
            print(f"wrote per-die records to {args.jsonl}")
    print(_json.dumps(
        _json.loads(aggregate.to_json(spec.describe())), indent=2,
        sort_keys=True,
    ))
    return 0


def cmd_diagnose(args) -> int:
    pll = paper_pll()
    try:
        candidates = diagnose_shift(pll, args.fn, args.zeta)
    except ReproError as exc:
        print(f"diagnosis failed: {exc}")
        return 2
    print(format_table(
        ["rank", "hypothesis"],
        [[i + 1, str(c)] for i, c in enumerate(candidates)],
        title=(
            f"single-component hypotheses for fn={args.fn:g} Hz, "
            f"zeta={args.zeta:g}"
        ),
    ))
    return 0


def cmd_plan(args) -> int:
    pll = paper_pll()
    rows = []
    for f_master in args.masters:
        dco = DCO(f_master)
        res = dco.resolution(pll.f_ref)
        steps = int(args.deviation / res)
        rows.append([
            f"{f_master/1e6:g} MHz", f"{res:.4g} Hz", steps,
            "OK" if steps >= 10 else "too coarse",
        ])
    print(format_table(
        ["DCO master", "eq.(2) resolution", f"steps in ±{args.deviation:g} Hz",
         "verdict"],
        rows,
        title="stimulus feasibility",
    ))
    return 0


# ----------------------------------------------------------------------
# service commands
# ----------------------------------------------------------------------
#: Default rendezvous point of the serve/submit/watch family.
DEFAULT_SOCKET = "repro-service.sock"


def cmd_serve(args) -> int:
    """Run the sweep-job service until shutdown (op or Ctrl-C)."""
    import asyncio

    from repro.service import SweepJobServer, SweepJobService

    service = SweepJobService(
        queue_limit=args.queue_limit,
        cache_path=args.cache,
        max_finished_jobs=args.retain,
        shards=args.shards,
    )
    server = SweepJobServer(service, args.socket, tcp=args.tcp)

    async def main() -> None:
        await server.start()
        cache = service.stats()["cache"]
        endpoints = [args.socket]
        if server.tcp_port is not None:
            endpoints.append(
                f"tcp {server.tcp_endpoint[0]}:{server.tcp_port}"
            )
        print(
            f"serving on {' + '.join(endpoints)} "
            f"({args.shards} shard(s), queue limit {args.queue_limit}, "
            f"warm cache: {cache['entries']} entries"
            + (f", spilling to {args.cache}" if args.cache else "")
            + ")",
            flush=True,
        )
        try:
            await server.wait_shutdown()
        finally:
            await server.stop()
            print("service drained; bye")

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def _client(args):
    from repro.service import ServiceClient

    if args.tcp:
        return ServiceClient(tcp=args.tcp, timeout_s=args.timeout)
    return ServiceClient(args.socket, timeout_s=args.timeout)


def _format_event(event: dict, tones_planned: Optional[int]) -> str:
    """One human-readable line per wire event."""
    kind = event.get("event")
    if kind == "accepted":
        return (
            f"[{event['job_id']}] accepted: {event.get('tones_planned')} "
            f"tones planned, queue depth {event.get('queue_depth')}"
        )
    if kind == "started":
        return (
            f"[{event['job_id']}] started "
            f"(workers={event.get('n_workers')})"
        )
    if kind == "tone":
        total = f"/{tones_planned}" if tones_planned else ""
        head = (
            f"[{event['job_id']}] tone {event['index'] + 1}{total}  "
            f"f={event['f_mod_hz']:8.2f} Hz"
        )
        if not event.get("ok"):
            return f"{head}  FAILED: {event.get('error')}"
        mag = event.get("magnitude_db")
        return (
            head
            + (f"  mag {mag:+7.2f} dB" if mag is not None else " " * 16)
            + f"  phase {event['phase_deg']:+7.1f} deg"
            + ("  (warm)" if event.get("warm") else "")
        )
    if kind == "done":
        return (
            f"[{event['job_id']}] done: {event.get('summary')} "
            f"({event.get('warm_tones')} warm, "
            f"{event.get('failed_tones')} failed tones)"
        )
    return f"[{event.get('job_id')}] {kind}: {event.get('error')}"


def _stream_job(client, job_id: str, as_json: bool) -> int:
    """Print a job's event stream; exit code reflects the verdict."""
    import json as _json

    tones_planned = None
    final = None
    for event in client.watch(job_id):
        if event.get("event") == "accepted":
            tones_planned = event.get("tones_planned")
        if as_json:
            print(_json.dumps(event, sort_keys=True), flush=True)
        else:
            print(_format_event(event, tones_planned), flush=True)
        final = event.get("event")
    return 0 if final == "done" else 1


def cmd_submit(args) -> int:
    from repro.errors import ServiceError
    from repro.service import SweepJobSpec

    spec = SweepJobSpec(
        points=args.points,
        stimulus=args.stimulus,
        fault=args.fault,
        nonlinear=args.nonlinear,
        n_workers=args.workers,
        timeout_s=args.job_timeout,
        label=args.label,
        engine=args.engine,
        client_id=args.client_id,
        priority=args.priority,
    )
    client = _client(args)
    try:
        accepted = client.submit(spec)
    except ServiceError as exc:
        print(f"submit failed: {exc}")
        return 2
    print(f"submitted {accepted['job_id']} "
          f"({accepted['tones_planned']} tones)")
    if args.watch:
        return _stream_job(client, accepted["job_id"], args.json)
    return 0


def cmd_watch(args) -> int:
    from repro.errors import ServiceError

    try:
        return _stream_job(_client(args), args.job_id, args.json)
    except ServiceError as exc:
        print(f"watch failed: {exc}")
        return 2


def cmd_status(args) -> int:
    from repro.errors import ServiceError

    client = _client(args)
    try:
        stats = client.status()
        jobs = client.jobs()
    except ServiceError as exc:
        print(f"status failed: {exc}")
        return 2
    cache = stats["cache"]
    print(format_table(
        ["metric", "value"],
        [
            ["uptime", f"{stats['uptime_s']:.1f} s"],
            ["accepting", str(stats["accepting"])],
            ["queue", f"{stats['queue_depth']} pending / "
                      f"{stats['live_jobs']} live "
                      f"(limit {stats['queue_limit']})"],
            ["running job", stats["running_job"] or "—"],
            ["tones streamed", stats["tones_streamed"]],
            ["tones/s", f"{stats['tones_per_s']:.2f}"],
            ["cache", f"{cache['entries']} entries, "
                      f"hit rate {cache['hit_rate']:.0%} "
                      f"({cache['hits']}/{cache['hits'] + cache['misses']})"],
            ["cache path", cache["path"] or "— (in-memory only)"],
        ],
        title="sweep-job service status",
    ))
    if jobs:
        print()
        print(format_table(
            ["job", "label", "state", "tones", "warm", "error"],
            [
                [
                    j["job_id"],
                    j["label"] or "—",
                    j["state"],
                    f"{j['tones_streamed']}/{j['tones_planned']}",
                    j["warm_tones"],
                    j["error"] or "—",
                ]
                for j in jobs
            ],
            title="jobs",
        ))
    return 0


def cmd_shutdown(args) -> int:
    from repro.errors import ServiceError

    try:
        _client(args).shutdown()
    except ServiceError as exc:
        print(f"shutdown failed: {exc}")
        return 2
    print("service draining")
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _worker_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="On-chip closed-loop transfer-function BIST for CP-PLLs "
                    "(DATE 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, stimulus=True, device=True):
        p.add_argument("--points", type=int, default=12,
                       help="sweep tones (default 12)")
        if device:
            p.add_argument("--fault", default=None,
                           help="inject a library fault by label first")
            p.add_argument("--nonlinear", action="store_true",
                           help="use the 74HCT4046A-flavoured device model")
        if stimulus:
            p.add_argument("--stimulus", default="multitone",
                           choices=("sine", "multitone", "twotone"))

    def engine_opt(p, note=""):
        p.add_argument("--engine", default="auto", choices=ENGINES,
                       help="auto (default): settle and measure on the "
                            "settle farm's per-lane kernel, scalar for "
                            "what it cannot represent; scalar: the "
                            "per-tone reference event loop.  Results are "
                            "bit-identical on both" + note)

    p = sub.add_parser("theory", help="print the linear design point")
    common(p, stimulus=False)
    p.set_defaults(handler=cmd_theory)

    p = sub.add_parser("sweep", help="run the BIST sweep")
    common(p)
    p.add_argument("--out", default=None,
                   help="also write a markdown device report to this path")
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="tone worker processes (1 = serial, default)")
    engine_opt(p)
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="cProfile the sweep; write the pstats dump to a "
                        "unique per-invocation variant of PATH and print "
                        "the top-20 cumulative table")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("selftest", help="run the four-step self-test")
    common(p)
    p.set_defaults(handler=cmd_selftest)

    p = sub.add_parser("screen", help="screen the fault library")
    # The screen's devices are the healthy paper die and the whole
    # library, so it takes no --fault or --nonlinear.
    common(p, device=False)
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="device worker processes: the dies split into "
                        "lot chunks (1 = serial, default)")
    p.set_defaults(handler=cmd_screen)

    p = sub.add_parser("lot", help="batch-screen a lot of devices")
    common(p)
    p.add_argument("--size", type=int, default=8,
                   help="number of devices in the lot (default 8)")
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="device worker processes (1 = serial, default)")
    p.add_argument("--out-dir", default=None,
                   help="also write one markdown report per device here")
    engine_opt(p)
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="cProfile the lot screen; write the pstats dump "
                        "to a unique per-invocation variant of PATH and "
                        "print the top-20 cumulative table")
    p.set_defaults(handler=cmd_lot)

    p = sub.add_parser(
        "population",
        help="screen a sampled device population (streaming Monte-Carlo)",
    )
    p.add_argument("--corner", default="table3",
                   choices=("table3", "cdr180"),
                   help="design point to sample around: the Table 3 "
                        "reconstruction or the 180 nm-class current-pump "
                        "corner (default table3)")
    p.add_argument("--dies", type=int, default=256,
                   help="population size (default 256)")
    p.add_argument("--seed", type=int, default=0,
                   help="population seed; same seed => byte-identical "
                        "summary (default 0)")
    p.add_argument("--dist", default="normal",
                   choices=("normal", "uniform", "truncated"),
                   help="component tolerance distribution (default normal)")
    p.add_argument("--sigma", type=float, default=0.03,
                   help="fractional tolerance: 1-sigma for normal/"
                        "truncated, half-width for uniform (default 0.03)")
    p.add_argument("--clip", type=float, default=3.0,
                   help="truncation bound in sigmas for --dist truncated "
                        "(default 3)")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="per-die probability of one injected macro fault "
                        "(ground truth recorded; default 0)")
    p.add_argument("--points", type=int, default=9,
                   help="sweep tones per die (default 9)")
    p.add_argument("--rel-tol", type=float, default=0.25,
                   help="fractional limit band on fn/zeta/f3dB "
                        "(default 0.25)")
    p.add_argument("--chunk", type=int, default=None,
                   help="dies per streamed chunk (default: sized so one "
                        "chunk's tone-settle lanes, points per die, fit "
                        "the warm cache)")
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="device worker processes per chunk (default 1)")
    engine_opt(p)
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="stream one JSON record per die to this file")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the live per-chunk digest")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="cProfile the screen; write the pstats dump to a "
                        "unique per-invocation variant of PATH and print "
                        "the top-20 cumulative table")
    p.set_defaults(handler=cmd_population)

    p = sub.add_parser("diagnose",
                       help="rank component explanations for a shift")
    p.add_argument("--fn", type=float, required=True,
                   help="measured natural frequency (Hz)")
    p.add_argument("--zeta", type=float, required=True,
                   help="measured damping factor")
    p.set_defaults(handler=cmd_diagnose)

    p = sub.add_parser("plan", help="DfT feasibility checks")
    p.add_argument("--deviation", type=float, default=1.0,
                   help="wanted peak deviation (Hz)")
    p.add_argument("--masters", type=float, nargs="+",
                   default=[1e6, 10e6, 100e6],
                   help="candidate DCO master clocks (Hz)")
    p.set_defaults(handler=cmd_plan)

    def socket_opts(p):
        p.add_argument("--socket", default=DEFAULT_SOCKET,
                       help=f"service socket path "
                            f"(default {DEFAULT_SOCKET})")
        p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                       help="talk to the service over TCP instead of "
                            "the unix socket (the serve side's --tcp)")
        p.add_argument("--timeout", type=float, default=60.0,
                       help="client socket timeout per reply line, "
                            "seconds (default 60)")

    p = sub.add_parser("serve", help="run the sweep-job service")
    p.add_argument("--socket", default=DEFAULT_SOCKET,
                   help=f"unix socket to bind (default {DEFAULT_SOCKET})")
    p.add_argument("--tcp", default=None, metavar="HOST:PORT",
                   help="also bind a TCP endpoint, e.g. 127.0.0.1:7433 "
                        "(port 0 picks an ephemeral port; the bound one "
                        "is printed)")
    p.add_argument("--shards", type=_worker_count, default=1,
                   help="scheduler width: jobs running concurrently, "
                        "each with its own worker thread and hot cache "
                        "(default 1)")
    p.add_argument("--cache", default=None,
                   help="persist finished tone measurements to this file "
                        "(reloaded at start, spilled after every job)")
    p.add_argument("--queue-limit", type=int, default=16,
                   help="max live (pending+running) jobs (default 16)")
    p.add_argument("--retain", type=int, default=64,
                   help="finished jobs (and their event histories) to "
                        "keep for late watchers before the oldest are "
                        "evicted (default 64)")
    p.set_defaults(handler=cmd_serve)

    p = sub.add_parser("submit", help="submit a job to a running service")
    common(p)
    socket_opts(p)
    p.add_argument("--workers", type=_worker_count, default=1,
                   help="tone worker processes for this job (default 1)")
    engine_opt(p, "; under auto, a cancel or --job-timeout takes "
                  "effect only after the job's farm pass")
    p.add_argument("--job-timeout", type=float, default=None,
                   help="abort the job at the next tone boundary after "
                        "this many seconds of running time")
    p.add_argument("--label", default=None,
                   help="free-form tag shown in status listings")
    p.add_argument("--client", default=None, dest="client_id",
                   help="fair-queue client id: jobs sharing an id share "
                        "one round-robin dispatch slot, so one flooding "
                        "client cannot starve the rest")
    p.add_argument("--priority", type=int, default=0,
                   help="priority class; higher classes are dispatched "
                        "first (default 0)")
    p.add_argument("--watch", action="store_true",
                   help="stay attached and stream the job's tone results")
    p.add_argument("--json", action="store_true",
                   help="with --watch, print raw JSON event lines")
    p.set_defaults(handler=cmd_submit)

    p = sub.add_parser("watch", help="stream a job's tone results")
    socket_opts(p)
    p.add_argument("job_id", help="job id from submit (e.g. job-0001)")
    p.add_argument("--json", action="store_true",
                   help="print raw JSON event lines")
    p.set_defaults(handler=cmd_watch)

    p = sub.add_parser("status", help="show service queue/cache stats")
    socket_opts(p)
    p.set_defaults(handler=cmd_status)

    p = sub.add_parser("shutdown", help="drain and stop a running service")
    socket_opts(p)
    p.set_defaults(handler=cmd_shutdown)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

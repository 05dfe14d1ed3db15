#!/usr/bin/env python3
"""Repository benchmark: lot, population and service workloads.

Usage::

    python3 perfbench/run.py --workload fault_lot --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  ``--trace 0`` prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs untraced and
traced repetitions alternately and prints every per-layer metric.  Each
repetition starts from the same state: farm workloads run it in a fresh
process, ``service_mix`` in a fresh server process with a fresh cache
file.  Every output is checked against the scalar engine's bytes
(``pins.py``); a mismatch or an unexpected exception counts as a failed
operation.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

WORKLOADS = ("fault_lot", "population", "service_mix")
MIN_UNITS = 3
MIN_TRACED_UNITS = 2
#: Extra set-up probes after each untraced repetition: set-up time is a
#: median over several cold starts per run.
SETUP_PROBES = {"fault_lot": 2, "population": 2, "service_mix": 1}
UNIT_TIMEOUT_S = 150
TAIL_LADDER = (0.99, 0.95, 0.90, 0.75, 0.50)


class UnitError(RuntimeError):
    """A repetition crashed or returned nothing usable."""


UNIT_ERRORS = (UnitError, subprocess.TimeoutExpired, OSError, ValueError)


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def percentile(values, q):
    """Linear-interpolated ``q`` quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values):
    """Highest ladder percentile with at least ten samples beyond it;
    the median when the sample is too small for any."""
    for q in TAIL_LADDER:
        if len(values) * (1.0 - q) >= 10:
            return q, percentile(values, q)
    return 0.5, percentile(values, 0.5)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_NUM_WORKERS", None)
    return env


def calib_ms():
    """Median time of a fixed pure-Python loop, for normalising budgets."""
    times = []
    for __ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def host_record():
    import numpy

    try:
        visible = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        visible = os.cpu_count() or 1
    return {
        "nproc": os.cpu_count(), "visible_cores": visible,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "calib_ms": calib_ms(),
    }


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
class Checker:
    """Counts outputs that differ from the scalar engine's bytes."""

    def __init__(self, workload):
        import pins

        self.workload = workload
        self.pins = pins.load().get(workload, {})
        if workload == "population":
            import workloads as w

            if self.pins.get("spec") != w.population_spec().describe():
                self.pins = {}

    def _expected(self, keys):
        missing = [k for k in keys if k not in self.pins]
        if missing:
            import pins

            # Outside the timed region: repetitions run in other processes.
            self.pins.update(pins.reference(self.workload, missing))

    def count(self, outputs):
        """``(attempted, failed)`` for one repetition's outputs."""
        import workloads as w

        if self.workload == "fault_lot":
            self._expected([item["name"] for item in outputs])
            bad = sum(w.digest(item["report"]) != self.pins[item["name"]]
                      for item in outputs)
            return len(outputs), bad
        if self.workload == "population":
            self._expected(["summary", "records"])
            size = w.POPULATION["size"]
            records = outputs["records"]
            pinned = self.pins["records"]
            bad = int(w.digest(outputs["summary"]) != self.pins["summary"])
            bad += sum(i >= len(records) or w.digest(records[i]) != pinned[i]
                       for i in range(size))
            bad += max(0, len(records) - size)
            return 1 + max(size, len(records)), bad
        self._expected([job["key"] for job in outputs if job["report"]])
        bad = sum(not job["ok"] or job["report"] is None
                  or w.digest(job["report"]) != self.pins[job["key"]]
                  for job in outputs)
        return len(outputs), bad

    def self_test(self, outputs):
        """Corrupt one output; the count must go up by exactly one."""
        corrupt = copy.deepcopy(outputs)
        if self.workload == "fault_lot":
            corrupt[0]["report"] += " "
        elif self.workload == "population":
            corrupt["records"][0] += " "
        else:
            corrupt[0]["report"] = (corrupt[0]["report"] or "") + " "
        return self.count(corrupt)[1] == self.count(outputs)[1] + 1


# ----------------------------------------------------------------------
# farm workloads: one fresh process per repetition
# ----------------------------------------------------------------------
def farm_unit(workload, seed, mode):
    """``mode``: True (traced), False (untraced) or ``"setup"``."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "unit.py"), workload,
         str(seed), {True: "1", False: "0"}.get(mode, mode)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=UNIT_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise UnitError(proc.stderr.strip()[-2000:])
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["t_ready"] - start
    return record


def farm_metrics(workload, units):
    import workloads as w

    walls = [u["wall_s"] for u in units]
    if workload == "fault_lot":
        dies = len(units[0]["outputs"])
        tones = dies * w.FAULT_LOT_POINTS
        quality = w.fault_lot_quality(units[0]["outputs"])
    else:
        dies = w.POPULATION["size"]
        tones = dies * w.POPULATION["points"]
        quality = w.population_quality(units[0]["outputs"])
    # The batch APIs hand back every result when the whole lot is done:
    # a farm workload's job is one lot (or population) screen, and its
    # first tone result arrives with the last.
    q, tail_s = tail(walls)
    median = statistics.median
    return {
        "wall_s": median(walls),
        "dies_per_s": median(dies / t for t in walls),
        "tones_per_s": median(tones / t for t in walls),
        "jobs_per_s": median(1.0 / t for t in walls),
        "job_latency_p50_s": median(walls),
        "job_latency_tail_s": tail_s,
        "first_tone_p50_s": median(walls),
        "peak_rss_mb": median(u["rss_mb"] for u in units),
        "fn_rel_err_p50": quality[0],
        "true_accept_rate": quality[1],
        "fault_coverage": quality[2],
    }, {"tail_percentile": q, "jobs": len(walls)}


# ----------------------------------------------------------------------
# service_mix: one fresh server process per session
# ----------------------------------------------------------------------
def _vm_hwm_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return float("nan")


def _client_loop(client, script, index, jobs):
    import workloads as w
    from repro.service.jobs import SweepJobSpec

    for n, (fault, stimulus) in enumerate(script):
        job = {"key": w.spec_key(fault, stimulus), "ok": False,
               "report": None, "tones": [], "warm": 0, "depth": 0,
               "first_tone_s": None}
        jobs.append(job)
        start = time.perf_counter()
        try:
            spec = SweepJobSpec(
                points=w.SERVICE_POINTS, stimulus=stimulus, fault=fault,
                n_workers=w.SERVICE_WORKERS, engine="scalar",
                client_id=f"client-{index}", label=f"c{index}-{n}")
            job["id"] = client.submit(spec)["job_id"]
            for event in client.watch(job["id"]):
                kind = event["event"]
                if kind == "accepted":
                    job["depth"] = event["queue_depth"]
                elif kind == "tone":
                    if job["first_tone_s"] is None:
                        job["first_tone_s"] = time.perf_counter() - start
                    job["tones"].append(event["index"])
                    job["warm"] += bool(event.get("warm"))
            job["report"] = client.report(job["id"])
            job["latency_s"] = time.perf_counter() - start
            # Every planned tone streamed, in plan order.
            job["ok"] = job["tones"] == list(range(w.SERVICE_POINTS))
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            job["error"] = f"{type(exc).__name__}: {exc}"


class Server:
    """One ``repro serve`` process with its own socket and cache file."""

    def __init__(self, trace, tag):
        os.makedirs(WORK, exist_ok=True)
        base = os.path.join(os.path.relpath(WORK, ROOT),
                            f"{os.getpid()}-{tag}")
        self.sock, self.trace_out = base + ".sock", base + ".trace.json"
        self.files = [self.sock, base + ".cache", self.trace_out,
                      base + ".log"]
        self.cmd = ([sys.executable, os.path.join(HERE, "serve.py"),
                     self.trace_out] if trace
                    else [sys.executable, "-m", "repro", "serve"])
        self.cmd += ["--socket", self.sock, "--cache", base + ".cache"]
        self.proc = None

    def start(self):
        """Spawn the server; returns seconds until it answers status."""
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient

        start = time.monotonic()
        with open(os.path.join(ROOT, self.files[-1]), "w") as log:
            # Own session, so a kill also reaches the pool workers.
            self.proc = subprocess.Popen(self.cmd, cwd=ROOT,
                                         env=child_env(), stdout=log,
                                         stderr=log, start_new_session=True)
        # Relative to the checkout root (the working directory of both
        # sides), which keeps the path inside the unix socket length limit.
        self.client = ServiceClient(self.sock, timeout_s=60.0)
        while True:
            try:
                self.client.status()
                return time.monotonic() - start
            except ServiceError:
                if self.proc.poll() is not None or \
                        time.monotonic() - start > UNIT_TIMEOUT_S:
                    raise UnitError("server did not come up")
                time.sleep(0.005)

    def stop(self):
        """Drain through the shutdown op, then make sure it is gone."""
        from repro.errors import ReproError

        try:
            if self.proc is not None and self.proc.poll() is None:
                self.client.shutdown()
                self.proc.wait(timeout=60)
        except (ReproError, OSError, subprocess.TimeoutExpired):
            pass  # killed below
        finally:
            if self.proc is not None and self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()

    def remove_files(self):
        for path in self.files:
            try:
                os.unlink(os.path.join(ROOT, path))
            except OSError:
                pass


def service_unit(script_seed, trace, tag):
    import workloads as w
    from repro.errors import ReproError

    server = Server(trace, tag)
    try:
        setup_s = server.start()
        scripts = w.service_scripts(script_seed)
        per_client = [[] for __ in scripts]
        threads = [
            threading.Thread(target=_client_loop,
                             args=(server.client, script, i, per_client[i]))
            for i, script in enumerate(scripts)
        ]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(UNIT_TIMEOUT_S)
        wall = time.perf_counter() - begin
        if any(thread.is_alive() for thread in threads):
            raise UnitError("service clients did not finish")
        status = server.client.status()
        record = {
            "setup_s": setup_s, "wall_s": wall,
            "rss_mb": _vm_hwm_mb(server.proc.pid),
            "outputs": [job for jobs in per_client for job in jobs],
            "hit_rate_reported": status["cache"]["hit_rate"],
        }
        server.stop()
        if trace:
            with open(os.path.join(ROOT, server.trace_out)) as handle:
                record["trace"] = json.load(handle)
        return record
    except ReproError as exc:
        raise UnitError(f"{type(exc).__name__}: {exc}") from exc
    finally:
        server.stop()
        server.remove_files()


def setup_probe(workload, seed, tag):
    """Set-up time alone: start, reach the first operation, stop."""
    if workload == "service_mix":
        server = Server(False, tag)
        try:
            return server.start()
        finally:
            server.stop()
            server.remove_files()
    return farm_unit(workload, seed, "setup")["setup_s"]


def service_metrics(units):
    import workloads as w

    median = statistics.median
    jobs = [job for u in units for job in u["outputs"] if job["ok"]]
    latencies = [job["latency_s"] for job in jobs]
    q, tail_s = tail(latencies)
    per_session = [sum(j["ok"] for j in u["outputs"]) / u["wall_s"]
                   for u in units]
    quality = w.service_quality(units[0]["outputs"])
    return {
        "wall_s": median(u["wall_s"] for u in units),
        # Each job sweeps one die.
        "dies_per_s": median(per_session),
        "tones_per_s": median(r * w.SERVICE_POINTS for r in per_session),
        "jobs_per_s": median(per_session),
        "job_latency_p50_s": median(latencies),
        "job_latency_tail_s": tail_s,
        "first_tone_p50_s": median(j["first_tone_s"] for j in jobs),
        "peak_rss_mb": median(u["rss_mb"] for u in units),
        "fn_rel_err_p50": quality[0],
        "true_accept_rate": quality[1],
        "fault_coverage": quality[2],
    }, {"tail_percentile": q, "jobs": len(latencies)}


# ----------------------------------------------------------------------
# per-layer metrics of one traced repetition
# ----------------------------------------------------------------------
def layer_metrics(workload, unit):
    trace = unit["trace"]
    layers, c, caches = trace["layers"], trace["counts"], trace["caches"]

    def self_s(name):
        return layers.get(name, [0.0, 0.0, 0])[0]

    def incl_s(name):
        return layers.get(name, [0.0, 0.0, 0])[1]

    def n(name):
        return c.get(name, 0)

    def frac(num, den):
        return num / den if den else 0.0

    lanes = sum(n("farm." + k) for k in ("closed_form_lanes", "vector",
                                          "drained", "ejected", "scalar"))
    attempts = n("farm.measured") + n("farm.measure_ejected") \
        + n("farm.measure_failed")
    lock_hits = caches.get("lock.hits", 0) + n("pool.tones_warm")
    lock_misses = caches.get("lock.misses", 0) \
        + n("pool.tones_timed") - n("pool.tones_warm")
    m = {
        "farm.run_s": incl_s("farm"),
        "farm.settle_s": n("farm.settle_s"),
        "farm.monitor_s": n("farm.monitor_s"),
        "farm.measure_s": n("farm.measure_s"),
        "farm.lanes_closed_form": n("farm.closed_form_lanes"),
        "farm.lanes_vector": n("farm.vector"),
        "farm.lanes_drained": n("farm.drained"),
        "farm.lanes_ejected": n("farm.ejected"),
        "farm.lanes_scalar": n("farm.scalar"),
        "farm.in_farm_frac": frac(n("farm.tones_vectorized"), lanes),
        "farm.measured": n("farm.measured"),
        "farm.measure_ejected": n("farm.measure_ejected"),
        "farm.measure_failed": n("farm.measure_failed"),
        "farm.measured_frac": frac(n("farm.measured"), attempts),
        "lot.plan_s": self_s("lot"),
        "lot.lanes_unique": n("lot.lanes_unique"),
        "lot.lanes_deduped": max(0.0, n("lot.tones") - n("lot.skipped")
                                 - n("lot.lanes_unique") - n("lot.cached")),
        # Pool workers are other processes: their tones count through
        # the ToneTiming each measurement carries back.
        "sequencer.tones": layers.get("sequencer.run", [0, 0, 0])[2]
        + n("pool.tones_timed"),
        "sequencer.run_s": self_s("sequencer.run") + n("pool.tone_s"),
        "sequencer.nominal_s": incl_s("sequencer.nominal"),
        "memo.nominal_hits": trace["memo"]["hits"],
        "memo.nominal_misses": trace["memo"]["misses"],
        "warm.lock_hits": lock_hits,
        "warm.lock_misses": lock_misses,
        "warm.lock_hit_frac": frac(lock_hits, lock_hits + lock_misses),
        "warm.lock_evictions": caches.get("lock.evictions", 0),
        "warm.measure_hits": caches.get("measure.hits", 0),
        "warm.measure_misses": caches.get("measure.misses", 0),
        "warm.merge_s": incl_s("warm.merge"),
        "warm.spill_s": incl_s("warm.spill"),
        "warm.spill_bytes": n("warm.spill_bytes"),
        "executor.serial_s": incl_s("executor.serial"),
        "executor.pool_s": incl_s("executor.pool"),
        "executor.pool_tones": n("executor.pool_tones"),
        "executor.pool_overhead_s": n("executor.pool_overhead_s"),
        "monitor.run_s": self_s("monitor.run"),
        "monitor.evaluate_s": incl_s("monitor.evaluate"),
        "reporting.batch_s": self_s("reporting.batch"),
        "reporting.render_s": incl_s("reporting.render"),
        "population.screen_s": self_s("population.screen"),
        "population.sample_s": incl_s("population.sample"),
        "population.aggregate_s": incl_s("population.aggregate"),
        "population.chunks": n("population.chunks"),
    }
    service = dict.fromkeys((
        "service.queue_wait_p50_s", "service.run_p50_s",
        "service.transport_p50_s", "service.warm_tone_frac",
        "service.cache_hit_rate_reported", "service.queue_depth_max"), 0.0)
    if workload == "service_mix":
        server_jobs = trace["jobs"]
        jobs = [j for j in unit["outputs"] if j["ok"]
                and j.get("id") in server_jobs]
        waits = [server_jobs[j["id"]]["queue_wait_s"] for j in jobs]
        runs = [server_jobs[j["id"]]["run_s"] for j in jobs]
        tones = sum(len(j["tones"]) for j in jobs)
        service = {
            "service.queue_wait_p50_s": statistics.median(waits),
            "service.run_p50_s": statistics.median(runs),
            "service.transport_p50_s": statistics.median(
                j["latency_s"] - server_jobs[j["id"]]["queue_wait_s"]
                - server_jobs[j["id"]]["run_s"] for j in jobs),
            "service.warm_tone_frac": frac(sum(j["warm"] for j in jobs),
                                           tones),
            "service.cache_hit_rate_reported": unit["hit_rate_reported"],
            "service.queue_depth_max": max(j["depth"] for j in jobs),
        }
        covered = sum(j["covered_s"] for j in server_jobs.values())
        m["trace.unattributed_frac"] = 1.0 - frac(covered, sum(runs))
    else:
        m["trace.unattributed_frac"] = 1.0 - frac(trace["covered_s"],
                                                  unit["wall_s"])
    m.update(service)
    return m


# Why a per-layer metric reads zero, by workload ("*": every workload).
_BATCH_ZEROS = {
    "service.": "no service in this workload",
    "executor.pool": "batch screens run n_workers=1 (serial executor)",
    "warm.spill": "only the service spills its cache to disk",
    "warm.merge_s": "a serial batch screen merges no worker caches",
    "warm.lock_misses": "every scalar tone restored a presettled state",
    "farm.lanes_": "no lane of this lot took that tier",
    "farm.measure_": "no in-farm measurement was ejected or failed",
}
ZERO_REASONS = {
    "*": {
        "memo.": "no path of this workload measures the nominal baseline",
        "sequencer.nominal_s": "no path of this workload measures the "
                               "nominal baseline",
        "warm.lock_evictions": "the caches never fill",
        "lot.lanes_deduped": "no two lanes share physics",
        "ops_failed_frac": "every output matched the scalar engine",
        "false_reject_rate": "no healthy die failed its limits",
    },
    "fault_lot": {**_BATCH_ZEROS,
                  "population.": "no population layer in this workload"},
    "population": {**_BATCH_ZEROS,
                   "reporting.render_s": "population screens return "
                                         "numeric outcomes, no markdown"},
    "service_mix": {
        "farm.": "scalar-engine jobs run no farm",
        "lot.": "scalar-engine jobs run no farm",
        "warm.measure": "scalar-engine jobs use no measurement cache",
        "executor.serial_s": "every job's tones ran in the process pool",
        "executor.pool": "fewer than 2 visible cores: jobs ran serially",
        "reporting.batch_s": "the service runs jobs, not batch screens",
        "population.": "no population layer in this workload",
        "service.cache_hit_rate_reported":
            "the service counts only its own caches, not the hits in pool "
            "workers' caches (compare service.warm_tone_frac)",
    },
}


def zero_reason(workload, name):
    for table in (ZERO_REASONS[workload], ZERO_REASONS["*"]):
        prefixes = [p for p in table if name.startswith(p)]
        if prefixes:
            return table[max(prefixes, key=len)]
    return "measured zero"


# ----------------------------------------------------------------------
def ops_per_unit(workload, seed):
    import workloads as w

    if workload == "fault_lot":
        return len(w.fault_lot_requests(seed))
    if workload == "population":
        return 1 + w.POPULATION["size"]
    return sum(len(script) for script in w.service_scripts(seed * 1000))


def run(workload, seed, seconds, trace):
    """Repetitions while the next one still fits in ``seconds`` (at
    least ``MIN_UNITS``, or ``MIN_TRACED_UNITS`` of each kind when
    tracing), with set-up probes between them."""
    checker = Checker(workload)
    farm = workload != "service_mix"
    units, traced, failures, setups = [], [], [], []
    attempted = failed = 0
    begin = last = time.monotonic()
    cycle = 0.0
    tag = 0
    while True:
        now = time.monotonic()
        cycle, last = now - last, now
        enough = (len(units) + len(failures) >= MIN_UNITS if not trace
                  else min(len(units), len(traced)) >= MIN_TRACED_UNITS)
        # Stop before a repetition that would run past the budget.
        if (enough and now - begin + cycle > seconds) \
                or len(failures) >= MIN_UNITS:
            break
        want_trace = trace and len(traced) < len(units)
        tag += 1
        try:
            if farm:
                unit = farm_unit(workload, seed, want_trace)
            else:
                # Each session draws its own script; a traced session
                # replays the script of the untraced one before it.
                index = len(traced) if want_trace else len(units)
                unit = service_unit(seed * 1000 + index, want_trace, tag)
        except UNIT_ERRORS as exc:
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        tried, bad = checker.count(unit["outputs"])
        attempted += tried
        failed += bad
        if want_trace:
            traced.append(unit)
            continue
        units.append(unit)
        setups.append(unit["setup_s"])
        for __ in range(0 if trace else SETUP_PROBES[workload]):
            tag += 1
            try:
                setups.append(setup_probe(workload, seed, tag))
            except UNIT_ERRORS as exc:
                failures.append(f"set-up probe {type(exc).__name__}: {exc}")
    # A crashed repetition counts every operation it owed as failed.
    owed = ops_per_unit(workload, seed) * len(failures)
    return (checker, units, traced, failures, setups, attempted + owed,
            failed + owed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no package source at src/repro; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [HERE, SRC]

    # The metrics printed, and their units, are exactly those listed.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        listed = json.load(handle)["per_layer" if args.trace
                                   else "end_to_end"]
    units_of = {m["name"]: m["unit"] for m in listed}
    host = host_record()
    checker, units, traced, failures, setups, attempted, failed = run(
        args.workload, args.seed, args.seconds, bool(args.trace))
    everything = units + traced
    if not units or (args.trace and not traced):
        # Nothing measurable: report every metric as zero, marked wrong.
        print(json.dumps({"detail": {"failures": failures}}))
        print(json.dumps({
            "correct": False, "attempted": max(1, attempted),
            "failed": max(1, failed),
            "metrics": {k: {"value": 0.0, "unit": u}
                        for k, u in units_of.items()}}))
        return 0
    checker_ok = checker.self_test(everything[0]["outputs"])
    if args.workload == "service_mix":
        e2e, tail_info = service_metrics(units)
    else:
        e2e, tail_info = farm_metrics(args.workload, units)
    e2e["setup_s"] = statistics.median(setups)
    e2e["ops_ok_frac"] = 1.0 - failed / attempted
    detail = {"workload": args.workload, "seed": args.seed, "host": host,
              "units": len(units), "traced_units": len(traced),
              "unit_wall_s": [u["wall_s"] for u in everything],
              "setup_s": setups,
              "state_reset": ("fresh server process and cache file per "
                              "session" if args.workload == "service_mix"
                              else "fresh process per repetition"),
              "checker_self_test": "caught" if checker_ok else "MISSED",
              "failures": failures, **tail_info}

    if args.trace:
        per_unit = [layer_metrics(args.workload, u) for u in traced]
        metrics = {k: statistics.median(m[k] for m in per_unit)
                   for k in per_unit[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(u["wall_s"] for u in traced)
            / statistics.median(u["wall_s"] for u in units) - 1.0)
        metrics["host.calib_ms"] = host["calib_ms"]
        metrics["ops_failed_frac"] = failed / attempted
        metrics["false_reject_rate"] = 1.0 - e2e["true_accept_rate"]
        detail["zero_reasons"] = {k: zero_reason(args.workload, k)
                                  for k, v in metrics.items() if v == 0}
    else:
        metrics = e2e
        detail["benchmark_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {k: {"value": metrics[k], "unit": u} for k, u in units_of.items()}
    finite = all(math.isfinite(e["value"]) for e in out.values())
    for name, entry in out.items():
        print(f"{name:34s} {entry['value']:>14.6g} {entry['unit']}")
        if not math.isfinite(entry["value"]):
            entry["value"] = 0.0
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": checker_ok and finite and failed == 0 and not failures,
        "attempted": attempted, "failed": failed, "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

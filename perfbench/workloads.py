"""Inputs, runs and output checks of the three benchmark workloads.

Every input is generated here from the run's ``--seed``; the package
only ever sees the generated requests, specs and job specs.

* ``fault_lot`` — one lot of eight physics-distinct dies (the healthy
  Table 3 die plus each ``FAULT_LIBRARY`` fault) screened by
  ``batch_device_reports(engine="auto")``; the seed permutes the lot.
* ``population`` — ``screen_population`` on a pinned ``cdr180``
  population.  Its content does not depend on the seed: at a 10 % fault
  rate one extra starved die costs as much as ten healthy ones and moves
  the false-reject rate by a third, so per-seed populations would differ
  by more than any metric bound.  The seed only orders repetitions.
* ``service_mix`` — per-client job scripts for the sweep-job service:
  the healthy die under all three stimuli and each fault under a
  seed-drawn stimulus (cold jobs), plus seed-placed repeats of specs the
  same client already fetched (warm jobs).
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import random
import re
import statistics

FAULT_LOT_POINTS = 13
POPULATION = dict(corner="cdr180", size=16, seed=2026, fault_rate=0.10,
                  points=9, rel_sigma=0.05)
SERVICE_POINTS = 13
SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2
SERVICE_REPEATS_PER_CLIENT = 3
STIMULI = ("multitone", "sine", "twotone")
HEALTHY = "healthy"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# fault_lot
# ----------------------------------------------------------------------
def table3_limits():
    from repro.pll.population import get_corner

    return get_corner("table3").limits()


def fault_lot_requests(seed: int):
    """The eight-die lot in the seed's order, with Table 3 limits."""
    from repro.pll.faults import FAULT_LIBRARY, apply_fault
    from repro.presets import (paper_bist_config, paper_pll,
                               paper_stimulus, paper_sweep)
    from repro.reporting import DeviceReportRequest

    pll = paper_pll()
    dies = [pll] + [apply_fault(pll, f) for f in FAULT_LIBRARY.values()]
    random.Random(seed).shuffle(dies)
    stimulus = paper_stimulus("multitone")
    plan = paper_sweep(points=FAULT_LOT_POINTS)
    config = paper_bist_config()
    limits = table3_limits()
    return [
        DeviceReportRequest(pll=d, stimulus=stimulus, plan=plan,
                            config=config, limits=limits)
        for d in dies
    ]


def run_fault_lot(requests, engine="auto"):
    """One lot screen; returns ``[{"name", "report"}]`` in lot order."""
    module = importlib.import_module("repro.reporting.device_report")
    reports = module.batch_device_reports(requests, n_workers=1,
                                          engine=engine)
    return [{"name": r.pll.name, "report": text}
            for r, text in zip(requests, reports)]


# ----------------------------------------------------------------------
# population
# ----------------------------------------------------------------------
def population_spec():
    from repro.pll.population import PopulationSpec, ToleranceSpec

    p = POPULATION
    return PopulationSpec(
        corner=p["corner"], size=p["size"], seed=p["seed"],
        tolerance=ToleranceSpec(distribution="truncated",
                                rel_sigma=p["rel_sigma"]),
        fault_rate=p["fault_rate"], points=p["points"],
    )


def run_population(spec, engine="auto"):
    """One population screen; returns the summary JSON and JSONL lines."""
    module = importlib.import_module("repro.pll.population.engine")
    sink = io.StringIO()
    aggregate, __ = module.screen_population(
        spec, n_workers=1, engine=engine, jsonl=sink)
    return {"summary": aggregate.to_json(spec.describe()),
            "records": sink.getvalue().splitlines()}


# ----------------------------------------------------------------------
# service_mix
# ----------------------------------------------------------------------
def spec_key(fault, stimulus) -> str:
    return f"{fault or HEALTHY}|{stimulus}"


def service_scripts(seed: int):
    """Per-client lists of ``(fault, stimulus)`` jobs for one session.

    Ten cold specs (healthy x 3 stimuli, each fault under one stimulus;
    the seed deals the faults a fixed mix of stimuli, so scripts differ
    in order and pairing but not in how much work they hold) are dealt
    five to a client; each client then repeats
    ``SERVICE_REPEATS_PER_CLIENT`` specs it has already fetched, at
    seed-drawn positions, so every repeat is a warm read.
    """
    from repro.pll.faults import FAULT_LIBRARY

    rng = random.Random(seed)
    cold = [(None, s) for s in STIMULI]
    faults = list(FAULT_LIBRARY)
    stimuli = [STIMULI[i % len(STIMULI)] for i in range(len(faults))]
    rng.shuffle(stimuli)
    cold += list(zip(faults, stimuli))
    rng.shuffle(cold)
    per_client = len(cold) // SERVICE_CLIENTS
    scripts = []
    for client in range(SERVICE_CLIENTS):
        jobs = list(cold[client * per_client:(client + 1) * per_client])
        for __ in range(SERVICE_REPEATS_PER_CLIENT):
            position = rng.randint(1, len(jobs))
            jobs.insert(position, rng.choice(jobs[:position]))
        scripts.append(jobs)
    return scripts


def service_reference_request(fault, stimulus):
    """The one-shot request a service job must reproduce byte for byte."""
    from repro.reporting import DeviceReportRequest
    from repro.service.jobs import SweepJobSpec
    from repro.service.protocol import resolve_spec

    request = resolve_spec(SweepJobSpec(points=SERVICE_POINTS,
                                        stimulus=stimulus, fault=fault))
    return DeviceReportRequest(pll=request.pll, stimulus=request.stimulus,
                               plan=request.plan, config=request.config)


# ----------------------------------------------------------------------
# quality figures read back from the outputs
# ----------------------------------------------------------------------
_FN = re.compile(r"\| natural frequency \| ([0-9.eE+-]+) Hz \|")
_ZETA = re.compile(r"\| damping \| ([0-9.eE+-]+) \|")
_PEAK = re.compile(r"\| peaking \| ([0-9.eE+-]+) dB @ ([0-9.eE+-]+) Hz \|")
_F3DB = re.compile(r"\| f3dB \| ([0-9.eE+-]+) Hz \|")
_VERDICT = re.compile(r"## Limit comparison — \*\*(PASS|FAIL)\*\*")


def report_parameters(report: str):
    """Extracted parameters printed in a device report, or ``None``."""
    fn, zeta, peak = (_FN.search(report), _ZETA.search(report),
                      _PEAK.search(report))
    if not (fn and zeta and peak):
        return None
    f3db = _F3DB.search(report)
    return dict(fn_hz=float(fn.group(1)), zeta=float(zeta.group(1)),
                peak_db=float(peak.group(1)),
                f_peak_hz=float(peak.group(2)),
                f3db_hz=float(f3db.group(1)) if f3db else None)


def report_passes(report: str, limits=None) -> bool:
    """Go/no-go of one report: its own verdict section, or ``limits``
    applied to its extracted parameters when it has none."""
    verdict = _VERDICT.search(report)
    if verdict:
        return verdict.group(1) == "PASS"
    params = report_parameters(report)
    if params is None or limits is None:
        return False
    from repro.analysis.fitting import EstimatedParameters

    return limits.check(EstimatedParameters(
        phase_at_peak_deg=None, **params)).passed


def quality(items, golden_fn_hz):
    """``(fn_rel_err_p50, true_accept_rate, fault_coverage)``.

    ``items`` holds ``(fault, passed, fn_hz)`` per distinct die; ``fn_hz``
    is ``None`` when the sweep produced no parameters.
    """
    healthy = [i for i in items if i[0] is None]
    faulty = [i for i in items if i[0] is not None]
    errors = [abs(fn / golden_fn_hz - 1.0) for f, p, fn in healthy
              if fn is not None]
    return (
        statistics.median(errors) if errors else float("nan"),
        sum(p for __, p, ___ in healthy) / len(healthy)
        if healthy else float("nan"),
        sum(not p for __, p, ___ in faulty) / len(faulty)
        if faulty else float("nan"),
    )


def fault_lot_quality(outputs):
    from repro.pll.population import get_corner

    by_name = {}
    for item in outputs:
        params = report_parameters(item["report"])
        by_name[item["name"]] = (
            None if item["name"] == "paper-linear" else item["name"],
            report_passes(item["report"]),
            params["fn_hz"] if params else None,
        )
    return quality(by_name.values(), get_corner("table3").golden().fn_hz)


def population_quality(outputs):
    from repro.pll.population import get_corner

    items = []
    for line in outputs["records"]:
        r = json.loads(line)
        items.append((r["fault"], r["passed"],
                      r["fn_hz"] if r["error"] is None else None))
    return quality(items, get_corner(POPULATION["corner"]).golden().fn_hz)


def service_quality(jobs):
    from repro.pll.population import get_corner

    limits = table3_limits()
    distinct = {}
    for job in jobs:
        key = job["key"]
        if key in distinct:
            continue
        fault = key.split("|")[0]
        params = report_parameters(job["report"] or "")
        distinct[key] = (
            None if fault == HEALTHY else fault,
            report_passes(job["report"] or "", limits),
            params["fn_hz"] if params else None,
        )
    return quality(distinct.values(), get_corner("table3").golden().fn_hz)

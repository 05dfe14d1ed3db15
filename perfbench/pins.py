"""Scalar-engine reference digests of every benchmark output.

The benchmark compares each output with the bytes the scalar engine
produces for the same input.  Those digests are pinned in ``pins.json``
so a run does not pay for the scalar engine; a key missing from the pins
(for example after a workload's size changes) is computed here, outside
the timed region, by :func:`reference`.

Regenerate the pins after a deliberate change to the outputs with::

    python3 perfbench/pins.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")


def load() -> dict:
    try:
        with open(PINS) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def reference(workload: str, keys=None) -> dict:
    """Scalar-engine digests for ``workload`` (``keys``: service specs)."""
    import workloads as w

    if workload == "fault_lot":
        return {item["name"]: w.digest(item["report"])
                for item in w.run_fault_lot(w.fault_lot_requests(0),
                                            engine="scalar")}
    if workload == "population":
        spec = w.population_spec()
        out = w.run_population(spec, engine="scalar")
        return {"spec": spec.describe(),
                "summary": w.digest(out["summary"]),
                "records": [w.digest(line) for line in out["records"]]}
    if workload == "service_mix":
        from repro.reporting import batch_device_reports

        result = {}
        for key in keys:
            fault, stimulus = key.split("|")
            request = w.service_reference_request(
                None if fault == w.HEALTHY else fault, stimulus)
            result[key] = w.digest(batch_device_reports(
                [request], engine="scalar")[0])
        return result
    raise ValueError(f"unknown workload {workload!r}")


def all_service_keys():
    import workloads as w
    from repro.pll.faults import FAULT_LIBRARY

    return [w.spec_key(fault, stimulus)
            for fault in (None, *FAULT_LIBRARY) for stimulus in w.STIMULI]


def main() -> int:
    pins = {
        "fault_lot": reference("fault_lot"),
        "population": reference("population"),
        "service_mix": reference("service_mix", all_service_keys()),
    }
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINS}")
    return 0


if __name__ == "__main__":
    sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]
    sys.exit(main())

"""One repetition of a farm workload, in a fresh process.

Usage: ``python3 perfbench/unit.py <fault_lot|population> <seed> <mode>``

``mode`` is ``0`` (untraced), ``1`` (traced) or ``setup`` (stop once the
first operation could be issued: a set-up probe).

A fresh process per repetition gives every timed run the same starting
state: the process-global nominal-frequency memo is empty and the
executor's once-per-process fallback warning is armed.  Prints one JSON
line: the moment the first operation could be issued (``t_ready``, on
the system-wide monotonic clock the parent also reads), the operation's
wall time, peak RSS, the outputs, and when traced the folded layer
spans.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]


def main(workload: str, seed: int, mode: str) -> dict:
    import workloads as w

    tracer = None
    if mode == "1":
        import tracer as tracing

        tracer = tracing.install()
    if workload == "fault_lot":
        inputs = w.fault_lot_requests(seed)
        run = w.run_fault_lot
    else:
        inputs = w.population_spec()
        run = w.run_population
    t_ready = time.monotonic()
    if mode == "setup":
        return {"t_ready": t_ready}
    start = time.perf_counter()
    outputs = run(inputs)
    end = time.perf_counter()
    record = {
        "t_ready": t_ready,
        "wall_s": end - start,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": outputs,
    }
    if tracer is not None:
        import tracer as tracing

        record["trace"] = tracing.layer_record(tracer)
        record["trace"]["covered_s"] = tracer.covered_s()
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), sys.argv[3])))

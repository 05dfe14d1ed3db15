"""Traced sweep-job server: ``python -m repro serve`` with layer spans.

Usage: ``python3 perfbench/serve.py <trace-out.json> <serve arguments…>``

Installs the benchmark's layer wrappers, then runs the package's own
``serve`` command unchanged.  When the server has drained, the folded
spans, the cache counters and each job's service-side timestamps are
written to ``trace-out.json`` for the benchmark to join with what its
clients saw.  Pool workers fork from this process, so their spans stay
in the workers; their time reaches the trace only through
``executor.pool`` and the per-tone timing each measurement carries back.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]


def main(out_path: str, argv) -> int:
    import tracer as tracing

    tracer = tracing.install()
    from repro.cli import main as cli_main
    from repro.service.service import SweepJobService

    services = []
    init = SweepJobService.__init__

    def remember(self, *args, **kwargs):
        init(self, *args, **kwargs)
        services.append(self)

    SweepJobService.__init__ = remember
    code = cli_main(["serve", *argv])
    # The service stamps jobs with time.monotonic(); spans use
    # time.perf_counter().  Both read CLOCK_MONOTONIC on Linux, and the
    # offset below keeps the join honest elsewhere.
    offset = time.perf_counter() - time.monotonic()
    jobs = {}
    for service in services:
        for job in service.jobs():
            if job.started_at is None or job.finished_at is None:
                continue
            jobs[job.job_id] = {
                "queue_wait_s": job.started_at - job.submitted_at,
                "run_s": job.finished_at - job.started_at,
            }
            jobs[job.job_id]["covered_s"] = tracer.covered_s(
                [(job.started_at + offset, job.finished_at + offset)])
    record = tracing.layer_record(tracer)
    record["jobs"] = jobs
    with open(out_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))

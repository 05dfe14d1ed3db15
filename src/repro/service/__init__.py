"""Long-lived sweep-job service: async queue, streaming tones, warm disk cache.

The paper's monitor answers "measure this device once"; a production
test floor asks "keep measuring devices as they arrive".  This package
is that front-end:

* :mod:`repro.service.jobs` — job model: request/spec forms and the
  PENDING → RUNNING → DONE/FAILED/CANCELLED lifecycle.
* :mod:`repro.service.events` — the per-job event stream (admission,
  start, every finished tone in plan order, terminal verdict).
* :mod:`repro.service.service` — :class:`SweepJobService`: bounded
  queue, sharded scheduler over the sweep monitor, one shared
  :class:`~repro.core.warm.ToneMeasurementCache` of finished tones
  spilled to disk between sessions, cancellation / per-job timeouts /
  stats.
* :mod:`repro.service.protocol` — the JSON-lines wire protocol and the
  spec → request resolution against the Table 3 presets.
* :mod:`repro.service.server` — the unix-socket server
  (``python -m repro serve``).
* :mod:`repro.service.client` — the blocking client the ``submit`` /
  ``watch`` / ``status`` commands use.

The contract that makes the service trustworthy: a job's report is
**byte-identical** to the equivalent one-shot
:meth:`~repro.core.monitor.TransferFunctionMonitor.run` — streaming,
queueing and warm restores change *when* results arrive, never *what*
they are.
"""

from repro.service.client import ServiceClient
from repro.service.events import (
    EVENT_ACCEPTED,
    EVENT_CANCELLED,
    EVENT_DONE,
    EVENT_FAILED,
    EVENT_STARTED,
    EVENT_TONE,
    TERMINAL_EVENTS,
    JobEvent,
)
from repro.service.jobs import (
    TERMINAL_STATES,
    JobState,
    SweepJob,
    SweepJobRequest,
    SweepJobSpec,
)
from repro.service.server import SweepJobServer
from repro.service.service import SweepJobService

__all__ = [
    "JobState",
    "TERMINAL_STATES",
    "SweepJob",
    "SweepJobRequest",
    "SweepJobSpec",
    "JobEvent",
    "EVENT_ACCEPTED",
    "EVENT_STARTED",
    "EVENT_TONE",
    "EVENT_DONE",
    "EVENT_FAILED",
    "EVENT_CANCELLED",
    "TERMINAL_EVENTS",
    "SweepJobService",
    "SweepJobServer",
    "ServiceClient",
]

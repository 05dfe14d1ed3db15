"""Event stream of the sweep-job service.

Every observable job transition — admission, start, each finished tone,
the terminal verdict — is one :class:`JobEvent`.  Events are the
service's *only* output channel to watchers: a subscriber that attaches
late replays the job's full history first, then rides the live stream,
so the sequence a watcher sees is identical whenever it tunes in.

Tone events are emitted **in plan order** regardless of which executor
ran the tones (the monitor releases pool completions in plan order), so
a watcher can fold the stream incrementally — the in-band reference
tone is always the first tone event, exactly as eq. (7) needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.executor import ToneOutcome

__all__ = [
    "JobEvent",
    "EVENT_ACCEPTED",
    "EVENT_STARTED",
    "EVENT_TONE",
    "EVENT_DONE",
    "EVENT_FAILED",
    "EVENT_CANCELLED",
    "TERMINAL_EVENTS",
    "tone_event_payload",
]

EVENT_ACCEPTED = "accepted"
EVENT_STARTED = "started"
EVENT_TONE = "tone"
EVENT_DONE = "done"
EVENT_FAILED = "failed"
EVENT_CANCELLED = "cancelled"

#: Event kinds that end a job's stream.
TERMINAL_EVENTS = frozenset({EVENT_DONE, EVENT_FAILED, EVENT_CANCELLED})


@dataclass(frozen=True)
class JobEvent:
    """One observable step of a job's life.

    ``seq`` increases by one per event within a job (starting at 0 with
    the admission event), so watchers can replay history and splice the
    live stream without duplicates.  ``payload`` is JSON-able by
    construction — it crosses the wire protocol verbatim.
    """

    job_id: str
    seq: int
    kind: str
    payload: dict

    @property
    def terminal(self) -> bool:
        """Whether this event ends the job's stream."""
        return self.kind in TERMINAL_EVENTS

    def to_wire(self) -> dict:
        """Flat JSON-able form for the line protocol."""
        return {
            "event": self.kind,
            "job_id": self.job_id,
            "seq": self.seq,
            **self.payload,
        }


def tone_event_payload(
    index: int,
    outcome: ToneOutcome,
    magnitude_db: Optional[float] = None,
) -> dict:
    """Flatten one tone outcome into a JSON-able event payload.

    Carries the measured quantities a streaming consumer can act on
    mid-sweep — the peak deviation and eq. (8) phase, the warm/cold
    provenance, and (once the reference tone is known) the eq. (7)
    magnitude — or the captured failure text for a dead tone.
    """
    payload: dict = {"index": index, "f_mod_hz": outcome.f_mod}
    if outcome.failed:
        payload["ok"] = False
        payload["error"] = outcome.error
        return payload
    m = outcome.measurement
    payload["ok"] = True
    payload["delta_f_hz"] = m.delta_f_hz
    payload["phase_deg"] = -m.phase_delay_deg
    payload["warm"] = bool(m.timing is not None and m.timing.warm)
    if magnitude_db is not None:
        payload["magnitude_db"] = magnitude_db
    return payload

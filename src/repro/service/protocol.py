"""JSON-lines wire protocol between the service and its clients.

One connection carries one operation: the client sends a single JSON
object on one line, the server answers with one or more JSON lines and
closes.  ``watch`` is the only streaming operation — it emits one line
per :class:`~repro.service.events.JobEvent` (the
:meth:`~repro.service.events.JobEvent.to_wire` form) and ends after the
terminal event, so a line-buffered reader terminates naturally.

Operations
----------
``submit``    ``{"op": "submit", "spec": {...}}`` →
              ``{"ok": true, "job_id": "job-0001", ...}``
``watch``     ``{"op": "watch", "job_id": "job-0001"}`` →
              event lines, ending with ``done``/``failed``/``cancelled``
``cancel``    ``{"op": "cancel", "job_id": ...}`` →
              ``{"ok": true, "cancelled": bool}``
``status``    ``{"op": "status"}`` → the service stats snapshot
``jobs``      ``{"op": "jobs"}`` → ``{"ok": true, "jobs": [...]}``
``report``    ``{"op": "report", "job_id": ...}`` → the rendered
              markdown artefact of a finished job
``shutdown``  ``{"op": "shutdown"}`` → ack, then the server drains and
              exits (the seam the CLI and the smoke test stop through)

Every error is a normal response line ``{"ok": false, "error": "...",
"kind": "<exception class>"}`` — protocol errors never kill the server.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.errors import ConfigurationError
from repro.pll.faults import FAULT_LIBRARY, apply_fault
from repro.presets import (
    paper_bist_config,
    paper_pll,
    paper_stimulus,
    paper_sweep,
)
from repro.service.jobs import SweepJobRequest, SweepJobSpec

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "encode_line",
    "decode_line",
    "error_response",
    "parse_spec",
    "parse_tcp_endpoint",
    "resolve_spec",
]

#: Upper bound on one protocol line; a longer line is a malformed client.
MAX_LINE_BYTES = 1 << 20

#: The operations the server understands.
OPS = frozenset(
    {"submit", "watch", "cancel", "status", "jobs", "report", "shutdown"}
)


def parse_tcp_endpoint(endpoint: str) -> "tuple[str, int]":
    """Split a ``host:port`` endpoint string into ``(host, port)``.

    The protocol is transport-agnostic — the same JSON lines flow over
    a unix socket or TCP — so this is the one place the ``--tcp``
    vocabulary of the serve/submit/watch CLI is parsed.  Port ``0``
    is allowed (bind an ephemeral port; the server reports the real
    one), and a bracketed IPv6 literal like ``[::1]:7000`` works.
    """
    if not isinstance(endpoint, str) or ":" not in endpoint:
        raise ConfigurationError(
            f"TCP endpoint must look like 'host:port', got {endpoint!r}"
        )
    host, _, port_text = endpoint.rpartition(":")
    host = host.strip("[]") or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"TCP endpoint port must be an integer, got {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ConfigurationError(
            f"TCP endpoint port out of range 0-65535: {port}"
        )
    return host, port


def encode_line(payload: dict) -> bytes:
    """Serialise one protocol message to a newline-terminated line.

    Keys are sorted so identical payloads are byte-identical on the
    wire — the same determinism contract the reports keep.
    """
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def decode_line(line: bytes) -> dict:
    """Parse one protocol line into a message object.

    Raises :class:`~repro.errors.ConfigurationError` on anything that is
    not a single JSON object — the server turns that into an error
    response rather than dying.  That covers bytes that are not UTF-8 or
    not JSON, an integer literal past the interpreter's digit limit (a
    plain ``ValueError``) and nesting deep enough to exhaust the
    decoder's recursion (``RecursionError``).
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers UnicodeDecodeError and JSONDecodeError too.
        raise ConfigurationError(f"malformed protocol line: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"protocol line must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    return payload


def error_response(exc: BaseException) -> dict:
    """The uniform error line for any failed operation."""
    return {"ok": False, "error": str(exc), "kind": type(exc).__name__}


def resolve_spec(spec: SweepJobSpec) -> SweepJobRequest:
    """Materialise a wire-form spec against the Table 3 presets.

    Mirrors what the one-shot ``sweep`` command builds from the same
    vocabulary, so a job submitted over the wire produces a report
    byte-identical to the equivalent ``python -m repro sweep`` run.
    """
    if spec.points < 2:
        raise ConfigurationError(
            f"points must be >= 2, got {spec.points!r}"
        )
    pll = paper_pll(nonlinear=spec.nonlinear)
    if spec.fault:
        if spec.fault not in FAULT_LIBRARY:
            known = ", ".join(sorted(FAULT_LIBRARY))
            raise ConfigurationError(
                f"unknown fault {spec.fault!r}; known faults: {known}"
            )
        pll = apply_fault(pll, FAULT_LIBRARY[spec.fault])
    return SweepJobRequest(
        pll=pll,
        stimulus=paper_stimulus(spec.stimulus),
        plan=paper_sweep(points=spec.points),
        config=paper_bist_config(),
        n_workers=spec.n_workers,
        timeout_s=spec.timeout_s,
        label=spec.label,
        engine=spec.engine,
        client_id=spec.client_id,
        priority=spec.priority,
    )


def parse_spec(data: Optional[dict]) -> SweepJobSpec:
    """Parse and validate the ``spec`` member of a submit request."""
    if data is None:
        raise ConfigurationError("submit request is missing its 'spec'")
    return SweepJobSpec.from_dict(data)

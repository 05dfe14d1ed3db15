"""Job model of the sweep-job service.

A *job* is one full Table 2 sweep campaign — a
:class:`~repro.core.monitor.SweepPlan` against one device — submitted
to the long-lived service instead of run one-shot from the CLI.  The
service owns the lifecycle::

    PENDING ──▶ RUNNING ──▶ DONE
        │           ├─────▶ FAILED      (reference tone died, device
        │           │                    raised, or the job timed out)
        │           └─────▶ CANCELLED   (cancel() mid-run: stops at the
        │                                next tone boundary)
        └─────────────────▶ CANCELLED   (cancel() while still queued)

Terminal states are absorbing; a finished job keeps its result, its
rendered report artefact and its event history for watchers that attach
late.

:class:`SweepJobRequest` is the Python-API submission form (carries real
component objects); :class:`SweepJobSpec` is the wire-protocol form (a
flat JSON-able description resolved against :mod:`repro.presets` by the
server, mirroring what the one-shot CLI commands build).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.architecture import BISTConfig
from repro.core.monitor import SweepPlan, SweepResult
from repro.engines import validate_engine
from repro.errors import ConfigurationError
from repro.pll.config import ChargePumpPLL
from repro.stimulus.modulation import ModulatedStimulus

__all__ = [
    "JobState",
    "TERMINAL_STATES",
    "SweepJobRequest",
    "SweepJobSpec",
    "SweepJob",
]


class JobState(str, enum.Enum):
    """Lifecycle state of one submitted sweep job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)


@dataclass(frozen=True)
class SweepJobRequest:
    """Everything one job needs: device, stimulus, plan, policy, budget.

    The measurement quadruple (``pll``, ``stimulus``, ``plan``,
    ``config``) is exactly what a one-shot
    :class:`~repro.core.monitor.TransferFunctionMonitor` takes, so a
    job's report is byte-identical to the equivalent one-shot run.

    ``timeout_s`` bounds the job's *running* wall time; on expiry the
    sweep stops at the next tone boundary (under ``engine="auto"``,
    the first one after the farm pass) and the job fails with a
    timeout diagnosis.  ``n_workers`` is passed to the monitor's
    executor selection per job (the ``REPRO_NUM_WORKERS`` environment
    override still wins).

    ``client_id`` and ``priority`` feed the service's fair dispatch:
    pending jobs are drained round-robin across client ids within each
    priority class (higher classes first), so one flooding client
    cannot starve the rest.  Both are optional — anonymous submissions
    share one round-robin slot at priority 0.
    """

    pll: ChargePumpPLL
    stimulus: ModulatedStimulus
    plan: SweepPlan
    config: BISTConfig = BISTConfig()
    n_workers: int = 1
    timeout_s: Optional[float] = None
    label: Optional[str] = None
    #: Fair-queue identity: jobs from the same client share one
    #: round-robin slot; ``None`` means the anonymous shared slot.
    client_id: Optional[str] = None
    #: Priority class; the scheduler drains higher classes first
    #: (ties broken round-robin per client, then submission order).
    priority: int = 0
    #: Settle engine: ``"auto"`` (default) measures the plan on the
    #: settle farm's per-lane kernel, warming the service's shared
    #: cache; ``"scalar"`` runs per-tone event loops.  Results are
    #: bit-identical.
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers!r}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0.0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s!r}"
            )
        if self.client_id is not None and (
            not isinstance(self.client_id, str) or not self.client_id
        ):
            raise ConfigurationError(
                f"client_id must be a non-empty string or None, "
                f"got {self.client_id!r}"
            )
        if isinstance(self.priority, bool) or not isinstance(
            self.priority, int
        ):
            raise ConfigurationError(
                f"priority must be an int, got {self.priority!r}"
            )
        validate_engine(self.engine)


@dataclass(frozen=True)
class SweepJobSpec:
    """Wire-protocol job description (flat, JSON-able).

    Resolved into a :class:`SweepJobRequest` against the reconstructed
    Table 3 presets — the same vocabulary the one-shot CLI commands
    speak (``--points``, ``--stimulus``, ``--fault``, ``--nonlinear``,
    ``--workers``, ``--engine``).
    """

    points: int = 12
    stimulus: str = "multitone"
    fault: Optional[str] = None
    nonlinear: bool = False
    n_workers: int = 1
    timeout_s: Optional[float] = None
    label: Optional[str] = None
    engine: str = "auto"
    client_id: Optional[str] = None
    priority: int = 0

    def __post_init__(self) -> None:
        # The engine is the one field checked on the wire itself: a bad
        # name fails with the choices menu before any preset resolves.
        validate_engine(self.engine)

    def to_dict(self) -> dict:
        """JSON-able payload for the submit request."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepJobSpec":
        """Parse a submit payload, rejecting unknown fields loudly."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"job spec must be an object, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown job-spec field(s): {', '.join(unknown)}"
            )
        return cls(**data)


@dataclass
class SweepJob:
    """One submitted job and everything the service knows about it.

    Mutable by the service only; everything here is read-only to
    watchers.  Timestamps come from the service clock
    (:func:`time.monotonic`), so durations are robust against wall-clock
    steps; they are session-relative, not epochs.
    """

    job_id: str
    request: SweepJobRequest
    state: JobState = JobState.PENDING
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Human-readable failure/cancellation diagnosis.
    error: Optional[str] = None
    #: The evaluated sweep (DONE jobs only).
    result: Optional[SweepResult] = None
    #: Rendered markdown artefact: a full device report for DONE jobs,
    #: a failure stub otherwise (mirroring the batch screen's
    #: one-artefact-per-device contract).
    report: Optional[str] = None
    #: Plan indices streamed so far, in emission (= plan) order.
    streamed_indices: List[int] = field(default_factory=list)
    #: How many streamed tones were served warm from the lock cache.
    warm_tones: int = 0
    #: How many streamed tones failed (captured as data, not a crash).
    failed_tones: int = 0

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in TERMINAL_STATES

    @property
    def running_s(self) -> Optional[float]:
        """Running wall time (None until the job has started)."""
        if self.started_at is None:
            return None
        if self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def snapshot(self) -> dict:
        """JSON-able status row for ``/status`` listings and events."""
        return {
            "job_id": self.job_id,
            "label": self.request.label,
            "client_id": self.request.client_id,
            "priority": self.request.priority,
            "state": self.state.value,
            "tones_planned": len(self.request.plan.frequencies_hz),
            "tones_streamed": len(self.streamed_indices),
            "warm_tones": self.warm_tones,
            "failed_tones": self.failed_tones,
            "error": self.error,
            "running_s": self.running_s,
        }

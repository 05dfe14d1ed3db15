"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ConvergenceError",
    "LockError",
    "StimulusError",
    "MeasurementError",
    "SequencerError",
    "FaultInjectionError",
    "CachePersistenceError",
    "ServiceError",
    "JobQueueFullError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """A component was configured with physically meaningless parameters.

    Examples: a negative resistance, a zero divider modulus, a VCO whose
    minimum frequency exceeds its maximum.
    """


class SimulationError(ReproError, RuntimeError):
    """The behavioral simulator reached an inconsistent internal state."""


class ConvergenceError(SimulationError):
    """An iterative numerical routine failed to converge.

    Raised by the edge-crossing root solver and by curve-fitting helpers
    when the requested tolerance cannot be met within the iteration
    budget.
    """


class LockError(SimulationError):
    """The PLL failed to acquire or hold lock when the test required it.

    The transfer-function test of the paper assumes the loop starts from
    lock (Table 2, stage 0); if the loop cannot lock — e.g. because an
    injected fault has pushed the operating point outside the VCO range —
    this error carries that diagnosis.
    """


class StimulusError(ReproError, ValueError):
    """A stimulus generator was asked for something it cannot produce.

    Example: a DCO asked for a frequency step finer than the resolution
    limit of equation (2) of the paper.
    """


class MeasurementError(ReproError, RuntimeError):
    """A BIST measurement could not be completed or evaluated.

    Examples: the peak detector never fired within the allotted
    modulation cycles, or a magnitude evaluation was requested before the
    in-band reference measurement exists.
    """


class SequencerError(ReproError, RuntimeError):
    """The Table-2 test sequencer was driven through an illegal transition."""


class FaultInjectionError(ReproError, ValueError):
    """A fault descriptor does not apply to the targeted component."""


class CachePersistenceError(ReproError, RuntimeError):
    """A persisted warm-cache file could not be read as a cache.

    Raised by :meth:`repro.core.warm.BoundedCache.load` (the lock-state
    and measurement tiers alike) when the file is missing, truncated,
    not a cache at all, fails its SHA-256, or was written by a *newer*
    format version than this library understands.  Individual entries
    the loading tier does not admit are *skipped*, not raised — losing
    a warm start costs a re-measure, never a crash.
    """


class ServiceError(ReproError, RuntimeError):
    """The sweep-job service was driven through an illegal transition.

    Examples: submitting to a service that is not running, or watching a
    job id the service has never seen.
    """


class JobQueueFullError(ServiceError):
    """A job submission was rejected because the bounded queue is full.

    The sweep-job service admits at most ``queue_limit`` live (pending +
    running) jobs; back-pressure is explicit so producers can retry or
    shed load instead of growing an unbounded backlog.
    """

"""The paper's contribution: on-chip closed-loop transfer-function BIST.

* :mod:`repro.core.peak_detector` — the novel modified-PFD peak
  frequency detector (Figure 7/8).
* :mod:`repro.core.counters` — gated frequency counter and phase
  counter (Figure 6, eq. 8).
* :mod:`repro.core.hold` — the loop-hold (break-and-freeze) mechanism.
* :mod:`repro.core.sequencer` — the Table 2 five-stage test sequence.
* :mod:`repro.core.executor` — serial / batched process-pool execution
  of the tones a sweep's caches cannot answer (pickled chunk results).
* :mod:`repro.core.warm` — the warm-start lock-state cache serving
  settled stage-0 snapshots.
* :mod:`repro.core.monitor` — the sweep orchestrator producing the
  Figures 11–12 responses.
* :mod:`repro.core.evaluation` — eqs. (7) and (8): magnitude and phase
  from counted quantities.
* :mod:`repro.core.limits` — on-chip limit comparison (go/no-go).
* :mod:`repro.core.architecture` — the Figure 6 configuration container
  (mux states, test clock, gate sizing).
* :mod:`repro.core.selftest` — the four-step production self-test
  (lock / nominal frequency / hold droop / transfer function).
"""

from repro.core.peak_detector import PeakFrequencyDetector, PeakEvent
from repro.core.counters import (
    FrequencyCounter,
    FrequencyMeasurement,
    PhaseCounter,
    PhaseCount,
)
from repro.core.hold import LoopHoldControl
from repro.core.architecture import BISTConfig, MuxState, TEST_SEQUENCE_TABLE
from repro.core.executor import (
    ToneOutcome,
    SweepAborted,
    SerialSweepExecutor,
    ProcessPoolSweepExecutor,
    ParallelFallbackWarning,
    executor_for,
)
from repro.core.sequencer import (
    TestStage,
    ToneMeasurement,
    ToneTestSequencer,
    ToneTiming,
)
from repro.core.warm import LockStateCache
from repro.core.evaluation import evaluate_sweep, magnitude_db_eq7, phase_deg_eq8
from repro.core.monitor import SweepPlan, SweepResult, TransferFunctionMonitor
from repro.core.limits import LimitCheck, LimitReport, TestLimits
from repro.core.selftest import PLLSelfTest, SelfTestReport, SelfTestStep

__all__ = [
    "PeakFrequencyDetector",
    "PeakEvent",
    "FrequencyCounter",
    "FrequencyMeasurement",
    "PhaseCounter",
    "PhaseCount",
    "LoopHoldControl",
    "BISTConfig",
    "MuxState",
    "TEST_SEQUENCE_TABLE",
    "ToneOutcome",
    "SweepAborted",
    "SerialSweepExecutor",
    "ProcessPoolSweepExecutor",
    "ParallelFallbackWarning",
    "executor_for",
    "LockStateCache",
    "TestStage",
    "ToneMeasurement",
    "ToneTestSequencer",
    "ToneTiming",
    "evaluate_sweep",
    "magnitude_db_eq7",
    "phase_deg_eq8",
    "SweepPlan",
    "SweepResult",
    "TransferFunctionMonitor",
    "LimitCheck",
    "LimitReport",
    "TestLimits",
    "PLLSelfTest",
    "SelfTestReport",
    "SelfTestStep",
]

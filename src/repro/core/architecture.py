"""The Figure 6 test architecture: configuration and mux bookkeeping.

Figure 6 places two multiplexers around the PFD: M1 selects what reaches
the reference input (normal reference vs. modulated test stimulus) and
M2 selects what reaches the feedback input (divided VCO vs. a copy of
the reference — the hold connection).  Table 2 expresses the test
sequence in terms of those switch settings; :class:`MuxState` and
:data:`TEST_SEQUENCE_TABLE` reproduce that table verbatim so the
sequencer can be checked stage-for-stage against the paper.

:class:`BISTConfig` gathers every knob of the on-chip test hardware in
one place: test clock, counter modes, peak-detector gate delays, settle
wait.  One config + one PLL + one stimulus = one reproducible test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError

__all__ = ["MuxState", "BISTConfig", "TEST_SEQUENCE_TABLE"]


class MuxState(enum.Enum):
    """Joint setting of the M1/M2 input muxes (Figure 6).

    In the paper's notation, ``A=C`` routes the modulated test stimulus
    to the PFD reference input and ``B=D`` routes the divided VCO to the
    feedback input; ``A=D`` instead routes the *reference copy* to the
    feedback input, holding the loop.
    """

    NORMAL = "normal"          # mission mode: external ref, closed loop
    TEST_CLOSED = "a=c,b=d"    # modulated stimulus, loop closed
    TEST_HOLD = "a=c,a=d"      # modulated stimulus on both inputs: hold


#: Table 2 of the paper, stage by stage: (stage id, mux state, comment).
TEST_SEQUENCE_TABLE: Tuple[Tuple[int, MuxState, str], ...] = (
    (0, MuxState.TEST_CLOSED,
     "Ref set: apply digital modulation at FN, loop locked"),
    (1, MuxState.TEST_CLOSED,
     "Set phase counter: start at the peak of the input modulation"),
    (2, MuxState.TEST_CLOSED,
     "Monitor peak: watch for the peak output signal frequency"),
    (3, MuxState.TEST_HOLD,
     "Peak occurred: hold the PLL, stop the phase counter"),
    (4, MuxState.TEST_HOLD,
     "Measure: count the held output frequency, store both results"),
    (5, MuxState.TEST_CLOSED,
     "Increase modulation frequency FN and repeat stages 1-4"),
)


@dataclass(frozen=True)
class BISTConfig:
    """All on-chip test-hardware parameters in one value object.

    Parameters
    ----------
    test_clock_hz:
        BIST test clock (drives the phase counter and the frequency
        counter's timebase).  The paper's FPGA used megahertz-class
        clocks; 10 MHz is the default here.
    settle_cycles:
        Modulation cycles to wait after applying a new tone before
        arming the counters (lets the loop reach sinusoidal steady
        state).
    frequency_count_periods:
        Feedback periods timed by the reciprocal frequency counter
        during the hold.
    detector_inverter_delay / detector_and_delay:
        Gate delays of the Figure 7 sampling circuit.  The inverter
        delay must exceed the AND delay plus the dead-zone glitch width
        for correct sampling.
    """

    test_clock_hz: float = 10e6
    settle_cycles: int = 4
    frequency_count_periods: int = 64
    detector_inverter_delay: float = 60e-9
    detector_and_delay: float = 5e-9

    def __post_init__(self) -> None:
        if self.test_clock_hz <= 0.0:
            raise ConfigurationError(
                f"test_clock_hz must be positive, got {self.test_clock_hz!r}"
            )
        if self.settle_cycles < 1:
            raise ConfigurationError(
                f"settle_cycles must be >= 1, got {self.settle_cycles!r}"
            )
        if self.frequency_count_periods < 1:
            raise ConfigurationError(
                "frequency_count_periods must be >= 1, got "
                f"{self.frequency_count_periods!r}"
            )
        if self.detector_inverter_delay <= self.detector_and_delay:
            raise ConfigurationError(
                "detector_inverter_delay must exceed detector_and_delay "
                f"({self.detector_inverter_delay!r} <= "
                f"{self.detector_and_delay!r})"
            )

    def validate_against_pfd(self, pfd_reset_delay: float) -> None:
        """Check the Figure 7 sampling constraint against a PFD.

        The dead-zone glitch width equals the PFD reset delay; the
        inverter must out-delay ``and_delay + glitch`` or the latch can
        sample the glitch itself (the failure mode the paper warns
        about).
        """
        if self.detector_inverter_delay <= self.detector_and_delay + pfd_reset_delay:
            raise ConfigurationError(
                "peak-detector inverter delay "
                f"{self.detector_inverter_delay!r}s does not cover the "
                f"AND delay {self.detector_and_delay!r}s plus the dead-zone "
                f"glitch {pfd_reset_delay!r}s; widen the glitches or slow "
                "the inverter (Section 4)"
            )

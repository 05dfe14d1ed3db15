"""Tapped-delay-line phase modulation (Section 3 / future work).

Besides the DCO, the paper points at "tapped delay line techniques …
for phase modulation" and names "hybrid DCO, delay line and delay
locked loop generation techniques" as ongoing research.  This module
implements that stimulus family:

* :class:`TappedDelayLine` — a chain of nominally equal delay elements
  with optional per-element mismatch; selecting tap *k* delays an edge
  by the sum of the first *k* element delays.
* :class:`DelayLockedLoop` — calibrates the line so its total delay
  equals one reference period (the standard DLL servo, modelled at the
  update-per-reference-edge level), which makes tap *k* a phase shift
  of ``k/n_taps`` cycles regardless of process spread of the average
  element.
* :class:`DelayLinePMSource` — an edge source applying a stepped
  sinusoidal *phase* modulation by re-selecting the tap once per
  carrier edge.  Phase modulation with peak deviation ``Δφ`` rad at
  ``f_mod`` is equivalent to frequency modulation with peak deviation
  ``Δφ·f_mod/2π·2π = Δφ·f_mod`` Hz (Section 2's FM/PM equivalence), so
  the same transfer-function measurement runs unchanged on top of it.

Resolution trade-off vs the DCO: the delay line quantises *phase* to
``1/n_taps`` of a cycle independent of modulation frequency, while the
DCO quantises *frequency* to eq. (2)'s ``Fres``; the PM ablation bench
compares the two experimentally.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.errors import StimulusError
from repro.stimulus.modulation import ModulatedStimulus

__all__ = [
    "TappedDelayLine",
    "DelayLockedLoop",
    "DelayLinePMSource",
    "DelayLinePMStimulus",
]


class TappedDelayLine:
    """A chain of ``n_taps`` delay elements with a common control knob.

    The delay of element *i* is ``unit_delay * (1 + mismatch[i])``;
    ``unit_delay`` is the voltage-controlled quantity a DLL adjusts.

    Parameters
    ----------
    n_taps:
        Number of delay elements (tap 0 is the undelayed input).
    unit_delay:
        Nominal per-element delay in seconds.
    mismatch:
        Optional per-element fractional errors (length ``n_taps``);
        models process spread along the line.
    """

    def __init__(
        self,
        n_taps: int,
        unit_delay: float,
        mismatch: Optional[Sequence[float]] = None,
    ) -> None:
        if n_taps < 2:
            raise StimulusError(f"need at least 2 taps, got {n_taps!r}")
        if unit_delay <= 0.0:
            raise StimulusError(
                f"unit_delay must be positive, got {unit_delay!r}"
            )
        if mismatch is None:
            mismatch = [0.0] * n_taps
        if len(mismatch) != n_taps:
            raise StimulusError(
                f"mismatch needs {n_taps} entries, got {len(mismatch)}"
            )
        if any(m <= -1.0 for m in mismatch):
            raise StimulusError("mismatch of -100% or worse is not a delay")
        self.n_taps = n_taps
        self.unit_delay = unit_delay
        self.mismatch = list(mismatch)

    def tap_delay(self, tap: int) -> float:
        """Total delay from the input to tap ``tap`` (0 = no delay)."""
        if not (0 <= tap <= self.n_taps):
            raise StimulusError(
                f"tap must be in [0, {self.n_taps}], got {tap!r}"
            )
        return self.unit_delay * sum(
            1.0 + self.mismatch[i] for i in range(tap)
        )

    @property
    def total_delay(self) -> float:
        """Delay of the full line (tap ``n_taps``)."""
        return self.tap_delay(self.n_taps)

    def retune(self, unit_delay: float) -> None:
        """Set the common (voltage-controlled) per-element delay."""
        if unit_delay <= 0.0:
            raise StimulusError(
                f"unit_delay must be positive, got {unit_delay!r}"
            )
        self.unit_delay = unit_delay


class DelayLockedLoop:
    """First-order DLL servo locking a delay line to one clock period.

    Each reference edge compares the line's total delay against the
    period and moves the control by ``loop_gain`` times the error — the
    behavioral view of a phase detector + charge pump + control voltage
    acting on all elements together.

    Parameters
    ----------
    line:
        The delay line under control (retuned in place).
    f_ref:
        Clock whose period the line must span, Hz.
    loop_gain:
        Fraction of the measured error corrected per update (0 < g <= 1).
    """

    def __init__(
        self,
        line: TappedDelayLine,
        f_ref: float,
        loop_gain: float = 0.3,
    ) -> None:
        if f_ref <= 0.0:
            raise StimulusError(f"f_ref must be positive, got {f_ref!r}")
        if not (0.0 < loop_gain <= 1.0):
            raise StimulusError(
                f"loop_gain must be in (0, 1], got {loop_gain!r}"
            )
        self.line = line
        self.f_ref = f_ref
        self.loop_gain = loop_gain
        self.updates = 0

    @property
    def target_delay(self) -> float:
        """One reference period."""
        return 1.0 / self.f_ref

    @property
    def delay_error(self) -> float:
        """Current total-delay error in seconds (positive = line slow)."""
        return self.line.total_delay - self.target_delay

    def update(self) -> float:
        """One servo step (one reference edge); returns the new error."""
        error = self.delay_error
        # All elements share the control: scale the unit delay.
        correction = 1.0 - self.loop_gain * error / self.line.total_delay
        self.line.retune(self.line.unit_delay * correction)
        self.updates += 1
        return self.delay_error

    def lock(self, tolerance: float = 1e-12, max_updates: int = 10_000) -> int:
        """Run the servo until ``|error| <= tolerance``; returns updates.

        Raises
        ------
        StimulusError
            If the servo fails to converge within ``max_updates``.
        """
        for _ in range(max_updates):
            if abs(self.delay_error) <= tolerance:
                return self.updates
            self.update()
        raise StimulusError(
            f"DLL failed to lock within {max_updates} updates "
            f"(error {self.delay_error!r} s)"
        )


class DelayLinePMSource:
    """Stepped sinusoidal phase modulation via tap selection.

    Carrier edges come from an ideal ``f_nominal`` clock; each edge is
    routed through the tap nearest the wanted instantaneous phase shift
    ``Δφ(t) = peak_phase · sin(2π f_mod t)`` (quantised to the line's
    ``1/n_taps``-cycle grid, exactly like the DCO quantises frequency).

    Monotonicity requires the per-edge phase step to stay below one
    carrier period: ``peak_phase · f_mod < f_nominal`` in cycles — the
    same bound as exact PM.

    Parameters
    ----------
    line:
        A delay line whose total delay spans one carrier period (use a
        :class:`DelayLockedLoop` to get it there).
    f_nominal:
        Carrier (reference) frequency, Hz.
    peak_phase_cycles:
        Peak phase deviation in *cycles* (1.0 = 2π rad); must be below
        0.5 to keep tap selection unambiguous.
    f_mod:
        Modulation frequency, Hz.
    """

    def __init__(
        self,
        line: TappedDelayLine,
        f_nominal: float,
        peak_phase_cycles: float,
        f_mod: float,
        start_time: float = 0.0,
    ) -> None:
        if f_nominal <= 0.0:
            raise StimulusError(
                f"f_nominal must be positive, got {f_nominal!r}"
            )
        if f_mod <= 0.0:
            raise StimulusError(f"f_mod must be positive, got {f_mod!r}")
        if not (0.0 <= peak_phase_cycles < 0.5):
            raise StimulusError(
                "peak_phase_cycles must be in [0, 0.5), got "
                f"{peak_phase_cycles!r}"
            )
        period = 1.0 / f_nominal
        if abs(line.total_delay - period) > 0.01 * period:
            raise StimulusError(
                f"delay line spans {line.total_delay!r}s but one carrier "
                f"period is {period!r}s; lock it with a DelayLockedLoop "
                "first"
            )
        self.line = line
        self.f_nominal = f_nominal
        self.peak_phase_cycles = peak_phase_cycles
        self.f_mod = f_mod
        self.start_time = start_time
        self._k = 0

    def wanted_phase_cycles(self, t: float) -> float:
        """The ideal (unquantised) phase deviation at time ``t``."""
        return self.peak_phase_cycles * math.sin(
            2.0 * math.pi * self.f_mod * (t - self.start_time)
        )

    def tap_for_phase(self, phase_cycles: float) -> int:
        """Nearest tap for a wanted phase shift (may wrap below zero).

        Negative shifts are realised as positive delays of
        ``1 - |shift|`` cycles — delaying by almost a period *is* an
        early edge relative to the undelayed grid, at the cost of a
        one-period latency that cancels in the (relative) measurement.
        """
        wrapped = phase_cycles % 1.0
        tap = round(wrapped * self.line.n_taps)
        return int(tap % self.line.n_taps)

    def next_edge(self) -> float:
        """Time of the next (phase-modulated) rising edge."""
        self._k += 1
        t_grid = self.start_time + self._k / self.f_nominal
        phase = self.wanted_phase_cycles(t_grid)
        tap = self.tap_for_phase(phase)
        # The realised delay for this edge.
        delay = self.line.tap_delay(tap)
        if phase < 0.0 and tap != 0:
            # Wrapped negative shift: one full period of latency rides
            # along; subtract it so the edge lands near its grid slot.
            delay -= self.line.total_delay
        return t_grid + delay

    @property
    def equivalent_fm_deviation(self) -> float:
        """Peak frequency deviation this PM produces, in Hz.

        With phase deviation ``θ(t) = 2π·p·sin(2π·f_mod·t)`` rad
        (``p`` in cycles), the instantaneous frequency deviation is
        ``dθ/dt / 2π = 2π·p·f_mod·cos(...)``, peaking at
        ``2π·p·f_mod`` Hz — the Section 2 FM/PM equivalence.
        """
        return 2.0 * math.pi * self.peak_phase_cycles * self.f_mod


class DelayLinePMStimulus(ModulatedStimulus):
    """Constant-deviation phase modulation for the transfer-function test.

    Section 2 notes that "it is possible to replace phase modulation by
    frequency modulation"; the equivalence requires the *frequency*
    deviation to stay constant across the sweep, so this stimulus sets
    the peak phase per tone to ``Δφ = ΔF / f_mod`` (rad), i.e.
    ``ΔF / (2π·f_mod)`` cycles.

    That choice exposes the delay line's intrinsic weakness, which the
    paper flags as "problems related to tone resolution": the wanted
    peak phase shrinks as ``1/f_mod``, while the line only resolves
    ``1/n_taps`` of a cycle — above
    ``f_mod ≈ ΔF·n_taps/(2π·few)`` the modulation drowns in
    quantisation.  The PM-vs-FM ablation bench quantifies exactly this.

    Parameters
    ----------
    f_nominal, deviation:
        As for the FM stimuli: carrier frequency and the constant
        equivalent peak frequency deviation, Hz.
    n_taps:
        Delay-line length; more taps = finer phase grid = higher usable
        modulation frequency.
    mismatch:
        Optional per-element fractional delay errors.
    dll_lock:
        Run the DLL servo from a deliberately detuned state instead of
        constructing the line pre-locked (slower, but exercises the
        calibration path).
    """

    label = "Delay Line PM"

    def __init__(
        self,
        f_nominal: float,
        deviation: float,
        n_taps: int = 256,
        mismatch: Optional[Sequence[float]] = None,
        dll_lock: bool = True,
    ) -> None:
        super().__init__(f_nominal, deviation)
        if n_taps < 2:
            raise StimulusError(f"need at least 2 taps, got {n_taps!r}")
        self.n_taps = n_taps
        self.mismatch = list(mismatch) if mismatch is not None else None
        self.dll_lock = dll_lock
        self.label = f"Delay Line PM ({n_taps} taps)"

    def _locked_line(self) -> TappedDelayLine:
        nominal_unit = 1.0 / (self.f_nominal * self.n_taps)
        if self.dll_lock:
            line = TappedDelayLine(
                self.n_taps, 1.37 * nominal_unit, self.mismatch
            )
            DelayLockedLoop(line, self.f_nominal).lock()
            return line
        line = TappedDelayLine(self.n_taps, nominal_unit, self.mismatch)
        if self.mismatch is not None:
            # Pre-locked construction must still span one period exactly.
            DelayLockedLoop(line, self.f_nominal).lock()
        return line

    def peak_phase_cycles(self, f_mod: float) -> float:
        """Per-tone peak phase keeping the frequency deviation constant."""
        if f_mod <= 0.0:
            raise StimulusError(f"f_mod must be positive, got {f_mod!r}")
        p = self.deviation / (2.0 * math.pi * f_mod)
        if p >= 0.5:
            raise StimulusError(
                f"tone {f_mod!r} Hz needs {p:.3f} cycles of peak phase; "
                "the delay line covers < 0.5 — raise f_mod or lower the "
                "deviation"
            )
        return p

    def cache_key(self) -> Tuple[object, ...]:
        mismatch = tuple(self.mismatch) if self.mismatch is not None else None
        return super().cache_key() + (self.n_taps, mismatch, self.dll_lock)

    def make_source(self, f_mod: float, start_time: float = 0.0
                    ) -> DelayLinePMSource:
        return DelayLinePMSource(
            line=self._locked_line(),
            f_nominal=self.f_nominal,
            peak_phase_cycles=self.peak_phase_cycles(f_mod),
            f_mod=f_mod,
            start_time=start_time,
        )

    def modulation_peak_time(self, f_mod: float, start_time: float = 0.0,
                             index: int = 0) -> float:
        """Where the input *frequency* deviation peaks for this PM.

        A positive tap selection *delays* the edge, i.e. retards the
        signal phase: ``θi(t) = -2π·p·sin(2π·f_mod·t)``, so the
        frequency deviation is ``∝ -cos`` and peaks at half-period
        offsets, not quarter periods.
        """
        return start_time + (0.5 + index) / f_mod

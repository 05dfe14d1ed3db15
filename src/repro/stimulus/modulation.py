"""The three stimulus classes compared in Figures 11–12.

Each stimulus wraps "how do I modulate the reference at modulation
frequency ``f_mod``" into a factory of edge sources, plus the metadata
the BIST sequencer needs (where the input-modulation peak lies — that is
where Table 2 stage (1) starts the phase counter — and the nominal peak
deviation used by eq. 7's linearity argument).

* :class:`SineFMStimulus` — pure sinusoidal FM, the bench ideal.
* :class:`MultiToneFSKStimulus` — the paper's on-chip method: ``steps``
  DCO tones per modulation cycle (ten in the paper's experiment).
* :class:`TwoToneFSKStimulus` — the degenerate two-tone hop, shown in
  the paper to deviate visibly from the sine-FM response.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.errors import StimulusError
from repro.stimulus.dco import DCO, DCOProgrammedSource
from repro.stimulus.waveforms import (
    PiecewiseConstantFrequencySource,
    SinusoidalFMSource,
)

__all__ = [
    "ModulatedStimulus",
    "SineFMStimulus",
    "MultiToneFSKStimulus",
    "TwoToneFSKStimulus",
]


class ModulatedStimulus:
    """Base class: a parameterised family of modulated references.

    Parameters
    ----------
    f_nominal:
        Unmodulated reference frequency at the PFD, Hz.
    deviation:
        Peak frequency deviation, Hz.  Must keep the loop inside its
        linear range (Section 4's only requirement on amplitude).
    """

    label = "modulated"

    def __init__(self, f_nominal: float, deviation: float) -> None:
        if f_nominal <= 0.0:
            raise StimulusError(f"f_nominal must be positive, got {f_nominal!r}")
        if not (0.0 < deviation < f_nominal):
            raise StimulusError(
                f"deviation must be in (0, f_nominal), got {deviation!r}"
            )
        self.f_nominal = f_nominal
        self.deviation = deviation

    def make_source(self, f_mod: float, start_time: float = 0.0):
        """Edge source modulated at ``f_mod`` Hz, beginning at
        ``start_time``."""
        raise NotImplementedError

    def cache_key(self) -> Tuple:
        """Hashable fingerprint of everything that shapes the edge train.

        Two stimuli with equal keys produce bit-identical sources from
        :meth:`make_source` for every ``(f_mod, start_time)``; the
        warm-start machinery uses this to key finished tones.
        Subclasses with extra shape parameters must extend the tuple.
        """
        return (type(self).__name__, self.f_nominal, self.deviation)

    def modulation_peak_time(self, f_mod: float, start_time: float = 0.0,
                             index: int = 0) -> float:
        """Absolute time of the ``index``-th input-frequency maximum.

        The underlying (or approximated) sine is
        ``deviation · sin(2π f_mod (t - start_time))``, peaking at
        quarter-period offsets.
        """
        return start_time + (0.25 + index) / f_mod

    def ideal_frequency(self, f_mod: float, t: float,
                        start_time: float = 0.0) -> float:
        """The sine the stimulus approximates, for comparison plots."""
        return self.f_nominal + self.deviation * math.sin(
            2.0 * math.pi * f_mod * (t - start_time)
        )


class SineFMStimulus(ModulatedStimulus):
    """Pure sinusoidal FM (bench equipment; the paper's reference curve)."""

    label = "Pure Sine FM"

    def make_source(self, f_mod: float, start_time: float = 0.0
                    ) -> SinusoidalFMSource:
        return SinusoidalFMSource(
            f_nominal=self.f_nominal,
            deviation=self.deviation,
            f_mod=f_mod,
            start_time=start_time,
        )


class MultiToneFSKStimulus(ModulatedStimulus):
    """Stepped (multi-tone FSK) approximation of sinusoidal FM.

    Parameters
    ----------
    steps:
        Tones per modulation cycle (the paper uses ten).
    dco:
        Optional :class:`~repro.stimulus.dco.DCO`.  When given, tones
        snap to the achievable grid and — with ``hardware_edges`` — the
        edges come from the real ring-counter model.  When omitted, the
        tones are ideal (infinite resolution).
    hardware_edges:
        Use :class:`~repro.stimulus.dco.DCOProgrammedSource` (modulus
        hops at output edges) instead of the idealised
        piecewise-constant source.  Requires ``dco``.
    """

    label = "Multi Tone FSK"

    def __init__(
        self,
        f_nominal: float,
        deviation: float,
        steps: int = 10,
        dco: Optional[DCO] = None,
        hardware_edges: bool = False,
    ) -> None:
        super().__init__(f_nominal, deviation)
        if steps < 2:
            raise StimulusError(f"steps must be >= 2, got {steps!r}")
        if hardware_edges and dco is None:
            raise StimulusError("hardware_edges requires a DCO")
        self.steps = steps
        self.dco = dco
        self.hardware_edges = hardware_edges
        if steps != 2:
            self.label = f"Multi Tone FSK ({steps} steps)"
        if dco is not None:
            # Fail early if the grid cannot express the deviation.
            dco.tone_set(f_nominal, deviation, steps)

    def cache_key(self) -> Tuple:
        """Base fingerprint plus the FSK shape parameters."""
        dco_key = (
            None
            if self.dco is None
            else (self.dco.f_master, self.dco.max_modulus)
        )
        return super().cache_key() + (self.steps, self.hardware_edges, dco_key)

    def tone_frequencies(self) -> List[float]:
        """The per-dwell tones over one modulation cycle."""
        if self.dco is not None:
            return self.dco.tone_set(self.f_nominal, self.deviation, self.steps)
        return [
            self.f_nominal
            + self.deviation * math.sin(2.0 * math.pi * (i + 0.5) / self.steps)
            for i in range(self.steps)
        ]

    def schedule(self, f_mod: float) -> List[Tuple[float, float]]:
        """Repeating ``(frequency, dwell)`` schedule for one cycle."""
        if f_mod <= 0.0:
            raise StimulusError(f"f_mod must be positive, got {f_mod!r}")
        dwell = 1.0 / (f_mod * self.steps)
        return [(f, dwell) for f in self.tone_frequencies()]

    def make_source(self, f_mod: float, start_time: float = 0.0):
        if self.hardware_edges:
            assert self.dco is not None
            dwell = 1.0 / (f_mod * self.steps)
            moduli = [
                (self.dco.modulus_for(f), dwell)
                for f in self.tone_frequencies()
            ]
            return DCOProgrammedSource(self.dco, moduli, start_time)
        return PiecewiseConstantFrequencySource(
            self.schedule(f_mod), start_time
        )


class TwoToneFSKStimulus(MultiToneFSKStimulus):
    """Two-tone FSK: the reference hops between ``f ± deviation``.

    The crudest discrete FM — Figures 11–12 include it to show how much
    stimulus quality matters.  Implemented as the two-step case of the
    multi-tone generator (dwell midpoints sample the sine at ±90°, i.e.
    exactly ``±deviation``).
    """

    label = "Two Tone FSK"

    def __init__(
        self,
        f_nominal: float,
        deviation: float,
        dco: Optional[DCO] = None,
        hardware_edges: bool = False,
    ) -> None:
        super().__init__(
            f_nominal, deviation, steps=2, dco=dco, hardware_edges=hardware_edges
        )
        self.label = "Two Tone FSK"

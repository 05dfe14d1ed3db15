"""Simulation kernel: edge streams, segment algebra and root solving.

This subpackage is the substrate on which the behavioral CP-PLL model
(:mod:`repro.pll`) and the BIST logic (:mod:`repro.core`) are built.  It
provides:

* :mod:`repro.sim.segments` — closed-form descriptions of how an
  analogue node evolves while the driving digital state is constant
  (exponential relaxation, linear ramp, hold), including exact integrals
  used for VCO phase accumulation.
* :mod:`repro.sim.solvers` — safeguarded Newton/bisection root finding
  for edge-crossing times on monotone analytic functions.
* :mod:`repro.sim.events` — the timed logic-edge record
  (:class:`Edge`, :class:`EdgeKind`) of the digital test circuitry.
* :mod:`repro.sim.signals` — recorded digital edge streams with
  value-at-time queries, gating and frequency estimation.
* :mod:`repro.sim.probes` — analogue trace recording and peak analysis.
"""

from repro.sim.segments import (
    AnalogSegment,
    ConstantSegment,
    ExponentialSegment,
    RampSegment,
    crossing_time,
)
from repro.sim.solvers import bisect_increasing, solve_increasing
from repro.sim.events import Edge, EdgeKind
from repro.sim.signals import EdgeStream, LogicLevel, PulseTrain, edges_to_frequency
from repro.sim.probes import Trace, TracePeak

__all__ = [
    "AnalogSegment",
    "ConstantSegment",
    "ExponentialSegment",
    "RampSegment",
    "crossing_time",
    "bisect_increasing",
    "solve_increasing",
    "Edge",
    "EdgeKind",
    "EdgeStream",
    "LogicLevel",
    "PulseTrain",
    "edges_to_frequency",
    "Trace",
    "TracePeak",
]

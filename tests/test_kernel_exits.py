"""Every exit of the farm kernel, reached.

:meth:`~repro.sim.vectorized.VectorizedLotSimulator._kernel_run` ejects
a lane (``eject = True``) wherever the scalar engine would raise, or
would take a path the kernel does not transcribe (a VCO clamp split, the
solver's bisection budget).  Each site carries a short comment naming
what it mirrors; that comment is the site's key here.

Each case below builds a die, stimulus, config and tone whose farm lane
reaches one site, and checks what an ejection promises: the lot
premeasure publishes nothing for the tone, and the die's ``auto`` report
is byte-identical to its ``scalar`` report.  The census traces the
kernel's own code object over every case and fails when an exit is
neither reached nor listed in :data:`UNREACHED` with its reason, so a
new exit cannot land without a case.
"""

from __future__ import annotations

import inspect
import linecache
import math
import re
import sys
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.core import BISTConfig, SweepPlan
from repro.core.warm import ToneMeasurementCache
from repro.errors import StimulusError
from repro.pll import ChargePumpPLL, CurrentChargePump, VCO
from repro.pll.loop_filter import PassiveLagLeadFilter
from repro.pll.lot import premeasure_lot
from repro.presets import paper_pll, paper_stimulus
from repro.reporting import DeviceReportRequest, batch_device_reports
from repro.sim.vectorized import SettleLane, VectorizedLotSimulator
from repro.stimulus import MultiToneFSKStimulus

KERNEL = VectorizedLotSimulator._kernel_run.__code__

#: Kept exits no case reaches, with the reason each stays.
UNREACHED = {
    'scalar raises "overshot its target"':
        "a non-FB event must land past the solved feedback crossing, "
        "i.e. within the solver tolerance (1e-13 s) or an ulp of t of "
        "the horizon, with f_max times that gap above 1e-6 cycles",
}


def _exit_sites():
    """``{line number: key}`` of every ``eject = True`` in the kernel."""
    lines, first = inspect.getsourcelines(VectorizedLotSimulator._kernel_run)
    return {first + i: line.split("#", 1)[1].strip()
            for i, line in enumerate(lines) if "eject = True" in line}


def _fast_config(**overrides):
    return replace(BISTConfig(
        test_clock_hz=10e6,
        settle_cycles=2,
        frequency_count_periods=32,
        detector_inverter_delay=60e-9,
        detector_and_delay=5e-9,
    ), **overrides)


def _cdr_config():
    return BISTConfig(
        test_clock_hz=100e6,
        settle_cycles=2,
        frequency_count_periods=32,
        detector_inverter_delay=8e-9,
        detector_and_delay=1e-9,
    )


def _cdr_pll(loop_filter=None, f_min=400e3, f_max=1200e3):
    """The current-pump lag-lead die of ``test_closed_form_property``:
    every law is a ramp or a hold."""
    return ChargePumpPLL(
        pump=CurrentChargePump(i_up=50e-6),
        loop_filter=loop_filter or PassiveLagLeadFilter(r1=1e3, r2=2e3,
                                                        c=100e-9),
        vco=VCO(800e3, 100e3, 1.5, f_min=f_min, f_max=f_max),
        n=4,
        f_ref=200e3,
        pfd_reset_delay=2e-9,
        name="cdr-ll",
    )


def _cdr_stimulus():
    return MultiToneFSKStimulus(200e3, deviation=50.0, steps=10)


def _with_curve(pll, curve, name):
    vco = pll.vco
    return replace(pll, name=name, vco=VCO(
        f_center=vco.f_center, gain_hz_per_v=vco.gain_hz_per_v,
        v_center=vco.v_center, f_min=vco.f_min, f_max=vco.f_max,
        tuning_curve=curve,
    ))


class _NegativeZeroFilter(PassiveLagLeadFilter):
    """A lag-lead whose zero resistor reads negative: under a pump
    current the capacitor leads the control node instead of lagging
    it, so the capacitor can pass a clamp voltage the node never
    reaches."""

    def _output_resistance(self) -> float:
        return -self.r2


class _TruncatedFSK(MultiToneFSKStimulus):
    """FSK whose reference source runs dry after ``edges`` edges."""

    def __init__(self, edges: int, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.edges = edges

    def cache_key(self):
        return super().cache_key() + (self.edges,)

    def make_source(self, f_mod, start_time=0.0):
        source = super().make_source(f_mod, start_time)
        pull = source.next_edge
        left = [self.edges]

        def next_edge():
            if not left[0]:
                raise StimulusError("reference source ran dry")
            left[0] -= 1
            return pull()

        source.next_edge = next_edge
        return source


_CALL_ARG = re.compile(r"numeric_phase\(seg, (\w+)\)")


def _trap_die(pll, stimulus, config, f_mod, argument):
    """A copy of ``pll`` whose tuning curve raises at one voltage: the
    first one the kernel integrates with ``numeric_phase(seg,
    argument)`` that no earlier curve call saw.  Up to that call the
    copy runs exactly as ``pll`` does, so that call is where it raises.
    """
    curve = pll.vco.tuning_curve
    calls = []

    def recording(v):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not KERNEL:
            frame = frame.f_back
        site = None
        if frame is not None:
            match = _CALL_ARG.search(
                linecache.getline(KERNEL.co_filename, frame.f_lineno))
            site = match and match.group(1)
        calls.append((v, site))
        return curve(v)

    premeasure_lot([(_with_curve(pll, recording, "recording"), stimulus,
                     config, (f_mod,))], ToneMeasurementCache())
    seen = set()
    for v, site in calls:
        if site == argument and v not in seen:
            trap = v
            break
        seen.add(v)
    else:
        raise AssertionError(f"no fresh voltage at numeric_phase(seg, "
                             f"{argument})")

    def trapped(v):
        if v == trap:
            raise ValueError(f"tuning curve undefined at {v!r} V")
        return curve(v)

    return _with_curve(pll, trapped, f"hct4046-trap-{argument}")


def _curve_raises(argument):
    def build():
        pll = paper_pll(nonlinear=True)
        stimulus = paper_stimulus("multitone")
        config = _fast_config()
        return (_trap_die(pll, stimulus, config, 10.0, argument), stimulus,
                config, 10.0)
    return build


def _exp_clamp():
    # The rail-driver pump charges the filter exponentially; a clamp
    # window 2 Hz either side of the lock frequency cuts the first pulse.
    pll = paper_pll()
    vco = pll.vco
    f0 = pll.f_out_nominal
    pll = replace(pll, name="paper-razor", vco=VCO(
        vco.f_center, vco.gain_hz_per_v, vco.v_center,
        f_min=f0 - 2.0, f_max=f0 + 2.0))
    return pll, paper_stimulus("multitone"), _fast_config(), 10.0


def _ramp_clamp():
    return (_cdr_pll(f_min=799.9e3, f_max=800.1e3), _cdr_stimulus(),
            _cdr_config(), 20e3)


def _newton_stall():
    # A tuning curve rippling far faster than a pump pulse moves the
    # control voltage: the curve at the iterate is no guide to the
    # Simpson phase's slope, and Newton creeps.
    pll = paper_pll(nonlinear=True)
    curve = pll.vco.tuning_curve
    pll = _with_curve(pll, lambda v: curve(v) + 500.0 * math.sin(1e6 * v),
                      "hct4046-ripple")
    return pll, paper_stimulus("multitone"), _fast_config(), 10.0


def _source_fails():
    stimulus = _TruncatedFSK(100, 1000.0, 1.0, steps=10)
    return paper_pll(), stimulus, _fast_config(), 10.0


def _held_past_clamp():
    # 2 Hz of headroom above the lock frequency: the capacitor, leading
    # the control node by i * r2, ends an UP pulse above the clamp.
    pll = _cdr_pll(
        loop_filter=_NegativeZeroFilter(r1=1e3, r2=2e3, c=100e-9),
        f_min=780e3, f_max=800e3 + 2.0)
    return pll, _cdr_stimulus(), _cdr_config(), 20e3


def _advance_raises():
    # The reciprocal count's 2000 periods (2 s) times this test clock
    # overflow a float; the phase count's few tens of ms do not.
    config = _fast_config(test_clock_hz=1.2e308,
                          frequency_count_periods=2000)
    return paper_pll(), paper_stimulus("multitone"), config, 10.0


def _capture_raises():
    # An AND gate a quarter period slow puts the latch's clock past the
    # arm instant for the two-tone overshoot peak before it: the capture
    # fires while the phase counter has not started.
    f_mod = 2.89
    and_delay = 0.25 / f_mod
    config = _fast_config(detector_and_delay=and_delay,
                          detector_inverter_delay=and_delay + 1e-6)
    return paper_pll(), paper_stimulus("twotone"), config, f_mod


#: ``{site key: builder of (pll, stimulus, config, f_mod)}``.
CASES = {
    "curve raised (window)": _curve_raises("dt_h"),
    "exp segment meets a clamp": _exp_clamp,
    "ramp meets a clamp": _ramp_clamp,
    "curve raised (Newton)": _curve_raises("x_s"),
    "Newton stalled": _newton_stall,
    "the source failed": _source_fails,
    "curve raised (advance)": _curve_raises("dt"),
    "held voltage past a clamp": _held_past_clamp,
    "script.advance raised": _advance_raises,
    "script.capture raised": _capture_raises,
}


@lru_cache(maxsize=None)
def _case(key):
    return CASES[key]()


@lru_cache(maxsize=None)
def _premeasure(key):
    """The case's lot premeasure with the kernel traced: the exit keys
    its lines reached, and the number of tones it published."""
    pll, stimulus, config, f_mod = _case(key)
    sites = _exit_sites()
    hit = set()

    def lines(frame, event, arg):
        if event == "line" and frame.f_lineno in sites:
            hit.add(sites[frame.f_lineno])
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code is KERNEL else None

    cache = ToneMeasurementCache()
    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        premeasure_lot([(pll, stimulus, config, (f_mod,))], cache)
    finally:
        sys.settrace(previous)
    return frozenset(hit), len(cache)


@pytest.mark.parametrize("key", sorted(CASES))
def test_exit_publishes_nothing_and_auto_equals_scalar(key, settled):
    hit, published = _premeasure(key)
    assert key in hit
    assert published == 0
    pll, stimulus, config, f_mod = _case(key)
    lane = SettleLane(pll=pll, stimulus=stimulus, f_mod=f_mod,
                      settle_end=config.settle_cycles / f_mod,
                      config=config)
    ((mode, fields),) = settled.farm([lane])
    if mode == "ejected":
        # Ejected mid-settle: the lane holds the scalar loop's state
        # after the same events.
        assert fields == settled.twin(lane, mode, fields)
    request = DeviceReportRequest(pll=pll, stimulus=stimulus,
                                  plan=SweepPlan((f_mod, 2.0 * f_mod)),
                                  config=config)
    (scalar,) = batch_device_reports([request], engine="scalar")
    assert batch_device_reports([request], engine="auto") == [scalar]


def test_every_exit_is_reached():
    keys = list(_exit_sites().values())
    assert len(keys) == len(set(keys)), "two exits share a key"
    reached = set()
    for key in CASES:
        reached |= _premeasure(key)[0]
    assert set(UNREACHED) <= set(keys), "a listed exit is gone"
    assert set(keys) - set(UNREACHED) <= reached
    assert not reached & set(UNREACHED), "a listed exit is reached"

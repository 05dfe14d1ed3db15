"""Shared fixtures.

Expensive closed-loop sweeps are session-scoped so the integration tests
can share one simulation run; unit tests construct their own small
objects.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import settings

from repro.core import BISTConfig, ToneTestSequencer, TransferFunctionMonitor
from repro.errors import StimulusError
from repro.pll.faults import FAULT_LIBRARY, FaultKind, apply_fault
from repro.pll.population.samplers import get_corner
from repro.pll.simulator import PLLTransientSimulator
from repro.pll.vco import VCO
from repro.presets import (
    paper_bist_config,
    paper_pll,
    paper_stimulus,
    paper_sweep,
)
from repro.sim.vectorized import VectorizedLotSimulator
from repro.stimulus import SineFMStimulus

#: ``pytest --hypothesis-profile=deep``: a longer search for properties
#: that take their example budget from the active profile (the
#: engine-parity property).  Not loaded by default: tier-1 runs
#: hypothesis's default profile.
settings.register_profile("deep", max_examples=1000)


@pytest.fixture(autouse=True)
def rearm_parallel_fallback_warning():
    """Re-arm the once-per-process ParallelFallbackWarning for each test.

    Production deduplicates the fallback diagnostic; tests asserting on
    it must each see their own copy.
    """
    from repro.core.executor import _reset_fallback_warning

    _reset_fallback_warning()
    yield


@pytest.fixture(scope="session")
def pll_linear():
    """The reconstructed Table 3 PLL (linear VCO)."""
    return paper_pll()


@pytest.fixture(scope="session")
def pll_nonlinear():
    """The 74HCT4046A-flavoured PLL."""
    return paper_pll(nonlinear=True)


@pytest.fixture(scope="session")
def curve_dies(pll_nonlinear):
    """Dies whose VCO has a tuning curve: the 74HCT4046A, its Ko faults'
    scaled copies of that curve, and a lambda curve."""
    vco = pll_nonlinear.vco
    bent = VCO(
        f_center=vco.f_center,
        gain_hz_per_v=vco.gain_hz_per_v,
        v_center=vco.v_center,
        f_min=vco.f_min,
        f_max=vco.f_max,
        tuning_curve=lambda v: vco.f_center
        + vco.gain_hz_per_v * 0.9 * (v - vco.v_center),
    )
    return [
        pll_nonlinear,
        apply_fault(pll_nonlinear, FAULT_LIBRARY["Ko half nominal"]),
        apply_fault(pll_nonlinear, FAULT_LIBRARY["Ko double nominal"]),
        replace(pll_nonlinear, vco=bent, name="hct4046-lambda"),
    ]


@pytest.fixture(scope="session")
def bist_config():
    """The paper-scale BIST configuration."""
    return paper_bist_config()


@pytest.fixture(scope="session")
def fast_bist_config():
    """Reduced settle/count configuration for quick unit-level runs."""
    return BISTConfig(
        test_clock_hz=10e6,
        settle_cycles=2,
        frequency_count_periods=32,
        detector_inverter_delay=60e-9,
        detector_and_delay=5e-9,
    )


@pytest.fixture(scope="session")
def sine_stimulus():
    """Pure sine FM at the paper's operating point."""
    return SineFMStimulus(1000.0, 1.0)


@pytest.fixture(scope="session")
def tone_measurement_8hz(pll_linear, sine_stimulus, fast_bist_config):
    """One shared Table 2 run at 8 Hz (near the natural frequency)."""
    sequencer = ToneTestSequencer(pll_linear, sine_stimulus, fast_bist_config)
    return sequencer.run(8.0)


@pytest.fixture(scope="session")
def sine_sweep_result(pll_linear, sine_stimulus, bist_config):
    """One shared full sine-FM sweep (the Figure 11/12 workhorse)."""
    monitor = TransferFunctionMonitor(pll_linear, sine_stimulus, bist_config)
    return monitor.run(paper_sweep())


@pytest.fixture(scope="session")
def multitone_sweep_result(pll_linear, bist_config):
    """One shared 10-step multi-tone FSK sweep."""
    monitor = TransferFunctionMonitor(
        pll_linear, paper_stimulus("multitone"), bist_config
    )
    return monitor.run(paper_sweep())


@pytest.fixture(params=["paper", "cdr180"])
def delay_die(request, fast_bist_config):
    """A dead-zone die of each pump kind, with its healthy twin.

    ``paper`` is the rail-driver Table 3 die with the library's 100 us
    dead zone; ``cdr180`` the current-pump corner with its scaled one.
    """
    if request.param == "paper":
        healthy = paper_pll()
        fault = FAULT_LIBRARY["pump dead zone 100us"]
        stimulus = paper_stimulus("multitone")
        config = fast_bist_config
        tones = (10.0, 55.0)
    else:
        corner = get_corner("cdr180")
        healthy = corner.nominal()
        fault = next(f for f in corner.faults()
                     if f.kind is FaultKind.CP_DEAD_ZONE)
        stimulus = corner.stimulus()
        config = corner.config()
        tones = corner.plan(5).frequencies_hz[2:4]
    pll = apply_fault(healthy, fault)
    assert pll.pump.turn_on_delay > 0.0
    return SimpleNamespace(pll=pll, healthy=healthy, stimulus=stimulus,
                           config=config, tones=tuple(tones))


class _Stopped(Exception):
    """Raised to stop a scalar run at an event boundary."""


class SettledReadout:
    """Test-only readout of a loop's settled state, on either engine.

    A farm lane's state lives on its lane record, so the parity of
    stage 0 is checked field by field: :meth:`farm` runs each lane's
    stage 0 alone on the farm kernel and reads its record back;
    :meth:`scalar` runs a cold scalar simulator to the same instant and
    reads the same fields off it.  Equal dicts mean the two engines
    hand stages 1–4 the same loop, bit for bit.
    """

    @staticmethod
    def of_sim(sim: PLLTransientSimulator) -> dict:
        """The settled-state fields of a scalar simulator."""
        pfd = sim._pfd
        return {
            "time": sim._t,
            "vc": sim._vc,
            "vco_phase": sim._vco_phase,
            "fb_target": sim._fb_target,
            "applied_drive": sim._applied_drive,
            "pending_activation": sim._pending_activation,
            "loop_open": sim._loop_open,
            "t_ref_next": sim._t_ref_next,
            "ref_edges_pulled": sim.reference._k,
            "events": sim._events,
            "up": pfd.state.up,
            "dn": pfd.state.dn,
            "last_event_time": pfd._last_event_time,
            "pending_reset": pfd._pending_reset,
            "last_up_rise": pfd._last_up_rise,
            "last_dn_rise": pfd._last_dn_rise,
        }

    @classmethod
    def scalar(cls, pll, stimulus, f_mod: float, t_end: float,
               events=None) -> dict:
        """A cold scalar settle to ``t_end``, as the sequencer runs it.

        With ``events``, the run stops after that many events, before
        looking for the next: the state an ejected farm lane holds.
        """
        sim = PLLTransientSimulator(
            pll, stimulus.make_source(f_mod, start_time=0.0),
            record="counters",
        )
        if events is not None:
            # Stop before the next event search, which may itself raise.
            next_event = sim._next_event

            def stop_after_events(t_end):
                if sim._events == events:
                    raise _Stopped
                return next_event(t_end)

            sim._next_event = stop_after_events
        try:
            sim.run_until(t_end)
        except _Stopped:
            pass
        return cls.of_sim(sim)

    @staticmethod
    def lane(farm: VectorizedLotSimulator, lane):
        """Run the farm's lane record ``lane`` through stage 0 alone;
        ``(mode, fields)``.

        An ejected lane's fields are its state before the event it could
        not advance.
        """
        farm._kernel_run(lane)
        drives = lane.table.drives
        return lane.result.mode, {
            "time": lane.t,
            "vc": lane.vc,
            "vco_phase": lane.phase,
            "fb_target": lane.fbt,
            "applied_drive": drives[lane.drive],
            "pending_activation": None if lane.tact is None
            else (lane.tact, drives[lane.act]),
            "loop_open": lane.loop_open,
            "t_ref_next": lane.tref,
            "ref_edges_pulled": lane.j + 1,
            "events": lane.events,
            "up": lane.up,
            "dn": lane.dn,
            "last_event_time": lane.levt,
            "pending_reset": lane.pres,
            "last_up_rise": lane.upr,
            "last_dn_rise": lane.dnr,
        }

    @classmethod
    def twin(cls, lane, mode: str, fields: dict) -> dict:
        """The scalar fields a farm lane's ``fields`` must equal: at
        ``settle_end`` for a settled lane, after the same number of
        events for an ejected one."""
        return cls.scalar(
            lane.pll, lane.stimulus, lane.f_mod, lane.settle_end,
            events=fields["events"] if mode == "ejected" else None,
        )

    @classmethod
    def farm(cls, lanes):
        """Stage 0 of every lane on one farm: ``(mode, fields)`` per
        lane, ``None`` for a lane the farm cannot represent."""
        farm = VectorizedLotSimulator(lanes)
        return [None if lane is None else cls.lane(farm, lane)
                for lane in farm.lanes]


@pytest.fixture(scope="session")
def settled():
    """The settled-state readout (:class:`SettledReadout`)."""
    return SettledReadout


@pytest.fixture
def cut_edge_supply(monkeypatch):
    """``cut(f_mod, n)``: the farm's reference source for tone ``f_mod``
    raises :class:`~repro.errors.StimulusError` once it has supplied
    ``n`` edges; every other source, and every scalar run's, is
    untouched."""
    group_source = VectorizedLotSimulator._group_source

    def cut(f_mod: float, n: int) -> None:
        def limited(farm, lane):
            key, source = group_source(farm, lane)
            if lane.f_mod == f_mod:
                pull = source.next_edge
                left = [n]

                def next_edge():
                    if not left[0]:
                        raise StimulusError("edge supply cut")
                    left[0] -= 1
                    return pull()

                source.next_edge = next_edge
            return key, source

        monkeypatch.setattr(VectorizedLotSimulator, "_group_source",
                            limited)

    return cut

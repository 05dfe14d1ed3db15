"""Shared fixtures.

Expensive closed-loop sweeps are session-scoped so the integration tests
can share one simulation run; unit tests construct their own small
objects.
"""

from __future__ import annotations

import pytest

from types import SimpleNamespace

from repro.core import BISTConfig, ToneTestSequencer, TransferFunctionMonitor
from repro.pll.faults import FAULT_LIBRARY, FaultKind, apply_fault
from repro.pll.population.samplers import get_corner
from repro.presets import (
    paper_bist_config,
    paper_pll,
    paper_stimulus,
    paper_sweep,
)
from repro.stimulus import SineFMStimulus


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

"""Property suite for the farm kernel's closed-form inter-event update.

The settle farm's per-lane kernel behind ``engine="auto"``
(:class:`~repro.sim.vectorized.VectorizedLotSimulator`) advances lanes
edge-to-edge with analytic state
updates: ramp/hold polynomials for current-mode drives, exponentials
for voltage drives and leaky filters.  Its contracts, probed here
property-style:

* **analytic parity** — across physics and tone draws, a lane settled
  on the kernel holds a settled state *exactly equal* to a cold scalar
  settle's, field for field (PFD state and counters included);
* **boundary behaviour** — lanes that graze the VCO clamp (lock/unlock
  boundary) either stay on the kernel or eject mid-flight, and an
  ejected lane's state equals the scalar loop's after the same events;
* **one farm for every law** — nonlinear (74HCT4046A), exponential-law
  and polynomial-law lanes all settle on the kernel, and
  ``engine="auto"`` screens a mixed lot with zero report diffs;
* **selection plumbing** — every orchestration surface (monitor, batch
  reports, service jobs, CLI) validates the engine name against one
  shared vocabulary: ``auto`` and ``scalar``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SweepPlan, TransferFunctionMonitor
from repro.core.architecture import BISTConfig
from repro.core.warm import ToneMeasurementCache
from repro.errors import ConfigurationError, MeasurementError
from repro.pll import ChargePumpPLL, CurrentChargePump, VCO
from repro.pll.faults import FAULT_LIBRARY, apply_fault
from repro.pll.loop_filter import PassiveLagLeadFilter
from repro.pll.lot import premeasure_lot
from repro.presets import paper_pll, paper_stimulus
from repro.reporting import DeviceReportRequest, batch_device_reports
from repro.sim.vectorized import (
    SettleLane,
    VectorizedLotSimulator,
)
from repro.stimulus import MultiToneFSKStimulus

# Cacheable tones for the current-mode DUT below (8·f_mod ≤ f_ref),
# inside the loop band (effective fn ≈ 563 Hz) so full sweeps measure.
CDR_TONES = (500.0, 1000.0)
# Cacheable tones for the paper DUT (f_ref = 1 kHz).
PAPER_TONES = (10.0, 55.0)


def _cdr_pll(
    i_up=50e-6,
    r1=1e3,
    r2=2e3,
    c=100e-9,
    gain=100e3,
    n=4,
    f_min=400e3,
    f_max=1200e3,
    name="cdr-ll",
):
    """Current-mode lag-lead DUT: every law is RAMP/CONST, so the
    kernel's inter-event update is polynomial (the paper's rail-driver
    pump, by contrast, charges the filter exponentially)."""
    return ChargePumpPLL(
        pump=CurrentChargePump(i_up=i_up),
        loop_filter=PassiveLagLeadFilter(r1=r1, r2=r2, c=c),
        vco=VCO(800e3, gain, 1.5, f_min=f_min, f_max=f_max),
        n=n,
        f_ref=200e3,
        pfd_reset_delay=2e-9,
        name=name,
    )


def _cdr_stimulus(deviation=50.0):
    return MultiToneFSKStimulus(200e3, deviation=deviation, steps=10)


def _cdr_config():
    return BISTConfig(
        test_clock_hz=100e6,
        settle_cycles=2,
        frequency_count_periods=32,
        detector_inverter_delay=8e-9,
        detector_and_delay=1e-9,
    )


def _lanes(pll, stimulus, tones, config=None):
    config = _cdr_config() if config is None else config
    return [
        SettleLane(
            pll=pll,
            stimulus=stimulus,
            f_mod=f_mod,
            settle_end=config.settle_cycles / f_mod,
            config=config,
        )
        for f_mod in tones
    ]


class TestAnalyticParity:
    @settings(max_examples=10, deadline=None)
    @given(
        scale_i=st.floats(0.85, 1.25),
        scale_r=st.floats(0.85, 1.25),
        scale_g=st.floats(0.85, 1.25),
        scale_c=st.floats(0.85, 1.25),
        f_mod=st.sampled_from((5e3, 12.5e3, 20e3, 25e3)),
        deviation=st.sampled_from((20.0, 50.0, 500.0)),
    )
    def test_physics_draws_match_scalar(
        self, settled, scale_i, scale_r, scale_g, scale_c, f_mod, deviation
    ):
        """Analytic inter-event updates equal the scalar event loop
        across process-corner physics and tone draws."""
        pll = _cdr_pll(
            i_up=50e-6 * scale_i,
            r1=1e3 * scale_r,
            r2=2e3 * scale_r,
            c=100e-9 * scale_c,
            gain=100e3 * scale_g,
        )
        stimulus = _cdr_stimulus(deviation)
        lanes = _lanes(pll, stimulus, (f_mod,))
        farm = VectorizedLotSimulator(lanes)
        mode, fields = settled.lane(farm, farm.lanes[0])
        assert mode == "vector"
        assert fields == settled.scalar(
            pll, stimulus, f_mod, lanes[0].settle_end
        )
        (result,) = VectorizedLotSimulator(lanes).run()
        assert result.mode == "vector"

    @settings(max_examples=10, deadline=None)
    @given(
        window_hz=st.floats(100.0, 20e3),
        deviation=st.sampled_from((50.0, 2e3, 8e3)),
        f_mod=st.sampled_from((12.5e3, 20e3)),
    )
    def test_clamp_boundary_stays_bit_identical(
        self, settled, window_hz, deviation, f_mod
    ):
        """Lock/unlock boundary draws: a VCO clamp window shrunk around
        the operating point either keeps the lane on the kernel or ejects
        it — the lane's state is bit-identical to the scalar loop's
        either way, at the settle end or after the same events."""
        pll = _cdr_pll(
            f_min=800e3 - window_hz, f_max=800e3 + window_hz
        )
        stimulus = _cdr_stimulus(deviation)
        lanes = _lanes(pll, stimulus, (f_mod,))
        ((mode, fields),) = settled.farm(lanes)
        assert mode in ("vector", "ejected")
        assert fields == settled.twin(lanes[0], mode, fields)

    def test_razor_clamp_ejects_to_scalar_finish(self, settled):
        """A razor-thin clamp window *must* eject mid-flight (the
        analytic law cannot represent the clamped segment): the lane's
        state up to the ejection is exact, it publishes nothing, and the
        auto sweep measures the tone on the scalar engine."""
        pll = _cdr_pll(f_min=799.9e3, f_max=800.1e3)
        stimulus = _cdr_stimulus()
        lanes = _lanes(pll, stimulus, (20e3,))
        (result,) = VectorizedLotSimulator(lanes).run()
        assert result.mode == "ejected"
        assert result.measurement is None
        ((mode, fields),) = settled.farm(lanes)
        assert mode == "ejected"
        assert fields == settled.twin(lanes[0], mode, fields)
        tones = (20e3, 25e3)
        config = _cdr_config()
        cache = ToneMeasurementCache()
        assert premeasure_lot([(pll, stimulus, config, tones)],
                              cache).ejected == len(tones)
        assert len(cache) == 0

        def outcomes(engine):
            # The clamped die starves the peak detector: the sweep
            # streams its failed tones, then raises.
            seen = []
            with pytest.raises(MeasurementError, match="reference tone"):
                TransferFunctionMonitor(pll, stimulus, config).run(
                    SweepPlan(tones), engine=engine,
                    on_outcome=lambda index, outcome: seen.append(outcome),
                )
            return seen

        assert outcomes("auto") == outcomes("scalar")


class TestTierCascade:
    def test_hct4046_lanes_ride_the_vectorized_tier(self, fast_bist_config,
                                                    settled):
        """Nonlinear 74HCT4046A lanes settle on the kernel's Simpson
        phase path — still bit-identical, still flagged nonlinear."""
        pll = paper_pll(nonlinear=True)
        stimulus = paper_stimulus("multitone")
        lanes = _lanes(pll, stimulus, PAPER_TONES, fast_bist_config)
        results = VectorizedLotSimulator(lanes).run()
        assert len(results) == len(lanes)
        for result in results:
            assert result.mode == "vector"
            assert result.nonlinear
        for lane, (mode, fields) in zip(lanes, settled.farm(lanes)):
            assert mode == "vector"
            assert fields == settled.scalar(
                pll, stimulus, lane.f_mod, lane.settle_end
            )

    def test_exponential_laws_ride_the_vectorized_tier(
        self, fast_bist_config, settled
    ):
        """The paper's rail-driver pump charges the filter through an
        exponential law — linear physics, advanced by the kernel's
        exponential update rather than the polynomial one."""
        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        lanes = _lanes(pll, stimulus, PAPER_TONES, fast_bist_config)
        results = VectorizedLotSimulator(lanes).run()
        assert len(results) == len(lanes)
        for result in results:
            assert result.mode == "vector"
        for lane, (mode, fields) in zip(lanes, settled.farm(lanes)):
            assert mode == "vector"
            assert fields == settled.scalar(
                pll, stimulus, lane.f_mod, lane.settle_end
            )

    def test_mixed_lot_auto_reports_byte_identical(self, fast_bist_config):
        """The acceptance lot: closed-form-eligible + linear-EXP +
        HCT4046 + fault-library dies through ``engine="auto"`` — every
        law on the one kernel, zero report diffs against the scalar
        engine."""
        label = sorted(FAULT_LIBRARY)[0]
        paper_stim = paper_stimulus("multitone")
        paper_plan = SweepPlan(PAPER_TONES)
        lot = [
            DeviceReportRequest(
                pll=replace(paper_pll(), name="lin-000"),
                stimulus=paper_stim,
                plan=paper_plan,
                config=fast_bist_config,
            ),
            DeviceReportRequest(
                pll=replace(paper_pll(nonlinear=True), name="hct-000"),
                stimulus=paper_stim,
                plan=paper_plan,
                config=fast_bist_config,
            ),
            DeviceReportRequest(
                pll=replace(
                    apply_fault(paper_pll(), FAULT_LIBRARY[label]),
                    name="fault-000",
                ),
                stimulus=paper_stim,
                plan=paper_plan,
                config=fast_bist_config,
            ),
            DeviceReportRequest(
                pll=_cdr_pll(name="cdr-000"),
                stimulus=_cdr_stimulus(),
                plan=SweepPlan(CDR_TONES),
                config=_cdr_config(),
            ),
        ]
        cold = batch_device_reports(lot, engine="scalar")
        cache = ToneMeasurementCache()
        auto = batch_device_reports(lot, cache=cache, engine="auto")
        assert auto == cold
        stats = cache.presettle_stats
        # Every lane, whatever its laws, finished on the kernel.
        assert stats.vector == stats.tones_vectorized == stats.unique
        assert stats.closed_form_lanes == stats.drained == 0
        assert stats.hct4046_lanes == len(PAPER_TONES)
        assert stats.ejected == stats.scalar == 0


class TestEngineSelection:
    def test_monitor_auto_bit_identical(self):
        pll = _cdr_pll()
        stimulus = _cdr_stimulus()
        config = _cdr_config()
        plan = SweepPlan(CDR_TONES)
        cold = TransferFunctionMonitor(pll, stimulus, config).run(
            plan, engine="scalar"
        )
        fast = TransferFunctionMonitor(pll, stimulus, config).run(
            plan, engine="auto"
        )
        assert fast.measurements == cold.measurements
        assert list(fast.response.magnitude_db) == list(
            cold.response.magnitude_db
        )

    def test_monitor_auto_matches_scalar_on_uncacheable_tone(
        self, fast_bist_config
    ):
        # 200 Hz is above f_ref / 8 for the paper PLL (f_ref = 1 kHz):
        # the farm skips it and "auto" runs it on the scalar path.
        plan = SweepPlan(PAPER_TONES + (200.0,))
        runs = {}
        for engine in ("scalar", "auto"):
            cache = ToneMeasurementCache()
            monitor = TransferFunctionMonitor(
                paper_pll(), paper_stimulus("multitone"), fast_bist_config
            )
            runs[engine] = monitor.run(plan, engine=engine,
                                       measurement_cache=cache)
        assert cache.presettle_stats.skipped == 1
        assert runs["auto"].measurements == runs["scalar"].measurements
        assert runs["auto"].failed_tones == runs["scalar"].failed_tones

    def test_batch_rejects_unknown_engine_with_choices(
        self, fast_bist_config
    ):
        request = DeviceReportRequest(
            pll=paper_pll(),
            stimulus=paper_stimulus("multitone"),
            plan=SweepPlan(PAPER_TONES),
            config=fast_bist_config,
        )
        with pytest.raises(ConfigurationError) as excinfo:
            batch_device_reports([request], engine="quantum")
        assert "'auto'" in str(excinfo.value)

    def test_job_request_engine_policy(self):
        from repro.service import SweepJobSpec
        from repro.service.protocol import resolve_spec

        spec = SweepJobSpec(points=5, engine="auto")
        assert SweepJobSpec.from_dict(spec.to_dict()) == spec
        assert resolve_spec(spec).engine == "auto"

    def test_cli_accepts_engine_tiers(self):
        from repro.cli import build_parser

        parser = build_parser()
        for command in ("sweep", "lot", "submit", "population"):
            for engine in ("auto", "scalar"):
                args = parser.parse_args([command, "--engine", engine])
                assert args.engine == engine
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--engine", "quantum"])

    def test_validate_engine_lists_choices(self):
        from repro.engines import ENGINES, validate_engine

        with pytest.raises(ConfigurationError) as excinfo:
            validate_engine("quantum")
        message = str(excinfo.value)
        for engine in ENGINES:
            assert f"'{engine}'" in message


class TestPresettleStats:
    def test_closed_form_counters_and_summary(self):
        jobs = [(_cdr_pll(), _cdr_stimulus(), _cdr_config(), CDR_TONES)]
        cache = ToneMeasurementCache()
        stats = premeasure_lot(jobs, cache)
        assert stats.vector == len(CDR_TONES)
        assert stats.closed_form_lanes == stats.drained == 0
        assert stats.tones_vectorized == len(CDR_TONES)
        assert f"{len(CDR_TONES)} vector" in stats.summary()
        assert len(cache) == len(CDR_TONES)

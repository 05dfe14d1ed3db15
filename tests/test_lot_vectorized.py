"""The vectorised lot engine: the per-lane kernel farm + engine wiring.

Four contracts under test:

* **bit identity** — a lane settled on the farm's kernel holds, in its
  lane lists, a settled state *exactly equal* field for field (PFD
  state and event counter included) to the state a cold scalar
  :class:`~repro.pll.simulator.PLLTransientSimulator` reaches for the
  same (device, stimulus, tone) — which is what makes ``engine="auto"``
  sweeps and batch reports byte-identical to the scalar engine;
* **graceful divergence** — a lane leaving the kernel's envelope is
  ejected and publishes nothing, and unsupported physics runs nothing
  on the farm; both leave their tones to the sweep's scalar engine, so
  correctness never depends on the fast path;
* **wiring** — ``TransferFunctionMonitor.run(engine=...)``,
  ``batch_device_reports(engine=...)`` (serial and pooled), the service
  job spec/request, and the CLI all accept and validate the engine
  selection;
* **memo keying** — ``measure_nominal_frequency`` memoises on the
  physics signature, so renamed same-physics dies share the baseline
  (the satellite regression for the vectorised lot's renamed dies).
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core import (
    SweepPlan,
    ToneTestSequencer,
    TransferFunctionMonitor,
)
from repro.core.sequencer import measurement_cache_key
from repro.core.sequencer import _NOMINAL_FREQUENCY_MEMO
from repro.core.warm import ToneMeasurementCache, warm_shipment
from repro.errors import ConfigurationError, MeasurementError
from repro.pll.faults import FAULT_LIBRARY, apply_fault
from repro.pll.lot import premeasure_lot
from repro.pll.simulator import PLLTransientSimulator
from repro.pll.vco import VCO
from repro.presets import paper_pll, paper_stimulus, paper_sweep
from repro.reporting import (
    DeviceReportRequest,
    batch_device_reports,
    device_report,
)
from repro.sim.vectorized import (
    SettleLane,
    VectorizedLotSimulator,
)

# Cacheable tones (8·f_mod ≤ f_ref) spanning the sweep's cost range.
TONES = (10.0, 55.0)
# Above f_ref / 8 for the paper PLL: neither settle-cached nor deduped.
UNCACHEABLE_TONE = 200.0


def _lanes(pll, stimulus, config, tones=TONES):
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


def _lot_requests(config, size=3, template=None):
    template = template if template is not None else paper_pll()
    stimulus = paper_stimulus("multitone")
    plan = SweepPlan(TONES)
    return [
        DeviceReportRequest(
            pll=replace(template, name=f"{template.name}-{i:03d}"),
            stimulus=stimulus,
            plan=plan,
            config=config,
        )
        for i in range(size)
    ]


class TestFarmBitIdentity:
    def test_lane_snapshots_equal_scalar(self, fast_bist_config, settled):
        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        lanes = _lanes(pll, stimulus, fast_bist_config)
        assert len(VectorizedLotSimulator(lanes).run()) == len(lanes)
        states = settled.farm(lanes)
        assert len(states) == len(lanes)
        for lane, (mode, fields) in zip(lanes, states):
            assert mode == "vector"
            assert fields == settled.scalar(
                pll, stimulus, lane.f_mod, lane.settle_end
            )

    def test_faulted_physics_lanes_equal_scalar(self, fast_bist_config,
                                                settled):
        stimulus = paper_stimulus("multitone")
        # Whatever the library holds, exercise at least two distinct
        # physics families in one farm.
        labels = sorted(FAULT_LIBRARY)[:2]
        duts = [paper_pll()] + [
            apply_fault(paper_pll(), FAULT_LIBRARY[label])
            for label in labels
        ]
        lanes = []
        for dut in duts:
            lanes.extend(_lanes(dut, stimulus, fast_bist_config))
        for lane, (mode, fields) in zip(lanes, settled.farm(lanes)):
            assert fields == settled.twin(lane, mode, fields), (
                f"{lane.pll.name} @ {lane.f_mod} Hz via {mode}"
            )

    def test_lane_snapshots_independent_of_farm_width(
        self, fast_bist_config, settled
    ):
        """A lane settles to the same state alone as inside a wider
        farm, whose longer-settling lanes share and lengthen its
        group's reference-edge train."""
        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        lanes = _lanes(pll, stimulus, fast_bist_config)
        longer = [replace(lane, settle_end=2.0 * lane.settle_end)
                  for lane in lanes]
        together = settled.farm(lanes + longer)
        for lane, (mode, fields) in zip(lanes, together):
            ((alone_mode, alone),) = settled.farm([lane])
            assert mode == alone_mode == "vector"
            assert fields == alone

    def test_nonlinear_hct4046_rides_the_farm(self, fast_bist_config,
                                              settled, curve_dies):
        """Any tuning curve rides the farm: the 74HCT4046A's, its Ko
        faults' scaled copies and a lambda.  The kernel integrates phase
        with the lane's own VCO, so the settled state and the
        measurement are bit-identical to the scalar engine's."""
        stimulus = paper_stimulus("multitone")
        lanes = [lane for pll in curve_dies
                 for lane in _lanes(pll, stimulus, fast_bist_config)]
        results = VectorizedLotSimulator(lanes).run()
        assert len(results) == len(lanes)
        for lane, result in zip(lanes, results):
            assert result.mode == "vector"
            assert result.nonlinear
            assert result.measurement == ToneTestSequencer(
                lane.pll, stimulus, fast_bist_config).run(lane.f_mod), (
                lane.pll.name, lane.f_mod)
        for lane, (mode, fields) in zip(lanes, settled.farm(lanes)):
            assert mode == "vector"
            assert fields == settled.scalar(
                lane.pll, stimulus, lane.f_mod, lane.settle_end
            ), (lane.pll.name, lane.f_mod)

    def test_raising_tuning_curve_ejects_to_the_scalar_sweep(
        self, fast_bist_config, pll_nonlinear
    ):
        """A tuning curve that raises past a voltage the loop reaches
        ejects its lanes: no exception escapes ``premeasure_lot``,
        nothing is published, and the die's auto report equals its
        scalar report, which carries the curve's error.  (The loop's
        output swings to about 2.7 V; the lock search stays at or below
        mid-rail, 2.5 V.)"""
        vco = pll_nonlinear.vco

        def brittle(v: float) -> float:
            if v > 2.6:
                raise ValueError(f"tuning curve undefined at {v!r} V")
            return vco.tuning_curve(v)

        pll = replace(pll_nonlinear, name="hct4046-brittle", vco=VCO(
            f_center=vco.f_center,
            gain_hz_per_v=vco.gain_hz_per_v,
            v_center=vco.v_center,
            f_min=vco.f_min,
            f_max=vco.f_max,
            tuning_curve=brittle,
        ))
        stimulus = paper_stimulus("multitone")
        cache = ToneMeasurementCache()
        stats = premeasure_lot(
            [(pll, stimulus, fast_bist_config, TONES)], cache)
        assert stats.ejected == stats.hct4046_lanes == len(TONES)
        assert len(cache) == 0
        request = DeviceReportRequest(pll=pll, stimulus=stimulus,
                                      plan=SweepPlan(TONES),
                                      config=fast_bist_config)
        scalar = batch_device_reports([request], engine="scalar")
        assert "ValueError: tuning curve undefined" in scalar[0]
        assert batch_device_reports([request], engine="auto") == scalar

    def test_filter_with_own_segments_falls_back_scalar(self):
        """The farm reads the filter's segment laws; a filter class that
        defines its own segment methods may not follow them, so it runs
        nothing on the farm (its base class, the same physics, does),
        and its auto sweep equals its scalar sweep."""
        from repro.core.architecture import BISTConfig
        from repro.pll import (
            ChargePumpPLL,
            CurrentChargePump,
            SeriesRCFilter,
            VCO,
        )
        from repro.stimulus import MultiToneFSKStimulus

        class OwnSegments(SeriesRCFilter):
            def state_segment(self, vc, drive):
                return super().state_segment(vc, drive)

        base = ChargePumpPLL(
            pump=CurrentChargePump(i_up=50e-6),
            loop_filter=SeriesRCFilter(r=2e3, c=100e-9),
            vco=VCO(800e3, 100e3, 1.5, f_min=400e3, f_max=1200e3),
            n=4,
            f_ref=200e3,
            pfd_reset_delay=2e-9,
            name="cdr",
        )
        pll = replace(base, loop_filter=OwnSegments(r=2e3, c=100e-9))
        stimulus = MultiToneFSKStimulus(200e3, deviation=50.0, steps=10)
        config = BISTConfig(
            test_clock_hz=100e6,
            settle_cycles=3,
            frequency_count_periods=128,
            detector_inverter_delay=8e-9,
            detector_and_delay=1e-9,
        )
        fn = base.natural_frequency_hz()
        tones = (0.5 * fn, fn)
        for result in VectorizedLotSimulator(
                _lanes(base, stimulus, config, tones)).run():
            assert result.mode == "vector"
        for result in VectorizedLotSimulator(
                _lanes(pll, stimulus, config, tones)).run():
            assert result.mode == "scalar"
            assert result.measurement is None
        plan = SweepPlan(tones)
        scalar = TransferFunctionMonitor(
            pll, stimulus, config).run(plan, engine="scalar")
        auto = TransferFunctionMonitor(
            pll, stimulus, config).run(plan, engine="auto")
        assert auto.measurements == scalar.measurements


class TestPresettleLot:
    def test_presettle_dedups_and_warms_cache(self, fast_bist_config):
        stimulus = paper_stimulus("multitone")
        dies = [
            replace(paper_pll(), name=f"die-{i}") for i in range(4)
        ]
        cache = ToneMeasurementCache()
        stats = premeasure_lot(
            [(die, stimulus, fast_bist_config, TONES) for die in dies],
            cache,
        )
        # Four identical-physics dies collapse to one lane per tone.
        assert stats.tones == 4 * len(TONES)
        assert stats.unique == len(TONES)
        assert stats.ejected == stats.scalar == 0
        assert len(cache) == len(TONES)
        # A second pass finds everything warm.
        again = premeasure_lot(
            [(die, stimulus, fast_bist_config, TONES) for die in dies],
            cache,
        )
        assert again.unique == 0
        assert again.cached == len(TONES)

    def test_fallback_lanes_settle_once_in_the_sweep(
        self, fast_bist_config, monkeypatch
    ):
        """An auto lot whose lanes all fall off the farm (its VCO is a
        subclass, whose methods the farm cannot vouch for) builds one
        simulator per (die, tone): the farm runs nothing for them and
        the sweep settles and measures each tone once."""

        class OwnVCO(VCO):
            pass

        vco = paper_pll().vco
        pll = replace(paper_pll(), name="own-vco", vco=OwnVCO(
            vco.f_center, vco.gain_hz_per_v, vco.v_center,
            f_min=vco.f_min, f_max=vco.f_max,
        ))
        stimulus = paper_stimulus("multitone")
        request = DeviceReportRequest(pll=pll, stimulus=stimulus,
                                      plan=SweepPlan(TONES),
                                      config=fast_bist_config)
        scalar = batch_device_reports([request], engine="scalar")
        built = []
        init = PLLTransientSimulator.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0].name)
            init(self, *args, **kwargs)

        monkeypatch.setattr(PLLTransientSimulator, "__init__", counting)
        cache = ToneMeasurementCache()
        assert batch_device_reports([request], cache=cache,
                                    engine="auto") == scalar
        assert cache.presettle_stats.scalar == len(TONES)
        assert cache.presettle_stats.measured == 0
        assert built == [pll.name] * len(TONES)

    def test_counters_and_cache_seam(self, fast_bist_config):
        """tones_vectorized / hct4046_lanes count what actually happened,
        and the stats digest is left on the cache for the CLI/benches."""
        stimulus = paper_stimulus("multitone")
        cache = ToneMeasurementCache()
        stats = premeasure_lot(
            [(paper_pll(nonlinear=True), stimulus, fast_bist_config,
              TONES)],
            cache,
        )
        assert stats.tones_vectorized == stats.vector == len(TONES)
        assert stats.hct4046_lanes == len(TONES)
        assert cache.presettle_stats is stats
        assert "tones vectorized" in stats.summary()
        assert "nonlinear lanes" in stats.summary()
        linear = premeasure_lot(
            [(paper_pll(), stimulus, fast_bist_config, TONES)],
            ToneMeasurementCache(),
        )
        assert linear.hct4046_lanes == 0
        assert linear.tones_vectorized == len(TONES)

    def test_fault_library_lot_settles_without_scalar_lanes(
        self, fast_bist_config
    ):
        """Every library fault, the dead zone included, settles on a
        fast path: the auto farm hands no lane to a full scalar settle."""
        stimulus = paper_stimulus("multitone")
        tones = paper_sweep(points=5).frequencies_hz
        duts = [paper_pll()] + [
            apply_fault(paper_pll(), FAULT_LIBRARY[label])
            for label in sorted(FAULT_LIBRARY)
        ]
        assert len(duts) == 8
        stats = premeasure_lot(
            [(dut, stimulus, fast_bist_config, tones) for dut in duts],
            ToneMeasurementCache(),
        )
        assert stats.unique > 0
        assert stats.scalar == 0
        assert stats.ejected == 0

    def test_fault_lot_counts_every_kernel_lane_in_farm(
        self, fast_bist_config
    ):
        """The fault-lot shape — healthy + every library fault x 13
        tones, 104 lanes, wider than the old 64-lane lockstep crossover
        — finishes every lane on the kernel, counts each one in-farm,
        and screens to the scalar engine's bytes."""
        stimulus = paper_stimulus("multitone")
        plan = paper_sweep(points=13)
        duts = [paper_pll()] + [
            apply_fault(paper_pll(), FAULT_LIBRARY[label])
            for label in sorted(FAULT_LIBRARY)
        ]
        stats = premeasure_lot(
            [(dut, stimulus, fast_bist_config, plan.frequencies_hz)
             for dut in duts],
            ToneMeasurementCache(),
        )
        assert stats.unique == len(duts) * 13 > 64
        assert stats.tones_vectorized == stats.vector == stats.unique
        assert stats.drained == stats.closed_form_lanes == 0
        requests = [
            DeviceReportRequest(pll=dut, stimulus=stimulus, plan=plan,
                                config=fast_bist_config)
            for dut in duts
        ]
        assert batch_device_reports(requests, engine="auto") == \
            batch_device_reports(requests, engine="scalar")

    def test_uncacheable_tones_skipped(self, fast_bist_config):
        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        cache = ToneMeasurementCache()
        # 8·f_mod > f_ref: the monitor would never cache these, so the
        # farm pass must leave them alone too.
        high = pll.f_ref / 4.0
        stats = premeasure_lot(
            [(pll, stimulus, fast_bist_config, (high,))], cache
        )
        assert stats.skipped == 1
        assert stats.unique == 0
        assert len(cache) == 0


class TestEngineWiring:
    def test_monitor_vectorized_bit_identical(self, fast_bist_config):
        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        plan = SweepPlan(TONES)
        cold = TransferFunctionMonitor(pll, stimulus, fast_bist_config).run(
            plan, engine="scalar"
        )
        vec = TransferFunctionMonitor(pll, stimulus, fast_bist_config).run(
            plan, engine="auto"
        )
        assert vec.measurements == cold.measurements
        assert vec.failed_tones == cold.failed_tones
        assert list(vec.response.magnitude_db) == list(
            cold.response.magnitude_db
        )

    def test_monitor_rejects_bad_engine(self, fast_bist_config):
        monitor = TransferFunctionMonitor(
            paper_pll(), paper_stimulus("multitone"), fast_bist_config
        )
        plan = SweepPlan(TONES)
        with pytest.raises(ConfigurationError):
            monitor.run(plan, engine="quantum")
        with pytest.raises(ConfigurationError):
            monitor.run(plan, engine="vectorized")

    def test_batch_vectorized_byte_identical_serial(self, fast_bist_config):
        lot = _lot_requests(fast_bist_config)
        cold = batch_device_reports(lot, engine="scalar")
        vec = batch_device_reports(lot, engine="auto")
        assert vec == cold

    def test_batch_vectorized_byte_identical_pooled(self, fast_bist_config):
        lot = _lot_requests(fast_bist_config)
        cold = batch_device_reports(lot, engine="scalar")
        cache = ToneMeasurementCache()
        vec = batch_device_reports(
            lot, n_workers=2, cache=cache, engine="auto"
        )
        assert vec == cold
        # The farm measured every unique tone before the pool split.
        assert len(cache) == len(TONES)

    def test_batch_vectorized_mixed_physics_lot(self, fast_bist_config):
        label = sorted(FAULT_LIBRARY)[0]
        lot = _lot_requests(fast_bist_config, size=2) + _lot_requests(
            fast_bist_config,
            size=2,
            template=apply_fault(paper_pll(), FAULT_LIBRARY[label]),
        )
        cold = batch_device_reports(lot, engine="scalar")
        vec = batch_device_reports(lot, engine="auto")
        assert vec == cold

    def test_batch_rejects_unknown_engine(self, fast_bist_config):
        with pytest.raises(ConfigurationError):
            batch_device_reports(
                _lot_requests(fast_bist_config, size=1), engine="quantum"
            )

    def test_service_spec_and_request_carry_engine(self):
        from repro.service import SweepJobSpec
        from repro.service.jobs import SweepJobRequest
        from repro.service.protocol import resolve_spec

        spec = SweepJobSpec(points=5, engine="scalar")
        assert SweepJobSpec.from_dict(spec.to_dict()) == spec
        request = resolve_spec(spec)
        assert request.engine == "scalar"
        with pytest.raises(ConfigurationError):
            SweepJobRequest(
                pll=paper_pll(),
                stimulus=paper_stimulus("multitone"),
                plan=SweepPlan(TONES),
                engine="quantum",
            )

    def test_cli_flags(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["lot", "--engine", "scalar", "--profile", "p.pstats"]
        )
        assert args.engine == "scalar"
        assert args.profile == "p.pstats"
        assert parser.parse_args(["lot"]).engine == "auto"
        assert parser.parse_args(["sweep", "--profile", "s.pstats"])\
            .profile == "s.pstats"
        assert parser.parse_args(["sweep", "--engine", "scalar"])\
            .engine == "scalar"
        assert parser.parse_args(["sweep"]).engine == "auto"
        assert parser.parse_args(["submit", "--engine", "scalar"])\
            .engine == "scalar"
        with pytest.raises(SystemExit):
            parser.parse_args(["lot", "--engine", "quantum"])
        with pytest.raises(SystemExit):
            parser.parse_args(["sweep", "--engine", "quantum"])

    def test_profile_dump_paths_unique(self):
        import os

        from repro.cli import _profile_dump_path

        a = _profile_dump_path("out/sweep.prof")
        b = _profile_dump_path("out/sweep.prof")
        assert a != b
        for path in (a, b):
            assert path.startswith("out/sweep.")
            assert path.endswith(".prof")
            assert f".{os.getpid()}-" in path
        # A suffix-less request still produces a recognisable dump file.
        assert _profile_dump_path("lotdump").endswith(".prof")


class TestMeasurementDedup:
    def test_serial_executor_dedups_identical_sweeps(self, fast_bist_config):
        from repro.core.warm import ToneMeasurementCache

        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        plan = SweepPlan(TONES)
        dedup = ToneMeasurementCache()
        first = TransferFunctionMonitor(pll, stimulus, fast_bist_config).run(
            plan, engine="scalar", measurement_cache=dedup
        )
        assert dedup.stats == (0, len(TONES))
        second = TransferFunctionMonitor(
            replace(pll, name="same-physics-die"), stimulus, fast_bist_config
        ).run(plan, engine="scalar", measurement_cache=dedup)
        assert dedup.stats == (len(TONES), len(TONES))
        for a, b in zip(first.measurements, second.measurements):
            # Full measurement equality (timing is comparison-excluded),
            # but the hit is honestly stamped as warm and free.
            assert a == b
            assert b.timing.warm
            assert b.timing.settle_s == 0.0

    def test_serial_executor_publishes_failures(self, fast_bist_config,
                                                monkeypatch):
        """A tone that raises MeasurementError publishes its text: a
        same-physics rerun answers it without replaying the sequence."""
        from repro.core.warm import ToneMeasurementCache

        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        plan = SweepPlan(TONES)
        # A one-second inverter delay swallows every reset pulse: the
        # latch never clocks and every tone starves — the reference
        # too, so each sweep raises after streaming its outcomes.
        starved = replace(fast_bist_config, detector_inverter_delay=1.0)
        dedup = ToneMeasurementCache()

        def sweep(device):
            seen = []
            with pytest.raises(MeasurementError, match="reference tone"):
                TransferFunctionMonitor(device, stimulus, starved).run(
                    plan, engine="scalar", measurement_cache=dedup,
                    on_outcome=lambda index, outcome: seen.append(outcome),
                )
            return seen

        first = sweep(pll)
        assert len(first) == len(TONES)
        assert all(outcome.failed for outcome in first)
        runs = []
        run = ToneTestSequencer.run

        def spy(self, *args, **kwargs):
            runs.append(args)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(ToneTestSequencer, "run", spy)
        second = sweep(replace(pll, name="same-physics-die"))
        assert second == first
        assert runs == []

    def test_uncacheable_tone_bypasses_dedup(self, fast_bist_config):
        from repro.core.sequencer import tone_is_cacheable
        from repro.core.warm import ToneMeasurementCache

        pll = paper_pll()
        assert not tone_is_cacheable(pll, UNCACHEABLE_TONE)
        dedup = ToneMeasurementCache()
        TransferFunctionMonitor(
            pll, paper_stimulus("multitone"), fast_bist_config
        ).run(
            SweepPlan(TONES + (UNCACHEABLE_TONE,)), engine="scalar",
            measurement_cache=dedup,
        )
        assert len(dedup) == len(TONES)

    def test_monitor_threads_measurement_cache(self, fast_bist_config):
        from repro.core.warm import ToneMeasurementCache

        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        plan = SweepPlan(TONES)
        cold = TransferFunctionMonitor(pll, stimulus, fast_bist_config).run(
            plan, engine="scalar"
        )
        dedup = ToneMeasurementCache()
        TransferFunctionMonitor(pll, stimulus, fast_bist_config).run(
            plan, engine="auto", measurement_cache=dedup
        )
        warm = TransferFunctionMonitor(
            replace(pll, name="twin"), stimulus, fast_bist_config
        ).run(plan, engine="auto", measurement_cache=dedup)
        # The first sweep misses every tone and its farm measures them;
        # the twin answers every tone from what the first published.
        assert dedup.stats == (len(TONES), len(TONES))
        assert warm.measurements == cold.measurements
        assert list(warm.response.magnitude_db) == list(
            cold.response.magnitude_db
        )

    def test_twin_auto_sweep_runs_no_farm_lane(self, fast_bist_config):
        from repro.core.warm import ToneMeasurementCache

        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        plan = SweepPlan(TONES)
        dedup = ToneMeasurementCache()
        first = TransferFunctionMonitor(pll, stimulus, fast_bist_config)
        first.run(plan, engine="auto", measurement_cache=dedup)
        assert dedup.presettle_stats.unique == len(TONES)
        twin = TransferFunctionMonitor(
            replace(pll, name="twin"), stimulus, fast_bist_config
        )
        twin.run(plan, engine="auto", measurement_cache=dedup)
        # The cache answers every tone before the farm plans a lane.
        assert dedup.presettle_stats.unique == 0
        assert len(dedup) == len(TONES)


class TestWarmEntryShippingFilter:
    def test_only_matching_physics_ships(self):
        pll = paper_pll()
        signature = pll.physics_signature()
        cache = ToneMeasurementCache()
        cache.put((signature, 10.0), SimpleNamespace(pll_signature=signature))
        cache.put((("other",), 10.0),
                  SimpleNamespace(pll_signature=("other",)))
        shipped = warm_shipment(cache, [pll])
        # Keys lead with the looking-up device's signature: only the
        # entry of this device's physics ships.
        assert [key for key, __ in shipped] == [(signature, 10.0)]


class TestNominalFrequencyMemo:
    def test_renamed_dies_share_the_memo(self, fast_bist_config):
        _NOMINAL_FREQUENCY_MEMO.clear()
        stimulus = paper_stimulus("multitone")
        a = ToneTestSequencer(
            replace(paper_pll(), name="die-a"), stimulus, fast_bist_config
        )
        b = ToneTestSequencer(
            replace(paper_pll(), name="die-b"), stimulus, fast_bist_config
        )
        va = a.measure_nominal_frequency(gate_cycles=32)
        assert len(_NOMINAL_FREQUENCY_MEMO) == 1
        vb = b.measure_nominal_frequency(gate_cycles=32)
        # Same physics: one measurement, bit-equal result, no new entry.
        assert vb == va
        assert len(_NOMINAL_FREQUENCY_MEMO) == 1

    def test_different_physics_key_apart(self, fast_bist_config):
        _NOMINAL_FREQUENCY_MEMO.clear()
        stimulus = paper_stimulus("multitone")
        healthy = ToneTestSequencer(
            paper_pll(), stimulus, fast_bist_config
        )
        label = sorted(FAULT_LIBRARY)[0]
        faulted = ToneTestSequencer(
            apply_fault(paper_pll(), FAULT_LIBRARY[label]),
            stimulus,
            fast_bist_config,
        )
        healthy.measure_nominal_frequency(gate_cycles=32)
        faulted.measure_nominal_frequency(gate_cycles=32)
        assert len(_NOMINAL_FREQUENCY_MEMO) == 2

    def test_gate_cycles_key_apart(self, fast_bist_config):
        _NOMINAL_FREQUENCY_MEMO.clear()
        sequencer = ToneTestSequencer(
            paper_pll(), paper_stimulus("multitone"), fast_bist_config
        )
        sequencer.measure_nominal_frequency(gate_cycles=32)
        sequencer.measure_nominal_frequency(gate_cycles=64)
        assert len(_NOMINAL_FREQUENCY_MEMO) == 2


class TestTurnOnDelayLanes:
    """Dead-zone pumps settle on the per-lane kernel, which carries the
    scalar engine's pending-activation event; settled states stay
    bit-identical to a cold scalar settle on every route."""

    def test_kernel_snapshots_equal_scalar(self, delay_die, settled):
        d = delay_die
        lanes = (_lanes(d.pll, d.stimulus, d.config, d.tones)
                 + _lanes(d.healthy, d.stimulus, d.config, d.tones))
        for lane, (mode, fields) in zip(lanes, settled.farm(lanes)):
            assert mode == "vector"
            assert fields == settled.scalar(
                lane.pll, d.stimulus, lane.f_mod, lane.settle_end
            )

    @pytest.mark.parametrize("engine", ["auto", "scalar"])
    def test_engines_presettle_scalar_snapshots(self, delay_die, engine):
        """Both engines publish the cold scalar sequencer's finished
        tone for every delay-die tone."""
        d = delay_die
        cache = ToneMeasurementCache()
        TransferFunctionMonitor(d.pll, d.stimulus, d.config).run(
            SweepPlan(d.tones), engine=engine, measurement_cache=cache)
        if engine == "auto":
            stats = cache.presettle_stats
            assert stats.unique == len(d.tones)
            assert stats.scalar == stats.ejected == 0
            assert stats.vector == stats.tones_vectorized == len(d.tones)
        cold = ToneTestSequencer(d.pll, d.stimulus, d.config)
        for f_mod in d.tones:
            assert cache.peek(measurement_cache_key(
                d.pll, d.stimulus, d.config, f_mod)) == cold.run(f_mod)

    def test_ejection_with_activation_in_flight(self, delay_die, settled,
                                                cut_edge_supply,
                                                monkeypatch):
        """A lane ejected mid-settle with its pump activation still armed
        publishes nothing and builds no scalar simulator: the sweep
        measures the tone from t = 0, identically on both engines."""
        d = delay_die
        f_mod = d.tones[0]
        settle_end = d.config.settle_cycles / f_mod
        # Find a reference edge that arrives while an activation is
        # pending (the feedback edge led by less than the delay).
        sim = PLLTransientSimulator(
            d.pll, d.stimulus.make_source(f_mod, start_time=0.0),
            record="counters",
        )
        in_flight = []
        dispatch = sim._dispatch

        def spy(kind):
            if kind == "ref":
                in_flight.append(sim._pending_activation is not None)
            dispatch(kind)

        sim._dispatch = spy
        sim.run_until(settle_end)
        m = in_flight.index(True, 8)

        # Cut this tone's source after edge m: the kernel ejects at edge
        # m, from its pre-event state, with the activation armed.
        cut_edge_supply(f_mod, m + 1)
        lane = _lanes(d.pll, d.stimulus, d.config, (f_mod,))[0]
        ((mode, fields),) = settled.farm([lane])
        assert mode == "ejected"
        assert fields["pending_activation"] is not None
        assert fields["pending_activation"][0] > fields["time"]
        assert fields == settled.twin(lane, mode, fields)

        built = []
        init = PLLTransientSimulator.__init__

        def counting(self, *args, **kwargs):
            built.append(args[0].name)
            init(self, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(PLLTransientSimulator, "__init__", counting)
            (result,) = VectorizedLotSimulator([lane]).run()
        assert result.mode == "ejected"
        assert result.measurement is None
        assert built == []

        plan = SweepPlan(d.tones)
        scalar = TransferFunctionMonitor(
            d.pll, d.stimulus, d.config).run(plan, engine="scalar")
        cache = ToneMeasurementCache()
        auto = TransferFunctionMonitor(
            d.pll, d.stimulus, d.config).run(plan, engine="auto",
                                             measurement_cache=cache)
        assert cache.presettle_stats.ejected == 1
        assert cache.presettle_stats.measured + \
            cache.presettle_stats.measure_failed == len(d.tones) - 1
        assert auto.measurements == scalar.measurements
        assert device_report(d.pll, auto) == device_report(d.pll, scalar)

    def test_finished_lane_keeps_activation_in_flight(self, delay_die,
                                                      settled):
        """A settle that ends inside the delay window holds the pending
        activation exactly as the scalar engine does."""
        d = delay_die
        f_mod = d.tones[0]
        sim = PLLTransientSimulator(
            d.pll, d.stimulus.make_source(f_mod, start_time=0.0),
            record="counters",
        )
        dispatch = sim._dispatch
        armed = []

        def spy(kind):
            dispatch(kind)
            if sim._pending_activation is not None and not armed:
                armed.append(sim._pending_activation[0])

        sim._dispatch = spy
        sim.run_until(d.config.settle_cycles / f_mod)
        t_end = armed[0] - 0.5 * d.pll.pump.turn_on_delay
        lane = SettleLane(pll=d.pll, stimulus=d.stimulus, f_mod=f_mod,
                          settle_end=t_end, config=d.config)
        ((mode, fields),) = settled.farm([lane])
        expected = settled.scalar(d.pll, d.stimulus, f_mod, t_end)
        assert expected["pending_activation"] is not None
        assert mode == "vector"
        assert fields == expected

    def test_activation_wins_a_tie_with_the_reference_edge(
        self, fast_bist_config, settled
    ):
        """Ties resolve as in the scalar ``_next_event``: a pending
        activation due at a reference edge fires first."""
        pll = apply_fault(paper_pll(), FAULT_LIBRARY["pump dead zone 100us"])
        stimulus = paper_stimulus("multitone")
        lane = _lanes(pll, stimulus, fast_bist_config, (10.0,))[0]
        farm = VectorizedLotSimulator([lane])
        (record,) = farm.lanes
        table = record.table
        up = table.s_to_drive[1]  # PFD state (up=True, dn=False)
        t_tie = float(record.tref)
        record.tact = t_tie
        record.act = up
        mode, fields = settled.lane(farm, record)
        sim = PLLTransientSimulator(
            pll, stimulus.make_source(10.0, start_time=0.0),
            record="counters",
        )
        sim._pending_activation = (t_tie, table.drives[up])
        sim.run_until(lane.settle_end)
        assert mode == "vector"
        assert fields == settled.of_sim(sim)

    def test_measurement_phase_measures_delay_lanes(self, delay_die,
                                                    monkeypatch):
        """Delay lanes arm the measurement stages and measure on the
        kernel, equal to a cold scalar sweep on every engine."""
        d = delay_die
        loaded = []
        arm = VectorizedLotSimulator._arm

        def spy(farm, lane):
            loaded.append(lane.table.turn_on_delay)
            return arm(farm, lane)

        monkeypatch.setattr(VectorizedLotSimulator, "_arm", spy)
        dedup = ToneMeasurementCache()
        stats = premeasure_lot(
            [(d.healthy, d.stimulus, d.config, d.tones),
             (d.pll, d.stimulus, d.config, d.tones)],
            dedup,
        )
        assert loaded.count(d.pll.pump.turn_on_delay) == len(d.tones)
        assert stats.scalar == stats.measure_ejected == 0
        cold = ToneTestSequencer(d.pll, d.stimulus, d.config)
        for f_mod in d.tones:
            assert dedup.get(measurement_cache_key(
                d.pll, d.stimulus, d.config, f_mod)) == cold.run(f_mod)
        plan = SweepPlan(d.tones)
        scalar = TransferFunctionMonitor(
            d.pll, d.stimulus, d.config).run(plan, engine="scalar")
        result = TransferFunctionMonitor(
            d.pll, d.stimulus, d.config).run(plan, engine="auto")
        assert result.measurements == scalar.measurements
        assert result.failed_tones == scalar.failed_tones


class TestKoFaultDedup:
    """A Ko fault's scaled tuning curve fingerprints from the nominal
    curve's signature, its factor and its centre, so equally faulted
    4046 dies share their tones like any other equal physics."""

    def test_equally_faulted_dies_share_one_lane_per_tone(
        self, fast_bist_config, pll_nonlinear
    ):
        half = apply_fault(pll_nonlinear, FAULT_LIBRARY["Ko half nominal"])
        double = apply_fault(pll_nonlinear,
                             FAULT_LIBRARY["Ko double nominal"])
        assert half.physics_signature()[0] == "physics"
        assert half.physics_signature() != double.physics_signature()
        lot = _lot_requests(fast_bist_config, size=2, template=half)
        a, b = (request.pll for request in lot)
        assert a.name != b.name
        assert a.physics_signature() == b.physics_signature()
        cache = ToneMeasurementCache()
        auto = batch_device_reports(lot, cache=cache, engine="auto")
        stats = cache.presettle_stats
        assert stats.tones == len(lot) * len(TONES)
        assert stats.unique == stats.measured == len(TONES)
        assert auto == batch_device_reports(lot, engine="scalar")

    def test_unsigned_nominal_curve_keys_by_name(self, curve_dies):
        *__, lambda_die = curve_dies
        faulted = apply_fault(lambda_die, FAULT_LIBRARY["Ko half nominal"])
        assert faulted.physics_signature() == ("named", faulted.name)

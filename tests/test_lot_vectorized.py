"""The vectorised lot engine: the per-lane kernel farm + engine wiring.

Four contracts under test:

* **bit identity** — a lane settled on the farm's kernel materialises a
  :class:`~repro.pll.simulator.SimulatorSnapshot` *exactly equal* (full
  dataclass equality, PFD state and event counters included) to the
  snapshot a cold scalar :class:`~repro.pll.simulator.PLLTransientSimulator`
  produces for the same (device, stimulus, tone) — which is what makes
  ``engine="auto"`` sweeps and batch reports byte-identical to the
  scalar engine;
* **graceful divergence** — a lane leaving the kernel's envelope ejects
  to a scalar finish mid-flight and still satisfies the identity above,
  and unsupported physics runs nothing on the farm, leaving its tones
  to the sweep's scalar engine; correctness never depends on the fast
  path;
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
from repro.presets import paper_pll, paper_stimulus, paper_sweep
from repro.reporting import DeviceReportRequest, batch_device_reports
from repro.sim.vectorized import SettleLane, VectorizedLotSimulator

# Cacheable tones (8·f_mod ≤ f_ref) spanning the sweep's cost range.
TONES = (10.0, 55.0)
# Above f_ref / 8 for the paper PLL: neither settle-cached nor deduped.
UNCACHEABLE_TONE = 200.0


def _scalar_snapshot(pll, stimulus, f_mod, settle_end):
    """The reference: a cold scalar settle, exactly as the sequencer runs it."""
    source = stimulus.make_source(f_mod, start_time=0.0)
    sim = PLLTransientSimulator(pll, source, record="counters")
    sim.run_until(settle_end)
    return sim.snapshot()


def _lanes(pll, stimulus, config, tones=TONES):
    return [
        SettleLane(
            pll=pll,
            stimulus=stimulus,
            f_mod=f_mod,
            settle_end=config.settle_cycles / f_mod,
            record="counters",
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
    def test_lane_snapshots_equal_scalar(self, fast_bist_config):
        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        lanes = _lanes(pll, stimulus, fast_bist_config)
        farm = VectorizedLotSimulator(lanes)
        results = farm.run()
        assert len(results) == len(lanes)
        for lane, result in zip(lanes, results):
            assert result.mode == "vector", result.error
            expected = _scalar_snapshot(
                pll, stimulus, lane.f_mod, lane.settle_end
            )
            assert result.snapshot == expected

    def test_faulted_physics_lanes_equal_scalar(self, fast_bist_config):
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
        results = VectorizedLotSimulator(lanes).run()
        for lane, result in zip(lanes, results):
            expected = _scalar_snapshot(
                lane.pll, stimulus, lane.f_mod, lane.settle_end
            )
            assert result.snapshot == expected, (
                f"{lane.pll.name} @ {lane.f_mod} Hz via {result.mode}"
            )

    def test_lane_snapshots_independent_of_farm_width(
        self, fast_bist_config
    ):
        """A lane settles to the same snapshot alone as inside a wider
        farm, whose longer-settling lanes share and lengthen its
        group's reference-edge train."""
        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        lanes = _lanes(pll, stimulus, fast_bist_config)
        longer = [replace(lane, settle_end=2.0 * lane.settle_end)
                  for lane in lanes]
        together = VectorizedLotSimulator(lanes + longer).run()
        for lane, result in zip(lanes, together):
            (alone,) = VectorizedLotSimulator([lane]).run()
            assert result.mode == alone.mode == "vector"
            assert result.snapshot == alone.snapshot

    def test_nonlinear_hct4046_rides_the_farm(self, fast_bist_config):
        """The nonlinear 74HCT4046A VCO no longer ejects: the farm
        recognises its tuning curve, integrates phase through the masked
        Simpson path, and stays bit-identical to the scalar engine."""
        pll = paper_pll(nonlinear=True)
        stimulus = paper_stimulus("multitone")
        lanes = _lanes(pll, stimulus, fast_bist_config)
        farm = VectorizedLotSimulator(lanes)
        results = farm.run()
        for lane, result in zip(lanes, results):
            assert result.mode == "vector", result.error
            assert result.nonlinear
            expected = _scalar_snapshot(
                pll, stimulus, lane.f_mod, lane.settle_end
            )
            assert result.snapshot == expected
        assert farm.stats["nonlinear"] == len(lanes)

    def test_unrecognised_tuning_curve_falls_back_scalar(
        self, fast_bist_config
    ):
        """A tuning curve the farm cannot replicate (an arbitrary
        callable) runs nothing on the farm — no snapshot, no measurement,
        no error — and the auto sweep measures it on the scalar engine,
        bit-identically, instead of failing or (worse) approximating."""
        from dataclasses import replace as dc_replace

        from repro.pll.vco import VCO

        base = paper_pll(nonlinear=True)
        vco = base.vco

        def bent(v: float) -> float:
            return vco.f_center + vco.gain_hz_per_v * 0.9 * (
                v - vco.v_center
            )

        custom = VCO(
            f_center=vco.f_center,
            gain_hz_per_v=vco.gain_hz_per_v,
            v_center=vco.v_center,
            f_min=vco.f_min,
            f_max=vco.f_max,
            tuning_curve=bent,
        )
        pll = dc_replace(base, vco=custom)
        stimulus = paper_stimulus("multitone")
        lanes = _lanes(pll, stimulus, fast_bist_config)
        results = VectorizedLotSimulator(lanes).run()
        for result in results:
            assert result.mode == "scalar"
            assert result.snapshot is None
            assert result.measurement is None
            assert result.error is None
        plan = SweepPlan(TONES)
        scalar = TransferFunctionMonitor(
            pll, stimulus, fast_bist_config).run(plan, engine="scalar")
        auto = TransferFunctionMonitor(
            pll, stimulus, fast_bist_config).run(plan, engine="auto")
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
        assert stats.failed == 0
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
        """An auto lot whose lanes all fall off the farm builds one
        simulator per (die, tone): the farm runs nothing for them and
        the sweep settles and measures each tone once."""
        pll = apply_fault(paper_pll(nonlinear=True),
                          FAULT_LIBRARY["Ko half nominal"])
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
        assert stats.failed == 0

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
    scalar engine's pending-activation event; snapshots stay
    bit-identical to a cold scalar settle on every route."""

    def test_kernel_snapshots_equal_scalar(self, delay_die):
        d = delay_die
        lanes = (_lanes(d.pll, d.stimulus, d.config, d.tones)
                 + _lanes(d.healthy, d.stimulus, d.config, d.tones))
        results = VectorizedLotSimulator(lanes).run()
        for lane, result in zip(lanes, results):
            expected = _scalar_snapshot(
                lane.pll, d.stimulus, lane.f_mod, lane.settle_end
            )
            assert result.mode == "vector", result.error
            assert result.snapshot == expected

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
            assert stats.scalar == stats.ejected == stats.failed == 0
            assert stats.vector == stats.tones_vectorized == len(d.tones)
        cold = ToneTestSequencer(d.pll, d.stimulus, d.config)
        for f_mod in d.tones:
            assert cache.peek(measurement_cache_key(
                d.pll, d.stimulus, d.config, f_mod)) == cold.run(f_mod)

    def test_ejection_with_activation_in_flight(self, delay_die,
                                                monkeypatch):
        """A kernel ejection hands the pending activation to the scalar
        finish, which stays bit-identical to an uninterrupted settle."""
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

        lane = _lanes(d.pll, d.stimulus, d.config, (f_mod,))[0]
        farm = VectorizedLotSimulator([lane])
        # Truncate the pregenerated train: the kernel ejects at edge m,
        # from its pre-event state, with the activation still armed.
        farm._edges[0] = farm._edges[0][:m + 1]
        handed = []
        finish = farm._finish_from_snapshot

        def capture(spec, snap, mode, nonlinear):
            handed.append(snap)
            return finish(spec, snap, mode, nonlinear)

        monkeypatch.setattr(farm, "_finish_from_snapshot", capture)
        (result,) = farm.run()
        assert result.mode == "ejected"
        (snap,) = handed
        assert snap.pending_activation is not None
        assert snap.pending_activation[0] > snap.time
        assert result.snapshot == _scalar_snapshot(
            d.pll, d.stimulus, f_mod, settle_end
        )

    def test_finished_lane_keeps_activation_in_flight(self, delay_die):
        """A settle that ends inside the delay window snapshots the
        pending activation exactly as the scalar engine does."""
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
                          settle_end=t_end, record="counters")
        (result,) = VectorizedLotSimulator([lane]).run()
        expected = _scalar_snapshot(d.pll, d.stimulus, f_mod, t_end)
        assert expected.pending_activation is not None
        assert result.mode == "vector"
        assert result.snapshot == expected

    def test_activation_wins_a_tie_with_the_reference_edge(
        self, fast_bist_config
    ):
        """Ties resolve as in the scalar ``_next_event``: a pending
        activation due at a reference edge fires first."""
        pll = apply_fault(paper_pll(), FAULT_LIBRARY["pump dead zone 100us"])
        stimulus = paper_stimulus("multitone")
        lane = _lanes(pll, stimulus, fast_bist_config, (10.0,))[0]
        farm = VectorizedLotSimulator([lane])
        table = farm._tables[0]
        up = table.s_to_drive[1]  # PFD state (up=True, dn=False)
        t_tie = float(farm._tref[0])
        farm._tact[0] = t_tie
        farm._act[0] = up
        (result,) = farm.run()
        sim = PLLTransientSimulator(
            pll, stimulus.make_source(10.0, start_time=0.0),
            record="counters",
        )
        sim._pending_activation = (t_tie, table.drives[up])
        sim.run_until(lane.settle_end)
        assert result.mode == "vector"
        assert result.snapshot == sim.snapshot()

    def test_measurement_phase_measures_delay_lanes(self, delay_die,
                                                    monkeypatch):
        """Delay lanes load into the measurement stages and measure on
        the kernel, equal to a cold scalar sweep on every engine."""
        d = delay_die
        loaded = []
        load = VectorizedLotSimulator._load_measure_state

        def spy(farm, i, lane, snap):
            loaded.append(farm._tables[i].turn_on_delay)
            return load(farm, i, lane, snap)

        monkeypatch.setattr(VectorizedLotSimulator, "_load_measure_state",
                            spy)
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

"""The farm's stages 1-4 on the per-lane kernel, byte-identical.

Contracts under test, mirroring the settle farm's parity discipline:

* **bit identity** — a tone measured inside the vectorized farm
  (:func:`~repro.pll.lot.premeasure_lot`) equals — full dataclass
  equality, stage log and peak event included — the measurement the
  scalar :class:`~repro.core.sequencer.ToneTestSequencer` produces for
  the same (device, stimulus, tone, config), across the fault library,
  the nonlinear hct4046 lot, dead-zone pumps with activations in
  flight, and a seeded ``cdr180`` population chunk;
* **published failures** — a lane whose stages raise
  :class:`~repro.errors.MeasurementError` (no-MFREQ starvation)
  publishes the scalar sequencer's exact error text in the
  measurement cache;
* **lossless degradation** — a lane the kernel ejects mid-measurement
  is left out of the measurement cache, so the orchestrating sweep
  runs the tone on the scalar engine;
* **stepping regression** — the scalar monitor stage's predicted-peak
  stepping visits a suffix of the historical quarter-period boundary
  walk, so its measurements are bit-identical to the full poll.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import (
    SweepPlan,
    ToneTestSequencer,
    TransferFunctionMonitor,
)
from repro.core.sequencer import measurement_cache_key
from repro.core.warm import ToneMeasurementCache
from repro.errors import MeasurementError
from repro.pll.faults import FAULT_LIBRARY, Fault, FaultKind, apply_fault
from repro.pll.lot import premeasure_lot
from repro.pll.simulator import PLLTransientSimulator
from repro.presets import paper_pll, paper_stimulus
from repro.reporting import DeviceReportRequest, batch_device_reports
from repro.sim.vectorized import (
    SettleLane,
    VectorizedLotSimulator,
)

# Cacheable tones (8·f_mod ≤ f_ref) spanning the sweep's cost range.
TONES = (10.0, 55.0)


def _scalar_measurement(pll, stimulus, config, f_mod):
    """The reference: one cold scalar Table 2 run."""
    return ToneTestSequencer(pll, stimulus, config).run(f_mod)


def _scalar_outcome(pll, stimulus, config, f_mod):
    """The scalar measurement, or the text of the error it raises."""
    try:
        return _scalar_measurement(pll, stimulus, config, f_mod)
    except MeasurementError as exc:
        return str(exc)


def _measure_lane(pll, stimulus, config, f_mod, settle_end=None):
    """A settle lane carrying the sequencer's stage 1-4 request."""
    return SettleLane(
        pll=pll, stimulus=stimulus, f_mod=f_mod,
        settle_end=(config.settle_cycles / f_mod if settle_end is None
                    else settle_end),
        config=config,
    )


def _measured_from(settle_end, pll, stimulus, config, f_mod, monkeypatch):
    """The cold scalar sequencer's outcome with its stage 0 run to
    ``settle_end`` instead of Table 2's wait (stages 1-4 run from there
    unchanged)."""
    run_until = PLLTransientSimulator.run_until
    settles = []

    def settle_to(sim, t_end):
        if not settles:
            settles.append(t_end)
            t_end = settle_end
        run_until(sim, t_end)

    with monkeypatch.context() as patch:
        patch.setattr(PLLTransientSimulator, "run_until", settle_to)
        try:
            return ToneTestSequencer(pll, stimulus, config).run(f_mod)
        except MeasurementError as exc:
            return str(exc)
        finally:
            assert settles == [config.settle_cycles / f_mod]


def _requests(config, duts):
    stimulus = paper_stimulus("multitone")
    plan = SweepPlan(TONES)
    return [
        DeviceReportRequest(
            pll=replace(dut, name=f"die-{i:02d}"),
            stimulus=stimulus, plan=plan, config=config,
        )
        for i, dut in enumerate(duts)
    ]


def _fault_lot(n_faults=2):
    """Healthy die plus ``n_faults`` distinct physics families."""
    labels = sorted(FAULT_LIBRARY)[:n_faults]
    return [paper_pll()] + [
        apply_fault(paper_pll(), FAULT_LIBRARY[label]) for label in labels
    ]


class TestPremeasureParity:
    def test_fault_lot_measurements_equal_scalar(self, fast_bist_config):
        stimulus = paper_stimulus("multitone")
        duts = _fault_lot()
        dedup = ToneMeasurementCache()
        stats = premeasure_lot(
            [(d, stimulus, fast_bist_config, TONES) for d in duts],
            dedup,
        )
        assert stats.measured == len(duts) * len(TONES)
        assert stats.measure_ejected == stats.measure_failed == 0
        for dut in duts:
            for f_mod in TONES:
                key = measurement_cache_key(
                    dut, stimulus, fast_bist_config, f_mod
                )
                hit = dedup.get(key)
                assert hit is not None, (dut.name, f_mod)
                assert hit == _scalar_measurement(
                    dut, stimulus, fast_bist_config, f_mod
                ), (dut.name, f_mod)

    def test_measurement_error_lane_degrades_losslessly(
        self, fast_bist_config
    ):
        """A die whose detector never produces MFREQ fails *in-farm*
        without disturbing its siblings, and publishes the exact error
        the scalar sequencer raises."""
        stimulus = paper_stimulus("multitone")
        healthy, faulted, sibling = _fault_lot(2)
        # An inverter delay of a full second swallows every reset pulse:
        # the latch never clocks, stage 2 starves, stage 5 never comes.
        starved_cfg = replace(
            fast_bist_config, detector_inverter_delay=1.0
        )
        jobs = [
            (healthy, stimulus, fast_bist_config, TONES),
            (faulted, stimulus, starved_cfg, TONES),
            (sibling, stimulus, fast_bist_config, TONES),
        ]
        dedup = ToneMeasurementCache()
        stats = premeasure_lot(jobs, dedup)
        assert stats.measure_failed == len(TONES)
        assert stats.measured == 2 * len(TONES)
        for f_mod in TONES:
            key = measurement_cache_key(
                faulted, stimulus, starved_cfg, f_mod
            )
            # The scalar sequence raises the bit-same text the farm
            # published.
            with pytest.raises(MeasurementError) as raised:
                ToneTestSequencer(faulted, stimulus, starved_cfg).run(f_mod)
            assert dedup.get(key) == str(raised.value)
        # The healthy siblings measured normally despite the failure.
        for dut in (healthy, sibling):
            for f_mod in TONES:
                hit = dedup.get(measurement_cache_key(
                    dut, stimulus, fast_bist_config, f_mod
                ))
                assert hit == _scalar_measurement(
                    dut, stimulus, fast_bist_config, f_mod
                )

    def test_nonlinear_hct4046_lanes_measure_in_farm(
        self, fast_bist_config, curve_dies
    ):
        """Tuning-curve lanes (the hct4046, its Ko faults, a lambda
        curve) measure on the kernel beside the linear lanes of a mixed
        lot, each equal to its scalar measurement."""
        stimulus = paper_stimulus("multitone")
        duts = [paper_pll()] + curve_dies
        dedup = ToneMeasurementCache()
        stats = premeasure_lot(
            [(dut, stimulus, fast_bist_config, TONES) for dut in duts],
            dedup,
        )
        assert stats.vector == stats.measured == len(duts) * len(TONES)
        assert stats.hct4046_lanes == len(curve_dies) * len(TONES)
        for dut in duts:
            for f_mod in TONES:
                assert dedup.get(measurement_cache_key(
                    dut, stimulus, fast_bist_config, f_mod
                )) == _scalar_measurement(
                    dut, stimulus, fast_bist_config, f_mod
                ), (dut.name, f_mod)

    def test_narrow_farm_measures_every_lane(self, fast_bist_config):
        """A three-lane farm: every lane measures on the kernel, none
        is handed to the scalar sequencer."""
        stimulus = paper_stimulus("multitone")
        duts = _fault_lot(2)
        dedup = ToneMeasurementCache()
        stats = premeasure_lot(
            [(d, stimulus, fast_bist_config, TONES[:1]) for d in duts],
            dedup,
        )
        assert stats.unique == len(duts) == 3
        assert stats.measured == 3
        assert stats.measure_ejected == stats.measure_failed == 0
        for dut in duts:
            assert dedup.get(measurement_cache_key(
                dut, stimulus, fast_bist_config, TONES[0]
            )) == _scalar_measurement(
                dut, stimulus, fast_bist_config, TONES[0]
            )

    def test_truncated_edge_train_ejects_losslessly(self, fast_bist_config,
                                                    settled, cut_edge_supply):
        """A lane whose reference source fails mid-measurement is
        ejected: no published outcome, an intact settled state, and the
        cold scalar measurement from it."""
        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        f_mod = TONES[0]
        lane = _measure_lane(pll, stimulus, fast_bist_config, f_mod)
        # Supply the settle's edges and a few more: stage 1 runs out.
        source = stimulus.make_source(f_mod, 0.0)
        n = 4
        while source.next_edge() < lane.settle_end:
            n += 1
        cut_edge_supply(f_mod, n)
        (result,) = VectorizedLotSimulator([lane]).run()
        # Settled on the kernel, measurement ejected: nothing published.
        assert result.mode == "vector"
        assert result.measurement is None
        # One lot pins all three counts premeasure_lot derives from the
        # results: the cut tone ejects its measurement, the die's other
        # tone measures, and the MFREQ-starved cap leak fails in-farm.
        leaky = apply_fault(pll, FAULT_LIBRARY["cap leak 50k"])
        stats = premeasure_lot(
            [(pll, stimulus, fast_bist_config, TONES),
             (leaky, stimulus, fast_bist_config, TONES[1:])],
            ToneMeasurementCache(),
        )
        assert stats.vector == 3
        assert stats.measured == stats.measure_failed == 1
        assert stats.measure_ejected == 1
        ((mode, fields),) = settled.farm([lane])
        assert mode == "vector"
        assert fields == settled.scalar(
            pll, stimulus, f_mod, lane.settle_end
        )
        # The sweep measures the ejected tone itself, on the scalar
        # engine.
        plan = SweepPlan(TONES)
        cache = ToneMeasurementCache()
        auto = TransferFunctionMonitor(
            pll, stimulus, fast_bist_config,
        ).run(plan, engine="auto", measurement_cache=cache)
        assert cache.presettle_stats.measure_ejected == 1
        assert auto.measurements == TransferFunctionMonitor(
            pll, stimulus, fast_bist_config,
        ).run(plan, engine="scalar").measurements


class TestDeadZoneMeasurement:
    """Turn-on-delay pumps measure on the kernel, which carries the
    pending-activation event through stages 1-4."""

    def test_delay_lanes_measure_equal_scalar(self, delay_die):
        d = delay_die
        dedup = ToneMeasurementCache()
        stats = premeasure_lot(
            [(d.pll, d.stimulus, d.config, d.tones)],
            dedup,
        )
        assert stats.measure_ejected == 0
        assert stats.measured + stats.measure_failed == len(d.tones)
        for f_mod in d.tones:
            assert dedup.get(measurement_cache_key(
                d.pll, d.stimulus, d.config, f_mod
            )) == _scalar_outcome(d.pll, d.stimulus, d.config, f_mod)

    def test_settled_snapshot_with_pending_activation(self, delay_die,
                                                      settled, monkeypatch):
        """A settle that ends inside the delay window hands its pending
        activation to stages 1-4, which fire it as the cold scalar
        sequencer settled to the same instant does."""
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
        lane = _measure_lane(d.pll, d.stimulus, d.config, f_mod, t_end)
        ((mode, fields),) = settled.farm([lane])
        assert mode == "vector"
        assert fields["pending_activation"] is not None
        assert fields == settled.scalar(d.pll, d.stimulus, f_mod, t_end)
        (result,) = VectorizedLotSimulator([lane]).run()
        assert result.mode == "vector"
        assert result.measurement is not None
        assert result.measurement == _measured_from(
            t_end, d.pll, d.stimulus, d.config, f_mod, monkeypatch,
        )

    def test_capture_with_activation_pending(self, fast_bist_config,
                                             monkeypatch):
        """The MFREQ capture opens the loop and drops an activation
        still in flight, exactly as ``open_loop()`` does.  A 50 us dead
        zone at 35 Hz captures on a pulse narrower than the delay."""
        pll = apply_fault(paper_pll(), Fault(
            FaultKind.CP_DEAD_ZONE, 50e-6, "pump dead zone 50us"
        ))
        stimulus = paper_stimulus("multitone")
        f_mod = 35.0
        pending = []
        open_loop = PLLTransientSimulator.open_loop

        def spy(sim):
            pending.append(sim._pending_activation is not None)
            open_loop(sim)

        monkeypatch.setattr(PLLTransientSimulator, "open_loop", spy)
        expected = _scalar_measurement(pll, stimulus, fast_bist_config,
                                       f_mod)
        assert pending == [True]
        dedup = ToneMeasurementCache()
        stats = premeasure_lot(
            [(pll, stimulus, fast_bist_config, (f_mod,))],
            dedup,
        )
        assert stats.measured == 1
        assert dedup.get(measurement_cache_key(
            pll, stimulus, fast_bist_config, f_mod
        )) == expected


class TestFaultLibraryInFarm:
    def test_auto_engine_measures_every_library_fault(
        self, fast_bist_config, monkeypatch
    ):
        """The whole fault library measures in-farm on ``auto``: no
        lane is ejected, and the lot's sweeps never run the scalar
        sequencer, yet every report equals the scalar engine's."""
        stimulus = paper_stimulus("multitone")
        duts = _fault_lot(len(FAULT_LIBRARY))
        stats = premeasure_lot(
            [(d, stimulus, fast_bist_config, TONES) for d in duts],
            ToneMeasurementCache(),
        )
        assert stats.unique == len(duts) * len(TONES)
        assert stats.measure_ejected == 0
        assert stats.measured + stats.measure_failed == stats.unique
        requests = _requests(fast_bist_config, duts)
        scalar = batch_device_reports(requests, engine="scalar")
        runs = []
        run = ToneTestSequencer.run

        def spy(self, *args, **kwargs):
            runs.append(args)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(ToneTestSequencer, "run", spy)
        assert batch_device_reports(requests, engine="auto") == scalar
        assert runs == []


class TestBatchAndPopulationParity:
    def test_batch_reports_byte_identical(self, fast_bist_config):
        requests = _requests(fast_bist_config, _fault_lot())
        scalar = batch_device_reports(requests, engine="scalar")
        assert batch_device_reports(requests, engine="auto") == scalar

    def test_pooled_batch_ships_measurements(self, fast_bist_config):
        """The pool path chunk-filters and ships finished measurements;
        reports stay byte-identical to the serial scalar screen."""
        requests = _requests(fast_bist_config, _fault_lot())
        scalar = batch_device_reports(requests, engine="scalar")
        pooled = batch_device_reports(
            requests, n_workers=2, engine="auto"
        )
        assert pooled == scalar

    def test_monitor_sweep_engines_identical(self, fast_bist_config):
        """A 26-tone plan sweeps bit-identically on both engines."""
        plan = SweepPlan(tuple(10.0 + 4.5 * i for i in range(26)))
        stimulus = paper_stimulus("multitone")
        results = {}
        for engine in ("scalar", "auto"):
            cache = ToneMeasurementCache()
            monitor = TransferFunctionMonitor(
                paper_pll(), stimulus, fast_bist_config
            )
            results[engine] = monitor.run(plan, engine=engine,
                                          measurement_cache=cache)
        assert cache.presettle_stats.measured > 0
        assert results["auto"].measurements == results["scalar"].measurements

    def test_cdr180_population_chunk_byte_identical(self):
        from repro.pll.population import PopulationSpec, screen_population

        spec = PopulationSpec(
            corner="cdr180", size=4, seed=11, fault_rate=0.4,
            points=7, rel_tol=0.35,
        )
        agg_scalar, __ = screen_population(
            spec, chunk_size=4, engine="scalar"
        )
        agg_auto, stats = screen_population(
            spec, chunk_size=4, engine="auto"
        )
        assert agg_auto.to_json(spec.describe()) == agg_scalar.to_json(
            spec.describe()
        )
        # The farm measurement phase actually ran on this corner, and
        # its wall split surfaced in the stats record.
        assert stats.measured + stats.measure_ejected > 0
        assert stats.settle_s > 0.0


class TestMonitorStepping:
    def test_predicted_stepping_bit_identical(
        self, fast_bist_config, monkeypatch
    ):
        """The predicted-peak monitor stepping visits a suffix of the
        historical quarter-period walk — measurements (stage log, peak
        event, counted results) are bit-identical either way."""
        import repro.core.sequencer as seq_mod

        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        # The paper device at these tones must actually predict a peak
        # window, or this regression test guards nothing.
        assert any(
            seq_mod.predicted_peak_delay(pll, f) is not None
            for f in TONES
        )
        predicted = [
            ToneTestSequencer(pll, stimulus, fast_bist_config).run(f)
            for f in TONES
        ]
        monkeypatch.setattr(
            seq_mod, "predicted_peak_delay", lambda pll, f_mod: None
        )
        full_poll = [
            ToneTestSequencer(pll, stimulus, fast_bist_config).run(f)
            for f in TONES
        ]
        for a, b in zip(predicted, full_poll):
            assert a == b
            assert a.stage_log == b.stage_log

"""The farm measurement phase: stages 1-4 in lockstep, byte-identical.

Contracts under test, mirroring the settle farm's parity discipline:

* **bit identity** — a tone measured inside the vectorized farm's
  measurement phase (:func:`~repro.pll.lot.premeasure_lot`) equals —
  full dataclass equality, stage log and peak event included — the
  measurement the scalar :class:`~repro.core.sequencer.ToneTestSequencer`
  produces for the same (device, stimulus, tone, config), across the
  fault library, the nonlinear hct4046 lot, and a seeded ``cdr180``
  population chunk;
* **lossless degradation** — lanes the farm ejects mid-measurement and
  lanes that raise :class:`~repro.errors.MeasurementError` (no-MFREQ
  starvation) are left out of the measurement cache, so the
  orchestrating sweep measures (or reproduces the identical error)
  from the settled snapshot;
* **stepping regression** — the scalar monitor stage's predicted-peak
  stepping visits a suffix of the historical quarter-period boundary
  walk, so its measurements are bit-identical to the full poll.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import (
    LockStateCache,
    SweepPlan,
    ToneTestSequencer,
    TransferFunctionMonitor,
)
from repro.core.executor import _measurement_cache_key
from repro.core.warm import ToneMeasurementCache
from repro.errors import MeasurementError
from repro.pll.faults import FAULT_LIBRARY, apply_fault
from repro.pll.lot import premeasure_lot
from repro.presets import paper_pll, paper_stimulus
from repro.reporting import DeviceReportRequest, batch_device_reports

# Cacheable tones (8·f_mod ≤ f_ref) spanning the sweep's cost range.
TONES = (10.0, 55.0)


def _scalar_measurement(pll, stimulus, config, f_mod):
    """The reference: one cold scalar Table 2 run."""
    return ToneTestSequencer(pll, stimulus, config).run(
        f_mod, settle="fixed", cache=LockStateCache()
    )


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
        cache = LockStateCache()
        dedup = ToneMeasurementCache()
        stats = premeasure_lot(
            [(d, stimulus, fast_bist_config, TONES) for d in duts],
            cache, dedup, drain_width=0,
        )
        assert stats.measured == len(duts) * len(TONES)
        assert stats.measure_ejected == stats.measure_failed == 0
        for dut in duts:
            for f_mod in TONES:
                key = _measurement_cache_key(
                    dut, stimulus, fast_bist_config, f_mod
                )
                hit = dedup.get(key)
                assert hit is not None, (dut.name, f_mod)
                assert hit == _scalar_measurement(
                    dut, stimulus, fast_bist_config, f_mod
                ), (dut.name, f_mod)

    def test_warm_lanes_reenter_for_measurement(self, fast_bist_config):
        """Already-settled lanes re-enter the farm from their cached
        snapshot (mode ``"warm"``) for the measurement phase alone, and
        still measure bit-identically."""
        stimulus = paper_stimulus("multitone")
        duts = _fault_lot()
        jobs = [(d, stimulus, fast_bist_config, TONES) for d in duts]
        cache = LockStateCache()
        premeasure_lot(jobs, cache, drain_width=0)
        settled = dict(cache.export())
        dedup = ToneMeasurementCache()
        stats = premeasure_lot(jobs, cache, dedup, drain_width=0)
        assert stats.cached == len(duts) * len(TONES)
        assert stats.measured == len(duts) * len(TONES)
        # The warm re-entry never rewrites the settle cache.
        assert dict(cache.export()) == settled
        for dut in duts:
            for f_mod in TONES:
                hit = dedup.get(_measurement_cache_key(
                    dut, stimulus, fast_bist_config, f_mod
                ))
                assert hit == _scalar_measurement(
                    dut, stimulus, fast_bist_config, f_mod
                )

    def test_closed_form_engine_measures_identically(
        self, fast_bist_config
    ):
        stimulus = paper_stimulus("multitone")
        duts = _fault_lot()
        cache = LockStateCache()
        dedup = ToneMeasurementCache()
        premeasure_lot(
            [(d, stimulus, fast_bist_config, TONES) for d in duts],
            cache, dedup, drain_width=0, engine="auto",
        )
        for dut in duts:
            for f_mod in TONES:
                hit = dedup.get(_measurement_cache_key(
                    dut, stimulus, fast_bist_config, f_mod
                ))
                assert hit == _scalar_measurement(
                    dut, stimulus, fast_bist_config, f_mod
                )

    def test_measurement_error_lane_degrades_losslessly(
        self, fast_bist_config
    ):
        """A die whose detector never produces MFREQ fails *in-farm*
        without disturbing its siblings; the orchestrating sweep
        reproduces the identical error from the settled snapshot."""
        stimulus = paper_stimulus("multitone")
        healthy, faulted, sibling = _fault_lot(2)
        # An inverter delay of a full second swallows every reset pulse:
        # the latch never clocks, stage 2 starves, stage 5 never comes.
        # It rides on its own physics family — a same-physics die would
        # share the settle key, and only the first config's measurement
        # spec attaches per settle lane.
        starved_cfg = replace(
            fast_bist_config, detector_inverter_delay=1.0
        )
        jobs = [
            (healthy, stimulus, fast_bist_config, TONES),
            (faulted, stimulus, starved_cfg, TONES),
            (sibling, stimulus, fast_bist_config, TONES),
        ]
        cache = LockStateCache()
        dedup = ToneMeasurementCache()
        stats = premeasure_lot(jobs, cache, dedup, drain_width=0)
        assert stats.measure_failed == len(TONES)
        assert stats.measured == 2 * len(TONES)
        for f_mod in TONES:
            key = _measurement_cache_key(
                faulted, stimulus, starved_cfg, f_mod
            )
            assert dedup.get(key) is None
            # The settle snapshot still landed, and the scalar replay
            # raises the bit-same starvation error from it.
            with pytest.raises(MeasurementError, match="no MFREQ"):
                ToneTestSequencer(
                    faulted, stimulus, starved_cfg, cache=cache
                ).run(f_mod)
        # The healthy siblings measured normally despite the failure.
        for dut in (healthy, sibling):
            for f_mod in TONES:
                hit = dedup.get(_measurement_cache_key(
                    dut, stimulus, fast_bist_config, f_mod
                ))
                assert hit == _scalar_measurement(
                    dut, stimulus, fast_bist_config, f_mod
                )

    def test_nonlinear_hct4046_lanes_skip_measurement(
        self, fast_bist_config
    ):
        """hct4046 lanes settle on the farm but measure scalar — the
        measurement phase skips them rather than approximating, and the
        mixed lot's dedupable linear lanes still measure in-farm."""
        stimulus = paper_stimulus("multitone")
        linear = paper_pll()
        nonlinear = paper_pll(nonlinear=True)
        cache = LockStateCache()
        dedup = ToneMeasurementCache()
        stats = premeasure_lot(
            [(linear, stimulus, fast_bist_config, TONES),
             (nonlinear, stimulus, fast_bist_config, TONES)],
            cache, dedup, drain_width=0,
        )
        assert stats.hct4046_lanes == len(TONES)
        assert stats.measured == len(TONES)  # the linear lanes only
        for f_mod in TONES:
            assert dedup.get(_measurement_cache_key(
                nonlinear, stimulus, fast_bist_config, f_mod
            )) is None
            assert dedup.get(_measurement_cache_key(
                linear, stimulus, fast_bist_config, f_mod
            )) == _scalar_measurement(
                linear, stimulus, fast_bist_config, f_mod
            )


class TestBatchAndPopulationParity:
    def _requests(self, config, duts):
        stimulus = paper_stimulus("multitone")
        plan = SweepPlan(TONES)
        return [
            DeviceReportRequest(
                pll=replace(dut, name=f"die-{i:02d}"),
                stimulus=stimulus, plan=plan, config=config,
            )
            for i, dut in enumerate(duts)
        ]

    def test_batch_reports_byte_identical(self, fast_bist_config):
        requests = self._requests(fast_bist_config, _fault_lot())
        scalar = batch_device_reports(requests, engine="scalar")
        for engine in ("vectorized", "auto"):
            assert batch_device_reports(
                requests, engine=engine
            ) == scalar, engine

    def test_pooled_batch_ships_measurements(self, fast_bist_config):
        """The pool path chunk-filters and ships finished measurements;
        reports stay byte-identical to the serial scalar screen."""
        requests = self._requests(fast_bist_config, _fault_lot())
        scalar = batch_device_reports(requests, engine="scalar")
        pooled = batch_device_reports(
            requests, n_workers=2, engine="vectorized"
        )
        assert pooled == scalar

    def test_monitor_sweep_engines_identical(self, fast_bist_config):
        """A plan wide enough to enable the measurement phase at the
        default measure width (3 x drain_width = 24 cacheable lanes)
        sweeps bit-identically on every engine."""
        plan = SweepPlan(tuple(10.0 + 4.5 * i for i in range(26)))
        stimulus = paper_stimulus("multitone")
        results = {}
        for engine in ("scalar", "vectorized", "closed_form", "auto"):
            monitor = TransferFunctionMonitor(
                paper_pll(), stimulus, fast_bist_config
            )
            results[engine] = monitor.run(plan, engine=engine)
            if engine == "vectorized":
                stats = monitor.lock_cache.presettle_stats
                assert stats.measured > 0
        for engine in ("vectorized", "closed_form", "auto"):
            assert (
                results[engine].measurements
                == results["scalar"].measurements
            ), engine

    def test_cdr180_population_chunk_byte_identical(self):
        from repro.pll.population import PopulationSpec, screen_population

        # 4 dies x 7 tones clears the farm's default measure width
        # (24 lanes), so the chunk actually measures in-farm.
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

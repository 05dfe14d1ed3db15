"""Warm-state-shared batch screening and sweep/executor-seam hardening.

The lot-screening contract has three legs:

* **byte identity** — a warm batch (one shared ``ToneMeasurementCache``)
  renders every report byte-identical to the cold batch, serial or
  pooled, because a finished tone answers a twin die bit-exactly;
* **signature keying** — cache entries are keyed by the device's
  *physics signature*, so renamed same-configuration dies (and repeats
  of the same injected fault) share finished tones while genuinely
  different loops key apart;
* **hardening** — any per-device error becomes a failure-stub artefact
  instead of killing the lot, the monitor identifies the reference tone
  by plan position rather than float equality, and a worker crash
  propagates out of the pool executor instead of vanishing.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import pytest

from repro.core import (
    ProcessPoolSweepExecutor,
    SweepPlan,
    ToneOutcome,
    TransferFunctionMonitor,
)
from repro.core.warm import ToneMeasurementCache
from repro.errors import MeasurementError
from repro.pll.faults import Fault, FaultKind, apply_fault
from repro.presets import paper_pll, paper_stimulus
from repro.reporting import DeviceReportRequest, batch_device_reports
from repro.stimulus.modulation import ModulatedStimulus

# Two cacheable tones (below f_ref / 8): enough to exercise the warm
# path without the full 13-tone sweep's wall time.
TONES = (10.0, 55.0)
LOT_SIZE = 3


class ExplodingStimulus(ModulatedStimulus):
    """Module-level (picklable) stimulus whose source always raises.

    Raises a *non*-``MeasurementError`` so tests can prove that foreign
    exceptions — not just measurement failures — are handled at every
    seam: stubbed per device in a batch, propagated out of the pool
    executor.
    """

    label = "exploding"

    def make_source(self, f_mod: float, start_time: float = 0.0):
        raise RuntimeError("stimulus generator died")


def _lot_requests(config, size: int = LOT_SIZE) -> List[DeviceReportRequest]:
    """``size`` distinct-name, identical-physics devices on one plan."""
    template = paper_pll()
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


class TestWarmBatchByteIdentity:
    def test_serial_warm_byte_identical_and_stats(self, fast_bist_config):
        lot = _lot_requests(fast_bist_config)
        cold = batch_device_reports(lot, engine="scalar")
        cache = ToneMeasurementCache()
        warm = batch_device_reports(lot, cache=cache, engine="scalar")
        assert warm == cold
        detail = cache.stats_detail
        # The first device measures each tone; every later device is
        # answered with the finished tone.
        assert detail["misses"] == len(TONES)
        assert detail["hits"] == (LOT_SIZE - 1) * len(TONES)
        assert detail["entries"] == len(TONES)

    def test_parallel_warm_byte_identical_and_one_way(
        self, fast_bist_config
    ):
        lot = _lot_requests(fast_bist_config)
        cold = batch_device_reports(lot, engine="scalar")
        cache = ToneMeasurementCache()
        warm = batch_device_reports(lot, n_workers=2, cache=cache,
                                    engine="scalar")
        assert warm == cold
        # Workers measure into their own local caches and return only
        # their reports: nothing folds back into the caller's cache.
        detail = cache.stats_detail
        assert detail["entries"] == 0
        assert detail["merged"] == 0

    def test_pooled_auto_lot_with_every_lane_measure_ejected(
        self, fast_bist_config, monkeypatch
    ):
        # Every farm lane settles but none measures, so each worker
        # settles and measures its dies' tones on the scalar loop.
        from repro.sim.vectorized import VectorizedLotSimulator

        fault = Fault(FaultKind.VCO_GAIN_SHIFT, 0.6)
        healthy = _lot_requests(fast_bist_config, size=2)
        lot = healthy + [
            replace(req, pll=apply_fault(req.pll, fault)) for req in healthy
        ]
        scalar = batch_device_reports(lot, engine="scalar")
        monkeypatch.setattr(
            VectorizedLotSimulator, "_load_measure_state",
            lambda self, i, lane, snap: False,
        )
        cache = ToneMeasurementCache()
        pooled = batch_device_reports(lot, n_workers=2, cache=cache,
                                      engine="auto")
        assert pooled == scalar
        stats = cache.presettle_stats
        assert stats.measured == 0
        assert stats.measure_ejected == 2 * len(TONES)

    def test_pool_chunks_keep_a_family_in_one_worker(
        self, fast_bist_config, monkeypatch
    ):
        # Lot [A, A, B, B] on two workers: contiguous chunks in lot
        # order give each worker one physics family, so a family's
        # tones are measured once, not once per worker.
        import importlib

        # The package re-exports a function under the module's name.
        device_report = importlib.import_module(
            "repro.reporting.device_report"
        )

        fault = Fault(FaultKind.VCO_GAIN_SHIFT, 0.6)
        family_a = _lot_requests(fast_bist_config, size=2)
        family_b = [
            replace(req, pll=apply_fault(req.pll, fault)) for req in family_a
        ]
        lot = family_a + family_b
        chunks = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, payloads):
                payloads = list(payloads)
                chunks.extend(payload[0] for payload in payloads)
                return [fn(payload) for payload in payloads]

        monkeypatch.setattr(device_report, "ProcessPoolExecutor",
                            RecordingPool)
        pooled = batch_device_reports(lot, n_workers=2,
                                      cache=ToneMeasurementCache(),
                                      engine="scalar")
        assert pooled == batch_device_reports(lot, engine="scalar")
        assert [[index for index, __ in chunk] for chunk in chunks] == \
            [[0, 1], [2, 3]]
        for chunk in chunks:
            families = {req.pll.physics_signature() for __, req in chunk}
            assert len(families) == 1

    def test_cache_persists_across_batches(self, fast_bist_config):
        lot = _lot_requests(fast_bist_config)
        cache = ToneMeasurementCache()
        first = batch_device_reports(lot, cache=cache, engine="scalar")
        hits_after_first = cache.stats_detail["hits"]
        second = batch_device_reports(lot, cache=cache, engine="scalar")
        assert second == first
        # A re-screen of the same lot measures nothing: every tone of
        # every device is answered from the first screen's entries.
        detail = cache.stats_detail
        assert detail["misses"] == len(TONES)
        assert detail["hits"] == hits_after_first + LOT_SIZE * len(TONES)


class TestPhysicsSignatureKeying:
    def test_renamed_dies_share_signature(self):
        a = paper_pll()
        b = replace(a, name=f"{a.name}-die2")
        assert a.physics_signature() == b.physics_signature()

    def test_fault_keys_apart(self):
        healthy = paper_pll()
        faulty = apply_fault(
            healthy, Fault(FaultKind.VCO_GAIN_SHIFT, 0.5)
        )
        assert healthy.physics_signature() != faulty.physics_signature()

    def test_same_fault_on_renamed_dies_shares(self):
        fault = Fault(FaultKind.R2_SHIFT, 0.7)
        a = apply_fault(paper_pll(), fault)
        b = apply_fault(
            replace(paper_pll(), name="other-die"), fault
        )
        assert a.physics_signature() == b.physics_signature()

    def test_nonlinear_dies_share_signature(self):
        # The nonlinear VCO's tuning curve is a method bound to a frozen
        # all-scalar config, so it fingerprints from parameters: renamed
        # 4046-style dies share finished tones just like linear ones.
        a = paper_pll(nonlinear=True)
        b = replace(a, name=f"{a.name}-die2")
        assert a.physics_signature()[0] == "physics"
        assert a.physics_signature() == b.physics_signature()

    def test_opaque_component_falls_back_to_name(self):
        # A truly opaque callable (no provable parameter bag behind it)
        # still degrades the signature to name keying rather than
        # guessing at behavioural equality.
        from repro.pll.vco import VCO

        pll = paper_pll(nonlinear=True)
        vco = pll.vco
        opaque_vco = VCO(
            f_center=vco.f_center,
            gain_hz_per_v=vco.gain_hz_per_v,
            v_center=vco.v_center,
            f_min=vco.f_min,
            f_max=vco.f_max,
            tuning_curve=lambda v: vco.tuning_curve(v),
        )
        opaque = replace(pll, vco=opaque_vco)
        assert opaque.physics_signature() == ("named", opaque.name)

    def test_fault_library_screen_settles_each_family_once(
        self, fast_bist_config
    ):
        fault = Fault(FaultKind.VCO_GAIN_SHIFT, 0.6)
        healthy = _lot_requests(fast_bist_config, size=2)
        faulty = [
            replace(req, pll=apply_fault(req.pll, fault))
            for req in healthy
        ]
        cache = ToneMeasurementCache()
        reports = batch_device_reports(healthy + faulty, cache=cache,
                                       engine="scalar")
        assert len(reports) == 4
        detail = cache.stats_detail
        # Two physics families (healthy, faulted) x two tones measure;
        # the second die of each family is answered for both tones.
        assert detail["misses"] == 2 * len(TONES)
        assert detail["hits"] == 2 * len(TONES)


class TestAnyDeviceErrorStubs:
    def _mixed_lot(self, config) -> List[DeviceReportRequest]:
        good = _lot_requests(config, size=2)
        bad = replace(
            good[0],
            pll=replace(good[0].pll, name="exploder"),
            stimulus=ExplodingStimulus(1000.0, 1.0),
        )
        return [good[0], bad, good[1]]

    def test_serial_stub_keeps_lot_going(self, fast_bist_config):
        # Under auto the bad device must not abort the lot's farm pass.
        lot = self._mixed_lot(fast_bist_config)
        for engine in ("scalar", "auto"):
            reports = batch_device_reports(lot, engine=engine)
            assert len(reports) == 3, engine
            assert "FAIL (sweep aborted)" in reports[1]
            assert "RuntimeError" in reports[1]
            assert "stimulus generator died" in reports[1]
            for i in (0, 2):
                assert reports[i].startswith(
                    f"# BIST report — {lot[i].pll.name}"
                )
                assert "sweep aborted" not in reports[i]

    def test_pool_stub_keeps_lot_going(self, fast_bist_config):
        # The same foreign exception inside a pool worker must stub the
        # one device, not kill the worker's whole chunk (or the map).
        lot = self._mixed_lot(fast_bist_config)
        serial = batch_device_reports(lot, engine="scalar")
        for engine in ("scalar", "auto"):
            pooled = batch_device_reports(lot, n_workers=2, engine=engine)
            assert pooled == serial, engine


def _truncated_outcomes(frequencies_hz) -> List[ToneOutcome]:
    """A misbehaving tone source: drops the last outcome of the sweep."""
    return [
        ToneOutcome(f_mod=f, error="short-changed")
        for f in list(frequencies_hz)[:-1]
    ]


def _perturbed_reference_outcomes(frequencies_hz) -> List[ToneOutcome]:
    """Outcomes whose reference f_mod rounded in transport.

    The returned frequency differs from ``plan.reference_frequency`` in
    the last bits — exactly what a lossy transport produces — so a
    monitor matching the reference by float equality would mis-file a
    dead reference as an ordinary failed tone.
    """
    freqs = list(frequencies_hz)
    outcomes = [
        ToneOutcome(f_mod=freqs[0] * (1.0 + 1e-12), error="dead tone")
    ]
    outcomes += [ToneOutcome(f_mod=f, error="dead tone") for f in freqs[1:]]
    return outcomes


class TestMonitorExecutorContract:
    def test_truncated_outcome_list_raises(
        self, pll_linear, sine_stimulus, fast_bist_config
    ):
        monitor = TransferFunctionMonitor(
            pll_linear, sine_stimulus, fast_bist_config
        )
        plan = SweepPlan((4.0, 8.0, 16.0))
        with pytest.raises(MeasurementError, match="2 outcomes for 3"):
            monitor.evaluate_outcomes(
                plan, _truncated_outcomes(plan.frequencies_hz)
            )

    def test_reference_identified_by_index_not_float_equality(
        self, pll_linear, sine_stimulus, fast_bist_config
    ):
        monitor = TransferFunctionMonitor(
            pll_linear, sine_stimulus, fast_bist_config
        )
        plan = SweepPlan((4.0, 8.0))
        with pytest.raises(MeasurementError, match="in-band reference tone"):
            monitor.evaluate_outcomes(
                plan, _perturbed_reference_outcomes(plan.frequencies_hz)
            )


class TestPoolExecutorOutcomes:
    def test_worker_crash_propagates(self, pll_linear, fast_bist_config):
        executor = ProcessPoolSweepExecutor(2)
        with pytest.raises(RuntimeError, match="stimulus generator died"):
            executor.run_tones(
                pll_linear,
                ExplodingStimulus(1000.0, 1.0),
                fast_bist_config,
                TONES,
            )

    def test_successful_sweep_has_no_failed_outcomes(
        self, pll_linear, fast_bist_config
    ):
        outcomes = ProcessPoolSweepExecutor(2).run_tones(
            pll_linear,
            paper_stimulus("multitone"),
            fast_bist_config,
            TONES,
        )
        assert all(not o.failed for o in outcomes)

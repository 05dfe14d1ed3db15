"""Serial-vs-parallel sweep equivalence and executor plumbing.

The guarantee of the executor layer is *bit-identical* results: a sweep
fanned over a process pool must reproduce the serial sweep
field-for-field — measurements, failure reasons and ordering — because
every tone builds its own simulator from the same immutable inputs.
Pool tests patch the visible core count so ``executor_for`` forms a
real pool even on a 1-core runner.
"""

from __future__ import annotations

import warnings
from concurrent.futures import Future
from dataclasses import replace

import pytest

from repro.core import (
    ParallelFallbackWarning,
    ProcessPoolSweepExecutor,
    SerialSweepExecutor,
    SweepAborted,
    SweepPlan,
    ToneOutcome,
    TransferFunctionMonitor,
    executor_for,
)
from repro.core.executor import REPRO_NUM_WORKERS_ENV
from repro.core.warm import ToneMeasurementCache
import repro.core.executor as executor_module
from repro.errors import ConfigurationError, MeasurementError
from repro.presets import paper_pll, paper_stimulus
from repro.reporting import DeviceReportRequest, batch_device_reports

# fn is ~55 Hz: the low tones measure cleanly, while at 2 kHz the loop
# attenuates the modulation so hard the peak detector starves — a
# genuine in-worker MeasurementError, not a monkeypatched one (pool
# workers run in separate processes where monkeypatching can't reach).
PASSING_TONES = (10.0, 55.0)
STARVING_TONE = 2000.0


@pytest.fixture(scope="module")
def monitor(fast_bist_config):
    return TransferFunctionMonitor(
        paper_pll(), paper_stimulus("multitone"), fast_bist_config
    )


@pytest.fixture(scope="module")
def mixed_plan():
    return SweepPlan(PASSING_TONES + (STARVING_TONE,))


@pytest.fixture(scope="module")
def serial_result(monitor, mixed_plan):
    return monitor.run(mixed_plan)


@pytest.fixture(scope="module")
def parallel_result(monitor, mixed_plan):
    # Patching the visible cores lets executor_for form the pool, so the
    # process boundary is genuinely crossed even on a 1-core runner.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(executor_module, "_visible_cpu_count", lambda: 4)
        return monitor.run(mixed_plan, n_workers=4, engine="scalar")


def _assert_measurements_identical(a, b):
    assert a.f_mod == b.f_mod
    assert a.held.vco_frequency_hz == b.held.vco_frequency_hz
    assert a.phase_count.pulses == b.phase_count.pulses
    assert a.phase_count.t_start == b.phase_count.t_start
    assert a.phase_count.t_stop == b.phase_count.t_stop
    assert a.f_out_nominal == b.f_out_nominal
    assert a.arm_time == b.arm_time
    assert a.peak_event.time == b.peak_event.time
    assert a.delta_f_hz == b.delta_f_hz
    assert a.phase_delay_deg == b.phase_delay_deg


class TestSerialParallelEquivalence:
    def test_same_tone_count_and_order(self, serial_result, parallel_result):
        assert [m.f_mod for m in serial_result.measurements] == \
            [m.f_mod for m in parallel_result.measurements]

    def test_measurements_bit_identical(self, serial_result, parallel_result):
        for a, b in zip(serial_result.measurements,
                        parallel_result.measurements):
            _assert_measurements_identical(a, b)

    def test_response_bit_identical(self, serial_result, parallel_result):
        assert list(serial_result.response.magnitude_db) == \
            list(parallel_result.response.magnitude_db)
        assert list(serial_result.response.phase_deg) == \
            list(parallel_result.response.phase_deg)

    def test_failed_tones_identical(self, serial_result, parallel_result):
        assert serial_result.failed_tones == parallel_result.failed_tones

    def test_failure_captured_across_process_boundary(self, parallel_result):
        assert STARVING_TONE in parallel_result.failed_tones
        assert "peak detector" in parallel_result.failed_tones[STARVING_TONE]
        assert not parallel_result.complete


class TestReferenceToneFailure:
    def test_same_exception_both_ways(self, monitor, monkeypatch):
        # Both tones starve, so the *reference* tone fails — which must
        # raise, with the same message, whichever executor ran it.
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 2)
        plan = SweepPlan((STARVING_TONE, 2.0 * STARVING_TONE))
        with pytest.raises(MeasurementError) as serial_exc:
            monitor.run(plan)
        with pytest.raises(MeasurementError) as parallel_exc:
            monitor.run(plan, n_workers=2, engine="scalar")
        assert str(serial_exc.value) == str(parallel_exc.value)
        assert "in-band reference tone" in str(serial_exc.value)


class TestExecutorPlumbing:
    def test_factory_serial(self):
        assert isinstance(executor_for(1), SerialSweepExecutor)

    def test_factory_pool(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 8)
        ex = executor_for(4)
        assert isinstance(ex, ProcessPoolSweepExecutor)
        assert ex.n_workers == 4

    def test_factory_caps_at_visible_cores(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 3)
        ex = executor_for(16)
        assert isinstance(ex, ProcessPoolSweepExecutor)
        assert ex.n_workers == 3

    def test_factory_single_core_falls_back_with_warning(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 1)
        with pytest.warns(ParallelFallbackWarning, match="1 CPU"):
            ex = executor_for(8)
        assert isinstance(ex, SerialSweepExecutor)

    def test_factory_too_few_tones_falls_back(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 8)
        with pytest.warns(ParallelFallbackWarning, match="tone"):
            ex = executor_for(8, n_tones=1)
        assert isinstance(ex, SerialSweepExecutor)

    def test_factory_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            executor_for(0)
        with pytest.raises(ConfigurationError):
            ProcessPoolSweepExecutor(-1)

    def test_pool_wider_than_plan(self, monitor, monkeypatch):
        # min(n_workers, tones) keeps the pool from spawning idle workers.
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 16)
        plan = SweepPlan(PASSING_TONES)
        result = monitor.run(plan, n_workers=16, engine="scalar")
        assert len(result.measurements) == len(PASSING_TONES)

    def test_outcome_failed_property(self):
        assert ToneOutcome(f_mod=1.0, error="boom").failed
        assert not ToneOutcome(f_mod=1.0).failed


class TestEnvWorkerOverride:
    def test_override_wins_over_argument(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 8)
        monkeypatch.setenv(REPRO_NUM_WORKERS_ENV, "2")
        ex = executor_for(6)
        assert isinstance(ex, ProcessPoolSweepExecutor)
        assert ex.n_workers == 2

    def test_override_to_one_selects_serial(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 8)
        monkeypatch.setenv(REPRO_NUM_WORKERS_ENV, "1")
        assert isinstance(executor_for(6), SerialSweepExecutor)

    def test_blank_override_is_ignored(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 8)
        monkeypatch.setenv(REPRO_NUM_WORKERS_ENV, "  ")
        ex = executor_for(4)
        assert isinstance(ex, ProcessPoolSweepExecutor)
        assert ex.n_workers == 4

    @pytest.mark.parametrize("value", ["0", "-3", "two", "1.5"])
    def test_unusable_override_raises(self, monkeypatch, value):
        monkeypatch.setenv(REPRO_NUM_WORKERS_ENV, value)
        with pytest.raises(ConfigurationError, match=REPRO_NUM_WORKERS_ENV):
            executor_for(4)


class TestFallbackWarnsOnce:
    def test_second_fallback_is_silent(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 1)
        with pytest.warns(ParallelFallbackWarning):
            executor_for(8)
        # Production emits the diagnostic once per process; a sweep over
        # a 200-die lot must not print 200 copies.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert isinstance(executor_for(8), SerialSweepExecutor)

    def test_reset_hook_rearms(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 1)
        with pytest.warns(ParallelFallbackWarning):
            executor_for(8)
        executor_module._reset_fallback_warning()
        with pytest.warns(ParallelFallbackWarning):
            executor_for(8)


class TestStreamingCallbacks:
    def test_serial_streams_every_tone_in_plan_order(
        self, monitor, mixed_plan, serial_result
    ):
        seen = []
        result = monitor.run(
            mixed_plan,
            on_outcome=lambda i, out: seen.append((i, out.f_mod, out.failed)),
        )
        assert [i for i, _, _ in seen] == list(range(len(seen)))
        assert [f for _, f, _ in seen] == list(mixed_plan.frequencies_hz)
        # The starving tone streams as a failed outcome, not an exception.
        assert (2, STARVING_TONE, True) in seen
        for a, b in zip(serial_result.measurements, result.measurements):
            _assert_measurements_identical(a, b)

    def test_pool_streams_every_tone(self, monitor, mixed_plan, monkeypatch):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 4)
        seen = []
        monitor.run(
            mixed_plan,
            n_workers=4,
            engine="scalar",
            on_outcome=lambda i, out: seen.append((i, out.f_mod)),
        )
        # Tones complete in any order, but the monitor releases every
        # tone exactly once, with its own plan index, in plan order.
        freqs = list(mixed_plan.frequencies_hz)
        assert [i for i, _ in seen] == list(range(len(freqs)))
        assert [f for _, f in seen] == freqs

    def test_callback_abort_propagates_serial(self, monitor, mixed_plan):
        def bail(index, outcome):
            raise SweepAborted("stop right there")

        with pytest.raises(SweepAborted, match="stop right there"):
            monitor.run(mixed_plan, on_outcome=bail)

    def test_callback_abort_propagates_pool(
        self, monitor, mixed_plan, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 4)

        def bail(index, outcome):
            raise SweepAborted("stop right there")

        with pytest.raises(SweepAborted, match="stop right there"):
            monitor.run(
                mixed_plan, n_workers=4, engine="scalar", on_outcome=bail
            )


class TestMonitorMeasurementTier:
    """The monitor answers every tone its measurement cache holds and
    hands only the misses to an executor, whatever ``n_workers`` is."""

    def test_auto_farm_answers_without_the_pool(
        self, fast_bist_config, monkeypatch
    ):
        plan = SweepPlan(PASSING_TONES)
        args = (paper_pll(), paper_stimulus("multitone"), fast_bist_config)
        scalar = TransferFunctionMonitor(*args).run(plan, engine="scalar")
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 2)

        def no_pool(*args, **kwargs):
            raise AssertionError("the farm answers every tone of this plan")

        monkeypatch.setattr(ProcessPoolSweepExecutor, "run_tones", no_pool)
        auto = TransferFunctionMonitor(*args).run(plan, n_workers=2)
        assert len(auto.measurements) == len(scalar.measurements)
        for a, b in zip(scalar.measurements, auto.measurements):
            _assert_measurements_identical(a, b)
        assert list(auto.response.magnitude_db) == \
            list(scalar.response.magnitude_db)
        assert list(auto.response.phase_deg) == \
            list(scalar.response.phase_deg)

    def test_pool_outcomes_publish_to_the_measurement_cache(
        self, fast_bist_config, monkeypatch
    ):
        monkeypatch.setattr(executor_module, "_visible_cpu_count", lambda: 2)
        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        plan = SweepPlan(PASSING_TONES)
        dedup = ToneMeasurementCache()
        first = TransferFunctionMonitor(pll, stimulus, fast_bist_config).run(
            plan, n_workers=2, engine="scalar", measurement_cache=dedup
        )
        assert dedup.stats == (0, len(PASSING_TONES))
        assert len(dedup) == len(PASSING_TONES)
        twin = TransferFunctionMonitor(
            replace(pll, name="same-physics-die"), stimulus, fast_bist_config
        )
        second = twin.run(
            plan, n_workers=2, engine="scalar", measurement_cache=dedup
        )
        assert dedup.stats == (len(PASSING_TONES), len(PASSING_TONES))
        assert second.measurements == first.measurements
        assert all(m.timing.warm for m in second.measurements)


class TestPooledWarmCache:
    """Pickled pool returns carry everything a serial run produces —
    measurements, timing, warm flags — and no warm state reaches the
    pool: its workers settle every tone cold."""

    def test_pickled_outcomes_match_serial_with_timing(self, fast_bist_config):
        args = (paper_pll(), paper_stimulus("multitone"), fast_bist_config,
                PASSING_TONES)
        serial = SerialSweepExecutor().run_tones(*args)
        pooled = ProcessPoolSweepExecutor(2).run_tones(*args)
        assert [o.measurement for o in pooled] == [
            o.measurement for o in serial
        ]
        for outcome in pooled:
            assert outcome.measurement.timing is not None
            assert outcome.measurement.timing.warm is False


class TestPoolDispatch:
    """The pool gets one single-tone task per tone, submitted in the
    order given, so an idle worker always takes the most expensive tone
    left."""

    def test_one_task_per_tone_in_the_order_given(
        self, fast_bist_config, monkeypatch
    ):
        submitted = []

        class RecordingPool:
            # Runs every task synchronously at submit time, in-process.
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def submit(self, fn, payload):
                submitted.append(payload)
                future = Future()
                future.set_result(fn(payload))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor",
                            RecordingPool)
        args = (paper_pll(), paper_stimulus("multitone"), fast_bist_config)
        tones = PASSING_TONES + (STARVING_TONE,)
        calls = []
        pooled = ProcessPoolSweepExecutor(2).run_tones(
            *args, tones,
            on_outcome=lambda index, outcome: calls.append((index, outcome)),
        )
        assert submitted == [args + (f_mod,) for f_mod in tones]
        assert sorted(index for index, _ in calls) == list(range(len(tones)))
        assert all(outcome is pooled[index] for index, outcome in calls)
        assert pooled == SerialSweepExecutor().run_tones(*args, tones)
        assert pooled[-1].failed


class TestBatchDeviceReports:
    def test_serial_parallel_byte_identical(self, fast_bist_config):
        plan = SweepPlan(PASSING_TONES)
        requests = [
            DeviceReportRequest(
                pll=paper_pll(),
                stimulus=paper_stimulus("multitone"),
                plan=plan,
                config=fast_bist_config,
            )
            for _ in range(2)
        ]
        serial = batch_device_reports(requests, n_workers=1)
        parallel = batch_device_reports(requests, n_workers=2)
        assert serial == parallel
        assert all(r.startswith("# BIST report") for r in serial)

    def test_dead_reference_yields_failure_stub(self, fast_bist_config):
        plan = SweepPlan((STARVING_TONE, 2.0 * STARVING_TONE))
        request = DeviceReportRequest(
            pll=paper_pll(),
            stimulus=paper_stimulus("multitone"),
            plan=plan,
            config=fast_bist_config,
        )
        (report,) = batch_device_reports([request])
        assert "FAIL (sweep aborted)" in report
        assert "in-band reference tone" in report

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            batch_device_reports([], n_workers=0)

"""Warm-start sweeps: lock-state cache and memoisation.

Re-running a tone restores the cached settled snapshot
(``LockStateCache``) — results are **bit-identical** to the cold run
(the snapshot guarantee).
"""

from __future__ import annotations

import pytest

from repro.core import (
    LockStateCache,
    SweepPlan,
    ToneTestSequencer,
    TransferFunctionMonitor,
)
from repro.core.warm import BoundedCache, ToneMeasurementCache
from repro.errors import ConfigurationError


@pytest.fixture()
def sequencer(pll_linear, sine_stimulus, fast_bist_config):
    return ToneTestSequencer(
        pll_linear, sine_stimulus, fast_bist_config, cache=LockStateCache()
    )


def _assert_identical(a, b):
    assert a.held.vco_frequency_hz == b.held.vco_frequency_hz
    assert a.held.measurement.count == b.held.measurement.count
    assert a.phase_count.pulses == b.phase_count.pulses
    assert a.phase_count.t_start == b.phase_count.t_start
    assert a.phase_count.t_stop == b.phase_count.t_stop
    assert a.arm_time == b.arm_time
    assert a.peak_event.time == b.peak_event.time
    assert a.delta_f_hz == b.delta_f_hz
    assert a.phase_delay_deg == b.phase_delay_deg
    assert [t for __, t in a.stage_log] == [t for __, t in b.stage_log]


class TestCacheWarmRuns:
    def test_warm_rerun_bit_identical(self, sequencer):
        cold = sequencer.run(8.0)
        warm = sequencer.run(8.0)
        assert cold.timing is not None and not cold.timing.warm
        assert warm.timing is not None and warm.timing.warm
        _assert_identical(cold, warm)
        hits, misses = sequencer.cache.stats
        assert hits == 1 and misses == 1

    def test_warm_rerun_without_cache_is_cold(
        self, pll_linear, sine_stimulus, fast_bist_config
    ):
        sequencer = ToneTestSequencer(
            pll_linear, sine_stimulus, fast_bist_config
        )
        first = sequencer.run(8.0)
        second = sequencer.run(8.0)
        assert not first.timing.warm and not second.timing.warm
        _assert_identical(first, second)

    def test_fast_tones_bypass_cache(self, sequencer):
        # Above f_ref/8 there may be no PFD cycle between settle end and
        # arm, so such tones are never cached.
        f_fast = sequencer.pll.f_ref / 4.0
        sequencer.run(f_fast)
        sequencer.run(f_fast)
        hits, _misses = sequencer.cache.stats
        assert hits == 0
        assert len(sequencer.cache) == 0

    def test_monitor_measure_tone_warms_up(
        self, pll_linear, sine_stimulus, fast_bist_config
    ):
        monitor = TransferFunctionMonitor(
            pll_linear, sine_stimulus, fast_bist_config
        )
        cold = monitor.measure_tone(8.0)
        warm = monitor.measure_tone(8.0)
        assert warm.timing.warm and not cold.timing.warm
        _assert_identical(cold, warm)

    def test_repeated_sweep_is_served_warm(
        self, pll_linear, sine_stimulus, fast_bist_config
    ):
        monitor = TransferFunctionMonitor(
            pll_linear, sine_stimulus, fast_bist_config
        )
        plan = SweepPlan((4.0, 8.0, 16.0))
        first = monitor.run(plan, engine="scalar")
        second = monitor.run(plan, engine="scalar")
        assert all(not m.timing.warm for m in first.measurements)
        assert all(m.timing.warm for m in second.measurements)
        for a, b in zip(first.measurements, second.measurements):
            _assert_identical(a, b)


class TestLockStateCacheUnit:
    """The LRU contract every warm tier shares; the subclasses below run
    it on the measurement cache and on the bare :class:`BoundedCache`
    behind the nominal-frequency memo."""

    cls = LockStateCache

    def make(self, max_entries=256):
        return self.cls(max_entries=max_entries)

    def test_lru_eviction(self):
        cache = self.make(max_entries=2)
        cache.put("a", "snap-a")  # type: ignore[arg-type]
        cache.put("b", "snap-b")  # type: ignore[arg-type]
        assert cache.get("a") == "snap-a"  # refresh a
        cache.put("c", "snap-c")  # type: ignore[arg-type]
        assert cache.get("b") is None  # b was LRU
        assert cache.get("a") == "snap-a"
        assert cache.get("c") == "snap-c"
        assert len(cache) == 2

    def test_eviction_order_follows_recency(self):
        cache = self.make(max_entries=3)
        for key in "abc":
            cache.put(key, key.upper())
        cache.get("a")  # recency is now b, c, a
        cache.put("d", "D")
        cache.put("e", "E")
        assert [key for key, __ in cache.export()] == ["a", "d", "e"]
        assert cache.stats_detail["evictions"] == 2

    def test_peek_counts_nothing_and_keeps_recency(self):
        cache = self.make(max_entries=2)
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.peek("a") == "A"
        assert cache.peek("missing") is None
        assert cache.stats == (0, 0)
        cache.put("c", "C")  # "a" stayed least recent, so it goes
        assert "a" not in cache

    def test_stats_and_clear(self):
        cache = self.make()
        assert cache.get("missing") is None
        cache.put("k", "v")  # type: ignore[arg-type]
        assert cache.get("k") == "v"
        assert cache.stats == (1, 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats == (0, 0)

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            self.make(max_entries=0)

    def test_contains_does_not_touch_counters(self):
        cache = self.make()
        cache.put("k", "v")  # type: ignore[arg-type]
        assert "k" in cache
        assert "missing" not in cache
        assert cache.stats == (0, 0)

    def test_export_merge_roundtrip(self):
        cache = self.make()
        cache.put("a", "snap-a")  # type: ignore[arg-type]
        cache.put("b", "snap-b")  # type: ignore[arg-type]
        cache.get("a")  # refresh: LRU order is now b, a
        exported = cache.export()
        assert [key for key, __ in exported] == ["b", "a"]
        clone = self.make()
        assert clone.merge(exported) == 2
        # Merging an export into an empty cache reproduces contents and
        # recency order; counters describe history and do not travel.
        assert clone.export() == exported
        assert clone.stats == (0, 0)
        assert clone.stats_detail["merged"] == 2

    def test_merge_existing_entries_win(self):
        cache = self.make()
        cache.put("k", "incumbent")  # type: ignore[arg-type]
        added = cache.merge((("k", "challenger"), ("new", "snap")))
        assert added == 1
        assert cache.get("k") == "incumbent"
        assert cache.get("new") == "snap"

    def test_merge_is_idempotent(self):
        cache = self.make()
        entries = (("a", "1"), ("b", "2"))
        assert cache.merge(entries) == 2
        assert cache.merge(entries) == 0
        assert cache.stats_detail["merged"] == 2
        assert len(cache) == 2

    def test_merge_respects_capacity_and_counts_evictions(self):
        cache = self.make(max_entries=2)
        added = cache.merge((("a", "1"), ("b", "2"), ("c", "3")))
        assert added == 3
        assert len(cache) == 2
        assert "a" not in cache and "b" in cache and "c" in cache
        detail = cache.stats_detail
        assert detail["evictions"] == 1
        assert detail["merged"] == 3
        assert detail["entries"] == 2
        assert detail["capacity"] == 2

    def test_clear_resets_all_counters(self):
        cache = self.make(max_entries=1)
        cache.merge((("a", "1"), ("b", "2")))  # one merge eviction
        cache.get("b")
        cache.get("missing")
        assert cache.stats_detail["evictions"] == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.stats_detail == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "merged": 0,
            "entries": 0,
            "capacity": 1,
        }

    def test_repr_names_the_class(self):
        assert repr(self.make()).startswith(f"{self.cls.__name__}(")


class TestToneMeasurementCacheUnit(TestLockStateCacheUnit):
    cls = ToneMeasurementCache


class TestBoundedCacheUnit(TestLockStateCacheUnit):
    cls = BoundedCache


class TestNominalBaselineMemoised:
    def test_same_value_and_cached(
        self, pll_linear, sine_stimulus, fast_bist_config
    ):
        from repro.core.sequencer import _NOMINAL_FREQUENCY_MEMO

        _NOMINAL_FREQUENCY_MEMO.clear()
        sequencer = ToneTestSequencer(
            pll_linear, sine_stimulus, fast_bist_config
        )
        first = sequencer.measure_nominal_frequency()
        second = sequencer.measure_nominal_frequency()
        assert first == second
        assert [value for __, value in _NOMINAL_FREQUENCY_MEMO.export()] \
            == [first]

    def test_distinct_gates_distinct_entries(
        self, pll_linear, sine_stimulus, fast_bist_config
    ):
        from repro.core.sequencer import _NOMINAL_FREQUENCY_MEMO

        _NOMINAL_FREQUENCY_MEMO.clear()
        f128 = ToneTestSequencer(
            pll_linear, sine_stimulus, fast_bist_config
        ).measure_nominal_frequency(128)
        f64 = ToneTestSequencer(
            pll_linear, sine_stimulus, fast_bist_config
        ).measure_nominal_frequency(64)
        # Distinct gate widths key apart; a fresh same-physics sequencer
        # does not add entries of its own.
        assert len(_NOMINAL_FREQUENCY_MEMO) == 2
        assert f128 == pytest.approx(f64, rel=1e-6)

    def test_monitor_delegates(self, pll_linear, sine_stimulus, fast_bist_config):
        monitor = TransferFunctionMonitor(
            pll_linear, sine_stimulus, fast_bist_config
        )
        value = monitor.measure_nominal_frequency()
        assert value == pytest.approx(
            pll_linear.f_out_nominal, rel=1e-3
        )
        assert monitor.measure_nominal_frequency() == value

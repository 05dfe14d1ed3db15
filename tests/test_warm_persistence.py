"""Disk persistence of the warm tier: finished tone measurements.

The contract under test: ``save → load`` reproduces the cache exactly
(entries, recency order, capacity), ``save → load → save`` is
byte-identical (pinned pickle protocol), and a loaded cache answers a
sweep warm, bit-identical to the sweep that filled it.  Unreadable files
raise :class:`~repro.errors.CachePersistenceError`; stale *entries*
inside a readable file are skipped, never fatal.
"""

from __future__ import annotations

import os
import pickle
import threading

import pytest

from repro.core import SweepPlan, TransferFunctionMonitor
from repro.core.warm import (
    CACHE_FORMAT_MAGIC,
    CACHE_FORMAT_VERSION,
    BoundedCache,
    ToneMeasurementCache,
)
from repro.errors import CachePersistenceError
from repro.presets import paper_pll, paper_stimulus

PLAN = SweepPlan((10.0, 55.0))


@pytest.fixture(scope="module")
def populated(fast_bist_config):
    """A cache filled by a real two-tone sweep, plus that sweep's result."""
    cache = ToneMeasurementCache(max_entries=64)
    monitor = TransferFunctionMonitor(
        paper_pll(), paper_stimulus("multitone"), fast_bist_config,
    )
    result = monitor.run(PLAN, engine="scalar", measurement_cache=cache)
    return cache, result


@pytest.fixture(scope="module")
def measured(fast_bist_config):
    """A measurement cache filled by a real two-tone sweep."""
    cache = ToneMeasurementCache(max_entries=64)
    TransferFunctionMonitor(
        paper_pll(), paper_stimulus("multitone"), fast_bist_config,
    ).run(PLAN, engine="scalar", measurement_cache=cache)
    assert len(cache) == len(PLAN.frequencies_hz)
    return cache


class TestRoundTrip:
    def test_entries_order_and_capacity_survive(self, populated, tmp_path):
        cache, _ = populated
        path = tmp_path / "warm.cache"
        saved = cache.save(path)
        assert saved == len(cache) == len(PLAN.frequencies_hz)
        loaded = ToneMeasurementCache.load(path)
        assert loaded.max_entries == cache.max_entries
        assert loaded.export() == cache.export()
        assert loaded.stale_entries_skipped == 0

    def test_save_load_save_byte_identical(self, populated, tmp_path):
        cache, _ = populated
        first = tmp_path / "first.cache"
        second = tmp_path / "second.cache"
        cache.save(first)
        ToneMeasurementCache.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_no_temporary_file_litter(self, populated, tmp_path):
        cache, _ = populated
        cache.save(tmp_path / "warm.cache")
        assert [p.name for p in tmp_path.iterdir()] == ["warm.cache"]

    def test_counters_not_persisted(self, populated, tmp_path):
        cache, _ = populated
        path = tmp_path / "warm.cache"
        cache.save(path)
        loaded = ToneMeasurementCache.load(path)
        assert loaded.stats == (0, 0)

    def test_capacity_override(self, populated, tmp_path):
        cache, _ = populated
        path = tmp_path / "warm.cache"
        cache.save(path)
        loaded = ToneMeasurementCache.load(path, max_entries=512)
        assert loaded.max_entries == 512
        assert len(loaded) == len(cache)


class TestConcurrentWriters:
    def test_save_leaves_other_writers_tmp_alone(self, populated, tmp_path):
        # Regression: the temporary used to be ``{path}.tmp.{pid}`` —
        # unique per *process*, not per call — so a second writer in
        # the same process (exactly what sharded anti-entropy spills
        # create) opened the first writer's in-flight temporary,
        # truncated its bytes, and the loser's cleanup unlinked the
        # winner's file.  Simulate the other writer's in-flight tmp at
        # the old colliding name: save() must neither write through it
        # nor remove it.
        cache, _ = populated
        target = tmp_path / "spill.cache"
        in_flight = tmp_path / f"spill.cache.tmp.{os.getpid()}"
        in_flight.write_bytes(b"another writer's half-spilled cache")
        cache.save(target)
        assert in_flight.read_bytes() == \
            b"another writer's half-spilled cache"
        assert ToneMeasurementCache.load(target).export() == cache.export()

    def test_parallel_saves_to_one_path_stay_loadable(
        self, populated, tmp_path
    ):
        # Many writers, one spill path — the sharded service's worst
        # case.  Every interleaving must leave a loadable file (some
        # complete writer's contents), raise nothing, and litter no
        # temporaries.
        cache, _ = populated
        target = tmp_path / "spill.cache"
        errors = []

        def spill():
            try:
                for _ in range(10):
                    cache.save(target)
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(exc)

        threads = [threading.Thread(target=spill) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert [p.name for p in tmp_path.iterdir()] == ["spill.cache"]
        assert ToneMeasurementCache.load(target).export() == cache.export()


class TestLoadGuards:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CachePersistenceError, match="no persisted"):
            ToneMeasurementCache.load(tmp_path / "absent.cache")

    def test_garbage_file_raises(self, tmp_path):
        path = tmp_path / "garbage.cache"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(CachePersistenceError, match="cannot read"):
            ToneMeasurementCache.load(path)

    def test_foreign_pickle_raises(self, tmp_path):
        path = tmp_path / "foreign.cache"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(CachePersistenceError, match="not a persisted"):
            ToneMeasurementCache.load(path)

    def test_newer_version_raises(self, populated, tmp_path):
        cache, _ = populated
        path = tmp_path / "future.cache"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = CACHE_FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(CachePersistenceError, match="newer|reads up to"):
            ToneMeasurementCache.load(path)

    def test_unreadable_version_raises(self, tmp_path):
        path = tmp_path / "vbad.cache"
        path.write_bytes(pickle.dumps({
            "format": CACHE_FORMAT_MAGIC, "version": "one", "entries": (),
        }))
        with pytest.raises(CachePersistenceError, match="version"):
            ToneMeasurementCache.load(path)

    @pytest.mark.parametrize("bad_capacity", [0, -3, True, False, "lots"])
    def test_malformed_persisted_capacity_is_clamped(
        self, populated, tmp_path, bad_capacity
    ):
        # Regression: a persisted ``max_entries`` of 0, a negative int,
        # or a bool used to be fed straight into the constructor, which
        # raised ConfigurationError — the wrong exception type for a
        # load (the documented contract is CachePersistenceError for
        # unreadable files, nothing for salvageable ones), and a
        # startup crash for SweepJobService._load_or_new_cache, which
        # only catches CachePersistenceError.
        cache, _ = populated
        path = tmp_path / "badcap.cache"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["max_entries"] = bad_capacity
        path.write_bytes(pickle.dumps(payload))
        loaded = ToneMeasurementCache.load(path)
        # The tier's constructor default.
        assert loaded.max_entries == ToneMeasurementCache.DEFAULT_MAX_ENTRIES
        assert loaded.export() == cache.export()  # entries survive

    def test_malformed_capacity_does_not_crash_service_start(
        self, measured, tmp_path
    ):
        from repro.service import SweepJobService

        cache = measured
        path = tmp_path / "badcap.cache"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["max_entries"] = 0
        path.write_bytes(pickle.dumps(payload))
        service = SweepJobService(cache_path=path)
        # Better than the contract asks for: the spill is salvageable,
        # so the service starts *warm*, not merely cold.
        assert len(service.cache) == len(cache)

    def test_explicit_capacity_override_ignores_persisted_junk(
        self, populated, tmp_path
    ):
        cache, _ = populated
        path = tmp_path / "badcap.cache"
        cache.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["max_entries"] = -1
        path.write_bytes(pickle.dumps(payload))
        loaded = ToneMeasurementCache.load(path, max_entries=32)
        assert loaded.max_entries == 32

    def test_stale_entries_skipped_not_fatal(self, populated, tmp_path):
        cache, _ = populated
        healthy = cache.export()
        key, measurement = healthy[0]
        tampered = ToneMeasurementCache(max_entries=64)
        tampered.merge(healthy)
        # A key that is not a signature-led tuple could never be looked
        # up — must be dropped.
        tampered.put("not-a-tuple-key", measurement)
        # A value that is neither a measurement nor an error text.
        tampered.put(key[:1] + ("junk-entry",), 42)
        path = tmp_path / "tampered.cache"
        tampered.save(path)
        loaded = ToneMeasurementCache.load(path)
        assert loaded.stale_entries_skipped == 2
        assert loaded.export() == healthy


class TestCorruptSpill:
    """A spill corrupted on disk loads exactly what was saved or raises
    :class:`CachePersistenceError`: never another exception, and never
    entries that differ from the saved ones (a flipped control voltage
    answered warm would be reported as the die's physics)."""

    @staticmethod
    def _flipped(data, offset):
        bad = bytearray(data)
        bad[offset] ^= 0x01
        return bytes(bad)

    def test_every_single_byte_flip_is_caught(self, populated, tmp_path):
        cache, _ = populated
        path = tmp_path / "spill.cache"
        cache.save(path)
        data = path.read_bytes()
        saved = cache.export()
        for offset in range(len(data)):
            path.write_bytes(self._flipped(data, offset))
            try:
                loaded = ToneMeasurementCache.load(path)
            except CachePersistenceError:
                continue
            assert loaded.export() == saved, f"byte {offset} flipped"

    def test_service_starts_cold_on_corrupt_spill(self, measured, tmp_path):
        from repro.service import SweepJobService

        cache = measured
        path = tmp_path / "spill.cache"
        cache.save(path)
        data = path.read_bytes()
        saved = cache.export()
        for offset in range(len(data)):
            path.write_bytes(self._flipped(data, offset))
            service = SweepJobService(cache_path=path)
            assert service.cache.export() in (saved, ()), \
                f"byte {offset} flipped"

    def test_version_1_spill_still_loads(self, populated, tmp_path):
        cache, _ = populated
        path = tmp_path / "v1.cache"
        path.write_bytes(pickle.dumps({
            "format": CACHE_FORMAT_MAGIC,
            "version": 1,
            "max_entries": cache.max_entries,
            "entries": cache.export(),
        }, protocol=4))
        loaded = ToneMeasurementCache.load(path)
        assert loaded.export() == cache.export()
        assert loaded.max_entries == cache.max_entries


class TestMeasurementSpill:
    """The service's persisted tier: finished tone measurements."""

    def test_round_trip(self, measured, tmp_path):
        first = tmp_path / "first.cache"
        second = tmp_path / "second.cache"
        assert measured.save(first) == len(measured)
        loaded = ToneMeasurementCache.load(first)
        assert loaded.export() == measured.export()
        assert loaded.max_entries == measured.max_entries
        assert loaded.stale_entries_skipped == 0
        loaded.save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_malformed_capacity_falls_back_to_the_tier_default(
        self, measured, tmp_path
    ):
        path = tmp_path / "badcap.cache"
        measured.save(path)
        payload = pickle.loads(path.read_bytes())
        payload["max_entries"] = 0
        path.write_bytes(pickle.dumps(payload))
        loaded = ToneMeasurementCache.load(path)
        assert loaded.max_entries == ToneMeasurementCache.DEFAULT_MAX_ENTRIES
        assert loaded.export() == measured.export()

    def test_every_truncation_loads_or_starts_the_service_cold(
        self, measured, tmp_path
    ):
        from repro.service import SweepJobService

        path = tmp_path / "spill.cache"
        measured.save(path)
        data = path.read_bytes()
        saved = measured.export()
        for offset in range(len(data)):
            path.write_bytes(data[:offset])
            try:
                loaded = ToneMeasurementCache.load(path)
            except CachePersistenceError:
                expected = ()
            else:
                assert loaded.export() == saved, f"cut at byte {offset}"
                expected = saved
            service = SweepJobService(cache_path=path)
            assert service.cache.export() == expected, f"cut at byte {offset}"

    def test_snapshot_spill_skips_every_entry(self, fast_bist_config,
                                              tmp_path):
        # What an earlier release spilled at ``serve --cache``: settled
        # snapshots under settle keys, which the measurement tier
        # cannot serve.
        from repro.pll.simulator import PLLTransientSimulator
        from repro.service import SweepJobService

        pll = paper_pll()
        stimulus = paper_stimulus("multitone")
        snapshots = BoundedCache(max_entries=64)
        for f_mod in PLAN.frequencies_hz:
            sim = PLLTransientSimulator(
                pll, stimulus.make_source(f_mod, start_time=0.0),
                record="counters",
            )
            sim.run_until(fast_bist_config.settle_cycles / f_mod)
            snapshots.put(
                (pll.physics_signature(), stimulus.cache_key(), f_mod,
                 fast_bist_config.settle_cycles, "counters"),
                sim.snapshot(),
            )
        path = tmp_path / "snapshots.cache"
        snapshots.save(path)
        loaded = ToneMeasurementCache.load(path)
        assert len(loaded) == 0
        assert loaded.stale_entries_skipped == len(snapshots)
        assert len(SweepJobService(cache_path=path).cache) == 0


class TestWarmEquivalence:
    def test_loaded_cache_serves_warm_identical_sweep(
        self, populated, tmp_path, fast_bist_config
    ):
        cache, cold_result = populated
        path = tmp_path / "warm.cache"
        cache.save(path)
        loaded = ToneMeasurementCache.load(path)
        monitor = TransferFunctionMonitor(
            paper_pll(), paper_stimulus("multitone"), fast_bist_config,
        )
        warm_result = monitor.run(PLAN, engine="scalar",
                                  measurement_cache=loaded)
        hits, misses = loaded.stats
        assert hits == len(PLAN.frequencies_hz)
        assert misses == 0
        assert all(
            m.timing is not None and m.timing.warm
            for m in warm_result.measurements
        )
        assert warm_result.measurements == cold_result.measurements
        for a, b in zip(cold_result.measurements, warm_result.measurements):
            assert a.delta_f_hz == b.delta_f_hz
            assert a.phase_delay_deg == b.phase_delay_deg
            assert a.phase_count.pulses == b.phase_count.pulses

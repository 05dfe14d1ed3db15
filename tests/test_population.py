"""Population-scale yield screening: samplers, aggregates, engine, CLI.

The determinism contract under test everywhere: the same
:class:`~repro.pll.population.PopulationSpec` produces byte-identical
aggregate summaries across runs *and* across chunk sizes, because
sampling is index-addressed and aggregation state is order-independent
(integer bin counts, exact min/max).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequencer import (
    ToneTestSequencer,
    nominal_frequency_memo_stats,
    reset_nominal_frequency_memo,
)
from repro.core.warm import LockStateCache, warm_shipment
from repro.errors import ConfigurationError
from repro.pll.population import (
    COMPONENT_NAMES,
    PopulationAggregate,
    PopulationSpec,
    QuantileSketch,
    SampledDie,
    ToleranceSpec,
    corner_names,
    get_corner,
    resolve_chunk_size,
    sample_die,
    sample_dies,
    screen_population,
    wilson_interval,
)
from repro.reporting.device_report import (
    DeviceReportRequest,
    DeviceScreenOutcome,
    batch_device_reports,
    batch_device_screen,
)


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------
class TestSamplers:
    def test_corner_registry(self):
        assert corner_names() == ("cdr180", "table3")
        with pytest.raises(ConfigurationError):
            get_corner("65nm")

    def test_index_addressed_determinism(self):
        spec = PopulationSpec(corner="table3", size=16, seed=7,
                              fault_rate=0.5)
        a = sample_die(spec, 11)
        b = sample_die(spec, 11)
        assert a.multipliers == b.multipliers
        assert a.fault == b.fault
        assert a.pll.physics_signature() == b.pll.physics_signature()
        # ...and independent of how many other dies were drawn first.
        streamed = {d.index: d for d in sample_dies(spec)}
        assert streamed[11].multipliers == a.multipliers
        assert streamed[11].fault == a.fault

    def test_different_indices_differ(self):
        spec = PopulationSpec(corner="table3", size=4, seed=1)
        dies = list(sample_dies(spec))
        assert len({d.multipliers for d in dies}) == len(dies)
        assert all(isinstance(d, SampledDie) for d in dies)
        assert all(len(d.multipliers) == len(COMPONENT_NAMES) for d in dies)

    def test_uniform_and_truncated_are_bounded(self):
        for dist, bound in (
            ("uniform", 0.1),
            ("truncated", 0.1 * 2.0),  # clip_sigmas * rel_sigma
        ):
            spec = PopulationSpec(
                corner="table3", size=64, seed=3,
                tolerance=ToleranceSpec(
                    distribution=dist, rel_sigma=0.1, clip_sigmas=2.0
                ),
            )
            for die in sample_dies(spec):
                for m in die.multipliers:
                    assert 1.0 - bound - 1e-12 <= m <= 1.0 + bound + 1e-12

    def test_fault_rate_extremes(self):
        all_faulted = PopulationSpec(corner="table3", size=12, seed=5,
                                     fault_rate=1.0)
        labels = {d.fault for d in sample_dies(all_faulted)}
        assert None not in labels
        known = {f.label for f in get_corner("table3").faults()}
        assert labels <= known
        clean = PopulationSpec(corner="table3", size=12, seed=5,
                               fault_rate=0.0)
        assert {d.fault for d in sample_dies(clean)} == {None}

    def test_faulted_die_name_carries_label(self):
        spec = PopulationSpec(corner="table3", size=6, seed=2,
                              fault_rate=1.0)
        die = sample_die(spec, 0)
        assert die.fault in die.pll.name

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            PopulationSpec(corner="table3", size=0)
        with pytest.raises(ConfigurationError):
            PopulationSpec(corner="table3", fault_rate=1.5)
        with pytest.raises(ConfigurationError):
            PopulationSpec(corner="table3", points=2)
        with pytest.raises(ConfigurationError):
            ToleranceSpec(distribution="cauchy")
        with pytest.raises(ConfigurationError):
            ToleranceSpec(rel_sigma=1.2)
        with pytest.raises(ConfigurationError):
            sample_die(PopulationSpec(corner="table3", size=4), 4)

    def test_corner_nominal_is_buildable_and_golden_sane(self):
        for key in corner_names():
            corner = get_corner(key)
            pll = corner.nominal()
            golden = corner.golden()
            assert golden.fn_hz > 0 and 0.0 < golden.zeta < 2.0
            plan = corner.plan(9)
            assert len(plan.frequencies_hz) == 9
            assert min(plan.frequencies_hz) < golden.fn_hz < max(
                plan.frequencies_hz
            )
            corner.config().validate_against_pfd(pll.pfd_reset_delay)


# ----------------------------------------------------------------------
# aggregates
# ----------------------------------------------------------------------
class TestWilson:
    def test_bounds_and_monotonicity(self):
        low, high = wilson_interval(8, 10)
        assert 0.0 <= low <= 0.8 <= high <= 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)
        assert wilson_interval(10, 10)[1] == 1.0
        assert wilson_interval(0, 10)[0] == 0.0

    def test_known_value(self):
        # Classic check: 5/10 at 95% -> approximately (0.237, 0.763).
        low, high = wilson_interval(5, 10)
        assert low == pytest.approx(0.2366, abs=2e-3)
        assert high == pytest.approx(0.7634, abs=2e-3)

    def test_invalid_counts(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 4)


_SKETCH_LO, _SKETCH_HI, _SKETCH_BINS = 1.0, 1000.0, 64
_BIN_RATIO = (_SKETCH_HI / _SKETCH_LO) ** (1.0 / _SKETCH_BINS)

_in_range_floats = st.floats(
    min_value=_SKETCH_LO * 1.001, max_value=_SKETCH_HI * 0.999,
    allow_nan=False, allow_infinity=False,
)


def _sketch_of(values):
    s = QuantileSketch(_SKETCH_LO, _SKETCH_HI, _SKETCH_BINS)
    for v in values:
        s.add(v)
    return s


def _sketch_state(s: QuantileSketch):
    return (s.counts, s.underflow, s.overflow, s.missing, s.vmin, s.vmax)


class TestQuantileSketch:
    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(_in_range_floats, min_size=1, max_size=200),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantile_within_rank_error_bound(self, values, q):
        """Sketch quantiles stay within one log-bin of the exact
        quantile of the retained population (the sketch's resolution
        guarantee)."""
        sketch = _sketch_of(values)
        exact = sorted(values)[int(q * (len(values) - 1))]
        estimate = sketch.quantile(q)
        assert estimate is not None
        ratio = estimate / exact
        assert 1.0 / (_BIN_RATIO * 1.0001) <= ratio <= _BIN_RATIO * 1.0001

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(_in_range_floats, max_size=60),
        b=st.lists(_in_range_floats, max_size=60),
        c=st.lists(_in_range_floats, max_size=60),
    )
    def test_merge_is_exactly_associative(self, a, b, c):
        left = _sketch_of(a).merge(_sketch_of(b).merge(_sketch_of(c)))
        right = _sketch_of(a).merge(_sketch_of(b)).merge(_sketch_of(c))
        streamed = _sketch_of(a + b + c)
        assert _sketch_state(left) == _sketch_state(right)
        assert _sketch_state(left) == _sketch_state(streamed)

    def test_missing_under_over_flow(self):
        s = _sketch_of([None, 0.5, 2000.0, 10.0])
        assert s.missing == 1
        assert s.underflow == 1
        assert s.overflow == 1
        assert s.count == 3
        assert s.vmin == 0.5 and s.vmax == 2000.0
        assert s.quantile(0.0) == 0.5
        assert s.quantile(1.0) == 2000.0

    def test_empty_quantile_is_none(self):
        s = QuantileSketch(1.0, 10.0, 4)
        assert s.quantile(0.5) is None
        assert s.to_dict()["count"] == 0

    def test_merge_grid_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch(1.0, 10.0, 4).merge(QuantileSketch(1.0, 10.0, 8))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            QuantileSketch(0.0, 10.0)
        with pytest.raises(ConfigurationError):
            QuantileSketch(10.0, 1.0)
        with pytest.raises(ConfigurationError):
            QuantileSketch(1.0, 10.0).quantile(1.5)


_outcomes = st.lists(
    st.tuples(
        st.booleans(),                      # passed
        st.booleans(),                      # errored
        st.sampled_from([None, "cap leak 50k", "C tripled"]),
        st.one_of(st.none(), st.floats(min_value=1.0, max_value=60.0)),
    ),
    max_size=40,
)


def _aggregate_of(rows):
    agg = PopulationAggregate.for_golden(get_corner("table3").golden())
    for passed, errored, fault, fn in rows:
        agg.update(fault, DeviceScreenOutcome(
            name="d", passed=passed and not errored,
            error="boom" if errored else None,
            fn_hz=None if errored else fn,
            zeta=None, f3db_hz=None,
        ))
    return agg


def _aggregate_state(agg: PopulationAggregate):
    return json.loads(agg.to_json())


class TestPopulationAggregate:
    @settings(max_examples=40, deadline=None)
    @given(a=_outcomes, b=_outcomes, c=_outcomes)
    def test_merge_associativity_matches_streaming(self, a, b, c):
        left = _aggregate_of(a).merge(_aggregate_of(b).merge(_aggregate_of(c)))
        right = _aggregate_of(a).merge(_aggregate_of(b)).merge(
            _aggregate_of(c)
        )
        streamed = _aggregate_of(a + b + c)
        assert _aggregate_state(left) == _aggregate_state(right)
        assert _aggregate_state(left) == _aggregate_state(streamed)

    def test_confusion_accounting(self):
        agg = _aggregate_of([
            (False, False, "C tripled", 9.0),   # faulty, rejected  -> TP
            (True, False, "C tripled", 9.0),    # faulty, shipped   -> FN
            (False, True, None, None),          # clean, errored    -> FP
            (True, False, None, 9.0),           # clean, shipped    -> TN
        ])
        c = agg.confusion
        assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)
        assert c.coverage == 0.5
        assert c.false_reject_rate == 0.5
        summary = agg.summary()
        assert summary["faults"]["C tripled"] == {
            "injected": 2, "detected": 1,
        }
        assert summary["yield"]["dies"] == 4
        assert summary["yield"]["errors"] == 1

    def test_merge_sketch_set_mismatch_raises(self):
        agg = _aggregate_of([])
        other = PopulationAggregate({"fn_hz": QuantileSketch(1.0, 10.0)})
        with pytest.raises(ConfigurationError):
            agg.merge(other)


# ----------------------------------------------------------------------
# batch_device_screen (structured sibling of batch_device_reports)
# ----------------------------------------------------------------------
class TestBatchDeviceScreen:
    @pytest.fixture(scope="class")
    def small_lot(self):
        corner = get_corner("table3")
        spec = PopulationSpec(corner="table3", size=3, seed=9,
                              fault_rate=0.4, points=5)
        dies = list(sample_dies(spec))
        requests = [
            DeviceReportRequest(
                pll=d.pll, stimulus=corner.stimulus(), plan=corner.plan(5),
                config=corner.config(), limits=corner.limits(0.35),
            )
            for d in dies
        ]
        return requests

    def test_outcomes_match_report_verdicts(self, small_lot):
        cache = LockStateCache()
        outcomes = batch_device_screen(small_lot, cache=cache, engine="auto")
        reports = batch_device_reports(small_lot, cache=cache, engine="auto")
        assert len(outcomes) == len(reports) == len(small_lot)
        for outcome, report, request in zip(outcomes, reports, small_lot):
            assert outcome.name == request.pll.name
            if outcome.error is not None:
                assert "FAIL (sweep aborted)" in report
            elif outcome.passed:
                assert "**PASS**" in report
            else:
                assert "**FAIL**" in report
            if outcome.passed:
                assert outcome.fn_hz is not None and outcome.fn_hz > 0

    def test_pooled_equals_serial(self, small_lot):
        serial = batch_device_screen(small_lot, engine="auto",
                                     cache=LockStateCache())
        pooled = batch_device_screen(small_lot, n_workers=2, engine="auto",
                                     cache=LockStateCache())
        assert serial == pooled


class TestRelevantWarmEntriesIterable:
    def _cache_with_families(self, n_dies=2):
        corner = get_corner("table3")
        spec = PopulationSpec(corner="table3", size=n_dies, seed=4,
                              points=4)
        dies = list(sample_dies(spec))
        cache = LockStateCache()
        requests = [
            DeviceReportRequest(
                pll=d.pll, stimulus=corner.stimulus(), plan=corner.plan(4),
                config=corner.config(),
            )
            for d in dies
        ]
        batch_device_screen(requests, cache=cache, engine="auto")
        return cache, dies

    def test_signature_iterable_filters_per_family(self):
        cache, dies = self._cache_with_families()
        sig0 = dies[0].pll.physics_signature()
        only0 = warm_shipment(cache, [dies[0].pll])
        both = warm_shipment(cache, [dies[0].pll, dies[1].pll])
        everything = cache.export()
        assert 0 < len(only0) < len(both) <= len(everything)
        assert all(key[0] == sig0 for key, __ in only0)
        # The filter keys on physics, not names: a renamed twin of the
        # first die receives exactly the same shipment.
        twin = replace(dies[0].pll, name="twin")
        assert warm_shipment(cache, [twin]) == only0
        # An empty device set ships nothing.
        assert warm_shipment(cache, []) == ()


# ----------------------------------------------------------------------
# the nominal-frequency memo satellite
# ----------------------------------------------------------------------
class TestNominalFrequencyMemoControls:
    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        reset_nominal_frequency_memo()
        yield
        reset_nominal_frequency_memo()

    def test_stats_track_hits_misses(
        self, pll_linear, sine_stimulus, fast_bist_config
    ):
        sequencer = ToneTestSequencer(
            pll_linear, sine_stimulus, fast_bist_config
        )
        sequencer.measure_nominal_frequency()
        sequencer.measure_nominal_frequency()
        stats = nominal_frequency_memo_stats()
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.evictions == 0
        assert stats.size == 1
        assert stats.limit == 4096


# ----------------------------------------------------------------------
# the streaming engine
# ----------------------------------------------------------------------
class TestScreenPopulation:
    SPEC = dict(corner="table3", size=6, seed=21, fault_rate=0.3, points=5,
                rel_tol=0.35)

    def test_chunk_size_from_cache_structure(self):
        spec = PopulationSpec(**self.SPEC)
        assert resolve_chunk_size(spec, cache_capacity=4096) == min(
            max(8, 4096 // spec.points), 256, spec.size
        )
        assert resolve_chunk_size(spec, cache_capacity=12) == spec.size
        wide = PopulationSpec(**{**self.SPEC, "size": 4096})
        assert resolve_chunk_size(wide, cache_capacity=10 ** 9) == 256

    def test_chunk_size_counts_only_tone_lanes(self):
        # A die's screen settles one lane per tone and no nominal-lock
        # baseline, so 90 entries hold 10 nine-tone dies, not 9.
        spec = PopulationSpec(corner="table3", size=64, seed=1, points=9)
        assert resolve_chunk_size(spec, cache_capacity=90) == 10

    def test_byte_identical_across_runs_and_chunk_sizes(self, tmp_path):
        spec = PopulationSpec(**self.SPEC)
        out = []
        for chunk in (2, 6, 2):
            agg, stats = screen_population(spec, chunk_size=chunk)
            out.append(agg.to_json(spec.describe()))
            assert stats.dies == 6
            assert stats.n_chunks == (6 + chunk - 1) // chunk
        assert out[0] == out[1] == out[2]

    def test_jsonl_streams_one_record_per_die(self, tmp_path):
        spec = PopulationSpec(**self.SPEC)
        path = tmp_path / "dies.jsonl"
        agg, __ = screen_population(spec, chunk_size=4, jsonl=str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == spec.size
        records = [json.loads(line) for line in lines]
        assert [r["index"] for r in records] == list(range(spec.size))
        injected = sum(1 for r in records if r["fault"] is not None)
        assert injected == agg.confusion.tp + agg.confusion.fn
        assert spec.size - injected == agg.confusion.fp + agg.confusion.tn

    def test_progress_callback_and_totals(self):
        spec = PopulationSpec(**self.SPEC)
        seen = []
        agg, stats = screen_population(
            spec, chunk_size=3, progress=seen.append
        )
        assert [p.chunk_index for p in seen] == [0, 1]
        assert seen[-1].dies_done == 6
        assert agg.counts.total == 6
        assert stats.chunk_size == 3
        assert stats.dies_per_s > 0

    def test_invalid_arguments(self):
        spec = PopulationSpec(**self.SPEC)
        with pytest.raises(ConfigurationError):
            screen_population(spec, chunk_size=0)
        with pytest.raises(ConfigurationError):
            screen_population(spec, n_workers=0)


class TestPopulationCLI:
    def test_population_command_emits_summary_json(self, capsys):
        from repro.cli import main

        assert main([
            "population", "--dies", "4", "--points", "5", "--seed", "3",
            "--fault-rate", "0.5", "--chunk", "2", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out)
        assert summary["yield"]["dies"] == 4
        assert summary["spec"]["corner"] == "table3"
        assert set(summary["parameters"]) == {"fn_hz", "zeta", "f3db_hz"}

    def test_population_command_rejects_bad_spec(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["population", "--dies", "4", "--fault-rate", "2.0"])

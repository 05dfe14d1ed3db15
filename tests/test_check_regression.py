"""The perf gate's one table, ``benchmarks/check_regression.py``.

Every :data:`GATES` row is judged on synthetic records by the rules
:func:`check` promises: a row absent from both records is fine; a row
the baseline has may not vanish from the fresh record; a flag that
reads ``False`` fails; a floor binds only when its gate holds; a budget
fails past baseline * (1 + bound) and reports a ``tones`` mismatch.
The fresh record's keys are closed: misspelled and retired keys fail.
"""

import importlib.util
import json
import pathlib

import pytest

_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "check_regression.py"
)
_SPEC = importlib.util.spec_from_file_location("check_regression", _PATH)
cr = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cr)


def _at(key, value):
    """A record holding ``value`` at dotted ``key``."""
    record = value
    for part in reversed(key.split(".")):
        record = {part: record}
    return record


def _gate(row, on):
    """Fresh-record keys that make ``row``'s gate hold (or not)."""
    if row.when is None:
        return {}
    key, minimum = row.when
    return {key: minimum if on else 0}


def _row_id(row):
    return row.key if row.kind == "true" else f"{row.key}-{row.bound:g}"


@pytest.mark.parametrize("row", cr.GATES, ids=_row_id)
def test_gate_row_verdicts(row):
    on, off = _gate(row, on=True), _gate(row, on=False)
    good = True if row.kind == "true" else row.bound + 1.0
    baseline = {"tones": 13, **_at(row.key, good)}

    # Absent from both records: nothing to judge.
    assert cr.check({}, off) == []
    # Once the baseline carries the key it can never vanish.
    assert cr.check(baseline, {"tones": 13, **off}) != []

    if row.kind == "true":
        assert cr.check({}, _at(row.key, True)) == []
        assert cr.check({}, {**on, **_at(row.key, False)}) != []
        assert cr.check({}, {**off, **_at(row.key, False)}) != []
    elif row.kind == "floor":
        below = row.bound - 0.5
        assert cr.check({}, {**on, **_at(row.key, row.bound)}) == []
        assert cr.check({}, {**on, **_at(row.key, below)}) != []
        # An ungated row always binds; a gated one only when it holds.
        below_off = cr.check({}, {**off, **_at(row.key, below)})
        assert (below_off == []) == (row.when is not None)
        if row.when is not None:
            # A gate that holds demands the number it gates.
            assert cr.check({}, on) != []
    else:
        base = {"tones": 13, **_at(row.key, 1.0)}
        limit = 1.0 + row.bound
        assert cr.check(base, {"tones": 13, **_at(row.key, limit)}) == []
        over = {"tones": 13, **_at(row.key, limit * 1.01)}
        assert cr.check(base, over) != []
        # A budget needs the baseline: a bench's own gate leaves it.
        assert cr.gate(over) == []
        mismatch = cr.check(base, {"tones": 9, **_at(row.key, 1.0)})
        assert any("tone counts differ" in p for p in mismatch)


def test_table_keys_are_known():
    """A row keyed off the known set would silently never bind."""
    for row in cr.GATES:
        assert row.kind in ("floor", "budget", "true"), row
        assert row.key.split(".")[0] in cr.KNOWN_KEYS, row
        if row.when is not None:
            assert row.when[0] in cr.KNOWN_KEYS, row
    assert not cr.KNOWN_KEYS & set(cr.RETIRED_KEYS)


def test_unknown_and_retired_keys_fail():
    fresh = {
        "vec_measure_speedup": 2.5,
        "vec_mesure_speedup": 2.5,
        "service_load_speedup_2shard": 1.6,
        "service_laod_wall_s": 1.0,
        "population_throughput_dies_per_s": 3.0,
        "population_troughput_dies_per_s": 3.0,
        "closed_form_screen": {},
    }
    problems = cr.check({}, fresh)
    assert len(problems) == 4, problems
    for typo in ("vec_mesure_speedup", "service_laod_wall_s",
                 "population_troughput_dies_per_s"):
        assert any(f"unknown key {typo!r}" in p for p in problems), typo
    assert any("retired key 'closed_form_screen'" in p for p in problems)
    # Stale copies in an old baseline are ignored.
    assert cr.check({"cold_wall_s": 1.0, "closed_form_screen": {}}, {}) == []


def test_cli_judges_fresh_against_baseline(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    fresh = tmp_path / "fresh.json"
    baseline.write_text(json.dumps({"tones": 13, "serial_wall_s": 1.0}))
    fresh.write_text(json.dumps({"tones": 13, "serial_wall_s": 1.1}))
    argv = ["--fresh", str(fresh), "--baseline", str(baseline)]
    assert cr.main(argv) == 0
    fresh.write_text(json.dumps({"tones": 13, "serial_wall_s": 1.5}))
    assert cr.main(argv) == 1
    assert "serial_wall_s over budget" in capsys.readouterr().out
    assert cr.main(["--fresh", str(tmp_path / "absent.json"),
                    "--baseline", str(baseline)]) == 2

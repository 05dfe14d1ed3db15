"""The engine knob: ``"auto"`` by default everywhere, ``"scalar"`` on ask.

Three contracts:

* **defaults** — every entry point that takes an engine (monitor, batch
  reports and screens, population screen, service job spec and request,
  CLI verbs) defaults to the farm, ``"auto"``;
* **trust boundaries** — the retired farm names ``"vectorized"`` and
  ``"closed_form"``, and any typo, are rejected with the choices menu
  by :func:`~repro.engines.validate_engine`, by argparse on every verb
  and by :meth:`~repro.service.SweepJobSpec.from_dict` on the wire;
* **one farm per lot** — ``batch_device_reports(engine="auto")`` runs
  the settle farm once for the whole lot, serial or pooled, and every
  device's own sweep stays scalar; ``engine="scalar"`` runs no farm.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import replace

import pytest

from repro.cli import build_parser
from repro.core import SweepPlan, TransferFunctionMonitor
from repro.core.warm import LockStateCache
from repro.engines import validate_engine
from repro.errors import ConfigurationError
from repro.pll.population import screen_population
from repro.presets import paper_pll, paper_stimulus
from repro.reporting import DeviceReportRequest, batch_device_reports
from repro.reporting.device_report import batch_device_screen
from repro.service import SweepJobSpec
from repro.service.jobs import SweepJobRequest
from repro.sim.vectorized import VectorizedLotSimulator

TONES = (10.0, 55.0)
REJECTED = ("vectorized", "closed_form", "scalr")
ENGINE_VERBS = ("sweep", "lot", "population", "submit")


@pytest.mark.parametrize("entry", [
    TransferFunctionMonitor.run,
    TransferFunctionMonitor.run_and_check,
    batch_device_reports,
    batch_device_screen,
    screen_population,
], ids=lambda fn: fn.__qualname__)
def test_function_entry_points_default_to_auto(entry):
    assert inspect.signature(entry).parameters["engine"].default == "auto"


@pytest.mark.parametrize("cls", [SweepJobSpec, SweepJobRequest],
                         ids=lambda cls: cls.__name__)
def test_job_models_default_to_auto(cls):
    field = {f.name: f for f in dataclasses.fields(cls)}["engine"]
    assert field.default == "auto"


@pytest.mark.parametrize("verb", ENGINE_VERBS)
def test_cli_verbs_default_to_auto(verb):
    assert build_parser().parse_args([verb]).engine == "auto"


@pytest.mark.parametrize("name", REJECTED)
def test_validate_engine_rejects_with_choices(name):
    with pytest.raises(ConfigurationError) as excinfo:
        validate_engine(name)
    assert str(excinfo.value) == (
        f"unknown engine {name!r}; expected one of 'auto', 'scalar'"
    )


@pytest.mark.parametrize("verb", ENGINE_VERBS)
@pytest.mark.parametrize("name", REJECTED)
def test_cli_rejects_with_choices(verb, name, capsys):
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args([verb, "--engine", name])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid choice: {name!r}" in err
    assert "'auto', 'scalar'" in err


@pytest.mark.parametrize("name", REJECTED)
def test_wire_spec_rejects_with_choices(name):
    with pytest.raises(ConfigurationError, match="'auto', 'scalar'"):
        SweepJobSpec.from_dict({"points": 5, "engine": name})


class TestOneFarmPerLot:
    @pytest.fixture
    def farm_log(self, monkeypatch, tmp_path):
        """Path of a log with one line per farm run, pool workers
        included (they fork with the spy installed)."""
        log = tmp_path / "farms.log"
        log.touch()
        run = VectorizedLotSimulator.run

        def spy(farm):
            with open(log, "a") as fh:
                fh.write(f"{len(farm.lanes)}\n")
            return run(farm)

        monkeypatch.setattr(VectorizedLotSimulator, "run", spy)
        return log

    @staticmethod
    def _lot(config):
        stimulus = paper_stimulus("multitone")
        return [
            DeviceReportRequest(
                pll=replace(paper_pll(), name=f"die-{i}"),
                stimulus=stimulus, plan=SweepPlan(TONES), config=config,
            )
            for i in range(3)
        ]

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_auto_runs_one_farm(self, farm_log, fast_bist_config,
                                n_workers):
        lot = self._lot(fast_bist_config)
        # A settle cache too small for the lot's states: a device sweep
        # that ran its own farm would have lanes to re-settle, and show.
        reports = batch_device_reports(
            lot, n_workers=n_workers, cache=LockStateCache(max_entries=1),
            engine="auto",
        )
        assert farm_log.read_text().splitlines() == [str(len(TONES))]
        assert reports == batch_device_reports(lot, engine="scalar")

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_scalar_runs_no_farm(self, farm_log, fast_bist_config,
                                 n_workers):
        batch_device_reports(self._lot(fast_bist_config),
                             n_workers=n_workers, engine="scalar")
        assert farm_log.read_text() == ""

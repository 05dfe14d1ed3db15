"""Shared machinery for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper: it prints
the rows/series to stdout *and* writes them to
``benchmarks/results/<name>.txt`` so the artefacts survive pytest's
output capture.  Expensive closed-loop sweeps are computed once per
session and shared.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.monitor import TransferFunctionMonitor
from repro.presets import (
    paper_bist_config,
    paper_pll,
    paper_stimulus,
    paper_sweep,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def report():
    """Print a named report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        print(f"\n===== {name} =====\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


@pytest.fixture(scope="session")
def paper_dut():
    """The reconstructed Table 3 device under test (linear)."""
    return paper_pll()


@pytest.fixture(scope="session")
def paper_plan():
    """The Figures 11-12 modulation-frequency sweep."""
    return paper_sweep()


@pytest.fixture(scope="session")
def figure11_12_sweeps(paper_dut, paper_plan):
    """The three stimulus sweeps behind Figures 11 and 12, run once."""
    config = paper_bist_config()
    out = {}
    for kind in ("sine", "multitone", "twotone"):
        monitor = TransferFunctionMonitor(
            paper_dut, paper_stimulus(kind), config
        )
        out[kind] = monitor.run(paper_plan)
    return out

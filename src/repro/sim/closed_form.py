"""A second name for the settle farm, kept for trace attribution.

:class:`ClosedFormLotSimulator` is
:class:`~repro.sim.vectorized.VectorizedLotSimulator` under an older
class name; no engine constructs it any more (``auto`` runs the farm
class itself, whose per-lane kernel update between PFD switching
instants is already closed form).  It adds nothing.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.vectorized import SettleLane, VectorizedLotSimulator

__all__ = ["ClosedFormLotSimulator"]


class ClosedFormLotSimulator(VectorizedLotSimulator):
    """The kernel farm under its older name."""

    # Defined here rather than inherited: perfbench's tracer wraps this
    # class's own ``__init__`` by name.
    def __init__(self, lanes: Sequence[SettleLane]):
        super().__init__(lanes)

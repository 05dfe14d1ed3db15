"""The farm class behind the ``closed_form`` and ``auto`` engine names.

:class:`ClosedFormLotSimulator` is
:class:`~repro.sim.vectorized.VectorizedLotSimulator` under the class
name those engines construct: every lane settles on the same per-lane
kernel, whose update between PFD switching instants is already closed
form.  It adds nothing.
"""

from __future__ import annotations

from typing import Sequence

from repro.sim.vectorized import SettleLane, VectorizedLotSimulator

__all__ = ["ClosedFormLotSimulator"]


class ClosedFormLotSimulator(VectorizedLotSimulator):
    """The kernel farm, constructed for ``closed_form``/``auto``."""

    # Defined here rather than inherited: perfbench's tracer times the
    # farm by wrapping this class's own ``__init__``.
    def __init__(self, lanes: Sequence[SettleLane]):
        super().__init__(lanes)

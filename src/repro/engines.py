"""The settle-engine vocabulary, shared by every layer that selects one.

Stage 0 of the Table 2 tone sequence — the fixed settling wait — and,
where the results have somewhere to land, stages 1–4 are simulated
either by the settle farm or by the scalar reference:

* ``"auto"`` (the default everywhere) — the farm
  (:class:`~repro.sim.vectorized.VectorizedLotSimulator`): every lane
  settles (and measures) on one per-lane kernel that advances the loop
  edge-to-edge in closed form, and any tone the kernel cannot
  represent or ejects runs from t = 0 on the scalar reference.
* ``"scalar"`` — the reference :class:`~repro.pll.simulator.\
  PLLTransientSimulator` event loop, one tone at a time.  Always
  correct, always available; the farm is judged against its bits.

The tuple and validator live here — away from the farm modules — so the CLI, the service protocol and the orchestration layers
share one source of truth without paying a farm import.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["ENGINES", "validate_engine"]

#: Every engine name an ``engine=`` parameter accepts, anywhere.
ENGINES = ("auto", "scalar")


def validate_engine(engine: str) -> str:
    """Return ``engine`` if known; raise a choices-listing error if not.

    Raises :class:`~repro.errors.ConfigurationError` naming every valid
    choice, so a typo'd engine fails with the menu rather than a deep
    traceback out of whichever layer first dispatched on the name.
    """
    if engine not in ENGINES:
        choices = ", ".join(repr(e) for e in ENGINES)
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {choices}"
        )
    return engine

"""The settle-engine vocabulary, shared by every layer that selects one.

Stage 0 of the Table 2 tone sequence — the fixed settling wait — is
simulated either by the scalar reference or by the settle farm:

* ``"scalar"`` — the reference :class:`~repro.pll.simulator.\
  PLLTransientSimulator` event loop, one tone at a time.  Always
  correct, always available; every other engine is judged against its
  bits.
* ``"vectorized"``, ``"closed_form"`` and ``"auto"`` — three names for
  the same farm (:class:`~repro.sim.vectorized.VectorizedLotSimulator`):
  every lane settles (and measures) on one per-lane kernel that
  advances the loop edge-to-edge in closed form, and anything the
  kernel cannot represent ejects to a scalar finish.  They differ in
  one policy only: where ``vectorized``/``closed_form`` raise (an
  adaptive settle policy), ``auto`` simply runs scalar.

The tuple and validator live here — away from the NumPy-importing farm
modules — so the CLI, the service protocol and the orchestration layers
share one source of truth without paying a farm import.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["ENGINES", "FARM_ENGINES", "validate_engine"]

#: Every engine name an ``engine=`` parameter accepts, anywhere.
ENGINES = ("scalar", "vectorized", "closed_form", "auto")

#: The engines that presettle through a lot farm (everything but the
#: per-tone scalar loop).
FARM_ENGINES = ("vectorized", "closed_form", "auto")


def validate_engine(engine: str, allowed: tuple = ENGINES) -> str:
    """Return ``engine`` if known; raise a choices-listing error if not.

    Raises :class:`~repro.errors.ConfigurationError` naming every valid
    choice, so a typo'd engine fails with the menu rather than a deep
    traceback out of whichever layer first dispatched on the name.
    """
    if engine not in allowed:
        choices = ", ".join(repr(e) for e in allowed)
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {choices}"
        )
    return engine

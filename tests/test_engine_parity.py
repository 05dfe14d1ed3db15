"""Farm == scalar, as one property.

The farm's per-lane kernel (``engine="auto"``) and the scalar event
loop must agree bit for bit.  One hypothesis property draws the dies a
screen meets — a sampled die of either population corner, or a library
fault on either device model (the linear paper die, the 74HCT4046A) —
with a stimulus and a tone, and asserts for that tone:

* the measurement the farm publishes (a
  :class:`~repro.core.sequencer.ToneMeasurement`, or the
  :class:`~repro.errors.MeasurementError` text) equals the scalar
  sequencer's, and the report of a short plan is byte-identical;
* the lane's settled state equals the scalar simulator's at the same
  instant (:class:`tests.conftest.SettledReadout`);
* the farm kept the lane (settled and measured it on the kernel), so
  the equalities never hold because the scalar engine answered both.

The example budget comes from the active hypothesis profile
(``--hypothesis-profile=deep`` searches longer).  Fixed-die parity
tests, and the cases outside this space, are in
``test_lot_vectorized.py``, ``test_measure_vectorized.py``,
``test_closed_form_property.py`` and ``test_kernel_exits.py``.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import SweepPlan
from repro.core.sequencer import measurement_cache_key
from repro.core.warm import ToneMeasurementCache
from repro.pll.faults import FAULT_LIBRARY, apply_fault
from repro.pll.population import PopulationSpec
from repro.pll.population.samplers import get_corner, sample_die
from repro.presets import paper_pll
from repro.reporting import DeviceReportRequest, batch_device_reports
from repro.sim.vectorized import SettleLane
from repro.stimulus import SineFMStimulus, TwoToneFSKStimulus

CORNERS = ("table3", "cdr180")
MODELS = ("paper", "hct4046")

#: ``(corner, seed, faulted)``: die 0 of a one-die population, faulted
#: with one of the corner's faults or clean; or ``(model, fault label)``:
#: a device model with a library fault, or healthy (``None``).
DIES = st.one_of(
    st.tuples(st.sampled_from(CORNERS), st.integers(0, 2**32 - 1),
              st.booleans()),
    st.tuples(st.sampled_from(MODELS),
              st.sampled_from((None, *sorted(FAULT_LIBRARY)))),
)
#: Tones, as multiples of the corner's golden natural frequency.
TONES = (0.5, 1.0, 2.0, 4.0, 7.0)


def _build(die, kind):
    """``(pll, stimulus, config, fn_hz)``: the die, its corner's
    stimulus of ``kind``, and its corner's config cut to a one-cycle
    settle and a 32-period count."""
    family = die[0]
    corner = get_corner("cdr180" if family == "cdr180" else "table3")
    if family in CORNERS:
        spec = PopulationSpec(corner=family, size=1, seed=die[1],
                              fault_rate=float(die[2]))
        pll = sample_die(spec, 0).pll
    else:
        pll = paper_pll(nonlinear=family == "hct4046")
        if die[1] is not None:
            pll = apply_fault(pll, FAULT_LIBRARY[die[1]])
    fsk = corner.stimulus()
    stimulus = {
        "sine": SineFMStimulus(fsk.f_nominal, fsk.deviation),
        "twotone": TwoToneFSKStimulus(fsk.f_nominal, fsk.deviation,
                                      dco=fsk.dco),
        "multitone": fsk,
    }[kind]
    config = replace(corner.config(), settle_cycles=1,
                     frequency_count_periods=32)
    return pll, stimulus, config, corner.golden().fn_hz


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(die=DIES, stimulus=st.sampled_from(("sine", "twotone", "multitone")),
       tone=st.sampled_from(TONES))
# Pump activations on both pump kinds (seed 1 draws the scaled dead zone).
@example(die=("paper", "pump dead zone 100us"), stimulus="multitone",
         tone=7.0)
@example(die=("cdr180", 1, True), stimulus="sine", tone=2.0)
# MFREQ starvation: the farm publishes the scalar error text.
@example(die=("paper", "cap leak 50k"), stimulus="twotone", tone=4.0)
# A Ko fault's scaled copy of the 4046 tuning curve.
@example(die=("hct4046", "Ko half nominal"), stimulus="multitone",
         tone=4.0)
def test_farm_equals_scalar(die, stimulus, tone, settled):
    pll, stim, config, fn = _build(die, stimulus)
    f_mod = tone * fn
    # The second tone, f_ref / 4, is uncacheable: the farm skips it and
    # both engines measure it on the scalar loop.
    request = DeviceReportRequest(pll=pll, stimulus=stim, config=config,
                                  plan=SweepPlan((f_mod, pll.f_ref / 4.0)))
    key = measurement_cache_key(pll, stim, config, f_mod)
    seen = {}
    for engine in ("scalar", "auto"):
        cache = ToneMeasurementCache()
        (report,) = batch_device_reports([request], cache=cache,
                                         engine=engine)
        seen[engine] = (cache.peek(key), report)
    assert seen["auto"] == seen["scalar"]
    stats = cache.presettle_stats
    assert stats.skipped == 1
    assert stats.vector == stats.measured + stats.measure_failed == 1
    lane = SettleLane(pll=pll, stimulus=stim, f_mod=f_mod, config=config,
                      settle_end=config.settle_cycles / f_mod)
    ((mode, fields),) = settled.farm([lane])
    assert mode == "vector"
    assert fields == settled.scalar(pll, stim, f_mod, lane.settle_end)

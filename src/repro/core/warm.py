"""Warm-start support: a cache of settled loop states.

Table 2's stage (0) — "allow the loop to settle" — dominates the cost of
a tone measurement: for the paper's sweep roughly four modulation
periods of closed-loop simulation (~79 % of the per-tone events) are
spent reaching steady state before the phase counter is even armed.
That work is pure replay whenever the same (PLL, stimulus, tone) has
been settled before: the loop is deterministic, so the settled state is
a function of the configuration alone.

:class:`LockStateCache` memoises those settled states as
:class:`~repro.pll.simulator.SimulatorSnapshot` records keyed by the
tone parameters.  A hit lets the sequencer *restore* instead of
re-simulating the settle, which is bit-identical to the cold run by the
snapshot guarantee — measurements from a warm run equal the cold run's
tick for tick.  Typical uses: batch screening (the same sweep plan run
against many devices re-settles the same tones), re-measurement of a
tone at a different ``max_wait_cycles``, and the cold/warm benchmark.

Because entries are keyed by the device's *physics signature* rather
than its name (see
:meth:`~repro.pll.config.ChargePumpPLL.physics_signature`), one cache
shared across a whole lot settles each (stimulus, tone, configuration)
family exactly once — every same-configuration die, and every repeat of
the same injected fault in a fault-library screen, restores the first
die's settled state.  :meth:`export` and :meth:`merge` move entries
across process boundaries: a batch screen ships the parent cache's
entries to pool workers inside the chunk payload and merges whatever
the workers settled back into the parent on return.  Both process
pools — the tone pool and the lot pool — ship through one pair of
helpers: :func:`warm_shipment` on the sending side and
:func:`run_with_shipment` in the worker, with
:func:`adopt_worker_return` folding the worker's discoveries and lookup
counts back into the parent cache.

The cache is a bounded LRU so long screening campaigns cannot grow
memory without limit; snapshots are a few hundred bytes each.

:meth:`save` and :meth:`load` extend the export/merge story across
process *lifetimes*: a long-lived service spills its settled states to
disk between lots and reloads them on the next start, so the first job
of a new session runs as warm as the last job of the previous one.  The
on-disk format is versioned, and loading guards every entry — a stale
entry (wrong shape, or a key whose physics signature no longer matches
its snapshot) is skipped, never fatal, because losing a warm start
costs one re-settle while crashing costs the whole session.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from typing import Callable, Hashable, Iterable, Optional, Tuple, Union

from repro.errors import CachePersistenceError, ConfigurationError
from repro.pll.simulator import SimulatorSnapshot

__all__ = [
    "LockStateCache",
    "ToneMeasurementCache",
    "CacheEntries",
    "WorkerReturn",
    "warm_shipment",
    "run_with_shipment",
    "adopt_worker_return",
    "CACHE_FORMAT_MAGIC",
    "CACHE_FORMAT_VERSION",
]

#: Picklable transport form of a cache's contents: ``(key, snapshot)``
#: pairs in least-recently-used-first order.
CacheEntries = Tuple[Tuple[Hashable, SimulatorSnapshot], ...]

#: File-format identifier written into every persisted cache.
CACHE_FORMAT_MAGIC = "repro-lockstate-cache"
#: Current on-disk format version.  Readers accept any version up to
#: this one (older payloads carry a subset of today's fields); a file
#: from a *newer* library raises, because its semantics are unknowable.
CACHE_FORMAT_VERSION = 1

#: Pinned pickle protocol so the same cache contents always serialise
#: to the same bytes — save → load → save is byte-identical, which the
#: persistence tests (and any content-addressed artefact store) rely on.
_PICKLE_PROTOCOL = 4


def _entry_is_stale(key: object, snap: object) -> bool:
    """Whether a persisted ``(key, snapshot)`` pair should be skipped.

    A healthy entry is a non-empty tuple key whose first element is the
    PLL physics signature, paired with a :class:`SimulatorSnapshot`
    carrying the *same* signature.  Anything else — a foreign object
    smuggled into the file, a key/snapshot pair that drifted apart when
    the signature scheme changed — is stale: serving it warm could
    restore the wrong physics, so it is dropped at the door.
    """
    if not isinstance(snap, SimulatorSnapshot):
        return True
    if not isinstance(key, tuple) or not key:
        return True
    if snap.pll_signature is not None and key[0] != snap.pll_signature:
        return True
    return False


class LockStateCache:
    """Bounded LRU cache of settled-loop snapshots.

    Keys are arbitrary hashable tuples built by the sequencer from
    everything that determines the settled state: the PLL physics
    signature, the stimulus parameters (nominal frequency, deviation,
    tone frequency), the settle duration and the recording level.
    Values are :class:`~repro.pll.simulator.SimulatorSnapshot` records
    captured at the end of stage (0).

    Parameters
    ----------
    max_entries:
        Capacity; least-recently-used entries are evicted beyond it.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._store: "OrderedDict[Hashable, SimulatorSnapshot]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._merged = 0
        #: Stale entries dropped by the most recent :meth:`load` that
        #: built this cache (0 for caches never loaded from disk).
        self.stale_entries_skipped = 0
        #: Digest left behind by :func:`repro.pll.lot.premeasure_lot`
        #: (a :class:`~repro.pll.lot.LotPresettleStats`) so callers that
        #: only hold the cache can report what the settle farm did.
        self.presettle_stats = None

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does not touch recency or the counters."""
        return key in self._store

    def get(self, key: Hashable) -> Optional[SimulatorSnapshot]:
        """Return the cached snapshot for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's recency.
        """
        snap = self._store.get(key)
        if snap is None:
            self._misses += 1
            return None
        self._store.move_to_end(key)
        self._hits += 1
        return snap

    def peek(self, key: Hashable) -> Optional[SimulatorSnapshot]:
        """Return the cached snapshot without touching recency or counters.

        The lot planner uses this to *inspect* settled states while
        deciding what to farm — the orchestrating sweep's own
        :meth:`get` remains the only place hit/miss telemetry accrues,
        so planning does not distort the cache statistics the benches
        and digests report.
        """
        return self._store.get(key)

    def put(self, key: Hashable, snap: SimulatorSnapshot) -> None:
        """Store ``snap`` under ``key``, evicting the LRU entry if full."""
        self._store[key] = snap
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self._evictions += 1

    def export(self) -> CacheEntries:
        """Every ``(key, snapshot)`` pair, LRU-first (picklable).

        The export is a value copy of the cache's *contents* (snapshots
        are immutable), sized to cross a process boundary inside a chunk
        payload; merging it into an empty cache reproduces this cache's
        entries and recency order.  Counters are not exported — they
        describe this cache's history, not its contents.
        """
        return tuple(self._store.items())

    def merge(
        self, entries: Iterable[Tuple[Hashable, SimulatorSnapshot]]
    ) -> int:
        """Adopt settled states discovered elsewhere; return the number added.

        ``entries`` is typically another cache's :meth:`export` — e.g.
        what a pool worker settled while screening its share of a lot.
        Merge semantics: **existing entries win**.  Both sides of a key
        collision hold the *same* settled state (the settle is a pure
        function of the key by the snapshot guarantee), so overwriting
        could only churn recency; keeping the incumbent makes merging
        idempotent and order-independent.  Newly adopted entries count
        toward capacity and may evict LRU incumbents, exactly like
        :meth:`put`.
        """
        added = 0
        for key, snap in entries:
            if key in self._store:
                continue
            self.put(key, snap)
            added += 1
        self._merged += added
        return added

    def save(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Persist the cache contents to ``path``; return the entry count.

        The file carries a format-version header followed by the
        entries in recency order (the same order :meth:`export` yields),
        pickled at a pinned protocol, so identical contents always
        produce identical bytes.  The write goes through a same-directory
        temporary file and :func:`os.replace`, so a crash mid-spill
        leaves the previous file intact rather than a truncated one.

        Counters (hits/misses/evictions/merged) are *not* persisted —
        they describe this process's history, not the settled states.
        """
        payload = {
            "format": CACHE_FORMAT_MAGIC,
            "version": CACHE_FORMAT_VERSION,
            "max_entries": self.max_entries,
            "entries": tuple(self._store.items()),
        }
        data = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
        path = os.fspath(path)
        # The temporary must be unique per *call*, not per process: two
        # writers in one process (sharded anti-entropy spills, threaded
        # test floors) sharing a pid-derived name would truncate each
        # other's in-flight data and unlink each other's temporaries.
        # mkstemp hands every call its own file in the target directory
        # (same filesystem, so os.replace stays atomic), and the
        # ``finally`` below can only ever remove what this call created.
        fd, tmp = tempfile.mkstemp(
            prefix=f"{os.path.basename(path)}.tmp.",
            dir=os.path.dirname(path) or ".",
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # replace failed; don't litter
                os.unlink(tmp)
        return len(self._store)

    @classmethod
    def load(
        cls,
        path: Union[str, "os.PathLike[str]"],
        max_entries: Optional[int] = None,
    ) -> "LockStateCache":
        """Rebuild a cache from a file written by :meth:`save`.

        ``max_entries`` overrides the persisted capacity (e.g. a service
        adopting a small spill into a larger live cache); by default the
        loaded cache reproduces the saved one — same capacity, same
        entries in the same recency order — so a load/save round trip is
        byte-identical.  A malformed persisted capacity (zero, negative,
        a bool, or any non-int) falls back to the constructor default
        rather than raising: only an unreadable *file* is fatal.

        Raises
        ------
        CachePersistenceError
            If the file cannot be read, is not a lock-state cache, or
            was written by a newer format version.  *Entries* inside a
            valid file are individually guarded instead: any stale pair
            (wrong shape, or a physics signature that disagrees with its
            snapshot) is skipped — recorded in
            :attr:`stale_entries_skipped` — never raised, because a lost
            warm start costs one re-settle while a crash costs the
            session.
        """
        try:
            with open(os.fspath(path), "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError as exc:
            raise CachePersistenceError(
                f"no persisted lock-state cache at {os.fspath(path)!r}"
            ) from exc
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, OSError) as exc:
            raise CachePersistenceError(
                f"cannot read {os.fspath(path)!r} as a lock-state cache: "
                f"{exc}"
            ) from exc
        if not isinstance(payload, dict) or (
            payload.get("format") != CACHE_FORMAT_MAGIC
        ):
            raise CachePersistenceError(
                f"{os.fspath(path)!r} is not a persisted lock-state cache"
            )
        version = payload.get("version")
        if not isinstance(version, int) or version < 1:
            raise CachePersistenceError(
                f"{os.fspath(path)!r} carries an unreadable cache format "
                f"version {version!r}"
            )
        if version > CACHE_FORMAT_VERSION:
            raise CachePersistenceError(
                f"{os.fspath(path)!r} was written by cache format "
                f"version {version}; this library reads up to "
                f"{CACHE_FORMAT_VERSION}"
            )
        capacity = max_entries
        if capacity is None:
            # The persisted capacity is data from disk, so it gets the
            # same distrust as the entries: a zero, a negative int or a
            # bool (an int subclass!) would blow up the constructor with
            # a ConfigurationError — the wrong exception for a load, and
            # a startup crash for any service adopting the spill.  Fall
            # back to the constructor default instead; a wrong capacity
            # costs early evictions, never availability.
            persisted = payload.get("max_entries")
            if (isinstance(persisted, int)
                    and not isinstance(persisted, bool)
                    and persisted >= 1):
                capacity = persisted
            else:
                capacity = 256
        cache = cls(max_entries=capacity)
        entries = payload.get("entries", ())
        skipped = 0
        for entry in entries:
            if not (isinstance(entry, tuple) and len(entry) == 2):
                skipped += 1
                continue
            key, snap = entry
            if _entry_is_stale(key, snap):
                skipped += 1
                continue
            cache.put(key, snap)
        cache.stale_entries_skipped = skipped
        return cache

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        self._store.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._merged = 0

    @property
    def stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` counters since construction or clear."""
        return (self._hits, self._misses)

    @property
    def stats_detail(self) -> dict:
        """Full counter set: hits, misses, evictions, merged entries.

        ``merged`` counts entries adopted through :meth:`merge` (worker
        discoveries folded into a parent cache); ``evictions`` counts
        LRU drops from either :meth:`put` or :meth:`merge`.
        """
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "merged": self._merged,
            "entries": len(self._store),
            "capacity": self.max_entries,
        }

    def __repr__(self) -> str:
        return (
            f"LockStateCache(entries={len(self._store)}/{self.max_entries}, "
            f"hits={self._hits}, misses={self._misses}, "
            f"evictions={self._evictions}, merged={self._merged})"
        )


class ToneMeasurementCache:
    """Bounded LRU cache of finished stage 1–4 tone outcomes.

    The settle cache above removes the *stage 0* replay inside one lot;
    this cache removes the stage 1–4 replay.  Measurement is as
    deterministic as the settle: once the loop is restored to a settled
    state, the armed counters, the peak detect/hold and the eq. 7–8
    arithmetic are a pure function of (physics, stimulus, tone,
    config) — exactly the key the sequencer builds for the settle
    cache, minus the record level (the measurement result does not
    depend on what the simulator records along the way).  So when a lot
    contains behaviourally identical dies, the first die measures each
    tone and the other seven reuse the finished
    :class:`~repro.core.sequencer.ToneMeasurement` verbatim.

    A value is either that measurement or, for a tone whose stages 1–4
    raise :class:`~repro.errors.MeasurementError` (a starved peak
    detector, say), the error text: failure is just as deterministic,
    so a sibling answers it as the same failed outcome instead of
    replaying the sequence.

    Reuse is only offered on the reproducible fixed-settle path (the
    same gate the settle cache uses) and a hit is re-stamped with a
    warm :class:`~repro.core.sequencer.ToneTiming` so timing telemetry
    stays honest; ``timing`` is excluded from measurement equality and
    from reports, so a warm report stays byte-identical to cold.

    Values are stored as opaque objects to keep this module free of a
    sequencer import; :meth:`~repro.core.monitor.TransferFunctionMonitor.run`
    owns the semantics (and the farm's
    :func:`~repro.pll.lot.premeasure_lot` fills it).
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does not touch recency or the counters."""
        return key in self._store

    def get(self, key: Hashable) -> Optional[object]:
        """Return the cached outcome for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's recency.
        """
        value = self._store.get(key)
        if value is None:
            self._misses += 1
            return None
        self._store.move_to_end(key)
        self._hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self._evictions += 1

    def export(self) -> Tuple[Tuple[Hashable, object], ...]:
        """Every ``(key, measurement)`` pair, LRU-first (picklable).

        Mirrors :meth:`LockStateCache.export`: a value copy of the
        contents, sized to cross a process boundary inside a chunk
        payload.  Counters are not exported.
        """
        return tuple(self._store.items())

    def merge(self, entries: Iterable[Tuple[Hashable, object]]) -> int:
        """Adopt finished measurements discovered elsewhere.

        Same semantics as :meth:`LockStateCache.merge`: existing
        entries win (both sides of a collision hold the same
        deterministic measurement), so merging is idempotent and
        order-independent; adopted entries count toward capacity.
        Returns the number added.
        """
        added = 0
        for key, value in entries:
            if key in self._store:
                continue
            self.put(key, value)
            added += 1
        return added

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        self._store.clear()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` counters since construction or clear."""
        return (self._hits, self._misses)

    @property
    def stats_detail(self) -> dict:
        """Full counter set plus occupancy, for bench digests."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "entries": len(self._store),
            "capacity": self.max_entries,
        }

    def __repr__(self) -> str:
        return (
            f"ToneMeasurementCache(entries={len(self._store)}"
            f"/{self.max_entries}, hits={self._hits}, "
            f"misses={self._misses})"
        )


# ----------------------------------------------------------------------
# shipping warm entries to pool workers
# ----------------------------------------------------------------------
#: What a pool worker hands back about its local lock-state cache: the
#: settled states it discovered beyond the shipment, and its
#: ``(hits, misses)`` lookup counts.
WorkerReturn = Tuple[CacheEntries, Tuple[int, int]]


def warm_shipment(
    cache: Union[LockStateCache, ToneMeasurementCache, None],
    plls: Iterable,
) -> Optional[Tuple]:
    """The entries of ``cache`` worth shipping to a worker running ``plls``.

    ``cache`` is a :class:`LockStateCache` or a
    :class:`ToneMeasurementCache` (``None`` ships nothing and returns
    ``None``).  A shared cache holds every physics family a lot or a
    service has touched, but a worker can only use entries of its own
    devices' families, so the export is filtered to their physics
    signatures — the pickled payload stays proportional to the worker's
    share, not to the cache's history.  A settled snapshot records its
    signature (unsigned legacy snapshots ship; the worker-side restore
    still validates them); a finished measurement's key leads with it.
    A device whose signature cannot be computed ships everything.
    """
    if cache is None:
        return None
    entries = cache.export()
    try:
        signatures = {pll.physics_signature() for pll in plls}
    except Exception:  # noqa: BLE001 - exotic device: ship everything
        return entries
    if isinstance(cache, LockStateCache):
        signatures.add(None)
        return tuple(
            (key, snap)
            for key, snap in entries
            if getattr(snap, "pll_signature", None) in signatures
        )
    return tuple(
        (key, value) for key, value in entries if key and key[0] in signatures
    )


def run_with_shipment(
    entries: Optional[CacheEntries],
    headroom: int,
    work: Callable[[Optional[LockStateCache]], object],
) -> Tuple[object, Optional[WorkerReturn]]:
    """Worker side of :func:`warm_shipment`: run ``work`` on a seeded cache.

    ``work`` receives a local :class:`LockStateCache` holding the
    shipped ``entries``, sized so none of them can be evicted while
    ``headroom`` new settled states arrive.  Returns ``work``'s result
    and the :data:`WorkerReturn` for :func:`adopt_worker_return`: only
    the entries beyond the shipment travel back.  With nothing shipped
    (``entries`` is ``None``) ``work`` runs without a cache and the
    return is ``None``.
    """
    if entries is None:
        return work(None), None
    local = LockStateCache(max_entries=max(256, len(entries) + headroom))
    local.merge(entries)
    result = work(local)
    shipped = frozenset(key for key, __ in entries)
    discovered = tuple(
        (key, snap) for key, snap in local.export() if key not in shipped
    )
    return result, (discovered, local.stats)


def adopt_worker_return(
    cache: Optional[LockStateCache], returned: Optional[WorkerReturn]
) -> None:
    """Fold a worker's discoveries and lookup counts into ``cache``.

    The worker's hits and misses are lookups made on the parent cache's
    behalf, so they count in its :attr:`~LockStateCache.stats` exactly
    as a serial run's would.
    """
    if cache is None or returned is None:
        return
    discovered, (hits, misses) = returned
    if discovered:
        cache.merge(discovered)
    cache._hits += hits
    cache._misses += misses

"""Warm-start support: one bounded LRU behind every warm tier.

Table 2 stage 5 makes every tone independent, so a finished tone
measurement — stages 0–4 run to the held-frequency count, or the
:class:`~repro.errors.MeasurementError` they raise — is a pure function
of (physics, stimulus, tone, config).  So is the nominal-frequency
baseline.  Replaying either is wasted work.

Each warm tier memoises one of those pure functions in a
:class:`BoundedCache` (an LRU with hit/miss/eviction/merge counters)
keyed by a tuple that leads with the device's *physics signature*
(:meth:`~repro.pll.config.ChargePumpPLL.physics_signature`):
:class:`ToneMeasurementCache` holds finished tones — the only warm
state a sweep, lot, population or service consults — and the
sequencer's nominal-frequency memo is a plain :class:`BoundedCache`.
Keyed by physics rather than name, one measurement cache shared across
a lot measures each (stimulus, tone, configuration) family exactly
once: every same-configuration die, and every repeat of the same
injected fault, is answered with the first die's finished tone.  The
bound keeps long screening campaigns from growing memory without
limit.  Stage 0 itself is never cached: a tone the measurement cache
cannot answer settles from lock.

:meth:`BoundedCache.export` and :meth:`BoundedCache.merge` move entries
between caches.  Warm state moves one way only, and only as finished
tones, through :func:`warm_shipment`: the lot pool ships each chunk's
share of the lot's :class:`ToneMeasurementCache` to its worker process,
and the sweep-job service seeds each job's own cache with its physics
family's tones.  Nothing is merged back: the lot pool's workers return
reports, and the service's loop thread publishes each tone a job
finishes into its one shared cache.

:meth:`BoundedCache.save` and :meth:`BoundedCache.load` extend the
export/merge story across process *lifetimes*: a long-lived service
spills its finished measurements to disk between lots and reloads them
on the next start, so the first job of a new session runs as warm as
the last job of the previous one.  The on-disk format is versioned and
carries a SHA-256 of its entries; a file that fails it or cannot be
decoded raises :class:`~repro.errors.CachePersistenceError`, while an
entry the loading tier does not admit (:meth:`BoundedCache._admits`) is
skipped, never fatal, because losing a warm start costs one re-measure
while crashing costs the whole session.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from typing import Hashable, Iterable, Optional, Tuple, Union

from repro.errors import CachePersistenceError, ConfigurationError

__all__ = [
    "BoundedCache",
    "LockStateCache",
    "ToneMeasurementCache",
    "CacheEntries",
    "warm_shipment",
    "CACHE_FORMAT_MAGIC",
    "CACHE_FORMAT_VERSION",
]

#: Picklable transport form of a cache's contents: ``(key, value)``
#: pairs in least-recently-used-first order.
CacheEntries = Tuple[Tuple[Hashable, object], ...]

#: File-format identifier written into every persisted cache.
CACHE_FORMAT_MAGIC = "repro-lockstate-cache"
#: Current on-disk format version.  Readers accept any version up to
#: this one; a file from a *newer* library raises, because its
#: semantics are unknowable.  Version 1 pickled the entries inline;
#: version 2 pickles them separately and stores their SHA-256, so a
#: corrupt spill is refused instead of restoring the wrong physics.
CACHE_FORMAT_VERSION = 2

#: Pinned pickle protocol so the same cache contents always serialise
#: to the same bytes — save → load → save is byte-identical, which the
#: persistence tests (and any content-addressed artefact store) rely on.
_PICKLE_PROTOCOL = 4


class BoundedCache:
    """Bounded LRU map of values that are pure functions of their keys.

    Parameters
    ----------
    max_entries:
        Capacity; least-recently-used entries are evicted beyond it.
        ``None`` takes the class's :attr:`DEFAULT_MAX_ENTRIES`.
    """

    #: Capacity of a cache built without one, and of a cache loaded
    #: from a spill whose persisted capacity is malformed.
    DEFAULT_MAX_ENTRIES = 256

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is None:
            max_entries = self.DEFAULT_MAX_ENTRIES
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries!r}"
            )
        self.max_entries = max_entries
        self._store: "OrderedDict[Hashable, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._merged = 0
        #: Entries :meth:`load` refused when it built this cache.
        self.stale_entries_skipped = 0

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        """Membership test; does not touch recency or the counters."""
        return key in self._store

    def get(self, key: Hashable) -> Optional[object]:
        """Return the cached value for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's recency.
        """
        value = self._store.get(key)
        if value is None:
            self._misses += 1
            return None
        self._store.move_to_end(key)
        self._hits += 1
        return value

    def peek(self, key: Hashable) -> Optional[object]:
        """Return the cached value without touching recency or counters.

        The monitor uses this to read back what its own farm pass just
        published — :meth:`get` remains the only place hit/miss
        telemetry accrues, so a tone measured by this sweep never
        counts as a hit in the statistics the benches and digests
        report.
        """
        return self._store.get(key)

    def put(self, key: Hashable, value: object) -> None:
        """Store ``value`` under ``key``, evicting the LRU entry if full."""
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self._evictions += 1

    def export(self) -> CacheEntries:
        """Every ``(key, value)`` pair, LRU-first (picklable).

        The export is a value copy of the cache's *contents* (values
        are immutable), sized to cross a process boundary inside a chunk
        payload; merging it into an empty cache reproduces this cache's
        entries and recency order.  Counters are not exported — they
        describe this cache's history, not its contents.
        """
        return tuple(self._store.items())

    def merge(self, entries: Iterable[Tuple[Hashable, object]]) -> int:
        """Adopt entries discovered elsewhere; return the number added.

        ``entries`` is typically a :func:`warm_shipment` — the finished
        tones shipped to a lot-pool worker or seeded into a service job's
        own cache.
        Merge semantics: **existing entries win**.  Both sides of a key
        collision hold the *same* value (it is a pure function of the
        key), so overwriting could only churn recency; keeping the
        incumbent makes merging idempotent and order-independent.
        Newly adopted entries count toward capacity and may evict LRU
        incumbents, exactly like :meth:`put`.
        """
        added = 0
        for key, value in entries:
            if key in self._store:
                continue
            self.put(key, value)
            added += 1
        self._merged += added
        return added

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
        """Full counter set plus occupancy, for bench digests.

        ``merged`` counts entries adopted through :meth:`merge` (a
        shipment or another cache's export); ``evictions`` counts
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

    @staticmethod
    def _admits(key: Hashable, value: object) -> bool:
        """Whether :meth:`load` adopts a persisted pair (a tier narrows it)."""
        return True

    def save(self, path: Union[str, "os.PathLike[str]"]) -> int:
        """Persist the cache contents to ``path``; return the entry count.

        The file carries a format-version header, the capacity, and the
        entries in recency order (the same order :meth:`export` yields)
        pickled on their own together with their SHA-256, all at a
        pinned protocol, so identical contents always produce identical
        bytes.  The write goes through a same-directory temporary file
        and :func:`os.replace`, so a crash mid-spill leaves the previous
        file intact rather than a truncated one.

        Counters (hits/misses/evictions/merged) are *not* persisted —
        they describe this process's history, not the cached values.
        """
        # Lazy import: hashlib loads OpenSSL, which only a spilling or
        # reloading process needs.
        import hashlib

        entries = pickle.dumps(
            tuple(self._store.items()), protocol=_PICKLE_PROTOCOL
        )
        payload = {
            "format": CACHE_FORMAT_MAGIC,
            "version": CACHE_FORMAT_VERSION,
            "max_entries": self.max_entries,
            "sha256": hashlib.sha256(entries).hexdigest(),
            "entries": entries,
        }
        data = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
        path = os.fspath(path)
        # The temporary must be unique per *call*, not per process: two
        # writers in one process (threaded callers, test floors) sharing
        # a pid-derived name would truncate each other's in-flight data
        # and unlink each other's temporaries.
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
    ) -> "BoundedCache":
        """Rebuild a cache from a file written by :meth:`save`.

        ``max_entries`` overrides the persisted capacity (e.g. a service
        adopting a small spill into a larger live cache); by default the
        loaded cache reproduces the saved one — same capacity, same
        entries in the same recency order — so a load/save round trip is
        byte-identical.  A malformed persisted capacity (zero, negative,
        a bool, or any non-int) falls back to the class's
        :attr:`DEFAULT_MAX_ENTRIES` rather than raising: only an
        unreadable *file* is fatal.

        Raises
        ------
        CachePersistenceError
            If the file cannot be read or decoded, is not a persisted
            cache, fails its entries' SHA-256, or was written by a newer
            format version.  *Entries* inside a valid file are
            individually guarded instead: any pair this tier does not
            :meth:`_admits` is skipped — recorded in
            :attr:`stale_entries_skipped` — never raised, because a lost
            warm start costs one re-measure while a crash costs the
            session.
        """
        path = os.fspath(path)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            persisted, entries = _decode_payload(payload, path)
            good = [
                entry for entry in entries
                if isinstance(entry, tuple) and len(entry) == 2
                and cls._admits(*entry)
            ]
        except FileNotFoundError as exc:
            raise CachePersistenceError(
                f"no persisted warm cache at {path!r}"
            ) from exc
        except CachePersistenceError:
            raise
        except Exception as exc:  # noqa: BLE001 - corruption fails any way
            raise CachePersistenceError(
                f"cannot read {path!r} as a warm cache: {exc}"
            ) from exc
        capacity = max_entries
        if capacity is None:
            # The persisted capacity is data from disk, so it gets the
            # same distrust as the entries: a zero, a negative int or a
            # bool (an int subclass!) would blow up the constructor with
            # a ConfigurationError — the wrong exception for a load, and
            # a startup crash for any service adopting the spill.  Fall
            # back to the class default instead; a wrong capacity costs
            # early evictions, never availability.
            if (isinstance(persisted, int)
                    and not isinstance(persisted, bool)
                    and persisted >= 1):
                capacity = persisted
        cache = cls(max_entries=capacity)
        for key, value in good:
            cache.put(key, value)
        cache.stale_entries_skipped = len(entries) - len(good)
        return cache

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(entries={len(self._store)}"
            f"/{self.max_entries}, hits={self._hits}, "
            f"misses={self._misses}, evictions={self._evictions}, "
            f"merged={self._merged})"
        )


def _decode_payload(payload: object, path: str) -> Tuple[object, tuple]:
    """``(persisted capacity, entries)`` of an unpickled spill.

    Checks the header and, from format version 2 on, the entries'
    SHA-256 before unpickling them.
    """
    if not isinstance(payload, dict) or (
        payload.get("format") != CACHE_FORMAT_MAGIC
    ):
        raise CachePersistenceError(
            f"{path!r} is not a persisted warm cache"
        )
    version = payload.get("version")
    if not isinstance(version, int) or version < 1:
        raise CachePersistenceError(
            f"{path!r} carries an unreadable cache format version "
            f"{version!r}"
        )
    if version > CACHE_FORMAT_VERSION:
        raise CachePersistenceError(
            f"{path!r} was written by cache format version {version}; "
            f"this library reads up to {CACHE_FORMAT_VERSION}"
        )
    entries = payload.get("entries", ())
    if version >= 2:
        import hashlib  # lazy, as in :meth:`BoundedCache.save`

        if not isinstance(entries, bytes) or (
            hashlib.sha256(entries).hexdigest() != payload.get("sha256")
        ):
            raise CachePersistenceError(
                f"{path!r} fails its SHA-256 check: the spill is corrupt"
            )
        entries = pickle.loads(entries)
    if not isinstance(entries, tuple):
        raise CachePersistenceError(
            f"{path!r} holds no entry table: the spill is corrupt"
        )
    return payload.get("max_entries"), entries


class LockStateCache(BoundedCache):
    """Retired settled-snapshot tier, kept only as a name.

    Nothing in the package builds one: finished tones
    (:class:`ToneMeasurementCache`) are the only warm state.  The class
    survives for perfbench's tracer, which wraps ``save`` and ``merge``
    through ``LockStateCache.__dict__`` — hence the bindings below.
    """

    save = BoundedCache.save
    merge = BoundedCache.merge


class ToneMeasurementCache(BoundedCache):
    """Bounded LRU cache of finished tone outcomes.

    A tone's Table 2 stages 0–4 — the fixed settle, the armed counters,
    the peak detect/hold and the eq. 7–8 arithmetic — are a pure
    function of (physics, stimulus, tone, config), the key
    :func:`~repro.core.sequencer.measurement_cache_key` builds.  So when
    a lot contains behaviourally identical dies, the first die measures
    each tone and the other seven reuse the finished
    :class:`~repro.core.sequencer.ToneMeasurement` verbatim, and a
    sweep-job service answers a repeated job's tones — in a later
    session too, through :meth:`save`/:meth:`load` — without
    re-simulating anything.

    A value is either that measurement or, for a tone whose stages 1–4
    raise :class:`~repro.errors.MeasurementError` (a starved peak
    detector, say), the error text: failure is just as deterministic,
    so a sibling answers it as the same failed outcome instead of
    replaying the sequence.

    Reuse is only offered for tones
    :func:`~repro.core.sequencer.tone_is_cacheable` admits, and a hit is
    re-stamped with a warm :class:`~repro.core.sequencer.ToneTiming` so
    timing telemetry stays honest; ``timing`` is excluded from
    measurement equality and from reports, so a warm report stays
    byte-identical to cold.

    :meth:`~repro.core.monitor.TransferFunctionMonitor.run` owns the
    semantics, and the farm's :func:`~repro.pll.lot.premeasure_lot`
    fills it.
    """

    DEFAULT_MAX_ENTRIES = 1024

    def __init__(self, max_entries: Optional[int] = None) -> None:
        super().__init__(max_entries)
        #: Digest left behind by :func:`repro.pll.lot.premeasure_lot`
        #: (a :class:`~repro.pll.lot.LotPresettleStats`) so callers that
        #: only hold the cache can report what the settle farm did.
        self.presettle_stats = None

    @staticmethod
    def _admits(key: Hashable, value: object) -> bool:
        """A measurement or an error text under a non-empty tuple key."""
        # Lazy import: the sequencer imports this module.
        from repro.core.sequencer import ToneMeasurement

        return (isinstance(key, tuple) and bool(key)
                and isinstance(value, (ToneMeasurement, str)))


# ----------------------------------------------------------------------
# shipping finished tones to lot-pool workers
# ----------------------------------------------------------------------
def warm_shipment(
    cache: Optional[BoundedCache], plls: Iterable
) -> Optional[CacheEntries]:
    """The entries of ``cache`` worth shipping to a worker running ``plls``.

    The lot pool and the sweep-job service ship their
    :class:`ToneMeasurementCache` this way (``None`` ships nothing and
    returns ``None``).  A shared cache holds every physics family a lot
    or a service session has touched, but a worker can only use
    entries of its own devices' families, so the export is filtered to
    their physics signatures — the pickled payload stays proportional to
    the worker's share, not to the cache's history.  Every lookup key
    leads with the signature of the device doing the lookup, so an
    entry ships when ``key[0]`` is one of the workers' signatures.  A
    device whose signature cannot be computed ships everything.
    """
    if cache is None:
        return None
    entries = cache.export()
    try:
        signatures = {pll.physics_signature() for pll in plls}
    except Exception:  # noqa: BLE001 - exotic device: ship everything
        return entries
    return tuple(
        (key, value) for key, value in entries if key[0] in signatures
    )

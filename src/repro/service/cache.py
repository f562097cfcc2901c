"""The answer-cache tiers: in-memory LRU (L1) and its disk spill (L2).

The service read path is three tiers deep (see ``docs/service.md``):

* **L1** — :class:`ResultCache`, a bounded in-memory LRU of finished
  *answers* (JSON-ready payloads) keyed by content address
  (:func:`repro.service.queries.query_key`).  A repeat query is a
  dictionary move-to-front, never a re-price.
* **L2** — :class:`SpillCache`: answers evicted from L1 spill to disk
  through the trace cache's own
  :class:`~repro.engine.trace_cache.EntryStore` (one ``<key>.json`` per
  entry, atomic writes, a torn file is a miss), so a cold L1 still
  answers from a file read instead of a solve.  Entries are content
  addressed and never change, so each is written once per process.
  :class:`TieredResultCache` wires L1 eviction → L2 spill and L2 hit →
  L1 promotion together.
* **L3** — the engine's :class:`~repro.engine.trace_cache.TraceCache`
  of *solve profiles* (the expensive kernel compute); an L1+L2 miss
  that still hits L3 re-prices a cached solve instead of re-solving.

Thread-safe: client threads and the event loop read stats while the
dispatcher thread inserts, so every access takes the internal lock.
Payloads are treated as immutable once inserted — the broker hands the
same dict to every waiter, which is safe precisely because nothing
mutates answers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.engine.trace_cache import EntryStore

#: Bumped when the spill-file envelope changes; mismatched entries are
#: treated as misses, exactly like the trace cache's format version.
#: Version 2 keeps the payload's key order, so an answer read back from
#: the spill encodes to the same bytes as the one that was evicted.
SPILL_FORMAT_VERSION = 2


class ResultCache:
    """A bounded LRU mapping query keys to answered payload dicts.

    Args:
        capacity: Maximum number of retained answers; the least recently
            used entry is evicted on overflow.  Must be >= 1.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for ``key`` (refreshed as most recent)."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return payload

    def put(self, key: str, payload: dict) -> None:
        """Insert ``payload`` under ``key``, evicting the LRU overflow.

        Evicted entries are handed to :meth:`_on_evict` *outside* the
        lock (the hook may do file I/O), which is how the tiered
        subclass spills them to disk.
        """
        evicted = []
        with self._lock:
            self._entries[key] = payload
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted.append(self._entries.popitem(last=False))
                self.evictions += 1
        for old_key, old_payload in evicted:
            self._on_evict(old_key, old_payload)

    def _on_evict(self, key: str, payload: dict) -> None:
        """Eviction hook; the base cache just forgets the entry."""

    def get_tiered(self, key: str) -> Tuple[Optional[dict], Optional[str]]:
        """Look ``key`` up across tiers: ``(payload, tier)`` or ``(None, None)``.

        The base cache has only one tier, so the tier tag is ``"l1"``
        on a hit.  :class:`TieredResultCache` extends the walk to L2.
        """
        payload = self.get(key)
        return (payload, "l1") if payload is not None else (None, None)

    def __len__(self) -> int:
        """Number of currently cached answers."""
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership without touching recency or hit/miss counts."""
        with self._lock:
            return key in self._entries

    def as_dict(self) -> dict:
        """JSON-friendly stats snapshot (hit rate included)."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": (self.hits / total) if total else 0.0,
            }


class SpillCache:
    """The on-disk L2 tier: one ``<key>.json`` file per spilled answer.

    Each file holds a versioned ``{spill_version, key, payload}``
    envelope in an :class:`~repro.engine.trace_cache.EntryStore`.  A
    torn, foreign, non-object or version-mismatched file is a miss.  A key
    whose file this process has written or read whole is not written
    again; a miss forgets the key, so a torn file is rewritten on the
    next spill.

    Args:
        spill_dir: Directory for spilled entries (created if missing).
    """

    def __init__(self, spill_dir):
        self._store = EntryStore(spill_dir)
        self.spill_dir = self._store.root
        self._lock = threading.Lock()
        self._whole: set = set()
        self.hits = 0
        self.misses = 0
        self.puts = 0

    def get(self, key: str) -> Optional[dict]:
        """The spilled payload for ``key``, or None on any kind of miss."""
        entry = self._store.read(key) or {}
        payload = entry.get("payload")
        whole = (
            entry.get("spill_version") == SPILL_FORMAT_VERSION
            and entry.get("key") == key
            and isinstance(payload, dict)
        )
        with self._lock:
            if not whole:
                self._whole.discard(key)
                self.misses += 1
                return None
            self._whole.add(key)
            self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Spill ``payload`` under ``key`` unless its file is already whole."""
        with self._lock:
            if key in self._whole:
                return
        self._store.write(key, {
            "spill_version": SPILL_FORMAT_VERSION,
            "key": key,
            "payload": payload,
        })
        with self._lock:
            self._whole.add(key)
            self.puts += 1

    def __contains__(self, key: str) -> bool:
        """Membership without touching hit/miss counts."""
        return key in self._store

    def __len__(self) -> int:
        """Number of spilled entries on disk."""
        return len(self._store)

    def as_dict(self) -> dict:
        """JSON-friendly stats snapshot."""
        with self._lock:
            return {
                "dir": str(self.spill_dir),
                "entries": len(self),
                "hits": self.hits,
                "misses": self.misses,
                "puts": self.puts,
            }


class TieredResultCache(ResultCache):
    """L1 LRU + L2 disk spill, wired eviction-down / promotion-up.

    Evictions from the bounded in-memory tier spill to ``spill_dir``
    instead of vanishing; an L1 miss re-checks the spill and, on a hit,
    promotes the answer back into L1 (possibly spilling something else
    — the tiers stay complementary).  A
    :class:`~repro.service.shard.ShardPool` given a ``spill_dir``
    answers through one.

    Args:
        capacity: L1 entries retained in memory.
        spill_dir: Directory for the L2 spill files.
    """

    def __init__(self, capacity: int = 1024, spill_dir=None):
        super().__init__(capacity)
        if spill_dir is None:
            raise ValueError("TieredResultCache requires a spill_dir")
        self.spill = SpillCache(spill_dir)
        self.l2_promotions = 0

    def _on_evict(self, key: str, payload: dict) -> None:
        """Spill an evicted L1 entry to the L2 directory."""
        self.spill.put(key, payload)

    def get_tiered(self, key: str) -> Tuple[Optional[dict], Optional[str]]:
        """Walk L1 then L2; promote L2 hits back into L1."""
        payload = self.get(key)
        if payload is not None:
            return payload, "l1"
        payload = self.spill.get(key)
        if payload is None:
            return None, None
        self.put(key, payload)
        with self._lock:
            self.l2_promotions += 1
        return payload, "l2"

    def as_dict(self) -> dict:
        """L1 stats plus an ``l2`` section (spill stats + promotions)."""
        stats = super().as_dict()
        l2 = self.spill.as_dict()
        with self._lock:
            l2["promotions"] = self.l2_promotions
        stats["l2"] = l2
        return stats

"""Content-addressed cache of solved kernel profiles.

Keys are the :func:`~repro.engine.planner.solve_key` hash of (kernel name,
canonical factory kwargs, scalar, seed, repetition counts) — any change to
what a kernel would actually execute changes the key, so invalidation is
automatic.  Two layers back the lookup:

* an in-process dict, so one sweep never solves the same configuration
  twice even without a cache directory;
* an optional on-disk :class:`EntryStore` of ``<key>.json`` profile
  snapshots, so repeated sweeps (CLI reruns, benchmark regenerations,
  test sessions) hit disk instead of recomputing SIFT pyramids and
  RANSAC trials.

Each solve is written as it finishes, so a killed run rerun with the same
``cache_dir`` re-solves only what had not finished.  :class:`EntryStore`
(shared with the service's L2 spill) writes through a temp file + atomic
rename; a missing, torn, or non-object file reads as a miss.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.engine.profile import KernelProfile


class EntryStore:
    """A directory of ``<key>.json`` files, one JSON object per key.

    Args:
        root: Directory holding the entries (created if missing).
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        """The file owning ``key``."""
        return self.root / f"{key}.json"

    def read(self, key: str) -> Optional[dict]:
        """The object under ``key``; None if missing, torn, or not one."""
        try:
            entry = json.loads(self.path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return entry if isinstance(entry, dict) else None

    def write(self, key: str, entry: dict) -> None:
        """Store ``entry`` as compact JSON, keys in insertion order.

        The bytes go to a temp file that is then renamed over the entry,
        so readers see the old file or the new one, never a torn write.
        """
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.root), prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, separators=(",", ":")))
            os.replace(tmp_name, self.path(key))
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise

    def __contains__(self, key: str) -> bool:
        return self.path(key).is_file()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


@dataclass
class CacheStats:
    """Hit/miss accounting, surfaced through :func:`~repro.engine.sweep_summary`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0

    @property
    def hits(self) -> int:
        """Total hits, memory and disk combined."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """JSON-safe snapshot for sweep summaries."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
        }


@dataclass
class TraceCache:
    """Two-level (memory + optional disk) store of kernel profiles."""

    cache_dir: Optional[Union[str, Path]] = None
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: Dict[str, KernelProfile] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._disk: Optional[EntryStore] = None
        if self.cache_dir is not None:
            self._disk = EntryStore(self.cache_dir)
            self.cache_dir = self._disk.root

    def get(self, key: str) -> Optional[KernelProfile]:
        """Look up a profile by content address.

        Args:
            key: Solve key from
                :func:`~repro.engine.planner.solve_key`.

        Returns:
            The cached :class:`KernelProfile`, or None on a miss
            (including torn/stale/foreign disk entries, which are
            treated as misses and later overwritten).
        """
        if key in self._memory:
            self.stats.memory_hits += 1
            return self._memory[key]
        entry = self._disk.read(key) if self._disk is not None else None
        try:
            profile = KernelProfile.from_dict(entry) if entry else None
        except (ValueError, KeyError, TypeError):
            # Stale or foreign entry: a fresh solve will overwrite it.
            profile = None
        if profile is None:
            self.stats.misses += 1
            return None
        self._memory[key] = profile
        self.stats.disk_hits += 1
        return profile

    def put(self, key: str, profile: KernelProfile) -> None:
        """Store a profile in memory and (when configured) on disk."""
        self._memory[key] = profile
        if self._disk is not None:
            self._disk.write(key, profile.to_dict())
            self.stats.puts += 1

    def profiles(self) -> Dict[str, KernelProfile]:
        """Snapshot of every profile currently resident in memory.

        Keyed by solve key, in insertion order.  This is the handle
        batch-pricing callers use to re-price a warmed cache without
        re-running any sweep: pair each profile with the (arch, cache)
        cells of interest and hand them to ``repro.api.price_batch``.
        Disk-only entries (never fetched this process) are not included.
        """
        return dict(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or (
            self._disk is not None and key in self._disk
        )

    def __len__(self) -> int:
        disk = len(self._disk) if self._disk is not None else 0
        return max(len(self._memory), disk)

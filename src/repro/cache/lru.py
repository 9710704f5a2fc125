"""LRU caches for decoded chunks (paper §3.2).

Two separate caches exist: the fetcher's *prefetch cache* (2x the
parallelization) fed by the prefetcher, and the reader's materialized-bytes
cache, which is the paper's *access cache*: it holds the chunks the reader
actually consumed, as served bytes. Keeping them separate prevents
speculative results from evicting data the consumer is about to re-read
(prefetch cache pollution).

False positives get inserted under an offset nobody ever requests; they age
out through normal LRU eviction, which is the mechanism that makes the
whole architecture robust (paper §3).

Beyond the paper: entry-count capacity assumes chunks of roughly uniform
size, which a high-ratio input (a gzip bomb) breaks by orders of
magnitude. A cache built with ``sizer=`` therefore also accounts *bytes*
per entry, optionally evicts by a ``max_bytes`` ceiling, and reports its
charges to a shared :class:`~repro.cache.budget.MemoryGovernor` account —
the byte-capacity half of the memory-governed pipeline.

Membership checks (``in``), :meth:`peek`, and :meth:`keys` deliberately
touch neither the recency order nor the hit/miss statistics: the
fetcher's prefetch scan probes the prefetch cache on every access, and
counting those probes as lookups would both pollute the LRU order (aging
out data the consumer is about to re-read) and inflate the reported hit
rates.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import UsageError

__all__ = ["CacheStatistics", "LRUCache"]


@dataclass
class CacheStatistics:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    bytes_evicted: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        """Plain snapshot for ``statistics()`` surfaces — handing out the
        live mutable object would let callers corrupt the counts."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "bytes_evicted": self.bytes_evicted,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Thread-safe least-recently-used mapping with a fixed capacity.

    ``sizer`` (value -> bytes) enables per-entry byte accounting;
    ``max_bytes`` then adds byte-capacity eviction on top of the entry
    count. The newest entry is never evicted on its own account, so an
    oversized single entry still caches (and its true size is charged) —
    dropping it instead would send every oversized chunk back to a full
    re-decode. ``governor``/``account`` mirror the cache's charged bytes
    into a shared :class:`~repro.cache.budget.MemoryGovernor`.
    """

    def __init__(self, capacity: int, *, max_bytes: int = None, sizer=None,
                 governor=None, account: str = None):
        if capacity < 1:
            raise UsageError("cache capacity must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise UsageError("cache max_bytes must be at least 1")
        if max_bytes is not None and sizer is None:
            raise UsageError("max_bytes requires a sizer")
        if governor is not None and account is None:
            raise UsageError("a governed cache needs an account name")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.statistics = CacheStatistics()
        self._sizer = sizer
        self._governor = governor
        self._account = account
        self._entries: OrderedDict = OrderedDict()
        self._sizes: dict = {}
        self.current_bytes = 0
        self.peak_bytes = 0
        self._lock = threading.Lock()

    # -- byte accounting ---------------------------------------------------------

    def _charge(self, key, value) -> None:
        if self._sizer is None:
            return
        size = self._sizer(value)
        self._sizes[key] = size
        self.current_bytes += size
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes
        if self._governor is not None:
            self._governor.charge(self._account, size)

    def _discharge(self, key) -> int:
        if self._sizer is None:
            return 0
        size = self._sizes.pop(key, 0)
        self.current_bytes -= size
        if self._governor is not None:
            self._governor.discharge(self._account, size)
        return size

    def _over_capacity(self) -> bool:
        if len(self._entries) > self.capacity:
            return True
        return (
            self.max_bytes is not None
            and self.current_bytes > self.max_bytes
            and len(self._entries) > 1  # never evict the sole (newest) entry
        )

    def _evict_lru(self) -> None:
        key, _ = self._entries.popitem(last=False)
        self.statistics.evictions += 1
        self.statistics.bytes_evicted += self._discharge(key)

    # -- mapping API -------------------------------------------------------------

    def get(self, key, default=None):
        """Look up ``key``, refreshing its recency on a hit."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.statistics.hits += 1
                return self._entries[key]
            self.statistics.misses += 1
            return default

    def peek(self, key, default=None):
        """Look up without updating recency or statistics."""
        with self._lock:
            return self._entries.get(key, default)

    def insert(self, key, value) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._discharge(key)  # replacement: swap the charge
            self._entries[key] = value
            self._charge(key, value)
            self.statistics.insertions += 1
            while self._over_capacity():
                self._evict_lru()

    def pop(self, key, default=None):
        with self._lock:
            if key in self._entries:
                self._discharge(key)
                return self._entries.pop(key)
            return default

    def clear(self) -> None:
        with self._lock:
            if self._governor is not None:
                self._governor.discharge(self._account, self.current_bytes)
            self._entries.clear()
            self._sizes.clear()
            self.current_bytes = 0

    def snapshot(self) -> dict:
        """Statistics plus live occupancy (entries and resident bytes) —
        the shape the ``/metrics`` exporter and ``statistics()`` expose."""
        with self._lock:
            snapshot = self.statistics.as_dict()
            snapshot["entries"] = len(self._entries)
            snapshot["capacity"] = self.capacity
            snapshot["current_bytes"] = self.current_bytes
            snapshot["peak_bytes"] = self.peak_bytes
            return snapshot

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list:
        with self._lock:
            return list(self._entries.keys())

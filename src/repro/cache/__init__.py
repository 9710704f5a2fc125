"""Caching layer: LRU chunk caches, prefetch strategies, and the
memory-budget machinery (governor, byte accounting)."""

from .budget import MemoryGovernor, format_size, parse_size
from .lru import CacheStatistics, LRUCache
from .strategies import (
    FetchMultiStream,
    FetchNextAdaptive,
    FetchNextFixed,
    PrefetchStrategy,
)

__all__ = [
    "CacheStatistics",
    "LRUCache",
    "MemoryGovernor",
    "format_size",
    "parse_size",
    "FetchMultiStream",
    "FetchNextAdaptive",
    "FetchNextFixed",
    "PrefetchStrategy",
]

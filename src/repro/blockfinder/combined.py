"""Combined finder: Dynamic + Non-Compressed, lowest candidate wins (§3.4)."""

from __future__ import annotations

from .base import BlockFinder
from .uncompressed import UncompressedBlockFinder
from .vectorized import VectorizedDynamicBlockFinder

__all__ = ["CombinedBlockFinder"]


class CombinedBlockFinder(BlockFinder):
    """Finds both candidate kinds and returns the earlier offset.

    The per-kind candidates are cached so an interleaved sequence of calls
    (the common pattern: the chunk decoder retries candidate after
    candidate) does not rescan the slower Dynamic finder for positions it
    already cleared.
    """

    def __init__(self, source, counter: dict = None):
        self.dynamic = VectorizedDynamicBlockFinder(source, counter=counter)
        self.uncompressed = UncompressedBlockFinder(source)
        self._cached_dynamic = None  # (queried offset, until, result)
        self._cached_nc = None

    @staticmethod
    def _lookup(cache, bit_offset, until):
        if cache is None:
            return False, None
        cached_from, cached_until, cached_result = cache
        if cached_until != until or cached_from > bit_offset:
            return False, None
        if cached_result is not None and cached_result < bit_offset:
            return False, None
        return True, cached_result

    def _next_dynamic(self, bit_offset: int, until):
        hit, cached = self._lookup(self._cached_dynamic, bit_offset, until)
        if hit:
            return cached
        result = self.dynamic.find_next(bit_offset, until)
        self._cached_dynamic = (bit_offset, until, result)
        return result

    def _next_nc(self, bit_offset: int, until):
        hit, cached = self._lookup(self._cached_nc, bit_offset, until)
        if hit:
            return cached
        result = self.uncompressed.find_next(bit_offset, until)
        self._cached_nc = (bit_offset, until, result)
        return result

    def find_next(self, bit_offset: int, until: int = None):
        dynamic = self._next_dynamic(bit_offset, until)
        nc = self._next_nc(bit_offset, until)
        if dynamic is None:
            return nc
        if nc is None:
            return dynamic
        return min(dynamic, nc)

"""Combined finder: Dynamic + Non-Compressed, lowest candidate wins (§3.4)."""

from __future__ import annotations

from .uncompressed import UncompressedBlockFinder
from .vectorized import VectorizedDynamicBlockFinder
from .window import WindowedBlockFinder

__all__ = ["CombinedBlockFinder"]


class CombinedBlockFinder(WindowedBlockFinder):
    """The production finder: one window loop over both candidate kinds.

    Each window is read once and filtered for Dynamic and Non-Compressed
    headers; survivors of both are served in offset order, so the earlier
    candidate wins, and a Dynamic survivor is strictly parsed only when the
    search gets to it. Survivors stay queued across calls (the chunk decoder
    retries candidate after candidate), so nothing is read or filtered
    twice. ``dynamic`` carries the strict parser's Table 1 tallies.
    """

    def __init__(self, source, counter: dict = None):
        self.dynamic = VectorizedDynamicBlockFinder(source, counter=counter)
        super().__init__(source, (self.dynamic, UncompressedBlockFinder(source)))

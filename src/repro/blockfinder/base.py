"""Block finder interface.

A block finder answers "where might the next Deflate block start at or
after this bit offset?". Answers may be false positives — the architecture
above (cache keyed by offset, §3 of the paper) tolerates them — but must
never skip a *findable* block type, or chunk stitching degrades.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = ["BlockFinder"]


class BlockFinder(ABC):
    """Abstract candidate generator over a bit stream."""

    @abstractmethod
    def find_next(self, bit_offset: int, until: int = None):
        """First candidate bit offset in ``[bit_offset, until)``, else None.

        ``until`` defaults to the end of the input. Implementations may be
        stateful for sequential efficiency but must support arbitrary
        restarts at any ``bit_offset``.
        """

    def iter_candidates(self, bit_offset: int = 0, until: int = None):
        """Yield candidates in ascending order starting at ``bit_offset``."""
        position = bit_offset
        while True:
            found = self.find_next(position, until)
            if found is None:
                return
            yield found
            position = found + 1

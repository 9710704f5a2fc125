"""Chunk chain: the growing map between compressed and decompressed space.

The paper's ``ChunkFetcher`` owns "a database for converting chunk offsets
to and from chunk indexes" (§3.2). :class:`BlockMap` is that database: an
append-only, binary-searchable list of decoded chunk records. It doubles as
the source from which the exportable seek-point index is built — index
construction is not a preprocessing step but a by-product of decoding
(§3, design goals).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import UsageError

__all__ = ["ChunkRecord", "ChunkExtent", "BlockMap"]


@dataclass
class ChunkRecord:
    """One decoded chunk's placement plus the window to decode it again."""

    start_bit: int  # compressed bit offset of the chunk's first block
    output_start: int  # decompressed offset of the chunk's first byte
    output_end: int  # decompressed offset one past the chunk's last byte
    end_bit: int  # normalized start of the next chunk (None = file end)
    window: bytes  # 32 KiB window *preceding* this chunk (b"" at stream start)
    is_stream_start: bool  # chunk begins exactly at a gzip member boundary

    @property
    def length(self) -> int:
        return self.output_end - self.output_start


class ChunkExtent(NamedTuple):
    """What is known about an already-decoded chunk besides its start bit:
    enough to decode it again by checked zlib delegation."""

    end_bit: int  # start of the next chunk; the file's end for the last one
    length: int  # decompressed bytes the chunk must produce
    window: bytes  # 32 KiB preceding the chunk
    next_window: bytes  # the successor's window, to verify the tail (or None)
    is_last: bool


class BlockMap:
    """Ordered chunk records with lookup by decompressed offset or by
    compressed start bit."""

    def __init__(self):
        self._records: list = []
        self._output_starts: list = []
        self._position_of_start: dict = {}  # start_bit -> index in _records
        self.finalized = False  # True once the file end has been reached

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, index: int) -> ChunkRecord:
        return self._records[index]

    @property
    def frontier_bit(self):
        """Where the next undecoded chunk starts (None before first append
        or after finalization)."""
        if not self._records:
            return None
        return self._records[-1].end_bit

    @property
    def known_size(self) -> int:
        """Decompressed bytes covered so far (the total size if finalized)."""
        return self._records[-1].output_end if self._records else 0

    def append(self, record: ChunkRecord) -> None:
        if self.finalized:
            raise UsageError("append to a finalized BlockMap")
        if self._records:
            last = self._records[-1]
            if record.output_start != last.output_end:
                raise UsageError(
                    f"chunk records must be contiguous: {record.output_start} "
                    f"!= {last.output_end}"
                )
            if last.end_bit != record.start_bit:
                raise UsageError(
                    f"compressed offsets must chain: {last.end_bit} != "
                    f"{record.start_bit}"
                )
        elif record.output_start != 0:
            raise UsageError("first chunk record must start at output 0")
        self._position_of_start[record.start_bit] = len(self._records)
        self._records.append(record)
        self._output_starts.append(record.output_start)
        if record.end_bit is None:
            self.finalized = True

    def chunk_index_for_output(self, offset: int) -> int:
        """Index of the chunk containing decompressed ``offset``.

        Raises :class:`IndexError` when the offset is beyond the decoded
        frontier — the caller must keep decoding forward first.
        """
        if offset < 0:
            raise UsageError(f"negative offset {offset}")
        index = bisect.bisect_right(self._output_starts, offset) - 1
        if index < 0 or offset >= self._records[index].output_end:
            raise IndexError(f"offset {offset} beyond decoded frontier")
        return index

    def record_for_output(self, offset: int) -> ChunkRecord:
        return self._records[self.chunk_index_for_output(offset)]

    def chained_at(self, start_bit: int):
        """``(record, successor)`` of the chunk chained at ``start_bit``
        (``successor`` is ``None`` for the newest record), or ``None`` when
        no chunk is chained there."""
        position = self._position_of_start.get(start_bit)
        if position is None:
            return None
        successor = (
            self._records[position + 1]
            if position + 1 < len(self._records) else None
        )
        return self._records[position], successor

"""The chunk chain: everything known about one file's chunks, in one place.

The paper's ``ChunkFetcher`` owns "a database for converting chunk offsets
to and from chunk indexes" (§3.2). :class:`ChunkChain` is that database,
owned by the fetcher and extended by the reader, in every open mode:

* the decoded chunk records, looked up by decompressed offset (bisect) or
  by compressed start bit — built once from a finalized index, otherwise
  appended as the reader decodes the frontier. Either way there is one
  record per seek-point interval, so a chained chunk is decoded again
  exactly the way an index chunk is, one bounded interval at a time;
* the frontier: where the next undecoded chunk starts, with its window;
* ahead of the frontier, per *cell* (one ``chunk_size``-wide slice of the
  compressed file, the unit search-mode speculation works on), the start
  and window of the chunk starting there once its predecessor's window is
  known;
* the reach: the furthest cell a start and window were recorded for,
  so how far the chain of exact decodes has got;
* the retired cells, which no search should run;
* the tolerant reader's pinned bytes, which nothing can decode again.

The seek-point index is a by-product of the chain, not a preprocessing
step (§3, design goals): every frontier adds its seek point to a growing
:class:`~repro.index.GzipIndex`, a long decode is split at interior block
boundaries into more (:meth:`ChunkChain.append_split`), and the chain's
end finalizes it.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass
from typing import NamedTuple

from ..deflate.constants import MAX_WINDOW_SIZE
from ..errors import UsageError
from ..index import GzipIndex, SeekPoint
from ..index.store import window_bytes

__all__ = ["ChunkRecord", "ChunkExtent", "ChunkChain"]

#: Cells past the reach the chain is left to decode first. A block search
#: is the finder plus two lock-step libz passes over what an exact decode
#: inflates once (c_s >= 2 c_e), so while it runs the chain decodes
#: c_s / c_e >= 2 cells; searching cell reach + k only pays when k
#: exceeds that.
SEARCH_DISTANCE = 3


@dataclass
class ChunkRecord:
    """One decoded chunk's placement plus the window to decode it again."""

    start_bit: int  # compressed bit offset of the chunk's first block
    output_start: int  # decompressed offset of the chunk's first byte
    output_end: int  # decompressed offset one past the chunk's last byte
    end_bit: int  # normalized start of the next chunk (None = file end)
    # 32 KiB *preceding* this chunk (b"" at stream start); in index mode
    # the seek point's own window
    window: bytes
    is_stream_start: bool  # chunk begins exactly at a gzip member boundary
    # start bit of the first record of the decode this one was split from
    # (append_split), the key of the entry holding its bytes; else None
    decode_start: int = None

    @property
    def length(self) -> int:
        return self.output_end - self.output_start


class ChunkExtent(NamedTuple):
    """What is known about a chained chunk: enough to decode it again in
    one exact pass."""

    start_bit: int
    end_bit: int  # start of the next chunk; None for the file's last
    length: int  # decompressed bytes the chunk must produce
    window: bytes  # 32 KiB preceding the chunk
    next_window: bytes  # the successor's window, to verify the tail (or None)
    is_last: bool

    @property
    def label(self) -> str:
        """The chunk's name as a task key, in the trace and at fault
        sites: its start bit, spelled apart from a search's cell."""
        return f"bit:{self.start_bit}"


class ChunkChain:
    """Chunk records, frontier, per-cell starts ahead of it and retired
    cells of one file.

    ``index`` is the seek-point index the chain grows (a fresh one when
    ``None``); a finalized one is the whole chain at once. ``cell_bits``
    and ``cells`` lay out the search-mode cells; ``ahead_limit`` bounds
    the windows held ahead of the frontier.
    """

    def __init__(self, index: GzipIndex = None, *, cell_bits: int = None,
                 cells: int = 0, ahead_limit: int = 4):
        self.index = index if index is not None else GzipIndex()
        self.cell_bits = cell_bits
        self.cells = cells
        self.ahead_limit = ahead_limit
        self._records: list = []
        self._output_starts: list = []
        self._position_of_start: dict = {}  # start_bit -> index in _records
        #: ``(start_bit, window, is_stream_start)`` of the next chunk to
        #: decode; ``None`` before the reader starts and after the end.
        self.frontier = None
        #: cell -> ``(start_bit, window)`` of the chunk starting in it,
        #: once its predecessor's window is known; see :meth:`hand_over`.
        self.ahead: dict = {}
        #: the furthest cell :meth:`hand_over` recorded a start and window
        #: for; ``None`` before the first and after :meth:`close`
        self.reach = None
        #: cells no search should run: inside a known chunk, or past the
        #: file's last (see :meth:`hand_over`)
        self.retired: set = set()
        #: start_bit -> bytes the tolerant reader recovered or filled in
        self.pinned: dict = {}
        self._lock = threading.Lock()
        if self.index.finalized:
            points = self.index.seek_points
            for position, point in enumerate(points):
                last = position + 1 == len(points)
                self.append(ChunkRecord(
                    start_bit=point.compressed_bit_offset,
                    output_start=point.uncompressed_offset,
                    output_end=(
                        self.index.uncompressed_size if last
                        else points[position + 1].uncompressed_offset
                    ),
                    end_bit=(
                        None if last
                        else points[position + 1].compressed_bit_offset
                    ),
                    window=point.window,
                    is_stream_start=point.is_stream_start,
                ))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, index: int) -> ChunkRecord:
        return self._records[index]

    @property
    def finalized(self) -> bool:
        """True once a record reaches the file's end."""
        return bool(self._records) and self._records[-1].end_bit is None

    @property
    def known_size(self) -> int:
        """Decompressed bytes covered so far (the total size if finalized)."""
        return self._records[-1].output_end if self._records else 0

    def append(self, record: ChunkRecord) -> None:
        if self.finalized:
            raise UsageError("append to a finalized ChunkChain")
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

    def position(self, start_bit: int):
        """Index of the record chained at ``start_bit``, or ``None``."""
        return self._position_of_start.get(start_bit)

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

    # -- what a decode of a chained chunk needs --------------------------------

    def extent(self, start_bit: int):
        """The :class:`ChunkExtent` of the chunk chained at ``start_bit``,
        or ``None`` when none is or its bytes are pinned.

        The tail is checked against the window the successor (or the
        frontier) starts from; a successor at a stream start leaves it
        unchecked.
        """
        position = self._position_of_start.get(start_bit)
        if position is None or start_bit in self.pinned:
            return None
        record = self._records[position]
        window = window_bytes(record.window)
        next_window = None
        if position + 1 < len(self._records):
            successor = self._records[position + 1]
            if not successor.is_stream_start:
                next_window = successor.window
        elif self.frontier is not None and not self.frontier[2]:
            next_window = self.frontier[1]
        return ChunkExtent(
            start_bit, record.end_bit, record.length, window,
            window_bytes(next_window) if next_window else None,
            record.end_bit is None,
        )

    def hand_over(self, result, window: bytes) -> None:
        """Record where a chunk decoded from a known ``window`` hands over:
        its successor's start and window enter :attr:`ahead` (at most
        ``ahead_limit`` of them), and the cells it covers — strictly
        inside it, or past it when it ran to the file's end — retire."""
        cell = result.start_bit // self.cell_bits
        if result.end_bit is None:
            with self._lock:
                self.retired.update(range(cell + 1, self.cells))
            return
        next_cell = result.end_bit // self.cell_bits
        entry = (result.end_bit, result.next_window(window))
        with self._lock:
            self.retired.update(range(cell + 1, next_cell))
            self.ahead[next_cell] = entry
            if len(self.ahead) > self.ahead_limit:
                del self.ahead[min(self.ahead)]
            if self.reach is None or next_cell > self.reach:
                self.reach = next_cell

    def within_reach(self, cell: int) -> bool:
        """True when the chain gets to ``cell`` before a block search of it
        would pay off: fewer than :data:`SEARCH_DISTANCE` cells past the
        reach. Nothing is before the first hand-over (and in index mode,
        which never hands over)."""
        reach = self.reach
        return reach is not None and cell < reach + SEARCH_DISTANCE

    def close(self) -> None:
        """Nothing decodes again: drop the windows held ahead and the reach."""
        with self._lock:
            self.ahead.clear()
            self.reach = None

    # -- the frontier ------------------------------------------------------------

    def advance(self, start_bit: int, window: bytes,
                is_stream_start: bool) -> None:
        """Move the frontier to the chunk at ``start_bit``, right after the
        newest record; a growing index gets its seek point."""
        self.frontier = (start_bit, window, is_stream_start)
        if not self.index.finalized:
            self.index.add(SeekPoint(
                start_bit, self.known_size, window,
                is_stream_start=is_stream_start,
            ))

    def append_split(self, record: ChunkRecord, data: bytes, boundaries,
                     spacing: int) -> None:
        """Append a frontier decode ``record`` (its ``data`` and block
        ``boundaries``) as one record per seek-point interval.

        A decode longer than ``spacing`` decompressed bytes is split at
        interior Deflate block boundaries at least ``spacing`` apart (paper
        §1.4): each adds its seek point to the growing index, and its
        interval is one record, carrying the seek point's window and ending
        where the next interval starts. The windows come straight from
        ``data``, so splitting costs nothing extra, and a seek into an
        interval decodes that interval alone — through the chain as
        through an exported index — which bounds both seek latency and
        the per-chunk memory of a later index import. Every later
        interval records the decode's start bit (``decode_start``).
        """
        cuts = []  # (bit offset, offset in data, window) per interior point
        if record.length > spacing:
            next_emit = spacing
            for boundary in boundaries:
                # Only interior Dynamic blocks: their bit offsets are
                # unambiguous, the stop predicate of future chunk decodes
                # matches them, and an exact pass can end and resume there.
                offset = boundary.output_offset
                if (offset == 0 or boundary.is_final
                        or boundary.block_type != 2 or offset < next_emit
                        or offset >= record.length):
                    continue
                window_start = max(offset - MAX_WINDOW_SIZE, 0)
                window = data[window_start:offset]
                if window_start == 0 and len(window) < MAX_WINDOW_SIZE:
                    window = (record.window + window)[-MAX_WINDOW_SIZE:]
                cuts.append((boundary.bit_offset, offset, window))
                next_emit = offset + spacing
        cuts.append((record.end_bit, record.length, None))
        start_bit, start, window = record.start_bit, 0, record.window
        for end_bit, end, next_window in cuts:
            interval = ChunkRecord(
                start_bit=start_bit,
                output_start=record.output_start + start,
                output_end=record.output_start + end,
                end_bit=end_bit,
                window=window,
                is_stream_start=record.is_stream_start and not start,
                decode_start=record.start_bit if start else None,
            )
            if start:
                self.index.add(SeekPoint(
                    start_bit, interval.output_start, window,
                ))
            self.append(interval)
            start_bit, start, window = end_bit, end, next_window

    def end(self, size_bits: int) -> None:
        """The frontier ends: nothing is left to decode. A growing index
        is finalized at the chain's size and ``size_bits``."""
        self.frontier = None
        if not self.index.finalized:
            self.index.finalize(self.known_size, size_bits)

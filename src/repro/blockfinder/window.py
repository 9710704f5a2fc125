"""The one scan loop behind every production finder (paper §3.4).

A search usually ends a few KiB into a chunk, so the loop scans *windows* —
4 KiB first, doubling up to a cap — and returns as soon as one holds an
accepted candidate. Each window is read once, clipped to ``until`` plus
the probe bytes, and handed to every *kind*: its ``scan_window(data,
base_bit, start_bit, stop_bit)`` returns the ascending offsets in
``[start_bit, stop_bit)`` that pass its vectorized filter (``data[0]`` is
the file byte at ``base_bit``); its ``accepts(bits, offset)`` is ``None`` or
a strict test of a survivor, run in offset order until one passes, on a
``BitReader`` that holds the window.

The range already filtered, its survivors not yet handed out and the next
window size carry over between calls: ``find_next(offset + 1)`` after a
false positive resumes from the queue, ``iter_candidates`` reads each byte
about once, an offset outside the range restarts the loop there, and
``until`` clips what a call reads and serves, never what is remembered.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter

from ..io import BitReader, ensure_file_reader
from .base import BlockFinder

__all__ = ["WindowedBlockFinder", "PROBE_BITS"]

#: Bits past a position the filters look at: a Dynamic header's 17 fixed
#: bits and 19 precode triplets (the Non-Compressed kind needs 35).
PROBE_BITS = 17 + 19 * 3
_READ_AHEAD = PROBE_BITS // 8 + 8  # ... and the filters' 8-byte gathers
_FIRST_WINDOW = 4 * 1024
#: Where the sustained scan rate is still flat and the filters' NumPy
#: scratch stays near 2 MiB (measured: EXPERIMENTS.md, "Scan window cap").
_WINDOW_CAP = 32 * 1024
#: Longest Dynamic header in bytes: 17 + 57 bits, then 286 + 32 code
#: lengths of at most a 7-bit precode symbol with 7 extra bits.
_MAX_HEADER = (PROBE_BITS + (286 + 32) * 14) // 8 + 2


class WindowedBlockFinder(BlockFinder):
    """Ramped, read-bounded, resumable scan over ``kinds`` (default: itself)."""

    def __init__(self, source, kinds=None):
        self._reader = ensure_file_reader(source)
        self._kinds = kinds or (self,)
        # For the strict parses: its cache is each window in turn, and only a
        # header running past one is followed into the file, this far at most.
        self._bits = BitReader(self._reader, cache_size=_MAX_HEADER)
        self._restart(0)

    def _restart(self, bit_offset: int) -> None:
        self._start = self._end = bit_offset  # filtered: [start, end)
        self._pending = deque()  # (offset, accepts — None once accepted)
        self._window = _FIRST_WINDOW

    def find_next(self, bit_offset: int, until: int = None):
        size_bits = self._reader.size() * 8
        limit = size_bits if until is None else min(until, size_bits)
        if not self._start <= bit_offset <= self._end:
            self._restart(bit_offset)
        self._start = bit_offset
        pending = self._pending
        while pending and pending[0][0] < bit_offset:
            pending.popleft()
        while True:
            while pending and pending[0][0] < limit:
                offset, accepts = pending[0]
                if accepts is None or accepts(self._bits, offset):
                    pending[0] = (offset, None)
                    return offset
                pending.popleft()
            if self._end >= limit:
                return None
            self._scan_window(limit, size_bits)

    def _scan_window(self, limit: int, size_bits: int) -> None:
        """Read the next window and queue every kind's survivors in it."""
        first_byte = self._end // 8
        stop_byte = min(first_byte + self._window, limit // 8) + _READ_AHEAD
        data = self._reader.pread(first_byte, stop_byte - first_byte)
        base_bit = first_byte * 8
        stop_bit = base_bit + len(data) * 8
        scanned = min(stop_bit - PROBE_BITS, base_bit + self._window * 8)
        if first_byte + len(data) < stop_byte or stop_bit >= size_bits:
            scanned = size_bits  # the file ends here: nothing is left over
        survivors = [
            (offset, kind.accepts)
            for kind in self._kinds
            for offset in kind.scan_window(data, base_bit, self._end, scanned)
        ]
        self._pending.extend(sorted(survivors, key=itemgetter(0)))
        self._bits.import_state((0, 0, first_byte, data, first_byte))
        self._end = scanned
        self._window = min(self._window * 2, _WINDOW_CAP)

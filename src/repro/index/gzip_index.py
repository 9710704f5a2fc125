"""Seek-point index (paper §1.3, "Index for Seeking").

Each seek point stores the compressed *bit* offset, the decompressed byte
offset, and the 32 KiB window needed to resume decompression there. The
index is built as a by-product of decompression and can be exported and
re-imported (like indexed_gzip); with a finalized index loaded:

* seeking is O(log n) + decoding at most one seek-point interval,
* a chunk decodes in one exact libz pass (>2x faster than two-stage),
* workloads are balanced, because the points are equally spaced in
  *decompressed* space.

This module holds the in-memory index only. Its bytes on disk are
:mod:`repro.index.store`'s: format v2 is the one format written, and
legacy v1 files are import-only; both layouts are described there.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..errors import UsageError

__all__ = ["SeekPoint", "GzipIndex"]


@dataclass(frozen=True)
class SeekPoint:
    """A resumable position: bit offset, byte offset, preceding window."""

    compressed_bit_offset: int
    uncompressed_offset: int
    window: bytes  # up to 32 KiB; b"" when the point is a stream start
    is_stream_start: bool = False


class GzipIndex:
    """Sorted collection of seek points."""

    def __init__(self):
        self._points: list = []
        self._uncompressed_offsets: list = []
        self.finalized = False
        self.uncompressed_size = 0
        self.compressed_size_bits = 0

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, index: int) -> SeekPoint:
        return self._points[index]

    @property
    def seek_points(self) -> list:
        return list(self._points)

    def add(self, point: SeekPoint) -> None:
        """Append a seek point; offsets must be strictly increasing."""
        if self.finalized:
            raise UsageError("add to a finalized index")
        if self._points:
            last = self._points[-1]
            if point.uncompressed_offset < last.uncompressed_offset or (
                point.compressed_bit_offset <= last.compressed_bit_offset
            ):
                raise UsageError("seek points must be added in increasing order")
        self._points.append(point)
        self._uncompressed_offsets.append(point.uncompressed_offset)

    def finalize(self, uncompressed_size: int, compressed_size_bits: int) -> None:
        """Mark the index complete; total sizes become known."""
        self.finalized = True
        self.uncompressed_size = uncompressed_size
        self.compressed_size_bits = compressed_size_bits

    def find(self, uncompressed_offset: int) -> SeekPoint:
        """Last seek point at or before ``uncompressed_offset``."""
        if not self._points:
            raise UsageError("index is empty")
        index = bisect_right(self._uncompressed_offsets, uncompressed_offset) - 1
        if index < 0:
            raise UsageError(
                f"offset {uncompressed_offset} precedes the first seek point"
            )
        return self._points[index]

    def index_of(self, point_offset: int) -> int:
        index = bisect_right(self._uncompressed_offsets, point_offset) - 1
        if index < 0 or self._uncompressed_offsets[index] != point_offset:
            raise UsageError(f"no seek point at offset {point_offset}")
        return index

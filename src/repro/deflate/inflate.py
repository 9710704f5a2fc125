"""Deflate stream drivers: conventional inflate and the two-stage decoder.

:func:`inflate` is the plain single-pass decoder (used by the serial
reference path and wherever the window is known). :class:`TwoStageStreamDecoder`
is the from-scratch chunk decoder (Table 2's first stage): it decodes block
after block into the marker intermediate format, falls back to conventional
byte decoding as soon as the trailing 32 KiB window is marker-free (paper
§3.3), and streams finished regions out into a
:class:`~repro.deflate.markers.ChunkPayload` to bound memory. Both run the
bounds-checked loops of :mod:`repro.deflate.block`. The chunk engine of
:mod:`repro.fetcher.decode` runs this class only where libz cannot be
loaded (else :mod:`repro.deflate.libz` yields the same payload at libz
speed, with this class as its oracle); ``pugz`` and the calibration use
it directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeflateError
from ..io import BitReader, ensure_file_reader
from .block import (
    BlockHeader,
    decode_block_into_bytearray,
    decode_block_two_stage,
    read_block_header,
)
from .constants import MARKER_FLAG, MAX_WINDOW_SIZE
from .markers import ChunkPayload, seed_marker_window_u16

__all__ = ["inflate", "InflateResult", "BlockBoundary", "TwoStageStreamDecoder"]

#: Flush the in-progress buffer into the payload once it exceeds this size;
#: only the last 32 KiB must stay addressable for backward references.
_FLUSH_THRESHOLD = 256 * 1024


@dataclass
class BlockBoundary:
    """Start of a Deflate block inside a decoded region."""

    bit_offset: int
    output_offset: int
    block_type: int
    is_final: bool


@dataclass
class InflateResult:
    data: bytes
    end_bit_offset: int
    boundaries: list


def inflate(source, window: bytes = b"", max_size: int = None) -> InflateResult:
    """Decode one complete Deflate stream conventionally.

    ``source`` may be raw bytes, a file reader, or a positioned
    :class:`BitReader` (which will be read from its current offset —
    this is how the gzip layer resumes after a stream header).
    """
    reader = source if isinstance(source, BitReader) else BitReader(ensure_file_reader(source))
    buffer = bytearray(window[-MAX_WINDOW_SIZE:])
    seed = len(buffer)
    boundaries = []
    limit = None if max_size is None else max_size + seed
    while True:
        header = read_block_header(reader)
        boundaries.append(
            BlockBoundary(header.start_bit_offset, len(buffer) - seed,
                          header.block_type, header.final)
        )
        decode_block_into_bytearray(reader, header, buffer, limit)
        if header.final:
            break
    return InflateResult(bytes(buffer[seed:]), reader.tell(), boundaries)


class TwoStageStreamDecoder:
    """Block-by-block decoder feeding a :class:`ChunkPayload`.

    With ``window=None`` it starts in first-stage (marker) mode; with a
    known window it decodes conventionally from the start. Marker mode
    looks at the trailing 32 Ki symbols at every block boundary; once they
    hold no marker, decoding *falls back* to the faster conventional mode —
    the optimization the paper credits for base64 data behaving like
    single-stage decompression (§4.4).

    The marker buffer is a native little-endian ``uint16`` bytearray
    (2 bytes per symbol) whose finished regions hand over to the payload
    without per-symbol conversion. All bookkeeping here (``produced``,
    flush cuts, ``max_size``) is in symbols — one output byte each — in
    both modes.

    ``max_size`` bounds ``produced``: the block decoders check it after
    every match, so a single runaway block raises :class:`DeflateError`
    at most one match (258 symbols) past the limit.
    """

    def __init__(self, window: bytes = None, max_size: int = None):
        self.payload = ChunkPayload()
        self.boundaries: list = []
        self._max_size = max_size
        self._emitted = 0
        if window is None:
            self._marker_buffer = seed_marker_window_u16()
            self._byte_buffer = None
            self._seed_length = MAX_WINDOW_SIZE
        else:
            self._marker_buffer = None
            self._byte_buffer = bytearray(window[-MAX_WINDOW_SIZE:])
            self._seed_length = len(self._byte_buffer)

    @property
    def in_marker_mode(self) -> bool:
        return self._marker_buffer is not None

    def _buffered(self) -> int:
        """Symbols in the active buffer, window seed included."""
        if self._marker_buffer is not None:
            return len(self._marker_buffer) >> 1
        return len(self._byte_buffer)

    @property
    def produced(self) -> int:
        return self._emitted + self._buffered() - self._seed_length

    def decode_block(self, reader, header: BlockHeader) -> None:
        """Decode one block whose header was already parsed."""
        self.boundaries.append(
            BlockBoundary(header.start_bit_offset, self.produced,
                          header.block_type, header.final)
        )
        # The block decoders bound the *buffer* length, so hand them what
        # is left of max_size on top of what the buffer already holds.
        limit = None
        if self._max_size is not None:
            limit = self._max_size - self._emitted + self._seed_length
        if self._marker_buffer is not None:
            decode_block_two_stage(reader, header, self._marker_buffer, limit)
        else:
            decode_block_into_bytearray(reader, header, self._byte_buffer, limit)
        if limit is not None and self._buffered() > limit:
            # Literal-only blocks have no per-match check to trip.
            raise DeflateError("decoded chunk exceeds configured maximum size")
        if self._marker_buffer is not None:
            self._maybe_fall_back()
        if self._buffered() > _FLUSH_THRESHOLD:
            if self._marker_buffer is not None:
                self._flush_markers(keep=MAX_WINDOW_SIZE)
            else:
                self._flush_bytes(keep=MAX_WINDOW_SIZE)

    def read_and_decode_block(self, reader) -> BlockHeader:
        """Parse the next header and decode its payload; returns the header."""
        header = read_block_header(reader)
        self.decode_block(reader, header)
        return header

    # -- internal buffer management -------------------------------------------

    def _emit_symbols(self, stop: int = None) -> None:
        """Hand marker-buffer symbols ``[seed_length, stop)`` to the payload."""
        view = memoryview(self._marker_buffer)
        end = len(view) if stop is None else stop << 1
        data = bytes(view[self._seed_length << 1 : end])
        view.release()
        self.payload.append_symbol_bytes(data)
        self._emitted += len(data) >> 1

    def _flush_markers(self, keep: int) -> None:
        cut = self._buffered() - keep
        if cut <= self._seed_length:
            return
        self._emit_symbols(cut)
        self._marker_buffer = self._marker_buffer[cut << 1 :]
        self._seed_length = 0

    def _flush_bytes(self, keep: int) -> None:
        buffer = self._byte_buffer
        cut = len(buffer) - keep
        if cut <= self._seed_length:
            return
        # bytes(memoryview) copies once; bytes(bytearray-slice) would copy
        # twice (slice, then conversion) — this runs per flush on the hot
        # post-fallback path, so the extra multi-MiB copy matters.
        view = memoryview(buffer)
        data = bytes(view[self._seed_length : cut])
        view.release()
        self.payload.append_bytes(data)
        self._emitted += cut - self._seed_length
        self._byte_buffer = buffer[cut:]
        self._seed_length = 0

    def _maybe_fall_back(self) -> None:
        """Switch to conventional decoding once the window is marker-free
        (the buffer always holds at least a window: seed or flush tail)."""
        symbols = np.frombuffer(self._marker_buffer, dtype=np.uint16)
        tail = symbols[-MAX_WINDOW_SIZE:]
        if tail.max() >= MARKER_FLAG:
            return
        self._emit_symbols()
        # Every trailing value is < 256, so narrowing to bytes is lossless;
        # already emitted, the window only seeds the byte buffer.
        self._byte_buffer = bytearray(tail.astype(np.uint8))
        self._marker_buffer = None
        self._seed_length = MAX_WINDOW_SIZE

    def finish(self) -> ChunkPayload:
        """Flush everything and return the completed payload."""
        if self._marker_buffer is not None:
            self._emit_symbols()
            self._marker_buffer = bytearray()
        else:
            view = memoryview(self._byte_buffer)
            data = bytes(view[self._seed_length :])
            view.release()
            self.payload.append_bytes(data)
            self._emitted += len(self._byte_buffer) - self._seed_length
            self._byte_buffer = bytearray()
        self._seed_length = 0
        return self.payload

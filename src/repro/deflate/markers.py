"""Marker symbols and the two-stage intermediate format (paper §2.2).

First-stage decoding of a chunk whose preceding window is unknown fills the
window with 15-bit markers: symbol ``MARKER_FLAG | w`` stands for "the byte
at offset *w* of the (future) 32 KiB window preceding this chunk". Because
markers are copied around *by value*, every marker in a chunk's output
always refers to that one chunk-start window — a single replacement pass
resolves all of them once the window is known.

Replacement is one NumPy gather per segment through a 64 Ki-entry table
that maps every symbol, literal or marker, to its byte. The paper measures
it at 1254 MB/s, an order of magnitude faster than Deflate decoding (Table
2), which is what makes the second stage cheap and the sequential window
propagation the only Amdahl term; ours runs at 810 MB/s in-thread (150
before the table: ``BENCH_decode_kernels.json``, ``marker_replacement``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import UsageError
from .constants import MARKER_FLAG, MAX_WINDOW_SIZE

__all__ = [
    "seed_marker_window_u16",
    "replace_markers",
    "segment_has_markers",
    "ChunkPayload",
    "pad_window",
]


#: Template for :func:`seed_marker_window_u16`, materialized once: copying
#: 64 KiB is far cheaper than re-rendering the range for every chunk a
#: worker decodes.
_MARKER_WINDOW_TEMPLATE_U16: bytes = None


def seed_marker_window_u16() -> bytearray:
    """The 32 Ki marker symbols that stand in for an unknown window, as a
    native ``uint16`` bytearray (2 bytes/symbol).

    Marker-mode block decoders emit symbols in the layout
    :func:`replace_markers` consumes directly, so finished regions hand
    over with a ``frombuffer`` view instead of a per-symbol conversion.
    """
    global _MARKER_WINDOW_TEMPLATE_U16
    if _MARKER_WINDOW_TEMPLATE_U16 is None:
        _MARKER_WINDOW_TEMPLATE_U16 = np.arange(
            MARKER_FLAG, MARKER_FLAG + MAX_WINDOW_SIZE, dtype=np.uint16
        ).tobytes()
    return bytearray(_MARKER_WINDOW_TEMPLATE_U16)


def pad_window(window: bytes) -> bytes:
    """Left-pad (or trim) a window to exactly :data:`MAX_WINDOW_SIZE` bytes.

    Chunks closer than 32 KiB to the stream start have a short real window;
    markers beyond it can never be produced by a valid stream, so zero
    padding is safe.
    """
    if len(window) >= MAX_WINDOW_SIZE:
        return bytes(window[-MAX_WINDOW_SIZE:])
    return bytes(MAX_WINDOW_SIZE - len(window)) + bytes(window)


#: The constant half of :func:`symbol_table`: a literal maps to itself,
#: and 256..0x7FFF, which no valid stream produces, to zero.
_LITERAL_HALF = bytes(range(256)) + bytes(MARKER_FLAG - 256)


def symbol_table(window: bytes) -> np.ndarray:
    """``table[symbol]`` is the byte a first-stage symbol stands for once the
    chunk-start ``window`` (exactly 32 KiB, see :func:`pad_window`) is known:
    ``table[s] = s`` for a literal, ``table[MARKER_FLAG | w] = window[w]``."""
    if len(window) != MAX_WINDOW_SIZE:
        raise UsageError(f"window must be {MAX_WINDOW_SIZE} bytes, got {len(window)}")
    return np.frombuffer(_LITERAL_HALF + window, dtype=np.uint8)


def replace_markers(segment: np.ndarray, window: bytes) -> bytes:
    """Resolve every marker in a uint16 segment against ``window`` — the
    second decompression stage: ``symbol_table(window)[segment]``."""
    return symbol_table(window).take(segment).tobytes()


def segment_has_markers(segment: np.ndarray) -> bool:
    return bool((segment >= MARKER_FLAG).any())


@dataclass
class ChunkPayload:
    """Decoded chunk contents in the two-stage intermediate format.

    ``segments`` is an ordered mix of ``bytes`` (fully resolved — stored
    blocks and post-fallback conventional output) and ``numpy.uint16``
    arrays (first-stage output that may contain markers). Marker offsets in
    *every* segment refer to the single window at the chunk start.
    """

    segments: list = field(default_factory=list)
    length: int = 0

    def append_bytes(self, data: bytes) -> None:
        if data:
            self.segments.append(bytes(data))
            self.length += len(data)

    def append_symbol_bytes(self, data) -> None:
        """Append first-stage symbols already in ``uint16`` memory layout.

        ``data`` is the raw little-endian byte image of a symbol run (the
        block decoders' marker buffer); ``frombuffer`` wraps it without
        converting or copying per symbol.
        """
        if data:
            self.segments.append(np.frombuffer(data, dtype=np.uint16))
            self.length += len(data) >> 1

    @property
    def nbytes(self) -> int:
        """Resident size of the stored segments (marker symbols are
        2 bytes each) — what byte-accounted caches charge for a chunk."""
        return sum(
            segment.nbytes if isinstance(segment, np.ndarray) else len(segment)
            for segment in self.segments
        )

    @property
    def has_markers(self) -> bool:
        return any(
            isinstance(segment, np.ndarray) and segment_has_markers(segment)
            for segment in self.segments
        )

    def materialize(self, window: bytes = b"") -> bytes:
        """Resolve all markers against the chunk-start ``window`` (stage 2)."""
        segments = self.segments
        if not any(isinstance(segment, np.ndarray) for segment in segments):
            # Index, BGZF and catalog chunks: nothing to gather.
            return segments[0] if len(segments) == 1 else b"".join(segments)
        table = symbol_table(pad_window(window))
        out = np.empty(self.length, dtype=np.uint8)
        position = 0
        for segment in segments:
            target = out[position : position + len(segment)]
            if isinstance(segment, np.ndarray):
                # No uint16 is out of range, and "raise" buffers the output.
                table.take(segment, out=target, mode="wrap")
            else:
                target[:] = np.frombuffer(segment, dtype=np.uint8)
            position += len(segment)
        return out.tobytes()

    def window_at_end(self, window: bytes = b"") -> bytes:
        """The resolved final 32 KiB — the next chunk's window (stage-2 tail).

        Only the trailing :data:`MAX_WINDOW_SIZE` symbols are touched; this
        is the sequential propagation step whose cost the paper bounds at
        1/128 of full replacement for 4 MiB chunks (§2.2).
        """
        padded = pad_window(window)
        pieces = []
        needed = MAX_WINDOW_SIZE
        for segment in reversed(self.segments):
            if needed <= 0:
                break
            tail = segment[-needed:]
            if isinstance(tail, np.ndarray):
                tail = replace_markers(tail, padded)
            pieces.append(tail)
            needed -= len(tail)
        combined = b"".join(reversed(pieces))
        if len(combined) < MAX_WINDOW_SIZE:
            # Short chunk: older window bytes shift in from the left.
            combined = (padded + combined)[-MAX_WINDOW_SIZE:]
        return combined

"""Corrupted-gzip recovery via the block finder (paper §1.3).

Searching for Deflate blocks was originally a forensics technique for
reconstructing damaged gzip files (Park et al. [26]); the paper notes that
rapidgzip's fast block finder directly "improves the speed for the recovery
of corrupted gzip files". This module implements that use case:

1. decode normally until corruption breaks the stream;
2. use the combined block finder to locate the next decodable block after
   the damage;
3. two-stage-decode from there — the first 32 KiB of back-references point
   into the destroyed region, so unresolved markers are replaced by a
   placeholder byte and reported.

Every segment decodes through the fetcher's chunk engine
(:func:`repro.fetcher.decode.open_chunk_stream`): libz where it loads,
the Python decoder where it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..blockfinder import CombinedBlockFinder
from ..deflate.constants import MARKER_FLAG
from ..errors import FormatError, RecoveryError
from ..fetcher.decode import open_chunk_stream
from ..gz.header import MAGIC, parse_gzip_footer, parse_gzip_header
from ..io import BitReader, ensure_file_reader

__all__ = ["RecoveredSegment", "RecoveryReport", "recover_gzip"]


@dataclass
class RecoveredSegment:
    """A contiguous decodable region found in the damaged file."""

    start_bit: int  # where decoding (re)started
    data: bytes  # recovered bytes (placeholders where markers were lost)
    unresolved: int  # bytes that referenced the destroyed window
    clean_start: bool  # True when this segment started at a gzip header


@dataclass
class RecoveryReport:
    segments: list = field(default_factory=list)

    @property
    def recovered_bytes(self) -> int:
        return sum(len(segment.data) for segment in self.segments)

    @property
    def unresolved_bytes(self) -> int:
        return sum(segment.unresolved for segment in self.segments)

    def data(self) -> bytes:
        return b"".join(segment.data for segment in self.segments)


def _decode_segment(file_reader, start_bit: int, *, window, placeholder: int):
    """Decode from ``start_bit`` as far as the stream stays consistent."""
    size_bits = file_reader.size() * 8
    end_bit = start_bit
    with open_chunk_stream(file_reader, start_bit, window) as stream:
        try:
            while stream.position < size_bits:
                final = stream.next_block()
                end_bit = stream.position
                if final:
                    reader = stream.byte_reader()
                    parse_gzip_footer(reader)
                    end_bit = reader.tell()
                    if file_reader.pread(end_bit // 8, 2) != MAGIC:
                        break
                    parse_gzip_header(reader)
                    stream.restart(reader.tell())
        except FormatError:
            pass  # decode as far as possible, keep what we have
        payload = stream.finish()

    unresolved = 0
    pieces = []
    for segment in payload.segments:
        if isinstance(segment, bytes):
            pieces.append(segment)
            continue
        markers = segment >= MARKER_FLAG
        unresolved += int(markers.sum())
        resolved = np.where(markers, np.uint16(placeholder), segment).astype(np.uint8)
        pieces.append(resolved.tobytes())
    return b"".join(pieces), unresolved, end_bit


def recover_gzip(source, *, placeholder: int = 0x3F, max_segments: int = 1024):
    """Recover as much data as possible from a damaged gzip file.

    ``placeholder`` (default ``?``) substitutes bytes whose value depended
    on destroyed history. Returns a :class:`RecoveryReport`; raises
    :class:`RecoveryError` if nothing decodable exists at all.
    """
    file_reader = ensure_file_reader(source)
    size_bits = file_reader.size() * 8
    report = RecoveryReport()
    position = 0

    # Try a clean start first: intact header at byte 0.
    try:
        reader = BitReader(file_reader)
        parse_gzip_header(reader)
        data, unresolved, end_bit = _decode_segment(
            file_reader, reader.tell(), window=b"", placeholder=placeholder
        )
        if data or end_bit > reader.tell():
            report.segments.append(
                RecoveredSegment(reader.tell(), data, unresolved, clean_start=True)
            )
            position = end_bit + 1
    except FormatError:
        position = 0

    finder = CombinedBlockFinder(file_reader)
    while position < size_bits and len(report.segments) < max_segments:
        candidate = finder.find_next(position)
        if candidate is None:
            break
        try:
            data, unresolved, end_bit = _decode_segment(
                file_reader, candidate, window=None, placeholder=placeholder
            )
        except FormatError:
            position = candidate + 1
            continue
        if not data:
            position = candidate + 1
            continue
        report.segments.append(
            RecoveredSegment(candidate, data, unresolved, clean_start=False)
        )
        position = max(end_bit, candidate) + 1

    if not report.segments:
        raise RecoveryError("no decodable Deflate blocks found in the file")
    return report

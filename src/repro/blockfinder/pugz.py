"""Pugz-style block finder baseline (Kerbiriou & Chikhi 2019).

Pugz validates a candidate Deflate block by *decoding ahead* and requiring
the decompressed bytes to fall in the printable range 9–126 (and the block
to decompress to a minimum amount of data). That slashes false positives on
text corpora but makes the tool unusable on arbitrary binary gzip files —
the restriction rapidgzip removes (paper §1.2/§1.3).

This class reproduces both properties: strong filtering on ASCII data, and
:class:`~repro.errors.FormatError` refusal when asked to *accept* data
outside the permitted byte range (mirroring pugz's hard error on e.g. the
Silesia corpus, §4.5).
"""

from __future__ import annotations

import numpy as np

from ..deflate.block import read_block_header
from ..deflate.inflate import TwoStageStreamDecoder
from ..errors import FormatError
from ..io import BitReader, ensure_file_reader
from .base import BlockFinder

__all__ = ["PugzBlockFinder", "PUGZ_MIN_BYTE", "PUGZ_MAX_BYTE", "check_pugz_compatible"]

PUGZ_MIN_BYTE = 9
PUGZ_MAX_BYTE = 126

#: Pugz requires a candidate to decompress to at least this much data.
_MIN_DECODED = 1024
#: ... and gives up on a candidate after this much (4 MiB in pugz).
_MAX_DECODED = 64 * 1024


def check_pugz_compatible(data: bytes) -> bool:
    """True when every byte is inside pugz's permitted 9–126 range."""
    values = np.frombuffer(data, dtype=np.uint8)
    return not ((values < PUGZ_MIN_BYTE) | (values > PUGZ_MAX_BYTE)).any()


class PugzBlockFinder(BlockFinder):
    """Candidate finder with pugz's decode-ahead ASCII validation."""

    def __init__(self, source, *, min_decoded: int = _MIN_DECODED,
                 max_decoded: int = _MAX_DECODED):
        self._reader = BitReader(ensure_file_reader(source))
        self._min_decoded = min_decoded
        self._max_decoded = max_decoded

    def _trial(self, position: int) -> bool:
        reader = self._reader
        reader.seek(position)
        try:
            header = read_block_header(reader, strict=True)
            stream = TwoStageStreamDecoder(
                window=None, max_size=self._max_decoded
            )
            stream.decode_block(reader, header)
            while stream.produced < self._min_decoded and not header.final:
                header = stream.read_and_decode_block(reader)
            if stream.produced < self._min_decoded:
                return False
            payload = stream.finish()
        except FormatError:
            return False
        for segment in payload.segments:
            if isinstance(segment, bytes):
                if not check_pugz_compatible(segment):
                    return False
            else:
                # Resolved symbols must be ASCII; markers are unknown window
                # bytes, which pugz would eventually also check — candidates
                # are judged on what is visible.
                resolved = segment[segment < 256]
                if resolved.size and (
                    (resolved < PUGZ_MIN_BYTE) | (resolved > PUGZ_MAX_BYTE)
                ).any():
                    return False
        return True

    def find_next(self, bit_offset: int, until: int = None):
        limit = self._reader.size_in_bits() - 8
        if until is not None:
            limit = min(limit, until - 1)
        position = bit_offset
        while position <= limit:
            if self._trial(position):
                return position
            position += 1
        return None

"""Non-Compressed Block finder (paper §3.4.1) — NumPy-vectorized scan.

A Non-Compressed Block header is: 1 final bit (must be 0 for a candidate),
2 type bits ``00``, zero padding to the next byte boundary, then the 16-bit
LEN and its one's complement NLEN, byte-aligned. The finder therefore scans
*byte* positions b and requires

* ``data[b] | data[b+1]<<8`` XOR ``data[b+2] | data[b+3]<<8`` == 0xFFFF, and
* the three bits immediately before the boundary — header (0, 00) with zero
  padding — to be zero, i.e. ``data[b-1] & 0xE0 == 0``.

Candidate *bit* offsets are reported in canonical form ``8*b - 3`` (zero
padding). Offsets of Non-Compressed blocks are inherently ambiguous — the
encoder's true header may sit a few zero bits earlier — so all offset
comparisons against NC blocks go through :func:`canonical_nc_offset`.

Both checks are single vectorized passes, which is why the paper measures
the NBF 7x faster than the fastest Dynamic finder (Table 2).
"""

from __future__ import annotations

import numpy as np

from .window import WindowedBlockFinder

__all__ = ["UncompressedBlockFinder", "canonical_nc_offset", "scan_nc_candidates"]


def canonical_nc_offset(bit_offset: int) -> int:
    """Normalize an NC header bit offset to the canonical zero-padding form.

    Given any offset whose 3-bit header is followed by zero padding ending
    at byte boundary *b*, returns ``8*b - 3``. Dynamic-block offsets are
    unambiguous and must not be passed here.
    """
    length_field_byte = (bit_offset + 3 + 7) // 8
    return length_field_byte * 8 - 3


def scan_nc_candidates(data: bytes, base_byte_offset: int = 0) -> np.ndarray:
    """All canonical NC candidate bit offsets within ``data``.

    ``base_byte_offset`` is the file offset of ``data[0]``, which can never
    host a candidate itself: the header bits sit in the byte before LEN.
    """
    if len(data) < 5:
        return np.empty(0, dtype=np.int64)
    # LEN and NLEN read off one view of the overlapping 16-bit words (byte
    # order spelled out: the fields are little-endian on every host).
    pairs = np.ndarray((len(data) - 1,), dtype="<u2", buffer=data, strides=(1,))
    header_ok = np.frombuffer(data, dtype=np.uint8)[:-4] < 0x20  # & 0xE0 == 0
    matches = ((pairs[1:-2] ^ pairs[3:]) == 0xFFFF) & header_ok
    positions = np.flatnonzero(matches) + 1  # LEN sits at byte b = index+1
    return (positions + base_byte_offset) * 8 - 3


class UncompressedBlockFinder(WindowedBlockFinder):
    """Single-kind view on the window loop; the NC kind of the combined finder."""

    accepts = None  # the vectorized check is the whole test

    def scan_window(self, data: bytes, base_bit: int, start_bit: int, stop_bit: int):
        found = scan_nc_candidates(data, base_byte_offset=base_bit // 8)
        return found[(found >= start_bit) & (found < stop_bit)].tolist()

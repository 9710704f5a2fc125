"""Fused Deflate block-decode kernels (paper §4.1, Table 2).

The block decoder exists in two tiers:

``fused``
    The loops in this module — what ``inflate()``, recovery and, where
    libz cannot be loaded, every chunk decode runs (with libz, chunks go
    through :mod:`repro.deflate.libz`). Two ingredients make them fast:

    * :class:`~repro.huffman.fused.FusedDecoder` tables whose entries
      pre-resolve everything the reference loop branches on per symbol
      (kind, bits consumed, extra bits, base value, even a second
      literal);
    * an **inlined bit buffer**: the kernel pulls the reader's cursor
      into local variables via :meth:`BitReader.export_state`, refills
      inline, and resynchronizes with :meth:`BitReader.import_state` at
      block end — zero per-symbol method calls.

    One loop iteration handles one table entry and emits its output
    immediately through :data:`_EMIT` / :data:`_EMIT16` (pre-built
    ``bytes`` objects). The refill tops the buffer up to at least 48
    bits, the worst case one iteration can consume, pulling up to 32
    bytes per ``int.from_bytes`` call: the call has fixed overhead, so
    large takes that leave a few hundred bits in the buffer beat
    byte-at-a-time reads even though every shift then runs on a
    multi-digit int.

``legacy``
    The reference tier: the bounds-checked symbol-at-a-time loops in
    :mod:`repro.deflate.block`, with per-call :class:`BitReader` methods
    and exact EOF semantics. They are the fused kernels' **tail**: when
    fewer than 48 bits remain — only possible inside the last few input
    bytes — the kernel resyncs the reader and delegates the block
    remainder to them, and stored blocks and degenerate headers with no
    distance code take them outright. They are also the differential
    tests' oracle and the Table 2 baseline row, which is the only reason
    :func:`block_decoders` (used by the :mod:`repro.deflate.inflate`
    drivers) can name them; nothing above ``repro.deflate`` selects a
    tier.

Both tiers share one buffer contract. Conventional decode appends bytes
to a ``bytearray`` seeded with the window. Marker-mode (two-stage) decode
appends little-endian ``uint16`` symbols to a ``bytearray`` — the exact
memory layout :func:`repro.deflate.markers.replace_markers` consumes —
so the driver hands segments over with a zero-copy ``frombuffer``.
``max_size`` (total buffer length, in the buffer's symbol unit) is
checked after every match, so output overshoots it by at most one match.
"""

from __future__ import annotations

from ..errors import DeflateError, UsageError
from .block import decode_block_into_bytearray, decode_block_two_stage
from .constants import BLOCK_TYPE_STORED

# Imported lazily in _fused_for: repro.huffman.fused itself imports
# repro.deflate.constants, so a module-level import here would make the
# cycle unresolvable when repro.huffman.fused is imported first.
FusedDecoder = None

__all__ = [
    "block_decoders",
    "decode_block_into_bytearray_fused",
    "decode_block_two_stage_fused",
]

#: ``bytes`` to emit per literal-entry payload: index < 256 is a single
#: byte, index 256 + (b1 | b2 << 8) is the two-byte pair ``b1, b2``
#: (see ``EMIT_PAIR_OFFSET`` in :mod:`repro.huffman.fused`).
_EMIT: list = None

#: Marker-mode variant of :data:`_EMIT`: the same payloads rendered as
#: little-endian ``uint16`` symbols (2 bytes per literal), appendable to
#: the two-stage kernels' native ``uint16`` bytearray.
_EMIT16: list = None


def _emit_table() -> list:
    global _EMIT
    if _EMIT is None:
        singles = [bytes((value,)) for value in range(256)]
        pairs = [bytes((value & 255, value >> 8)) for value in range(1 << 16)]
        _EMIT = singles + pairs
    return _EMIT


def _emit16_table() -> list:
    global _EMIT16
    if _EMIT16 is None:
        singles = [bytes((value, 0)) for value in range(256)]
        pairs = [
            bytes((value & 255, 0, value >> 8, 0)) for value in range(1 << 16)
        ]
        _EMIT16 = singles + pairs
    return _EMIT16


def block_decoders(name: str = "fused"):
    """``(conventional, two_stage)`` block-decode functions of one tier."""
    if name == "fused":
        return decode_block_into_bytearray_fused, decode_block_two_stage_fused
    if name == "legacy":
        return decode_block_into_bytearray, decode_block_two_stage
    raise UsageError(f"unknown decoder {name!r}; expected fused or legacy")


def _fused_for(header):
    fused = header.fused
    if fused is None:
        global FusedDecoder
        if FusedDecoder is None:
            from ..huffman.fused import FusedDecoder
        fused = FusedDecoder(header.literal_decoder, header.distance_decoder)
        header.fused = fused
    return fused


def decode_block_into_bytearray_fused(reader, header, buffer: bytearray,
                                      max_size: int = None) -> None:
    """Fused conventional decode; same contract as the reference loop."""
    if header.block_type == BLOCK_TYPE_STORED or header.distance_decoder is None:
        return decode_block_into_bytearray(reader, header, buffer, max_size)
    fused = _fused_for(header)
    lit_table = fused.lit_table
    lit_mask = fused.lit_mask
    dist_table = None  # built lazily on the first match
    dist_mask = 0
    emit = _emit_table()
    from_bytes = int.from_bytes
    length_of = len

    buf, bits, byte_pos, chunk, chunk_start, pread, cache_size = reader.export_state()
    chunk_len = length_of(chunk)
    owned = True
    try:
        while True:
            if bits < 48:
                while bits < 48:
                    offset = byte_pos - chunk_start
                    if offset < 0 or offset >= chunk_len:
                        chunk = pread(byte_pos, cache_size)
                        chunk_start = byte_pos
                        chunk_len = length_of(chunk)
                        if not chunk_len:
                            break
                        offset = 0
                    take = chunk_len - offset
                    if take > 32:
                        take = 32
                    buf |= from_bytes(chunk[offset : offset + take], "little") << bits
                    bits += take * 8
                    byte_pos += take
                if bits < 48:
                    # EOF zone: resync and let the bounds-checked reference
                    # loop finish (or fault on) the tail.
                    reader.import_state((buf, bits, byte_pos, chunk, chunk_start))
                    owned = False
                    return decode_block_into_bytearray(reader, header, buffer, max_size)

            entry = lit_table[buf & lit_mask]
            consumed = entry & 31
            buf >>= consumed
            bits -= consumed
            if entry & 32 == 0:
                buffer += emit[entry >> 6]
                continue
            length = entry >> 6
            if length == 0:  # end-of-block
                return
            if length == 1:  # INVALID_PAYLOAD: unassigned prefix
                raise DeflateError("invalid literal/length prefix")
            if length >= 512:  # extra bits pending (not baked into the slot)
                extra = length >> 9
                length = (length & 511) + (buf & ((1 << extra) - 1))
                buf >>= extra
                bits -= extra

            if dist_table is None:
                dist_table, dist_mask = fused.distance_table()
            dentry = dist_table[buf & dist_mask]
            consumed = dentry & 31
            if not consumed:
                raise DeflateError("invalid distance prefix")
            buf >>= consumed
            bits -= consumed
            distance = dentry >> 5
            extra = distance & 15
            if extra:  # pending distance extra bits
                distance = (distance >> 4) + (buf & ((1 << extra) - 1))
                buf >>= extra
                bits -= extra
            else:
                distance >>= 4

            size = length_of(buffer)
            if distance > size:
                raise DeflateError(
                    f"distance {distance} reaches before start of data ({size} known)"
                )
            start = size - distance
            if distance >= length:
                buffer += buffer[start : start + length]
            else:
                while length > 0:
                    take = length_of(buffer) - start
                    if take > length:
                        take = length
                    buffer += buffer[start : start + take]
                    length -= take
            if max_size is not None and length_of(buffer) > max_size:
                raise DeflateError("decoded output exceeds configured maximum")
    finally:
        if owned:
            reader.import_state((buf, bits, byte_pos, chunk, chunk_start))


def decode_block_two_stage_fused(reader, header, buffer: bytearray,
                                 max_size: int = None) -> None:
    """Fused two-stage decode; same contract as the reference loop.

    ``buffer`` holds little-endian ``uint16`` symbols (2 bytes each);
    ``max_size`` is in symbol units, slices are byte-doubled.
    """
    if header.block_type == BLOCK_TYPE_STORED or header.distance_decoder is None:
        return decode_block_two_stage(reader, header, buffer, max_size)
    fused = _fused_for(header)
    lit_table = fused.lit_table
    lit_mask = fused.lit_mask
    dist_table = None  # built lazily on the first match
    dist_mask = 0
    emit16 = _emit16_table()
    from_bytes = int.from_bytes
    length_of = len

    buf, bits, byte_pos, chunk, chunk_start, pread, cache_size = reader.export_state()
    chunk_len = length_of(chunk)
    owned = True
    try:
        while True:
            if bits < 48:
                while bits < 48:
                    offset = byte_pos - chunk_start
                    if offset < 0 or offset >= chunk_len:
                        chunk = pread(byte_pos, cache_size)
                        chunk_start = byte_pos
                        chunk_len = length_of(chunk)
                        if not chunk_len:
                            break
                        offset = 0
                    take = chunk_len - offset
                    if take > 32:
                        take = 32
                    buf |= from_bytes(chunk[offset : offset + take], "little") << bits
                    bits += take * 8
                    byte_pos += take
                if bits < 48:
                    reader.import_state((buf, bits, byte_pos, chunk, chunk_start))
                    owned = False
                    return decode_block_two_stage(reader, header, buffer, max_size)

            entry = lit_table[buf & lit_mask]
            consumed = entry & 31
            buf >>= consumed
            bits -= consumed
            if entry & 32 == 0:
                buffer += emit16[entry >> 6]
                continue
            length = entry >> 6
            if length == 0:  # end-of-block
                return
            if length == 1:  # INVALID_PAYLOAD: unassigned prefix
                raise DeflateError("invalid literal/length prefix")
            if length >= 512:  # extra bits pending (not baked into the slot)
                extra = length >> 9
                length = (length & 511) + (buf & ((1 << extra) - 1))
                buf >>= extra
                bits -= extra

            if dist_table is None:
                dist_table, dist_mask = fused.distance_table()
            dentry = dist_table[buf & dist_mask]
            consumed = dentry & 31
            if not consumed:
                raise DeflateError("invalid distance prefix")
            buf >>= consumed
            bits -= consumed
            distance = dentry >> 5
            extra = distance & 15
            if extra:  # pending distance extra bits
                distance = (distance >> 4) + (buf & ((1 << extra) - 1))
                buf >>= extra
                bits -= extra
            else:
                distance >>= 4

            size = length_of(buffer) >> 1
            if distance > size:
                raise DeflateError(
                    f"distance {distance} reaches before start of data ({size} known)"
                )
            start = size - distance
            byte_start = start << 1
            if distance >= length:
                buffer += buffer[byte_start : byte_start + (length << 1)]
            else:
                remaining = length
                while remaining > 0:
                    take = (length_of(buffer) >> 1) - start
                    if take > remaining:
                        take = remaining
                    buffer += buffer[byte_start : byte_start + (take << 1)]
                    remaining -= take
            if max_size is not None and (length_of(buffer) >> 1) > max_size:
                raise DeflateError("decoded output exceeds configured maximum")
    finally:
        if owned:
            reader.import_state((buf, bits, byte_pos, chunk, chunk_start))

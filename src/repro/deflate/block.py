"""Deflate block header parsing and payload decoding (RFC 1951).

One parser serves two callers with different tolerance:

* the **decoder** (``strict=False``) accepts every structure real
  compressors emit, including degenerate single-symbol and empty distance
  codes;
* the **block finder** (``strict=True``) applies the paper's §3.4.2 filter
  chain — every check that fails raises a :class:`DeflateError` tagged with
  the Table 1 stage name, so the finder can collect the empirical filter
  frequencies.

Payload decoding has two variants: conventional decoding into a
``bytearray`` seeded with the known window, and two-stage decoding into a
``bytearray`` of little-endian ``uint16`` symbols where unknown window bytes
are marker values (paper §2.2). These bounds-checked loops are the only
Python Deflate decoder: the fallback where libz cannot be loaded
(:mod:`repro.deflate.libz`), the differential tests' oracle and the
Table 2 baseline row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import DeflateError, TruncatedError
from ..huffman import (
    CanonicalDecoder,
    CodeClassification,
    classify_code_lengths,
    fixed_distance_decoder,
    fixed_literal_decoder,
)
from ..huffman.precode import (
    MAX_PRECODE_SYMBOLS,
    PRECODE_SYMBOL_ORDER,
    classify_packed_histogram,
    packed_histogram_lut,
)
from .constants import (
    BLOCK_TYPE_DYNAMIC,
    BLOCK_TYPE_FIXED,
    BLOCK_TYPE_RESERVED,
    BLOCK_TYPE_STORED,
    DISTANCE_EXTRA_BASE,
    LENGTH_EXTRA_BASE,
    MARKER_FLAG,
    MAX_WINDOW_SIZE,
)

__all__ = [
    "BlockHeader",
    "FilterStage",
    "read_block_header",
    "decode_block_into_bytearray",
    "decode_block_two_stage",
]


class FilterStage:
    """Table 1 stage names, in check order."""

    FINAL_BLOCK = "invalid final block"
    COMPRESSION_TYPE = "invalid compression type"
    PRECODE_SIZE = "invalid precode size"
    PRECODE_INVALID = "invalid precode code"
    PRECODE_NON_OPTIMAL = "non-optimal precode code"
    PRECODE_DATA = "invalid precode-encoded data"
    DISTANCE_INVALID = "invalid distance code"
    DISTANCE_NON_OPTIMAL = "non-optimal distance code"
    LITERAL_INVALID = "invalid literal code"
    LITERAL_NON_OPTIMAL = "non-optimal literal code"

    ORDER = (
        FINAL_BLOCK,
        COMPRESSION_TYPE,
        PRECODE_SIZE,
        PRECODE_INVALID,
        PRECODE_NON_OPTIMAL,
        PRECODE_DATA,
        DISTANCE_INVALID,
        DISTANCE_NON_OPTIMAL,
        LITERAL_INVALID,
        LITERAL_NON_OPTIMAL,
    )


def _fail(stage: str, message: str, counter=None) -> None:
    if counter is not None:
        counter[stage] = counter.get(stage, 0) + 1
    error = DeflateError(message)
    error.stage = stage
    raise error


@dataclass
class BlockHeader:
    """Parsed Deflate block header, ready for payload decoding."""

    final: bool
    block_type: int
    start_bit_offset: int
    stored_length: int = 0
    literal_decoder: CanonicalDecoder = None
    distance_decoder: CanonicalDecoder = None  # None => no distance codes
    code_lengths: list = field(default=None, repr=False)

    @property
    def is_compressed(self) -> bool:
        return self.block_type in (BLOCK_TYPE_FIXED, BLOCK_TYPE_DYNAMIC)


def read_block_header(reader, *, strict: bool = False, counter=None) -> BlockHeader:
    """Parse one block header at the reader's current bit position.

    In strict mode (block finder), the final-block bit must be 0 and every
    Huffman code must be valid *and* efficient — failures raise tagged
    :class:`DeflateError`\\ s and bump ``counter``.
    """
    start = reader.tell()
    final = reader.read(1)
    if strict and final:
        _fail(FilterStage.FINAL_BLOCK, "final-block bit set", counter)
    block_type = reader.read(2)

    if block_type == BLOCK_TYPE_STORED:
        if strict:
            # The finder has a dedicated Non-Compressed finder; the dynamic
            # trial treats a stored header as a non-candidate.
            _fail(FilterStage.COMPRESSION_TYPE, "stored block in dynamic trial", counter)
        reader.align_to_byte()
        stored_length = reader.read(16)
        negated = reader.read(16)
        if stored_length != (~negated & 0xFFFF):
            raise DeflateError(
                f"stored block length {stored_length:#06x} does not match "
                f"one's complement {negated:#06x}"
            )
        return BlockHeader(bool(final), block_type, start, stored_length=stored_length)

    if block_type == BLOCK_TYPE_FIXED:
        if strict:
            # Paper §3.4.3: the finder does not look for Fixed Blocks.
            _fail(FilterStage.COMPRESSION_TYPE, "fixed block in dynamic trial", counter)
        return BlockHeader(
            bool(final),
            block_type,
            start,
            literal_decoder=fixed_literal_decoder(),
            distance_decoder=fixed_distance_decoder(),
        )

    if block_type == BLOCK_TYPE_RESERVED:
        _fail(FilterStage.COMPRESSION_TYPE, "reserved block type 11", counter)

    return _read_dynamic_header(reader, final, start, strict, counter)


def _read_dynamic_header(reader, final, start, strict, counter) -> BlockHeader:
    hlit = reader.read(5)
    if hlit >= 30:
        # 287 literal symbols is the alphabet maximum (Table 1 row 3).
        _fail(FilterStage.PRECODE_SIZE, f"HLIT {hlit} implies >286 literal codes", counter)
    hdist = reader.read(5)
    hclen = reader.read(4)
    num_literals = hlit + 257
    num_distances = hdist + 1
    num_precode = hclen + 4

    # Bit-parallel histogram over the precode triplets (paper §3.4.2).
    triplets = reader.read(num_precode * 3)
    histogram = packed_histogram_lut(triplets, num_precode)
    classification = classify_packed_histogram(histogram)
    if classification is CodeClassification.INVALID:
        _fail(FilterStage.PRECODE_INVALID, "over-subscribed precode", counter)
    if classification is CodeClassification.EMPTY:
        _fail(FilterStage.PRECODE_INVALID, "empty precode", counter)
    if classification is CodeClassification.NON_OPTIMAL:
        _fail(FilterStage.PRECODE_NON_OPTIMAL, "inefficient precode", counter)

    precode_lengths = [0] * MAX_PRECODE_SYMBOLS
    for index in range(num_precode):
        precode_lengths[PRECODE_SYMBOL_ORDER[index]] = (triplets >> (3 * index)) & 0b111
    precode = CanonicalDecoder(precode_lengths)

    # Decode HLIT+257+HDIST+1 code lengths; repeats may cross the boundary.
    total = num_literals + num_distances
    code_lengths = []
    try:
        while len(code_lengths) < total:
            symbol = precode.decode(reader)
            if symbol < 16:
                code_lengths.append(symbol)
            elif symbol == 16:
                if not code_lengths:
                    _fail(FilterStage.PRECODE_DATA, "repeat with no previous length", counter)
                code_lengths.extend([code_lengths[-1]] * (3 + reader.read(2)))
            elif symbol == 17:
                code_lengths.extend([0] * (3 + reader.read(3)))
            else:  # 18
                code_lengths.extend([0] * (11 + reader.read(7)))
    except (DeflateError, TruncatedError) as error:
        if getattr(error, "stage", None):
            raise
        _fail(FilterStage.PRECODE_DATA, f"precode-encoded data: {error}", counter)
    if len(code_lengths) > total:
        _fail(FilterStage.PRECODE_DATA, "code-length repeat overruns alphabets", counter)
    literal_lengths = code_lengths[:num_literals]
    distance_lengths = code_lengths[num_literals:]

    # Paper order: distance code is classified before the literal code, and
    # decoder tables are only built after both pass (§3.4.2).
    distance_class = classify_code_lengths(distance_lengths)
    distance_used = sum(1 for length in distance_lengths if length)
    if distance_class is CodeClassification.INVALID:
        _fail(FilterStage.DISTANCE_INVALID, "over-subscribed distance code", counter)
    if distance_class is CodeClassification.NON_OPTIMAL:
        # RFC 1951: one distance code of one bit is legal (one unused leaf).
        degenerate = distance_used == 1 and max(distance_lengths) == 1
        if strict or not degenerate:
            if strict and not degenerate:
                _fail(FilterStage.DISTANCE_NON_OPTIMAL, "inefficient distance code", counter)
            elif not degenerate:
                _fail(FilterStage.DISTANCE_INVALID, "incomplete distance code", counter)

    literal_class = classify_code_lengths(literal_lengths)
    literal_used = sum(1 for length in literal_lengths if length)
    if literal_class in (CodeClassification.INVALID, CodeClassification.EMPTY):
        _fail(FilterStage.LITERAL_INVALID, "invalid literal code", counter)
    if literal_class is CodeClassification.NON_OPTIMAL:
        if strict or literal_used != 1:
            stage = (
                FilterStage.LITERAL_NON_OPTIMAL if strict else FilterStage.LITERAL_INVALID
            )
            _fail(stage, "inefficient literal code", counter)

    literal_decoder = CanonicalDecoder(
        literal_lengths, allow_incomplete=literal_used == 1
    )
    distance_decoder = None
    if distance_used:
        distance_decoder = CanonicalDecoder(distance_lengths, allow_incomplete=True)

    return BlockHeader(
        bool(final),
        BLOCK_TYPE_DYNAMIC,
        start,
        literal_decoder=literal_decoder,
        distance_decoder=distance_decoder,
        code_lengths=code_lengths,
    )


def decode_block_into_bytearray(reader, header: BlockHeader, buffer: bytearray,
                                max_size: int = None) -> None:
    """Conventional decode of one block's payload, appending to ``buffer``.

    ``buffer`` must already contain the preceding window bytes (up to
    32 KiB); backward references are resolved against it directly.
    ``max_size`` (total buffer length) guards against runaway output from
    block-finder false positives.
    """
    if header.block_type == BLOCK_TYPE_STORED:
        buffer += reader.read_bytes(header.stored_length)
        if max_size is not None and len(buffer) > max_size:
            raise DeflateError("decoded output exceeds configured maximum")
        return

    literal_table = header.literal_decoder.table
    literal_bits = header.literal_decoder.max_length
    distance_decoder = header.distance_decoder
    peek = reader.peek
    skip = reader.skip
    read = reader.read
    append = buffer.append

    while True:
        entry = literal_table[peek(literal_bits)]
        if entry == 0:
            raise DeflateError("invalid literal/length prefix")
        skip(entry >> 9)
        symbol = entry & 0x1FF
        if symbol < 256:
            append(symbol)
            continue
        if symbol == 256:
            return
        if symbol > 285:
            raise DeflateError(f"invalid length symbol {symbol}")
        extra, base = LENGTH_EXTRA_BASE[symbol - 257]
        length = base + (read(extra) if extra else 0)
        if distance_decoder is None:
            raise DeflateError("length symbol but block declares no distance codes")
        distance_symbol = distance_decoder.decode(reader)
        if distance_symbol > 29:
            raise DeflateError(f"reserved distance symbol {distance_symbol}")
        extra, base = DISTANCE_EXTRA_BASE[distance_symbol]
        distance = base + (read(extra) if extra else 0)
        size = len(buffer)
        if distance > size:
            raise DeflateError(
                f"distance {distance} reaches before start of data ({size} known)"
            )
        start = size - distance
        if distance >= length:
            buffer += buffer[start : start + length]
        else:
            while length > 0:
                take = min(length, len(buffer) - start)
                buffer += buffer[start : start + take]
                length -= take
        if max_size is not None and len(buffer) > max_size:
            raise DeflateError("decoded output exceeds configured maximum")


def decode_block_two_stage(reader, header: BlockHeader, buffer: bytearray,
                           max_size: int = None) -> None:
    """Two-stage decode of one block into a buffer of 16-bit symbols.

    ``buffer`` holds little-endian ``uint16`` symbols, 2 bytes each — the
    layout :func:`repro.deflate.markers.replace_markers` consumes: 0–255
    are resolved bytes, ``MARKER_FLAG | w`` marks the unknown window byte
    at offset ``w``. The caller seeds the first :data:`MAX_WINDOW_SIZE`
    symbols with markers. ``max_size`` is in symbol units; slices are
    byte-doubled.
    """
    if header.block_type == BLOCK_TYPE_STORED:
        data = reader.read_bytes(header.stored_length)
        widened = bytearray(2 * len(data))
        widened[::2] = data
        buffer += widened
        if max_size is not None and (len(buffer) >> 1) > max_size:
            raise DeflateError("decoded output exceeds configured maximum")
        return

    literal_table = header.literal_decoder.table
    literal_bits = header.literal_decoder.max_length
    distance_decoder = header.distance_decoder
    peek = reader.peek
    skip = reader.skip
    read = reader.read
    append = buffer.append

    while True:
        entry = literal_table[peek(literal_bits)]
        if entry == 0:
            raise DeflateError("invalid literal/length prefix")
        skip(entry >> 9)
        symbol = entry & 0x1FF
        if symbol < 256:
            append(symbol)
            append(0)
            continue
        if symbol == 256:
            return
        if symbol > 285:
            raise DeflateError(f"invalid length symbol {symbol}")
        extra, base = LENGTH_EXTRA_BASE[symbol - 257]
        length = base + (read(extra) if extra else 0)
        if distance_decoder is None:
            raise DeflateError("length symbol but block declares no distance codes")
        distance_symbol = distance_decoder.decode(reader)
        if distance_symbol > 29:
            raise DeflateError(f"reserved distance symbol {distance_symbol}")
        extra, base = DISTANCE_EXTRA_BASE[distance_symbol]
        distance = base + (read(extra) if extra else 0)
        size = len(buffer) >> 1
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
                take = min(remaining, (len(buffer) >> 1) - start)
                buffer += buffer[byte_start : byte_start + (take << 1)]
                remaining -= take
        if max_size is not None and (len(buffer) >> 1) > max_size:
            raise DeflateError("decoded output exceeds configured maximum")

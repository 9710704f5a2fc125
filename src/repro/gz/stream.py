"""Serial reference gzip decompressor built on the from-scratch decoder.

This is the single-threaded baseline every parallel result is compared
against in tests (and the stand-in for "GNU gzip" in relative benchmark
reporting). It handles multi-member files, verifies CRC-32 and ISIZE, and
reports per-member layout information that higher layers (index building,
BGZF detection) reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..deflate.inflate import inflate
from ..errors import FormatError, IntegrityError
from ..io import BitReader, ensure_file_reader
from .crc32 import fast_crc32
from .header import GzipFooter, GzipHeader, MAGIC, parse_gzip_footer, parse_gzip_header

__all__ = ["MemberInfo", "decompress", "iter_members", "count_streams"]


@dataclass
class MemberInfo:
    """Layout of one gzip member inside the file."""

    header: GzipHeader
    footer: GzipFooter
    compressed_start: int  # byte offset of the member's first header byte
    deflate_start_bit: int  # bit offset of the Deflate stream
    deflate_end_bit: int  # bit offset just past the final block
    uncompressed_start: int  # offset of this member's data in the output
    uncompressed_size: int
    #: the member's Deflate blocks, as :func:`~repro.deflate.inflate`
    #: found them while decoding it
    boundaries: list = field(default_factory=list, repr=False)


def iter_members(source, *, verify: bool = True, max_size: int = None):
    """Yield ``(MemberInfo, data)`` for each gzip member in ``source``."""
    reader = BitReader(ensure_file_reader(source))
    total_output = 0
    while True:
        start_byte = reader.tell() // 8
        header = parse_gzip_header(reader)
        deflate_start = reader.tell()
        remaining_budget = None if max_size is None else max_size - total_output
        result = inflate(reader, max_size=remaining_budget)
        deflate_end = result.end_bit_offset
        reader.align_to_byte()
        footer = parse_gzip_footer(reader)
        data = result.data
        if verify:
            actual_crc = fast_crc32(data)
            if actual_crc != footer.crc32:
                raise IntegrityError(
                    f"CRC-32 mismatch in member at byte {start_byte}: "
                    f"stored {footer.crc32:#010x}, computed {actual_crc:#010x}"
                )
            if footer.isize != len(data) & 0xFFFFFFFF:
                raise IntegrityError(
                    f"ISIZE mismatch in member at byte {start_byte}: "
                    f"stored {footer.isize}, actual {len(data) & 0xFFFFFFFF}"
                )
        yield (
            MemberInfo(
                header=header,
                footer=footer,
                compressed_start=start_byte,
                deflate_start_bit=deflate_start,
                deflate_end_bit=deflate_end,
                uncompressed_start=total_output,
                uncompressed_size=len(data),
                boundaries=result.boundaries,
            ),
            data,
        )
        total_output += len(data)

        # Another member, trailing zero padding, or true EOF?
        position = reader.tell() // 8
        probe = reader._reader.pread(position, 2)
        if not probe:
            return
        if probe == MAGIC:
            continue
        tail = reader._reader.pread(position, 4096)
        if all(byte == 0 for byte in tail) and len(tail) < 4096:
            return  # bgzip-style zero padding at EOF
        raise FormatError(
            f"trailing garbage after gzip member at byte offset {position}"
        )


def decompress(source, *, verify: bool = True, max_size: int = None) -> bytes:
    """Decompress a complete (possibly multi-member) gzip file serially."""
    return b"".join(data for _info, data in iter_members(
        source, verify=verify, max_size=max_size
    ))


def count_streams(source) -> int:
    """Number of gzip members in the file (cheap full parse, discards data)."""
    return sum(1 for _ in iter_members(source, verify=False))

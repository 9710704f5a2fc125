"""Blocked GNU Zip Format (BGZF) support — paper §3.4.4.

BGZF files are ordinary multi-member gzip files whose members carry a
``BC`` extra subfield storing the member's total compressed size (BSIZE).
That metadata makes parallel decompression trivial: block offsets can be
gathered by hopping from header to header without decoding anything, so the
two-stage scheme can be skipped entirely. The BSIZE chain is a chunk
catalog (:func:`bgzf_catalog`), opened like any other through a
synthesized index.
"""

from __future__ import annotations

import zlib
from dataclasses import replace

from ..errors import FormatError
from ..io import BitReader, ensure_file_reader
from .catalog import ArchiveCatalog, members_catalog
from .crc32 import fast_crc32
from .header import GzipHeader, parse_gzip_header, serialize_gzip_footer

__all__ = [
    "BGZF_EOF_BLOCK",
    "MAX_BGZF_PAYLOAD",
    "bgzf_extra_field",
    "bgzf_block_size",
    "is_bgzf",
    "bgzf_block_offsets",
    "bgzf_catalog",
    "write_bgzf_member",
    "compress_bgzf",
]

#: The canonical 28-byte empty BGZF block terminating every BGZF file.
BGZF_EOF_BLOCK = bytes.fromhex(
    "1f8b08040000000000ff0600424302001b0003000000000000000000"
)

#: bgzip limits each member to this much uncompressed data (0xFF00).
MAX_BGZF_PAYLOAD = 65280

#: No BGZF member holds more (SAM specification §4.1); a footer claiming
#: more is damage, not data.
_MAX_MEMBER_ISIZE = 65536


def bgzf_extra_field(bsize: int) -> bytes:
    """The ``BC`` extra subfield encoding a total member size of ``bsize``."""
    if not 1 <= bsize <= 65536:
        raise FormatError(f"BGZF BSIZE {bsize} out of range")
    return b"BC" + (2).to_bytes(2, "little") + (bsize - 1).to_bytes(2, "little")


def bgzf_block_size(header: GzipHeader) -> int:
    """Extract the member's total compressed size; raises if not BGZF."""
    for si1, si2, payload in header.extra_subfields():
        if si1 == 0x42 and si2 == 0x43 and len(payload) == 2:
            return int.from_bytes(payload, "little") + 1
    raise FormatError("gzip member has no BGZF BC subfield")


def is_bgzf(source) -> bool:
    """True when the file's first member carries a BGZF BC subfield."""
    reader = BitReader(ensure_file_reader(source))
    try:
        header = parse_gzip_header(reader)
        bgzf_block_size(header)
        return True
    except Exception:
        return False


def bgzf_block_offsets(source) -> list:
    """Compressed byte offset of every member, by header hopping only."""
    file_reader = ensure_file_reader(source)
    size = file_reader.size()
    offsets = []
    position = 0
    while position < size:
        reader = BitReader(file_reader)
        reader.seek(position * 8)
        header = parse_gzip_header(reader)
        offsets.append(position)
        position += bgzf_block_size(header)
    if position != size:
        raise FormatError("BGZF chain does not cover the whole file")
    return offsets


def bgzf_catalog(source, chunk_size: int) -> ArchiveCatalog:
    """The chunk catalog the BSIZE chain spells out.

    Members are grouped into chunks: a chunk closes once it spans at least
    ``chunk_size`` compressed bytes, or at the last member. A one-member
    chunk carries that member's CRC-32; a longer one none (the member
    footers still verify it). Raises :class:`FormatError` when the chain
    does not cover the file or a footer claims more than a member holds.
    """
    file_reader = ensure_file_reader(source)
    offsets = bgzf_block_offsets(file_reader)
    ends = offsets[1:] + [file_reader.size()]
    catalog = members_catalog(
        file_reader, [end - start for start, end in zip(offsets, ends)],
        "bgzf",
    )
    for number, offset in enumerate(offsets):
        if catalog.chunk_length(number) > _MAX_MEMBER_ISIZE:
            raise FormatError(
                f"BGZF member at byte {offset} claims more bytes than a "
                "member holds"
            )
    members, catalog.chunks = catalog.chunks, []
    first = 0  # the open group's first member
    for number, end in enumerate(ends):
        if end - offsets[first] >= chunk_size or number + 1 == len(ends):
            chunk = members[first]
            if number > first:
                chunk = replace(chunk, crc32=None)
            catalog.chunks.append(chunk)
            first = number + 1
    return catalog


def write_bgzf_member(data: bytes, level: int = 6) -> bytes:
    """One complete BGZF member (gzip header+deflate+footer with BSIZE)."""
    if len(data) > MAX_BGZF_PAYLOAD:
        raise FormatError(f"BGZF member payload limited to {MAX_BGZF_PAYLOAD} bytes")
    compressor = zlib.compressobj(level, zlib.DEFLATED, -15)
    deflate_data = compressor.compress(data) + compressor.flush()
    # Fixed-layout header: FEXTRA with the 6-byte BC subfield -> 18 bytes.
    bsize = 12 + 6 + len(deflate_data) + 8
    header = (
        b"\x1f\x8b\x08\x04"  # magic, deflate, FEXTRA
        + b"\x00\x00\x00\x00"  # mtime
        + b"\x00\xff"  # XFL, OS=unknown (matches bgzip)
        + (6).to_bytes(2, "little")
        + bgzf_extra_field(bsize)
    )
    footer = serialize_gzip_footer(fast_crc32(data), len(data))
    return header + deflate_data + footer


def compress_bgzf(data: bytes, level: int = 6, *, payload_size: int = MAX_BGZF_PAYLOAD) -> bytes:
    """Compress ``data`` into a full BGZF file (members + EOF block).

    ``level=0`` stores the payload uncompressed inside the Deflate stream
    (bgzip -l 0: the paper's fastest-to-decompress Table 3 variant, served
    by the stored-block memcpy fast path).
    """
    if payload_size > MAX_BGZF_PAYLOAD:
        raise FormatError("payload_size exceeds the BGZF maximum")
    members = []
    for start in range(0, len(data), payload_size) or [0]:
        members.append(write_bgzf_member(data[start : start + payload_size], level))
    if not members:
        members.append(write_bgzf_member(b"", level))
    members.append(BGZF_EOF_BLOCK)
    return b"".join(members)

"""Self-describing seekable archives: FEXTRA chunk catalogs.

A parallel-friendly archive carries its own seek index inside the first
member header (RFC 1952 FEXTRA), so a reader can synthesize a complete
:class:`~repro.index.GzipIndex` at open time — zero block-finder searches,
zero speculative marker decodes — while stock ``gunzip`` ignores the
subfields entirely. Two subfields are written:

* ``MZ`` — mgzip-compatible: ``u32 count`` followed by one ``u32`` total
  compressed length per member. Enough for third-party tools (and for us,
  via footer ISIZEs) to locate every member without searching.
* ``RG`` — our richer catalog: exact compressed *bit* offsets, uncompressed
  offsets, and a CRC-32 per chunk, plus totals and a trailing self-CRC so a
  damaged catalog is detected and ignored rather than trusted.

``RG`` payload v1 (little-endian)::

    u8  version (=1)
    u8  layout  (1 = members, 2 = chunk-isolated)
    u16 flags   (=0)
    u32 chunk count
    u64 total uncompressed size
    u64 total compressed size (file bytes)
    chunk count x { u64 start_bit, u64 uncompressed_offset, u32 crc32 }
    u32 CRC-32 of all preceding payload bytes

Detection is strictly best-effort: any malformed subfield degrades to the
ordinary search path (lost speedup, never wrong bytes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import FormatError
from ..index import GzipIndex, SeekPoint
from ..io import BitReader
from .crc32 import fast_crc32
from .header import MAGIC, parse_gzip_header

__all__ = [
    "CatalogChunk",
    "ArchiveCatalog",
    "MZ_SUBFIELD_ID",
    "RG_SUBFIELD_ID",
    "build_mz_payload",
    "parse_mz_payload",
    "build_rg_payload",
    "parse_rg_payload",
    "detect_catalog",
    "members_catalog",
    "synthesize_index",
]

MZ_SUBFIELD_ID = (ord("M"), ord("Z"))
RG_SUBFIELD_ID = (ord("R"), ord("G"))

_RG_VERSION = 1
_RG_LAYOUTS = {1: "members", 2: "chunk-isolated"}
_RG_LAYOUT_CODES = {name: code for code, name in _RG_LAYOUTS.items()}


@dataclass(frozen=True)
class CatalogChunk:
    """One advertised chunk: where it starts and what it decodes to."""

    start_bit: int
    uncompressed_offset: int
    crc32: int = None  # per-chunk CRC-32; None when the source lacks one


@dataclass
class ArchiveCatalog:
    """A parsed chunk catalog, ready for index synthesis."""

    layout: str  # "members" | "chunk-isolated"
    source: str  # "rg" | "mz" | "bgzf"
    chunks: list = field(default_factory=list)
    uncompressed_size: int = 0
    compressed_size: int = 0  # file bytes

    def chunk_length(self, index: int) -> int:
        """Uncompressed byte count of chunk ``index``."""
        start = self.chunks[index].uncompressed_offset
        if index + 1 < len(self.chunks):
            return self.chunks[index + 1].uncompressed_offset - start
        return self.uncompressed_size - start


# -- MZ (mgzip interop) ------------------------------------------------------


def build_mz_payload(member_lengths: list) -> bytes:
    """Encode total compressed member lengths, mgzip style."""
    out = bytearray(len(member_lengths).to_bytes(4, "little"))
    for length in member_lengths:
        out += length.to_bytes(4, "little")
    return bytes(out)


def parse_mz_payload(payload: bytes) -> list:
    """Decode an ``MZ`` subfield into member lengths, validating framing."""
    if len(payload) < 4:
        raise FormatError("MZ subfield shorter than its count field")
    count = int.from_bytes(payload[:4], "little")
    if len(payload) != 4 + 4 * count:
        raise FormatError(
            f"MZ subfield declares {count} members but carries "
            f"{len(payload) - 4} payload bytes"
        )
    lengths = [
        int.from_bytes(payload[4 + 4 * i : 8 + 4 * i], "little")
        for i in range(count)
    ]
    if not lengths:
        raise FormatError("MZ subfield declares zero members")
    if any(length < 20 for length in lengths):
        raise FormatError("MZ subfield member shorter than a minimal member")
    return lengths


# -- RG (rich catalog) -------------------------------------------------------


def build_rg_payload(catalog: ArchiveCatalog) -> bytes:
    out = bytearray()
    out.append(_RG_VERSION)
    out.append(_RG_LAYOUT_CODES[catalog.layout])
    out += (0).to_bytes(2, "little")
    out += len(catalog.chunks).to_bytes(4, "little")
    out += catalog.uncompressed_size.to_bytes(8, "little")
    out += catalog.compressed_size.to_bytes(8, "little")
    for chunk in catalog.chunks:
        out += chunk.start_bit.to_bytes(8, "little")
        out += chunk.uncompressed_offset.to_bytes(8, "little")
        out += (chunk.crc32 or 0).to_bytes(4, "little")
    out += (fast_crc32(bytes(out)) & 0xFFFFFFFF).to_bytes(4, "little")
    return bytes(out)


def parse_rg_payload(payload: bytes) -> ArchiveCatalog:
    if len(payload) < 28:
        raise FormatError("RG subfield shorter than its fixed header")
    body, declared_crc = payload[:-4], payload[-4:]
    if (fast_crc32(body) & 0xFFFFFFFF).to_bytes(4, "little") != declared_crc:
        raise FormatError("RG subfield self-CRC mismatch")
    if body[0] != _RG_VERSION:
        raise FormatError(f"unsupported RG catalog version {body[0]}")
    layout = _RG_LAYOUTS.get(body[1])
    if layout is None:
        raise FormatError(f"unknown RG catalog layout code {body[1]}")
    count = int.from_bytes(body[4:8], "little")
    if len(body) != 24 + 20 * count:
        raise FormatError(
            f"RG subfield declares {count} chunks but carries "
            f"{len(body) - 24} chunk-table bytes"
        )
    if count == 0:
        raise FormatError("RG subfield declares zero chunks")
    catalog = ArchiveCatalog(
        layout=layout,
        source="rg",
        uncompressed_size=int.from_bytes(body[8:16], "little"),
        compressed_size=int.from_bytes(body[16:24], "little"),
    )
    previous_bit = -1
    previous_offset = 0
    for i in range(count):
        base = 24 + 20 * i
        start_bit = int.from_bytes(body[base : base + 8], "little")
        offset = int.from_bytes(body[base + 8 : base + 16], "little")
        crc = int.from_bytes(body[base + 16 : base + 20], "little")
        if start_bit <= previous_bit or offset < previous_offset:
            raise FormatError(f"non-monotonic RG catalog entry {i}")
        previous_bit, previous_offset = start_bit, offset
        catalog.chunks.append(CatalogChunk(start_bit, offset, crc))
    if catalog.chunks[0].start_bit != 0:
        raise FormatError("RG catalog must start at bit 0")
    if previous_offset > catalog.uncompressed_size:
        raise FormatError("RG catalog chunk offsets exceed the declared size")
    return catalog


# -- detection ---------------------------------------------------------------


def members_catalog(file_reader, lengths: list, source: str) -> ArchiveCatalog:
    """One chunk per member, from the members' total compressed lengths
    (``MZ`` payload, BGZF BSIZE chain): validate them against the file and
    read each footer's CRC-32 and ISIZE."""
    file_size = file_reader.size()
    if sum(lengths) != file_size:
        raise FormatError(
            f"{source.upper()} member lengths sum to {sum(lengths)}, file "
            f"is {file_size} bytes"
        )
    catalog = ArchiveCatalog(
        layout="members", source=source, compressed_size=file_size
    )
    # Remote sources: the per-member magic/footer probes below would pay
    # one wire round trip each — hint them all up front so a block-cached
    # reader fetches concurrently and the serial walk hits cache.
    warm = getattr(file_reader, "warm_ranges", None)
    if warm is not None:
        spans, probe_offset = [], 0
        for length in lengths:
            spans.append((probe_offset, 2))
            spans.append((probe_offset + length - 8, 8))
            probe_offset += length
        warm(spans)
    offset = 0
    output_offset = 0
    for length in lengths:
        if file_reader.pread(offset, 2) != MAGIC:
            raise FormatError(
                f"{source.upper()} catalog points at byte {offset} but no "
                "member starts there"
            )
        footer = file_reader.pread(offset + length - 8, 8)
        if len(footer) < 8:
            raise FormatError(
                f"truncated member footer behind {source.upper()} catalog"
            )
        catalog.chunks.append(
            CatalogChunk(
                start_bit=offset * 8,
                uncompressed_offset=output_offset,
                crc32=int.from_bytes(footer[:4], "little"),
            )
        )
        offset += length
        output_offset += int.from_bytes(footer[4:8], "little")
    catalog.uncompressed_size = output_offset
    return catalog


def _validate_rg_catalog(file_reader, catalog: ArchiveCatalog) -> None:
    if catalog.compressed_size != file_reader.size():
        raise FormatError(
            f"RG catalog describes a {catalog.compressed_size}-byte file, "
            f"this file is {file_reader.size()} bytes"
        )
    warm = getattr(file_reader, "warm_ranges", None)
    if warm is not None and catalog.layout == "members":
        warm([
            (chunk.start_bit // 8, 2)
            for chunk in catalog.chunks
            if chunk.start_bit % 8 == 0
        ])
    for chunk in catalog.chunks:
        if chunk.start_bit % 8:
            raise FormatError("RG catalog chunk start is not byte-aligned")
        if chunk.start_bit >= file_reader.size() * 8:
            raise FormatError("RG catalog chunk starts past end of file")
        if catalog.layout == "members" and file_reader.pread(
            chunk.start_bit // 8, 2
        ) != MAGIC:
            raise FormatError(
                f"RG catalog points at byte {chunk.start_bit // 8} but no "
                "member starts there"
            )


def detect_catalog(file_reader):
    """Probe the first member header for a chunk catalog.

    Returns ``(catalog, errors)``: the parsed :class:`ArchiveCatalog` (or
    ``None``) plus human-readable reasons each *present* subfield was
    rejected. Files without MZ/RG subfields return ``(None, [])`` silently;
    any parse or validation failure lands in ``errors`` and never
    propagates — the caller falls back to the search path.
    """
    try:
        reader = BitReader(file_reader)
        header = parse_gzip_header(reader)
        subfields = header.extra_subfields()
    except Exception:
        return None, []

    by_id = {}
    for si1, si2, payload in subfields:
        by_id.setdefault((si1, si2), payload)

    errors = []
    if RG_SUBFIELD_ID in by_id:
        try:
            catalog = parse_rg_payload(by_id[RG_SUBFIELD_ID])
            _validate_rg_catalog(file_reader, catalog)
            return catalog, errors
        except FormatError as error:
            errors.append(f"RG: {error}")
    if MZ_SUBFIELD_ID in by_id:
        try:
            lengths = parse_mz_payload(by_id[MZ_SUBFIELD_ID])
            return members_catalog(file_reader, lengths, "mz"), errors
        except FormatError as error:
            errors.append(f"MZ: {error}")
    return None, errors


def synthesize_index(catalog: ArchiveCatalog, file_size: int) -> GzipIndex:
    """Build a finalized :class:`GzipIndex` from a catalog.

    Every seek point carries an *empty* window — by construction no chunk
    references history before its own start, so the conventional kernel can
    decode each interval with zero propagated state.
    """
    index = GzipIndex()
    for number, chunk in enumerate(catalog.chunks):
        index.add(
            SeekPoint(
                compressed_bit_offset=chunk.start_bit,
                uncompressed_offset=chunk.uncompressed_offset,
                window=b"",
                is_stream_start=(
                    catalog.layout == "members" or number == 0
                ),
            )
        )
    index.finalize(catalog.uncompressed_size, file_size * 8)
    return index

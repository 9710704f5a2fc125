"""Tests for BGZF support (paper §3.4.4)."""

import gzip as stdlib_gzip
import zlib

import pytest

from repro.datagen import generate_base64
from repro.errors import FormatError
from repro.fetcher import decode_index_chunk
from repro.gz.bgzf import (
    BGZF_EOF_BLOCK,
    MAX_BGZF_PAYLOAD,
    bgzf_block_offsets,
    bgzf_block_size,
    bgzf_catalog,
    bgzf_extra_field,
    compress_bgzf,
    is_bgzf,
    write_bgzf_member,
)
from repro.gz.header import parse_gzip_header
from repro.gz import decompress
from repro.io import BitReader, SharedFileReader
from repro.reader import ParallelGzipReader


class TestBgzfMember:
    def test_member_is_valid_gzip(self):
        member = write_bgzf_member(b"hello bgzf")
        assert stdlib_gzip.decompress(member) == b"hello bgzf"

    def test_bsize_matches_member_length(self):
        member = write_bgzf_member(b"payload data here")
        header = parse_gzip_header(BitReader(member))
        assert bgzf_block_size(header) == len(member)

    def test_payload_limit(self):
        write_bgzf_member(b"x" * MAX_BGZF_PAYLOAD)  # at the limit: fine
        with pytest.raises(FormatError):
            write_bgzf_member(b"x" * (MAX_BGZF_PAYLOAD + 1))

    def test_stored_level(self):
        member = write_bgzf_member(b"incompressible" * 10, level=0)
        assert stdlib_gzip.decompress(member) == b"incompressible" * 10

    def test_extra_field_encoding(self):
        field = bgzf_extra_field(65536)
        assert field[:2] == b"BC"
        assert int.from_bytes(field[4:6], "little") == 65535
        with pytest.raises(FormatError):
            bgzf_extra_field(0)
        with pytest.raises(FormatError):
            bgzf_extra_field(65537)


class TestBgzfFile:
    DATA = bytes(range(256)) * 1200  # ~300 KiB -> 5 members

    def test_round_trip_stdlib(self):
        assert stdlib_gzip.decompress(compress_bgzf(self.DATA)) == self.DATA

    def test_round_trip_ours(self):
        assert decompress(compress_bgzf(self.DATA)) == self.DATA

    def test_ends_with_eof_block(self):
        assert compress_bgzf(self.DATA).endswith(BGZF_EOF_BLOCK)

    def test_eof_block_is_valid_empty_member(self):
        assert stdlib_gzip.decompress(BGZF_EOF_BLOCK) == b""
        header = parse_gzip_header(BitReader(BGZF_EOF_BLOCK))
        assert bgzf_block_size(header) == len(BGZF_EOF_BLOCK)

    def test_detection(self):
        assert is_bgzf(compress_bgzf(self.DATA))
        assert not is_bgzf(stdlib_gzip.compress(self.DATA))
        assert not is_bgzf(b"junk")

    def test_block_offsets_cover_file(self):
        blob = compress_bgzf(self.DATA, payload_size=32_768)
        offsets = bgzf_block_offsets(blob)
        expected_members = -(-len(self.DATA) // 32_768) + 1  # + EOF block
        assert len(offsets) == expected_members
        assert offsets[0] == 0
        assert offsets == sorted(offsets)

    def test_block_offsets_reject_broken_chain(self):
        blob = compress_bgzf(self.DATA)[:-5]  # truncated EOF block
        with pytest.raises(FormatError):
            bgzf_block_offsets(blob)

    def test_empty_input(self):
        blob = compress_bgzf(b"")
        assert stdlib_gzip.decompress(blob) == b""
        assert is_bgzf(blob)

    def test_custom_payload_size(self):
        blob = compress_bgzf(self.DATA, payload_size=10_000)
        assert decompress(blob) == self.DATA
        with pytest.raises(FormatError):
            compress_bgzf(self.DATA, payload_size=MAX_BGZF_PAYLOAD + 1)


class TestBgzfCatalog:
    """A BGZF file opens through the index its BSIZE chain spells out."""

    DATA = generate_base64(800_000, seed=3)
    BLOB = compress_bgzf(DATA)
    CHUNK = 16 * 1024

    def test_groups_close_at_chunk_size(self):
        catalog = bgzf_catalog(self.BLOB, 100_000)
        offsets = bgzf_block_offsets(self.BLOB)
        starts = [chunk.start_bit // 8 for chunk in catalog.chunks]
        assert starts[0] == 0 and set(starts) <= set(offsets)
        ends = starts[1:] + [len(self.BLOB)]
        for start, end in zip(starts[:-1], ends[:-1]):
            assert end - start >= 100_000
            # the group closed at the first member that reached the size
            last_member = max(o for o in offsets if o < end)
            assert last_member - start < 100_000
        assert catalog.source == "bgzf" and catalog.layout == "members"
        assert catalog.uncompressed_size == len(self.DATA)

    def test_single_member_groups_carry_the_member_crc(self):
        catalog = bgzf_catalog(self.BLOB, 1024)
        assert len(catalog.chunks) == len(bgzf_block_offsets(self.BLOB))
        for number, chunk in enumerate(catalog.chunks):
            start = chunk.uncompressed_offset
            piece = self.DATA[start : start + catalog.chunk_length(number)]
            assert chunk.crc32 == zlib.crc32(piece)
        grouped = bgzf_catalog(self.BLOB, 1 << 20)
        assert [chunk.crc32 for chunk in grouped.chunks] == [None]

    def test_index_is_finalized_at_open(self):
        groups = len(bgzf_catalog(self.BLOB, self.CHUNK).chunks)
        with ParallelGzipReader(self.BLOB, chunk_size=self.CHUNK) as reader:
            assert reader.index.finalized
            assert len(reader.index) == groups
            assert reader.statistics()["chunks_decoded"] == 0

    @pytest.mark.parametrize("parallelization", [1, 2])
    def test_seek_decodes_one_chunk(self, parallelization):
        # No initial pass: a seek lands in its group and decodes only it.
        target = len(self.DATA) * 9 // 10
        with ParallelGzipReader(
            self.BLOB, parallelization=parallelization, chunk_size=self.CHUNK
        ) as reader:
            reader.seek(target)
            assert reader.read(4096) == self.DATA[target : target + 4096]
            assert reader.statistics()["chunks_decoded"] == 1

    def test_synthesized_index_is_not_cached(self, tmp_path):
        path = tmp_path / "data.bgz"
        path.write_bytes(self.BLOB)
        cache = tmp_path / "cache"
        with ParallelGzipReader(
            str(path), chunk_size=self.CHUNK, index_cache=str(cache)
        ) as reader:
            assert reader.read() == self.DATA
        # The cache directory is made by an export, and none ran.
        assert not cache.exists()

    def test_many_member_chunk_reads_its_range_once(self):
        blob = compress_bgzf(self.DATA[:400_000], payload_size=4096)
        catalog = bgzf_catalog(blob, len(blob))
        assert len(catalog.chunks) == 1
        members = len(bgzf_block_offsets(blob))
        assert members >= 50
        source = SharedFileReader(blob)
        result = decode_index_chunk(
            source, 0, None, b"", expected_size=catalog.uncompressed_size,
            is_last=True,
        )
        assert result.payload.materialize(b"") == self.DATA[:400_000]
        assert sum(e.kind == "footer" for e in result.events) == members
        assert source.bytes_read <= 2 * len(blob)

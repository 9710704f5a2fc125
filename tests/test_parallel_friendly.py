"""Parallel-friendly archives: catalogued writers, marker-free decode.

Covers the self-describing layouts end to end: the differential matrix
(catalog decode vs forced marker decode vs stdlib gzip must be
byte-identical), the telemetry acceptance criteria (zero marker
replacements, zero block-finder candidates), graceful fallback on
corrupted or truncated catalogs, per-chunk CRC enforcement, mgzip (MZ
subfield) interop against a checked-in third-party-style fixture, and
the chunk-isolated compressor's standalone-chunk guarantee.
"""

import gzip as stdlib_gzip
import io
import os
import struct
import zlib

import pytest

from repro.datagen import generate_base64, generate_fastq, generate_silesia_like
from repro.deflate.compress import BitWriter, CompressorOptions, DeflateCompressor
from repro.errors import FormatError, IntegrityError, UsageError
from repro.fetcher import speculative_decode
from repro.gz.catalog import (
    ArchiveCatalog,
    CatalogChunk,
    MZ_SUBFIELD_ID,
    RG_SUBFIELD_ID,
    build_mz_payload,
    build_rg_payload,
    detect_catalog,
    parse_mz_payload,
    parse_rg_payload,
    synthesize_index,
)
from repro.gz.header import parse_gzip_header
from repro.gz.parallel_writer import CATALOGUED_LAYOUTS, compress_parallel
from repro.io import BitReader, ensure_file_reader
from repro.reader import ParallelGzipReader, decompress_parallel
from repro.telemetry import Telemetry

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "mgzip_fixture.gz")

CORPORA = {
    "base64": lambda: generate_base64(300_000, seed=7),
    "silesia": lambda: generate_silesia_like(300_000, seed=7),
    "fastq": lambda: generate_fastq(300_000, seed=7),
}


def first_header(blob):
    return parse_gzip_header(BitReader(bytes(blob)))


def catalogued(data, layout, **kwargs):
    kwargs.setdefault("chunk_size", 64 * 1024)
    return compress_parallel(data, layout=layout, **kwargs)


def read_all(blob, **kwargs):
    """Decode and return (data, statistics)."""
    kwargs.setdefault("parallelization", 3)
    with ParallelGzipReader(blob, **kwargs) as reader:
        data = reader.read()
        return data, reader.statistics()


class TestDifferentialMatrix:
    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    @pytest.mark.parametrize("layout", CATALOGUED_LAYOUTS)
    def test_catalog_matches_marker_and_stdlib(self, corpus, layout):
        data = CORPORA[corpus]()
        blob = catalogued(data, layout)
        assert stdlib_gzip.decompress(blob) == data
        via_catalog, stats = read_all(blob)
        assert via_catalog == data
        assert stats["mode"] == "index"
        via_markers, marker_stats = read_all(blob, detect_catalog=False)
        assert via_markers == via_catalog
        assert not marker_stats["encoding"]["catalog_detected"]

    @pytest.mark.parametrize("level", [1, 9])
    @pytest.mark.parametrize("layout", CATALOGUED_LAYOUTS)
    def test_levels(self, level, layout):
        data = CORPORA["silesia"]()
        blob = catalogued(data, layout, level=level)
        assert stdlib_gzip.decompress(blob) == data
        assert read_all(blob)[0] == data

    @pytest.mark.parametrize("layout", CATALOGUED_LAYOUTS)
    def test_parallelization_invariance(self, layout):
        data = CORPORA["fastq"]()
        blob = catalogued(data, layout)
        assert read_all(blob, parallelization=1)[0] == data
        assert read_all(blob, parallelization=4)[0] == data


class TestAcceptanceTelemetry:
    @pytest.mark.parametrize("layout", CATALOGUED_LAYOUTS)
    def test_zero_markers_zero_blockfinder(self, layout):
        data = CORPORA["base64"]()
        decoded, stats = read_all(catalogued(data, layout))
        assert decoded == data
        encoding = stats["encoding"]
        assert encoding["catalog_detected"]
        assert encoding["source"] == "rg"
        assert encoding["markers_replaced"] == 0
        assert encoding["blockfinder_searches"] == 0
        assert encoding["chunk_crc_checked"] == len(
            range(0, len(data), 64 * 1024)
        )
        assert encoding["chunk_crc_failures"] == 0

    def test_marker_path_baseline_does_search(self):
        # Sanity check that the assertion above is meaningful: the same
        # archive decoded without the catalog is in search mode, where a
        # grid cell is searched unless a worker starts its task with the
        # chunk start already known (how often is up to scheduling) —
        # and searching a cell of it does hit the block finder.
        data = CORPORA["base64"]()
        blob = catalogued(data, "chunk-isolated")
        decoded, stats = read_all(
            blob, detect_catalog=False, chunk_size=64 * 1024
        )
        assert decoded == data
        assert stats["mode"] == "search"
        assert not stats["encoding"]["catalog_detected"]
        telemetry = Telemetry()
        speculative_decode(ensure_file_reader(blob), 1, 64 * 1024,
                           telemetry=telemetry)
        assert telemetry.metrics.counter(
            "blockfinder.candidates_tested"
        ).value > 0

    def test_seek_uses_catalog(self):
        data = CORPORA["silesia"]()
        blob = catalogued(data, "chunk-isolated")
        with ParallelGzipReader(blob, parallelization=2) as reader:
            reader.seek(150_000)
            assert reader.read(10_000) == data[150_000:160_000]
            stats = reader.statistics()
        assert stats["encoding"]["markers_replaced"] == 0


class TestCatalogFallback:
    def _first_extra(self, blob):
        header = first_header(blob)
        return header, blob.index(header.extra) if header.extra else None

    def test_corrupted_rg_self_crc_falls_back(self):
        data = CORPORA["base64"]()
        blob = bytearray(catalogued(data, "chunk-isolated"))
        header = first_header(blob)
        offset = bytes(blob).index(header.extra)
        blob[offset + len(header.extra) - 1] ^= 0xFF  # RG self-CRC byte
        decoded, stats = read_all(bytes(blob))
        assert decoded == data
        assert not stats["encoding"]["catalog_detected"]
        assert stats["encoding"]["catalog_rejected"] >= 1
        assert any(
            "self-CRC" in reason
            for reason in stats["encoding"]["catalog_errors"]
        )
        assert stats["mode"] == "search"

    def test_truncated_mz_payload_falls_back(self):
        data = CORPORA["base64"]()
        blob = catalogued(data, "parallel-friendly")
        header = first_header(blob)
        fields = dict(
            ((si1, si2), payload)
            for si1, si2, payload in header.extra_subfields()
        )
        mz = fields[MZ_SUBFIELD_ID]
        with pytest.raises(FormatError):
            parse_mz_payload(mz[:-2])

    def test_bad_mz_lengths_fall_back(self):
        # Rewrite the MZ count so the length sum no longer matches the
        # file; the RG subfield (intact) should still carry the decode.
        data = CORPORA["base64"]()
        blob = bytearray(catalogued(data, "parallel-friendly"))
        header = first_header(blob)
        offset = bytes(blob).index(header.extra)
        # MZ subfield is first: skip SI1 SI2 LEN, corrupt the u32 count.
        blob[offset + 4] ^= 0x55
        decoded, stats = read_all(bytes(blob))
        assert decoded == data
        assert stats["encoding"]["catalog_detected"]
        assert stats["encoding"]["source"] == "rg"

    def test_both_subfields_corrupt_falls_back_to_search(self):
        data = CORPORA["base64"]()
        blob = bytearray(catalogued(data, "parallel-friendly"))
        header = first_header(blob)
        offset = bytes(blob).index(header.extra)
        blob[offset + 4] ^= 0x55  # MZ count
        blob[offset + len(header.extra) - 1] ^= 0xFF  # RG self-CRC
        decoded, stats = read_all(bytes(blob))
        assert decoded == data
        assert not stats["encoding"]["catalog_detected"]
        assert stats["encoding"]["catalog_rejected"] >= 2
        assert stats["mode"] in ("search", "index")  # members still decode

    def test_detect_catalog_false_never_probes(self):
        data = CORPORA["base64"]()
        blob = catalogued(data, "parallel-friendly")
        _, stats = read_all(blob, detect_catalog=False)
        assert not stats["encoding"]["catalog_detected"]
        assert stats["encoding"]["catalog_rejected"] == 0


class TestChunkCrcEnforcement:
    def _tampered(self):
        """Archive whose RG catalog lies about chunk 1's CRC."""
        data = CORPORA["base64"]()
        blob = bytearray(catalogued(data, "chunk-isolated"))
        header = first_header(blob)
        offset = bytes(blob).index(header.extra)
        # RG payload layout: 4 frame + 24 fixed, then 20-byte chunk
        # entries with the CRC at bytes 16..20 of each entry.
        crc_at = offset + 4 + 24 + 20 + 16
        old = struct.unpack_from("<I", blob, crc_at)[0]
        struct.pack_into("<I", blob, crc_at, old ^ 0xDEADBEEF)
        # Recompute the trailing self-CRC so the catalog parses.
        body_start = offset + 4
        body_end = offset + len(header.extra) - 4
        struct.pack_into(
            "<I", blob, body_end,
            zlib.crc32(bytes(blob[body_start:body_end])),
        )
        return data, bytes(blob)

    def test_strict_mode_raises(self):
        data, blob = self._tampered()
        with pytest.raises(IntegrityError, match="catalog chunk CRC"):
            read_all(blob)

    def test_tolerant_mode_records_damage(self):
        data, blob = self._tampered()
        with ParallelGzipReader(
            blob, parallelization=2, tolerate_corruption=True
        ) as reader:
            decoded = reader.read()
            stats = reader.statistics()
            regions = list(reader.damage_report.regions)
        assert decoded == data  # the data itself was never damaged
        assert stats["encoding"]["chunk_crc_failures"] == 1
        assert any(r.kind == "integrity" for r in regions)

    def test_no_verify_skips_catalog_crcs(self):
        data, blob = self._tampered()
        decoded, stats = read_all(blob, verify=False)
        assert decoded == data
        assert stats["encoding"]["chunk_crc_checked"] == 0


class TestMgzipInterop:
    def test_fixture_detected_and_decoded(self):
        blob = open(FIXTURE, "rb").read()
        expected = stdlib_gzip.decompress(blob)
        catalog, errors = detect_catalog(ensure_file_reader(blob))
        assert catalog is not None, errors
        assert catalog.source == "mz"
        assert catalog.layout == "members"
        assert len(catalog.chunks) == 5
        # CRCs and sizes come from the member footers.
        assert all(chunk.crc32 is not None for chunk in catalog.chunks)
        assert catalog.uncompressed_size == len(expected)
        decoded, stats = read_all(blob)
        assert decoded == expected
        assert stats["encoding"]["catalog_detected"]
        assert stats["encoding"]["source"] == "mz"
        assert stats["encoding"]["markers_replaced"] == 0

    def test_round_trip_against_our_mz_writer(self):
        # Our parallel-friendly writer's MZ subfield must parse exactly
        # like the third-party fixture's: count + member lengths.
        data = CORPORA["base64"]()
        blob = catalogued(data, "parallel-friendly")
        header = first_header(blob)
        fields = dict(
            ((si1, si2), payload)
            for si1, si2, payload in header.extra_subfields()
        )
        lengths = parse_mz_payload(fields[MZ_SUBFIELD_ID])
        assert sum(lengths) == len(blob)
        # Member 1 starts where the MZ lengths say it does.
        assert blob[lengths[0]: lengths[0] + 2] == b"\x1f\x8b"

    def test_mz_payload_round_trip(self):
        lengths = [100, 65536, 2**31]
        assert parse_mz_payload(build_mz_payload(lengths)) == lengths
        with pytest.raises(FormatError):
            parse_mz_payload(build_mz_payload([100, 0, 50]))


class TestRgPayload:
    def test_round_trip(self):
        catalog = ArchiveCatalog(
            layout="chunk-isolated",
            source="rg",
            chunks=[
                CatalogChunk(0, 0, 123),
                CatalogChunk(8 * 1000, 4096, 456),
            ],
            uncompressed_size=5000,
            compressed_size=2000,
        )
        parsed = parse_rg_payload(build_rg_payload(catalog))
        assert parsed.layout == catalog.layout
        assert parsed.chunks == catalog.chunks
        assert parsed.uncompressed_size == 5000
        assert parsed.compressed_size == 2000

    def test_rejects_unknown_version(self):
        catalog = ArchiveCatalog(
            layout="members", source="rg", chunks=[CatalogChunk(0, 0, 1)],
            uncompressed_size=1, compressed_size=1,
        )
        payload = bytearray(build_rg_payload(catalog))
        payload[0] = 99
        struct.pack_into(
            "<I", payload, len(payload) - 4, zlib.crc32(bytes(payload[:-4]))
        )
        with pytest.raises(FormatError, match="version"):
            parse_rg_payload(bytes(payload))

    def test_rejects_non_monotonic_offsets(self):
        catalog = ArchiveCatalog(
            layout="members", source="rg",
            chunks=[CatalogChunk(0, 0, 1), CatalogChunk(800, 100, 2),
                    CatalogChunk(400, 200, 3)],
            uncompressed_size=300, compressed_size=200,
        )
        with pytest.raises(FormatError):
            parse_rg_payload(build_rg_payload(catalog))

    def test_synthesized_index_shape(self):
        data = CORPORA["base64"]()
        blob = catalogued(data, "chunk-isolated")
        catalog, _ = detect_catalog(ensure_file_reader(blob))
        index = synthesize_index(catalog, len(blob))
        assert index.finalized
        assert len(index) == len(catalog.chunks)
        points = index.seek_points
        assert points[0].compressed_bit_offset == 0
        assert points[0].is_stream_start
        assert all(not p.is_stream_start for p in points[1:])
        assert all(p.window == b"" for p in points)


class TestChunkIsolatedCompressor:
    def test_chunks_decode_standalone(self):
        data = generate_silesia_like(100_000, seed=3)
        options = CompressorOptions(chunk_isolated=True, chunk_size=16_384)
        compressor = DeflateCompressor(options)
        writer = BitWriter()
        compressor.compress_into(writer, data)
        blob = writer.getvalue()
        boundaries = compressor.boundaries
        assert boundaries[0] == (0, 0)
        assert len(boundaries) == -(-len(data) // 16_384)
        for number, (start_bit, offset) in enumerate(boundaries):
            assert start_bit % 8 == 0  # byte-aligned by construction
            expected = data[offset: offset + 16_384]
            decoder = zlib.decompressobj(-15)
            piece = decoder.decompress(blob[start_bit // 8:])
            assert piece[: len(expected)] == expected

    def test_whole_stream_still_valid(self):
        data = generate_base64(50_000, seed=4)
        options = CompressorOptions(chunk_isolated=True, chunk_size=8192)
        writer = BitWriter()
        DeflateCompressor(options).compress_into(writer, data)
        assert zlib.decompress(writer.getvalue(), -15) == data

    def test_chunk_size_validation(self):
        with pytest.raises(UsageError):
            CompressorOptions(chunk_isolated=True, chunk_size=0)


class TestEdgeCases:
    @pytest.mark.parametrize("layout", CATALOGUED_LAYOUTS)
    def test_empty_input(self, layout):
        blob = catalogued(b"", layout)
        assert stdlib_gzip.decompress(blob) == b""
        decoded, stats = read_all(blob)
        assert decoded == b""
        assert stats["encoding"]["catalog_detected"]

    @pytest.mark.parametrize("layout", CATALOGUED_LAYOUTS)
    def test_single_chunk(self, layout):
        data = b"tiny payload"
        blob = catalogued(data, layout)
        assert stdlib_gzip.decompress(blob) == data
        assert read_all(blob)[0] == data

    @pytest.mark.parametrize("layout", CATALOGUED_LAYOUTS)
    def test_exact_chunk_multiple(self, layout):
        data = generate_base64(128 * 1024, seed=9)[: 128 * 1024]
        blob = catalogued(data, layout, chunk_size=64 * 1024)
        assert stdlib_gzip.decompress(blob) == data
        decoded, stats = read_all(blob)
        assert decoded == data
        assert stats["encoding"]["chunks"] == 2

    def test_streaming_writer_matches_oneshot(self):
        from repro.gz.parallel_writer import ParallelGzipWriter

        data = generate_silesia_like(200_000, seed=5)
        sink = io.BytesIO()
        with ParallelGzipWriter(
            sink, parallelization=2, chunk_size=32 * 1024,
            layout="chunk-isolated",
        ) as writer:
            for start in range(0, len(data), 7000):
                writer.write(data[start: start + 7000])
        oneshot = compress_parallel(
            data, parallelization=2, chunk_size=32 * 1024,
            layout="chunk-isolated",
        )
        assert sink.getvalue() == oneshot

    def test_too_many_chunks_raises(self):
        from repro.gz.parallel_writer import ParallelGzipWriter

        writer = ParallelGzipWriter(
            io.BytesIO(), chunk_size=1, layout="chunk-isolated"
        )
        writer._results = [(b"\x03\x00", 0, 1)] * 3300
        with pytest.raises(UsageError, match="FEXTRA"):
            writer._write_chunk_isolated()

"""Tests for index chunk splitting (paper §1.4 / §6 future work).

High-compression-ratio chunks would otherwise dominate memory and seek
latency when the index is reused; interior seek points at Dynamic block
boundaries bound the decompressed span between seek points.
"""

import gzip as stdlib_gzip
import io
import random
import time
import zlib

import pytest

from repro.fetcher import decode_chunk_range
from repro.gz.header import parse_gzip_header
from repro.index import load_index
from repro.io import BitReader, MemoryFileReader
from repro.reader import ParallelGzipReader


def make_high_ratio_blob() -> tuple:
    # Compressible multi-block text (ratio ~8): a 64 KiB compressed chunk
    # spans ~0.5 MB of output across several Deflate blocks — the regime
    # where splitting can and must kick in. (A single giant final block,
    # like igzip -0 output, is genuinely unsplittable by this scheme.)
    rng = random.Random(1)
    words = [b"alpha", b"beta", b"gamma", b"delta", b"epsilon", b"zeta",
             b"eta", b"theta", b"iota", b"kappa"]
    pieces = []
    total = 0
    while total < 2_000_000:
        piece = rng.choice(words)
        pieces.append(piece + b" ")
        total += len(piece) + 1
    data = b"".join(pieces)[:2_000_000]
    return data, stdlib_gzip.compress(data, 6)


class TestChunkSplitting:
    def test_interior_seek_points_added(self):
        data, blob = make_high_ratio_blob()
        with ParallelGzipReader(blob, chunk_size=64 * 1024) as reader:
            sink = io.BytesIO()
            reader.export_index(sink)
            chunks = reader.statistics()["chunks_decoded"]
        index = load_index(sink.getvalue())
        # Far more seek points than decoded chunks: the splitting worked.
        assert len(index) > chunks
        gaps = [
            second.uncompressed_offset - first.uncompressed_offset
            for first, second in zip(index, list(index)[1:])
        ]
        # Spacing (2 * chunk_size) bounded by spacing + one block's output
        # (blocks of this corpus decompress to ~300 KiB per zlib block).
        assert max(gaps) < 128 * 1024 + 600 * 1024

    def test_split_index_round_trips(self):
        data, blob = make_high_ratio_blob()
        with ParallelGzipReader(blob, chunk_size=64 * 1024) as reader:
            sink = io.BytesIO()
            reader.export_index(sink)
        index = load_index(sink.getvalue())
        with ParallelGzipReader(blob, parallelization=3, index=index) as reader:
            assert reader.read() == data

    def test_split_index_random_access_touches_few_chunks(self):
        data, blob = make_high_ratio_blob()
        # Seek points at most 64 KiB of output apart (2 * chunk_size).
        with ParallelGzipReader(blob, chunk_size=32 * 1024) as reader:
            sink = io.BytesIO()
            reader.export_index(sink)
        index = load_index(sink.getvalue())
        with ParallelGzipReader(blob, parallelization=2, index=index) as reader:
            reader.seek(len(data) - 500)
            assert reader.read(100) == data[len(data) - 500 : len(data) - 400]
            # Only the tail chunk (plus bounded prefetch) was decoded —
            # no initial pass over the first ~95% of the file.
            stats = reader.statistics()
            decodes = stats["on_demand_decodes"] + stats["speculative_submitted"]
            assert decodes < len(index) // 2

    def test_default_spacing_leaves_normal_files_alone(self):
        # Low-ratio file: chunks stay under 2x chunk_size, no splitting.
        rng = random.Random(0)
        data = bytes(rng.randrange(256) for _ in range(300_000))
        blob = stdlib_gzip.compress(data, 6)
        with ParallelGzipReader(blob, chunk_size=32 * 1024) as reader:
            sink = io.BytesIO()
            reader.export_index(sink)
            chunks = reader.statistics()["chunks_decoded"]
        index = load_index(sink.getvalue())
        assert len(index) == chunks

    def test_windows_at_interior_points_are_correct(self):
        data, blob = make_high_ratio_blob()
        with ParallelGzipReader(blob, chunk_size=48 * 1024) as reader:
            sink = io.BytesIO()
            reader.export_index(sink)
        index = load_index(sink.getvalue())
        for point in list(index)[1:-1]:
            if point.is_stream_start or point.uncompressed_offset == 0:
                continue
            expected = data[
                max(point.uncompressed_offset - 32768, 0) : point.uncompressed_offset
            ]
            assert point.window[-len(expected) or None :] == expected


def make_many_interval_blob() -> tuple:
    """``(data, blob)``: ratio ~60 text in 48 KiB Deflate blocks, so that
    at an 8 KiB chunk size each decode splits into about ten intervals —
    more than the reader's materialized cache has entries."""
    rng = random.Random(3)
    lines = [
        bytes(rng.randrange(97, 123) for _ in range(rng.randrange(40, 90)))
        + b"\n"
        for _ in range(6)
    ]
    pieces, total = [], 0
    while total < 3_000_000:
        line = rng.choice(lines)
        pieces.append(line)
        total += len(line)
    data = b"".join(pieces)
    compressor = zlib.compressobj(6, zlib.DEFLATED, 31)
    out = []
    for start in range(0, len(data), 48 * 1024):
        out.append(compressor.compress(data[start:start + 48 * 1024]))
        out.append(compressor.flush(zlib.Z_BLOCK))
    out.append(compressor.flush())
    return data, b"".join(out)


def longest_block(blob: bytes) -> int:
    """Decompressed length of the longest Deflate block of ``blob``."""
    header = BitReader(blob)
    parse_gzip_header(header)
    result = decode_chunk_range(
        MemoryFileReader(blob), header.tell(), len(blob) * 8, b""
    )
    offsets = [boundary.output_offset for boundary in result.boundaries]
    offsets.append(result.length)
    return max(end - start for start, end in zip(offsets, offsets[1:]))


def wait_until_idle(reader, limit: float = 10.0) -> None:
    deadline = time.perf_counter() + limit
    while time.perf_counter() < deadline:
        pool = reader.statistics()["pool"]
        if pool["tasks_submitted"] <= (
            pool["tasks_completed"] + pool["tasks_cancelled"]
        ):
            return
        time.sleep(0.005)
    raise AssertionError("the reader's pool did not go idle")


class TestSearchModeIntervals:
    """A search-mode reader chains one record per seek point it builds, so
    it seeks through the interior points as an importing reader does."""

    CHUNK = 48 * 1024

    def test_records_are_the_seek_point_intervals(self):
        data, blob = make_high_ratio_blob()
        with ParallelGzipReader(
            blob, parallelization=2, chunk_size=self.CHUNK
        ) as reader:
            assert reader.read() == data
            stats = reader.statistics()
            starts = [record.start_bit for record in reader._chunks]
            points = reader.index.seek_points
        assert starts == [point.compressed_bit_offset for point in points]
        assert len(starts) > stats["chunks_decoded"]
        # Every interval of a decode is served from its one cached entry.
        assert stats["metrics"]["decode.index_chunks"] == 0

    def test_cold_read_decodes_one_interval(self):
        data, blob = make_high_ratio_blob()
        cell_bits = self.CHUNK * 8
        with ParallelGzipReader(
            blob, parallelization=2, chunk_size=self.CHUNK
        ) as reader:
            assert reader.read() == data
            wait_until_idle(reader)
            records = list(reader._chunks)
            # The first interior interval: the second record of its cell,
            # whose decode has left the materialized cache since.
            position = next(
                number for number in range(1, len(records))
                if records[number].start_bit // cell_bits
                == records[number - 1].start_bit // cell_bits
            )
            record, head = records[position], records[position - 1]
            before = reader.statistics()["metrics"]["decode.index_chunks"]
            offset = record.output_start + record.length // 2
            assert reader.read_at(offset, 4096) == data[offset:offset + 4096]
            wait_until_idle(reader)
            after = reader.statistics()["metrics"]["decode.index_chunks"]
        assert after - before == 1
        assert record.length <= 2 * self.CHUNK + longest_block(blob)
        # Less than the decode that chained it, which began at ``head``.
        assert record.length < record.output_end - head.output_start

    def test_full_read_serves_more_intervals_than_cache_entries(self):
        # Each decode splits into more intervals than the materialized
        # cache holds entries; one entry per decode serves them all, so
        # no interval is decoded a second time.
        data, blob = make_many_interval_blob()
        with ParallelGzipReader(
            blob, parallelization=2, chunk_size=8 * 1024
        ) as reader:
            assert reader.read() == data
            stats = reader.statistics()
            records = len(reader._chunks)
        assert records >= 6 * stats["chunks_decoded"]
        assert records >= 6 * stats["materialized_cache"]["capacity"]
        assert stats["metrics"]["decode.index_chunks"] == 0

    def test_intervals_of_one_cell_are_separate_tasks(self):
        # Two reads along the chain make a run, which wishes the next two
        # intervals. Both start in the first cell, and each is queued as
        # its own task, so the reads that follow find them decoded.
        data, blob = make_many_interval_blob()
        cell_bits = 8 * 1024 * 8
        with ParallelGzipReader(
            blob, parallelization=2, chunk_size=8 * 1024
        ) as reader:
            assert reader.read() == data
            wait_until_idle(reader)
            records = list(reader._chunks)[:5]
            assert {record.start_bit // cell_bits for record in records} \
                == {0}
            start = reader.statistics()
            for record in records[1:3]:
                offset = record.output_start
                assert reader.read_at(offset, 100) == data[offset:offset + 100]
            wait_until_idle(reader)
            before = reader.statistics()
            for record in records[3:5]:
                offset = record.output_start
                assert reader.read_at(offset, 100) == data[offset:offset + 100]
            after = reader.statistics()
        submitted = "speculative_submitted"
        assert before[submitted] - start[submitted] == 2
        assert after["on_demand_decodes"] == before["on_demand_decodes"]
        assert after["wait_inflight"] == before["wait_inflight"]

"""Tests for index chunk splitting (paper §1.4 / §6 future work).

High-compression-ratio chunks would otherwise dominate memory and seek
latency when the index is reused; interior seek points at Dynamic block
boundaries bound the decompressed span between seek points.
"""

import gzip as stdlib_gzip
import io

import pytest

from repro.index import load_index
from repro.reader import ParallelGzipReader


def make_high_ratio_blob() -> tuple:
    # Compressible multi-block text (ratio ~8): a 64 KiB compressed chunk
    # spans ~0.5 MB of output across several Deflate blocks — the regime
    # where splitting can and must kick in. (A single giant final block,
    # like igzip -0 output, is genuinely unsplittable by this scheme.)
    import random

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
        import random

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

"""Re-reads inside territory a search-mode reader has already decoded.

Once the reader has chained a chunk it knows the chunk's extent (start
and end bit, output length, preceding and following window), so a later
cache miss on it is decoded by checked zlib delegation — the task index
mode uses — and not by block search, markers or the Python decoder. The
output must stay byte-identical on every corpus and budget, and
the existing counters must show which path ran.
"""

import glob
import gzip
import io
import os
import random
import time

import pytest

from repro.datagen import (
    generate_base64,
    generate_fastq,
    generate_silesia_like,
)
from repro.faults import flip_bytes
from repro.fetcher import decode as decode_module
from repro.fetcher import decode_index_chunk, gzip_chunk_fetcher
from repro.index import load_index
from repro.io import ensure_file_reader
from repro.reader import ParallelGzipReader

CHUNK = 16 * 1024
SIZE = 448 * 1024


def _stored(size: int, seed: int) -> bytes:
    return random.Random(seed).randbytes(size)


def _multi_member(size: int, seed: int) -> tuple:
    data = generate_base64(size, seed=seed)
    cuts = [0, size // 5, size // 2, size // 2 + 100, size]
    blob = b"".join(
        gzip.compress(data[start:end], 6) for start, end in zip(cuts, cuts[1:])
    )
    return data, blob


def _corpus(name: str) -> tuple:
    if name == "multi_member":
        return _multi_member(SIZE, 5)
    generator, size = {
        "base64": (generate_base64, SIZE),
        # These compress about 3.5:1 and 6:1; more input keeps the chunk
        # count above the caches' capacity.
        "silesia": (generate_silesia_like, 3 * SIZE // 2),
        "fastq": (generate_fastq, 3 * SIZE),
        # Random bytes: zlib stores them, and every chunk boundary is an
        # unaligned stored block, which zlib delegation must refuse.
        "stored": (_stored, SIZE),
    }[name]
    data = generator(size, seed=5)
    return data, gzip.compress(data, 6)


def _wait_until_idle(reader, limit: float = 10.0) -> None:
    deadline = time.perf_counter() + limit
    while time.perf_counter() < deadline:
        pool = reader.statistics()["pool"]
        if pool["tasks_submitted"] <= (
            pool["tasks_completed"] + pool["tasks_cancelled"]
        ):
            return
        time.sleep(0.005)
    raise AssertionError("the reader's pool did not go idle")


def _chunk_spans(reader) -> list:
    """Decompressed ``(start, end)`` between the reader's seek points."""
    offsets = [
        point.uncompressed_offset for point in reader.index.seek_points
    ] + [reader.index.uncompressed_size]
    return [
        (start, end) for start, end in zip(offsets, offsets[1:]) if end > start
    ]


def _drop_spill_files(directory) -> None:
    """Spilled chunks are disposable; losing them forces a re-decode."""
    for path in glob.glob(os.path.join(str(directory), "*.spill")):
        os.remove(path)


@pytest.mark.parametrize("budget", [None, "512KiB"], ids=["default", "split"])
@pytest.mark.parametrize("backend", ["threads"])
@pytest.mark.parametrize(
    "corpus", ["base64", "silesia", "fastq", "stored", "multi_member"]
)
def test_rereads_are_delegated_and_identical(corpus, backend, budget,
                                             tmp_path, monkeypatch):
    data, blob = _corpus(corpus)
    options = {}
    if budget is not None:
        # The floor keeps ordinary chunks whole; lowered, this budget
        # splits every chunk that decompresses to more than 64 KiB. A
        # budget this tight makes mandatory decodes overcommit.
        monkeypatch.setattr(gzip_chunk_fetcher, "MIN_SPLIT_OUTPUT", 32 * 1024)
        options = {"max_memory": budget, "spill_dir": str(tmp_path)}
    rng = random.Random(11)
    with ParallelGzipReader(
        blob, parallelization=2, chunk_size=CHUNK, **options
    ) as reader:
        assert reader.read() == data
        first = reader.statistics()
        assert first["mode"] == "search"
        assert first["metrics"]["decode.index_chunks"] == 0
        if budget is not None and corpus in ("silesia", "fastq"):
            assert first["chunk_splits"] > 0
        spans = _chunk_spans(reader)
        assert len(spans) >= 10  # more chunks than any cache holds

        # A sweep from the start also flushes what the first pass left
        # behind: finished speculative tasks and marker-mode results still
        # in the prefetch cache.
        _wait_until_idle(reader)
        _drop_spill_files(tmp_path)
        reader.seek(0)
        assert reader.read() == data
        swept = reader.statistics()
        assert swept["metrics"]["decode.index_chunks"] > 0

        _drop_spill_files(tmp_path)
        for start, end in reversed(spans):
            assert reader.read_at(start, end - start) == data[start:end]
        _drop_spill_files(tmp_path)
        for start, end in rng.sample(spans, len(spans)):
            assert reader.read_at(start, end - start) == data[start:end]
        _wait_until_idle(reader)
        assert reader.read_at(0, 1) == data[:1]  # harvests the stragglers
        last = reader.statistics()

    assert last["mode"] == "search"
    assert last["backend"] == backend
    delegated = (last["metrics"]["decode.index_chunks"]
                 - swept["metrics"]["decode.index_chunks"])
    assert delegated > 0
    unchanged = ["blockfinder.candidates_tested"]
    if budget is None:
        # Under a budget the byte-bound prefetch cache can keep a
        # marker-mode result of the first pass for good; serving it again
        # resolves its markers again and decodes nothing.
        unchanged.append("decode.markers_replaced")
    for name in unchanged:
        assert last["metrics"][name] == swept["metrics"][name], name
    assert last["damaged_regions"] == 0


@pytest.mark.parametrize("backend", ["threads"])
def test_prefetch_after_backward_seek_follows_the_chain(backend):
    data, blob = _corpus("base64")
    with ParallelGzipReader(
        blob, parallelization=2, chunk_size=CHUNK
    ) as reader:
        assert reader.read() == data
        spans = _chunk_spans(reader)
        _wait_until_idle(reader)
        start, end = spans[2]
        assert reader.read_at(start, 100) == data[start:start + 100]
        _wait_until_idle(reader)
        before = reader.statistics()
        # The successor was prefetched by delegation: reading on does not
        # decode on demand, search, or resolve markers.
        assert reader.read_at(end, 100) == data[end:end + 100]
        after = reader.statistics()
    assert after["backend"] == backend
    assert after["metrics"]["decode.index_chunks"] >= 2
    assert after["on_demand_decodes"] == before["on_demand_decodes"]
    for name in ("blockfinder.candidates_tested", "decode.markers_replaced"):
        assert after["metrics"][name] == before["metrics"][name], name


@pytest.mark.parametrize("backend", ["threads"])
def test_tolerant_reader_rereads_what_it_first_returned(backend):
    data, blob = _corpus("base64")
    with ParallelGzipReader(blob, chunk_size=CHUNK) as reader:
        reader.read()
        points = reader.index.seek_points
    # Flipped bytes inside a block mostly decode to other bytes; in the
    # block header that starts a chunk they stop the decoder, and the
    # tolerant reader resynchronises and pins what it recovers.
    header = points[len(points) // 3].compressed_bit_offset // 8 + 1
    damaged = flip_bytes(blob, seed=3, flips=8, start=header,
                         stop=header + 16)
    with ParallelGzipReader(
        damaged, parallelization=2, chunk_size=CHUNK,
        tolerate_corruption=True,
    ) as reader:
        first = reader.read()
        regions = list(reader.damage_report.regions)
        assert [region.kind for region in regions] == ["corrupt"]
        assert regions[0].recovered_bytes > 0
        assert first != data
        assert first[: len(first) // 4] == data[: len(first) // 4]
        size = len(first)
        offsets = list(range(0, size, 24 * 1024))
        for offset in reversed(offsets):
            assert reader.read_at(offset, 4096) == first[offset:offset + 4096]
        for offset in random.Random(2).sample(offsets, len(offsets)):
            assert reader.read_at(offset, 4096) == first[offset:offset + 4096]
        reader.seek(0)
        assert reader.read() == first
        stats = reader.statistics()
        assert reader.damage_report.regions == regions
    assert stats["mode"] == "search"
    assert stats["backend"] == backend
    assert stats["metrics"]["decode.index_chunks"] > 0


class _Spy:
    """Records the start bits a decode function was called with."""

    def __init__(self, function):
        self.function = function
        self.start_bits = []

    def __call__(self, file_reader, start_bit, *args, **kwargs):
        self.start_bits.append(start_bit)
        return self.function(file_reader, start_bit, *args, **kwargs)


@pytest.mark.parametrize("seed", range(8))
def test_last_chunk_of_a_single_member_file_is_zlib_delegated(seed,
                                                              monkeypatch):
    # The Deflate stream of a single member ends at any bit alignment, and
    # its footer is the last thing in the file: both candidate positions
    # of the footer are followed by "nothing", but only one fits the file.
    data = generate_base64(1 << 20, seed=seed)
    blob = gzip.compress(data, 6)
    chunk_size = 128 * 1024
    with ParallelGzipReader(
        blob, parallelization=1, chunk_size=chunk_size
    ) as reader:
        assert reader.read() == data
        spans = _chunk_spans(reader)
        sink = io.BytesIO()
        reader.export_index(sink)
        last_start_bit = reader.index.seek_points[-1].compressed_bit_offset

        delegated = _Spy(decode_module.zlib_decode_range)
        fallback = _Spy(decode_module.decode_chunk_range)
        monkeypatch.setattr(decode_module, "zlib_decode_range", delegated)
        monkeypatch.setattr(decode_module, "decode_chunk_range", fallback)
        for start, end in spans:  # pushes the first pass out of the caches
            assert reader.read_at(start, end - start) == data[start:end]
    assert last_start_bit in delegated.start_bits
    assert fallback.start_bits == []

    del delegated.start_bits[:]
    with ParallelGzipReader(
        blob, parallelization=1, index=load_index(sink.getvalue()),
    ) as reader:
        start, end = spans[-1]
        assert reader.read_at(start, end - start) == data[start:end]
        assert reader.statistics()["mode"] == "index"
    assert last_start_bit in delegated.start_bits
    assert fallback.start_bits == []


def test_fallback_stops_where_the_extent_ends():
    # Two stored blocks, the second one final. A chunk that ends before a
    # final block ends where no chunk decode would stop by itself (as after
    # a split under a memory budget); when delegation is refused, the
    # fallback must still return the chunk and not the rest of the stream.
    data = random.Random(1).randbytes(100_000)
    blob = gzip.compress(data, 0)
    first_block = 65535
    start_bit = 10 * 8
    end_bit = start_bit + (5 + first_block) * 8
    result = decode_index_chunk(
        ensure_file_reader(blob), start_bit, end_bit, b"",
        expected_size=first_block,
        next_window=b"not what the chunk ends with",  # refuses delegation
    )
    assert result.payload.materialize(b"") == data[:first_block]
    assert result.end_bit == end_bit
    assert result.events == []

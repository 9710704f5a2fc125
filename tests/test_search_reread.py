"""Re-reads inside territory a search-mode reader has already decoded.

Once the reader has chained a chunk it knows the chunk's extent (start
and end bit, output length, preceding and following window), so a later
cache miss on it is decoded by one exact libz pass over that extent —
the task index mode uses — and not by block search or markers. The
output must stay byte-identical on every corpus and budget, and
the existing counters must show which path ran.
"""

import gzip
import io
import random
import time

import pytest

from repro.datagen import (
    generate_base64,
    generate_fastq,
    generate_silesia_like,
)
from repro.errors import FormatError
from repro.faults import FaultSpec, flip_bytes, injected
from repro.fetcher import decode as decode_module
from repro.fetcher import decode_index_chunk
from repro.index import load_index
from repro.io import ensure_file_reader
from repro.reader import ParallelGzipReader
from repro.reader import options as reader_options

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
        # unaligned stored block, which the exact pass starts bit-exactly.
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


@pytest.mark.parametrize("budget", [None, "512KiB"], ids=["default", "split"])
@pytest.mark.parametrize("backend", ["threads"])
@pytest.mark.parametrize(
    "corpus", ["base64", "silesia", "fastq", "stored", "multi_member"]
)
def test_rereads_are_delegated_and_identical(corpus, backend, budget,
                                             monkeypatch):
    data, blob = _corpus(corpus)
    options = {}
    if budget is not None:
        # The floor keeps ordinary chunks whole; lowered, this budget
        # splits every chunk that decompresses to more than 64 KiB. A
        # budget this tight makes mandatory decodes overcommit.
        monkeypatch.setattr(reader_options, "MIN_SPLIT_OUTPUT", 32 * 1024)
        options = {"max_memory": budget}
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
        reader.seek(0)
        assert reader.read() == data
        swept = reader.statistics()
        assert swept["metrics"]["decode.index_chunks"] > 0

        for start, end in reversed(spans):
            assert reader.read_at(start, end - start) == data[start:end]
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
        # A seek back breaks the pattern; reading on makes a run of two.
        for start, _ in spans[2:4]:
            assert reader.read_at(start, 100) == data[start:start + 100]
        _wait_until_idle(reader)
        before = reader.statistics()
        # The run's successor was prefetched by an exact pass: reading on
        # does not decode on demand, search, or resolve markers.
        start = spans[4][0]
        assert reader.read_at(start, 100) == data[start:start + 100]
        after = reader.statistics()
    assert after["backend"] == backend
    assert after["metrics"]["decode.index_chunks"] >= 2
    assert after["on_demand_decodes"] == before["on_demand_decodes"]
    for name in ("blockfinder.candidates_tested", "decode.markers_replaced"):
        assert after["metrics"][name] == before["metrics"][name], name


def test_sequential_reread_of_split_chunks_stays_prefetched():
    # At 64 KiB chunks most decodes of this silesia-like file split into
    # two or three intervals, the first cell's into three. After a seek
    # back to 0 the first interval breaks the run and the second starts
    # one; from there prefetch along the chain keeps ahead of the reads,
    # each interval its own task even where several share a cell.
    data = generate_silesia_like(3 << 20, seed=4)
    blob = gzip.compress(data, 6)
    with ParallelGzipReader(
        blob, parallelization=2, chunk_size=64 * 1024
    ) as reader:
        assert reader.read() == data
        first = reader.statistics()
        assert len(reader._chunks) > first["chunks_decoded"]
        _wait_until_idle(reader)
        before = reader.statistics()
        reader.seek(0)
        assert reader.read() == data
        after = reader.statistics()
    assert after["on_demand_decodes"] - before["on_demand_decodes"] <= 2
    assert after["metrics"]["decode.index_chunks"] > 0


def test_random_reads_decode_only_the_chunks_they_read():
    # A read that breaks the sequential pattern prefetches nothing, so
    # after the first access (which wishes the full degree) every chunk
    # pass is one a read asked for.
    data = generate_silesia_like(3 << 20, seed=4)
    blob = gzip.compress(data, 6)
    with ParallelGzipReader(
        blob, parallelization=2, chunk_size=CHUNK
    ) as reader:
        reader.read()
        sink = io.BytesIO()
        reader.export_index(sink)
    with ParallelGzipReader(
        blob, parallelization=2, index=load_index(sink.getvalue())
    ) as reader:
        spans = _chunk_spans(reader)
        assert len(spans) >= 31
        # Steps of 7 modulo 31: never the same or an adjacent chunk twice
        # in a row, and the first read's two successors are read later.
        chosen = [7 * step % 31 for step in range(30)]
        for step, chunk in enumerate(chosen):
            start, end = spans[chunk]
            size = min(4096, end - start)
            assert reader.read_at(start, size) == data[start:start + size]
            if step == 0:
                first = reader.statistics()
        _wait_until_idle(reader)
        last = reader.statistics()
    assert last["mode"] == "index"
    assert first["speculative_submitted"] == 2
    assert last["speculative_submitted"] == first["speculative_submitted"]
    assert last["metrics"]["decode.index_chunks"] == len(set(chosen))


def _read_in_steps(reader, step: int = 64 * 1024) -> bytes:
    pieces = []
    while piece := reader.read(step):
        pieces.append(piece)
    return b"".join(pieces)


def test_failed_speculation_is_not_queued_again():
    # One rule in every mode: a speculative task that fails is never
    # queued again, and the consumer decodes its chunk on demand. With
    # every speculative decode failing, a re-read submits each chained
    # chunk at most once, as an index-mode read of the exported index does.
    data = generate_silesia_like(3 << 20, seed=4)
    blob = gzip.compress(data, 6)
    every_prefetch_fails = [FaultSpec("chunk.decode", "raise", attempts=(0,))]
    with ParallelGzipReader(
        blob, parallelization=2, chunk_size=32 * 1024
    ) as reader:
        assert reader.read() == data
        _wait_until_idle(reader)
        records = len(reader._chunks)
        sink = io.BytesIO()
        reader.export_index(sink)
        before = reader.statistics()["speculative_submitted"]
        with injected(seed=1, specs=every_prefetch_fails):
            reader.seek(0)
            assert _read_in_steps(reader) == data
            _wait_until_idle(reader)
        after = reader.statistics()["speculative_submitted"]
    assert after - before <= records
    with injected(seed=1, specs=every_prefetch_fails):
        with ParallelGzipReader(
            blob, parallelization=2, index=load_index(sink.getvalue())
        ) as reader:
            assert _read_in_steps(reader) == data
            _wait_until_idle(reader)
            submitted = reader.statistics()["speculative_submitted"]
    assert submitted <= records


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
    # its footer is the last thing in the file. Every chunk of known
    # extent, the last one included, is one exact libz pass: one call of
    # the decode loop per index-task call for the same start bit — a
    # second decode of a start would be a fallback, and there is none.
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

        tasks, passes = _spy_on_index_chunks(monkeypatch)
        for start, end in spans:  # pushes the first pass out of the caches
            assert reader.read_at(start, end - start) == data[start:end]
    assert last_start_bit in tasks.start_bits
    assert sorted(passes.start_bits) == sorted(tasks.start_bits)

    del tasks.start_bits[:], passes.start_bits[:]
    with ParallelGzipReader(
        blob, parallelization=1, index=load_index(sink.getvalue()),
    ) as reader:
        start, end = spans[-1]
        assert reader.read_at(start, end - start) == data[start:end]
        assert reader.statistics()["mode"] == "index"
    assert last_start_bit in tasks.start_bits
    assert sorted(passes.start_bits) == sorted(tasks.start_bits)


def _spy_on_index_chunks(monkeypatch) -> tuple:
    """Spies on the index task's decode and on the loop it runs."""
    from repro.fetcher import tasks as tasks_module

    tasks = _Spy(tasks_module.decode_index_chunk)
    passes = _Spy(decode_module.decode_chunk_range)
    monkeypatch.setattr(tasks_module, "decode_index_chunk", tasks)
    monkeypatch.setattr(decode_module, "decode_chunk_range", passes)
    return tasks, passes


def test_exact_pass_stops_where_the_extent_ends():
    # Stored blocks, the last one final. A chunk that ends before a later
    # block ends where no chunk decode would stop by itself (as after a
    # split under a memory budget); the exact pass returns the chunk and
    # not the rest of the stream — and a tail that contradicts the next
    # window is refused, not decoded a second way.
    data = random.Random(1).randbytes(100_000)
    blob = gzip.compress(data, 0)
    first_block = int.from_bytes(blob[11:13], "little")  # the block's LEN
    start_bit = 10 * 8
    end_bit = start_bit + (5 + first_block) * 8
    result = decode_index_chunk(
        ensure_file_reader(blob), start_bit, end_bit, b"",
        expected_size=first_block, next_window=data[:first_block][-32768:],
    )
    assert result.payload.materialize(b"") == data[:first_block]
    assert result.end_bit == end_bit
    assert result.events == []
    with pytest.raises(FormatError, match="next seek point"):
        decode_index_chunk(
            ensure_file_reader(blob), start_bit, end_bit, b"",
            expected_size=first_block,
            next_window=b"not what the chunk ends with",
        )
"""Search-mode prefetch tasks are bound to what is known when a worker
starts them, not when they are queued (paper §3.3: two-stage decoding
only while the window is unknown).

The fetcher's ``ChunkChain`` holds, per grid cell ahead of the frontier,
the start and window of the chunk starting there once its predecessor's
window is known; a queued task whose cell is recorded there decodes
exactly — one libz pass, no block search, no markers — and a cell inside
a known chunk retires and returns without searching. At
P=1 the lone worker starts every task after its predecessor is done, so
a whole read runs without a single marker or finder candidate. At P=2
and 3 the same holds because of the submit-side rule, chain first: a
wish for a cell the chain reaches first is not submitted at all.
"""

import gzip
import random
import sys

import pytest

from repro.cache import FetchNextFixed
from repro.datagen import generate_base64, generate_fastq, generate_silesia_like
from repro.fetcher import GzipChunkFetcher
from repro.gz.header import parse_gzip_header
from repro.io import BitReader
from repro.reader import ParallelGzipReader, ReaderOptions

SIZE = 448 * 1024


def _corpus(name: str) -> tuple:
    if name == "multi_member":
        data = generate_base64(SIZE, seed=5)
        cuts = [0, SIZE // 5, SIZE // 2, SIZE // 2 + 100, SIZE]
        blob = b"".join(
            gzip.compress(data[start:end], 6)
            for start, end in zip(cuts, cuts[1:])
        )
        return data, blob
    if name == "stored":
        data = random.Random(5).randbytes(SIZE)
        return data, gzip.compress(data, 6)  # zlib stores noise
    generator, size = {
        "base64": (generate_base64, SIZE),
        "silesia": (generate_silesia_like, 3 * SIZE // 2),
        "fastq": (generate_fastq, 3 * SIZE),
    }[name]
    data = generator(size, seed=5)
    return data, gzip.compress(data, 6)


CORPORA = ["base64", "silesia", "fastq", "multi_member", "stored"]
CHUNK_SIZES = [16 * 1024, 64 * 1024, 256 * 1024]


class NoPrefetch:
    """A strategy that wishes nothing: no task runs unless a test runs it."""

    def prefetch(self, history, degree: int) -> list:
        return []


def deflate_start(blob: bytes) -> int:
    reader = BitReader(blob)
    parse_gzip_header(reader)
    return reader.tell()


# Ids without a ``-P`` suffix are the P=1 reads.
CHAINED_READS = [
    pytest.param(
        name, chunk_size, parallelization,
        id=f"{name}-{chunk_size}" + (
            f"-P{parallelization}" if parallelization > 1 else ""
        ),
    )
    for parallelization in (1, 2, 3)
    for name in CORPORA
    for chunk_size in CHUNK_SIZES
]


@pytest.mark.parametrize("name,chunk_size,parallelization", CHAINED_READS)
def test_p1_read_has_no_markers_and_no_search(name, chunk_size,
                                              parallelization):
    # Up to P=3 the adaptive strategy wishes at most two cells past the
    # access, all within the chain's reach: nothing is ever searched.
    data, blob = _corpus(name)
    with ParallelGzipReader(
        blob, parallelization=parallelization, chunk_size=chunk_size
    ) as reader:
        assert reader.read() == data
        stats = reader.statistics()
    assert stats["mode"] == "search"
    assert stats["metrics"]["decode.markers_replaced"] == 0
    assert stats["metrics"]["blockfinder.candidates_tested"] == 0


@pytest.mark.parametrize("parallelization", [2, 3])
@pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
@pytest.mark.parametrize("name", CORPORA)
def test_parallel_read_is_byte_identical(name, chunk_size, parallelization):
    data, blob = _corpus(name)
    with ParallelGzipReader(
        blob, parallelization=parallelization, chunk_size=chunk_size
    ) as reader:
        assert reader.read() == data


def test_far_wishes_are_still_searched():
    # P=6 wishes six cells ahead; those at least SEARCH_DISTANCE past the
    # reach are still searched.
    data, blob = _corpus("base64")
    with ParallelGzipReader(
        blob, parallelization=6, chunk_size=16 * 1024,
        strategy=FetchNextFixed(),
    ) as reader:
        assert reader.read() == data
        stats = reader.statistics()
    assert stats["metrics"]["blockfinder.candidates_tested"] > 0


class TestQueuedTask:
    CHUNK = 32 * 1024
    DATA, BLOB = _corpus("silesia")

    def fetcher(self, blob=None, **options):
        return GzipChunkFetcher(
            self.BLOB if blob is None else blob, ReaderOptions(
                parallelization=1, chunk_size=self.CHUNK,
                strategy=NoPrefetch(), **options,
            ),
        )

    def test_recorded_cell_decodes_exactly_at_its_start(self):
        with self.fetcher() as fetcher:
            first = fetcher.request(deflate_start(self.BLOB), b"")
            window = first.next_window(b"")
            cell = first.end_bit // fetcher.chain.cell_bits
            bound = fetcher._run_queued(fetcher._spec_for(cell))
            assert bound.window_known and not bound.payload.has_markers
            assert bound.start_bit == first.end_bit  # the key requested next
            assert bound.payload.materialize(window) == \
                self.DATA[first.length:first.length + bound.length]
            tested = fetcher.telemetry.metrics.counter(
                "blockfinder.candidates_tested"
            )
            assert tested.value == 0

            # Past the newest record nothing is known: the task searches.
            unknown = bound.end_bit // fetcher.chain.cell_bits + 1
            searched = fetcher._run_queued(fetcher._spec_for(unknown))
            assert not searched.window_known and searched.payload.has_markers
            assert tested.value > 0

    def test_cell_inside_a_known_chunk_returns_without_searching(self):
        # Level-0 stored blocks hold 64 KiB: a chunk covers several cells.
        blob = gzip.compress(random.Random(5).randbytes(SIZE), 0)
        with self.fetcher(blob) as fetcher:
            first = fetcher.request(deflate_start(blob), b"")
            covered = range(1, first.end_bit // fetcher.chain.cell_bits)
            assert len(covered) >= 1
            for cell in covered:
                assert fetcher._run_queued(fetcher._spec_for(cell)) is None
            assert fetcher.telemetry.metrics.counter(
                "blockfinder.candidates_tested"
            ).value == 0

    def test_p2_submits_only_the_recorded_next_cell(self):
        # FetchNextFixed wishes the next two cells; the second lies within
        # the chain's reach and unrecorded, so it is left to the chain.
        with GzipChunkFetcher(
            self.BLOB, ReaderOptions(
                parallelization=2, chunk_size=self.CHUNK,
                strategy=FetchNextFixed(),
            ),
        ) as fetcher:
            first = fetcher.request(deflate_start(self.BLOB), b"")
            cell = first.end_bit // fetcher.chain.cell_bits
            assert fetcher.chain.reach == cell
            assert set(fetcher._futures) == {cell}


@pytest.mark.parametrize("parallelization", [1, 2, 3])
def test_chain_record_is_bounded_and_cleared(parallelization):
    data, blob = _corpus("base64")
    reader = ParallelGzipReader(
        blob, parallelization=parallelization, chunk_size=16 * 1024,
        strategy=FetchNextFixed(),
    )
    chain = reader._fetcher.chain
    sizes = []
    hand_over = chain.hand_over

    def spy(result, window):
        hand_over(result, window)
        sizes.append(len(chain.ahead))

    chain.hand_over = spy
    assert reader.read() == data
    reader.close()
    assert sizes and max(sizes) <= 2 * parallelization + 2
    assert chain.ahead == {}


@pytest.mark.parametrize("name", ["base64", "silesia", "multi_member"])
def test_recorded_starts_are_the_chain_under_contention(name):
    # More workers than cores and a short switch interval: whatever order
    # the workers and the reader write the record in, every entry must be
    # the start and window the reader's own chain gives that chunk.
    data, blob = _corpus(name)
    written = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader = ParallelGzipReader(
            blob, parallelization=6, chunk_size=16 * 1024,
            strategy=FetchNextFixed(),
        )
        chain = reader._fetcher.chain
        hand_over = chain.hand_over

        def spy(result, window):
            hand_over(result, window)
            written.append(dict(chain.ahead))

        chain.hand_over = spy
        assert reader.read() == data
        windows = {record.start_bit: record.window for record in chain}
        reader.close()
    finally:
        sys.setswitchinterval(previous)
    entries = {entry for snapshot in written for entry in snapshot.values()}
    assert entries
    for start_bit, window in entries:
        assert windows[start_bit] == window

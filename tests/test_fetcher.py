"""Tests for the cache-and-prefetch chunk fetcher — the paper's core engine."""

import functools
import gzip as stdlib_gzip
import random

import pytest

from repro.cache import FetchNextFixed
from repro.datagen import generate_base64, generate_silesia_like
from repro.errors import ReproError, UsageError
from repro.fetcher import (
    ChunkChain,
    ChunkRecord,
    ChunkTaskSpec,
    GzipChunkFetcher,
    decode_chunk_range,
    shift_to_byte_alignment,
    speculative_decode,
)
from repro.fetcher.tasks import execute_chunk_task, run_chunk_task
from repro.gz.writer import compress as gz_compress
from repro.index import load_index
from repro.io import BitReader, MemoryFileReader
from repro.reader import ParallelGzipReader, ReaderOptions
from repro.telemetry import Telemetry
from repro.gz.header import parse_gzip_header


def ascii_data(size: int, seed: int = 0) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(33, 127) for _ in range(size))


DATA = ascii_data(400_000)
BLOB = stdlib_gzip.compress(DATA, 6)


def deflate_start(blob: bytes) -> int:
    reader = BitReader(blob)
    parse_gzip_header(reader)
    return reader.tell()


class TestShiftToByteAlignment:
    def test_zero_shift_is_identity(self):
        reader = MemoryFileReader(b"abcdefgh")
        assert shift_to_byte_alignment(reader, 8, 40) == b"bcde"

    def test_bit_shift(self):
        # 0xABCD little-endian bits; shifting by 4 merges nibbles.
        reader = MemoryFileReader(bytes([0xCD, 0xAB, 0x12]))
        shifted = shift_to_byte_alignment(reader, 4, 20)
        assert shifted[0] == 0xBC
        assert shifted[1] == 0x2A

    def test_round_trip_through_zlib(self):
        import zlib

        payload = ascii_data(5000, 3)
        raw = zlib.compress(payload, 6)[2:-4]
        # Embed at a 3-bit offset and shift back out.
        value = int.from_bytes(raw, "little") << 3 | 0b101
        blob = value.to_bytes(len(raw) + 1, "little")
        reader = MemoryFileReader(blob)
        shifted = shift_to_byte_alignment(reader, 3, 3 + len(raw) * 8)
        assert zlib.decompress(shifted, -15) == payload

    def test_odd_bit_tail_at_eof_keeps_high_bits(self):
        # Regression: when the interval's last byte is the last byte of the
        # file, the lookahead byte does not exist; the shift used to drop
        # the final byte's high bits instead of zero-filling them.
        blob = bytes([0b10110101, 0b11001110])
        reader = MemoryFileReader(blob)
        shifted = shift_to_byte_alignment(reader, 3, 16)
        expected = (int.from_bytes(blob, "little") >> 3).to_bytes(2, "little")
        assert shifted == expected

    def test_every_odd_shift_at_eof(self):
        blob = bytes(range(1, 9))
        reader = MemoryFileReader(blob)
        value = int.from_bytes(blob, "little")
        for shift in range(1, 8):
            shifted = shift_to_byte_alignment(reader, shift, len(blob) * 8)
            expected = (value >> shift).to_bytes(len(blob), "little")
            assert shifted == expected, f"shift={shift}"


class TestDecodeChunkRange:
    def test_full_stream(self):
        reader = MemoryFileReader(BLOB)
        result = decode_chunk_range(reader, deflate_start(BLOB), None, b"")
        assert result.payload.materialize(b"") == DATA
        assert result.end_bit is None
        assert result.events[0].kind == "footer"

    def test_stop_condition_splits_exactly(self):
        reader = MemoryFileReader(BLOB)
        start = deflate_start(BLOB)
        stop = start + 80_000 * 8
        first = decode_chunk_range(reader, start, stop, b"")
        assert first.end_bit is not None
        window = first.payload.window_at_end(b"")
        second = decode_chunk_range(reader, first.end_bit, None, window)
        combined = first.payload.materialize(b"") + second.payload.materialize(window)
        assert combined == DATA

    def test_speculative_two_stage_matches(self):
        reader = MemoryFileReader(BLOB)
        start = deflate_start(BLOB)
        stop = start + 80_000 * 8
        exact = decode_chunk_range(reader, start, stop, b"")
        speculative = decode_chunk_range(reader, start, stop, None)
        assert speculative.payload.materialize(b"") == exact.payload.materialize(b"")
        assert speculative.end_bit == exact.end_bit


class TestSpeculativeDecode:
    def test_finds_chunk_in_interior(self):
        reader = MemoryFileReader(BLOB)
        chunk_size = 16 * 1024
        result = speculative_decode(reader, 1, chunk_size)
        assert result is not None
        assert result.speculative
        assert result.start_bit >= chunk_size * 8
        # Its end must be findable as the next chunk's start.
        assert result.end_bit is None or result.end_bit > result.start_bit

    def test_no_candidate_in_stored_garbage(self):
        # A window of a stored-block gzip of noise: candidates decode as
        # stored-block false positives or nothing; either way the function
        # must not loop forever and may return None.
        noise = bytes(random.Random(9).randrange(256) for _ in range(80_000))
        blob = gz_compress(noise, "gzip", level=0)
        reader = MemoryFileReader(blob)
        result = speculative_decode(reader, 0, 16 * 1024)
        assert result is None or result.payload.length >= 0

    def test_retry_after_false_positive_is_spanned(self):
        # A Non-Compressed header the finder accepts and the decoder
        # rejects: zero header byte, LEN=4 / NLEN, four bytes, then
        # BFINAL=1 with the reserved block type.
        import struct
        import zlib

        from repro.telemetry import Telemetry

        chunk_size = 16 * 1024
        fake = b"\x00" + struct.pack("<HH", 4, 0xFFFB) + b"abcd\x07"
        payload = bytearray(b"\xff" * (3 * chunk_size))
        payload[chunk_size + 500 : chunk_size + 500 + len(fake)] = fake
        compressor = zlib.compressobj(0, zlib.DEFLATED, 31)
        blob = compressor.compress(bytes(payload)) + compressor.flush()
        telemetry = Telemetry(trace=True)
        speculative_decode(
            MemoryFileReader(blob), 1, chunk_size, telemetry=telemetry
        )
        rejected = telemetry.metrics.counter("fetcher.decode_false_positives")
        assert rejected.value == 1
        spans = [
            (event["name"], event["args"].get("chunk_id"))
            for event in telemetry.recorder.events()
            if event.get("ph") == "X"
        ]
        # One search entry for the chunk, the rejected attempt at the
        # fake, and the search that resumed behind it.
        assert spans == [
            ("chunk.block_find", 1),
            ("chunk.decode_attempt", 1),
            ("chunk.block_find", 1),
        ]


@pytest.mark.parametrize("backend", ["threads"])  # what the pool stays on
class TestGzipChunkFetcher:
    def make(self, backend, **kwargs):
        kwargs.setdefault("parallelization", 2)
        kwargs.setdefault("chunk_size", 32 * 1024)
        fetcher = GzipChunkFetcher(BLOB, ReaderOptions(**kwargs))
        assert fetcher.backend == backend
        return fetcher

    def test_sequential_requests_follow_chain(self, backend):
        with self.make(backend) as fetcher:
            start = deflate_start(BLOB)
            window = b""
            output = bytearray()
            while True:
                result = fetcher.request(start, window)
                output += result.payload.materialize(window)
                if result.end_bit is None:
                    break
                window = (
                    b"" if result.end_is_stream_start
                    else result.payload.window_at_end(window)
                )
                start = result.end_bit
            assert bytes(output) == DATA

    def test_prefetch_produces_cache_hits(self, backend):
        with self.make(backend, parallelization=4, strategy=FetchNextFixed()) as fetcher:
            start = deflate_start(BLOB)
            window = b""
            while True:
                result = fetcher.request(start, window)
                if result.end_bit is None:
                    break
                window = result.payload.window_at_end(window)
                start = result.end_bit
            stats = fetcher.statistics()
            assert stats["speculative_submitted"] > 0
            assert stats["prefetch_cache"]["hits"] > 0
            # On-demand decodes stay rare: only the first chunk plus any
            # speculative misfire.
            assert stats["on_demand_decodes"] <= 2

    def test_false_positive_results_never_corrupt_output(self, backend):
        # Stored-block files are the paper's false-positive breeding ground
        # (§3.4): the payload contains valid-looking Deflate headers.
        noise = ascii_data(300_000, seed=5)
        blob = gz_compress(noise, "gzip", level=0)
        fetcher = GzipChunkFetcher(
            blob, ReaderOptions(parallelization=3, chunk_size=32 * 1024),
            detect_bgzf=False,
        )
        try:
            start = deflate_start(blob)
            window = b""
            output = bytearray()
            while True:
                result = fetcher.request(start, window)
                output += result.payload.materialize(window)
                if result.end_bit is None:
                    break
                window = result.payload.window_at_end(window)
                start = result.end_bit
            assert bytes(output) == noise
            assert fetcher.statistics()["backend"] == backend
        finally:
            fetcher.close()

    def test_invalid_configuration(self, backend):
        with pytest.raises(UsageError):
            ReaderOptions(parallelization=0)
        with pytest.raises(UsageError):
            ReaderOptions(chunk_size=10)

    def test_chunk_id_mapping_search_mode(self, backend):
        with self.make(backend) as fetcher:
            assert fetcher.mode == "search"
            assert fetcher.chain.cell_bits == 32 * 1024 * 8
            assert fetcher.chain.cells == -(-len(BLOB) // (32 * 1024))


class TestChunkTask:
    def test_unknown_mode_rejected(self):
        spec = ChunkTaskSpec(mode="warp", chunk_id=0)
        with pytest.raises(UsageError):
            run_chunk_task(
                spec, MemoryFileReader(b""), Telemetry(), ReaderOptions()
            )

    def test_process_entry_point_is_a_tombstone(self):
        with pytest.raises(UsageError, match="process backend was removed"):
            execute_chunk_task(ChunkTaskSpec(mode="search", chunk_id=0))


class TestChunkChain:
    def record(self, start_bit, out_start, out_end, end_bit, window=b"",
               is_stream_start=False):
        return ChunkRecord(start_bit, out_start, out_end, end_bit, window,
                           is_stream_start)

    def test_chaining_enforced(self):
        chain = ChunkChain()
        chain.append(self.record(80, 0, 100, 500))
        with pytest.raises(UsageError):
            chain.append(self.record(999, 100, 200, 700))  # bit gap
        with pytest.raises(UsageError):
            chain.append(self.record(500, 150, 200, 700))  # output gap
        chain.append(self.record(500, 100, 200, None))
        assert chain.finalized

    def test_first_record_must_start_at_zero(self):
        chain = ChunkChain()
        with pytest.raises(UsageError):
            chain.append(self.record(80, 5, 100, 500))

    def test_lookup(self):
        chain = ChunkChain()
        chain.append(self.record(80, 0, 100, 500))
        chain.append(self.record(500, 100, 250, None))
        assert chain.chunk_index_for_output(0) == 0
        assert chain.chunk_index_for_output(99) == 0
        assert chain.chunk_index_for_output(100) == 1
        assert chain.known_size == 250
        with pytest.raises(IndexError):
            chain.chunk_index_for_output(250)

    def test_append_after_finalize_rejected(self):
        chain = ChunkChain()
        chain.append(self.record(80, 0, 100, None))
        with pytest.raises(UsageError):
            chain.append(self.record(500, 100, 200, None))

    # -- extent(): one lookup for search-mode and index-mode chunks --------

    def index_chain(self, windows, stream_starts=()):
        """A chain built from a finalized index of 100-byte chunks, 800
        bits apart, whose seek points hold ``windows``."""
        from repro.index import GzipIndex, SeekPoint

        index = GzipIndex()
        for number, window in enumerate(windows):
            index.add(SeekPoint(80 + 800 * number, 100 * number, window,
                                is_stream_start=number in stream_starts))
        index.finalize(100 * len(windows), 80 + 800 * len(windows))
        return ChunkChain(index)

    def test_index_chain_is_built_from_its_index(self):
        chain = self.index_chain([b"", b"a" * 64, b"b" * 64])
        assert [record.start_bit for record in chain] == [80, 880, 1680]
        assert chain.frontier is None and chain.known_size == 300
        extent = chain.extent(880)
        assert extent == (880, 1680, 100, b"a" * 64, b"b" * 64, False)
        assert chain.extent(1680).is_last
        assert chain.extent(1680).end_bit is None
        assert chain.extent(881) is None

    def test_stream_start_successor_is_unchecked(self):
        chain = self.index_chain([b"", b"a" * 64, b""], stream_starts=(0, 2))
        assert chain.extent(880).next_window is None

    def test_search_record_checks_successor_or_frontier_window(self):
        chain = ChunkChain()
        chain.advance(80, b"", True)
        chain.append(self.record(80, 0, 100, 500, b"", True))
        chain.advance(500, b"x" * 64, False)
        chain.append(self.record(500, 100, 200, 900, b"x" * 64))
        chain.advance(900, b"y" * 64, False)
        assert chain.extent(80).next_window == b"x" * 64
        assert chain.extent(500).next_window == b"y" * 64  # the frontier's
        assert [point.compressed_bit_offset for point in chain.index] == \
            [80, 500, 900]
        chain.end(1200)
        assert chain.extent(500).next_window is None
        assert chain.index.finalized
        assert chain.index.uncompressed_size == 200

    def test_pinned_record_has_no_extent(self):
        chain = ChunkChain()
        chain.append(self.record(80, 0, 100, 500))
        chain.pinned[80] = b"?" * 100
        assert chain.extent(80) is None

    # -- the reach: how far the chain of exact decodes has got -------------

    class Decoded:
        """What hand_over reads of a decoded chunk."""

        def __init__(self, start_bit, end_bit):
            self.start_bit, self.end_bit = start_bit, end_bit

        def next_window(self, window):
            return window + b"w"

    def test_reach_advances_in_hand_over(self):
        chain = ChunkChain(cell_bits=100, cells=20)
        assert chain.reach is None
        chain.hand_over(self.Decoded(50, 250), b"")
        assert chain.reach == 2 and chain.ahead[2] == (250, b"w")
        chain.hand_over(self.Decoded(250, 420), b"w")
        assert chain.reach == 4
        # A late hand-over of an earlier chunk leaves the furthest one.
        chain.hand_over(self.Decoded(50, 250), b"")
        assert chain.reach == 4

    def test_reach_ignores_retired_only_updates(self):
        chain = ChunkChain(cell_bits=100, cells=20)
        chain.hand_over(self.Decoded(50, 250), b"")
        chain.retired.add(9)
        chain.hand_over(self.Decoded(250, None), b"")  # runs to the end
        assert chain.retired >= set(range(3, 20))
        assert chain.reach == 2

    def test_close_clears_reach_and_ahead(self):
        chain = ChunkChain(cell_bits=100, cells=20)
        chain.hand_over(self.Decoded(50, 250), b"")
        chain.close()
        assert chain.reach is None and chain.ahead == {}
        assert not chain.within_reach(0)

    def test_within_reach_stops_at_the_search_distance(self):
        from repro.fetcher.chain import SEARCH_DISTANCE

        chain = ChunkChain(cell_bits=100, cells=20)
        assert not chain.within_reach(1)  # nothing handed over yet
        chain.hand_over(self.Decoded(250, 420), b"")
        assert chain.within_reach(4 + SEARCH_DISTANCE - 1)
        assert not chain.within_reach(4 + SEARCH_DISTANCE)


# -- demand stops: a cold small read waits for its blocks, not the chunk ------

STOP_CHUNK = 256 * 1024
FIRST_READ = 65536


@functools.lru_cache(maxsize=None)
def stop_corpus(name: str) -> tuple:
    """``(data, blob)`` of a 2 MiB corpus whose first chunk outputs far
    more than :data:`FIRST_READ`."""
    if name == "multi_member":
        data = generate_base64(2 << 20, seed=5)
        cuts = [0, 40_000, 700_000, 700_100, len(data)]
        return data, b"".join(
            stdlib_gzip.compress(data[start:end], 6)
            for start, end in zip(cuts, cuts[1:])
        )
    if name == "stored":
        data = random.Random(5).randbytes(1 << 20)
        return data, stdlib_gzip.compress(data, 6)
    generator = {"base64": generate_base64,
                 "silesia": generate_silesia_like}[name]
    data = generator(2 << 20, seed=5)
    return data, stdlib_gzip.compress(data, 6)


def whole_chunk_starts(blob: bytes, chunk_size: int) -> list:
    """Start bits of the chunks a read of whole chunks chains: each decoded
    exactly from its predecessor's end to its cell's stop predicate."""
    reader = MemoryFileReader(blob)
    start, window, starts = deflate_start(blob), b"", []
    while True:
        starts.append(start)
        cell = start // (chunk_size * 8)
        result = decode_chunk_range(
            reader, start, (cell + 1) * chunk_size * 8, window
        )
        if result.end_bit is None:
            return starts
        window = result.next_window(window)
        start = result.end_bit


def read_in(reader, size: int) -> bytes:
    out = bytearray()
    while piece := reader.read(size):
        out += piece
    return bytes(out)


def open_reader(blob: bytes, parallelization: int = 2, **options):
    return ParallelGzipReader(
        blob, parallelization=parallelization, chunk_size=STOP_CHUNK,
        **options,
    )


class TestDemandStop:
    @pytest.mark.parametrize("corpus", ["base64", "silesia"])
    def test_cold_read_stops_one_block_past_its_bytes(self, corpus):
        data, blob = stop_corpus(corpus)
        start = deflate_start(blob)
        whole = decode_chunk_range(
            MemoryFileReader(blob), start, STOP_CHUNK * 8, b""
        )
        stop = min(
            (boundary for boundary in whole.boundaries
             if boundary.output_offset >= FIRST_READ),
            key=lambda boundary: boundary.output_offset,
        )
        with open_reader(blob, trace=True) as reader:
            assert reader.read(FIRST_READ) == data[:FIRST_READ]
            head = reader._chunks[0]
            assert (head.length, head.end_bit) == (
                stop.output_offset, stop.bit_offset
            )
            assert head.length < whole.length
            # The rest of the cell went to the pool in the same request.
            queued = [
                event["args"]["chunk_id"]
                for event in reader.telemetry.recorder.events()
                if event["name"] == "chunk.queued"
            ]
            assert 0 in queued
            assert reader.read() == data[FIRST_READ:]
            stats = reader.statistics()
        assert stats["on_demand_decodes"] == 1
        assert stats["metrics"]["fetcher.demand_stops"] == 1
        assert stats["chunk_splits"] == 0  # a demand stop is no budget split

    @pytest.mark.parametrize("size", [
        1, 4096, 65536, STOP_CHUNK - 1, STOP_CHUNK, 1 << 20, -1,
    ])
    @pytest.mark.parametrize("parallelization", [1, 2, 4])
    @pytest.mark.parametrize(
        "corpus", ["base64", "silesia", "multi_member", "stored"]
    )
    def test_bytes_match_zlib_at_every_read_size(self, corpus,
                                                 parallelization, size):
        data, blob = stop_corpus(corpus)
        step = size if size > 0 else 4096
        with open_reader(blob, parallelization) as reader:
            # Across three frontiers in reads of ``size`` (the way there
            # in one read inside decoded territory), a positional read and
            # a peek beyond the frontier, lines, then the rest.
            out = bytearray()
            for _ in range(3):
                frontier = reader._chunks.known_size
                out += reader.read(max(frontier - 100 - len(out), 0))
                for _ in range(300):
                    piece = reader.read(size)
                    out += piece
                    if not piece or len(out) > frontier:
                        break
            far = len(data) * 3 // 4
            assert reader.read_at(far, step) == data[far:far + step]
            position = len(out)
            assert reader.peek(step) == data[position:position + step]
            for _ in range(3):
                out += reader.readline()
            out += reader.read() if size < 0 else read_in(
                reader, max(size, 4096)
            )
        assert bytes(out) == data

    @pytest.mark.parametrize("corpus", ["base64", "silesia", "stored"])
    def test_reads_of_a_chunk_keep_whole_chunks(self, corpus, tmp_path):
        data, blob = stop_corpus(corpus)
        expected = whole_chunk_starts(blob, STOP_CHUNK)
        points = []
        for size in (STOP_CHUNK, 1 << 20, -1):
            with open_reader(blob) as reader:
                assert (read_in(reader, size) if size > 0
                        else reader.read()) == data
                # One record per seek-point interval: every whole chunk's
                # start, and the interior points of the long ones.
                starts = [record.start_bit for record in reader._chunks]
                assert starts == [
                    point.compressed_bit_offset
                    for point in reader.index.seek_points
                ]
                assert set(expected) <= set(starts)
                assert reader.statistics()["metrics"][
                    "fetcher.demand_stops"] == 0
                path = tmp_path / f"{size}.idx"
                reader.export_index(str(path))
                points.append([
                    (point.compressed_bit_offset, point.uncompressed_offset)
                    for point in reader.index.seek_points
                ])
        assert points[0] == points[1] == points[2]

    @pytest.mark.parametrize("parallelization", [1, 2])
    @pytest.mark.parametrize("corpus", ["base64", "silesia"])
    def test_small_read_loop_adds_one_record(self, corpus, parallelization):
        data, blob = stop_corpus(corpus)
        with open_reader(blob, parallelization) as reader:
            assert read_in(reader, 8192) == data
            small = len(reader._chunks)
            stats = reader.statistics()
        with open_reader(blob, parallelization) as reader:
            assert reader.read() == data
            whole = len(reader._chunks)
        assert small == whole + 1
        assert stats["on_demand_decodes"] == 1
        assert stats["metrics"]["fetcher.demand_stops"] == 1

    def test_index_exported_after_a_small_read_has_the_stop(self, tmp_path):
        data, blob = stop_corpus("stored")
        with open_reader(blob) as reader:
            assert reader.read(FIRST_READ) == data[:FIRST_READ]
            stop = reader._chunks[0].end_bit
            reader.export_index(str(tmp_path / "small.idx"))
            small = [p.compressed_bit_offset for p in reader.index.seek_points]
        with open_reader(blob) as reader:
            reader.export_index(str(tmp_path / "whole.idx"))
            whole = [p.compressed_bit_offset for p in reader.index.seek_points]
        assert sorted(whole + [stop]) == small
        index = load_index(str(tmp_path / "small.idx"), source=blob)
        with ParallelGzipReader(
            blob, index=index, parallelization=2, chunk_size=STOP_CHUNK
        ) as reader:
            assert reader.read_at(FIRST_READ - 10, 20) == \
                data[FIRST_READ - 10:FIRST_READ + 10]
            assert reader.read() == data

    def test_serial_backend_keeps_whole_chunks(self):
        data, blob = stop_corpus("base64")
        with open_reader(blob) as reader:
            reader._fetcher._downgrade_backend("test")
            assert reader.read(FIRST_READ) == data[:FIRST_READ]
            assert reader._chunks[0].start_bit == deflate_start(blob)
            assert reader._chunks[0].end_bit == whole_chunk_starts(
                blob, STOP_CHUNK)[1]
            assert reader.read() == data[FIRST_READ:]
            assert reader.statistics()["metrics"][
                "fetcher.demand_stops"] == 0

    def test_damage_past_the_stop(self):
        data, blob = stop_corpus("base64")
        start = deflate_start(blob)
        whole = decode_chunk_range(
            MemoryFileReader(blob), start, STOP_CHUNK * 8, b""
        )
        block = [boundary for boundary in whole.boundaries
                 if boundary.output_offset > 2 * FIRST_READ][1]
        damaged = bytearray(blob)
        # The header of a block the rest of the first chunk decodes.
        for offset in range(4):
            damaged[block.bit_offset // 8 + offset] ^= 0xFF
        damaged = bytes(damaged)

        errors = []
        for small in (True, False):
            with open_reader(damaged) as reader:
                with pytest.raises(ReproError) as info:
                    read_in(reader, 4096) if small else reader.read()
                errors.append(type(info.value))
        assert errors[0] is errors[1]

        clean = []
        for small in (True, False):
            with open_reader(damaged, tolerate_corruption=True) as reader:
                out = read_in(reader, 4096) if small else reader.read()
                assert reader.damage_report.regions
            clean.append(next(
                (n for n, (a, b) in enumerate(zip(out, data)) if a != b),
                len(out),
            ))
        # Small reads decoded up to the damaged block before failing; a
        # whole chunk fails from its start.
        assert clean[0] == block.output_offset
        assert clean[1] <= clean[0]

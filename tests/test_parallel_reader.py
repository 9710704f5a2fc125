"""End-to-end tests for ParallelGzipReader — the paper's headline system.

The invariant throughout: for any file layout, any parallelization, any
chunk size, and any access pattern, the parallel reader's bytes must equal
the serial reference decompressor's bytes.
"""

import gzip as stdlib_gzip
import io
import os
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    ChunkDecodeError,
    FormatError,
    IntegrityError,
    UsageError,
)
from repro.gz.writer import compress as gz_compress
from repro.index import GzipIndex, load_index
from repro.reader import ParallelGzipReader, decompress_parallel


def make_text(size: int, seed: int = 0) -> bytes:
    rng = random.Random(seed)
    words = [b"alpha", b"bravo", b"charlie", b"delta", b"echo", b"foxtrot"]
    out = bytearray()
    while len(out) < size:
        out += rng.choice(words) + b" "
    return bytes(out[:size])


def make_binary(size: int, seed: int = 0) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(size))


TEXT = make_text(400_000)
BINARY = make_binary(300_000)


@pytest.fixture(scope="module")
def corpora():
    return {
        "text-gzip": (TEXT, stdlib_gzip.compress(TEXT, 6)),
        "text-level1": (TEXT, stdlib_gzip.compress(TEXT, 1)),
        "binary-gzip": (BINARY, stdlib_gzip.compress(BINARY, 6)),
        "binary-stored": (BINARY, gz_compress(BINARY, "stored")),
        "pigz-like": (TEXT, gz_compress(TEXT, "pigz")),
        "bgzf": (BINARY, gz_compress(BINARY, "bgzf")),
        "multi-member": (
            TEXT + BINARY,
            stdlib_gzip.compress(TEXT) + stdlib_gzip.compress(BINARY),
        ),
    }


@pytest.mark.parametrize("backend", ["threads"])  # what the pool stays on
@pytest.mark.parametrize("parallelization", [1, 2, 4])
@pytest.mark.parametrize(
    "name",
    [
        "text-gzip",
        "text-level1",
        "binary-gzip",
        "binary-stored",
        "pigz-like",
        "bgzf",
        "multi-member",
    ],
)
def test_full_decompression_matches(corpora, name, parallelization, backend):
    data, blob = corpora[name]
    with ParallelGzipReader(
        blob, parallelization=parallelization, chunk_size=16 * 1024
    ) as reader:
        assert reader.read() == data
        assert reader.statistics()["backend"] == backend


def test_parallel_search_never_imports_multiprocessing():
    # Workers are threads: a whole search-mode pass at P=2 must not even
    # load the package a process pool would be built from.
    script = (
        "import gzip, random, sys\n"
        "from repro.reader import ParallelGzipReader\n"
        "data = random.Random(5).randbytes(60_000).hex().encode()\n"
        "reader = ParallelGzipReader(gzip.compress(data, 6),\n"
        "                            parallelization=2, chunk_size=16 * 1024)\n"
        "assert reader.read() == data\n"
        "stats = reader.statistics()\n"
        "reader.close()\n"
        "assert stats['mode'] == 'search', stats['mode']\n"
        "assert stats['speculative_submitted'] > 0\n"
        "assert 'multiprocessing' not in sys.modules\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


class TestReading:
    BLOB = stdlib_gzip.compress(TEXT, 6)

    def reader(self, **kwargs):
        kwargs.setdefault("parallelization", 2)
        kwargs.setdefault("chunk_size", 16 * 1024)
        return ParallelGzipReader(self.BLOB, **kwargs)

    def test_small_sequential_reads(self):
        with self.reader() as reader:
            pieces = []
            while True:
                piece = reader.read(777)
                if not piece:
                    break
                pieces.append(piece)
        assert b"".join(pieces) == TEXT

    def test_read_zero(self):
        with self.reader() as reader:
            assert reader.read(0) == b""
            assert reader.tell() == 0

    def test_seek_and_tell(self):
        with self.reader() as reader:
            reader.seek(100_000)
            assert reader.tell() == 100_000
            assert reader.read(10) == TEXT[100_000:100_010]
            reader.seek(-5, io.SEEK_CUR)
            assert reader.read(5) == TEXT[100_005:100_010]

    def test_seek_end(self):
        with self.reader() as reader:
            reader.seek(-10, io.SEEK_END)
            assert reader.read() == TEXT[-10:]

    def test_seek_backward_after_forward(self):
        with self.reader() as reader:
            reader.seek(200_000)
            reader.read(10)
            reader.seek(50)
            assert reader.read(20) == TEXT[50:70]

    def test_seek_past_eof_reads_empty(self):
        with self.reader() as reader:
            reader.seek(10**9)
            assert reader.read(10) == b""

    def test_negative_seek_raises(self):
        with self.reader() as reader:
            with pytest.raises(UsageError):
                reader.seek(-1)

    def test_size(self):
        with self.reader() as reader:
            assert reader.size() == len(TEXT)

    def test_read_at_concurrent_two_offsets(self):
        # Paper design goal: fast concurrent access at two offsets.
        with self.reader(parallelization=4) as reader:
            errors = []

            def worker(offset):
                for step in range(20):
                    at = offset + step * 1000
                    if reader.read_at(at, 64) != TEXT[at : at + 64]:
                        errors.append(at)

            threads = [
                threading.Thread(target=worker, args=(base,))
                for base in (0, 150_000, 300_000)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors

    def test_closed_reader_raises(self):
        reader = self.reader()
        reader.close()
        with pytest.raises(UsageError):
            reader.read(1)

    def test_file_like_properties(self):
        with self.reader() as reader:
            assert reader.readable()
            assert reader.seekable()
            assert not reader.writable()

    def test_eof_flag(self):
        with self.reader() as reader:
            assert not reader.eof()
            reader.read()
            assert reader.eof()

    def test_from_path_and_file_object(self, tmp_path):
        path = tmp_path / "x.gz"
        path.write_bytes(self.BLOB)
        with ParallelGzipReader(path, parallelization=2) as reader:
            assert reader.read(100) == TEXT[:100]
        with ParallelGzipReader(io.BytesIO(self.BLOB)) as reader:
            assert reader.read(100) == TEXT[:100]


class TestIndexRoundTrip:
    def test_export_import_and_fast_path(self):
        # Binary data compresses into many small blocks -> many seek points.
        blob = stdlib_gzip.compress(BINARY, 6)
        with ParallelGzipReader(blob, parallelization=2, chunk_size=16 * 1024) as reader:
            sink = io.BytesIO()
            reader.export_index(sink)
        index = load_index(sink.getvalue())
        assert index.finalized
        assert len(index) > 3
        with ParallelGzipReader(blob, parallelization=2, index=index) as reader:
            assert reader.statistics()["mode"] == "index"
            assert reader.read() == BINARY

    def test_index_random_access_without_initial_pass(self):
        blob = stdlib_gzip.compress(BINARY, 6)
        with ParallelGzipReader(blob, chunk_size=16 * 1024) as reader:
            sink = io.BytesIO()
            reader.export_index(sink)
        index = load_index(sink.getvalue())
        with ParallelGzipReader(blob, parallelization=2, index=index) as reader:
            assert reader.statistics()["chunks_decoded"] == 0
            reader.seek(250_000)
            assert reader.read(100) == BINARY[250_000:250_100]
            # Constant-time-ish: only the covering chunk is materialized.
            assert reader.statistics()["chunks_decoded"] < len(index)

    def test_unfinalized_index_rejected(self):
        index = GzipIndex()
        with pytest.raises(UsageError):
            ParallelGzipReader(stdlib_gzip.compress(b"x"), index=index)

    def test_index_mode_multi_member(self):
        data = TEXT[:100_000]
        blob = stdlib_gzip.compress(data[:50_000]) + stdlib_gzip.compress(data[50_000:])
        with ParallelGzipReader(blob, chunk_size=8 * 1024) as reader:
            sink = io.BytesIO()
            reader.export_index(sink)
        index = load_index(sink.getvalue())
        with ParallelGzipReader(blob, parallelization=3, index=index) as reader:
            assert reader.read() == data


class TestVerification:
    def test_crc_mismatch_detected(self):
        blob = bytearray(stdlib_gzip.compress(TEXT[:60_000]))
        blob[-6] ^= 0x55
        with pytest.raises(IntegrityError):
            decompress_parallel(bytes(blob), 2, chunk_size=8 * 1024)

    def test_isize_mismatch_detected(self):
        blob = bytearray(stdlib_gzip.compress(TEXT[:60_000]))
        blob[-1] ^= 0x55
        with pytest.raises(IntegrityError):
            decompress_parallel(bytes(blob), 2, chunk_size=8 * 1024)

    def test_verify_disabled(self):
        blob = bytearray(stdlib_gzip.compress(TEXT[:60_000]))
        blob[-6] ^= 0x55
        out = decompress_parallel(bytes(blob), 2, chunk_size=8 * 1024, verify=False)
        assert out == TEXT[:60_000]

    def test_multi_member_crcs_verified(self):
        blob = stdlib_gzip.compress(TEXT[:30_000]) + stdlib_gzip.compress(BINARY[:30_000])
        assert decompress_parallel(blob, 2, chunk_size=8 * 1024) == (
            TEXT[:30_000] + BINARY[:30_000]
        )


class TestPugzCompatibilityMode:
    def test_accepts_ascii(self):
        blob = stdlib_gzip.compress(TEXT[:50_000])
        out = decompress_parallel(blob, 2, chunk_size=8 * 1024, pugz_compatible=True)
        assert out == TEXT[:50_000]

    def test_rejects_binary_like_pugz(self):
        # Paper §4.5: pugz "quits and returns an error" on Silesia-like
        # data; our compatibility mode reproduces that.
        blob = stdlib_gzip.compress(BINARY[:50_000])
        with pytest.raises(FormatError):
            decompress_parallel(blob, 2, chunk_size=8 * 1024, pugz_compatible=True)


class TestEdgeCases:
    def test_empty_file(self):
        assert decompress_parallel(stdlib_gzip.compress(b""), 2) == b""

    def test_tiny_file(self):
        assert decompress_parallel(stdlib_gzip.compress(b"ab"), 4) == b"ab"

    def test_file_smaller_than_chunk(self):
        data = TEXT[:5000]
        assert decompress_parallel(stdlib_gzip.compress(data), 4) == data

    def test_many_tiny_members(self):
        pieces = [make_text(100, seed=i) for i in range(50)]
        blob = b"".join(stdlib_gzip.compress(p) for p in pieces)
        assert decompress_parallel(blob, 3, chunk_size=2048) == b"".join(pieces)

    def test_truncated_file_raises(self):
        blob = stdlib_gzip.compress(TEXT[:100_000])
        with pytest.raises(ChunkDecodeError) as info:
            decompress_parallel(blob[: len(blob) // 2], 2, chunk_size=8 * 1024)
        # The retry ladder wraps the failure but chains the real cause.
        assert isinstance(info.value.__cause__, FormatError)

    def test_not_gzip_raises(self):
        with pytest.raises(FormatError):
            ParallelGzipReader(b"this is not gzip data at all")

    def test_high_compression_ratio(self):
        data = b"\x00" * 2_000_000  # ratio ~1000, the paper's worst case
        blob = stdlib_gzip.compress(data, 9)
        assert decompress_parallel(blob, 2, chunk_size=4096) == data

    def test_stats_report_plausible_numbers(self):
        blob = stdlib_gzip.compress(TEXT)
        with ParallelGzipReader(blob, parallelization=2, chunk_size=16 * 1024) as reader:
            reader.read()
            stats = reader.statistics()
        assert stats["chunks_decoded"] >= 1
        assert stats["known_size"] == len(TEXT)
        assert stats["mode"] == "search"



def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
class TestResourceRelease:
    """Readers share one file handle: an open, a block search or a failed
    open leaves no descriptor or temp directory behind."""

    def test_open_read_close_leaves_no_descriptor(self, tmp_path):
        # P=4 wishes cells past the chain's reach, so the reads search.
        from repro.datagen import generate_base64

        data = generate_base64(1_000_000, seed=3)
        path = tmp_path / "search.gz"
        path.write_bytes(stdlib_gzip.compress(data, 6))
        baseline = _open_descriptors()
        for _ in range(3):
            with ParallelGzipReader(
                str(path), parallelization=4, chunk_size=32 * 1024
            ) as reader:
                assert reader.read() == data
            searches = reader.statistics()["encoding"]["blockfinder_searches"]
            assert searches > 0
        assert _open_descriptors() == baseline

    def test_invalid_setting_opens_nothing(self, tmp_path):
        path = tmp_path / "data.gz"
        path.write_bytes(stdlib_gzip.compress(TEXT[:10_000]))
        baseline = _open_descriptors()
        with pytest.raises(UsageError):
            ParallelGzipReader(str(path), chunk_size=10)
        assert _open_descriptors() == baseline

    def test_failed_open_leaves_no_descriptor_or_temp_file(self, tmp_path,
                                                           monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        path = tmp_path / "garbage.gz"
        path.write_bytes(b"this is not gzip data at all" * 100)
        baseline = _open_descriptors()
        with pytest.raises(FormatError):
            ParallelGzipReader(b"garbage, not gzip", max_memory="64MiB")
        with pytest.raises(FormatError):
            ParallelGzipReader(str(path), max_memory="64MiB")
        assert _open_descriptors() == baseline
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "garbage.gz"
        ]

@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    level=st.integers(1, 9),
    parallelization=st.integers(1, 4),
    chunk_kib=st.sampled_from([4, 16, 64]),
)
def test_property_parallel_equals_serial(seed, level, parallelization, chunk_kib):
    """Property: parallel result == input for random data/levels/configs."""
    rng = random.Random(seed)
    size = rng.randrange(0, 200_000)
    kind = rng.random()
    if kind < 0.4:
        data = make_text(size, seed)
    elif kind < 0.8:
        data = make_binary(size, seed)
    else:
        data = bytes(size)  # zeros
    blob = stdlib_gzip.compress(data, level)
    out = decompress_parallel(blob, parallelization, chunk_size=chunk_kib * 1024)
    assert out == data


@settings(max_examples=10, deadline=None)
@given(
    offsets=st.lists(st.integers(0, 399_999), min_size=1, max_size=8),
    sizes=st.lists(st.integers(1, 5000), min_size=1, max_size=8),
)
def test_property_random_access_schedule(offsets, sizes):
    """Property: any seek/read schedule matches slicing the plain data."""
    blob = stdlib_gzip.compress(TEXT, 6)
    with ParallelGzipReader(blob, parallelization=2, chunk_size=32 * 1024) as reader:
        for offset, size in zip(offsets, sizes):
            reader.seek(offset)
            assert reader.read(size) == TEXT[offset : offset + size]

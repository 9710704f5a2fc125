"""Unit and property tests for the FileReader hierarchy."""

import io
import os
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UsageError
from repro.io import (
    MemoryFileReader,
    PythonFileReader,
    SharedFileReader,
    StandardFileReader,
    ensure_file_reader,
    strided_read_benchmark,
)

DATA = bytes(range(256)) * 17


@pytest.fixture(params=["memory", "standard", "python", "shared"])
def reader(request, tmp_path):
    if request.param == "memory":
        yield MemoryFileReader(DATA)
    elif request.param == "standard":
        path = tmp_path / "data.bin"
        path.write_bytes(DATA)
        r = StandardFileReader(path)
        yield r
        r.close()
    elif request.param == "python":
        yield PythonFileReader(io.BytesIO(DATA))
    else:
        yield SharedFileReader(DATA)


class TestFileReaderContract:
    def test_size(self, reader):
        assert reader.size() == len(DATA)

    def test_read_all(self, reader):
        assert reader.read() == DATA

    def test_read_in_pieces(self, reader):
        pieces = []
        while True:
            piece = reader.read(100)
            if not piece:
                break
            pieces.append(piece)
        assert b"".join(pieces) == DATA

    def test_read_past_eof_returns_empty(self, reader):
        reader.seek(0, io.SEEK_END)
        assert reader.read(10) == b""
        assert reader.eof()

    def test_seek_set_cur_end(self, reader):
        reader.seek(10)
        assert reader.tell() == 10
        reader.seek(5, io.SEEK_CUR)
        assert reader.tell() == 15
        reader.seek(-6, io.SEEK_END)
        assert reader.read() == DATA[-6:]

    def test_seek_negative_raises(self, reader):
        with pytest.raises(UsageError):
            reader.seek(-1)

    def test_seek_bad_whence_raises(self, reader):
        with pytest.raises(UsageError):
            reader.seek(0, 17)

    def test_pread_does_not_move_cursor(self, reader):
        reader.seek(42)
        assert reader.pread(0, 8) == DATA[:8]
        assert reader.tell() == 42

    def test_pread_past_eof(self, reader):
        assert reader.pread(len(DATA) + 5, 10) == b""
        assert reader.pread(len(DATA) - 3, 10) == DATA[-3:]

    def test_closed_read_raises(self, reader):
        reader.close()
        with pytest.raises(UsageError):
            reader.read(1)
        with pytest.raises(UsageError):
            reader.pread(0, 1)

    def test_context_manager(self, reader):
        with reader as r:
            assert r.read(1) == DATA[:1]
        assert reader.closed

    def test_concurrent_pread(self, reader):
        errors = []

        def worker(offset):
            for _ in range(50):
                if reader.pread(offset, 16) != DATA[offset : offset + 16]:
                    errors.append(offset)

        threads = [threading.Thread(target=worker, args=(o,)) for o in (0, 64, 999)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestStandardFileReaderCloneBinding:
    def test_clone_survives_path_replacement(self, tmp_path):
        # A clone made *after* the path was atomically replaced must keep
        # reading the original inode, not silently switch to the new file
        # mid-decode (log rotation, atomic re-export).
        path = tmp_path / "rotating.bin"
        path.write_bytes(DATA)
        reader = StandardFileReader(path)
        replacement = tmp_path / "replacement.bin"
        replacement.write_bytes(b"\xff" * len(DATA))
        os.replace(replacement, path)
        clone = reader.clone()
        try:
            assert clone.read() == DATA
            assert clone.pread(100, 16) == DATA[100:116]
            assert reader.pread(0, 16) == DATA[:16]
        finally:
            clone.close()
            reader.close()

    def test_clone_survives_path_deletion(self, tmp_path):
        path = tmp_path / "doomed.bin"
        path.write_bytes(DATA)
        reader = StandardFileReader(path)
        os.unlink(path)
        clone = reader.clone()
        try:
            assert clone.read() == DATA
        finally:
            clone.close()
            reader.close()

    def test_clone_of_closed_reader_raises(self, tmp_path):
        path = tmp_path / "closed.bin"
        path.write_bytes(DATA)
        reader = StandardFileReader(path)
        reader.close()
        with pytest.raises(UsageError):
            reader.clone()

    def test_clones_close_independently(self, tmp_path):
        path = tmp_path / "indep.bin"
        path.write_bytes(DATA)
        reader = StandardFileReader(path)
        clone = reader.clone()
        clone.close()
        assert reader.pread(0, 4) == DATA[:4]
        reader.close()


class TestEnsureFileReader:
    def test_bytes(self):
        assert isinstance(ensure_file_reader(b"abc"), MemoryFileReader)

    def test_bytearray(self):
        assert ensure_file_reader(bytearray(b"abc")).read() == b"abc"

    def test_path(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"hello")
        reader = ensure_file_reader(path)
        assert isinstance(reader, StandardFileReader)
        assert reader.read() == b"hello"
        reader.close()

    def test_str_path(self, tmp_path):
        path = tmp_path / "y.bin"
        path.write_bytes(b"yo")
        reader = ensure_file_reader(str(path))
        assert reader.read() == b"yo"
        reader.close()

    def test_file_like(self):
        reader = ensure_file_reader(io.BytesIO(b"xyz"))
        assert isinstance(reader, PythonFileReader)
        assert reader.read() == b"xyz"

    def test_passthrough(self):
        original = MemoryFileReader(b"a")
        assert ensure_file_reader(original) is original

    def test_rejects_garbage(self):
        with pytest.raises(UsageError):
            ensure_file_reader(12345)


class TestSharedFileReader:
    def test_counts_reads_of_every_thread(self):
        # More threads than cores and a short switch interval: a lost
        # counter update would show as a short total.
        reader = SharedFileReader(DATA)
        threads, reads = 8, 300

        def worker():
            for _ in range(reads):
                reader.pread(0, 100)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in pool)
        assert reader.read_calls == threads * reads
        assert reader.bytes_read == threads * reads * 100

    def test_strided_benchmark_reads_whole_file(self, tmp_path):
        path = tmp_path / "bench.bin"
        path.write_bytes(DATA)
        for threads in (1, 2, 4):
            result = strided_read_benchmark(path, num_threads=threads, chunk_size=512)
            assert result["bytes"] == len(DATA)
            assert result["bandwidth"] > 0


class TestPythonFileReader:
    def test_requires_read_and_seek(self):
        with pytest.raises(UsageError):
            PythonFileReader(object())

    def test_nested_reader_as_source(self):
        # A FileReader is itself file-like enough to wrap recursively —
        # mirrors the paper's recursive gzip-in-gzip use case.
        inner = MemoryFileReader(DATA)
        outer = PythonFileReader(inner)
        assert outer.pread(3, 5) == DATA[3:8]


@settings(max_examples=50, deadline=None)
@given(data=st.binary(min_size=0, max_size=512), ops=st.lists(
    st.tuples(st.integers(0, 600), st.integers(0, 64)), max_size=20))
def test_memory_reader_matches_bytesio(data, ops):
    """Property: MemoryFileReader behaves exactly like io.BytesIO."""
    ours = MemoryFileReader(data)
    ref = io.BytesIO(data)
    for offset, size in ops:
        offset = min(offset, len(data))
        ours.seek(offset)
        ref.seek(offset)
        assert ours.read(size) == ref.read(size)
        assert ours.tell() == ref.tell()

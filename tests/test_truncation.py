"""Truncated-file behavior across fetcher modes.

A file can be cut off at three qualitatively different places — inside
the gzip *header*, mid-*deflate*-stream, and inside the final *footer*
(CRC-32/ISIZE trailer). Each fetcher mode (speculative search, loaded
index, BGZF) must turn all three into a structured, classified error in
strict mode and into a correct partial read plus a damage report in
tolerant mode.
"""

import gzip as stdlib_gzip
import signal

import pytest

from repro.datagen import generate_base64
from repro.errors import (
    ChunkDecodeError,
    FormatError,
    TruncatedError,
    EXIT_FORMAT,
    exit_code_for,
)
from repro.faults import truncate
from repro.gz.writer import compress as gz_compress
from repro.index import GzipIndex
from repro.reader import ParallelGzipReader

CHUNK = 64 * 1024
DATA = generate_base64(800_000, seed=3)
SEARCH_BLOB = stdlib_gzip.compress(DATA, 6)
BGZF_BLOB = gz_compress(DATA, "bgzf")

BACKENDS = ["threads"]  # what ChunkDecodeError.backend must name
CUTS = ["header", "mid", "footer"]


@pytest.fixture(autouse=True)
def _hard_deadline():
    """Truncation handling must never hang: 120 s hard kill per test."""

    def _expired(signum, frame):
        raise AssertionError("truncation test exceeded its hard deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def index_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("index") / "search.idx"
    reader = ParallelGzipReader(SEARCH_BLOB, parallelization=2, chunk_size=CHUNK)
    try:
        reader.export_index(path)
    finally:
        reader.close()
    return path


def _cut(blob: bytes, where: str) -> bytes:
    if where == "header":
        return truncate(blob, keep=5)  # mid gzip magic/header
    if where == "mid":
        return truncate(blob, fraction=0.5)  # mid deflate stream
    return truncate(blob, keep=len(blob) - 4)  # inside the 8-byte footer


def _read_all(reader) -> bytes:
    try:
        pieces = []
        while True:
            piece = reader.read(1 << 20)
            if not piece:
                break
            pieces.append(piece)
        return b"".join(pieces)
    finally:
        reader.close()


# ---------------------------------------------------------------------------
# Strict mode: every cut is a structured, classified failure
# ---------------------------------------------------------------------------


class TestStrictSearchMode:
    def test_header_truncation_fails_at_open(self):
        with pytest.raises(TruncatedError) as info:
            ParallelGzipReader(
                _cut(SEARCH_BLOB, "header"), parallelization=2,
                chunk_size=CHUNK,
            )
        assert exit_code_for(info.value) == EXIT_FORMAT

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("where", ["mid", "footer"])
    def test_stream_truncation_fails_at_read(self, where, backend):
        reader = ParallelGzipReader(
            _cut(SEARCH_BLOB, where), parallelization=2,
            chunk_size=CHUNK,
        )
        with pytest.raises(ChunkDecodeError) as info:
            _read_all(reader)
        assert info.value.backend == backend
        assert isinstance(info.value.__cause__, TruncatedError)
        assert exit_code_for(info.value) == EXIT_FORMAT


class TestStrictIndexMode:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("where", CUTS)
    def test_any_truncation_fails_at_read(self, where, backend, index_file):
        # The index promises chunk placements the truncated file can no
        # longer honor; the failure surfaces at the damaged chunk.
        reader = ParallelGzipReader(
            _cut(SEARCH_BLOB, where), parallelization=2, chunk_size=CHUNK,
            index=GzipIndex.load(index_file),
        )
        with pytest.raises(ChunkDecodeError) as info:
            _read_all(reader)
        assert info.value.backend == backend
        assert isinstance(info.value.__cause__, TruncatedError)
        assert exit_code_for(info.value) == EXIT_FORMAT


class TestStrictBgzfMode:
    def test_header_truncation_fails_at_open(self):
        with pytest.raises(TruncatedError):
            ParallelGzipReader(
                _cut(BGZF_BLOB, "header"), parallelization=2,
                chunk_size=CHUNK,
            )

    @pytest.mark.parametrize("where", ["mid", "footer"])
    def test_broken_chain_fails_at_open(self, where):
        # BGZF mode walks the BSIZE chain up front, so a cut anywhere
        # after the first header is detected before any decode starts.
        with pytest.raises(FormatError) as info:
            ParallelGzipReader(
                _cut(BGZF_BLOB, where), parallelization=2,
                chunk_size=CHUNK,
            )
        assert exit_code_for(info.value) == EXIT_FORMAT


# ---------------------------------------------------------------------------
# Tolerant mode: correct partial output + a damage report
# ---------------------------------------------------------------------------


def _tolerant_read(blob, *, index=None):
    reader = ParallelGzipReader(
        blob, parallelization=2, chunk_size=CHUNK,
        index=index, tolerate_corruption=True,
    )
    out = _read_all(reader)
    return out, reader.damage_report


class TestTolerantSearchMode:
    def test_header_truncation_yields_empty_with_report(self):
        out, report = _tolerant_read(_cut(SEARCH_BLOB, "header"))
        assert out == b""
        assert report.damaged
        assert any(region.kind == "truncated" for region in report.regions)

    def test_mid_truncation_keeps_correct_prefix(self):
        out, report = _tolerant_read(_cut(SEARCH_BLOB, "mid"))
        assert report.damaged
        first = min(region.output_offset for region in report.regions)
        assert first > 0, "nothing recovered before the cut"
        assert out[:first] == DATA[:first]

    def test_footer_truncation_keeps_almost_everything(self):
        out, report = _tolerant_read(_cut(SEARCH_BLOB, "footer"))
        assert any(region.kind == "truncated" for region in report.regions)
        first = min(region.output_offset for region in report.regions)
        # Only the last deflate block's tail is lost with the footer.
        assert first > len(DATA) * 9 // 10
        assert out[:first] == DATA[:first]


class TestTolerantIndexMode:
    @pytest.mark.parametrize("where", CUTS)
    def test_damaged_chunks_become_placeholders(self, where, index_file):
        out, report = _tolerant_read(
            _cut(SEARCH_BLOB, where), index=GzipIndex.load(index_file)
        )
        # Index mode knows every chunk's output size, so damaged chunks
        # keep their length (placeholder-filled) and offsets stay valid.
        assert len(out) == len(DATA)
        assert report.damaged
        assert all(region.kind == "truncated" for region in report.regions)
        first = min(region.output_offset for region in report.regions)
        assert out[:first] == DATA[:first]
        if where == "header":
            assert first == 0
        else:
            assert first > 0


class TestTolerantBgzfMode:
    def test_header_truncation_yields_empty_with_report(self):
        out, report = _tolerant_read(_cut(BGZF_BLOB, "header"))
        assert out == b""
        assert report.damaged

    @pytest.mark.parametrize("where", ["mid", "footer"])
    def test_broken_chain_degrades_to_search_resync(self, where):
        # The BSIZE chain no longer covers the file, so mode detection
        # fails; tolerant mode falls back to speculative search and still
        # recovers everything before the cut.
        out, report = _tolerant_read(_cut(BGZF_BLOB, where))
        assert report.damaged
        first = min(region.output_offset for region in report.regions)
        assert first > 0
        assert out[:first] == DATA[:first]
        if where == "footer":
            assert first > len(DATA) * 9 // 10

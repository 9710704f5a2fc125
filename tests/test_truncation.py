"""Truncated and damaged files across open modes.

A file can be cut off at three qualitatively different places — inside
the gzip *header*, mid-*deflate*-stream, and inside the final *footer*
(CRC-32/ISIZE trailer). Each open mode (speculative search, a loaded
index, a BGZF file's BSIZE chain read as a synthesized index) must turn
all three into a structured, classified error in strict mode and into a
correct partial read plus a damage report in tolerant mode. A BGZF member
damaged with its BSIZE chain intact follows the index contract: strict
mode fails at that member's group, tolerant mode fills exactly that group
with placeholder bytes.
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
from repro.gz.bgzf import bgzf_block_offsets, bgzf_catalog
from repro.gz.writer import compress as gz_compress
from repro.index import load_index
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


def _damaged_bgzf_member():
    """BGZF_BLOB with Deflate bytes of a middle member flipped (BSIZE
    chain intact), and the catalog chunk (member group) holding it."""
    offsets = bgzf_block_offsets(BGZF_BLOB)
    member = offsets[len(offsets) // 2]
    blob = bytearray(BGZF_BLOB)
    for position in range(member + 118, member + 134):
        blob[position] ^= 0xFF
    catalog = bgzf_catalog(BGZF_BLOB, CHUNK)
    group = max(
        i for i, chunk in enumerate(catalog.chunks)
        if chunk.start_bit <= member * 8
    )
    return bytes(blob), catalog, group


def _overlong_isize():
    """BGZF_BLOB with one footer claiming more than a member can hold."""
    offsets = bgzf_block_offsets(BGZF_BLOB)
    blob = bytearray(BGZF_BLOB)
    footer_end = offsets[len(offsets) // 2]
    blob[footer_end - 4 : footer_end] = (65537).to_bytes(4, "little")
    return bytes(blob)


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
            index=load_index(index_file),
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

    def test_damaged_member_fails_at_read(self):
        blob, _, _ = _damaged_bgzf_member()
        reader = ParallelGzipReader(blob, parallelization=2, chunk_size=CHUNK)
        with pytest.raises(ChunkDecodeError) as info:
            _read_all(reader)
        assert exit_code_for(info.value) == EXIT_FORMAT

    def test_overlong_footer_fails_at_open(self):
        with pytest.raises(FormatError) as info:
            ParallelGzipReader(
                _overlong_isize(), parallelization=2, chunk_size=CHUNK
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
            _cut(SEARCH_BLOB, where), index=load_index(index_file)
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

    def test_damaged_member_becomes_placeholders(self):
        # The index contract: the damaged group keeps its length, every
        # offset stays valid, and the read resumes at the next group.
        blob, catalog, group = _damaged_bgzf_member()
        begin = catalog.chunks[group].uncompressed_offset
        end = begin + catalog.chunk_length(group)
        out, report = _tolerant_read(blob)
        assert len(out) == len(DATA)
        assert [region.kind for region in report.regions] == ["corrupt"]
        region = report.regions[0]
        assert region.start_bit == catalog.chunks[group].start_bit
        assert region.resume_bit == catalog.chunks[group + 1].start_bit
        assert region.output_offset == begin
        assert region.unresolved_markers == end - begin
        assert out[:begin] == DATA[:begin]
        assert out[end:] == DATA[end:]

    def test_overlong_footer_opens_in_search_mode(self):
        reader = ParallelGzipReader(
            _overlong_isize(), parallelization=2, chunk_size=CHUNK,
            tolerate_corruption=True,
        )
        try:
            assert reader.statistics()["mode"] == "search"
        finally:
            reader.close()

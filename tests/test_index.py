"""Tests for the seek-point index and its serialization: format v2 is
written, legacy v1 is import-only and fails the same named checks."""

import gzip as stdlib_gzip
import io
import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexIntegrityError, UsageError
from repro.index import (
    GzipIndex,
    INDEX_MAGIC_V1,
    INDEX_MAGIC_V2,
    INDEX_TRAILER_V2,
    MAX_COMPRESSED_WINDOW,
    SeekPoint,
    load_index,
    save_index,
)
from repro.index.store import index_to_bytes_v2
from repro.reader import ParallelGzipReader


def make_index(points=3, finalized=True) -> GzipIndex:
    index = GzipIndex()
    for i in range(points):
        index.add(
            SeekPoint(
                compressed_bit_offset=100 + i * 1000,
                uncompressed_offset=i * 5000,
                window=bytes([i]) * (0 if i == 0 else 32768),
                is_stream_start=(i == 0),
            )
        )
    if finalized:
        index.finalize(points * 5000, 100 + points * 1000)
    return index


class TestIndexBasics:
    def test_add_and_lookup(self):
        index = make_index()
        assert len(index) == 3
        assert index.find(0).uncompressed_offset == 0
        assert index.find(4999).uncompressed_offset == 0
        assert index.find(5000).uncompressed_offset == 5000
        assert index.find(10**9).uncompressed_offset == 10000

    def test_out_of_order_add_rejected(self):
        index = make_index(2, finalized=False)
        with pytest.raises(UsageError):
            index.add(SeekPoint(50, 100, b""))

    def test_add_after_finalize_rejected(self):
        index = make_index()
        with pytest.raises(UsageError):
            index.add(SeekPoint(10**6, 10**6, b""))

    def test_find_on_empty_raises(self):
        with pytest.raises(UsageError):
            GzipIndex().find(0)

    def test_index_of(self):
        index = make_index()
        assert index.index_of(5000) == 1
        with pytest.raises(UsageError):
            index.index_of(1234)


class TestSerialization:
    def test_round_trip(self):
        index = make_index()
        data = index_to_bytes_v2(index)
        assert data.startswith(INDEX_MAGIC_V2)
        loaded = load_index(data)
        assert loaded.finalized
        assert loaded.uncompressed_size == index.uncompressed_size
        assert loaded.compressed_size_bits == index.compressed_size_bits
        assert len(loaded) == len(index)
        for original, restored in zip(index, loaded):
            assert original == restored

    def test_windows_raw_in_file(self):
        index = make_index()
        # Every window is written as its raw bytes, flagged raw (bit 1):
        # a 32-byte header, then per point a 29-byte record and the
        # window itself, then the 12-byte footer.
        data = index_to_bytes_v2(index)
        assert len(data) == 32 + 3 * 29 + 2 * 32768 + 12
        offset = 32
        for point in index:
            flags, raw, stored = struct.unpack_from("<BII", data, offset + 16)
            assert flags & 2 and raw == stored == len(point.window)
            offset += 29
            assert data[offset : offset + stored] == point.window
            offset += stored

    def test_overlong_window_not_exportable(self):
        # The loader rejects a window past 32 KiB, so the writer refuses
        # to write one and names its seek point.
        index = GzipIndex()
        index.add(SeekPoint(100, 0, b"", is_stream_start=True))
        index.add(SeekPoint(2000, 5000, b"x" * 32769))
        index.finalize(10000, 4000)
        with pytest.raises(UsageError, match="seek point 1"):
            index_to_bytes_v2(index)

    def test_raw_window_with_differing_lengths_rejected(self):
        # A raw window is stored as it is, so its two lengths must agree;
        # the CRC over the stored bytes is valid, the lengths are not.
        raw = _raw_v2([(100, 0, 2, b"x" * 100)], raw_length=101)
        with pytest.raises(IndexIntegrityError,
                           match="raw window stores 100") as info:
            load_index(raw)
        assert (info.value.check, info.value.point) == ("window_length", 0)

    def test_bad_magic_rejected(self):
        with pytest.raises(IndexIntegrityError) as info:
            load_index(b"NOTANIDX" + bytes(100))
        assert info.value.check == "magic"

    def test_truncated_rejected(self):
        data = index_to_bytes_v2(make_index())
        with pytest.raises(IndexIntegrityError) as info:
            load_index(data[: len(data) - 10])
        assert info.value.check in {"trailer", "truncated"}

    def test_save_load_path(self, tmp_path):
        path = tmp_path / "file.idx"
        index = make_index()
        save_index(index, path)
        assert load_index(path).uncompressed_size == index.uncompressed_size

    def test_save_load_fileobj(self):
        sink = io.BytesIO(index_to_bytes_v2(make_index()))
        assert len(load_index(sink)) == 3


_SIZES = (10**6, 10**6)


def _raw_v1(points, *, finalized=True, sizes=_SIZES, declare=None) -> bytes:
    """Hand-build a v1 index blob from (bit, offset, flags, compressed
    window) tuples, bypassing GzipIndex's own validation; ``declare``
    overrides every declared window length. The program no longer writes
    v1; this is the legacy layout ``load_index`` imports."""
    out = io.BytesIO()
    out.write(INDEX_MAGIC_V1)
    out.write(bytes([1, 1 if finalized else 0]))  # version, flags
    out.write(sizes[0].to_bytes(8, "little"))
    out.write(sizes[1].to_bytes(8, "little"))
    out.write(len(points).to_bytes(4, "little"))
    for bit, offset, flags, compressed_window in points:
        out.write(bit.to_bytes(8, "little"))
        out.write(offset.to_bytes(8, "little"))
        out.write(bytes([flags]))
        length = len(compressed_window) if declare is None else declare
        out.write(length.to_bytes(4, "little"))
        out.write(compressed_window)
    return out.getvalue()


def _raw_v2(points, *, finalized=True, sizes=_SIZES, declare=None,
            raw_length=32768) -> bytes:
    """The same points as a v2 blob: valid CRCs, every window declaring
    ``raw_length`` — so only the damage under test can fail."""
    pieces = [struct.pack(
        "<8sBBHQQI", INDEX_MAGIC_V2, 2, 1 if finalized else 0, 0,
        sizes[0], sizes[1], len(points),
    )]
    for bit, offset, flags, compressed_window in points:
        pieces.append(struct.pack(
            "<QQBIII", bit, offset, flags, raw_length,
            len(compressed_window) if declare is None else declare,
            zlib.crc32(compressed_window),
        ))
        pieces.append(compressed_window)
    body = b"".join(pieces)
    return body + struct.pack("<I8s", zlib.crc32(body), INDEX_TRAILER_V2)


def _points_of(index):
    return [
        (point.compressed_bit_offset, point.uncompressed_offset,
         int(point.is_stream_start), zlib.compress(point.window, 6))
        for point in index
    ]


def _v1_of(index) -> bytes:
    """``index`` in the v1 layout, exactly as the former v1 writer did."""
    return _raw_v1(
        _points_of(index), finalized=index.finalized,
        sizes=(index.uncompressed_size, index.compressed_size_bits),
    )


_WINDOW = zlib.compress(b"x" * 32768)
_BOMB = zlib.compress(b"\x00" * (40 * 1024), 9)

#: One damage class each, as v1 / v2 point lists (plus header options),
#: and the check both formats must name.
_DAMAGE = {
    # The parser must reject an absurd declared length *before* trying
    # to allocate or read it.
    "oversized window length": (
        "window_length", [(100, 0, 1, b"")],
        {"declare": MAX_COMPRESSED_WINDOW + 1}),
    "undecodable window": (
        "window_inflate", [(100, 0, 0, b"\xff\x00\xaa" * 30)], {}),
    "window inflating past 32 KiB": (
        "window_length", [(100, 0, 0, _BOMB)], {}),
    "non-monotonic points": (
        "order", [(1000, 5000, 0, _WINDOW), (900, 4000, 0, _WINDOW)], {}),
    "never finalized": (
        "finalized", [(100, 0, 1, _WINDOW)], {"finalized": False}),
}


def _damaged(kind: str, writer) -> bytes:
    _check, points, options = _DAMAGE[kind]
    return writer(points, **options)


class TestMalformedV1:
    """Legacy v1 import runs v2's checks: every damage class is an
    IndexIntegrityError naming its check, never a leaked
    struct.error/zlib.error."""

    def test_truncation_at_every_boundary(self):
        data = _v1_of(make_index())
        for cut in (0, 4, 8, 9, 10, 17, 25, 29, 30, 37, 45, 46, 49,
                    len(data) - 1):
            with pytest.raises(IndexIntegrityError) as info:
                load_index(data[:cut])
            assert info.value.check == "truncated", cut
            assert "byte" in str(info.value)

    def test_oversized_window_length_rejected(self):
        with pytest.raises(IndexIntegrityError,
                           match="implausible window length") as info:
            load_index(_damaged("oversized window length", _raw_v1))
        assert info.value.check == "window_length"

    def test_undecodable_window_is_rejected(self):
        with pytest.raises(IndexIntegrityError,
                           match="failed to inflate") as info:
            load_index(_damaged("undecodable window", _raw_v1))
        assert info.value.check == "window_inflate"

    def test_window_inflating_past_32k_rejected(self):
        assert len(_BOMB) <= MAX_COMPRESSED_WINDOW
        with pytest.raises(IndexIntegrityError,
                           match="inflates past") as info:
            load_index(_damaged("window inflating past 32 KiB", _raw_v1))
        assert info.value.check == "window_length"

    def test_non_monotonic_points_rejected(self):
        with pytest.raises(IndexIntegrityError, match="non-monotonic") as info:
            load_index(_damaged("non-monotonic points", _raw_v1))
        assert info.value.check == "order"

    def test_unfinalized_v1_rejected(self):
        blob = _v1_of(make_index(finalized=False))
        with pytest.raises(IndexIntegrityError) as info:
            load_index(blob)
        assert info.value.check == "finalized"

    @pytest.mark.parametrize("kind", sorted(_DAMAGE))
    def test_same_damage_same_check_as_v2(self, kind):
        check = _DAMAGE[kind][0]
        for writer in (_raw_v1, _raw_v2):
            with pytest.raises(IndexIntegrityError) as info:
                load_index(_damaged(kind, writer))
            assert info.value.check == check, (writer.__name__, kind)

    def test_flipped_bytes_never_leak_internal_errors(self):
        from repro import faults

        data = _v1_of(make_index())
        for seed in range(40):
            damaged = faults.flip_bytes(data, seed=seed, flips=3)
            try:
                load_index(damaged)
            except IndexIntegrityError:
                pass  # typed rejection is the contract

    def test_legacy_file_imports_unchanged(self):
        # Pin: a v1 file loads to the points, windows and finalization
        # it was written from, and a reader given it reads the same bytes.
        data = random.Random(7).randbytes(120_000).hex().encode()
        blob = stdlib_gzip.compress(data, 6)
        with ParallelGzipReader(blob, parallelization=1,
                                chunk_size=32 * 1024) as reader:
            assert reader.read() == data
            built = reader.index
        assert len(built) > 3
        loaded = load_index(_v1_of(built))
        assert loaded.seek_points == built.seek_points
        assert loaded.finalized and built.finalized
        assert (loaded.uncompressed_size, loaded.compressed_size_bits) == (
            built.uncompressed_size, built.compressed_size_bits
        )
        with ParallelGzipReader(blob, parallelization=2,
                                index=loaded) as reader:
            assert reader.read() == data
            assert reader.statistics()["mode"] == "index"


@settings(max_examples=30, deadline=None)
@given(
    offsets=st.lists(
        st.tuples(st.integers(1, 10**6), st.integers(0, 10**6)),
        min_size=1,
        max_size=20,
    )
)
def test_property_serialization_round_trip(offsets):
    """Property: a v1 file and the v2 export both load back to the
    identical index."""
    index = GzipIndex()
    compressed_bit = 0
    uncompressed = 0
    for compressed_delta, uncompressed_delta in offsets:
        compressed_bit += compressed_delta
        index.add(SeekPoint(compressed_bit, uncompressed, bytes(16)))
        uncompressed += uncompressed_delta
    index.finalize(uncompressed, compressed_bit + 1)
    for blob in (_v1_of(index), index_to_bytes_v2(index)):
        loaded = load_index(blob)
        assert loaded.seek_points == index.seek_points
        assert (loaded.uncompressed_size, loaded.compressed_size_bits) == (
            index.uncompressed_size, index.compressed_size_bits
        )

"""Unit and property tests for the LSB-first BitReader."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TruncatedError, UsageError
from repro.io import BitReader, MemoryFileReader


def bits_of(data: bytes) -> str:
    """Reference bit string, LSB of each byte first (RFC 1951 order)."""
    return "".join(format(byte, "08b")[::-1] for byte in data)


def read_reference(data: bytes, counts) -> list:
    """Decode with the naive string-based reference implementation."""
    stream = bits_of(data)
    out, pos = [], 0
    for count in counts:
        piece = stream[pos : pos + count]
        out.append(int(piece[::-1], 2) if piece else 0)
        pos += count
    return out


class TestBasicReads:
    def test_single_bits(self):
        reader = BitReader(b"\xa5")  # 0b10100101 -> LSB first: 1,0,1,0,0,1,0,1
        assert [reader.read(1) for _ in range(8)] == [1, 0, 1, 0, 0, 1, 0, 1]

    def test_multibit_read(self):
        reader = BitReader(b"\xa5\x0f")
        assert reader.read(4) == 0x5
        assert reader.read(4) == 0xA
        assert reader.read(8) == 0x0F

    def test_cross_byte_read(self):
        reader = BitReader(b"\xff\x00\xff")
        reader.read(4)
        assert reader.read(8) == 0x0F  # high nibble of 0xff, low nibble of 0x00

    def test_zero_bit_read(self):
        reader = BitReader(b"\x81")
        assert reader.read(0) == 0
        assert reader.tell() == 0

    def test_large_read_57_bits(self):
        data = bytes(range(1, 9))
        reader = BitReader(data)
        expected = int.from_bytes(data, "little") & ((1 << 57) - 1)
        assert reader.read(57) == expected

    def test_read_past_eof_raises(self):
        reader = BitReader(b"\x01")
        reader.read(7)
        with pytest.raises(TruncatedError):
            reader.read(2)

    def test_exact_eof_read_ok(self):
        reader = BitReader(b"\x01\x02")
        assert reader.read(16) == 0x0201
        assert reader.eof()


class TestPeekAndSkip:
    def test_peek_does_not_consume(self):
        reader = BitReader(b"\x5a")
        assert reader.peek(8) == 0x5A
        assert reader.tell() == 0
        assert reader.read(8) == 0x5A

    def test_peek_zero_pads_at_eof(self):
        reader = BitReader(b"\x0f")
        reader.read(4)
        assert reader.peek(16) == 0x0  # remaining high nibble is 0, padded
        reader2 = BitReader(b"\xff")
        reader2.read(4)
        assert reader2.peek(16) == 0xF

    def test_skip_within_buffer(self):
        reader = BitReader(b"\xff\x0f")
        reader.peek(16)
        reader.skip(8)
        assert reader.read(8) == 0x0F

    def test_skip_beyond_buffer(self):
        data = bytes(200)
        reader = BitReader(data + b"\xab")
        reader.skip(200 * 8)
        assert reader.read(8) == 0xAB

    def test_skip_past_eof_raises(self):
        # Regression: Huffman decode loops advance via peek+skip only; a
        # permissive skip let truncated streams decode zero-padded phantom
        # symbols forever (infinite loop on certain corrupt files).
        reader = BitReader(b"\x00\x00")
        reader.skip(10)
        with pytest.raises(TruncatedError):
            reader.skip(7)
        reader2 = BitReader(b"")
        with pytest.raises(TruncatedError):
            reader2.skip(1)


class TestSeekTell:
    def test_tell_tracks_reads(self):
        reader = BitReader(bytes(100))
        assert reader.tell() == 0
        reader.read(3)
        assert reader.tell() == 3
        reader.read(13)
        assert reader.tell() == 16

    def test_seek_to_unaligned_bit(self):
        reader = BitReader(b"\x00\xf0")
        reader.seek(12)
        assert reader.read(4) == 0xF
        assert reader.tell() == 16

    def test_seek_cur_and_end(self):
        reader = BitReader(b"\x00\x00\x80")
        reader.seek(-1, io.SEEK_END)
        assert reader.read(1) == 1
        reader.seek(0)
        reader.seek(23, io.SEEK_CUR)
        assert reader.read(1) == 1

    def test_seek_negative_raises(self):
        reader = BitReader(b"\x00")
        with pytest.raises(UsageError):
            reader.seek(-1)

    def test_seek_then_tell_consistent(self):
        reader = BitReader(bytes(64))
        for offset in (0, 1, 7, 8, 9, 63, 100, 512):
            reader.seek(offset)
            assert reader.tell() == offset


class TestByteOperations:
    def test_align_to_byte(self):
        reader = BitReader(b"\xff\xaa")
        reader.read(3)
        skipped = reader.align_to_byte()
        assert skipped == 5
        assert reader.read(8) == 0xAA

    def test_align_when_aligned_is_noop(self):
        reader = BitReader(b"\x01\x02")
        reader.read(8)
        assert reader.align_to_byte() == 0
        assert reader.tell() == 8

    def test_read_bytes(self):
        payload = bytes(range(50))
        reader = BitReader(payload)
        assert reader.read_bytes(10) == payload[:10]
        assert reader.read_bytes(40) == payload[10:]
        assert reader.eof()

    def test_read_bytes_after_bit_reads(self):
        reader = BitReader(b"\xff" + bytes(range(20)))
        reader.read(8)
        assert reader.read_bytes(20) == bytes(range(20))

    def test_read_bytes_unaligned_raises(self):
        reader = BitReader(b"\x00\x00")
        reader.read(3)
        with pytest.raises(UsageError):
            reader.read_bytes(1)

    def test_read_bytes_truncated_raises(self):
        reader = BitReader(b"\x01\x02")
        with pytest.raises(TruncatedError):
            reader.read_bytes(5)

    def test_read_bytes_spanning_cache_chunks(self):
        payload = bytes(i & 0xFF for i in range(1000))
        reader = BitReader(payload, cache_size=64)
        reader.read(16)
        assert reader.read_bytes(900) == payload[2:902]
        assert reader.tell() == 902 * 8


class TestSmallCache:
    """Exercise chunked refills across cache boundaries."""

    def test_reads_with_tiny_cache(self):
        data = bytes((i * 7) & 0xFF for i in range(512))
        reader = BitReader(data, cache_size=8)
        out = bytearray()
        for _ in range(512):
            out.append(reader.read(8))
        assert bytes(out) == data

    def test_cache_too_small_raises(self):
        with pytest.raises(UsageError):
            BitReader(b"", cache_size=4)


@settings(max_examples=80, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=256),
    counts=st.lists(st.integers(min_value=0, max_value=57), max_size=40),
)
def test_reads_match_reference(data, counts):
    """Property: arbitrary read sequences match a naive bit-string model."""
    reader = BitReader(data, cache_size=16)
    usable, acc = [], 0
    for c in counts:
        if acc + c > len(data) * 8:
            break
        usable.append(c)
        acc += c
    assert [reader.read(c) for c in usable] == read_reference(data, usable)


@settings(max_examples=60, deadline=None)
@given(
    data=st.binary(min_size=2, max_size=128),
    offsets=st.lists(st.integers(min_value=0, max_value=1023), min_size=1, max_size=16),
)
def test_seek_read_matches_reference(data, offsets):
    """Property: seek-then-read agrees with the reference at any bit offset."""
    reader = BitReader(data, cache_size=16)
    stream = bits_of(data)
    for offset in offsets:
        offset %= len(stream)
        count = min(8, len(stream) - offset)
        reader.seek(offset)
        piece = stream[offset : offset + count]
        assert reader.read(count) == int(piece[::-1], 2)


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=4, max_size=64))
def test_peek_then_read_consistent(data):
    reader = BitReader(data)
    while reader.remaining_bits() >= 11:
        peeked = reader.peek(11)
        assert reader.read(11) == peeked

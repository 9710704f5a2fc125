"""Tests for the from-scratch CRC-32 and crc32_combine."""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate import libz
from repro.gz import crc32, crc32_combine


class TestCrc32:
    def test_empty(self):
        assert crc32(b"") == 0
        assert crc32(b"") == zlib.crc32(b"")

    def test_known_vector(self):
        # The classic check value for CRC-32: "123456789" -> 0xCBF43926.
        assert crc32(b"123456789") == 0xCBF43926

    def test_matches_zlib(self):
        for sample in (b"a", b"hello world", bytes(range(256)), b"\x00" * 1000):
            assert crc32(sample) == zlib.crc32(sample)

    def test_incremental(self):
        whole = crc32(b"foobarbaz")
        partial = crc32(b"baz", crc32(b"bar", crc32(b"foo")))
        assert whole == partial


@settings(max_examples=80, deadline=None)
@given(data=st.binary(max_size=2048))
def test_crc32_property_matches_zlib(data):
    assert crc32(data) == zlib.crc32(data)


@settings(max_examples=80, deadline=None)
@given(first=st.binary(max_size=1024), second=st.binary(max_size=1024))
def test_combine_property(first, second):
    """Property: combine(crc(A), crc(B), len(B)) == crc(A+B), for the
    reference and for libz's (what the reader folds CRCs with)."""
    for combine in (crc32_combine, libz.crc32_combine):
        combined = combine(zlib.crc32(first), zlib.crc32(second), len(second))
        assert combined == zlib.crc32(first + second)


def test_combine_zero_length():
    assert crc32_combine(0x12345678, 0, 0) == 0x12345678


def test_combine_associative():
    a, b, c = b"alpha", b"bravo charlie", b"delta!"
    ab = crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b))
    abc_left = crc32_combine(ab, zlib.crc32(c), len(c))
    bc = crc32_combine(zlib.crc32(b), zlib.crc32(c), len(c))
    abc_right = crc32_combine(zlib.crc32(a), bc, len(b) + len(c))
    assert abc_left == abc_right == zlib.crc32(a + b + c)

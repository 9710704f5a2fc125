"""Tests for the from-scratch CRC-32 and crc32_combine."""

import random
import zlib

import pytest
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


@pytest.mark.parametrize("length", [0, 1, 2, 31, 4096, 65537])
def test_combine_matches_zlib_at_lengths(length):
    rng = random.Random(length)
    for _ in range(20):
        first = rng.randbytes(rng.randrange(0, 3000))
        second = rng.randbytes(length)
        assert crc32_combine(
            zlib.crc32(first), zlib.crc32(second), len(second)
        ) == zlib.crc32(first + second)


def test_combine_matches_zlib_at_random_lengths():
    rng = random.Random(7)
    for _ in range(200):
        first = rng.randbytes(rng.randrange(0, 5000))
        second = rng.randbytes(rng.randrange(0, 5000))
        assert crc32_combine(
            zlib.crc32(first), zlib.crc32(second), len(second)
        ) == zlib.crc32(first + second)


def test_combine_matches_zlib_past_4_gib():
    # A = 1000 zero bytes, B = 2^32 + 3 zero bytes: one pass of zlib.crc32
    # over A + B passes both ends of A and of B on the way.
    first_length, second_length = 1000, (1 << 32) + 3
    block = bytes(1 << 20)
    crcs = {}
    crc = position = 0
    for stop in sorted({first_length, second_length,
                        first_length + second_length}):
        while position < stop:
            step = min(len(block), stop - position)
            crc = zlib.crc32(memoryview(block)[:step], crc)
            position += step
        crcs[stop] = crc
    assert crc32_combine(
        crcs[first_length], crcs[second_length], second_length
    ) == crcs[first_length + second_length]

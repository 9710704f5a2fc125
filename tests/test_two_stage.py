"""Tests for two-stage (marker) decoding and marker replacement."""

import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deflate import (
    MARKER_FLAG,
    MAX_WINDOW_SIZE,
    ChunkPayload,
    TwoStageStreamDecoder,
    pad_window,
    read_block_header,
    replace_markers,
    seed_marker_window_u16,
)
from repro.errors import DeflateError
from repro.io import BitReader


def raw_deflate(data: bytes, level: int = 6, zdict: bytes = None) -> bytes:
    if zdict is None:
        compressor = zlib.compressobj(level, zlib.DEFLATED, -15)
    else:
        compressor = zlib.compressobj(level, zlib.DEFLATED, -15, zdict=zdict)
    return compressor.compress(data) + compressor.flush()


def two_stage_decode_stream(compressed: bytes, max_size=None) -> ChunkPayload:
    """Decode a whole raw Deflate stream in two-stage mode."""
    reader = BitReader(compressed)
    decoder = TwoStageStreamDecoder(window=None, max_size=max_size)
    while True:
        header = decoder.read_and_decode_block(reader)
        if header.final:
            break
    return decoder.finish()


class TestMarkerReplacement:
    def test_identity_on_plain_bytes(self):
        segment = np.arange(256, dtype=np.uint16)
        window = pad_window(b"")
        assert replace_markers(segment, window) == bytes(range(256))

    def test_marker_gather(self):
        window = pad_window(bytes(range(200)) * 200)
        segment = np.array(
            [65, MARKER_FLAG | 0, MARKER_FLAG | 32767, 66], dtype=np.uint16
        )
        out = replace_markers(segment, window)
        assert out == bytes([65, window[0], window[32767], 66])

    def test_window_must_be_full_size(self):
        from repro.errors import UsageError

        with pytest.raises(UsageError):
            replace_markers(np.zeros(4, dtype=np.uint16), b"short")

    def test_pad_window_shapes(self):
        assert len(pad_window(b"")) == MAX_WINDOW_SIZE
        assert pad_window(b"abc")[-3:] == b"abc"
        big = bytes(range(256)) * 200
        assert pad_window(big) == big[-MAX_WINDOW_SIZE:]

    @staticmethod
    def where_formula(segment, window: bytes) -> bytes:
        """Stage 2 as it was written before the table gather (the oracle)."""
        window_array = np.frombuffer(window, dtype=np.uint8)
        offsets = segment & (MARKER_FLAG - 1)
        resolved = np.where(segment >= MARKER_FLAG, window_array[offsets], segment)
        return resolved.astype(np.uint8).tobytes()

    @staticmethod
    def random_segment(rng, size: int, marker_share: float) -> np.ndarray:
        segment = rng.integers(0, 256, size).astype(np.uint16)
        markers = rng.random(size) < marker_share
        segment[markers] = MARKER_FLAG | rng.integers(0, MAX_WINDOW_SIZE, markers.sum())
        return segment

    @pytest.mark.parametrize("window_size", [0, 1, 700, MAX_WINDOW_SIZE - 1,
                                             MAX_WINDOW_SIZE, MAX_WINDOW_SIZE + 9])
    @pytest.mark.parametrize("marker_share", [0.0, 0.3, 1.0])
    def test_table_gather_equals_where_formula(self, window_size, marker_share):
        rng = np.random.default_rng(window_size * 7 + int(marker_share * 10))
        window = pad_window(rng.integers(0, 256, window_size).astype(np.uint8).tobytes())
        for size in (0, 1, 4097):
            segment = self.random_segment(rng, size, marker_share)
            assert replace_markers(segment, window) == \
                self.where_formula(segment, window)

    def test_symbols_no_valid_stream_produces_read_zero(self):
        # 256..0x7FFF is neither a literal nor a marker. The gather table
        # maps it to 0; the where/astype formula used to keep its low byte.
        segment = np.array([255, 256, 0x1234, MARKER_FLAG - 1], dtype=np.uint16)
        assert replace_markers(segment, pad_window(b"\xff" * 9)) == b"\xff\0\0\0"

    @pytest.mark.parametrize("window_size", [0, 700, MAX_WINDOW_SIZE])
    def test_mixed_segments_materialize_piecewise(self, window_size):
        rng = np.random.default_rng(window_size + 1)
        window = rng.integers(0, 256, window_size).astype(np.uint8).tobytes()
        for sizes in ([5], [40_000, 3], [0, 10, 33_000, 7, 2_000], [100, 50_000]):
            payload, pieces = ChunkPayload(), []
            for index, size in enumerate(sizes):
                if index % 2:
                    data = rng.integers(0, 256, size).astype(np.uint8).tobytes()
                    payload.append_bytes(data)
                    pieces.append(data)
                else:
                    segment = self.random_segment(rng, size, 0.3)
                    payload.append_symbol_bytes(segment.tobytes())
                    pieces.append(self.where_formula(segment, pad_window(window)))
            expected = b"".join(pieces)
            assert payload.length == len(expected)
            assert payload.materialize(window) == expected
            # Short chunk: older window bytes shift in from the left.
            assert payload.window_at_end(window) == \
                (pad_window(window) + expected)[-MAX_WINDOW_SIZE:]

    def test_all_bytes_payload_is_not_copied(self, monkeypatch):
        import repro.deflate.markers as markers

        def no_table(window):
            raise AssertionError("no marker segment, no gather table")

        monkeypatch.setattr(markers, "symbol_table", no_table)
        one = ChunkPayload()
        one.append_bytes(b"x" * 70_000)
        assert one.materialize(b"window") is one.segments[0]
        two = ChunkPayload()
        two.append_bytes(b"a" * 40_000)
        two.append_bytes(b"b" * 10)
        assert two.materialize() == b"a" * 40_000 + b"b" * 10
        assert two.window_at_end(b"w") == (b"a" * 40_000 + b"b" * 10)[-MAX_WINDOW_SIZE:]

    def test_seed_marker_window(self):
        seed = seed_marker_window_u16()
        assert isinstance(seed, bytearray)  # a fresh, extendable copy
        symbols = np.frombuffer(seed, dtype="<u2")
        assert len(symbols) == MAX_WINDOW_SIZE
        assert symbols[0] == MARKER_FLAG
        assert symbols[-1] == MARKER_FLAG | (MAX_WINDOW_SIZE - 1)


class TestTwoStageDecoding:
    def test_no_backrefs_needs_no_window(self):
        # Data with no LZ matches decodes fully even with unknown window.
        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(2000))
        compressed = raw_deflate(data, level=0)
        payload = two_stage_decode_stream(compressed)
        assert not payload.has_markers
        assert payload.materialize(b"") == data

    def test_backrefs_within_chunk_resolve_internally(self):
        data = b"hello world! " * 500
        compressed = raw_deflate(data)
        payload = two_stage_decode_stream(compressed)
        assert not payload.has_markers  # matches stay inside the chunk
        assert payload.materialize(b"") == data

    def test_backrefs_into_unknown_window_produce_markers(self):
        window = b"0123456789abcdef" * 2048  # 32 KiB
        data = window[:1000] + b"NEW" + window[5000:6000]
        compressed = raw_deflate(data, zdict=window)
        payload = two_stage_decode_stream(compressed)
        assert payload.has_markers
        assert payload.materialize(window) == data

    def test_wrong_window_gives_wrong_but_same_shape_output(self):
        window = bytes(range(256)) * 128
        data = window[100:400]
        compressed = raw_deflate(data, zdict=window)
        payload = two_stage_decode_stream(compressed)
        wrong = payload.materialize(bytes(MAX_WINDOW_SIZE))
        right = payload.materialize(window)
        assert right == data
        assert len(wrong) == len(right)
        assert wrong != right

    def test_window_at_end_matches_suffix(self):
        window = b"ABCDEFGH" * 4096
        data = (b"xy" * 40000) + window[:128]
        compressed = raw_deflate(data, zdict=window)
        payload = two_stage_decode_stream(compressed)
        assert payload.window_at_end(window) == data[-MAX_WINDOW_SIZE:]

    def test_window_at_end_short_chunk_includes_previous_window(self):
        window = bytes(range(256)) * 128  # 32 KiB
        data = b"tiny"
        compressed = raw_deflate(data, zdict=window)
        payload = two_stage_decode_stream(compressed)
        expected = (window + data)[-MAX_WINDOW_SIZE:]
        assert payload.window_at_end(window) == expected

    def test_known_window_mode_decodes_conventionally(self):
        window = b"qrs" * 11000
        data = window[:5000] + b"tail"
        compressed = raw_deflate(data, zdict=window)
        reader = BitReader(compressed)
        decoder = TwoStageStreamDecoder(window=window)
        while not decoder.read_and_decode_block(reader).final:
            pass
        payload = decoder.finish()
        assert not payload.has_markers
        assert payload.materialize(window) == data

    def test_fallback_to_byte_mode_after_marker_free_window(self):
        # Head references the unknown window; a long marker-free middle
        # must trigger the conventional-decode fallback (paper §3.3).
        window = b"z" * MAX_WINDOW_SIZE
        rng = random.Random(99)
        tail = bytes(rng.randrange(256) for _ in range(3 * MAX_WINDOW_SIZE))
        data = window[:50] + tail
        compressed = raw_deflate(data, zdict=window, level=9)
        reader = BitReader(compressed)
        decoder = TwoStageStreamDecoder(window=None)
        while not decoder.read_and_decode_block(reader).final:
            pass
        fell_back = not decoder.in_marker_mode
        payload = decoder.finish()
        assert payload.materialize(window) == data
        assert fell_back

    def test_produced_counter(self):
        data = b"abc" * 1000
        compressed = raw_deflate(data)
        reader = BitReader(compressed)
        decoder = TwoStageStreamDecoder(window=None)
        while not decoder.read_and_decode_block(reader).final:
            pass
        assert decoder.produced == len(data)

    def test_max_size_guard(self):
        compressed = raw_deflate(b"y" * 200000)
        with pytest.raises(DeflateError):
            two_stage_decode_stream(compressed, max_size=1024)

    @pytest.mark.parametrize("window", [None, b""], ids=["marker", "known"])
    def test_max_size_trips_inside_a_single_block(self, window):
        # zlib packs ~8 MiB of zeros into one Deflate block, which cannot
        # be split: the limit must fire inside it, at most one match
        # (258 symbols) late, not after the whole block is in memory.
        compressor = zlib.compressobj(9, zlib.DEFLATED, -15, 9)
        compressed = compressor.compress(bytes(16 << 20)) + compressor.flush()
        limit = 1 << 20
        decoder = TwoStageStreamDecoder(window=window, max_size=limit)
        with pytest.raises(DeflateError):
            decoder.read_and_decode_block(BitReader(compressed))
        assert decoder.in_marker_mode == (window is None)
        assert limit < decoder.produced <= limit + 258

    def test_boundaries_recorded(self):
        rng = random.Random(3)
        data = bytes(rng.randrange(256) for _ in range(150000))
        compressed = raw_deflate(data, level=0)  # several stored blocks
        reader = BitReader(compressed)
        decoder = TwoStageStreamDecoder(window=None)
        while not decoder.read_and_decode_block(reader).final:
            pass
        decoder.finish()
        assert len(decoder.boundaries) >= 3
        assert decoder.boundaries[0].output_offset == 0
        offsets = [b.output_offset for b in decoder.boundaries]
        assert offsets == sorted(offsets)

    def test_flush_keeps_long_output_correct(self):
        # Output exceeding the internal flush threshold must still be exact.
        rng = random.Random(5)
        data = bytes(rng.randrange(256) for _ in range(600000))
        compressed = raw_deflate(data, level=1)
        payload = two_stage_decode_stream(compressed)
        assert payload.materialize(b"") == data
        assert payload.length == len(data)


@settings(max_examples=25, deadline=None)
@given(
    window_text=st.binary(min_size=1024, max_size=MAX_WINDOW_SIZE),
    body=st.binary(min_size=0, max_size=4096),
    level=st.integers(1, 9),
)
def test_two_stage_equals_direct_decode(window_text, body, level):
    """Property: markers + replacement == conventional decode with window."""
    data = window_text[: len(window_text) // 2] + body
    compressed = raw_deflate(data, level=level, zdict=window_text)
    payload = two_stage_decode_stream(compressed)
    assert payload.materialize(window_text) == data
    assert payload.window_at_end(window_text) == pad_window(window_text + data)

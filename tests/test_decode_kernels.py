"""Differential tests for the one Python Deflate decoder.

The bounds-checked loops of ``repro.deflate.block`` are the only Python
decoder: the fallback where libz cannot be loaded, the oracle of the libz
chunk engine and the Table 2 baseline row. They must agree byte for byte
with zlib and stdlib gzip wherever a complete stream is decoded — in
conventional decode, in two-stage (marker) decode including the exact
marker symbols, and in error behavior on truncated input.
"""

import gzip as stdlib_gzip
import io
import random
import zlib

import numpy as np
import pytest

from repro.datagen import generate_base64, generate_fastq, generate_silesia_like
from repro.deflate import TwoStageStreamDecoder, inflate, pad_window
from repro.errors import DeflateError, ReproError
from repro.fetcher.decode import open_chunk_stream
from repro.io import BitReader, ensure_file_reader

from .deflate_writer_util import (
    encode_fixed_block,
    encode_fixed_block_with_match,
)


def raw_deflate(data: bytes, level: int = 6, zdict: bytes = None) -> bytes:
    if zdict is None:
        compressor = zlib.compressobj(level, zlib.DEFLATED, -15)
    else:
        compressor = zlib.compressobj(level, zlib.DEFLATED, -15, zdict=zdict)
    return compressor.compress(data) + compressor.flush()


def two_stage_stream(compressed: bytes, start_bit: int = 0):
    """A windowless two-stage decode from ``start_bit`` to the stream end."""
    reader = BitReader(compressed)
    reader.seek(start_bit)
    stream = TwoStageStreamDecoder(window=None)
    while True:
        header = stream.read_and_decode_block(reader)
        if header.final:
            break
    return stream


def symbols(payload) -> np.ndarray:
    """A payload's symbol stream, ``bytes`` segments widened."""
    return np.concatenate([
        segment if isinstance(segment, np.ndarray)
        else np.frombuffer(segment, dtype=np.uint8).astype(np.uint16)
        for segment in payload.segments
    ] or [np.zeros(0, np.uint16)])


def make_corpora():
    rng = random.Random(99)
    return {
        "base64": generate_base64(300_000, seed=11),
        "fastq": generate_fastq(300_000, seed=12),
        "silesia": generate_silesia_like(300_000, seed=13),
        "random": bytes(rng.randrange(256) for _ in range(50_000)),
        "rle": b"a" * 30_000,  # single-symbol distance code
        "pairs": b"ab" * 20_000,
        "tiny": b"x",
        "empty": b"",
    }


CORPORA = make_corpora()


class TestConventionalDifferential:
    @pytest.mark.parametrize("name", sorted(CORPORA))
    @pytest.mark.parametrize("level", [1, 6, 9])
    def test_kernels_match_legacy_and_zlib(self, name, level):
        # The chunk engine's kernel (libz, or the Python decoder where
        # libz cannot be loaded) must see the blocks the Python loops see,
        # and both must reproduce zlib's input.
        data = CORPORA[name]
        compressed = raw_deflate(data, level)
        legacy = inflate(compressed)
        assert legacy.data == data  # zlib round-trip referee
        with open_chunk_stream(ensure_file_reader(compressed), 0, b"") as stream:
            while not stream.next_block():
                pass
            assert stream.finish().materialize(b"") == data
        assert [
            (b.bit_offset, b.output_offset, b.block_type, b.is_final)
            for b in stream.boundaries
        ] == [
            (b.bit_offset, b.output_offset, b.block_type, b.is_final)
            for b in legacy.boundaries
        ]
        # The engine stops on the final block's last bit; inflate() too.
        assert stream.position == legacy.end_bit_offset

    @pytest.mark.parametrize("level", [0, 6])
    def test_stored_blocks(self, level):
        data = CORPORA["silesia"]
        compressed = raw_deflate(data, level)
        assert inflate(compressed).data == data

    def test_fixed_block(self):
        compressed = encode_fixed_block(b"hello fixed world")
        assert inflate(compressed).data == b"hello fixed world"

    @pytest.mark.parametrize("distance", list(range(1, 9)))
    def test_overlapping_copy_distances(self, distance):
        # Overlapping matches (distance < length) at every small period.
        prefix = bytes(range(97, 97 + distance))
        compressed = encode_fixed_block_with_match(
            distance, length=29, prefix=prefix
        )
        expected = prefix + (prefix * (29 // distance + 1))[:29]
        assert inflate(compressed).data == expected

    def test_window_seeded_decode(self):
        window = bytes(range(256)) * 64
        data = window[1000:3000] + b"fresh tail data" * 50
        compressed = raw_deflate(data, 9, zdict=window)
        assert inflate(compressed, window=window).data == data

    def test_max_size_enforced(self):
        compressed = raw_deflate(b"y" * 100_000, 6)
        with pytest.raises(DeflateError):
            inflate(compressed, max_size=1000)

    @pytest.mark.parametrize("level", [1, 6])
    def test_random_small_inputs(self, level):
        rng = random.Random(4321)
        for _ in range(30):
            size = rng.randrange(0, 2000)
            data = bytes(rng.randrange(256) for _ in range(size))
            compressed = raw_deflate(data, level)
            assert inflate(compressed).data == data


class TestMarkerModeDifferential:
    @pytest.mark.parametrize("name", ["base64", "silesia", "rle", "pairs"])
    def test_symbol_streams_identical(self, name):
        # From a block boundary mid-stream the window is unknown: the
        # marker symbols, resolved against the true window, are zlib's
        # output, and the chunk engine's probe emits the same symbols.
        data = CORPORA[name]
        compressed = raw_deflate(data, 6)
        whole = inflate(compressed)
        later = [b for b in whole.boundaries if b.output_offset]
        start = later[len(later) // 2] if later else whole.boundaries[0]
        window = pad_window(data[: start.output_offset])
        python = two_stage_stream(compressed, start.bit_offset).finish()
        assert python.materialize(window) == data[start.output_offset :]
        with open_chunk_stream(
            ensure_file_reader(compressed), start.bit_offset, None
        ) as engine:
            while not engine.next_block():
                pass
            payload = engine.finish()
        assert np.array_equal(symbols(payload), symbols(python))

    def test_window_references_produce_markers(self):
        window = b"0123456789" * 4000
        data = window[:5000] + b"new data" * 100
        compressed = raw_deflate(data, 9, zdict=window[-32768:])
        payload = two_stage_stream(compressed).finish()
        assert payload.has_markers
        assert payload.materialize(window[-32768:]) == data

    @pytest.mark.parametrize("distance", [1, 2, 3, 5, 8])
    def test_overlapping_copies_into_marker_window(self, distance):
        # A match at the very start of a windowless chunk copies *marker*
        # symbols with a small period — the taint-tracking path.
        prefix = bytes(range(65, 65 + distance))
        compressed = encode_fixed_block_with_match(
            distance, length=17, prefix=prefix
        )
        window = bytes(range(200, 200 + 32)) * 1024
        expected = prefix + (prefix * (17 // distance + 1))[:17]
        assert two_stage_stream(compressed).finish().materialize(window) == expected


class TestTruncationParity:
    def test_truncated_tails_agree(self):
        # A cut stream is an error for zlib and for the Python decoder
        # alike — never silently short output.
        data = CORPORA["silesia"][:60_000]
        compressed = raw_deflate(data, 6)
        rng = random.Random(7)
        cuts = sorted(rng.randrange(1, len(compressed)) for _ in range(25))
        for cut in cuts:
            piece = compressed[:cut]
            with pytest.raises(zlib.error):
                zlib.decompress(piece, -15)
            with pytest.raises(ReproError):
                inflate(piece)

    def test_exact_eof_tail(self):
        # Streams ending in their last few bytes: the bit reader's refill
        # runs out exactly at the final block's last bit.
        for size in (1, 7, 64, 257, 4096):
            data = b"z" * size
            compressed = raw_deflate(data, 6)
            assert inflate(compressed).data == data


class TestDecoderSelection:
    """The decoder is resolved from what the host can load, never chosen."""

    @pytest.mark.parametrize("backend", ["threads"])
    def test_reader_ignores_repro_decoder_env(self, monkeypatch, backend):
        # The variable used to select (and validate) a kernel tier;
        # nothing reads it any more.
        from repro.deflate import libz
        from repro.reader import ParallelGzipReader

        monkeypatch.setenv("REPRO_DECODER", "turbo")
        data = generate_silesia_like(400_000, seed=21)
        blob = stdlib_gzip.compress(data, 6)
        with ParallelGzipReader(
            io.BytesIO(blob), parallelization=2, chunk_size=128 * 1024,
        ) as reader:
            assert reader.read() == data
            stats = reader.statistics()
        # Resolved from what this host can load, not from the environment.
        assert stats["decoder"] == ("probe" if libz.load() else "python")
        assert "kernel" not in stats
        assert stats["backend"] == backend

"""Differential tests for the fused Deflate decode kernels.

The fused kernels (``repro.deflate.kernels``) must be byte-for-byte
interchangeable with the bounds-checked reference loops (tier name
``legacy``) — and with zlib wherever a complete stream is decoded — in
every mode: conventional decode, two-stage (marker) decode including the
exact marker symbols, and error behavior on truncated input. Every
differential is parametrized over both tiers.
"""

import gzip as stdlib_gzip
import io
import random
import zlib

import pytest

from repro.datagen import generate_base64, generate_fastq, generate_silesia_like
from repro.deflate import TwoStageStreamDecoder, inflate, read_block_header
from repro.deflate.kernels import block_decoders
from repro.errors import DeflateError, ReproError, UsageError
from repro.huffman import (
    CONTROL_FLAG,
    EMIT_PAIR_OFFSET,
    FusedDecoder,
    fixed_distance_decoder,
    fixed_literal_decoder,
)
from repro.io import BitReader

from .deflate_writer_util import (
    encode_fixed_block,
    encode_fixed_block_with_match,
)

DECODERS = ("fused", "legacy")  # the kernels and their reference loops


def raw_deflate(data: bytes, level: int = 6, zdict: bytes = None) -> bytes:
    if zdict is None:
        compressor = zlib.compressobj(level, zlib.DEFLATED, -15)
    else:
        compressor = zlib.compressobj(level, zlib.DEFLATED, -15, zdict=zdict)
    return compressor.compress(data) + compressor.flush()


def two_stage_segments(compressed: bytes, decoder: str) -> list:
    """All payload segments from a full two-stage decode."""
    reader = BitReader(compressed)
    stream = TwoStageStreamDecoder(window=None, decoder=decoder)
    while True:
        header = stream.read_and_decode_block(reader)
        if header.final:
            break
    return stream.finish().segments


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
        data = CORPORA[name]
        compressed = raw_deflate(data, level)
        fused = inflate(compressed, decoder="fused")
        legacy = inflate(compressed, decoder="legacy")
        assert legacy.data == data  # zlib round-trip referee
        assert fused.data == legacy.data
        assert fused.end_bit_offset == legacy.end_bit_offset
        assert [
            (b.bit_offset, b.output_offset, b.block_type, b.is_final)
            for b in fused.boundaries
        ] == [
            (b.bit_offset, b.output_offset, b.block_type, b.is_final)
            for b in legacy.boundaries
        ]

    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize("level", [0, 6])
    def test_stored_blocks(self, decoder, level):
        # level 0 produces stored blocks; the fused entry points must route
        # them through the reference loop untouched.
        data = CORPORA["silesia"]
        compressed = raw_deflate(data, level)
        assert inflate(compressed, decoder=decoder).data == data

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_fixed_block(self, decoder):
        compressed = encode_fixed_block(b"hello fused world")
        assert inflate(compressed, decoder=decoder).data == b"hello fused world"

    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize("distance", list(range(1, 9)))
    def test_overlapping_copy_distances(self, decoder, distance):
        # Overlapping matches (distance < length) at every small period.
        prefix = bytes(range(97, 97 + distance))
        compressed = encode_fixed_block_with_match(
            distance, length=29, prefix=prefix
        )
        expected = prefix + (prefix * (29 // distance + 1))[:29]
        assert inflate(compressed, decoder=decoder).data == expected

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_window_seeded_decode(self, decoder):
        window = bytes(range(256)) * 64
        data = window[1000:3000] + b"fresh tail data" * 50
        compressed = raw_deflate(data, 9, zdict=window)
        assert inflate(compressed, window=window, decoder=decoder).data == data

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_max_size_enforced(self, decoder):
        compressed = raw_deflate(b"y" * 100_000, 6)
        with pytest.raises(DeflateError):
            inflate(compressed, max_size=1000, decoder=decoder)

    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize("level", [1, 6])
    def test_random_small_inputs(self, decoder, level):
        rng = random.Random(4321)
        for _ in range(30):
            size = rng.randrange(0, 2000)
            data = bytes(rng.randrange(256) for _ in range(size))
            compressed = raw_deflate(data, level)
            assert inflate(compressed, decoder=decoder).data == data


class TestMarkerModeDifferential:
    @pytest.mark.parametrize("decoder", ["fused"])  # vs the legacy tier
    @pytest.mark.parametrize("name", ["base64", "silesia", "rle", "pairs"])
    def test_symbol_streams_identical(self, decoder, name):
        compressed = raw_deflate(CORPORA[name], 6)
        fast = two_stage_segments(compressed, decoder)
        legacy = two_stage_segments(compressed, "legacy")
        assert len(fast) == len(legacy)
        for seg_f, seg_l in zip(fast, legacy):
            if isinstance(seg_f, bytes):
                assert seg_f == seg_l
            else:
                assert (seg_f == seg_l).all()

    def test_window_references_produce_markers(self):
        window = b"0123456789" * 4000
        data = window[:5000] + b"new data" * 100
        compressed = raw_deflate(data, 9, zdict=window[-32768:])
        reader_out = {}
        for dec in DECODERS:
            reader = BitReader(compressed)
            stream = TwoStageStreamDecoder(window=None, decoder=dec)
            while True:
                header = stream.read_and_decode_block(reader)
                if header.final:
                    break
            reader_out[dec] = stream.finish().materialize(window[-32768:])
        assert all(out == data for out in reader_out.values()), {
            dec: out == data for dec, out in reader_out.items()
        }

    @pytest.mark.parametrize("decoder", DECODERS)
    @pytest.mark.parametrize("distance", [1, 2, 3, 5, 8])
    def test_overlapping_copies_into_marker_window(self, decoder, distance):
        # A match at the very start of a windowless chunk copies *marker*
        # symbols with a small period — the taint-tracking path.
        prefix = bytes(range(65, 65 + distance))
        compressed = encode_fixed_block_with_match(
            distance, length=17, prefix=prefix
        )
        window = bytes(range(200, 200 + 32)) * 1024
        reader = BitReader(compressed)
        stream = TwoStageStreamDecoder(window=None, decoder=decoder)
        while True:
            if stream.read_and_decode_block(reader).final:
                break
        expected = prefix + (prefix * (17 // distance + 1))[:17]
        assert stream.finish().materialize(window) == expected


class TestTruncationParity:
    def test_truncated_tails_agree(self):
        data = CORPORA["silesia"][:60_000]
        compressed = raw_deflate(data, 6)
        rng = random.Random(7)
        cuts = sorted(rng.randrange(1, len(compressed)) for _ in range(25))
        for cut in cuts:
            piece = compressed[:cut]
            outcomes = {}
            for dec in DECODERS:
                try:
                    outcomes[dec] = ("ok", inflate(piece, decoder=dec).data)
                except ReproError as error:
                    outcomes[dec] = ("error", type(error).__name__)
            assert outcomes["fused"] == outcomes["legacy"], cut

    @pytest.mark.parametrize("decoder", DECODERS)
    def test_exact_eof_tail(self, decoder):
        # Streams ending within the fused kernels' 48-bit EOF refill zone
        # delegate to the reference tail loops — outputs must still be
        # complete and identical.
        for size in (1, 7, 64, 257, 4096):
            data = b"z" * size
            compressed = raw_deflate(data, 6)
            assert inflate(compressed, decoder=decoder).data == data


class TestFusedTables:
    def test_fixed_literal_entries(self):
        decoder = fixed_literal_decoder()
        fused = FusedDecoder(decoder, fixed_distance_decoder())
        found_single = found_pair = found_control = False
        for entry in fused.lit_table:
            if entry == 0:
                continue
            payload = entry >> 6
            if entry & CONTROL_FLAG:
                found_control = True
            elif payload >= EMIT_PAIR_OFFSET:
                found_pair = True
            else:
                found_single = True
        assert found_single and found_control
        # Fixed literal codes are 8-9 bits with width 13 (8 + 5): no two
        # literals fit, so no pair entries are expected here.
        assert not found_pair

    def test_pair_entries_emitted_for_short_codes(self):
        # base64 level-6 blocks have ~6-bit literal codes: pairs must
        # appear, and decode must still agree with zlib (covered above);
        # here just assert the table actually contains pair entries.
        compressed = raw_deflate(CORPORA["base64"], 6)
        reader = BitReader(compressed)
        header = read_block_header(reader)
        fused = FusedDecoder(header.literal_decoder, header.distance_decoder)
        assert any(
            not entry & CONTROL_FLAG and (entry >> 6) >= EMIT_PAIR_OFFSET
            for entry in fused.lit_table
            if entry
        )

    def test_distance_table_cached_on_decoder(self):
        decoder = fixed_distance_decoder()
        fused = FusedDecoder(fixed_literal_decoder(), decoder)
        table1 = fused.distance_table()
        table2 = fused.distance_table()
        assert table1 is table2 is decoder.fused_distance


class TestDecoderSelection:
    """The tier is chosen only at the ``repro.deflate`` driver level."""

    def test_block_decoders_pairs(self):
        from repro.deflate.block import (
            decode_block_into_bytearray,
            decode_block_two_stage,
        )
        from repro.deflate.kernels import (
            decode_block_into_bytearray_fused,
            decode_block_two_stage_fused,
        )

        assert block_decoders() == block_decoders("fused") == (
            decode_block_into_bytearray_fused,
            decode_block_two_stage_fused,
        )
        assert block_decoders("legacy") == (
            decode_block_into_bytearray,
            decode_block_two_stage,
        )
        with pytest.raises(UsageError):
            block_decoders("turbo")

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
        assert stats["decoder"] == ("probe" if libz.load() else "fused")
        assert "kernel" not in stats
        assert stats["backend"] == backend

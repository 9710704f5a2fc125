"""Three-way differential for the libz first stage: ``repro.deflate.libz``
(what ``decode_chunk_range`` runs where libz loads) vs the Python
``TwoStageStreamDecoder`` path (loader patched to fail) vs stdlib ``zlib``,
plus error-contract parity and a leak check."""

import contextlib
import gzip
import random
import zlib

import numpy as np
import pytest

from .deflate_writer_util import BitWriter, write_fixed_literal
from repro.blockfinder import canonical_nc_offset
from repro.datagen import generate_base64, generate_fastq, generate_silesia_like
from repro.deflate import MARKER_FLAG, MAX_WINDOW_SIZE, FilterStage, inflate, libz
from repro.deflate.constants import distance_to_symbol, length_to_symbol
from repro.errors import DeflateError, FormatError, TruncatedError
from repro.fetcher.decode import decode_chunk_range, speculative_decode
from repro.io import ensure_file_reader
from repro.reader import ParallelGzipReader
from repro.telemetry import Telemetry

pytestmark = pytest.mark.skipif(
    libz.load() is None, reason="libz cannot be loaded on this host"
)

GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff"
WORDS = [b"window", b"marker", b"chunk", b"deflate", b"probe", b"block",
         b"prefetch", b"cache", b"gzip", b"seek", b"index", b"offset"]


def prose(rng, size: int) -> bytes:
    out = bytearray()
    while len(out) < size:
        out += rng.choice(WORDS) + rng.choice([b" ", b", ", b".\n"])
    return bytes(out[:size])


def without_libz(monkeypatch, function, *args, **kwargs):
    """Run ``function`` on the no-libz leg (the loader reports failure)."""
    with monkeypatch.context() as patch:
        patch.setattr(libz, "load", lambda: None)
        return function(*args, **kwargs)


def flatten(payload) -> np.ndarray:
    """The chunk's symbol stream, ``bytes`` segments widened."""
    pieces = [
        segment if isinstance(segment, np.ndarray)
        else np.frombuffer(segment, dtype=np.uint8).astype(np.uint16)
        for segment in payload.segments
    ]
    return np.concatenate(pieces) if pieces else np.zeros(0, np.uint16)


def shape(payload) -> list:
    """``[(is_symbols, count), ...]`` with neighbours of a kind merged."""
    runs = []
    for segment in payload.segments:
        kind = isinstance(segment, np.ndarray)
        if runs and runs[-1][0] == kind:
            runs[-1][1] += len(segment)
        else:
            runs.append([kind, len(segment)])
    return runs


def assert_same_result(ours, oracle):
    assert np.array_equal(flatten(ours.payload), flatten(oracle.payload))
    assert shape(ours.payload) == shape(oracle.payload)
    for name in ("start_bit", "end_bit", "end_is_stream_start", "boundaries",
                 "events", "compressed_size_bits", "split", "window_known"):
        assert getattr(ours, name) == getattr(oracle, name), name


def decode_both(monkeypatch, blob, *args, **kwargs):
    ours = decode_chunk_range(ensure_file_reader(blob), *args, **kwargs)
    oracle = without_libz(
        monkeypatch, decode_chunk_range, ensure_file_reader(blob),
        *args, **kwargs,
    )
    assert_same_result(ours, oracle)
    return ours


def raises_both(monkeypatch, error, blob, *args, **kwargs):
    """Both legs raise ``error``; returns the two exceptions."""
    with pytest.raises(error) as ours:
        decode_chunk_range(ensure_file_reader(blob), *args, **kwargs)
    with pytest.raises(error) as oracle:
        without_libz(
            monkeypatch, decode_chunk_range, ensure_file_reader(blob),
            *args, **kwargs,
        )
    return ours.value, oracle.value


def gzip_member(raw: bytes, data: bytes) -> bytes:
    return (
        GZIP_HEADER + raw + zlib.crc32(data).to_bytes(4, "little")
        + (len(data) & 0xFFFFFFFF).to_bytes(4, "little")
    )


def test_this_host_runs_the_libz_path(monkeypatch):
    built = []

    class Spy(libz.ChunkStream):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(libz, "ChunkStream", Spy)
    blob = gzip.compress(b"x" * 100)
    assert decode_chunk_range(ensure_file_reader(blob), 80, None, b"").length == 100
    assert len(built) == 1


# -- the probe: two dictionaries spell out a window offset -------------------


def test_probe_dictionary_algebra():
    low, mix = (np.frombuffer(d, dtype=np.uint8) for d in libz._probe_dictionaries())
    offsets = np.arange(MAX_WINDOW_SIZE)
    difference = low ^ mix
    assert len(low) == len(mix) == MAX_WINDOW_SIZE
    assert (difference & 0x80).all()  # a window byte always differs: the taint
    # (LOW, LOW ^ MIX) round-trips to the offset, and to the marker symbol.
    assert np.array_equal(low | (difference & 0x7F).astype(np.int64) << 8, offsets)
    assert np.array_equal(
        low | difference.astype(np.uint16) << 8, MARKER_FLAG | offsets)


def test_marker_mode_is_two_streams_until_the_hand_off():
    blob = gzip.compress(generate_base64(400_000, seed=4), 6)
    second = inflate(blob[10:-8]).boundaries[1]
    stream = libz.ChunkStream(
        libz.load(), ensure_file_reader(blob), 80 + second.bit_offset, None, None)
    with contextlib.closing(stream):
        assert len(stream._streams) == len(stream._outs) == 2
        while len(stream._streams) == 2:
            assert not stream.next_block()
        assert len(stream._streams) == 1  # §4.4: the probe is closed
        known = libz.ChunkStream(
            libz.load(), ensure_file_reader(blob), 80, None, b"")
        with contextlib.closing(known):
            assert len(known._streams) == 1


def test_diverging_passes_are_a_format_error(monkeypatch):
    blob = gzip.compress(generate_silesia_like(100_000, seed=4), 6)
    real = libz.ChunkStream._inflate

    def short_probe(self, stream, out, room, *flush):
        return real(self, stream, out, room - (stream is not self._streams[0]),
                    *flush)

    monkeypatch.setattr(libz.ChunkStream, "_inflate", short_probe)
    assert decode_chunk_range(ensure_file_reader(blob), 80, None, b"").length
    with pytest.raises(DeflateError, match="diverged"):
        decode_chunk_range(ensure_file_reader(blob), 80, None, None)


# -- crafted streams: every start alignment x first block type ----------------


def write_stored(writer, data: bytes, final: bool = False) -> None:
    writer.write(int(final), 1)
    writer.write(0b00, 2)
    writer.write(0, -writer.bit_count % 8)
    writer.write(len(data), 16)
    writer.write(~len(data) & 0xFFFF, 16)
    for byte in data:
        writer.write(byte, 8)


def write_fixed(writer, literals: bytes, match=None, final: bool = False) -> None:
    writer.write(int(final), 1)
    writer.write(0b01, 2)
    for byte in literals:
        write_fixed_literal(writer, byte)
    if match is not None:
        distance, length = match
        symbol, extra_bits, extra = length_to_symbol(length)
        write_fixed_literal(writer, symbol)
        writer.write(extra, extra_bits)
        symbol, extra_bits, extra = distance_to_symbol(distance)
        writer.write_reversed(symbol, 5)
        writer.write(extra, extra_bits)
    write_fixed_literal(writer, 256)


def write_dynamic(writer, history: bytes, text: bytes, final: bool = False):
    """One zlib-made Dynamic block (matches reach into ``history``), moved
    bit by bit to wherever the writer stands."""
    window = history[-MAX_WINDOW_SIZE:]
    compressor = zlib.compressobj(9, zlib.DEFLATED, -15, zdict=window)
    raw = compressor.compress(text) + compressor.flush()
    parsed = inflate(raw, window=window)
    assert [b.block_type for b in parsed.boundaries] == [2]
    bits = parsed.end_bit_offset
    value = int.from_bytes(raw, "little") & ((1 << bits) - 1)
    writer.write(value | 1 if final else value & ~1, bits)


def crafted_stream(kind: str, shift: int, history_size: int):
    """``(blob, start_bit, window, expected)``: a gzip member whose chunk
    of interest starts at ``start_bit`` (``start_bit % 8 == shift``) with a
    block of ``kind``, preceded by ``history_size`` bytes of history."""
    rng = random.Random(f"{kind}-{shift}-{history_size}")
    history = prose(rng, history_size)
    stored = b"".join(
        b"\x00" + len(piece).to_bytes(2, "little")
        + (~len(piece) & 0xFFFF).to_bytes(2, "little") + piece
        for piece in (history[i : i + 60_000]
                      for i in range(0, len(history), 60_000))
    )
    # A Fixed block of n nine-bit literals ends at bit (3 + 9n + 7) % 8.
    aligner = bytes(200 + i for i in range((shift - 2) % 8 + 8))
    lead = BitWriter()
    write_fixed(lead, aligner)
    lead_bytes = stored + lead.getvalue()
    lead_bits = len(stored) * 8 + lead.bit_count
    assert lead_bits % 8 == shift
    seen = history + aligner

    writer = BitWriter()
    writer.write(lead_bytes[-1] if shift else 0, shift)
    pieces = []
    first = prose(rng, 3000)
    if kind == "stored":
        write_stored(writer, first)
    elif kind == "fixed":
        first = first[:40] + (seen + first[:40])[-300:-290]
        write_fixed(writer, first[:40], match=(300, 10))
    else:
        first = seen[-2000:-1200] + first
        write_dynamic(writer, seen, first)
    pieces.append(first)
    far = min(len(seen), 30_000)
    reach = (seen + first + b"fixed:")[-far : -far + 7]
    write_fixed(writer, b"fixed:", match=(far, 7))
    pieces.append(b"fixed:" + reach)
    for final in (False, False, True):
        text = prose(rng, 5000) + b"".join(pieces)[-700:]
        if final:
            write_stored(writer, b"stored tail")
            pieces.append(b"stored tail")
        write_dynamic(writer, seen + b"".join(pieces), text, final=final)
        pieces.append(text)
    expected = b"".join(pieces)
    raw = lead_bytes[: lead_bits // 8] + writer.getvalue()
    assert zlib.decompressobj(-15).decompress(raw) == seen + expected
    blob = gzip_member(raw, seen + expected)
    return blob, len(GZIP_HEADER) * 8 + lead_bits, seen[-MAX_WINDOW_SIZE:], expected


@pytest.mark.parametrize("mode", ["markers", "window", "short-window"])
@pytest.mark.parametrize("kind", ["stored", "fixed", "dynamic"])
@pytest.mark.parametrize("shift", range(8))
def test_three_way_differential(monkeypatch, shift, kind, mode):
    history_size = 1500 if mode == "short-window" else 40_000
    blob, start_bit, window, expected = crafted_stream(kind, shift, history_size)
    assert start_bit % 8 == shift
    assert (len(window) < MAX_WINDOW_SIZE) == (mode == "short-window")
    given = None if mode == "markers" else window

    whole = decode_both(monkeypatch, blob, start_bit, None, given)
    assert whole.payload.materialize(window) == expected
    assert whole.end_bit is None
    assert [event.kind for event in whole.events] == ["footer"]
    assert whole.payload.has_markers == (mode == "markers")

    # The stop predicate: first non-final Dynamic/Stored header past it.
    part = decode_both(monkeypatch, blob, start_bit, start_bit + 1, given)
    assert part.end_bit is not None and not part.events
    assert part.payload.materialize(window) == expected[: part.length]
    assert 0 < part.length < len(expected)


def test_all_stored_corpus_at_unaligned_offsets(monkeypatch):
    # Chunk keys of an all-stored stream sit inside the previous block's
    # zero padding (bit 5 of a byte). libz is primed with those bits — no
    # byte shift, so PR 8's LEN/NLEN hazard has nothing to act on.
    data = random.Random(8).randbytes(300_000)
    blob = gzip.compress(data, 0)
    blocks = inflate(blob[10:-8]).boundaries
    assert len(blocks) > 3 and all(b.block_type == 0 for b in blocks)
    for block in blocks[1:-1]:  # the final block is never a chunk start
        start_bit = canonical_nc_offset(80 + block.bit_offset)
        assert start_bit % 8 == 5
        window = data[: block.output_offset][-MAX_WINDOW_SIZE:]
        for given in (None, window):
            result = decode_both(monkeypatch, blob, start_bit, None, given)
            assert result.payload.materialize(window) == \
                data[block.output_offset :]


def test_empty_stored_and_zero_length_final_blocks(monkeypatch):
    compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
    data = prose(random.Random(3), 20_000)
    raw = compressor.compress(data[:9000])
    raw += compressor.flush(zlib.Z_SYNC_FLUSH)  # empty stored block
    raw += compressor.flush(zlib.Z_FULL_FLUSH)  # and another
    raw += compressor.compress(data[9000:]) + compressor.flush(zlib.Z_SYNC_FLUSH)
    raw += compressor.flush()  # zero-length final block
    blob = gzip_member(raw, data)
    result = decode_both(monkeypatch, blob, 80, None, b"")
    assert result.payload.materialize() == data
    assert [b.block_type for b in result.boundaries].count(0) == 3
    assert result.boundaries[-1].is_final
    assert result.boundaries[-1].output_offset == len(data)
    # From the first empty stored block, with and without the window.
    empty = next(b for b in result.boundaries if b.block_type == 0)
    for given in (None, data[: empty.output_offset]):
        tail = decode_both(monkeypatch, blob, empty.bit_offset, None, given)
        assert tail.payload.materialize(data[: empty.output_offset]) == \
            data[empty.output_offset :]


# -- member boundaries, padding, garbage --------------------------------------


def test_member_boundary_inside_a_chunk(monkeypatch):
    rng = random.Random(5)
    first, second = prose(rng, 50_000), generate_silesia_like(300_000, seed=5)
    blob = gzip.compress(first, 6) + gzip.compress(second, 6)
    whole = decode_both(monkeypatch, blob, 80, None, b"")
    assert whole.payload.materialize() == first + second
    assert [(e.kind, e.local_offset) for e in whole.events] == [
        ("footer", len(first)), ("header", len(first)),
        ("footer", len(first) + len(second)),
    ]
    # Marker mode: the second member starts from an empty window, so the
    # whole tail past a window's length is resolved bytes (hand-off).
    blocks = whole.boundaries
    middle = next(b for b in blocks if b.output_offset > 20_000)
    window = first[: middle.output_offset][-MAX_WINDOW_SIZE:]
    tail = decode_both(monkeypatch, blob, middle.bit_offset, None, None)
    assert tail.payload.materialize(window) == \
        (first + second)[middle.output_offset :]
    assert shape(tail.payload)[-1][0] is False


def test_distance_before_the_second_member_is_a_format_error():
    first = gzip.compress(b"first member " * 50)
    writer = BitWriter()
    write_fixed(writer, b"abc", match=(10, 5), final=True)  # 3 bytes known
    blob = first + gzip_member(writer.getvalue(), b"")
    for window in (b"", None):
        with pytest.raises(DeflateError, match="too far back"):
            decode_chunk_range(ensure_file_reader(blob), 80, None, window)


def test_bgzip_zero_padding_and_trailing_garbage(monkeypatch):
    data = prose(random.Random(6), 30_000)
    blob = gzip.compress(data)
    padded = decode_both(monkeypatch, blob + bytes(512), 80, None, b"")
    assert padded.payload.materialize() == data
    assert padded.end_bit is None
    raises_both(monkeypatch, FormatError, blob + b"not a gzip member", 80,
                None, b"")


# -- error-contract parity ------------------------------------------------------


def test_truncation_at_every_byte(monkeypatch):
    data = prose(random.Random(7), 1200) + random.Random(7).randbytes(100)
    compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
    raw = compressor.compress(data[:600]) + compressor.flush(zlib.Z_FULL_FLUSH)
    raw += compressor.compress(data[600:]) + compressor.flush()
    blob = gzip_member(raw, data)
    assert decode_both(monkeypatch, blob, 80, None, b"").length == len(data)
    for cut in range(10, len(blob)):
        for window in (b"", None):
            ours, oracle = raises_both(
                monkeypatch, FormatError, blob[:cut], 80, None, window
            )
            assert type(ours) is TruncatedError, cut
            # The Python parser reports a cut inside a Dynamic header's
            # code-length run under the finder's Table 1 stage name.
            assert type(oracle) is TruncatedError or \
                oracle.stage == FilterStage.PRECODE_DATA, cut


@pytest.mark.parametrize("window", [b"", None], ids=["known", "marker"])
def test_max_output_is_exact(monkeypatch, window):
    data = prose(random.Random(9), 200_000)
    blob = gzip.compress(data, 6)
    assert decode_both(
        monkeypatch, blob, 80, None, window, max_output=len(data)
    ).length == len(data)
    for limit in (len(data) - 1, 70_000, 1):
        raises_both(monkeypatch, DeflateError, blob, 80, None, window,
                    max_output=limit)


def test_max_output_inside_one_huge_block():
    # 64 MiB of zeros is a handful of blocks; avail_out stops libz one
    # byte past the limit, so nothing near 64 MiB is ever produced.
    compressor = zlib.compressobj(9, zlib.DEFLATED, 31, 9)
    chunk = bytes(1 << 20)
    blob = b"".join(compressor.compress(chunk) for _ in range(64))
    blob += compressor.flush()
    stream = libz.ChunkStream(
        libz.load(), ensure_file_reader(blob), 80, None, None, 1 << 20
    )
    with contextlib.closing(stream), pytest.raises(DeflateError, match="maximum"):
        while not stream.next_block():
            pass
    assert stream.produced == (1 << 20) + 1


def test_split_output_splits_at_the_same_boundary(monkeypatch):
    data = generate_base64(600_000, seed=4)
    blob = gzip.compress(data, 6)
    for window in (b"", None):
        result = decode_both(
            monkeypatch, blob, 80, None, window, split_output=100_000
        )
        assert result.split and result.end_bit is not None
        assert 100_000 <= result.length < 200_000
        assert result.payload.materialize() == data[: result.length]


def test_garbage_candidates_are_format_errors(monkeypatch):
    rng = random.Random(10)
    noise = rng.randbytes(8192)
    for _ in range(200):
        start_bit = rng.randrange(len(noise) * 8 - 64)
        window = rng.choice([None, b"", noise[:1000]])
        raises_both(monkeypatch, FormatError, noise, start_bit, None, window)


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * 4096


def test_rejected_candidates_do_not_leak():
    # A candidate that decodes a block and then dies leaves two open
    # z_streams (~40 KiB of C memory each) behind unless they are closed.
    blob = bytearray(gzip.compress(generate_silesia_like(200_000, seed=5), 6))
    second, third = inflate(bytes(blob[10:-8])).boundaries[1:3]
    start = 80 + second.bit_offset
    header = (80 + third.bit_offset) // 8
    blob[header : header + 8] = b"\xff" * 8  # reserved block type 11
    reader = ensure_file_reader(bytes(blob))

    def reject(times: int) -> None:
        for _ in range(times):
            with pytest.raises(FormatError):
                decode_chunk_range(reader, start, None, None)

    reject(200)
    before = current_rss_bytes()
    reject(2000)
    assert abs(current_rss_bytes() - before) <= 2 << 20


# -- the §4.4 hand-off, on both paths -------------------------------------------


def bytes_share(payload) -> float:
    resolved = sum(len(s) for s in payload.segments if isinstance(s, bytes))
    return resolved / payload.length


@pytest.mark.parametrize("leg", ["libz", "python"])
def test_hand_off_happens_on_base64_and_not_on_fastq(monkeypatch, leg):
    if leg == "python":
        monkeypatch.setattr(libz, "load", lambda: None)
    chunk_size = 256 * 1024
    for generate, expect_hand_off in ((generate_base64, True),
                                      (generate_fastq, False)):
        blob = gzip.compress(generate(1_500_000, seed=2), 6)
        result = speculative_decode(ensure_file_reader(blob), 1, chunk_size)
        assert result.length > 300_000
        if expect_hand_off:
            assert bytes_share(result.payload) >= 0.70
            assert shape(result.payload)[0][0] is True  # markers come first
        else:
            assert bytes_share(result.payload) == 0.0


def test_speculative_chunks_match_the_python_decoder(monkeypatch):
    for generate in (generate_base64, generate_silesia_like, generate_fastq):
        blob = gzip.compress(generate(1_200_000, seed=3), 6)
        for chunk in range(1, len(blob) // (128 * 1024)):
            ours = speculative_decode(
                ensure_file_reader(blob), chunk, 128 * 1024)
            oracle = without_libz(
                monkeypatch, speculative_decode,
                ensure_file_reader(blob), chunk, 128 * 1024,
            )
            assert_same_result(ours, oracle)


# -- the reader: no knob, resolved per host -------------------------------------


def corpora() -> dict:
    rng = random.Random(12)
    texts = {
        "base64": generate_base64(400_000, seed=6),
        "fastq": generate_fastq(400_000, seed=6),
        "silesia": generate_silesia_like(400_000, seed=6),
        "zeros": bytes(2_000_000),
    }
    blobs = {name: (gzip.compress(data, 6), data) for name, data in texts.items()}
    noise = rng.randbytes(300_000)
    blobs["stored"] = (gzip.compress(noise, 0), noise)
    parts = [prose(rng, 150_000) for _ in range(3)]
    blobs["multi-member"] = (
        b"".join(gzip.compress(part, 6) for part in parts), b"".join(parts)
    )
    return blobs


CORPORA = corpora()


def speculative_counts(blob: bytes, chunk_size: int) -> tuple:
    """Candidates tested, candidates rejected and chunks decoded with
    markers when every grid cell past the first is speculated on once.
    A full read's counts depend on which queued tasks a worker could bind
    to a known start; these do not."""
    telemetry = Telemetry()
    marked = 0
    for chunk in range(1, -(-len(blob) // chunk_size)):
        result = speculative_decode(
            ensure_file_reader(blob), chunk, chunk_size, telemetry=telemetry
        )
        marked += result is not None and result.payload.has_markers
    metrics = telemetry.metrics.as_dict()
    # libz names the reject stages differently; it rejects the same ones.
    rejected = sum(
        count for name, count in metrics.items()
        if name.startswith("blockfinder.reject.")
    )
    return metrics.get("blockfinder.candidates_tested"), rejected, marked


@pytest.mark.parametrize("backend", ["threads"])  # with the loader off too
@pytest.mark.parametrize("name", sorted(CORPORA))
def test_reader_without_libz_is_byte_identical(monkeypatch, name, backend):
    blob, data = CORPORA[name]
    chunk_size = 32 * 1024
    options = dict(parallelization=2, chunk_size=chunk_size)
    with ParallelGzipReader(blob, **options) as reader:
        assert reader.read() == data
        stats = reader.statistics()
    assert stats["decoder"] == "probe"
    assert "decode.libz_unavailable" not in stats["metrics"]
    counts = speculative_counts(blob, chunk_size)

    calls = []
    monkeypatch.setattr(libz, "load", lambda: calls.append(1))
    with ParallelGzipReader(blob, **options) as reader:
        assert reader.read() == data
        fallback = reader.statistics()
    assert calls  # the loader was asked, and its answer respected
    assert fallback["decoder"] == "python"
    # The GIL-bound kernel gets no second backend: P=2 buys nothing there.
    assert fallback["mode"] == stats["mode"] == "search"
    assert fallback["backend"] == stats["backend"] == backend
    assert fallback["metrics"]["decode.libz_unavailable"] == 1
    assert speculative_counts(blob, chunk_size) == counts


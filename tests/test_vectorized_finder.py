"""Equivalence tests: vectorized finder == scalar production finder.

The vectorized finder is a pure optimization; on every input it must
return exactly the candidate sequence of the scalar skip-LUT finder. The
window loop under it is one too: ramped, clipped and resumed scans must
serve what one pass of the pure filters over the whole input serves, and
may read little more than the bytes they serve from.
"""

import bisect
import random
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blockfinder import (
    CombinedBlockFinder,
    DynamicBlockFinder,
    UncompressedBlockFinder,
    VectorizedDynamicBlockFinder,
    scan_dynamic_candidates,
    scan_nc_candidates,
)
from repro.blockfinder.vectorized import _tables
from repro.blockfinder.window import (
    _FIRST_WINDOW,
    _MAX_HEADER,
    _READ_AHEAD,
    _WINDOW_CAP,
    PROBE_BITS,
)
from repro.deflate import libz
from repro.deflate.block import FilterStage, read_block_header
from repro.deflate.compress import CompressorOptions, compress
from repro.deflate import inflate
from repro.errors import FormatError
from repro.huffman import CodeClassification
from repro.huffman.precode import classify_packed_histogram, packed_histogram
from repro.io import BitReader, MemoryFileReader


def scalar_candidates(data: bytes, until=None):
    return list(DynamicBlockFinder(data).iter_candidates(0, until=until))


def vector_candidates(data: bytes, until=None):
    return list(VectorizedDynamicBlockFinder(data).iter_candidates(0, until=until))


class TestEquivalence:
    def test_on_compressed_ascii_stream(self):
        rng = random.Random(1)
        data = bytes(rng.randrange(33, 127) for _ in range(20_000))
        compressed = compress(data, CompressorOptions(level=6, block_size=3000))
        assert vector_candidates(compressed) == scalar_candidates(compressed)

    def test_on_zlib_stream(self):
        rng = random.Random(2)
        data = bytes(rng.randrange(33, 127) for _ in range(60_000))
        compressed = zlib.compress(data, 6)[2:-4]
        assert vector_candidates(compressed) == scalar_candidates(compressed)

    @pytest.mark.parametrize("seed", range(6))
    def test_on_random_noise(self, seed):
        noise = np.random.default_rng(seed).integers(
            0, 256, size=50_000, dtype=np.uint8
        ).tobytes()
        assert vector_candidates(noise) == scalar_candidates(noise)

    def test_until_limit_respected(self):
        rng = random.Random(3)
        data = bytes(rng.randrange(33, 127) for _ in range(20_000))
        compressed = compress(data, CompressorOptions(level=6, block_size=2000))
        full = scalar_candidates(compressed)
        assert len(full) >= 2
        cutoff = full[1]
        assert vector_candidates(compressed, until=cutoff) == full[:1]
        assert vector_candidates(compressed, until=cutoff + 1) == full[:2]

    def test_find_from_offset(self):
        rng = random.Random(4)
        data = bytes(rng.randrange(33, 127) for _ in range(20_000))
        compressed = compress(data, CompressorOptions(level=6, block_size=2000))
        truth = scalar_candidates(compressed)
        finder = VectorizedDynamicBlockFinder(compressed)
        for offset in truth:
            assert finder.find_next(offset) == offset
            nxt = finder.find_next(offset + 1)
            scalar_next = DynamicBlockFinder(compressed).find_next(offset + 1)
            assert nxt == scalar_next

    def test_tiny_inputs(self):
        for size in (0, 1, 5, 9, 20):
            data = bytes(size)
            assert vector_candidates(data) == scalar_candidates(data)

    def test_finds_real_blocks_in_multiblock_stream(self):
        rng = random.Random(5)
        data = bytes(rng.randrange(33, 127) for _ in range(8 * 4096))
        compressed = compress(data, CompressorOptions(level=6, block_size=4096))
        truth = [
            b.bit_offset
            for b in inflate(compressed).boundaries
            if b.block_type == 2 and not b.is_final
        ]
        found = vector_candidates(compressed)
        for offset in truth:
            assert offset in found


class TestScanStage:
    def test_scan_respects_bounds(self):
        data = bytes(100)
        result = scan_dynamic_candidates(data, 0, 800)
        assert (result >= 0).all()
        assert (result < 800).all()

    def test_scan_empty_input(self):
        assert scan_dynamic_candidates(b"", 0, 100).size == 0
        assert scan_dynamic_candidates(bytes(5), 0, 40).size == 0

    def test_scan_start_offset(self):
        rng = np.random.default_rng(9)
        noise = rng.integers(0, 256, size=4096, dtype=np.uint8).tobytes()
        full = scan_dynamic_candidates(noise, 0, 4096 * 8)
        if full.size >= 2:
            later = scan_dynamic_candidates(noise, int(full[0]) + 1, 4096 * 8)
            assert later[0] == full[1]


# -- the prefilter itself: stages 1-5 against the packed-histogram walk -------

def precode_passes(triplets: int, count: int) -> bool:
    """Stages 4-5 the §3.4.2 way: packed histogram, Fig. 6 walk, and the
    degenerate precode of one symbol of length 1."""
    packed = packed_histogram(triplets, count)
    return (
        classify_packed_histogram(packed) is CodeClassification.VALID
        or packed >> 5 == 1
    )


def reference_survivors(data: bytes, start_bit: int, until_bit: int) -> list:
    """Scalar stages 1-5, one bit position at a time."""
    found = []
    for position in range(start_bit, min(until_bit, len(data) * 8 - PROBE_BITS)):
        byte = position >> 3
        header = int.from_bytes(data[byte : byte + 11], "little") >> (position & 7)
        if header & 0b111 != 0b100 or (header >> 3) & 31 >= 30:
            continue
        if precode_passes(header >> 17, (header >> 13 & 15) + 4):
            found.append(position)
    return found


def header_at(alignment: int, hclen: int, lengths, hlit: int = 0) -> bytes:
    """Zero bits up to ``alignment``, then a non-final Dynamic header whose
    19 triplet slots hold ``lengths``, then the read-ahead padding."""
    value = 0b100 | hlit << 3 | hclen << 13
    for index, length in enumerate(lengths):
        value |= length << (17 + 3 * index)
    return (value << alignment).to_bytes(PROBE_BITS // 8 + 2, "little") + bytes(
        _READ_AHEAD
    )


def kept(alignment: int, hclen: int, lengths) -> bool:
    data = header_at(alignment, hclen, lengths)
    return scan_dynamic_candidates(data, alignment, alignment + 1).tolist() == [
        alignment
    ]


def prefilter_corpus(name: str) -> bytes:
    """12 KiB of noise, or of a raw Deflate stream of the named generator."""
    from repro import datagen

    if name == "noise":
        return noise_bytes(12 * 1024, seed=41)
    text = getattr(datagen, f"generate_{name}")(120_000, seed=41)
    return zlib.compress(text, 6)[2:-4][: 12 * 1024]


class TestPrefilter:
    """Survivors, not only accepted candidates: a prefilter that let too
    much through would pass every test above and only cost time."""

    @pytest.mark.parametrize("corpus", ["noise", "base64", "silesia_like", "fastq"])
    def test_equals_the_scalar_reference(self, corpus):
        data = prefilter_corpus(corpus)
        assert len(data) == 12 * 1024
        reference = reference_survivors(data, 0, len(data) * 8)
        assert len(reference) > 20
        total = len(data) * 8
        for start in (*range(9), 4099, 8 * 5000 + 5):
            for until in (total, total - PROBE_BITS - 3, 8 * 9000 + 3, start + 1):
                found = scan_dynamic_candidates(data, start, until)
                assert found.dtype == np.int64
                assert found.tolist() == [
                    offset for offset in reference if start <= offset < until
                ], (start, until)

    @pytest.mark.parametrize(
        "lengths, expected",
        [
            ([1, 1], True),  # complete
            ([2, 2, 2, 2], True),
            ([1, 2, 3, 4, 5, 6, 7, 7], True),
            ([1, 1, 1], False),  # over-subscribed at level 1
            ([1, 2, 2, 7], False),  # ... and once the tree is already full
            ([1, 2], False),  # incomplete
            ([], False),  # empty
            ([1], True),  # the degenerate one-symbol precode
            ([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], True),
            ([2], False),  # Kraft sum 32
            ([2, 2], False),  # Kraft sum 64, like a lone length 1 — but two
            ([2, 3, 3], False),
            ([1] * 19, False),  # the largest sum the tables can be asked for
            ([7] * 19, False),
        ],
    )
    def test_crafted_precodes(self, lengths, expected):
        lengths = lengths + [0] * (19 - len(lengths))
        assert precode_passes(
            sum(length << 3 * index for index, length in enumerate(lengths)), 19
        ) == expected
        for alignment in range(8):
            assert kept(alignment, 15, lengths) == expected, alignment

    def test_triplets_past_hclen_are_ignored(self):
        for alignment in range(8):
            for hclen in range(16):
                used = hclen + 4
                garbage = [7, 1, 3] * 5
                assert kept(alignment, hclen, [1, 1] + [0] * (used - 2) + garbage[: 19 - used])
                assert not kept(alignment, hclen, [1, 2] + [0] * (used - 2) + [2] * (19 - used))

    def test_stages_one_to_three(self):
        complete = [1, 1] + [0] * 17
        for alignment in range(8):
            for hlit in range(32):
                data = header_at(alignment, 15, complete, hlit=hlit)
                found = scan_dynamic_candidates(data, 0, alignment + 1).tolist()
                assert found == ([alignment] if hlit < 30 else []), (alignment, hlit)
            good = header_at(alignment, 15, complete)
            for flip in range(3):  # final bit set, stored/fixed, reserved type
                value = int.from_bytes(good, "little") ^ 1 << (alignment + flip)
                data = value.to_bytes(len(good), "little")
                assert alignment not in scan_dynamic_candidates(data, 0, 64).tolist()

    def test_tables_against_the_packed_histogram(self):
        header_mask, kraft, transmitted = _tables()
        assert header_mask.dtype == np.uint8 and kraft.dtype == np.uint16
        for word in range(0, 1 << 16, 7):
            expected = sum(
                1 << shift
                for shift in range(8)
                if (word >> shift) & 7 == 0b100 and (word >> shift + 3) & 31 < 30
            )
            assert header_mask[word] == expected, word
        for value in range(1 << 12):
            counts = [(packed_histogram(value, 4) >> 5 * level) & 31 for level in range(8)]
            weight = sum(count << (7 - level) for level, count in enumerate(counts) if level)
            assert kraft[value] == (weight | sum(counts[1:]) << 11), value
        assert transmitted.tolist() == [(1 << 3 * (hclen + 4)) - 1 for hclen in range(16)]
        # Five entries add up inside uint16, and the sum never reaches the count.
        assert 5 * int(kraft.max()) < 1 << 16
        full = int.from_bytes(header_at(0, 15, [1] * 19), "little") >> 17
        total = sum(int(kraft[full >> shift & 0xFFF]) for shift in range(0, 60, 12))
        assert total == (19 << 11 | 19 * 64)

    def test_last_evaluated_position(self):
        complete = [1, 1] + [0] * 17
        header = int.from_bytes(header_at(0, 15, complete), "little")
        for size in (10, 11, 64, 4096 + 3):
            last = size * 8 - PROBE_BITS - 1
            for position in range(max(last - 9, 0), last + 1):
                data = (header << position).to_bytes(size, "little")
                # Its probe window ends on the last bits of ``data``.
                assert scan_dynamic_candidates(data, 0, size * 8).tolist() == [position]
                assert scan_dynamic_candidates(data, position, position + 1).size == 1
            # One further, the 19th triplet would lie past the end: not evaluated.
            data = (header << last + 1).to_bytes(size, "little")
            assert scan_dynamic_candidates(data, 0, size * 8).size == 0

    @pytest.mark.parametrize("size", [0, 1, 5, 9, 10, 11, 17, 18])
    def test_short_inputs(self, size):
        for fill in (b"\x00", b"\xff", b"\x04", b"\x24"):
            data = fill * size
            for start in range(0, size * 8 + 2):
                found = scan_dynamic_candidates(data, start, size * 8 + 64)
                assert found.tolist() == reference_survivors(data, start, size * 8 + 64)


@settings(max_examples=300, deadline=None)
@given(
    alignment=st.integers(0, 7),
    hclen=st.integers(0, 15),
    lengths=st.lists(st.integers(0, 7), min_size=19, max_size=19),
)
@example(alignment=7, hclen=15, lengths=[1] * 19)
@example(alignment=3, hclen=0, lengths=[0, 0, 0, 1] + [7] * 15)
@example(alignment=5, hclen=2, lengths=[2, 2, 0, 0, 0, 0] + [1] * 13)
def test_property_kraft_criterion_equals_the_walk(alignment, hclen, lengths):
    """Property: sum == 1 (or the lone length 1) <=> the Fig. 6 walk passes."""
    triplets = sum(length << 3 * index for index, length in enumerate(lengths))
    assert kept(alignment, hclen, lengths) == precode_passes(triplets, hclen + 4)


@settings(max_examples=40, deadline=None)
@given(data=st.binary(min_size=0, max_size=2000))
def test_property_equivalence_on_arbitrary_bytes(data):
    """Property: vectorized == scalar on arbitrary byte strings."""
    assert vector_candidates(data) == scalar_candidates(data)


def test_combined_finder_uses_vectorized():
    finder = CombinedBlockFinder(b"\x00" * 64)
    assert isinstance(finder.dynamic, VectorizedDynamicBlockFinder)


# -- the window loop: seams, restarts, bounded reads --------------------------

def window_seams(total_bytes: int, start_byte: int = 0) -> list:
    """Byte offsets where a scan started at ``start_byte`` changes window."""
    seams, window, position = [], _FIRST_WINDOW, start_byte
    while position + window < total_bytes:
        position += window
        seams.append(position)
        window = min(window * 2, _WINDOW_CAP)
    return seams


def one_shot(data: bytes, dynamic: bool = True, nc: bool = True) -> list:
    """Reference: the pure filters over the whole input, then the strict
    parser on every Dynamic survivor.

    Scanned in slabs that share no boundary with the ramp (whose seams are
    multiples of 4 KiB) only to keep the filters' temporaries small.
    """
    found = []
    padded = data + bytes(_READ_AHEAD)
    slab = 200_000
    bits = BitReader(data)
    for start in range(0, len(data), slab):
        piece = padded[start : start + slab + _READ_AHEAD]
        stop_bit = min(slab, len(data) - start) * 8
        for offset in scan_dynamic_candidates(piece, 0, stop_bit) if dynamic else ():
            bits.seek(int(offset) + start * 8)
            try:
                read_block_header(bits, strict=True)
            except FormatError:
                continue
            found.append(int(offset) + start * 8)
    if nc:
        found.extend(int(offset) for offset in scan_nc_candidates(data))
    return sorted(found)


def next_in(reference: list, offset: int, until=None):
    index = bisect.bisect_left(reference, offset)
    if index == len(reference):
        return None
    found = reference[index]
    return None if until is not None and found >= until else found


def noise_bytes(size: int, seed: int) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def shifted(stream: bytes, shift: int, low_bits: int = 0) -> bytes:
    """``stream`` moved up by ``shift`` bits, ``low_bits`` filling the gap."""
    value = int.from_bytes(stream, "little") << shift | low_bits
    return value.to_bytes(len(stream) + 1, "little")


def dynamic_block_stream() -> bytes:
    """A raw Deflate stream whose first block is a non-final Dynamic one."""
    compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
    text = bytes(random.Random(8).randrange(97, 123) for _ in range(3000))
    stream = compressor.compress(text) + compressor.flush(zlib.Z_FULL_FLUSH)
    assert stream[0] & 0b111 == 0b100
    return stream


@pytest.fixture(scope="module")
def noise():
    data = noise_bytes(1 << 20, seed=20)
    return data, one_shot(data)


@pytest.fixture(scope="module")
def multiblock():
    rng = random.Random(21)
    text = bytes(rng.randrange(33, 127) for _ in range(400_000))
    data = compress(text, CompressorOptions(level=6, block_size=6000))
    assert len(data) > 8 * _WINDOW_CAP
    return data, one_shot(data)


class TestWindowSeams:
    @pytest.mark.parametrize("corpus", ["noise", "multiblock"])
    def test_iter_candidates_equals_one_shot(self, corpus, request):
        data, reference = request.getfixturevalue(corpus)
        assert list(CombinedBlockFinder(data).iter_candidates()) == reference
        assert list(
            VectorizedDynamicBlockFinder(data).iter_candidates()
        ) == one_shot(data, nc=False)
        assert list(
            UncompressedBlockFinder(data).iter_candidates()
        ) == one_shot(data, dynamic=False)

    @pytest.mark.parametrize("corpus", ["noise", "multiblock"])
    def test_start_offsets_at_every_seam(self, corpus, request):
        data, reference = request.getfixturevalue(corpus)
        resumed = CombinedBlockFinder(data)
        for seam in window_seams(len(data)):
            # One finder walks up to each seam and is then asked around it:
            # inside what it scanned, at its edge, and beyond it (a restart).
            resumed.find_next(seam * 8 - 2 * PROBE_BITS, until=seam * 8)
            for delta in (-PROBE_BITS, -1, 0, 1, PROBE_BITS):
                offset = seam * 8 + delta
                expected = next_in(reference, offset)
                assert resumed.find_next(offset) == expected, (seam, delta)
                fresh = CombinedBlockFinder(data)
                assert fresh.find_next(offset) == expected, (seam, delta)

    @pytest.mark.parametrize("corpus", ["noise", "multiblock"])
    def test_until_inside_a_window(self, corpus, request):
        data, reference = request.getfixturevalue(corpus)
        seams = window_seams(len(data))[:6]
        for seam in seams:
            for until in (seam * 8 - 1, seam * 8 + 1, seam * 8 + 5003,
                          seam * 8 + _FIRST_WINDOW * 4 + 3):
                finder = CombinedBlockFinder(data)
                served = list(finder.iter_candidates(0, until=until))
                assert served == [c for c in reference if c < until]
                # The same instance, now allowed further: it carries on.
                beyond = until + _WINDOW_CAP * 8
                assert list(
                    finder.iter_candidates(until, until=beyond)
                ) == [c for c in reference if until <= c < beyond]

    def test_restarts_on_one_instance(self, multiblock):
        data, reference = multiblock
        finder = CombinedBlockFinder(data)
        far = reference[len(reference) // 2]
        assert finder.find_next(far) == far
        # Before the scanned range: a restart, not a stale answer.
        assert finder.find_next(0) == reference[0]
        assert finder.find_next(reference[0]) == reference[0]
        assert finder.find_next(reference[0] + 1) == reference[1]
        # ``until`` clips what is served, not what is remembered.
        assert finder.find_next(reference[0] + 1, until=reference[1]) is None
        assert finder.find_next(reference[0] + 1, until=reference[1] + 1) == reference[1]
        assert finder.find_next(reference[0] + 1) == reference[1]
        # Far beyond the scanned range, then back again.
        assert finder.find_next(reference[-1]) == reference[-1]
        assert finder.find_next(reference[-1] + 1) is None
        assert finder.find_next(reference[2]) == reference[2]

    def test_strict_parses_match_one_pass(self, noise):
        # Resuming never re-tests a survivor, and serves the same ones.
        data, _ = noise
        walked = VectorizedDynamicBlockFinder(data)
        list(walked.iter_candidates())
        survivors = sum(
            scan_dynamic_candidates(
                data[start : start + 200_000 + _READ_AHEAD], 0, 200_000 * 8
            ).size
            for start in range(0, len(data) - _READ_AHEAD, 200_000)
        )
        # The zero-padded tail of the file may let a few more through.
        assert survivors <= walked.candidates_tested <= survivors + 4

    @pytest.mark.parametrize("seam", window_seams(40 * 1024)[:3])
    @pytest.mark.parametrize(
        "delta", [-PROBE_BITS - 3, -PROBE_BITS + 1, -40, -17, -1, 0, 1]
    )
    def test_dynamic_header_straddling_a_seam(self, seam, delta):
        assert seam in (4 * 1024, 12 * 1024, 28 * 1024)
        target = seam * 8 + delta
        byte, shift = divmod(target, 8)
        filler = noise_bytes(64 * 1024, seed=22)
        data = (
            filler[:byte]
            + shifted(dynamic_block_stream(), shift, filler[byte] & ((1 << shift) - 1))
            + filler[byte:]
        )
        for finder_class in (CombinedBlockFinder, VectorizedDynamicBlockFinder):
            assert target in list(finder_class(data).iter_candidates())
            assert finder_class(data).find_next(target) == target
        assert list(CombinedBlockFinder(data).iter_candidates()) == one_shot(data)

    @pytest.mark.parametrize("seam", window_seams(40 * 1024)[:3])
    @pytest.mark.parametrize("delta", [-4, -3, -2, -1, 0, 1])
    def test_nc_length_pair_straddling_a_seam(self, seam, delta):
        length_byte = seam + delta
        data = bytearray(noise_bytes(64 * 1024, seed=23))
        data[length_byte - 1] &= 0x1F
        data[length_byte : length_byte + 4] = b"\x05\x00\xfa\xff"
        data = bytes(data)
        target = length_byte * 8 - 3
        for finder_class in (CombinedBlockFinder, UncompressedBlockFinder):
            assert target in list(finder_class(data).iter_candidates())
            assert finder_class(data).find_next(target) == target
        assert list(CombinedBlockFinder(data).iter_candidates()) == one_shot(data)


class CountingReader(MemoryFileReader):
    """Logs every ``pread`` as ``(offset, size)``; clones share the log."""

    def __init__(self, data, log=None):
        super().__init__(data)
        self.log = [] if log is None else log

    def pread(self, offset, size):
        self.log.append((offset, size))
        return super().pread(offset, size)

    def clone(self):
        return CountingReader(self._data, self.log)

    def requested(self) -> int:
        return sum(size for _, size in self.log)


class TestBoundedReads:
    """Counts, not timings: what the loop may ask of the file."""

    def test_windows_ramp_and_are_read_once_for_both_kinds(self):
        # All-ones input: no survivor of either kind, so every read is a
        # scan window and the log is the ramp itself.
        reader = CountingReader(b"\xff" * (100 * 1024))
        assert CombinedBlockFinder(reader).find_next(0) is None
        kib = 1024
        assert reader.log == [
            (0, 4 * kib + _READ_AHEAD),
            (4 * kib, 8 * kib + _READ_AHEAD),
            (12 * kib, 16 * kib + _READ_AHEAD),
            (28 * kib, 32 * kib + _READ_AHEAD),
            (60 * kib, 32 * kib + _READ_AHEAD),
            (92 * kib, 8 * kib + _READ_AHEAD),  # clipped to the end of the file
        ]

    def test_reads_are_clipped_to_until(self):
        reader = CountingReader(b"\xff" * (100 * 1024))
        finder = CombinedBlockFinder(reader)
        assert finder.find_next(0, until=10_000 * 8) is None
        assert reader.log == [
            (0, 4096 + _READ_AHEAD),
            (4096, 10_000 - 4096 + _READ_AHEAD),
        ]
        # Allowed further, the same finder reads on from where it stopped.
        assert finder.find_next(0, until=11_000 * 8) is None
        assert reader.log[2:] == [(10_007, 11_000 - 10_007 + _READ_AHEAD)]

    def test_nothing_requested_past_until(self, noise):
        data, _ = noise
        tight = total = 0
        for until_byte in range(5_000, 400_000, 7_919):
            until = until_byte * 8 + until_byte % 8
            reader = CountingReader(data)
            start = max(until - 3 * _WINDOW_CAP * 8, 0)
            CombinedBlockFinder(reader).find_next(start, until=until)
            furthest = max(offset + size for offset, size in reader.log)
            # Only a header whose strict parse really runs past the window
            # is followed into the file — read, not rejected.
            assert furthest <= until // 8 + _READ_AHEAD + _MAX_HEADER
            tight += furthest <= until // 8 + _READ_AHEAD
            total += 1
        assert tight >= 0.9 * total

    def test_small_chunk_reads_little_more_than_itself(self, multiblock):
        data, _ = multiblock
        chunk = 16 * 1024
        for index in range(len(data) // chunk):
            reader = CountingReader(data)
            CombinedBlockFinder(reader).find_next(
                index * chunk * 8, until=(index + 1) * chunk * 8
            )
            assert reader.requested() <= 20 * 1024

    def test_reads_proportional_to_distance(self, multiblock):
        data, reference = multiblock
        for start_byte in range(0, len(data) - _WINDOW_CAP, 9_973):
            reader = CountingReader(data)
            found = CombinedBlockFinder(reader).find_next(start_byte * 8)
            if found is None:
                continue
            assert found == next_in(reference, start_byte * 8)
            distance = found // 8 - start_byte
            # Geometric ramp: at most twice the distance plus the first
            # window — and the probe bytes and header slices on top.
            assert reader.requested() <= 2 * distance + _FIRST_WINDOW + 2048

    def test_iteration_reads_each_byte_about_once(self):
        data = noise_bytes(2 << 20, seed=24)
        reader = CountingReader(data)
        candidates = list(CombinedBlockFinder(reader).iter_candidates())
        assert candidates == sorted(candidates)
        assert reader.requested() <= 1.1 * len(data)
        windows = [size for _, size in reader.log if size > _MAX_HEADER]
        assert len(windows) == len(window_seams(len(data))) + 1


# -- the strict stage: libz's header parse vs the Python parser ---------------


def survivors_of(data: bytes) -> list:
    """Every five-stage survivor of ``data``, one pass, zero-padded tail."""
    return scan_dynamic_candidates(
        data + bytes(_READ_AHEAD), 0, len(data) * 8
    ).tolist()


def walk(data: bytes) -> VectorizedDynamicBlockFinder:
    finder = VectorizedDynamicBlockFinder(data)
    finder.accepted = list(finder.iter_candidates())
    return finder


def strict_corpora() -> dict:
    import gzip

    from repro.datagen import generate_base64, generate_fastq, generate_silesia_like

    return {
        "base64": gzip.compress(generate_base64(1_500_000, seed=11), 6),
        "silesia": gzip.compress(generate_silesia_like(2_000_000, seed=5), 6),
        "fastq": gzip.compress(generate_fastq(2_000_000, seed=7), 6),
        "noise": noise_bytes(1 << 20, seed=31),
    }


@pytest.mark.skipif(libz.load() is None, reason="libz cannot be loaded on this host")
class TestLibzStrictStage:
    def test_accept_set_equals_the_python_parser(self, monkeypatch):
        tested = 0
        for name, data in strict_corpora().items():
            ours = walk(data)
            with monkeypatch.context() as patch:
                patch.setattr(libz, "load", lambda: None)
                oracle = walk(data)
            assert ours.accepted == oracle.accepted, name
            assert ours.candidates_tested == oracle.candidates_tested, name
            # Stage names differ (libz does not tell invalid from
            # non-optimal); every rejection is counted once on both legs.
            assert sum(ours.counter.values()) == sum(oracle.counter.values()) \
                == ours.candidates_tested - len(ours.accepted), name
            assert set(ours.counter) <= set(FilterStage.ORDER), name
            tested += ours.candidates_tested
            if name != "noise":
                assert ours.accepted, name
        assert tested >= 10_000

    def test_every_survivor_one_by_one(self):
        # Not through the window loop: each survivor against a reader that
        # holds nothing, so every header is fetched the fallback way.
        noise = strict_corpora()["noise"][: 256 * 1024]
        # What no corpus holds: a precode of exactly one symbol, of length 1.
        # Incomplete, so the prefilter keeps it and both strict checks reject.
        lone = 0b100  # BFINAL 0, BTYPE dynamic; HLIT = HDIST = HCLEN = 0
        lone |= 1 << (17 + 3 * 3)  # 4th triplet: symbol 0 has length 1
        lone = lone.to_bytes(8, "little") + bytes(64)
        assert survivors_of(lone)[:1] == [0]
        check = libz.header_check()
        for data, offsets in ((noise, survivors_of(noise)), (lone, [0])):
            reader = BitReader(MemoryFileReader(data), cache_size=_MAX_HEADER)
            for offset in offsets:
                reader.seek(offset)
                try:
                    read_block_header(reader, strict=True)
                    rejected_at = None
                except FormatError as error:
                    rejected_at = error.stage
                assert (
                    check.rejection(BitReader(data, cache_size=_MAX_HEADER),
                                    offset) is None
                ) == (rejected_at is None), offset
        assert rejected_at == FilterStage.PRECODE_NON_OPTIMAL

    def test_header_truncated_at_every_byte(self, monkeypatch):
        from repro.datagen import generate_silesia_like

        compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
        stream = compressor.compress(generate_silesia_like(60_000, seed=9))
        stream += compressor.flush(zlib.Z_FULL_FLUSH)
        assert VectorizedDynamicBlockFinder(stream).find_next(0) == 0
        complete = None
        for shift in (0, 3):
            whole = shifted(stream, shift)
            for size in range(1, 200):
                ours = walk(whole[:size])  # never crashes, never hangs
                with monkeypatch.context() as patch:
                    patch.setattr(libz, "load", lambda: None)
                    oracle = walk(whole[:size])
                assert ours.accepted == oracle.accepted, (shift, size)
                assert sum(ours.counter.values()) == sum(oracle.counter.values())
                if complete is None and ours.accepted:
                    complete = size
        assert 40 < complete < 199  # cut inside the header: rejected until here

    def test_other_block_types_are_not_headers(self):
        # Z_TREES also returns at the end of a stored or fixed header; the
        # three header bits are checked before libz is asked.
        check = libz.header_check()
        for first, complaint in ((0b000, b"invalid block type"),
                                 (0b010, b"invalid block type"),
                                 (0b110, b"invalid block type"),
                                 (0b101, b"invalid final block")):
            data = bytes([first]) + bytes(64)
            assert check.rejection(BitReader(data), 0) == complaint
        assert check.rejection(BitReader(b""), 0) is not None
        assert check.rejection(BitReader(b"\x04"), 0) == b""

    def test_one_stream_per_thread_and_flat_rss(self):
        import threading

        assert libz.header_check() is libz.header_check()
        others = []
        thread = threading.Thread(target=lambda: others.append(libz.header_check()))
        thread.start()
        thread.join(timeout=10)
        assert others and others[0] is not libz.header_check()

        data = noise_bytes(64 * 1024, seed=32)

        def construct(times: int) -> None:
            for _ in range(times):
                VectorizedDynamicBlockFinder(data).find_next(0, until=8 * 8192)

        def resident() -> int:
            with open("/proc/self/statm") as statm:
                return int(statm.read().split()[1]) * 4096

        construct(200)
        before = resident()
        construct(2000)
        assert abs(resident() - before) <= 2 << 20

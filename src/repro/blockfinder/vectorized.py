"""Vectorized Dynamic Block finder — NumPy as the bit-parallelism engine.

The paper accelerates its block finder with compile-time lookup tables and
bit-packed arithmetic (§3.4.2). The pure-Python analogue of that
"process many bits per instruction" idea is NumPy: this finder evaluates
the first *five* filter stages of the §3.4.2 chain for **every bit
position at once**:

1. final-block bit = 0,
2. block type = 0b10,
3. HLIT < 30,
4. packed precode histogram built by vectorized gathers (the 5-bit-field
   packing of the paper, as array arithmetic),
5. histogram validity/efficiency walk (Fig. 6), with the degenerate
   one-symbol special case.

Only survivors (a few hundred per MiB of random input, per Table 1's
"invalid Precode-encoded data" rate) reach the strict stage for the
remaining checks, one at a time and only until one is accepted: libz's own
header parse (:class:`repro.deflate.libz.HeaderCheck`) where libz loads,
the scalar strict parser otherwise. The filter runs inside the window
loop of :mod:`repro.blockfinder.window`: alone here, beside the
Non-Compressed one in the production
:class:`~repro.blockfinder.combined.CombinedBlockFinder`; the scalar
variants remain available for the Table 1/2 component benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..deflate import libz
from ..deflate.block import FilterStage, read_block_header
from ..errors import FormatError
from .window import _READ_AHEAD, PROBE_BITS, WindowedBlockFinder

__all__ = ["VectorizedDynamicBlockFinder", "scan_dynamic_candidates"]

_HISTOGRAM_LUT_ARRAY = None

#: libz's header complaints under the Table 1 stage names. It does not tell
#: an over-subscribed code from an incomplete one: each pair counts under
#: its "invalid" row. Anything else (``b""``: cut off by the end of the
#: file) is precode data.
_LIBZ_STAGES = {
    b"invalid final block": FilterStage.FINAL_BLOCK,
    b"invalid block type": FilterStage.COMPRESSION_TYPE,
    b"too many length or distance symbols": FilterStage.PRECODE_SIZE,
    b"invalid code lengths set": FilterStage.PRECODE_INVALID,
    b"invalid bit length repeat": FilterStage.PRECODE_DATA,
    b"invalid distances set": FilterStage.DISTANCE_INVALID,
    b"invalid code -- missing end-of-block": FilterStage.LITERAL_INVALID,
    b"invalid literal/lengths set": FilterStage.LITERAL_INVALID,
}


def _histogram_lut_array() -> np.ndarray:
    """The 12-bit (4-triplet) packed-histogram LUT as a NumPy gather table."""
    global _HISTOGRAM_LUT_ARRAY
    if _HISTOGRAM_LUT_ARRAY is None:
        from ..huffman.precode import _histogram_lut

        _HISTOGRAM_LUT_ARRAY = np.array(_histogram_lut(), dtype=np.uint64)
    return _HISTOGRAM_LUT_ARRAY


def scan_dynamic_candidates(data: bytes, start_bit: int, until_bit: int) -> np.ndarray:
    """Bit offsets in ``[start_bit, until_bit)`` passing filter stages 1-5.

    ``data`` holds the bytes covering the probed range; offsets are
    relative to ``data[0]``'s first bit. Positions whose probe window runs
    past ``data`` are not evaluated (callers re-scan the tail or hand it
    to a scalar finder).
    """
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    limit = min(until_bit, len(bits) - PROBE_BITS)
    if limit <= start_bit:
        return np.empty(0, dtype=np.int64)
    positions = np.arange(start_bit, limit, dtype=np.int64)

    # Stages 1-3: non-final, type 10 (LSB-first: 0 then 1), HLIT < 30.
    mask = (bits[positions] == 0) & (bits[positions + 1] == 0) & (
        bits[positions + 2] == 1
    )
    candidates = positions[mask]
    if not candidates.size:
        return candidates
    hlit = np.zeros(len(candidates), dtype=np.int32)
    for bit_index in range(5):
        hlit |= bits[candidates + 3 + bit_index].astype(np.int32) << bit_index
    candidates = candidates[hlit < 30]
    if not candidates.size:
        return candidates

    # Stage 4: the packed precode histogram (5-bit fields per code length),
    # exactly the paper's bit-packing. The 57 triplet bits are fetched as
    # one unaligned 64-bit load per candidate (8 byte-gathers + shift) and
    # histogrammed through the 4-triplet lookup table — triplets beyond
    # HCLEN+4 are masked to zero, which only inflates the ignored
    # length-0 field (19 zeros still fit its 5 bits).
    hclen = np.zeros(len(candidates), dtype=np.int32)
    for bit_index in range(4):
        hclen |= bits[candidates + 13 + bit_index].astype(np.int32) << bit_index
    num_triplets = (hclen + 4).astype(np.uint64)

    raw = np.frombuffer(data, dtype=np.uint8)
    triplet_bit = candidates + 17
    byte_base = triplet_bit >> 3
    bit_shift = (triplet_bit & 7).astype(np.uint64)
    window = np.zeros(len(candidates), dtype=np.uint64)
    for byte_index in range(8):
        window |= raw[byte_base + byte_index].astype(np.uint64) << np.uint64(
            8 * byte_index
        )
    triplets = (window >> bit_shift) & np.uint64((1 << 57) - 1)
    triplets &= (np.uint64(1) << (np.uint64(3) * num_triplets)) - np.uint64(1)

    lut = _histogram_lut_array()
    packed = (
        lut[triplets & np.uint64(0xFFF)]
        + lut[(triplets >> np.uint64(12)) & np.uint64(0xFFF)]
        + lut[(triplets >> np.uint64(24)) & np.uint64(0xFFF)]
        + lut[(triplets >> np.uint64(36)) & np.uint64(0xFFF)]
        + lut[triplets >> np.uint64(48)]
    ).astype(np.int64)

    # Stage 5: validity walk over the packed fields (Fig. 6).
    available = np.ones(len(candidates), dtype=np.int64)
    never_oversubscribed = np.ones(len(candidates), dtype=bool)
    for level in range(1, 8):
        count = (packed >> (5 * level)) & 31
        available = available * 2 - count
        never_oversubscribed &= available >= 0
    complete = never_oversubscribed & (available == 0)
    single_symbol = (packed >> 5) == 1  # one symbol of length 1, rest zero
    return candidates[complete | single_symbol]


class VectorizedDynamicBlockFinder(WindowedBlockFinder):
    """Production Dynamic Block finder: vectorized prefilter + strict stage.

    ``candidates_tested`` counts the strict checks, ``counter`` their
    per-stage rejections.
    """

    def __init__(self, source, counter: dict = None):
        self.counter = counter if counter is not None else {}
        self.candidates_tested = 0
        super().__init__(source)

    def scan_window(self, data: bytes, base_bit: int, start_bit: int, stop_bit: int):
        if stop_bit - base_bit > len(data) * 8 - PROBE_BITS:
            # The file's last window: zero bits past the end let the filters
            # judge the final positions; the strict parser sees the real end.
            data += bytes(_READ_AHEAD)
        found = scan_dynamic_candidates(data, start_bit - base_bit, stop_bit - base_bit)
        return (found + base_bit).tolist()

    def accepts(self, bits, offset: int) -> bool:
        self.candidates_tested += 1
        check = libz.header_check()
        if check is not None:
            complaint = check.rejection(bits, offset)
            if complaint is None:
                return True
            stage = _LIBZ_STAGES.get(complaint, FilterStage.PRECODE_DATA)
        else:
            bits.seek(offset)
            try:
                read_block_header(bits, strict=True)
                return True
            except FormatError as error:
                # No stage: cut off by the file's end, libz's ``b""``.
                stage = getattr(error, "stage", None) or FilterStage.PRECODE_DATA
        self.counter[stage] = self.counter.get(stage, 0) + 1
        return False

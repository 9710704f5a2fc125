"""Vectorized Dynamic Block finder — NumPy as the bit-parallelism engine.

The paper's finder never looks at single bits: a skip LUT jumps to the next
plausible header and the precode check runs on packed words (§3.4.2). This
one does the same with array operations over a whole scan window, in three
steps that evaluate the first *five* filter stages of the §3.4.2 chain at
**every bit position**:

* **Stages 1–3** (final-block bit = 0, block type = 0b10, HLIT < 30) look at
  8 bits, so the 16-bit word at byte *i* decides them for all 8 alignments
  in that byte. One gather through a 64 Ki-entry table turns the window's
  overlapping words into one mask byte each — the paper's skip LUT as a
  mask — and ``unpackbits`` + ``flatnonzero`` of that *mask* are the ≈11.5%
  of positions that are ever indexed.
* **Stage 4's input** is two unaligned 64-bit loads per survivor: HCLEN at
  bit 13, the 57 triplet bits at bit 17, cut to the ``HCLEN + 4`` triplets
  the header transmits.
* **Stages 4–5** are one table: 4 triplets → their Kraft sum
  ``Σ 2^(7−length)`` over the non-zero lengths, and how many there are. A
  histogram passes Fig. 6's walk (never over-subscribed, nothing left at
  length 7) exactly when the sum is 128, i.e. 1: the walk's ``available``
  at level *l* is 2^l minus the partial sum, and partial sums only grow.
  The degenerate one-symbol precode is sum 64 from a count of 1. The
  packed histogram itself (:mod:`repro.huffman.precode`) stays the scalar
  finders' engine and this filter's test oracle.

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

from functools import lru_cache

import numpy as np

from ..deflate import libz
from ..deflate.block import FilterStage, read_block_header
from ..errors import FormatError
from .window import _READ_AHEAD, PROBE_BITS, WindowedBlockFinder

__all__ = ["VectorizedDynamicBlockFinder", "scan_dynamic_candidates"]

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


@lru_cache(maxsize=1)
def _tables() -> tuple:
    """``(header_mask, kraft, transmitted)``, built once per process.

    ``header_mask[w]``, bit *s*: the 8 bits at alignment *s* of the 16-bit
    word *w* pass stages 1–3. ``kraft[four triplets]``: ``Σ 2^(7−length)``
    over their non-zero lengths, ``| count of those << 11`` — five entries
    add without carry into the count (19 · 64 < 2048) or out of ``uint16``
    (19 < 32). ``transmitted[HCLEN]``: mask of the ``HCLEN + 4`` triplets.
    """
    shifts = np.arange(8, dtype=np.uint16)[:, None]
    octets = (np.arange(1 << 16, dtype=np.uint16) >> shifts).astype(np.uint8)
    header_mask = np.packbits(
        ((octets & 7) == 0b100) & (octets < 30 << 3), axis=0, bitorder="little"
    ).ravel()
    lengths = (np.arange(1 << 12, dtype=np.uint16)[:, None] >> (0, 3, 6, 9)) & 7
    kraft = (((128 >> lengths) & 127) | ((lengths > 0) << 11)).sum(
        axis=1, dtype=np.uint16
    )
    transmitted = (1 << 3 * np.arange(4, 20, dtype=np.int64)) - 1
    return header_mask, kraft, transmitted


def scan_dynamic_candidates(data: bytes, start_bit: int, until_bit: int) -> np.ndarray:
    """Bit offsets in ``[start_bit, until_bit)`` passing filter stages 1-5.

    ``data`` holds the bytes covering the probed range; offsets are
    relative to ``data[0]``'s first bit. Positions whose probe window runs
    past ``data`` are not evaluated (callers re-scan the tail or hand it
    to a scalar finder).
    """
    size = len(data)
    limit = min(until_bit, size * 8 - PROBE_BITS)
    if limit <= start_bit:
        return np.empty(0, dtype=np.int64)
    header_mask, kraft, transmitted = _tables()

    # Stages 1-3: one mask byte per overlapping little-endian 16-bit word,
    # then the set bits of the mask. Byte order is spelled out so that a
    # big-endian host reads the same words.
    first_byte = start_bit >> 3
    pairs = np.ndarray((size - 1,), dtype="<u2", buffer=data, strides=(1,))
    plausible = np.unpackbits(
        header_mask.take(pairs[first_byte : (limit + 7) >> 3]), bitorder="little"
    ).view(bool)[start_bit - 8 * first_byte : limit - 8 * first_byte]
    candidates = np.flatnonzero(plausible) + start_bit

    # Stage 4 input: the unaligned 64-bit word at a bit's byte, shifted down
    # by the bit's place in it, leaves 57 bits — HCLEN, then every triplet.
    # (The last load ends within _READ_AHEAD of the last position.) Signed,
    # so shifts and gathers stay in the index dtype: the sign bits a shift
    # drags in lie above bit 56 and are masked off.
    words = np.ndarray((size - 7,), dtype="<i8", buffer=data, strides=(1,))
    at = candidates + 13
    hclen = (words[at >> 3] >> (at & 7)) & 15
    at += 4
    triplets = (words[at >> 3] >> (at & 7)) & transmitted[hclen]

    # Stages 4-5: Kraft sum and symbol count of the transmitted triplets —
    # those masked to zero add nothing.
    total = (
        kraft[triplets & 0xFFF]
        + kraft[(triplets >> 12) & 0xFFF]
        + kraft[(triplets >> 24) & 0xFFF]
        + kraft[(triplets >> 36) & 0xFFF]
        + kraft[triplets >> 48]
    )
    complete = (total & 2047) == 128
    single_symbol = total == (1 << 11 | 64)  # one symbol of length 1
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

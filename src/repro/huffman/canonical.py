"""Canonical Huffman codes: classification, decoding tables, decoders.

Deflate transmits Huffman codes as per-symbol *code lengths* (RFC 1951
§3.2.2); the actual codes are implied canonically. The paper's block finder
rejects candidate offsets whose code lengths are not a **valid** (no
over-subscribed tree level) and **efficient** (no unused leaves — the paper's
"non-optimal" filter, Fig. 6) Huffman code, because real compressors never
emit wasteful codes.

Two decoder implementations are provided:

* :class:`CanonicalDecoder` — single-level lookup table indexed by the next
  ``max_length`` bits (bit-reversed, as Deflate streams codes MSB-first
  inside an LSB-first bit stream). This mirrors rapidgzip's Huffman decoder
  that "always requests the maximum Huffman code length" (§4.1).
* :class:`BitwiseDecoder` — a slow first-fit walker used as a differential
  reference in tests.
"""

from __future__ import annotations

import enum
from typing import Sequence

from ..errors import HuffmanError

__all__ = [
    "CodeClassification",
    "classify_code_lengths",
    "canonical_codes_from_lengths",
    "CanonicalDecoder",
    "BitwiseDecoder",
]


class CodeClassification(enum.Enum):
    """Outcome of checking a code-length sequence (paper Fig. 6)."""

    VALID = "valid"  # complete tree: every leaf used
    INVALID = "invalid"  # over-subscribed: more codes than the tree has room
    NON_OPTIMAL = "non-optimal"  # under-subscribed: unused leaves remain
    EMPTY = "empty"  # no symbol has a nonzero length


def classify_code_lengths(lengths: Sequence[int]) -> CodeClassification:
    """Classify code lengths as valid / invalid / non-optimal / empty.

    Walks tree levels from short to long: at level *l* there are
    ``available`` leaves; assigning ``count[l]`` of them to symbols leaves
    ``(available - count[l]) * 2`` leaves for level ``l+1``.
    """
    max_length = 0
    counts: dict[int, int] = {}
    for length in lengths:
        if length < 0:
            raise HuffmanError(f"negative code length: {length}")
        if length:
            counts[length] = counts.get(length, 0) + 1
            if length > max_length:
                max_length = length
    if not counts:
        return CodeClassification.EMPTY

    available = 1
    for level in range(1, max_length + 1):
        available *= 2
        count = counts.get(level, 0)
        if count > available:
            return CodeClassification.INVALID
        available -= count
    if available:
        return CodeClassification.NON_OPTIMAL
    return CodeClassification.VALID


def canonical_codes_from_lengths(lengths: Sequence[int]) -> list:
    """Assign canonical codes (MSB-first integers) per RFC 1951 §3.2.2.

    Returns a list parallel to ``lengths``; entries for zero-length symbols
    are ``None``. Raises :class:`HuffmanError` for over-subscribed inputs.
    """
    if classify_code_lengths(lengths) is CodeClassification.INVALID:
        raise HuffmanError("over-subscribed code lengths")
    max_length = max(lengths, default=0)
    length_counts = [0] * (max_length + 1)
    for length in lengths:
        length_counts[length] += 1
    length_counts[0] = 0

    next_code = [0] * (max_length + 1)
    code = 0
    for length in range(1, max_length + 1):
        code = (code + length_counts[length - 1]) << 1
        next_code[length] = code

    codes: list = []
    for length in lengths:
        if length == 0:
            codes.append(None)
        else:
            codes.append(next_code[length])
            next_code[length] += 1
    return codes


#: Shared 16-bit bit-reverse LUT, built once on first use. Table
#: construction is hot — the block finder builds a decoder for every
#: surviving candidate header — so the per-code Python reverse loop is
#: replaced by one lookup plus a shift.
_REVERSE16: list = None


def _reverse16_lut() -> list:
    global _REVERSE16
    if _REVERSE16 is None:
        lut = [0] * (1 << 16)
        for value in range(1, 1 << 16):
            lut[value] = (lut[value >> 1] >> 1) | ((value & 1) << 15)
        _REVERSE16 = lut
    return _REVERSE16


def _reverse_bits(value: int, width: int) -> int:
    return _reverse16_lut()[value & 0xFFFF] >> (16 - width)


class CanonicalDecoder:
    """Single-level LUT decoder for a canonical Huffman code.

    The table maps the next ``max_length`` stream bits (as delivered LSB-first
    by :class:`~repro.io.bit_reader.BitReader.peek`) to a packed entry
    ``(code_length << 9) | symbol``; 0 marks an unused prefix. Decode is a
    peek + list index + skip — the fastest shape available in pure Python.

    ``allow_incomplete`` admits under-subscribed codes (needed for Deflate
    distance codes that use a single symbol); the block finder never sets it.
    """

    __slots__ = ("table", "max_length", "num_symbols", "classification")

    def __init__(self, lengths: Sequence[int], *, allow_incomplete: bool = False):
        classification = classify_code_lengths(lengths)
        if classification is CodeClassification.INVALID:
            raise HuffmanError("over-subscribed code lengths")
        if classification is CodeClassification.EMPTY:
            raise HuffmanError("no symbols in Huffman code")
        if classification is CodeClassification.NON_OPTIMAL and not allow_incomplete:
            raise HuffmanError("incomplete (non-optimal) Huffman code")
        self.classification = classification

        max_length = max(lengths)
        if max_length > 15:
            raise HuffmanError(f"code length {max_length} exceeds Deflate limit 15")
        self.max_length = max_length
        table_size = 1 << max_length
        table = [0] * table_size
        codes = canonical_codes_from_lengths(lengths)
        reverse = _reverse16_lut()
        symbols = 0
        for symbol, (length, code) in enumerate(zip(lengths, codes)):
            if not length:
                continue
            symbols += 1
            prefix = reverse[code] >> (16 - length)
            entry = (length << 9) | symbol
            step = 1 << length
            count = table_size >> length
            table[prefix :: step] = [entry] * count
        self.table = table
        self.num_symbols = symbols

    def decode(self, bit_reader) -> int:
        """Decode one symbol from ``bit_reader``; raises on invalid prefix."""
        entry = self.table[bit_reader.peek(self.max_length)]
        if entry == 0:
            raise HuffmanError("invalid Huffman prefix in stream")
        bit_reader.skip(entry >> 9)
        return entry & 0x1FF


class BitwiseDecoder:
    """Reference decoder walking the code bit by bit (slow, for tests)."""

    def __init__(self, lengths: Sequence[int], *, allow_incomplete: bool = False):
        classification = classify_code_lengths(lengths)
        if classification is CodeClassification.INVALID:
            raise HuffmanError("over-subscribed code lengths")
        if classification is CodeClassification.EMPTY:
            raise HuffmanError("no symbols in Huffman code")
        if classification is CodeClassification.NON_OPTIMAL and not allow_incomplete:
            raise HuffmanError("incomplete (non-optimal) Huffman code")
        codes = canonical_codes_from_lengths(lengths)
        self._by_length: dict[tuple[int, int], int] = {}
        self.max_length = max(lengths)
        for symbol, (length, code) in enumerate(zip(lengths, codes)):
            if length:
                self._by_length[(length, code)] = symbol

    def decode(self, bit_reader) -> int:
        code = 0
        for length in range(1, self.max_length + 1):
            code = (code << 1) | bit_reader.read(1)
            symbol = self._by_length.get((length, code))
            if symbol is not None:
                return symbol
        raise HuffmanError("invalid Huffman prefix in stream")

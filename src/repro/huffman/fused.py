"""Fused Huffman decode tables (paper §4.1: extra-bit / double caching).

The legacy :class:`~repro.huffman.canonical.CanonicalDecoder` resolves one
``(code_length, symbol)`` pair per lookup; every Deflate length/distance
symbol then pays further Python work for the extra-bit count and base value,
and every literal pays a branch to discover it *is* a literal. The paper
attributes much of rapidgzip's single-core speed to caching exactly those
follow-up decisions inside the lookup table itself. :class:`FusedDecoder`
is that idea in table form:

* **emission entries** carry one decoded byte — or, where two short
  literal codes fit inside the peek window, two bytes (the "double
  literal" cache) — as an index into the kernels' table of pre-built
  ``bytes`` objects;
* **length entries** bake the extra bits into the table whenever code
  length + extra-bit count fits the peek window, so the entry carries the
  *final* match length; otherwise it carries the pre-computed base and
  pending extra count (the paper's extra-bit caching);
* **distance entries** carry the pre-computed base and pending extra
  count (or the complete distance when the code has no extra bits), and
  reserved symbols 30/31 are pre-marked invalid.

To bake extra bits for codes near the maximum code length, the literal
table is widened past ``max_length`` — but only when ``max_length + 5``
fits ``MAX_TABLE_WIDTH``, so the widened table bakes *every* length extra
(partial widening measured slower than none). The canonical table is
tiled — entries repeat with period ``2 ** max_length`` — and each widened
slot sees the would-be extra bits in its index's high bits. Distance
tables are never widened; see :func:`fused_distance_table`.

Entry packing (literal/length table)::

    bits 0-4   total bits consumed by the lookup
    bit  5     control flag: 0 = emission, 1 = length / end-of-block / invalid
    bits 6+    payload

    emission payload: a byte value (< 256) or EMIT_PAIR_OFFSET + (b1 |
    b2 << 8) for a two-literal entry — an index into the kernels' emit
    table. Control payload: 0 for end-of-block;
    :data:`INVALID_PAYLOAD` (1) for an invalid prefix (consumes 0
    bits); else a complete match length (3 <= length < 512, extra bits
    already counted in bits 0-4) or ``base | extra << 9`` with
    ``extra`` bits still to consume (then always >= 512 since extra
    >= 1).

    Invalid prefixes are *control* entries, not zero entries: every
    emission entry therefore consumes at least one bit, so the kernels'
    literal fast path needs no per-symbol validity branch; the control
    path rejects payload 1 instead.

Entry packing (distance table)::

    bits 0-4   bits consumed by the lookup (0 = invalid prefix)
    bits 5-8   pending extra-bit count (0 = distance is complete)
    bits 9+    complete distance, or base distance if extra is pending

Tables are built with vectorized NumPy passes over the canonical decoder's
existing table (array ops, not a Python loop per entry) and cached on the
:class:`CanonicalDecoder` so the shared fixed-code decoders pay the build
exactly once.
"""

from __future__ import annotations

import numpy as np

from ..deflate.constants import DISTANCE_EXTRA_BASE, LENGTH_EXTRA_BASE

__all__ = [
    "FusedDecoder",
    "MAX_TABLE_WIDTH",
    "CONTROL_FLAG",
    "INVALID_PAYLOAD",
    "INVALID_ENTRY",
    "EMIT_PAIR_OFFSET",
    "fused_literal_table",
    "fused_distance_table",
]

#: Bit 5 of a literal-table entry: set for length / end-of-block / invalid.
CONTROL_FLAG = 32
#: Control payload marking an invalid prefix (real lengths are 0 or >= 3).
INVALID_PAYLOAD = 1
#: A complete invalid-prefix entry: control flag, payload 1, 0 bits consumed.
INVALID_ENTRY = CONTROL_FLAG | (INVALID_PAYLOAD << 6)
#: Two-literal emission payloads are offset past the 256 single bytes.
EMIT_PAIR_OFFSET = 256

#: Widened tables never exceed 2**15 slots: Deflate's own code-length cap,
#: and the bound that keeps the kernels' worst-case bits-per-iteration at 48
#: (literal 15+5 pending + distance 15+13 pending).
MAX_TABLE_WIDTH = 15

_LENGTH_EXTRA = np.array([extra for extra, _ in LENGTH_EXTRA_BASE], dtype=np.int32)
_LENGTH_BASE = np.array([base for _, base in LENGTH_EXTRA_BASE], dtype=np.int32)
_DIST_EXTRA = np.array([extra for extra, _ in DISTANCE_EXTRA_BASE], dtype=np.int32)
_DIST_BASE = np.array([base for _, base in DISTANCE_EXTRA_BASE], dtype=np.int32)


def _widened(decoder, width: int) -> np.ndarray:
    """The canonical table tiled out to ``2 ** width`` slots."""
    base = np.array(decoder.table, dtype=np.int32)
    if width > decoder.max_length:
        base = np.tile(base, 1 << (width - decoder.max_length))
    return base


def fused_literal_table(decoder):
    """``(table, mask)`` for a literal/length :class:`CanonicalDecoder`.

    ``table`` is a plain Python list (fastest scalar indexing) of packed
    entries as documented in the module docstring; ``mask`` selects the
    table's peek bits.
    """
    cached = decoder.fused_literal
    if cached is not None:
        return cached
    # Widening to max_length + 5 index bits bakes the extra bits of *every*
    # length code (Deflate length extras are at most 5 bits) and opens up
    # double-literal slots. When that does not fit under MAX_TABLE_WIDTH
    # (max_length > 10), partial widening pays the 2-4x larger table build
    # without full baking — measured slower on match-heavy corpora — so the
    # table stays at its natural width.
    width = decoder.max_length + 5
    if width > MAX_TABLE_WIDTH:
        width = decoder.max_length
    base = _widened(decoder, width)
    lengths = base >> 9
    symbols = base & 0x1FF
    is_literal = (base != 0) & (symbols < 256)

    # Masked sub-array arithmetic: compute each entry class on the
    # compressed selection only — table builds run once per dynamic block,
    # so full-table temporaries per class would hurt small blocks.
    fused = np.zeros(base.shape, dtype=np.int32)
    fused[is_literal] = lengths[is_literal] | (symbols[is_literal] << 6)
    is_end = symbols == 256
    fused[is_end] = lengths[is_end] | CONTROL_FLAG
    # Length codes 257..285; 286/287 become invalid entries below, failing
    # exactly where the legacy loop rejects them.
    is_length = (symbols > 256) & (symbols <= 285)
    if is_length.any():
        length_index = symbols[is_length] - 257
        extra_bits = _LENGTH_EXTRA[length_index]
        base_length = _LENGTH_BASE[length_index]
        code_len = lengths[is_length]
        # The extra bits follow the code LSB-first, i.e. they are the index
        # bits just above the code prefix — computable per table slot.
        index = np.nonzero(is_length)[0].astype(np.int32)
        baked = code_len + extra_bits <= width
        full_length = base_length + ((index >> code_len) & ((1 << extra_bits) - 1))
        fused[is_length] = np.where(
            baked,
            (code_len + extra_bits) | CONTROL_FLAG | (full_length << 6),
            code_len | CONTROL_FLAG | ((base_length | (extra_bits << 9)) << 6),
        )

    # Double-literal pass: where the first symbol is a literal and the
    # remaining window bits fully decode a second literal, one entry emits
    # both bytes. The suffix lookup zero-pads the high bits, which is safe:
    # a prefix code shorter than the remaining window is decoded from real
    # bits only, and a longer true continuation can never alias to a
    # complete shorter code (prefix-freedom), so ``l1 + l2 <= width`` is
    # exactly the packability condition.
    if is_literal.any():
        first_len = lengths[is_literal]
        if 2 * int(first_len.min()) <= width:
            lit_index = np.nonzero(is_literal)[0].astype(np.int32)
            second = base[lit_index >> first_len]
            second_len = second >> 9
            second_sym = second & 0x1FF
            packable = (
                (second != 0)
                & (second_sym < 256)
                & (first_len + second_len <= width)
            )
            packed = (
                (first_len + second_len)
                | ((EMIT_PAIR_OFFSET + (symbols[is_literal] | (second_sym << 8))) << 6)
            )
            fused[is_literal] = np.where(packable, packed, fused[is_literal])

    # Invalid prefixes (unassigned canonical slots and the reserved length
    # symbols 286/287) become control entries so the stream still fails at
    # exactly the lookup where the legacy loop rejects it, without the
    # emission path ever needing a validity branch.
    fused[fused == 0] = INVALID_ENTRY

    cached = (fused.tolist(), (1 << width) - 1)
    decoder.fused_literal = cached
    return cached


def fused_distance_table(decoder):
    """``(table, mask)`` for a distance :class:`CanonicalDecoder`."""
    cached = decoder.fused_distance
    if cached is not None:
        return cached
    # Distance tables are never widened: baking up-to-13-bit distance extras
    # would blow the table to 2**15 slots per block (dominating build time
    # and evicting the literal table from cache) while the pending-extra
    # path costs just one shift/mask pair per match.
    width = decoder.max_length
    base = _widened(decoder, width)
    symbols = base & 0x1FF
    ok = (base != 0) & (symbols <= 29)
    code_len = (base >> 9)[ok]
    extra_bits = _DIST_EXTRA[symbols[ok]]
    base_dist = _DIST_BASE[symbols[ok]]
    index = np.nonzero(ok)[0].astype(np.int32)
    baked = code_len + extra_bits <= width
    full_dist = base_dist + ((index >> code_len) & ((1 << extra_bits) - 1))
    fused = np.zeros(base.shape, dtype=np.int32)
    fused[ok] = np.where(
        baked,
        (code_len + extra_bits) | (full_dist << 9),
        code_len | (extra_bits << 5) | (base_dist << 9),
    )
    cached = (fused.tolist(), (1 << width) - 1)
    decoder.fused_distance = cached
    return cached


class FusedDecoder:
    """Paired fused literal + distance tables for one Deflate block.

    The distance table is built lazily on the first match: literal-only
    blocks (common on barely-compressible data like base64) then never pay
    for its build.
    """

    __slots__ = ("lit_table", "lit_mask", "_distance_decoder")

    def __init__(self, literal_decoder, distance_decoder=None):
        self.lit_table, self.lit_mask = fused_literal_table(literal_decoder)
        self._distance_decoder = distance_decoder

    def distance_table(self):
        """``(table, mask)`` for the block's distance code, built on demand."""
        return fused_distance_table(self._distance_decoder)

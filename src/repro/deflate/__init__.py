"""Deflate (RFC 1951): decoder, two-stage marker decoder, and compressor."""

from .block import (
    BlockHeader,
    FilterStage,
    decode_block_into_bytearray,
    decode_block_two_stage,
    read_block_header,
)
from .constants import (
    BLOCK_TYPE_DYNAMIC,
    BLOCK_TYPE_FIXED,
    BLOCK_TYPE_RESERVED,
    BLOCK_TYPE_STORED,
    MARKER_FLAG,
    MAX_MATCH_LENGTH,
    MAX_WINDOW_SIZE,
    MIN_MATCH_LENGTH,
)
from .inflate import BlockBoundary, InflateResult, TwoStageStreamDecoder, inflate
from .markers import (
    ChunkPayload,
    pad_window,
    replace_markers,
    seed_marker_window_u16,
    segment_has_markers,
)

__all__ = [
    "BlockHeader",
    "FilterStage",
    "decode_block_into_bytearray",
    "decode_block_two_stage",
    "read_block_header",
    "BLOCK_TYPE_DYNAMIC",
    "BLOCK_TYPE_FIXED",
    "BLOCK_TYPE_RESERVED",
    "BLOCK_TYPE_STORED",
    "MARKER_FLAG",
    "MAX_MATCH_LENGTH",
    "MAX_WINDOW_SIZE",
    "MIN_MATCH_LENGTH",
    "BlockBoundary",
    "InflateResult",
    "TwoStageStreamDecoder",
    "inflate",
    "ChunkPayload",
    "pad_window",
    "replace_markers",
    "seed_marker_window_u16",
    "segment_has_markers",
    "compress",
    "DeflateCompressor",
]


def __getattr__(name):
    if name in ("compress", "DeflateCompressor", "CompressorOptions"):
        from . import compress as _compress_module

        return getattr(_compress_module, name)
    raise AttributeError(f"module 'repro.deflate' has no attribute {name!r}")

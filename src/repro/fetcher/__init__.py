"""Chunk fetching: decode tasks, chunk chain, cache-and-prefetch engine."""

from .chain import ChunkChain, ChunkExtent, ChunkRecord
from .decode import (
    ChunkResult,
    StreamEvent,
    decode_chunk_range,
    decode_index_chunk,
    shift_to_byte_alignment,
    speculative_decode,
    zlib_decode_range,
)
from .gzip_chunk_fetcher import DEFAULT_CHUNK_SIZE, GzipChunkFetcher
from .tasks import ChunkTaskSpec

__all__ = [
    "ChunkChain",
    "ChunkExtent",
    "ChunkRecord",
    "ChunkResult",
    "ChunkTaskSpec",
    "StreamEvent",
    "decode_chunk_range",
    "decode_index_chunk",
    "shift_to_byte_alignment",
    "speculative_decode",
    "zlib_decode_range",
    "DEFAULT_CHUNK_SIZE",
    "GzipChunkFetcher",
]

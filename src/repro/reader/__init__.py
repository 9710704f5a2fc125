"""User-facing parallel gzip reader and its settings."""

from .options import DEFAULT_CHUNK_SIZE, ReaderOptions
from .parallel_reader import ParallelGzipReader, decompress_parallel

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ParallelGzipReader",
    "ReaderOptions",
    "decompress_parallel",
]

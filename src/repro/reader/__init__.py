"""User-facing parallel gzip reader and its settings."""

from .options import DEFAULT_CHUNK_SIZE, ReaderOptions

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ParallelGzipReader",
    "ReaderOptions",
    "decompress_parallel",
]


def __getattr__(name):
    # Lazy: the reader pulls in the whole engine (and NumPy); its
    # settings alone do not.
    if name in ("ParallelGzipReader", "decompress_parallel"):
        from . import parallel_reader

        return getattr(parallel_reader, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

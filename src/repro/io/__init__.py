"""I/O substrate: file readers (local, remote HTTP-range) and the
LSB-first bit reader."""

from .bit_reader import BitReader
from .file_reader import (
    FileReader,
    MemoryFileReader,
    PythonFileReader,
    StandardFileReader,
    ensure_file_reader,
)
from .options import RemoteReaderOptions, is_remote_url

__all__ = [
    "BitReader",
    "BlockCacheFileReader",
    "CircuitBreaker",
    "FileReader",
    "HttpRangeFileReader",
    "MemoryFileReader",
    "PythonFileReader",
    "RemoteReaderOptions",
    "ResilientFileReader",
    "SharedFileReader",
    "StandardFileReader",
    "ensure_file_reader",
    "is_remote_url",
    "open_remote",
    "reader_from_options",
    "strided_read_benchmark",
]

_LAZY = {
    "BlockCacheFileReader": "remote",
    "CircuitBreaker": "remote",
    "HttpRangeFileReader": "remote",
    "ResilientFileReader": "remote",
    "open_remote": "remote",
    "reader_from_options": "remote",
    "SharedFileReader": "shared_file_reader",
    "strided_read_benchmark": "shared_file_reader",
}


def __getattr__(name):
    # Lazy: the HTTP stack (http.client) and the thread-pool benchmark
    # load on first use, so importing the package stays cheap.
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""File access abstraction mirroring rapidgzip's ``FileReader`` interface.

The paper (§3, Fig. 5) abstracts file access so the decompressor can read
from regular files *and* from Python file-like objects — rapidgzip uses this
to support recursive access to gzip-compressed gzip files. All readers are
byte-oriented and seekable, and their positionless ``pread`` is safe from
many threads at once: every decompression thread reads through the one
shared reader, as rapidgzip's ``SharedFileReader`` does (paper §4.2).
"""

from __future__ import annotations

import io
import os
import threading
from abc import ABC, abstractmethod

from ..errors import UsageError
from .options import is_remote_url

__all__ = [
    "FileReader",
    "MemoryFileReader",
    "StandardFileReader",
    "PythonFileReader",
    "ensure_file_reader",
]


class FileReader(ABC):
    """Abstract seekable byte source.

    Contract:

    * ``read(n)`` returns at most ``n`` bytes, empty ``bytes`` at EOF;
      ``read(-1)`` reads to EOF.
    * ``pread(offset, size)`` reads without touching the cursor and must be
      safe to call from multiple threads concurrently.
    """

    def __init__(self) -> None:
        self._closed = False

    # -- abstract primitives -------------------------------------------------

    @abstractmethod
    def size(self) -> int:
        """Total number of bytes available, if known (required here)."""

    @abstractmethod
    def pread(self, offset: int, size: int) -> bytes:
        """Thread-safe positional read of up to ``size`` bytes at ``offset``."""

    # -- cursor-based API ----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "FileReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise UsageError("I/O operation on closed FileReader")

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        self._check_open()
        if whence == io.SEEK_SET:
            position = offset
        elif whence == io.SEEK_CUR:
            position = self.tell() + offset
        elif whence == io.SEEK_END:
            position = self.size() + offset
        else:
            raise UsageError(f"invalid whence: {whence}")
        if position < 0:
            raise UsageError(f"negative seek position: {position}")
        self._position = position
        return position

    def tell(self) -> int:
        return getattr(self, "_position", 0)

    def read(self, size: int = -1) -> bytes:
        self._check_open()
        position = self.tell()
        if size < 0:
            size = max(0, self.size() - position)
        data = self.pread(position, size)
        self._position = position + len(data)
        return data

    def eof(self) -> bool:
        return self.tell() >= self.size()


class MemoryFileReader(FileReader):
    """Reader over an in-memory ``bytes``/``bytearray``/``memoryview`` buffer."""

    def __init__(self, data) -> None:
        super().__init__()
        self._data = bytes(data)
        self._position = 0

    def size(self) -> int:
        return len(self._data)

    def pread(self, offset: int, size: int) -> bytes:
        self._check_open()
        if offset >= len(self._data) or size <= 0:
            return b""
        return self._data[offset : offset + size]

    def view(self) -> memoryview:
        """Zero-copy view of the whole buffer (used by the bit reader)."""
        return memoryview(self._data)


class StandardFileReader(FileReader):
    """Reader over a regular file path using ``os.pread`` for positional reads.

    ``pread`` never moves the kernel file offset, so one file descriptor can
    be shared by all threads without locking — this is the mechanism behind
    the paper's ``SharedFileReader`` benchmark (Fig. 8).
    """

    def __init__(self, path, *, _fd: int = None) -> None:
        super().__init__()
        if _fd is not None:
            self._path = os.fspath(path)
            self._fd = _fd
        else:
            self._path = os.fspath(path)
            self._fd = os.open(self._path, os.O_RDONLY)
        self._size = os.fstat(self._fd).st_size
        self._position = 0

    @property
    def path(self) -> str:
        return self._path

    def size(self) -> int:
        return self._size

    def pread(self, offset: int, size: int) -> bytes:
        # Guard before touching the descriptor: a closed fd would surface
        # as a raw OSError (or worse, read a recycled fd number).
        self._check_open()
        if size <= 0 or offset >= self._size:
            return b""
        pieces = []
        remaining = size
        while remaining > 0:
            piece = os.pread(self._fd, remaining, offset)
            if not piece:
                break
            pieces.append(piece)
            offset += len(piece)
            remaining -= len(piece)
        return b"".join(pieces)

    def clone(self) -> "StandardFileReader":
        """A second reader on a duplicate of this descriptor.

        Not part of the :class:`FileReader` contract: threads share one
        reader through ``pread``. It stays for the end-to-end benchmark's
        layer replay, which times single layers through readers of their
        own. Duplicating the descriptor instead of reopening by path
        keeps the clone bound to the original inode even if the path was
        replaced since open (atomic re-export, log rotation).
        """
        self._check_open()
        return StandardFileReader(self._path, _fd=os.dup(self._fd))

    def close(self) -> None:
        if not self._closed:
            os.close(self._fd)
        super().close()


class PythonFileReader(FileReader):
    """Adapter for arbitrary Python file-like objects.

    The wrapped object only needs ``read`` and ``seek``/``tell``. Because
    file-like objects have a single shared cursor, positional reads are
    serialized with a lock: thread-safe, but without I/O parallelism.
    """

    def __init__(self, fileobj) -> None:
        super().__init__()
        if not hasattr(fileobj, "read") or not hasattr(fileobj, "seek"):
            raise UsageError("file-like object must support read() and seek()")
        self._fileobj = fileobj
        self._lock = threading.Lock()
        fileobj.seek(0, io.SEEK_END)
        self._size = fileobj.tell()
        self._position = 0

    def size(self) -> int:
        return self._size

    def pread(self, offset: int, size: int) -> bytes:
        self._check_open()
        if size <= 0 or offset >= self._size:
            return b""
        with self._lock:
            self._fileobj.seek(offset)
            return self._fileobj.read(size)

    def close(self) -> None:
        # The caller owns the wrapped object's lifetime; do not close it here.
        super().close()


def ensure_file_reader(source) -> FileReader:
    """Coerce ``source`` into a :class:`FileReader`.

    Accepts an existing reader (returned as-is), ``bytes``-like data, an
    ``http(s)://`` URL (opened as a resilient cached remote source), a
    filesystem path, or a Python file-like object.
    """
    if isinstance(source, FileReader):
        return source
    if isinstance(source, (bytes, bytearray, memoryview)):
        return MemoryFileReader(source)
    if is_remote_url(source):
        from .remote import open_remote  # local import: loads http.client

        return open_remote(source)
    if isinstance(source, (str, os.PathLike)):
        return StandardFileReader(source)
    if hasattr(source, "read") and hasattr(source, "seek"):
        return PythonFileReader(source)
    raise UsageError(f"cannot build a FileReader from {type(source).__name__}")

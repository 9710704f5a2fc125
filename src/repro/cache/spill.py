"""Spill-to-disk backing store for evicted decompressed chunks.

Under a memory budget the reader's materialized-bytes cache evicts
aggressively, and a later backward seek into an evicted region would pay
a full chunk re-decode (search, two-stage decode, marker replacement).
The spill tier turns that eviction into a cheap temp-file write instead:
decompressed bytes are CRC-32-stamped and written once, and a seek back
re-reads them at disk bandwidth. Spilled data is *disposable* — every
chunk remains re-decodable from the compressed input — so a missing or
corrupted spill file is never an error, just a recorded miss that falls
back to re-decoding.

Layout: one file per chunk (``<start_bit>.spill``) under a private
directory, each a 16-byte header (magic, length, CRC-32 of the payload)
followed by the raw bytes. Per-chunk files keep eviction-order writes
and random re-reads simple and make corruption strictly per-chunk.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
import threading
import zlib

__all__ = ["SpillStore"]

_MAGIC = b"RGSP"
_HEADER = struct.Struct("<4sQI")  # magic, payload length, payload CRC-32


class SpillStore:
    """CRC-verified temp-file store keyed by chunk start bit.

    ``directory=None`` creates (and owns) a private temp directory,
    removed on :meth:`close`; an explicit directory is used as-is and
    only this store's ``*.spill`` files are deleted on close.
    ``max_bytes`` bounds total disk usage — writes past it are rejected
    and counted, never an error (the chunk just stays re-decodable).
    """

    def __init__(self, directory: str = None, *, max_bytes: int = None,
                 telemetry=None):
        self._owns_directory = directory is None
        if directory is None:
            self.directory = tempfile.mkdtemp(prefix="repro-spill-")
        else:
            os.makedirs(directory, exist_ok=True)
            self.directory = directory
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._files: dict = {}  # key -> payload length
        self._closed = False
        self.bytes_written = 0
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.rejected = 0  # writes rejected by the disk ceiling
        self.corrupt = 0  # CRC/format failures on reload
        self._recorder = telemetry.recorder if telemetry is not None else None
        if telemetry is not None:
            metrics = telemetry.metrics
            metrics.probe("spill.hits", lambda: self.hits)
            metrics.probe("spill.misses", lambda: self.misses)
            metrics.probe("spill.writes", lambda: self.writes)
            metrics.probe("spill.bytes_written", lambda: self.bytes_written)
            metrics.probe("spill.corrupt", lambda: self.corrupt)
            metrics.probe("spill.rejected", lambda: self.rejected)
            metrics.probe("spill.entries", lambda: len(self))

    def _path(self, key: int) -> str:
        return os.path.join(self.directory, f"{key}.spill")

    # -- store/load --------------------------------------------------------------

    def put(self, key: int, data: bytes) -> bool:
        """Write one chunk; returns False when rejected (closed/full/IO)."""
        if self._recorder is not None and self._recorder.enabled:
            with self._recorder.span("spill.write", bit=key,
                                     nbytes=len(data)):
                return self._put(key, data)
        return self._put(key, data)

    def _put(self, key: int, data: bytes) -> bool:
        with self._lock:
            if self._closed:
                return False
            already = key in self._files
            if (
                not already
                and self.max_bytes is not None
                and self.bytes_written + len(data) > self.max_bytes
            ):
                self.rejected += 1
                return False
            try:
                with open(self._path(key), "wb") as sink:
                    sink.write(_HEADER.pack(_MAGIC, len(data),
                                            zlib.crc32(data) & 0xFFFFFFFF))
                    sink.write(data)
            except OSError:
                self.rejected += 1
                return False
            if already:
                self.bytes_written -= self._files[key]
            self._files[key] = len(data)
            self.bytes_written += len(data)
            self.writes += 1
            return True

    def get(self, key: int):
        """Reload one chunk, or None on miss/corruption (fall back to
        re-decoding — spilled data is disposable by design)."""
        if self._recorder is not None and self._recorder.enabled:
            with self._recorder.span("spill.read", bit=key):
                return self._get(key)
        return self._get(key)

    def _get(self, key: int):
        with self._lock:
            if self._closed or key not in self._files:
                self.misses += 1
                return None
            try:
                with open(self._path(key), "rb") as source:
                    header = source.read(_HEADER.size)
                    magic, length, crc = _HEADER.unpack(header)
                    data = source.read(length)
            except (OSError, struct.error):
                self._drop(key)
                self.corrupt += 1
                self.misses += 1
                return None
            if (
                magic != _MAGIC
                or len(data) != length
                or zlib.crc32(data) & 0xFFFFFFFF != crc
            ):
                self._drop(key)
                self.corrupt += 1
                self.misses += 1
                return None
            self.hits += 1
            return data

    def _drop(self, key: int) -> None:
        self.bytes_written -= self._files.pop(key, 0)
        try:
            os.unlink(self._path(key))
        except OSError:
            pass

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._files

    def __len__(self) -> int:
        with self._lock:
            return len(self._files)

    # -- reporting/lifecycle -----------------------------------------------------

    def statistics(self) -> dict:
        with self._lock:
            return {
                "directory": self.directory,
                "entries": len(self._files),
                "bytes_written": self.bytes_written,
                "hits": self.hits,
                "misses": self.misses,
                "writes": self.writes,
                "rejected": self.rejected,
                "corrupt": self.corrupt,
            }

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._owns_directory:
                shutil.rmtree(self.directory, ignore_errors=True)
            else:
                for key in list(self._files):
                    self._drop(key)
            self._files.clear()

    def __enter__(self) -> "SpillStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

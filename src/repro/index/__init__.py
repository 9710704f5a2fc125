"""Seek-point index for constant-time random access.

:mod:`.gzip_index` holds the in-memory index; :mod:`.store` is the only
code that reads or writes index bytes: crash-safe export of the
checksummed, source-bound v2 format, and import of v2 or legacy v1
files (v1 is import-only) through one set of checks.
"""

from .gzip_index import GzipIndex, SeekPoint
from .store import (
    INDEX_MAGIC_V1,
    INDEX_MAGIC_V2,
    INDEX_TRAILER_V2,
    MAX_COMPRESSED_WINDOW,
    SourceFingerprint,
    cache_path,
    fingerprint_source,
    load_index,
    save_index,
    window_bytes,
)

__all__ = [
    "GzipIndex",
    "INDEX_MAGIC_V1",
    "INDEX_MAGIC_V2",
    "INDEX_TRAILER_V2",
    "MAX_COMPRESSED_WINDOW",
    "SeekPoint",
    "SourceFingerprint",
    "cache_path",
    "fingerprint_source",
    "load_index",
    "save_index",
    "window_bytes",
]

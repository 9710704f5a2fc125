"""Crash-safe persistent seek-index tier (``repro.index.store``).

The paper's biggest lever after parallel search is the imported index:
with seek points + windows, chunk decode delegates to zlib, runs ~2x
faster, and gets perfect boundaries (§1.3/§6). This module makes that
index *durable* — "index once, read forever" — with the robustness bar
an on-disk artifact demands: a stale, torn, truncated, or bit-flipped
index file must never crash a reader and never serve wrong bytes.

Defenses, end to end:

* **Atomic persistence** — :func:`save_index` writes to a temp file in
  the target directory, ``fsync``\\ s it, and publishes with
  ``os.replace``. A crash mid-export leaves the old index (or nothing),
  never a half-written one. Concurrent exporters race harmlessly:
  last-writer-wins, readers always see a complete file.
* **Integrity metadata** — format v2 stores a CRC-32 per compressed
  seek-point window, a whole-file footer CRC, and a trailer magic, all
  under a schema version whose *future* values are rejected with a
  structured error instead of a misparse.
* **Source binding** — a fingerprint block (size, mtime, CRC-32 samples
  of head/tail/strided ranges of the *compressed* file) is validated on
  import, so an index can never be applied to a changed or different
  file. Identity is content-based: mtime drift alone does not reject
  (copies keep their index), any content-sample mismatch does.
* **One validation pipeline** — an import is checked whole before
  :func:`load_index` returns: the footer CRC, the fingerprint (when the
  file carries one and ``source`` is given), and every window's CRC and
  bounded inflation. A returned ``SeekPoint.window`` is always real
  bytes, so nothing downstream can meet a damaged window.

Every failure raises :class:`~repro.errors.IndexIntegrityError` with
the failed check's name; callers choose what a rejection means
(:class:`IndexCache`, the reader's ``index_cache``, logs it and
searches instead; CLI ``--import-index`` is strict).
Fault-injection sites ``index.load`` / ``index.window`` /
``index.export`` (:mod:`repro.faults`) make every failure path
rehearsable under a seed.

Format v2 (little-endian)::

    header      8s magic "RPGZIDX2" | B version=2 | B flags
                (bit0 finalized, bit1 fingerprint present) | H reserved
                | Q uncompressed size | Q compressed size bits
                | I seek-point count
    fingerprint Q source size | Q source mtime_ns | I head crc
                | I tail crc | I stride crc | I sample size | Q stride
    point * N   Q compressed bit offset | Q uncompressed offset
                | B flags (bit0 stream start) | I raw window length
                | I compressed window length | I window crc
                | compressed window bytes
    footer      I crc-32 of everything above | 8s trailer "RPGZEND2"

Format v2 is the only format written. Legacy v1 files still import:
:func:`load_index` parses their layout below and runs v2's checks on it
(truncation, window length, bounded inflate, point order, finalized).
They carry no checksums and no fingerprint, so ``source`` binds
nothing::

    header      8s magic "RPGZIDX1" | B version=1 | B flags (bit0
                finalized) | Q uncompressed size | Q compressed size bits
                | I seek-point count
    point * N   Q compressed bit offset | Q uncompressed offset
                | B flags (bit0 stream start) | I compressed window length
                | compressed window bytes
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass

from .. import faults
from ..deflate.constants import MAX_WINDOW_SIZE
from ..errors import IndexIntegrityError, UsageError
from ..io import FileReader, ensure_file_reader
from .gzip_index import GzipIndex, SeekPoint

__all__ = [
    "INDEX_MAGIC_V1",
    "IndexCache",
    "INDEX_MAGIC_V2",
    "INDEX_TRAILER_V2",
    "MAX_COMPRESSED_WINDOW",
    "SourceFingerprint",
    "cache_path",
    "fingerprint_source",
    "index_to_bytes_v2",
    "load_index",
    "save_index",
    "window_bytes",
]

INDEX_MAGIC_V1 = b"RPGZIDX1"
INDEX_MAGIC_V2 = b"RPGZIDX2"
INDEX_TRAILER_V2 = b"RPGZEND2"
_VERSION = 2

#: Largest credible zlib-compressed 32 KiB window: raw size plus the
#: worst-case stored-block expansion overhead. A declared length past
#: this is a malformed (or malicious) index, not a big window.
MAX_COMPRESSED_WINDOW = MAX_WINDOW_SIZE + 1024

_FLAG_FINALIZED = 1
_FLAG_FINGERPRINT = 2
_POINT_STREAM_START = 1

_HEADER = struct.Struct("<8sBBHQQI")
_FINGERPRINT = struct.Struct("<QQIIIIQ")
_POINT = struct.Struct("<QQBIII")
_FOOTER = struct.Struct("<I8s")
_HEADER_V1 = struct.Struct("<8sBBQQI")
_POINT_V1 = struct.Struct("<QQBI")

#: Head/tail sample length for source fingerprints.
_SAMPLE_SIZE = 64 * 1024
#: Bytes hashed at each stride step.
_STRIDE_PROBE = 4096
#: Target number of strided samples across the file body.
_STRIDE_STEPS = 16


def _span(telemetry, name: str, **attrs):
    """A (possibly no-op) recorder span for one store operation."""
    if telemetry is None:
        return contextlib.nullcontext()
    return telemetry.recorder.span(name, **attrs)


def cache_path(cache_dir, source_path) -> str:
    """Deterministic index-cache file name for one compressed file.

    Keyed on the absolute source path so every reader and writer of the
    same file agrees on one cache entry (the content fingerprint inside
    the file handles renames-with-different-content); the basename is
    kept in the name for humans browsing the cache directory.
    """
    absolute = os.path.abspath(os.fspath(source_path))
    digest = hashlib.sha256(
        absolute.encode("utf-8", "surrogatepass")
    ).hexdigest()[:16]
    name = os.path.basename(absolute) or "stream"
    return os.path.join(os.fspath(cache_dir), f"{name}.{digest}.rpzidx")


# -- source fingerprint -----------------------------------------------------------


@dataclass(frozen=True)
class SourceFingerprint:
    """Content-sampling identity of the compressed source file.

    ``head_crc``/``tail_crc`` cover the first/last ``sample_size`` bytes;
    ``stride_crc`` chains CRC-32 over ``4096``-byte probes every
    ``stride`` bytes, so an edit anywhere in a multi-GiB file has a high
    chance of landing in a sampled range without reading the whole file.
    ``mtime_ns`` is advisory (reported, never rejecting on its own):
    identity is decided by size + content samples, so copying a file
    next to its index keeps the index valid.
    """

    size: int
    mtime_ns: int
    head_crc: int
    tail_crc: int
    stride_crc: int
    sample_size: int = _SAMPLE_SIZE
    stride: int = 0

    def mismatch(self, other: "SourceFingerprint") -> str:
        """Name of the first failing binding check, or ``""`` on a match.

        ``other`` must be sampled with this fingerprint's geometry
        (:func:`fingerprint_source` with ``like=self``).
        """
        if self.size != other.size:
            return (
                f"source size changed: index recorded {self.size} byte(s), "
                f"file has {other.size}"
            )
        if self.head_crc != other.head_crc:
            return "head sample CRC-32 mismatch (file content changed)"
        if self.tail_crc != other.tail_crc:
            return "tail sample CRC-32 mismatch (file content changed)"
        if self.stride_crc != other.stride_crc:
            return "strided sample CRC-32 mismatch (file content changed)"
        return ""


def fingerprint_source(source, *, like: SourceFingerprint = None) -> SourceFingerprint:
    """Sample ``source`` (path, bytes, file-like, or FileReader).

    ``like`` replays another fingerprint's sampling geometry (sample
    size and stride) so two fingerprints are comparable even across
    releases that change the defaults.
    """
    owned = not isinstance(source, FileReader)
    reader = ensure_file_reader(source)
    try:
        size = reader.size()
        sample_size = like.sample_size if like is not None else _SAMPLE_SIZE
        sample = min(sample_size, size)
        if like is not None:
            stride = like.stride
        else:
            stride = max(size // _STRIDE_STEPS, _STRIDE_PROBE)
        head_crc = zlib.crc32(reader.pread(0, sample))
        tail_crc = zlib.crc32(reader.pread(max(size - sample, 0), sample))
        stride_crc = 0
        if stride > 0:
            for offset in range(0, size, stride):
                stride_crc = zlib.crc32(
                    reader.pread(offset, _STRIDE_PROBE), stride_crc
                )
        path = getattr(reader, "path", None)
        mtime_ns = 0
        if path is not None:
            try:
                mtime_ns = os.stat(path).st_mtime_ns
            except OSError:
                mtime_ns = 0
        return SourceFingerprint(
            size=size,
            mtime_ns=mtime_ns,
            head_crc=head_crc,
            tail_crc=tail_crc,
            stride_crc=stride_crc,
            sample_size=sample_size,
            stride=stride,
        )
    finally:
        if owned:
            reader.close()


# -- windows ---------------------------------------------------------------------


def _check_window(compressed: bytes, crc: int, raw_length: int,
                  point: int) -> bytes:
    """CRC-check and inflate one stored window; every failure is typed."""
    faults.fire("index.window", chunk_id=point)
    actual_crc = zlib.crc32(compressed)
    if actual_crc != crc:
        raise IndexIntegrityError(
            f"seek point {point}: window CRC-32 mismatch (stored "
            f"{crc:#010x}, computed {actual_crc:#010x})",
            check="window_crc", point=point,
        )
    window = _inflate_window(compressed, point)
    if len(window) != raw_length:
        raise IndexIntegrityError(
            f"seek point {point}: window inflated to {len(window)} byte(s), "
            f"declared {raw_length}",
            check="window_length", point=point,
        )
    return window


def _inflate_window(compressed: bytes, point: int) -> bytes:
    """Inflate one stored window into at most one byte past 32 KiB, so a
    hostile window cannot balloon memory; every failure is typed."""
    try:
        window = zlib.decompressobj().decompress(
            compressed, MAX_WINDOW_SIZE + 1
        )
    except zlib.error as error:
        raise IndexIntegrityError(
            f"seek point {point}: window failed to inflate: {error}",
            check="window_inflate", point=point,
        ) from error
    if len(window) > MAX_WINDOW_SIZE:
        raise IndexIntegrityError(
            f"seek point {point}: window inflates past {MAX_WINDOW_SIZE} "
            f"byte(s)",
            check="window_length", point=point,
        )
    return window


def window_bytes(window) -> bytes:
    """Coerce a seek-point window to ``bytes``: a loaded index holds
    bytes already, a caller-built one may hold any bytes-like object."""
    if type(window) is bytes:
        return window
    return bytes(window)


# -- export -----------------------------------------------------------------------


def index_to_bytes_v2(index: GzipIndex, *,
                      fingerprint: SourceFingerprint = None,
                      compresslevel: int = 6) -> bytes:
    """Serialize ``index`` in format v2 (checksummed, fingerprinted)."""
    if not index.finalized:
        raise UsageError(
            "only finalized indexes can be persisted (complete the first "
            "decode pass, then export)"
        )
    flags = _FLAG_FINALIZED
    if fingerprint is not None:
        flags |= _FLAG_FINGERPRINT
    pieces = [
        _HEADER.pack(
            INDEX_MAGIC_V2, _VERSION, flags, 0,
            index.uncompressed_size, index.compressed_size_bits, len(index),
        )
    ]
    if fingerprint is not None:
        pieces.append(
            _FINGERPRINT.pack(
                fingerprint.size, fingerprint.mtime_ns, fingerprint.head_crc,
                fingerprint.tail_crc, fingerprint.stride_crc,
                fingerprint.sample_size, fingerprint.stride,
            )
        )
    for point in index:
        window = window_bytes(point.window)
        compressed = zlib.compress(window, compresslevel)
        pieces.append(
            _POINT.pack(
                point.compressed_bit_offset,
                point.uncompressed_offset,
                _POINT_STREAM_START if point.is_stream_start else 0,
                len(window),
                len(compressed),
                zlib.crc32(compressed),
            )
        )
        pieces.append(compressed)
    body = b"".join(pieces)
    return body + _FOOTER.pack(zlib.crc32(body), INDEX_TRAILER_V2)


def save_index(index: GzipIndex, target, *, source=None,
               fingerprint: SourceFingerprint = None,
               telemetry=None) -> str:
    """Atomically persist ``index`` to the path ``target``.

    The bytes are staged in a temp file in the target's directory,
    flushed and ``fsync``\\ ed, then published with ``os.replace`` —
    readers either see the previous complete index or the new complete
    index, never a torn write, and concurrent exporters settle on
    last-writer-wins without locks. ``source`` (path/bytes/FileReader)
    embeds a binding fingerprint of the compressed file; pass
    ``fingerprint`` directly to reuse one already computed.

    Returns the target path.
    """
    target = os.fspath(target)
    if fingerprint is None and source is not None:
        fingerprint = fingerprint_source(source)
    with _span(telemetry, "index.export", points=len(index)):
        faults.fire("index.export")
        data = index_to_bytes_v2(index, fingerprint=fingerprint)
        directory = os.path.dirname(target) or "."
        descriptor, staging = tempfile.mkstemp(
            prefix=os.path.basename(target) + ".", suffix=".tmp",
            dir=directory,
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(staging, target)
        except BaseException:
            try:
                os.unlink(staging)
            except OSError:
                pass
            raise
    return target


# -- import -----------------------------------------------------------------------


def _take(data: bytes, offset: int, size: int, what: str, path) -> bytes:
    if offset + size > len(data):
        raise IndexIntegrityError(
            f"truncated index file: needed {size} byte(s) for {what} at "
            f"byte offset {offset}, file ends at {len(data)}",
            check="truncated", path=path, offset=offset,
        )
    return data[offset : offset + size]


def load_index(source_index, *, source=None, validate: str = "eager",
               telemetry=None) -> GzipIndex:
    """Load and validate a persistent index (format v2, or legacy v1).

    ``source_index`` is the index path, bytes, or a binary file object;
    ``source`` (path/bytes/FileReader), when given, binds the import:
    the embedded fingerprint is re-sampled against it and any content
    drift rejects the index. The whole file is checked before the index
    is returned: footer CRC, fingerprint, structure, and every window's
    CRC and inflation. ``validate`` accepts only ``"eager"``, the one
    pipeline; it is kept for callers that still pass it.

    Raises :class:`~repro.errors.IndexIntegrityError` naming the failed
    check. Legacy v1 files run the same checks, minus the checksums and
    the fingerprint they do not carry (module docstring).
    """
    if validate != "eager":
        raise UsageError(
            f"unknown index validation policy {validate!r}; an index is "
            f"always validated whole at load (\"eager\")"
        )
    path = None
    if isinstance(source_index, (bytes, bytearray)):
        data = bytes(source_index)
    elif hasattr(source_index, "read"):
        data = source_index.read()
    else:
        path = os.fspath(source_index)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as error:
            raise IndexIntegrityError(
                f"cannot read index file {path!r}: {error}",
                check="io", path=path,
            ) from error
    faults.fire("index.load")
    with _span(telemetry, "index.import", nbytes=len(data)):
        return _parse_index(data, path, source, telemetry)


def _parse_index(data: bytes, path, source, telemetry) -> GzipIndex:
    legacy = data[:8] == INDEX_MAGIC_V1
    if legacy:
        header = _take(data, 0, _HEADER_V1.size, "header", path)
        magic, version, flags, uncompressed_size, compressed_size_bits, \
            count = _HEADER_V1.unpack(header)
        expected, point_size = 1, _POINT_V1.size
    else:
        header = _take(data, 0, _HEADER.size, "header", path)
        magic, version, flags, _reserved, uncompressed_size, \
            compressed_size_bits, count = _HEADER.unpack(header)
        expected, point_size = _VERSION, _POINT.size
        if magic != INDEX_MAGIC_V2:
            raise IndexIntegrityError(
                f"not a rapidgzip-repro index file (magic {magic!r})",
                check="magic", path=path, offset=0,
            )
    if version != expected:
        raise IndexIntegrityError(
            f"index version {version} is not supported by this release "
            f"(expected {expected}); refusing to guess at a future format",
            check="version", path=path, offset=8,
        )
    if not flags & _FLAG_FINALIZED:
        raise IndexIntegrityError(
            "index was never finalized; a partial index cannot place "
            "chunks safely",
            check="finalized", path=path, offset=9,
        )

    if not legacy:
        _check_footer(data, path)

    offset = len(header)
    fingerprint = None
    if not legacy and flags & _FLAG_FINGERPRINT:
        block = _take(data, offset, _FINGERPRINT.size, "fingerprint", path)
        fingerprint = SourceFingerprint(*_FINGERPRINT.unpack(block))
        offset += _FINGERPRINT.size
    if fingerprint is not None and source is not None:
        observed = fingerprint_source(source, like=fingerprint)
        drift = fingerprint.mismatch(observed)
        if drift:
            raise IndexIntegrityError(
                f"index does not match the compressed file: {drift}",
                check="fingerprint", path=path,
            )

    # A count no file of this size could hold is structural damage, not
    # a huge index — reject before looping (and allocating) on it.
    if count > max((len(data) - len(header)) // point_size, 0):
        raise IndexIntegrityError(
            f"declared seek-point count {count} cannot fit in a "
            f"{len(data)}-byte index file",
            check="truncated", path=path, offset=len(header) - 4,
        )

    index = GzipIndex()
    for number in range(count):
        record = _take(data, offset, point_size, f"seek point {number}", path)
        if legacy:
            bit_offset, output_offset, point_flags, compressed_length = \
                _POINT_V1.unpack(record)
            raw_length = window_crc = 0
        else:
            bit_offset, output_offset, point_flags, raw_length, \
                compressed_length, window_crc = _POINT.unpack(record)
        offset += point_size
        if raw_length > MAX_WINDOW_SIZE or \
                compressed_length > MAX_COMPRESSED_WINDOW:
            raise IndexIntegrityError(
                f"seek point {number}: implausible window lengths "
                f"(raw {raw_length}, compressed {compressed_length})",
                check="window_length", path=path, offset=offset,
            )
        compressed = _take(
            data, offset, compressed_length, f"window of seek point {number}",
            path,
        )
        offset += compressed_length
        if legacy:
            window = _inflate_window(compressed, number)
        else:
            window = _check_window(compressed, window_crc, raw_length, number)
            if telemetry is not None:
                telemetry.metrics.counter(
                    "index.windows_validated"
                ).increment()
        try:
            index.add(
                SeekPoint(
                    compressed_bit_offset=bit_offset,
                    uncompressed_offset=output_offset,
                    window=window,
                    is_stream_start=bool(point_flags & _POINT_STREAM_START),
                )
            )
        except UsageError as error:
            raise IndexIntegrityError(
                f"non-monotonic seek point {number}: {error}",
                check="order", path=path, offset=offset,
            ) from error

    if not legacy and offset + _FOOTER.size > len(data):
        raise IndexIntegrityError(
            f"truncated index file: footer missing at byte offset {offset}",
            check="truncated", path=path, offset=offset,
        )
    index.finalize(uncompressed_size, compressed_size_bits)
    return index


def _check_footer(data: bytes, path) -> None:
    if len(data) < _HEADER.size + _FOOTER.size:
        raise IndexIntegrityError(
            f"truncated index file: {len(data)} byte(s) cannot hold a "
            f"header and footer",
            check="truncated", path=path, offset=len(data),
        )
    stored_crc, trailer = _FOOTER.unpack(data[-_FOOTER.size:])
    if trailer != INDEX_TRAILER_V2:
        raise IndexIntegrityError(
            "index trailer magic missing (torn or truncated write)",
            check="trailer", path=path, offset=len(data) - 8,
        )
    actual = zlib.crc32(data[: -_FOOTER.size])
    if actual != stored_crc:
        raise IndexIntegrityError(
            f"whole-file CRC-32 mismatch (stored {stored_crc:#010x}, "
            f"computed {actual:#010x})",
            check="footer_crc", path=path, offset=len(data) - _FOOTER.size,
        )


# -- the reader's persistent index cache ----------------------------------------


class IndexCache:
    """One source file's entry in a persistent index-cache directory.

    :meth:`load` imports a matching entry at open. One failing its checks
    is never fatal: it is counted and handed to ``reject``, and the
    caller searches instead — a bad entry costs the fast path, never
    correctness. :meth:`export` atomically publishes the index the first
    full pass built, which is also how a rejected entry heals. Without
    a source file path (byte buffers, file objects) :attr:`path` is
    ``None`` and both do nothing.
    """

    def __init__(self, cache_dir, file_reader: FileReader, telemetry):
        self._file_reader = file_reader
        self._telemetry = telemetry
        self.path = None
        self.imported = self.exported = False
        source_path = getattr(file_reader, "path", None)
        if cache_dir is not None and source_path is not None:
            os.makedirs(os.fspath(cache_dir), exist_ok=True)
            self.path = cache_path(cache_dir, source_path)

    def load(self, reject):
        """The cached index, or ``None`` (never raises). A missing entry
        is the ordinary cold open; one failing an integrity, binding or
        I/O check goes to ``reject`` as its ``IndexIntegrityError``."""
        if self.path is None or not os.path.exists(self.path):
            return None
        telemetry = self._telemetry
        try:
            loaded = load_index(
                self.path, source=self._file_reader, telemetry=telemetry
            )
        except IndexIntegrityError as error:
            telemetry.metrics.counter("index.load_failures").increment()
            reject(error)
            check = getattr(error, "check", None)
            telemetry.recorder.instant(
                "index.rejected", check=check, error=str(error)
            )
            return None
        self.imported = True
        telemetry.recorder.instant("index.imported", points=len(loaded))
        return loaded

    def export(self, index: GzipIndex) -> None:
        """Publish ``index`` once if it was built here (not imported) and
        is finalized; the caller rules out damaged and catalog indexes.
        A failure is counted, never raised: the cache is an optimization,
        not a correctness dependency."""
        if (self.path is None or self.imported or self.exported
                or not index.finalized or not len(index)):
            return
        telemetry = self._telemetry
        try:
            save_index(
                index, self.path, source=self._file_reader,
                telemetry=telemetry,
            )
        except Exception as error:
            telemetry.metrics.counter("index.export_failures").increment()
            telemetry.recorder.instant("index.export_failed", error=repr(error))
            return
        self.exported = True
        telemetry.metrics.counter("index.exports").increment()
        telemetry.recorder.instant(
            "index.exported", points=len(index), path=self.path
        )

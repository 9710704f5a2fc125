"""Exception hierarchy for the rapidgzip reproduction.

The decoder distinguishes *format* errors (the bits do not form a valid
Deflate/gzip structure — expected and frequent while the block finder probes
candidate offsets) from *usage* errors and *integrity* errors (a structurally
valid stream whose checksum or length trailer does not match).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class FormatError(ReproError):
    """The input bits do not form a valid gzip/Deflate structure.

    Raised (and caught) heavily during speculative decoding: a block-finder
    candidate that turns out to be a false positive surfaces as a
    ``FormatError`` from the Deflate parser.
    """


class GzipHeaderError(FormatError):
    """Invalid or unsupported gzip stream header."""


class DeflateError(FormatError):
    """Invalid Deflate block structure or compressed payload."""


class HuffmanError(DeflateError):
    """Code lengths do not define a valid (or efficient) Huffman code."""


class IntegrityError(ReproError):
    """Decompressed data does not match the stream's CRC-32 or ISIZE."""


class TruncatedError(FormatError):
    """The input ended in the middle of a structure."""

    def __init__(self, message: str = "unexpected end of input"):
        super().__init__(message)


class UsageError(ReproError):
    """The public API was used incorrectly (bad arguments, closed reader)."""


class RecoveryError(ReproError):
    """Corrupted-file recovery could not locate any decodable region."""


class IndexIntegrityError(ReproError):
    """A persistent seek index failed an integrity or binding check.

    Raised by :mod:`repro.index.store` when an on-disk index cannot be
    trusted: bad magic or a future version, truncation, a window or
    footer CRC mismatch, a fingerprint that no longer matches the
    compressed source file, or a zlib error while inflating a stored
    window. ``check`` names the specific validation that failed
    (``"magic"``, ``"version"``, ``"truncated"``, ``"window_crc"``,
    ``"window_inflate"``, ``"window_length"``, ``"footer_crc"``,
    ``"fingerprint"``, ``"finalized"``, ``"order"``, ``"io"``,
    ``"injected"``); ``path`` and ``offset`` locate the damage when
    known. Under the default tolerant policy the reader records the
    failure and falls back to search-mode decode instead of letting
    this escape; strict imports surface it as CLI exit code 8.
    """

    def __init__(self, message: str, *, check: str = None, path=None,
                 offset: int = None, point: int = None):
        super().__init__(message)
        self.check = check
        self.path = path
        self.offset = offset
        self.point = point

    def __str__(self) -> str:
        message = super().__str__()
        return f"[{self.check}] {message}" if self.check else message


class NetworkError(ReproError):
    """A remote range read failed after the configured resilience budget.

    Raised by :mod:`repro.io.remote` when an HTTP range request (or any
    wrapped reader's ``pread``) keeps failing past the retry ladder, the
    per-read deadline, or while the circuit breaker is open. Carries the
    failing range so the CLI can print *which* bytes were unreachable:
    ``url`` names the origin (``None`` for non-HTTP sources), ``offset``/
    ``size`` the requested range, and ``attempts`` how many tries were
    burned before giving up. ``circuit_open`` marks fail-fast rejections
    issued without touching the wire.
    """

    def __init__(self, message: str, *, url: str = None, offset: int = None,
                 size: int = None, attempts: int = None,
                 circuit_open: bool = False):
        super().__init__(message)
        self.url = url
        self.offset = offset
        self.size = size
        self.attempts = attempts
        self.circuit_open = circuit_open


class SourceChangedError(NetworkError):
    """The remote object changed underneath an ongoing decode.

    Raised when a response's ETag/``Last-Modified`` validators (or the
    advertised size) no longer match what was captured at open — the
    same philosophy as the index store's fingerprint binding: mixing
    bytes from two object generations would produce silent garbage, so
    the mismatch surfaces as a structured error instead. Never retried
    and never absorbed by tolerant mode.
    """


class ChunkDecodeError(ReproError):
    """A chunk the consumer is blocked on could not be decoded.

    Carries the failure context — which chunk, where it starts, and
    whether the fetcher was on ``threads`` or ``serial`` — so callers (and
    the CLI error message) can say more than "decode failed". The
    triggering error is chained as ``__cause__``.
    """

    def __init__(self, message: str, *, chunk_id: int = None,
                 start_bit: int = None, backend: str = None):
        super().__init__(message)
        self.chunk_id = chunk_id
        self.start_bit = start_bit
        self.backend = backend


#: CLI exit codes per failure class (0 = success, 1 = other library error).
EXIT_FORMAT = 4
EXIT_INTEGRITY = 5
# 6 meant "worker process crashed"; retired with the process backend, not reused
EXIT_RECOVERY = 7
EXIT_INDEX = 8
EXIT_NETWORK = 9


def exit_code_for(error: BaseException) -> int:
    """Map an exception to the CLI exit code for its failure class.

    Walks the ``__cause__`` chain so a wrapping :class:`ChunkDecodeError`
    reports the class of the error that actually broke the chunk.
    """
    seen = set()
    cursor = error
    while cursor is not None and id(cursor) not in seen:
        seen.add(id(cursor))
        if isinstance(cursor, NetworkError):
            return EXIT_NETWORK
        if isinstance(cursor, IndexIntegrityError):
            return EXIT_INDEX
        if isinstance(cursor, RecoveryError):
            return EXIT_RECOVERY
        if isinstance(cursor, IntegrityError):
            return EXIT_INTEGRITY
        if isinstance(cursor, FormatError):
            return EXIT_FORMAT
        cursor = cursor.__cause__
    if isinstance(error, ChunkDecodeError):
        return EXIT_FORMAT
    return 1

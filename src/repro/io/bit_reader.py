"""LSB-first bit reader over a :class:`FileReader` (paper §4.1, Fig. 7).

Deflate packs bits starting at the least-significant bit of each byte
(RFC 1951 §3.1.1). The reader keeps an integer bit buffer refilled up to
eight bytes at a time from a chunked read cache, so the per-call cost is
dominated by a shift and a mask — the paper's observation that throughput
grows with bits-per-read holds here for the same reason (fixed per-call
overhead amortized over more bits).

Every decompression thread owns its own ``BitReader`` instance. Instances
read only through the underlying reader's positionless ``pread``, so any
number of them share one :class:`FileReader` without locking (paper §4.1).
"""

from __future__ import annotations

import io

from ..errors import TruncatedError, UsageError
from .file_reader import FileReader, ensure_file_reader

__all__ = ["BitReader"]

_DEFAULT_CACHE_SIZE = 128 * 1024


class BitReader:
    """Sequential bit-granular reader with ``read``/``peek``/``seek``/``tell``.

    ``read(n)`` and ``peek(n)`` support 0 <= n <= 57 bits per call (the
    buffer refills in whole bytes, so requests must leave headroom below
    Python's practical fast-int range; Deflate never needs more than 48).
    """

    MAX_BITS_PER_CALL = 57

    def __init__(self, source, cache_size: int = _DEFAULT_CACHE_SIZE) -> None:
        if cache_size < 8:
            raise UsageError("cache_size must be at least 8 bytes")
        self._reader: FileReader = ensure_file_reader(source)
        self._cache_size = cache_size
        self._size_bytes = self._reader.size()
        self._chunk: bytes = b""
        self._chunk_start = 0  # byte offset of self._chunk[0] in the file
        self._byte_position = 0  # next file byte to pull into the bit buffer
        self._buffer = 0
        self._buffer_bits = 0

    # -- introspection -------------------------------------------------------

    def size_in_bits(self) -> int:
        return self._size_bytes * 8

    def size_in_bytes(self) -> int:
        return self._size_bytes

    def tell(self) -> int:
        """Current position in *bits* from the start of the input."""
        return self._byte_position * 8 - self._buffer_bits

    def remaining_bits(self) -> int:
        return self.size_in_bits() - self.tell()

    def eof(self) -> bool:
        return self._buffer_bits == 0 and self._byte_position >= self._size_bytes

    # -- refill --------------------------------------------------------------

    def _refill(self, need_bits: int) -> None:
        buffer_bits = self._buffer_bits
        while buffer_bits < need_bits:
            offset = self._byte_position - self._chunk_start
            if offset < 0 or offset >= len(self._chunk):
                self._chunk = self._reader.pread(self._byte_position, self._cache_size)
                self._chunk_start = self._byte_position
                if not self._chunk:
                    break  # EOF: leave whatever bits we have
                offset = 0
            take = len(self._chunk) - offset
            if take > 7:
                take = 7  # keep the buffer below 64 bits for fast-path ints
            word = int.from_bytes(self._chunk[offset : offset + take], "little")
            self._buffer |= word << buffer_bits
            buffer_bits += take * 8
            self._byte_position += take
        self._buffer_bits = buffer_bits

    # -- core bit operations -------------------------------------------------

    def read(self, count: int) -> int:
        """Consume and return ``count`` bits as an integer (LSB-first).

        Raises :class:`TruncatedError` if fewer than ``count`` bits remain.
        """
        if self._buffer_bits < count:
            self._refill(count)
            if self._buffer_bits < count:
                raise TruncatedError(
                    f"requested {count} bits but only {self._buffer_bits} remain"
                )
        value = self._buffer & ((1 << count) - 1)
        self._buffer >>= count
        self._buffer_bits -= count
        return value

    def peek(self, count: int) -> int:
        """Return the next ``count`` bits without consuming them.

        Near EOF the result is zero-padded — this lets lookup-table decoders
        and the block finder probe the final bits without special cases.
        """
        if self._buffer_bits < count:
            self._refill(count)
        return self._buffer & ((1 << count) - 1)

    def skip(self, count: int) -> None:
        """Advance the position by ``count`` bits.

        Raises :class:`TruncatedError` when the skip would move past the
        end of the input. This is what stops Huffman decode loops at EOF:
        ``peek`` zero-pads, so a table whose all-zero prefix is a valid
        symbol would otherwise decode phantom symbols forever.
        """
        if count <= self._buffer_bits:
            self._buffer >>= count
            self._buffer_bits -= count
        else:
            target = self.tell() + count
            if target > self.size_in_bits():
                raise TruncatedError(
                    f"skip of {count} bits would pass the end of input"
                )
            self.seek(target)

    def seek(self, bit_offset: int, whence: int = io.SEEK_SET) -> int:
        """Position the reader at an absolute/relative *bit* offset."""
        if whence == io.SEEK_CUR:
            bit_offset += self.tell()
        elif whence == io.SEEK_END:
            bit_offset += self.size_in_bits()
        elif whence != io.SEEK_SET:
            raise UsageError(f"invalid whence: {whence}")
        if bit_offset < 0:
            raise UsageError(f"negative bit offset: {bit_offset}")

        byte_offset, bit_remainder = divmod(bit_offset, 8)
        self._buffer = 0
        self._buffer_bits = 0
        self._byte_position = byte_offset
        if bit_remainder:
            self._refill(8)
            consume = min(bit_remainder, self._buffer_bits)
            self._buffer >>= consume
            self._buffer_bits -= consume
        return bit_offset

    # -- state export for readers that bypass the method calls ---------------

    def export_state(self) -> tuple:
        """Snapshot the bit-buffer state for code that reads the cached
        bytes directly.

        Returns ``(buffer, buffer_bits, byte_position, chunk, chunk_start,
        pread, cache_size)``: the mutable cursor, then what
        :meth:`_refill` reads with. The libz header check
        (:mod:`repro.deflate.libz`) parses straight out of ``chunk``.
        """
        return (
            self._buffer,
            self._buffer_bits,
            self._byte_position,
            self._chunk,
            self._chunk_start,
            self._reader.pread,
            self._cache_size,
        )

    def import_state(self, state: tuple) -> None:
        """Position the reader on a cursor built elsewhere (the libz chunk
        stream hands over its slab, the block finder its window).

        Accepts the first five elements of an :meth:`export_state` tuple:
        ``(buffer, buffer_bits, byte_position, chunk, chunk_start)``.
        """
        (
            self._buffer,
            self._buffer_bits,
            self._byte_position,
            self._chunk,
            self._chunk_start,
        ) = state

    # -- byte-oriented fast paths --------------------------------------------

    def align_to_byte(self) -> int:
        """Discard bits up to the next byte boundary; return bits skipped."""
        misalignment = self.tell() & 7
        if misalignment:
            self.read(8 - misalignment)
            return 8 - misalignment
        return 0

    def read_bytes(self, nbytes: int) -> bytes:
        """Read ``nbytes`` whole bytes; requires byte alignment.

        This is the fast path for Non-Compressed block payloads: buffered
        bytes are drained, then the remainder is sliced from the bytes
        already read when they hold it (a gzip footer and header after a
        libz chunk stream's slab), else served by one bulk positional read
        that bypasses the bit buffer entirely.
        """
        if self.tell() & 7:
            raise UsageError("read_bytes requires byte alignment")
        pieces = []
        remaining = nbytes
        while remaining > 0 and self._buffer_bits >= 8:
            pieces.append(self._buffer & 0xFF)
            self._buffer >>= 8
            self._buffer_bits -= 8
            remaining -= 1
        head = bytes(pieces)
        if remaining == 0:
            return head
        start = self._byte_position - self._buffer_bits // 8
        offset = start - self._chunk_start
        if 0 <= offset and offset + remaining <= len(self._chunk):
            bulk = self._chunk[offset : offset + remaining]
        else:
            bulk = self._reader.pread(start, remaining)
        if len(bulk) < remaining:
            raise TruncatedError(
                f"requested {nbytes} bytes but input ended after {len(head) + len(bulk)}"
            )
        # Drop buffered bits (they were part of what we just bulk-read).
        self._buffer = 0
        self._buffer_bits = 0
        self._byte_position = start + remaining
        return head + bulk

    # -- lifecycle -----------------------------------------------------------

    def clone(self) -> "BitReader":
        """Independent reader over the same data, positioned at bit 0."""
        return BitReader(self._reader.clone(), self._cache_size)

    def close(self) -> None:
        self._reader.close()

    def __enter__(self) -> "BitReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

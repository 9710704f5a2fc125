"""Chunk decoding at libz speed: a bit-exact ``ctypes`` inflater (paper
§3.3, §4.4; first stage after pugz, PAPERS.md).

The stdlib ``zlib`` module cannot start at a bit offset or stop at a block
boundary; the libz it links can: ``inflatePrime`` feeds the leading partial
byte, ``inflateSetDictionary`` the window, and ``inflate(Z_BLOCK)`` returns
at every block end with the unused bit count in ``data_type``.
:class:`ChunkStream` drives that for one chunk behind the interface
``repro.fetcher.decode.decode_chunk_range`` loops over.

With a known window it is one stream. With ``window=None`` it is *two* in
lock-step over the same input, whose dictionaries spell out the window
offset: ``LOW[w] = w & 0xFF`` and ``MIX[w] = LOW[w] ^ (0x80 | w >> 8)``. A
Deflate stream's block structure and back-reference graph do not depend on
window *contents*, so both take identical decisions; a literal comes out
equal in both, a byte that came from the window differs (the taint) by a
value whose bit 7 is set and whose low bits are ``w >> 8``, so the symbol is
``LOW | (LOW ^ MIX) << 8`` — ``MARKER_FLAG | w``, the marker the Python
first stage emits, bit for bit. Once the trailing 32 Ki symbols at a block
boundary are untainted the probe is closed and the chunk continues
single-pass into ``bytes`` segments (§4.4's hand-off). A chunk whose
extent an index gives is read in one ``pread`` and inflated straight into
the one ``bytes`` object it becomes — allocated once, at the extent's
length, never copied. The Python decoder (:mod:`repro.deflate.block`)
stays: the no-libz path, this module's oracle, Table 2's row.
:class:`HeaderCheck` is the block finder's strict stage on the same library.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
import threading
import zlib

import numpy as np

from ..errors import DeflateError, TruncatedError
from ..gz.crc32 import crc32_combine as reference_crc32_combine
from ..io import BitReader
from .constants import MAX_WINDOW_SIZE
from .inflate import BlockBoundary
from .markers import ChunkPayload

__all__ = ["load", "ChunkStream", "HeaderCheck", "crc32_combine", "header_check"]

_Z_NO_FLUSH, _Z_BLOCK, _Z_TREES = 0, 5, 6
_Z_OK, _Z_STREAM_END, _Z_BUF_ERROR = 0, 1, -5
_OUT_SIZE = 256 * 1024  # output buffered per stream between flushes
_REFILL = 128 * 1024
#: Read this far past the stop offset: the block that crosses it must end
#: (zlib's are under 25 KiB at the default memLevel; longer ones refill).
_PAST_STOP = 32 * 1024
#: Past a known extent's end only the next block header is read (and, at a
#: member boundary, the next gzip header).
_TAIL = 64

#: ``PyBytes_FromStringAndSize(NULL, n)``: a fresh, unshared ``bytes`` of
#: ``n`` uninitialised bytes that libz fills before anyone else sees it.
_fresh_bytes = ctypes.PYFUNCTYPE(
    ctypes.py_object, ctypes.c_void_p, ctypes.c_ssize_t
)(("PyBytes_FromStringAndSize", ctypes.pythonapi))
#: ``next_out`` of an empty known-size chunk: may not be NULL, never written.
_SINK = ctypes.create_string_buffer(1)
_NOWHERE = ctypes.addressof(_SINK)


class _ZStream(ctypes.Structure):
    _fields_ = [
        ("next_in", ctypes.c_void_p), ("avail_in", ctypes.c_uint),
        ("total_in", ctypes.c_ulong), ("next_out", ctypes.c_void_p),
        ("avail_out", ctypes.c_uint), ("total_out", ctypes.c_ulong),
        ("msg", ctypes.c_char_p), ("state", ctypes.c_void_p),
        ("zalloc", ctypes.c_void_p), ("zfree", ctypes.c_void_p),
        ("opaque", ctypes.c_void_p), ("data_type", ctypes.c_int),
        ("adler", ctypes.c_ulong), ("reserved", ctypes.c_ulong),
    ]


def _candidates():
    """Names to ``dlopen``, best first: the file the ``zlib`` module has
    mapped, then the platform sonames. ``ctypes.util.find_library`` is not
    used on purpose — it forks ``ldconfig``/``gcc``, and a reaped child
    that inherited a reader's pages counts into its peak resident size."""
    try:
        with open("/proc/self/maps") as maps:
            paths = [line.split(None, 5)[-1].strip() for line in maps]
    except OSError:
        paths = []
    yield from (p for p in paths if os.path.basename(p).startswith("libz."))
    yield from ("libz.so.1", "libz.dylib", "zlib1.dll")


@functools.lru_cache(maxsize=None)
def load():
    """This process's libz as a ``ctypes`` library, or ``None`` (then the
    Python decoder serves). Tried once; never an error."""
    for name in _candidates():
        try:
            library = ctypes.CDLL(name)
            library.zlibVersion.restype = ctypes.c_char_p
            if library.zlibVersion().decode() != zlib.ZLIB_RUNTIME_VERSION:
                continue
            stream = ctypes.POINTER(_ZStream)
            library.inflateInit2_.argtypes = (
                stream, ctypes.c_int, ctypes.c_char_p, ctypes.c_int)
            library.inflatePrime.argtypes = (stream, ctypes.c_int, ctypes.c_int)
            library.inflateSetDictionary.argtypes = (
                stream, ctypes.c_char_p, ctypes.c_uint)
            library.inflate.argtypes = (stream, ctypes.c_int)
            library.inflateReset.argtypes = library.inflateEnd.argtypes = (stream,)
            library.crc32_combine.argtypes = (
                ctypes.c_ulong, ctypes.c_ulong, ctypes.c_long)
            library.crc32_combine.restype = ctypes.c_ulong
        except (OSError, AttributeError):
            continue
        return library
    return None


def crc32_combine(crc1: int, crc2: int, length2: int) -> int:
    """CRC-32 of ``A + B`` from ``crc32(A)``, ``crc32(B)`` and ``len(B)``:
    libz's, or :func:`repro.gz.crc32.crc32_combine` (the same arithmetic
    in Python, ten to thirty times slower) where libz cannot be loaded."""
    if not crc1:
        return crc2  # A's register shifts as zero: no call, either way
    library = load()
    if library is None:
        return reference_crc32_combine(crc1, crc2, length2)
    return library.crc32_combine(crc1, crc2, length2)


def _raw_inflater(library) -> _ZStream:
    """A raw-Deflate ``z_stream`` — C memory the caller must ``inflateEnd``."""
    stream = _ZStream()
    if library.inflateInit2_(
        ctypes.byref(stream), -15,
        zlib.ZLIB_RUNTIME_VERSION.encode(), ctypes.sizeof(stream),
    ) != _Z_OK:
        raise MemoryError("inflateInit2 failed")
    return stream


def _address(data: bytes) -> int:
    """``data``'s bytes for ``next_in``, not copied: the caller keeps it alive."""
    return ctypes.cast(ctypes.c_char_p(data), ctypes.c_void_p).value


@functools.lru_cache(maxsize=None)
def _probe_dictionaries() -> tuple:
    offsets = np.arange(MAX_WINDOW_SIZE, dtype=np.uint16)
    low = offsets.astype(np.uint8)
    mix = low ^ (0x80 | offsets >> 8).astype(np.uint8)
    return low.tobytes(), mix.tobytes()


class ChunkStream:
    """One chunk's Deflate blocks through libz, block by block.

    ``position`` is the bit offset of the next block header (after a final
    block: of the bit after it — the gzip footer starts at the next byte
    boundary). C state is invisible to the garbage collector: ``close``
    (``inflateEnd`` on every stream) must run on every exit path.
    """

    def __init__(self, library, file_reader, start_bit: int, stop_bit: int,
                 window: bytes, max_size: int = None, size: int = None):
        self._streams = []
        self._library = library
        self._file = file_reader
        self._stop_byte = 0 if stop_bit is None else stop_bit // 8
        self._max_size = max_size
        self._slab = b""
        self._slab_start = self._slab_address = self._offset = self._fill = 0
        self._clean = 0  # trailing output symbols known to be untainted
        self.payload = ChunkPayload()
        self.boundaries: list = []
        self.produced = 0
        dictionaries = (_probe_dictionaries() if window is None
                        else (bytes(window[-MAX_WINDOW_SIZE:]),))
        #: ``size`` known: the chunk's extent is, so its input is read in
        #: one ``pread`` and its output decoded straight into one ``bytes``
        #: object of that size — the payload, no staging, no copy.
        self._size = size
        if size is None:
            self._first_read = _REFILL  # a false positive dies within it
            self._outs = [np.empty(_OUT_SIZE, dtype=np.uint8)
                          for _ in dictionaries]
            self._targets = [out.ctypes.data for out in self._outs]
            self._capacity = _OUT_SIZE
        else:
            end = file_reader.size() if stop_bit is None else self._stop_byte + _TAIL
            self._first_read = end - start_bit // 8
            self._final = _fresh_bytes(None, size) if size else b""
            # The empty result is CPython's shared singleton: never a target.
            self._targets = [_address(self._final) if size else _NOWHERE]
            self._capacity = size
        try:
            for _ in dictionaries:
                self._streams.append(_raw_inflater(library))
            self.restart(start_bit, dictionaries)
        except BaseException:
            self.close()
            raise

    def _read_slab(self, byte: int) -> None:
        """One ``pread`` per slab, shared by all streams without a copy."""
        size = self._first_read
        if self._slab:
            size = max(_REFILL, self._stop_byte - byte + _PAST_STOP)
        self._slab = bytes(self._file.pread(byte, size))
        if not self._slab:
            raise TruncatedError("input ended inside a Deflate stream")
        self._slab_start = byte
        self._slab_address = _address(self._slab)
        self._offset = 0

    def restart(self, bit_offset: int, dictionaries=()) -> None:
        """Begin a Deflate stream at exactly ``bit_offset`` — the chunk's
        start, or the next gzip member, whose window is empty."""
        byte, bit = divmod(bit_offset, 8)
        self._offset = byte - self._slab_start
        if not 0 <= self._offset < len(self._slab):
            self._read_slab(byte)
        library, lead = self._library, self._slab[self._offset] >> bit
        padded = itertools.zip_longest(self._streams, dictionaries, fillvalue=b"")
        for stream, dictionary in padded:
            library.inflateReset(stream)
            if dictionary:
                library.inflateSetDictionary(stream, dictionary, len(dictionary))
            if bit:
                library.inflatePrime(stream, 8 - bit, lead)
        self._offset += bool(bit)
        self.position = bit_offset

    def peek_header(self) -> int:
        """The three header bits at ``position`` (zero-padded at EOF)."""
        byte, bit = divmod(self.position, 8)
        index = byte - self._slab_start
        pair = self._slab[index : index + 2]
        if len(pair) < 2:  # slab seam
            pair = self._file.pread(byte, 2)
        return (int.from_bytes(pair, "little") >> bit) & 0b111

    def byte_reader(self) -> BitReader:
        """A :class:`BitReader` at the next byte boundary, primed with the
        slab (a gzip footer and the next header usually lie inside it)."""
        reader = BitReader(self._file)
        reader.import_state(
            (0, 0, (self.position + 7) // 8, self._slab, self._slab_start))
        return reader

    def _inflate(self, stream, target: int, room: int,
                 flush: int = _Z_BLOCK) -> int:
        """One ``inflate`` call into the output at ``target`` (an address);
        returns the bytes it produced."""
        stream.next_in = self._slab_address + self._offset
        stream.avail_in = len(self._slab) - self._offset
        stream.next_out = target + self._fill
        stream.avail_out = room
        status = self._library.inflate(stream, flush)
        if status == _Z_STREAM_END and flush != _Z_BLOCK:
            # A final block ended inside the run: mark the boundary the way
            # Z_BLOCK would have (``data_type`` already holds BFINAL and the
            # unused bits; libz rewrites the field on every call).
            stream.data_type |= 128
        elif status not in (_Z_OK, _Z_BUF_ERROR):
            # Z_BLOCK returns before a stream's end is processed, so even
            # Z_STREAM_END means a caller ran past a final block.
            message = stream.msg.decode() if stream.msg else f"status {status}"
            raise DeflateError(f"libz: {message}")
        return room - stream.avail_out

    def next_block(self) -> bool:
        """Decode the block at ``position``; returns its BFINAL bit."""
        header = self.peek_header()
        self.boundaries.append(BlockBoundary(
            self.position, self.produced, header >> 1, bool(header & 1)))
        main = self._streams[0]
        while True:
            if self._offset >= len(self._slab):
                self._read_slab(self._slab_start + len(self._slab))
            room = self._capacity - self._fill
            if self._max_size is not None:
                # One byte of slack makes "exceeds" exact.
                room = min(room, self._max_size + 1 - self.produced)
            flush = _Z_BLOCK
            if self._size is not None and room > 1:
                # Known size: run across blocks (every Z_BLOCK return costs
                # libz a window update) but stop one byte short, so that
                # the extent's last block boundary is still ahead.
                room, flush = room - 1, _Z_NO_FLUSH
            count = self._inflate(main, self._targets[0], room, flush)
            if len(self._streams) > 1:
                self._run_probe(count, main.avail_in)
            self._offset = len(self._slab) - main.avail_in
            self._fill += count
            self.produced += count
            if self._max_size is not None and self.produced > self._max_size:
                raise DeflateError("decoded chunk exceeds configured maximum size")
            if self._fill == self._capacity and self._size is None:
                self._flush()
            if main.data_type & 128:
                break
            if self._fill == self._capacity and main.avail_in:
                # Known size, all of it produced, and the block goes on
                # (libz still reads an end-of-block code with no room).
                raise DeflateError(
                    f"chunk decodes past its declared {self._size} bytes")
        consumed_bits = (self._slab_start + self._offset) * 8
        self.position = consumed_bits - (main.data_type & 63)
        if len(self._streams) > 1 and self._clean >= MAX_WINDOW_SIZE:
            # §4.4: the window is marker-free, so LOW's history *is* the
            # data — carry on single-pass.
            self._flush()
            self.close(keep=1)
        return bool(main.data_type & 64)

    def _run_probe(self, count: int, main_left: int) -> None:
        """Level MIX with the main pass; extend the clean run."""
        stream = self._streams[1]
        produced = self._inflate(stream, self._targets[1], count)
        if (produced, stream.avail_in) != (count, main_left):
            raise DeflateError("libz: probe passes diverged")
        span = slice(self._fill, self._fill + count)
        taint = self._outs[0][span] != self._outs[1][span]
        if taint.any():
            self._clean = int(taint[::-1].argmax())
        else:
            self._clean += count

    def _flush(self) -> None:
        fill, self._fill = self._fill, 0
        low = self._outs[0][:fill]
        if len(self._streams) == 1:
            self.payload.append_bytes(low.tobytes())
            return
        # LOW ^ MIX is 0 for a literal and 0x80 | w >> 8 for window byte w:
        # shifted up it is MARKER_FLAG and the offset's high bits at once.
        symbols = (low ^ self._outs[1][:fill]).astype(np.uint16)
        symbols <<= 8
        symbols |= low
        self.payload.append_symbol_bytes(memoryview(symbols).cast("B"))

    def finish(self) -> ChunkPayload:
        if self._size is None:
            self._flush()
        else:
            self.payload.append_bytes(self._final)
        return self.payload

    def close(self, keep: int = 0) -> None:
        """``inflateEnd`` every stream but the first ``keep``."""
        while len(self._streams) > keep:
            self._library.inflateEnd(self._streams.pop())

    __del__ = close  # backstop only


class HeaderCheck:
    """The block finder's strict stage (§3.4.2) by libz: one raw inflater,
    reset per candidate, that parses a Dynamic Block header and returns
    where it ends (``Z_TREES``), never given room for output."""

    def __init__(self, library):
        self._library = library
        self._stream = _raw_inflater(library)
        # No room for output, ever — but next_out may not be NULL.
        self._sink = ctypes.create_string_buffer(8)
        self._stream.next_out = ctypes.addressof(self._sink)

    def rejection(self, bits, bit_offset: int):
        """``None`` if a valid non-final Dynamic Block header starts at
        ``bit_offset``, else what is wrong with it: libz's message, or
        ``b""`` for one cut off by the end of the file. Reads from the bytes
        ``bits`` (a :class:`BitReader`) holds; a header running past them is
        followed one cache-size read into the file, as ``bits`` would."""
        _, _, _, data, data_start, pread, follow = bits.export_state()
        byte, bit = divmod(bit_offset, 8)
        index = byte - data_start
        if not 0 <= index < len(data):
            data, data_start, index = pread(byte, follow), byte, 0
        head = int.from_bytes(data[index : index + 2], "little") >> bit
        if head & 0b111 != 0b100:  # Z_TREES would also stop after other types
            return b"invalid final block" if head & 1 else b"invalid block type"
        library, stream = self._library, self._stream
        library.inflateReset(stream)
        if bit:
            library.inflatePrime(stream, 8 - bit, head)
            index += 1
        stream.next_in, stream.avail_in = _address(data) + index, len(data) - index
        status = library.inflate(stream, _Z_TREES)
        if status in (_Z_OK, _Z_BUF_ERROR) and not stream.data_type & 256:
            tail = pread(data_start + len(data), follow)
            stream.next_in, stream.avail_in = _address(tail), len(tail)
            status = library.inflate(stream, _Z_TREES)
        if status in (_Z_OK, _Z_BUF_ERROR):
            return None if stream.data_type & 256 else b""
        return stream.msg or b""

    def __del__(self):
        self._library.inflateEnd(self._stream)


_thread = threading.local()


def header_check():
    """This thread's :class:`HeaderCheck` (its stream is C memory: one per
    thread, not one per finder), or ``None`` where libz cannot be loaded."""
    library = load()
    if library is None:
        return None
    check = getattr(_thread, "header_check", None)
    if check is None:
        check = _thread.header_check = HeaderCheck(library)
    return check

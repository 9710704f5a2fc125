"""Worker-side chunk decoding (paper §3.3).

One decode path, :func:`decode_chunk_range`: start at a known (or
candidate) bit offset, first stage (markers) when the window is unknown,
conventional when it is known, stopping at the first Dynamic or
Non-Compressed non-final block at/after the stop offset (the finder's
predicate, so the next chunk's offset is findable — §3.3's parity).
Blocks run bit-exactly through the chunk engine (:func:`open_chunk_stream`):
libz (:mod:`repro.deflate.libz`: one pass with the window, two probe passes
without), or the Python two-stage decoder where libz cannot be loaded; no
option selects. Recovery (:mod:`repro.recovery`) decodes through the same
engine.

A chunk whose whole extent is known — an index interval, a catalog chunk,
a BGZF member group (§3.4.4) or a chunk already on the search-mode chain —
is the same loop run *exact* (:func:`decode_index_chunk`, the paper's
">2x faster than two-stage" mode): one conventional pass straight into a
buffer of the chunk's length, ending with a proof that the extent is what
the index says it is.

Gzip stream boundaries *inside* a chunk are handled inline: footers are
parsed and recorded as events (for CRC/ISIZE verification upstream), and
decoding continues into the next member.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from ..blockfinder import CombinedBlockFinder, canonical_nc_offset
from ..deflate import libz
from ..deflate.inflate import TwoStageStreamDecoder
from ..deflate.markers import ChunkPayload
from ..errors import FormatError, TruncatedError
from ..gz.header import MAGIC, parse_gzip_footer, parse_gzip_header
from ..io import BitReader
from ..telemetry.recorder import NULL_RECORDER

__all__ = [
    "ChunkResult",
    "StreamEvent",
    "decode_chunk_range",
    "decode_index_chunk",
    "open_chunk_stream",
    "speculative_decode",
    "zlib_decode_range",
    "shift_to_byte_alignment",
]


@dataclass
class StreamEvent:
    """A gzip member boundary crossed while decoding a chunk."""

    kind: str  # "footer" | "header"
    local_offset: int  # chunk-local decompressed offset of the boundary
    crc32: int = 0  # footer only
    isize: int = 0  # footer only


@dataclass
class ChunkResult:
    """Everything a decode task hands back through the cache."""

    start_bit: int  # normalized offset decoding actually started at
    end_bit: int  # normalized next-chunk offset; None at file end
    end_is_stream_start: bool
    payload: ChunkPayload
    events: list = field(default_factory=list)
    boundaries: list = field(default_factory=list)
    window_known: bool = False
    speculative: bool = False
    compressed_size_bits: int = 0
    #: True when the decode stopped early at a Deflate block boundary
    #: because the output hit the per-chunk decompressed ceiling; the
    #: chunk chain resumes at ``end_bit`` like after any other chunk.
    split: bool = False
    #: The window at ``end_bit``, once :meth:`next_window` resolved it.
    end_window: bytes = field(default=None, repr=False)

    @property
    def length(self) -> int:
        return self.payload.length

    def next_window(self, window: bytes) -> bytes:
        """The window at ``end_bit`` of this chunk decoded from ``window``.

        Resolved once, by whoever needs it first — a worker extending the
        fetcher's chain record or the reader advancing its frontier; only
        the trailing 32 KiB is touched (``ChunkPayload.window_at_end``).
        """
        if self.end_window is None:
            self.end_window = (
                b"" if self.end_is_stream_start
                else self.payload.window_at_end(window)
            )
        return self.end_window


def _skip_member_header(file_reader, start_bit: int) -> int:
    """If a gzip member header sits at a byte-aligned ``start_bit``, return
    the bit offset of its Deflate data; otherwise return ``start_bit``.

    Catalog-built seek points (BGZF's too) address the member header. The
    check cannot misfire on a legitimate chunk: a decodable chunk starts
    with a non-final Dynamic or Non-Compressed block whose low three bits
    are never 0b111, while the gzip magic's first byte is 0x1F.
    """
    if start_bit % 8:
        return start_bit
    if file_reader.pread(start_bit // 8, 2) != MAGIC:
        return start_bit
    reader = BitReader(file_reader)
    reader.seek(start_bit)
    parse_gzip_header(reader)
    return reader.tell()


def decode_chunk_range(
    file_reader,
    start_bit: int,
    stop_bit: int,
    window: bytes,
    *,
    max_output: int = None,
    split_output: int = None,
    expected_size: int = None,
) -> ChunkResult:
    """Decode from ``start_bit`` until the stop condition or file end.

    ``window=None`` selects two-stage (marker) decoding; a ``bytes`` window
    selects conventional decoding. Raises :class:`FormatError` if the data
    at ``start_bit`` is not a decodable chain of Deflate blocks — exactly
    the signal the speculative caller uses to advance to the next
    candidate.

    ``split_output`` is the per-chunk decompressed-size *ceiling*: the
    memory budget's, or — for the on-demand decode a read smaller than a
    chunk is blocked on — the bytes that read asked for, whichever is
    lower. Once at least one block is decoded and the output reaches it,
    decoding stops at the next Deflate block boundary and returns a
    **resumable partial result** (``split=True``) whose ``end_bit``
    continues the chunk chain — so one high-ratio "bomb" chunk becomes
    many budget-sized chunks instead of one giant allocation, and a
    small cold read waits for its blocks only. Unlike ``max_output`` (a
    hard error), splitting loses no work: everything decoded so far is
    verified output. A single block larger than the ceiling cannot be
    split (Deflate blocks are atomic here); ``max_output`` remains the
    backstop for that case, enforced inside the block (at most one match
    past the limit).

    ``expected_size`` makes the decode *exact*: the chunk's extent is
    known, its output is written into one buffer of that size, and the
    decode stops at the block boundary where the output reaches it — which
    must be ``stop_bit`` (normalized when a stored block follows), or, for
    ``stop_bit=None``, the end of the last member before the end of the
    file. Anything else raises :class:`FormatError`.
    """
    requested_start = start_bit
    start_bit = _skip_member_header(file_reader, start_bit)
    size_bits = file_reader.size() * 8
    events: list = []
    end_bit = None
    end_is_stream_start = False
    split = False
    tail_bit = start_bit

    with open_chunk_stream(
        file_reader, start_bit, window, stop_bit=stop_bit,
        max_output=max_output, size=expected_size,
    ) as stream:
        while True:
            position = stream.position
            if position >= size_bits:
                raise TruncatedError("input ended inside a Deflate stream")
            if expected_size is not None:
                if stop_bit is not None and stream.produced >= expected_size:
                    if position != stop_bit and not stream.peek_header() & 0b110:
                        # A stored block's key may be its canonical offset,
                        # as in the stop predicate below.
                        position = canonical_nc_offset(position)
                    if position == stop_bit:
                        end_bit = stop_bit
                        break
                    if position > stop_bit:
                        raise FormatError(
                            f"chunk output ends at bit {position}, not at "
                            f"its declared end {stop_bit}"
                        )
            elif (
                split_output is not None
                and stream.boundaries
                and stream.produced >= split_output
            ):
                # The loop top is always a clean block boundary (the last
                # block was non-final), so resuming an exact decode here is
                # safe with the propagated window — no normalization needed,
                # the emitted offset and the resume request are the same key.
                end_bit = position
                split = True
                break
            elif stop_bit is not None and stream.boundaries:
                probe = stream.peek_header()
                final_bit = probe & 1
                block_type = (probe >> 1) & 0b11
                if not final_bit and block_type in (0b00, 0b10):
                    # Compare the *normalized* offset: a Non-Compressed
                    # block's true header sits up to 7 zero-padding bits
                    # before its canonical offset, and the block finder (so
                    # the next chunk's key) only sees the canonical (§3.4.1).
                    normalized = position
                    if block_type == 0:
                        normalized = canonical_nc_offset(position)
                    if normalized >= stop_bit:
                        end_bit = normalized
                        break
            if not stream.next_block():
                continue

            # End of a Deflate stream: gzip footer, then maybe another member.
            reader = stream.byte_reader()
            footer = parse_gzip_footer(reader)
            events.append(
                StreamEvent("footer", stream.produced, footer.crc32, footer.isize)
            )
            tail_bit = reader.tell()
            byte_position = tail_bit // 8
            probe_bytes = file_reader.pread(byte_position, 2)
            if probe_bytes == MAGIC:
                parse_gzip_header(reader)
                if (
                    stop_bit is not None and tail_bit >= stop_bit
                    # An exact chunk may end at the next member's header or
                    # Deflate data; if at the latter, the loop top stops it.
                    and (expected_size is None or tail_bit == stop_bit)
                ):
                    end_bit = reader.tell()  # next chunk starts at the Deflate data
                    end_is_stream_start = True
                    break
                events.append(StreamEvent("header", stream.produced))
                # Markers cannot legally reach across members: the next one
                # starts with an empty window.
                stream.restart(reader.tell())
                continue
            if not probe_bytes:
                break  # clean end of file
            tail = file_reader.pread(byte_position, 4096)
            if len(tail) < 4096 and not any(tail):
                break  # bgzip-style zero padding
            raise FormatError(
                f"trailing garbage after gzip member at byte {byte_position}"
            )
        if expected_size is not None and (
            stream.produced != expected_size or (stop_bit is None) != (end_bit is None)
        ):
            raise FormatError(
                f"chunk decodes to {stream.produced} bytes ending at bit "
                f"{end_bit}, not to its declared {expected_size} bytes "
                f"ending at bit {stop_bit}"
            )
        payload = stream.finish()

    return ChunkResult(
        start_bit=requested_start,
        end_bit=end_bit,
        end_is_stream_start=end_is_stream_start,
        payload=payload,
        events=events,
        boundaries=stream.boundaries,
        window_known=window is not None,
        compressed_size_bits=(end_bit if end_bit is not None else tail_bit)
        - requested_start,
        split=split,
    )


def open_chunk_stream(file_reader, start_bit: int, window: bytes, *,
                      stop_bit: int = None, max_output: int = None,
                      size: int = None):
    """The chunk engine at ``start_bit``, as a context manager that closes it.

    libz's :class:`~repro.deflate.libz.ChunkStream` wherever libz can be
    loaded, the Python decoder behind the same interface where it cannot;
    no option selects. ``window=None`` decodes with markers; ``size`` is
    the output's length when the chunk's extent is known.
    """
    library = libz.load()
    engine = _PythonChunkStream if library is None else libz.ChunkStream
    return contextlib.closing(engine(
        library, file_reader, start_bit, stop_bit, window, max_output, size
    ))


class _PythonChunkStream(TwoStageStreamDecoder):
    """Where libz cannot be loaded: the Python two-stage decoder behind
    :class:`repro.deflate.libz.ChunkStream`'s interface."""

    def __init__(self, _library, file_reader, start_bit: int, _stop_bit: int,
                 window: bytes, max_size: int, size: int = None):
        if size is not None and (max_size is None or size < max_size):
            max_size = size  # more is an error: never decode it
        super().__init__(window=window, max_size=max_size)
        self._reader = BitReader(file_reader)
        self._reader.seek(start_bit)

    position = property(lambda self: self._reader.tell())

    def restart(self, bit_offset: int) -> None:
        self._reader.seek(bit_offset)  # the buffer just keeps growing

    def peek_header(self) -> int:
        return self._reader.peek(3)

    def next_block(self) -> bool:
        return self.read_and_decode_block(self._reader).final

    def byte_reader(self) -> BitReader:
        self._reader.align_to_byte()
        return self._reader

    def close(self) -> None:
        pass


def speculative_decode(
    file_reader,
    chunk_index: int,
    chunk_size: int,
    *,
    max_output: int = None,
    split_output: int = None,
    max_candidates: int = 32 * 1024,
    telemetry=None,
) -> ChunkResult:
    """Search chunk ``chunk_index`` for a Deflate block and decode from it.

    Implements the trial-and-error first stage: candidates from the block
    finder are tried in order; a candidate that throws is a false positive
    and the search resumes one bit later. Returns ``None`` when the chunk
    window contains no decodable candidate (the caller records this so the
    range is not searched again).

    ``telemetry`` (a :class:`repro.telemetry.Telemetry`) collects the
    paper's Table 1 quantities live: candidates tested vs. accepted,
    per-filter-stage rejections, and decode-attempt false positives.
    """
    recorder = telemetry.recorder if telemetry is not None else NULL_RECORDER
    search_from = chunk_index * chunk_size * 8
    stop_bit = (chunk_index + 1) * chunk_size * 8
    finder = CombinedBlockFinder(file_reader)

    def find_from(bit_offset: int):
        # Every finder call is spanned, retries after a false positive too.
        with recorder.span("chunk.block_find", chunk_id=chunk_index):
            return finder.find_next(bit_offset, until=stop_bit)

    offset = find_from(search_from)
    tried = 0
    false_positives = 0
    result = None
    while offset is not None and tried < max_candidates:
        tried += 1
        try:
            with recorder.span(
                "chunk.decode_attempt", chunk_id=chunk_index, start_bit=offset
            ):
                result = decode_chunk_range(
                    file_reader, offset, stop_bit, None,
                    max_output=max_output, split_output=split_output,
                )
            result.speculative = True
            break
        except FormatError:
            false_positives += 1
            offset = find_from(offset + 1)
    if telemetry is not None:
        metrics = telemetry.metrics
        metrics.counter("blockfinder.candidates_tested").increment(
            finder.dynamic.candidates_tested
        )
        metrics.counter("blockfinder.candidates_accepted").increment(tried)
        metrics.counter("fetcher.decode_false_positives").increment(false_positives)
        for stage, count in finder.dynamic.counter.items():
            metrics.counter(f"blockfinder.reject.{stage}").increment(count)
    return result


def shift_to_byte_alignment(file_reader, start_bit: int, end_bit: int) -> bytes:
    """Extract the compressed range ``[start_bit, end_bit)`` byte-aligned.

    NumPy-vectorized bit shift: ``out[i] = in[i] >> s | in[i+1] << (8-s)``.
    This is the pre-processing that lets zlib decode from an arbitrary bit
    offset.

    With a nonzero shift every output byte needs bits from *two* input
    bytes, so one byte past ``end_byte`` is read as well; when the file
    ends first, a zero byte shifts in instead — previously the trailing
    partial byte (and, on the single-byte path, the whole tail of a range
    ending near EOF) was silently dropped.
    """
    start_byte, shift = divmod(start_bit, 8)
    end_byte = (end_bit + 7) // 8
    length = end_byte - start_byte
    raw = file_reader.pread(start_byte, length + 1)
    if shift == 0:
        return raw[:length]
    arr = np.frombuffer(raw, dtype=np.uint8).astype(np.uint16)
    if len(arr) == 0:
        return b""
    if len(arr) <= length:  # EOF swallowed the lookahead byte
        arr = np.append(arr, np.uint16(0))
    shifted = ((arr[:-1] >> shift) | (arr[1:] << (8 - shift))) & 0xFF
    return shifted[:length].astype(np.uint8).tobytes()


#: Deflate's densest code: a 1-bit length 258 and a 1-bit distance
#: symbol, 258 bytes per 2 bits — 1032 bytes out per byte in.
_MAX_RATIO = 1032


def decode_index_chunk(
    file_reader,
    start_bit: int,
    end_bit: int,
    window: bytes,
    *,
    expected_size: int = None,
    is_last: bool = False,
    max_output: int = None,
    next_window: bytes = None,
) -> ChunkResult:
    """Decode one chunk of known extent in one exact pass (paper §3.3).

    The extent comes from an index (or catalog, BGZF member group, or the
    search-mode chain): start, window, end and decompressed length. Its
    compressed range is read once, its output written straight into one
    buffer of ``expected_size``, and the pass proves the extent: exactly
    ``expected_size`` bytes, ending at ``end_bit`` — or, ``is_last``, at
    the stream's end before the end of the file — and, when the caller
    knows the next seek point's window (``next_window``), a tail that
    reproduces it. Any violation raises :class:`FormatError`; no second
    decoder runs, the same bits would fail the same way.
    """
    stop_bit = None if is_last else end_bit
    size_bits = file_reader.size() * 8
    end = size_bits if stop_bit is None else stop_bit
    if max(start_bit, end) > size_bits:
        raise TruncatedError(
            f"chunk bits {start_bit}-{end} run past the end of the input"
        )
    if (expected_size is not None
            and expected_size > _MAX_RATIO * ((end - start_bit + 7) // 8)):
        raise FormatError(
            f"chunk at bit {start_bit} declares {expected_size} bytes, "
            f"more than Deflate can encode in bits {start_bit}-{end}"
        )
    result = decode_chunk_range(
        file_reader, start_bit, stop_bit, window,
        max_output=max_output, expected_size=expected_size,
    )
    if next_window:
        overlap = min(len(next_window), result.length)
        tail = result.payload.window_at_end()[-overlap:]
        if overlap and tail != next_window[-overlap:]:
            raise FormatError(
                "chunk output does not reproduce the next seek point's window"
            )
    result.end_bit = stop_bit
    return result


def zlib_decode_range(file_reader, start_bit: int, end_bit: int,
                      window: bytes, expected_size: int = None,
                      next_window: bytes = None,
                      require_stream_end: bool = False) -> ChunkResult:
    """:func:`decode_index_chunk` under the name the end-to-end benchmark's
    layer replay imports (ROADMAP item 5(c))."""
    return decode_index_chunk(
        file_reader, start_bit, end_bit, window, expected_size=expected_size,
        is_last=require_stream_end, next_window=next_window,
    )

"""Worker-side chunk decoding (paper §3.3).

Two decode paths, fastest applicable wins:

* :func:`decode_chunk_range` — the general path: start at a known (or
  candidate) bit offset, first stage (markers) when the window is unknown,
  conventional when it is known, stopping at the first Dynamic or
  Non-Compressed non-final block at/after the stop offset (the finder's
  predicate, so the next chunk's offset is findable — §3.3's parity).
  Blocks run bit-exactly through libz (:mod:`repro.deflate.libz`: one pass
  with the window, two probe passes without), through the Python
  two-stage decoder where libz cannot be loaded; no option selects.
* :func:`zlib_decode_range` — index-loaded fast path: bit-shift the
  compressed range to byte alignment and delegate to zlib with the window
  as dictionary (the paper's ">2x faster than two-stage" mode). Chunk
  catalogs and BGZF member groups (§3.4.4) arrive here as index chunks.

Gzip stream boundaries *inside* a chunk are handled inline: footers are
parsed and recorded as events (for CRC/ISIZE verification upstream), and
decoding continues into the next member.
"""

from __future__ import annotations

import contextlib
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..blockfinder import CombinedBlockFinder, canonical_nc_offset
from ..deflate import libz
from ..deflate.inflate import TwoStageStreamDecoder
from ..deflate.markers import ChunkPayload
from ..errors import FormatError, TruncatedError
from ..gz.header import MAGIC, parse_gzip_footer, parse_gzip_header
from ..io import BitReader

__all__ = [
    "ChunkResult",
    "StreamEvent",
    "decode_chunk_range",
    "decode_index_chunk",
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
) -> ChunkResult:
    """Decode from ``start_bit`` until the stop condition or file end.

    ``window=None`` selects two-stage (marker) decoding; a ``bytes`` window
    selects conventional decoding. Raises :class:`FormatError` if the data
    at ``start_bit`` is not a decodable chain of Deflate blocks — exactly
    the signal the speculative caller uses to advance to the next
    candidate.

    ``split_output`` is the per-chunk decompressed-size *ceiling* of the
    memory-governed pipeline: once at least one block is decoded and the
    output reaches it, decoding stops at the next Deflate block boundary
    and returns a **resumable partial result** (``split=True``) whose
    ``end_bit`` continues the chunk chain — so one high-ratio "bomb"
    chunk becomes many budget-sized chunks instead of one giant
    allocation. Unlike ``max_output`` (a hard error), splitting loses no
    work: everything decoded so far is verified output. A single block
    larger than the ceiling cannot be split (Deflate blocks are atomic
    here); ``max_output`` remains the backstop for that case, enforced
    inside the block (at most one match past the limit).
    """
    requested_start = start_bit
    start_bit = _skip_member_header(file_reader, start_bit)
    size_bits = file_reader.size() * 8
    events: list = []
    end_bit = None
    end_is_stream_start = False
    split = False
    tail_bit = start_bit

    library = libz.load()  # no knob: libz wherever it can be loaded
    engine = _PythonChunkStream if library is None else libz.ChunkStream
    with contextlib.closing(
        engine(library, file_reader, start_bit, stop_bit, window, max_output)
    ) as stream:
        while True:
            position = stream.position
            if position >= size_bits:
                raise TruncatedError("input ended inside a Deflate stream")
            if (
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
            if stop_bit is not None and stream.boundaries:
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
                if stop_bit is not None and tail_bit >= stop_bit:
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


class _PythonChunkStream(TwoStageStreamDecoder):
    """Where libz cannot be loaded: the fused two-stage decoder behind
    :class:`repro.deflate.libz.ChunkStream`'s interface."""

    def __init__(self, _library, file_reader, start_bit: int, _stop_bit: int,
                 window: bytes, max_size: int):
        super().__init__(window=window, max_size=max_size)
        self._reader = BitReader(file_reader.clone())
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
    recorder = telemetry.recorder if telemetry is not None else None
    lifecycle = telemetry.events if telemetry is not None else None
    search_from = chunk_index * chunk_size * 8
    stop_bit = (chunk_index + 1) * chunk_size * 8
    finder = CombinedBlockFinder(file_reader.clone())

    def find_from(bit_offset: int):
        # Every finder call is spanned, retries after a false positive too.
        if recorder is not None and recorder.enabled:
            with recorder.span("chunk.block_find", chunk_id=chunk_index):
                return finder.find_next(bit_offset, until=stop_bit)
        return finder.find_next(bit_offset, until=stop_bit)

    if lifecycle is not None and lifecycle.enabled:
        lifecycle.emit("block-find", chunk=chunk_index)
    offset = find_from(search_from)
    if offset is not None and lifecycle is not None and lifecycle.enabled:
        lifecycle.emit("decode", chunk=chunk_index, mode="search",
                       kind="speculative")
    tried = 0
    false_positives = 0
    result = None
    while offset is not None and tried < max_candidates:
        tried += 1
        try:
            if recorder is not None and recorder.enabled:
                with recorder.span(
                    "chunk.decode_attempt", chunk_id=chunk_index, start_bit=offset
                ):
                    result = decode_chunk_range(
                        file_reader, offset, stop_bit, None,
                        max_output=max_output, split_output=split_output,
                    )
            else:
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


def _resolve_footer_byte(file_reader, end_of_consumed_bit: int) -> int:
    """Original-file byte offset of a gzip footer after a Deflate stream.

    zlib consumed whole (shifted) bytes, so the stream's true end lies in
    the 8 bits before ``end_of_consumed_bit``; with a nonzero shift two
    byte offsets are possible for the padding-aligned footer. The true one
    fits inside the file and is followed by another member's magic, by
    exactly the end of the file, or by zero padding. (Past a footer that
    would overrun the file a read returns nothing too, which is not
    "followed by the end of the file".)
    """
    if end_of_consumed_bit % 8 == 0:
        return end_of_consumed_bit // 8
    low = end_of_consumed_bit // 8
    size = file_reader.size()
    for candidate in (low + 1, low):
        if candidate + 8 > size:
            continue
        after = file_reader.pread(candidate + 8, 2)
        if after == MAGIC or not after:
            return candidate
        if after[0] == 0 and (len(after) < 2 or after[1] == 0):
            return candidate
    return low + 1


def _starts_with_stored_block(file_reader, bit_offset: int) -> bool:
    """True if the Deflate block header at ``bit_offset`` is type 00.

    Stored blocks pad to *original-file* byte boundaries; after the bit
    shift zlib would pad to shifted boundaries instead and read LEN/NLEN
    five-odd bits astray. Usually that dies loudly on the NLEN check, but
    one time in 2^16 the garbage complement matches and zlib emits silent
    garbage — so an unaligned stored chunk start must never reach zlib.
    (A chunk of an all-stored stream hits this systematically: its seek
    points sit inside the previous block's zero padding, which itself
    parses as a type-00 header.)
    """
    reader = BitReader(file_reader, cache_size=8)  # 3 bits, not a buffer
    reader.seek(bit_offset)
    reader.read(1)  # BFINAL
    return reader.read(2) == 0


#: After a member boundary zlib is fed the range this many bytes at a time
#: (a BGZF member's most), so a stream's ``unused_data`` copies at most one
#: slice, not the rest of the range.
_MEMBER_SLICE = 64 * 1024


def zlib_decode_range(
    file_reader,
    start_bit: int,
    end_bit: int,
    window: bytes,
    expected_size: int = None,
    next_window: bytes = None,
    require_stream_end: bool = False,
) -> ChunkResult:
    """Index fast path: delegate the known range to zlib (paper §3.3).

    Requires exact chunk boundaries (from a loaded index). The range is
    read once: shifted to byte alignment, and past a member ending inside
    a shifted range once more, as the byte-aligned file it is there.
    Member boundaries are resolved in *original-file* coordinates (a
    footer is byte-aligned in the file, not in the shifted buffer), each
    following member decoded by a fresh decompressor fed bounded slices.
    Output is clipped to ``expected_size`` because the trailing bits of
    the shifted buffer may partially contain the next chunk's first block.

    Delegation is *checked*, never trusted: stored blocks at unaligned
    offsets are refused up front (their byte-alignment padding does not
    survive the bit shift), the final chunk must actually reach its
    stream's end, and when the caller knows the next seek point's window
    (``next_window``) the decoded tail must reproduce it exactly. Any
    violation raises :class:`FormatError`, which the callers answer by
    re-decoding the interval with the bit-exact two-stage decoder.
    """
    range_end = end_bit or file_reader.size() * 8
    payload = ChunkPayload()
    events: list = []
    base_bit = _skip_member_header(file_reader, start_bit)
    if base_bit % 8 and _starts_with_stored_block(file_reader, base_bit):
        raise FormatError(
            f"stored block at unaligned bit offset {base_bit}: "
            f"zlib delegation cannot shift byte-aligned LEN/NLEN"
        )
    # data[i] holds the file's 8 bits at base_bit + 8 * i.
    data = memoryview(shift_to_byte_alignment(file_reader, base_bit, range_end))
    position = 0  # where in data the current stream's Deflate data starts
    step = len(data)  # the first stream takes the whole range in one call
    current_window = window
    stream_ended = False
    while True:
        if current_window:
            decompressor = zlib.decompressobj(wbits=-15, zdict=current_window)
        else:
            decompressor = zlib.decompressobj(wbits=-15)
        fed = position
        try:
            while not decompressor.eof and fed < len(data):
                piece = decompressor.decompress(data[fed:fed + step])
                payload.append_bytes(piece)
                fed = min(fed + step, len(data))
        except zlib.error as error:
            raise FormatError(f"zlib delegation failed: {error}") from error
        if not decompressor.eof:
            break  # chunk boundary mid-stream: the normal case
        stream_ended = True

        # Stream ended inside the chunk: locate the footer in the file.
        consumed = fed - len(decompressor.unused_data)
        footer_byte = _resolve_footer_byte(file_reader, base_bit + 8 * consumed)
        footer = file_reader.pread(footer_byte, 8)
        if len(footer) < 8:
            raise FormatError("truncated gzip footer in zlib delegation")
        events.append(
            StreamEvent(
                "footer",
                payload.length,
                int.from_bytes(footer[:4], "little"),
                int.from_bytes(footer[4:8], "little"),
            )
        )
        next_member = footer_byte + 8
        if (
            next_member * 8 >= range_end
            or file_reader.pread(next_member, 2) != MAGIC
        ):
            break
        reader = BitReader(file_reader)
        reader.seek(next_member * 8)
        parse_gzip_header(reader)
        events.append(StreamEvent("header", payload.length))
        if base_bit % 8:
            # Past the shifted head the file is byte-aligned: read the
            # rest of the range as it is, once.
            base_bit = reader.tell()
            data = memoryview(
                shift_to_byte_alignment(file_reader, base_bit, range_end)
            )
        position = (reader.tell() - base_bit) // 8
        step = _MEMBER_SLICE
        current_window = b""
        stream_ended = False

    if require_stream_end and not stream_ended:
        raise FormatError(
            "zlib delegation consumed the final chunk without reaching "
            "end of stream"
        )
    if expected_size is not None:
        if payload.length < expected_size:
            raise FormatError(
                f"zlib delegation produced {payload.length} bytes, "
                f"expected at least {expected_size}"
            )
        if payload.length > expected_size:
            _truncate_payload(payload, expected_size)
    if next_window:
        overlap = min(len(next_window), payload.length)
        if overlap and _payload_tail(payload, overlap) != next_window[-overlap:]:
            raise FormatError(
                "zlib delegation output does not reproduce the next seek "
                "point's window"
            )
    return ChunkResult(
        start_bit=start_bit,
        end_bit=end_bit,
        end_is_stream_start=False,
        payload=payload,
        events=events,
        window_known=True,
        compressed_size_bits=(end_bit or 0) - start_bit,
    )


def _payload_tail(payload: ChunkPayload, size: int) -> bytes:
    """Last ``size`` bytes of an all-bytes payload (the zlib path never
    appends marker segments)."""
    pieces = []
    remaining = size
    for segment in reversed(payload.segments):
        if remaining <= 0:
            break
        pieces.append(bytes(segment)[-remaining:])
        remaining -= len(pieces[-1])
    return b"".join(reversed(pieces))


def _truncate_payload(payload: ChunkPayload, size: int) -> None:
    total = 0
    kept = []
    for segment in payload.segments:
        if total + len(segment) <= size:
            kept.append(segment)
            total += len(segment)
        else:
            kept.append(segment[: size - total])
            total = size
            break
    payload.segments = kept
    payload.length = total


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
    """Decode one index-interval chunk: zlib fast path, our decoder as
    fallback (paper §3.3).

    Streams the shifted-buffer zlib path cannot cleanly cut (unaligned
    stored blocks, member boundaries flush-aligned oddly, a tail that
    fails to reproduce ``next_window``) fall back to the two-stage decoder
    in conventional mode, which is bit-exact by construction.
    """
    try:
        result = zlib_decode_range(
            file_reader, start_bit, end_bit, window,
            expected_size=expected_size, next_window=next_window,
            require_stream_end=is_last,
        )
    except FormatError:
        result = decode_chunk_range(
            file_reader, start_bit, end_bit, window,
            max_output=max_output,
        )
        if expected_size is not None and result.length > expected_size:
            # ``end_bit`` need not satisfy the stop predicate (a chunk
            # split under a memory budget may end before a Fixed or final
            # block), so the decoder ran on to the next block that does.
            _truncate_payload(result.payload, expected_size)
            result.events = [
                event for event in result.events
                if event.local_offset <= expected_size
            ]
    result.end_bit = None if is_last else end_bit
    return result


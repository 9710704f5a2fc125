"""Checksums of decoded chunks: :class:`ChecksumVerifier`.

Two checks, one CRC pass over each chunk's bytes: gzip member footers
(CRC-32 and ISIZE) while chunks arrive in order, and an embedded chunk
catalog's per-chunk CRCs at any access order. A mismatch goes to the
reader's :class:`~repro.recovery.DamagePolicy`.
"""

from __future__ import annotations

from ..deflate.libz import crc32_combine
from ..gz.crc32 import fast_crc32

__all__ = ["ChecksumVerifier"]


def _piece_crcs(data: bytes, events) -> list:
    """``(crc32, length)`` of each piece of ``data`` between footer events,
    the last piece after the last footer included: every byte CRC'd once,
    for the catalog's chunk CRC and the running member CRC alike."""
    view = memoryview(data)
    pieces = []
    cursor = 0
    for event in events:
        if event.kind == "footer":
            piece = view[cursor : event.local_offset]
            pieces.append((fast_crc32(piece), len(piece)))
            cursor = event.local_offset
    piece = view[cursor:]
    pieces.append((fast_crc32(piece), len(piece)))
    return pieces


class ChecksumVerifier:
    """Verifies decoded chunks of one file against their checksums.

    Member verification runs while chunks arrive in output order and
    stands down for good on the first out-of-order chunk, on a tolerated
    mismatch, or when the reader :meth:`stand_down`\\ s past damage. The
    ``catalog``'s chunk CRCs (looked up through the ``chain`` position)
    are checked whatever the order. ``enabled=False`` checks nothing.
    """

    def __init__(self, enabled: bool, catalog, chain, damage, telemetry):
        self.active = enabled
        self._catalog = catalog if enabled else None
        self._chain = chain
        self._damage = damage
        self._recorder = telemetry.recorder
        self._checked = telemetry.metrics.counter("encoding.chunk_crc_checked")
        self._failures = telemetry.metrics.counter(
            "encoding.chunk_crc_failures"
        )
        self._running_crc = 0
        self._running_length = 0
        self._verified_up_to = 0

    def stand_down(self) -> None:
        """Checksums are meaningless past damage: stop verifying members."""
        self.active = False

    def members(self, record, data: bytes, events, pieces=None) -> None:
        """Fold the chunk into the running member CRC/ISIZE and check each
        footer it holds. ``pieces`` are the chunk's piece CRCs if
        :meth:`catalog_chunk` already computed them."""
        if not self.active:
            return
        with self._recorder.span(
            "reader.verify", start_bit=record.start_bit, nbytes=len(data)
        ):
            if record.output_start != self._verified_up_to:
                self.active = False  # out-of-order consumption: give up
                return
            if pieces is None:
                pieces = _piece_crcs(data, events)
            footers = (event for event in events if event.kind == "footer")
            for (piece_crc, length), event in zip(pieces, footers):
                if not self.active:
                    return  # a tolerated mismatch stood verification down
                self._running_crc = crc32_combine(
                    self._running_crc, piece_crc, length)
                self._running_length += length
                if self._running_crc != event.crc32:
                    self._mismatch(
                        record,
                        f"CRC-32 mismatch at output offset "
                        f"{record.output_start + event.local_offset}: stored "
                        f"{event.crc32:#010x}, computed "
                        f"{self._running_crc:#010x}",
                    )
                elif self._running_length & 0xFFFFFFFF != event.isize:
                    self._mismatch(
                        record,
                        f"ISIZE mismatch: stored {event.isize}, actual "
                        f"{self._running_length & 0xFFFFFFFF}",
                    )
                self._running_crc = 0
                self._running_length = 0
            piece_crc, length = pieces[-1]
            self._running_crc = crc32_combine(
                self._running_crc, piece_crc, length)
            self._running_length += length
            self._verified_up_to = record.output_end

    def catalog_chunk(self, record, data: bytes, events):
        """Check a freshly decoded chunk against its catalog CRC; returns
        its piece CRCs when it computed them, so :meth:`members` folds
        them instead of reading the bytes again."""
        if self._catalog is None:
            return None
        number = self._chain.position(record.start_bit)
        crc = self._catalog.chunks[number].crc32
        if crc is None:
            return None
        self._checked.increment()
        pieces = _piece_crcs(data, events)
        computed = 0
        for piece_crc, length in pieces:
            computed = crc32_combine(computed, piece_crc, length)
        if len(data) != record.length or computed != crc:
            self._failures.increment()
            self._mismatch(
                record,
                f"catalog chunk CRC mismatch at output offset "
                f"{record.output_start}: stored {crc:#010x}/{record.length}B, "
                f"computed {computed:#010x}/{len(data)}B",
            )
        return pieces

    def _mismatch(self, record, message: str) -> None:
        """Strict mode raises; tolerant keeps the data, records the
        damage and stands verification down."""
        self._damage.integrity(message, record)
        self.active = False

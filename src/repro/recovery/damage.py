"""Damage accounting and mid-stream resynchronisation for tolerant mode.

:class:`~repro.reader.ParallelGzipReader` with ``tolerate_corruption=True``
keeps reading *through* corrupted or truncated regions instead of raising:
the damaged stretch is skipped, decoding resynchronises at the next
decodable Deflate block (found with the same
:class:`~repro.blockfinder.CombinedBlockFinder` the recovery CLI uses —
paper §1.3), and bytes whose back-references pointed into the destroyed
window come out as a placeholder. This module supplies the two halves of
that story:

* :func:`resync_after_damage` — locate and decode the next consistent
  segment after a failure point;
* :class:`DamagedRegion` / :class:`DamageReport` — the structured record
  of everything that was skipped, substituted, or left unverified, so a
  tolerant read never silently launders damage into clean-looking output;
* :class:`DamagePolicy` — the one place an error becomes either a strict
  raise or a tolerant region, and the only code that builds regions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..blockfinder import CombinedBlockFinder
from ..errors import (
    FormatError,
    cause_chain,
    IntegrityError,
    NetworkError,
    SourceChangedError,
    TruncatedError,
)
from .recover import _decode_segment

__all__ = [
    "DEFAULT_PLACEHOLDER",
    "DamagePolicy",
    "DamageReport",
    "DamagedRegion",
    "ResyncSegment",
    "resync_after_damage",
]

#: Byte substituted for output that depended on destroyed history ("?").
DEFAULT_PLACEHOLDER = 0x3F


@dataclass
class DamagedRegion:
    """One contiguous stretch of input the reader could not decode normally.

    ``kind`` is ``"corrupt"`` (structure broken mid-stream),
    ``"truncated"`` (input ended early), ``"network"`` (a remote range
    stayed unreachable after its retries), ``"integrity"`` (structure
    decoded but a CRC-32/ISIZE trailer did not match), or ``"index"``
    (a persistent seek index failed validation — the *output is still
    correct*: the reader fell back to a full search or re-decoded the
    interval from the last good seek point; the record only explains
    why the fast path was abandoned). ``resume_bit`` is where decoding
    picked up again, ``None`` when nothing decodable remained.
    ``output_offset`` locates the damage in the decompressed byte
    stream.
    """

    kind: str
    start_bit: int
    resume_bit: int = None
    output_offset: int = 0
    skipped_bits: int = 0
    recovered_bytes: int = 0
    unresolved_markers: int = 0
    detail: str = ""


@dataclass
class DamageReport:
    """Everything a tolerant read skipped, substituted, or left unverified."""

    regions: list = field(default_factory=list)
    placeholder: int = DEFAULT_PLACEHOLDER

    @property
    def damaged(self) -> bool:
        return bool(self.regions)

    @property
    def skipped_compressed_bytes(self) -> int:
        return sum(region.skipped_bits for region in self.regions) // 8

    @property
    def unresolved_markers(self) -> int:
        return sum(region.unresolved_markers for region in self.regions)

    def summary(self) -> str:
        """Human-readable multi-line account (the CLI prints this)."""
        if not self.regions:
            return "no damage detected"
        lines = [
            f"{len(self.regions)} damaged region(s); "
            f"~{self.skipped_compressed_bytes} compressed byte(s) skipped; "
            f"{self.unresolved_markers} byte(s) replaced by "
            f"{chr(self.placeholder)!r}"
        ]
        for region in self.regions:
            if region.kind == "index":
                resume = "re-decoded without the index, no data loss"
            elif region.kind == "integrity":
                resume = "data kept, verification stood down"
            elif region.resume_bit is not None:
                resume = f"resumed at bit {region.resume_bit}"
            else:
                resume = "nothing decodable after it"
            lines.append(
                f"  [{region.kind}] at compressed bit {region.start_bit} "
                f"(output offset {region.output_offset}): {resume}"
                + (f" — {region.detail}" if region.detail else "")
            )
        return "\n".join(lines)


@dataclass
class ResyncSegment:
    """The first consistent stretch decodable after a damage point."""

    start_bit: int  # where the block finder re-anchored decoding
    data: bytes  # decoded bytes, placeholders where history was lost
    unresolved: int  # how many of those bytes are placeholders
    end_bit: int  # where consistent decoding stopped (EOF or new damage)


def resync_after_damage(file_reader, from_bit: int, *,
                        placeholder: int = DEFAULT_PLACEHOLDER,
                        max_probes: int = 4096):
    """Find and decode the next consistent segment at/after ``from_bit``.

    Probes block-finder candidates in order, discarding false positives
    that decode to nothing, and returns the first :class:`ResyncSegment`
    with actual output — or ``None`` when the rest of the file holds no
    decodable Deflate block (``max_probes`` bounds the candidate scan so
    a pathological tail cannot stall a tolerant read).

    The segment always satisfies ``end_bit > from_bit``, so repeated
    resynchronisation makes monotonic progress through the file.
    """
    size_bits = file_reader.size() * 8
    finder = CombinedBlockFinder(file_reader)
    position = from_bit
    for _ in range(max_probes):
        if position >= size_bits:
            return None
        candidate = finder.find_next(position)
        if candidate is None:
            return None
        try:
            data, unresolved, end_bit = _decode_segment(
                file_reader, candidate, window=None, placeholder=placeholder
            )
        except FormatError:
            position = candidate + 1
            continue
        if not data:
            position = candidate + 1
            continue
        return ResyncSegment(candidate, data, unresolved, end_bit)
    return None


class DamagePolicy:
    """Strict or tolerant: the one place an error becomes a raise or a
    :class:`DamagedRegion` in :attr:`report`.

    Strict mode (``tolerate=False``) re-raises every decode failure and
    raises :class:`~repro.errors.IntegrityError` on a checksum mismatch.
    Tolerant mode classifies a decode failure as ``"network"`` (a
    :class:`~repro.errors.NetworkError` in its cause chain: the bytes are
    unreachable, not corrupt), ``"truncated"`` or ``"corrupt"``, and
    records it. A :class:`~repro.errors.SourceChangedError` is never
    absorbed: placeholder-filling would mix bytes of two object
    generations. A rejected cached index is an ``"index"`` region in
    either mode — the bytes are re-decoded, nothing is lost. Every
    region leaves one ``reader.damage`` instant on ``recorder`` (a trace
    recorder, ``Telemetry.recorder``).
    """

    def __init__(self, tolerate: bool, recorder):
        self.tolerate = tolerate
        self.report = DamageReport()
        self._recorder = recorder

    def classify(self, error) -> tuple:
        """``(kind, cause)`` of a decode failure tolerant mode absorbs,
        ``cause`` being what the region describes; raises ``error``
        when strict or when the source changed."""
        if not self.tolerate:
            raise error
        for cursor in cause_chain(error):
            if isinstance(cursor, SourceChangedError):
                raise error
            if isinstance(cursor, NetworkError):
                return "network", cursor
        truncated = isinstance(error, TruncatedError) or isinstance(
            getattr(error, "__cause__", None), TruncatedError
        )
        return ("truncated" if truncated else "corrupt"), error

    def resync(self, error, file_reader, start_bit: int,
               output_offset: int):
        """Absorb a failed decode at ``start_bit``, where nothing says where
        the chunk ends: the :class:`ResyncSegment` decodable after it, or
        ``None`` when the rest of the file is lost. An unreachable range
        is not searched — every candidate would hit the same dead origin.
        """
        kind, cause = self.classify(error)
        segment = None
        if kind != "network":
            with self._recorder.span("reader.resync", start_bit=start_bit):
                segment = resync_after_damage(
                    file_reader, start_bit + 1,
                    placeholder=self.report.placeholder,
                )
        if segment is None:
            self._record(
                kind, start_bit, output_offset=output_offset,
                skipped_bits=max(file_reader.size() * 8 - start_bit, 0),
                detail=str(cause),
            )
            return None
        self._record(
            kind, start_bit, resume_bit=segment.start_bit,
            output_offset=output_offset,
            skipped_bits=segment.start_bit - start_bit,
            recovered_bytes=len(segment.data),
            unresolved_markers=segment.unresolved, detail=str(cause),
        )
        return segment

    def fill(self, error, record) -> bytes:
        """Absorb a failed decode of a chunk of known extent (an index,
        catalog or BGZF chunk): exactly its bytes become placeholders."""
        kind, _cause = self.classify(error)
        self._record(
            kind, record.start_bit, resume_bit=record.end_bit,
            output_offset=record.output_start,
            skipped_bits=(record.end_bit or record.start_bit)
            - record.start_bit,
            unresolved_markers=record.length, detail=str(error),
        )
        return bytes([self.report.placeholder]) * record.length

    def integrity(self, message: str, record) -> None:
        """A CRC-32/ISIZE mismatch in ``record``'s chunk: strict raises;
        tolerant keeps the data and records the mismatch."""
        if not self.tolerate:
            raise IntegrityError(message)
        self._record(
            "integrity", record.start_bit, resume_bit=record.end_bit,
            output_offset=record.output_start, detail=message,
        )

    def index_rejected(self, error) -> None:
        """A cached index failed its checks (either mode)."""
        self._record("index", 0, detail=f"cached index rejected: {error}")

    def _record(self, kind: str, start_bit: int, **fields) -> None:
        region = DamagedRegion(kind=kind, start_bit=start_bit, **fields)
        self.report.regions.append(region)
        self._recorder.instant(
            "reader.damage", kind=kind, start_bit=start_bit,
            resume_bit=region.resume_bit,
            unresolved=region.unresolved_markers,
        )

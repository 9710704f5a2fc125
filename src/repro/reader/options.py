"""The reader's settings, declared once: :class:`ReaderOptions`.

:class:`~repro.reader.ParallelGzipReader` forwards its setting keywords
here; the fetcher, the chunk-decode tasks and the reader read the one
validated object. Each setting's default, check and documentation live
in this file and nowhere else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..cache.budget import parse_size
from ..errors import UsageError

__all__ = ["DEFAULT_CHUNK_SIZE", "MIN_SPLIT_OUTPUT", "ReaderOptions"]

#: Default compressed chunk size (paper default: 4 MiB).
DEFAULT_CHUNK_SIZE = 4 * 1024 * 1024

#: Floor for the per-chunk decompressed-split ceiling under a budget —
#: splitting below this would fragment ordinary chunks for no benefit.
MIN_SPLIT_OUTPUT = 1024 * 1024


@dataclass(frozen=True)
class ReaderOptions:
    """How one gzip file is read. Invalid values raise
    :class:`~repro.errors.UsageError` at construction, before anything is
    opened.

    ``parallelization``
        Worker threads decoding chunks ahead of the consumer (≥ 1).
    ``chunk_size``
        Compressed bytes per chunk (≥ 1 KiB; paper default 4 MiB). Seek
        points are at most ``2 * chunk_size`` *decompressed* bytes apart:
        a chunk whose output exceeds that is split at interior Deflate
        block boundaries into more seek points, each its own chain record
        (paper §1.4). That bounds seek latency — of this reader's own
        re-reads as of a later index import — and the per-chunk memory
        of that import.
    ``verify``
        Check member CRC-32/ISIZE while chunks are consumed in order, and
        each catalogued chunk's CRC at any access order.
    ``strategy``
        The prefetch strategy (:mod:`repro.cache.strategies`);
        ``None`` is the paper's adaptive fetch-next.
    ``pugz_compatible``
        Refuse decompressed bytes outside 9–126, reproducing pugz's
        limitation for comparison experiments.
    ``max_chunk_output``
        Hard cap on one chunk's decompressed size (a decode past it
        fails); ``None`` is unbounded.
    ``detect_catalog``
        Probe the first gzip header for an MZ/RG chunk catalog (written
        by ``layout="parallel-friendly"`` / ``"chunk-isolated"`` archives
        or mgzip). A detected catalog synthesizes the whole seek index at
        open: no block search, no markers, per-chunk CRCs checked. A
        malformed one is recorded in telemetry and the file is searched.
        ``False`` forces the search path (benchmark baseline). A BGZF
        file's BSIZE chain is a catalog too, read whatever this says; a
        broken chain fails the open or, tolerant, opens in search mode.
    ``tolerate_corruption``
        Turn mid-file corruption, truncation and checksum mismatches into
        *accounted damage* instead of exceptions: the broken stretch is
        skipped, decoding resynchronises at the next decodable Deflate
        block (:mod:`repro.recovery`), a placeholder byte stands where
        history was destroyed, and every incident lands in
        ``reader.damage_report`` (:class:`~repro.recovery.DamagePolicy`).
    ``chunk_timeout``
        Seconds to wait for an in-flight speculative decode before
        decoding the chunk on the reading thread; after three time-outs
        the fetcher stops feeding the pool (``statistics()["backend"]``
        reads ``serial``). ``None`` waits without bound.
    ``index_cache``
        Directory of persistent seek indexes (created if missing). A
        matching entry is imported at open, checked whole, and the file
        opens in index mode; a stale, torn or corrupt one is never fatal
        — it becomes an ``"index"`` damage region and the file is
        searched, after which the fresh index is atomically re-exported
        (:class:`~repro.index.store.IndexCache`). Needs a file path: it
        is inactive for byte buffers and file objects.
    ``max_memory``
        Cap on the decompressed bytes the whole pipeline holds at once:
        prefetch cache, materialized cache (the paper's access cache) and
        in-flight decodes. A byte count or a size string (``"64MiB"``,
        ``"1.5G"``). Under it the prefetcher sheds speculation, workers
        split chunks at Deflate block boundaries past
        :attr:`split_output`, and an evicted chunk is decoded again
        exactly (one libz pass from its start and window). ``None``
        takes ``$REPRO_MAX_MEMORY`` (to replay a whole test suite under a
        budget); after construction the field holds the parsed byte
        count or ``None``.
    """

    parallelization: int = 1
    chunk_size: int = DEFAULT_CHUNK_SIZE
    verify: bool = True
    strategy: object = None
    pugz_compatible: bool = False
    max_chunk_output: int = None
    detect_catalog: bool = True
    tolerate_corruption: bool = False
    chunk_timeout: float = None
    index_cache: object = None
    max_memory: object = None

    def __post_init__(self) -> None:
        if self.parallelization < 1:
            raise UsageError("parallelization must be at least 1")
        if self.chunk_size < 1024:
            raise UsageError("chunk_size must be at least 1 KiB")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise UsageError("chunk_timeout must be positive (or None)")
        budget = self.max_memory
        if budget is None:
            budget = os.environ.get("REPRO_MAX_MEMORY") or None
        if budget is not None:
            object.__setattr__(self, "max_memory", parse_size(budget))

    @property
    def split_output(self):
        """Per-chunk decompressed ceiling under a budget, ``None`` without:
        a worker past it stops at a Deflate block boundary and returns a
        resumable partial result, so one high-ratio chunk never holds
        more than about a budget share. The on-demand decode of a read
        smaller than ``chunk_size`` stops at the lower of this ceiling
        and the bytes that read asked for (the fetcher's demand stop)."""
        if self.max_memory is None:
            return None
        return max(self.max_memory // 8, MIN_SPLIT_OUTPUT)

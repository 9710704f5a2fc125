"""ParallelGzipReader — the user-facing file-like reader (paper §3.1).

Design goals implemented from the paper:

* parallel chunk decompression with dynamic load balancing,
* seeking + reading with only an initial decompression pass up to the
  requested offset (never *behind* an already-decoded frontier),
* constant-time seeks to offsets covered by the index,
* on-the-fly index construction (not a preprocessing step),
* robustness against block-finder false positives (delegated to the
  cache-keying scheme in :class:`~repro.fetcher.GzipChunkFetcher`),
* optional CRC-32/ISIZE verification during sequential consumption,
* optional pugz compatibility mode that refuses bytes outside 9–126,
  reproducing the baseline's limitation for comparison experiments.
"""

from __future__ import annotations

import io
import os
import threading
import time

from ..blockfinder.pugz import PUGZ_MAX_BYTE, PUGZ_MIN_BYTE
from ..cache import LRUCache, MemoryGovernor, SpillStore, parse_size
from ..deflate.libz import crc32_combine
from ..errors import (
    ChunkDecodeError,
    FormatError,
    IndexIntegrityError,
    IntegrityError,
    NetworkError,
    SourceChangedError,
    TruncatedError,
    UsageError,
)
from ..fetcher import ChunkRecord, DEFAULT_CHUNK_SIZE, GzipChunkFetcher
from ..gz.crc32 import fast_crc32
from ..gz.header import parse_gzip_header
from ..index import GzipIndex, SeekPoint
from ..index import store as index_store
from ..io import BitReader, ensure_file_reader
from ..telemetry import (
    MetricsServer,
    Telemetry,
    attribute_reads,
)
from ..telemetry.exporter import STATS_SCHEMA

__all__ = ["ParallelGzipReader", "decompress_parallel"]


def _network_cause(error):
    """The :class:`NetworkError` in ``error``'s cause chain, or ``None``."""
    seen = set()
    cursor = error
    while cursor is not None and id(cursor) not in seen:
        seen.add(id(cursor))
        if isinstance(cursor, NetworkError):
            return cursor
        cursor = cursor.__cause__
    return None


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


class ParallelGzipReader:
    """Seekable, parallel-decompressing reader over a gzip file."""

    def __init__(
        self,
        source,
        *,
        parallelization: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        verify: bool = True,
        index: GzipIndex = None,
        index_cache=None,
        strategy=None,
        pugz_compatible: bool = False,
        max_chunk_output: int = None,
        detect_catalog: bool = True,
        tolerate_corruption: bool = False,
        chunk_timeout: float = None,
        trace: bool = False,
        events: bool = False,
        telemetry: Telemetry = None,
        max_memory=None,
        spill_dir=None,
        metrics_port: int = None,
        metrics_host: str = "127.0.0.1",
        metrics_interval: float = 1.0,
    ):
        """Open a gzip file for parallel reading.

        ``max_memory`` caps the resident decompressed bytes the whole
        pipeline may hold at once (the fetcher's prefetch cache, this
        reader's materialized-bytes cache, which is the paper's access
        cache, and in-flight speculative decodes). Accepts a byte count
        or a size string (``"64MiB"``, ``"1.5G"``). Under the cap the
        prefetcher stops submitting (and sheds queued) speculation,
        workers split oversized chunks at Deflate block boundaries, and
        chunks evicted from the
        materialized cache spill to disk so backward seeks into them
        stay cheap. ``spill_dir`` picks the spill directory (a private
        temp directory by default); setting it without ``max_memory``
        enables the spill tier alone. When ``max_memory`` is ``None``,
        ``$REPRO_MAX_MEMORY`` supplies the default (useful to replay an
        entire test suite under a budget).

        Seek points are at most ``2 * chunk_size`` *decompressed* bytes
        apart: chunks whose output exceeds that contribute extra seek
        points at interior Deflate block boundaries (paper §1.4: "large
        chunks are split ... so that the maximum decompressed chunk size
        is not larger than the configured chunk size"). This bounds both
        seek latency and the memory needed per chunk when the exported
        index is later imported.

        ``index_cache`` names a directory holding persistent seek
        indexes (created if missing). On open, a matching cached index
        is imported — checked whole before use, every window checksum
        included — and the reader starts in index mode, each chunk one
        exact libz pass. A stale, torn, or corrupted cache entry is
        *never* fatal: the failure is recorded in :attr:`damage_report` (kind
        ``"index"``) and telemetry, and the reader falls back to a full
        parallel search;
        after that first full pass the fresh index is atomically
        re-exported, healing the cache. Caching needs a real file path
        (it is skipped for byte buffers and file objects).

        ``detect_catalog`` controls the open-time probe for an embedded
        MZ/RG chunk catalog (written by ``layout="parallel-friendly"`` or
        ``"chunk-isolated"`` archives, or by mgzip). A detected catalog
        synthesizes a complete seek index up front: every chunk decodes
        on the conventional fast path with zero block-finder searches and
        zero marker-mode decodes, and per-chunk catalog CRCs are verified
        as chunks materialize. Set it to ``False`` to force the ordinary
        search path (benchmark baseline). A malformed catalog is never
        fatal — it is recorded in telemetry and the reader falls back to
        searching. A BGZF file's BSIZE chain is a catalog too, read
        whatever ``detect_catalog`` says; a broken chain fails the open,
        or, with ``tolerate_corruption``, opens in search mode.

        ``tolerate_corruption=True`` turns mid-file corruption, truncation,
        and checksum mismatches from exceptions into *accounted damage*:
        the reader skips the broken stretch, resynchronises at the next
        decodable Deflate block (``repro.recovery``), substitutes a
        placeholder byte where history was destroyed, and records every
        incident in :attr:`damage_report`. Reads never silently launder
        damage — check ``reader.damage_report.damaged`` afterwards.

        ``chunk_timeout`` (seconds) bounds the wait on an in-flight
        speculative decode: a chunk that does not arrive in time is decoded
        on the reading thread instead, and after three such time-outs the
        fetcher stops feeding the pool (``statistics()["backend"]`` reads
        ``serial``). ``None`` (the default) waits without bound.

        ``trace=True`` records chunk-lifecycle spans for the whole pipeline
        (reader, fetcher, pool workers, block finders); export them with
        :meth:`save_trace`. Metrics are collected either way. Pass an
        existing ``telemetry`` bundle to share one recorder/registry
        across several readers.

        ``events=True`` records the structured per-chunk lifecycle event
        log (queued → block-find → decode → wait-window →
        markers-replaced → cached → evicted/spilled → served); export it
        as JSON Lines with :meth:`save_events`. With both ``trace`` and
        ``events`` on, :meth:`explain` reconstructs where each
        ``read()``'s wall time went.

        ``metrics_port`` (an integer, ``0`` for an ephemeral port) starts
        a background stdlib HTTP server on ``metrics_host`` exposing
        ``/metrics`` (Prometheus text format), ``/stats`` (the
        :meth:`statistics` JSON), ``/series`` (periodic samples taken
        every ``metrics_interval`` seconds), and ``/healthz``. The bound
        URL is :attr:`metrics_url`; the server stops with :meth:`close`.
        """
        self._file_reader = ensure_file_reader(source)
        self._verify = verify
        self._pugz_compatible = pugz_compatible
        self._tolerate = tolerate_corruption
        from ..recovery import DamageReport

        self._damage = DamageReport()
        self._chunks_decoded = 0  # chunk decodes materialized
        self._point_spacing = 2 * chunk_size
        self._position = 0
        self._closed = False
        self._lock = threading.RLock()
        self.telemetry = (
            telemetry if telemetry is not None
            else Telemetry(trace=trace, events=events)
        )
        self._read_calls = self.telemetry.metrics.counter("reader.read_calls")
        self._read_seconds = self.telemetry.metrics.histogram("reader.read_seconds")
        self._bytes_returned = self.telemetry.metrics.counter(
            "reader.bytes_returned"
        )
        self._markers_replaced = self.telemetry.metrics.counter(
            "decode.markers_replaced"
        )
        self._chunk_crc_checked = self.telemetry.metrics.counter(
            "encoding.chunk_crc_checked"
        )
        self._chunk_crc_failures = self.telemetry.metrics.counter(
            "encoding.chunk_crc_failures"
        )
        # Remote stacks count wire traffic from the very first probe
        # request, so attach telemetry before the fetcher is built.
        attach_net = getattr(self._file_reader, "attach_telemetry", None)
        if attach_net is not None:
            attach_net(self.telemetry)
        self._opened_at = time.perf_counter()
        self.telemetry.metrics.probe(
            "reader.uptime_seconds",
            lambda: time.perf_counter() - self._opened_at,
        )
        self.telemetry.metrics.probe(
            "reader.throughput_bytes_per_second",
            lambda: self._bytes_returned.value
            / max(time.perf_counter() - self._opened_at, 1e-9),
        )

        if index is not None and not index.finalized:
            raise UsageError("only finalized indexes can be imported")

        # Persistent index cache: import a matching cached index before
        # the fetcher is built (so it opens straight in index mode), and
        # remember the path for the atomic auto-export after the first
        # full decode. Requires a real file path; silently inactive for
        # byte buffers and anonymous file objects.
        self._index_cache_path = None
        self._index_imported = False
        self._index_exported = False
        if index_cache is not None:
            source_path = getattr(self._file_reader, "path", None)
            if source_path is not None:
                os.makedirs(os.fspath(index_cache), exist_ok=True)
                self._index_cache_path = index_store.cache_path(
                    index_cache, source_path
                )
                if index is None:
                    index = self._try_import_index_cache()

        # One governor spans the whole pipeline: the fetcher's caches and
        # in-flight reservations and this reader's materialized bytes all
        # charge the same budget. $REPRO_MAX_MEMORY supplies a default so
        # whole test suites can be replayed under a budget unmodified.
        if max_memory is None:
            max_memory = os.environ.get("REPRO_MAX_MEMORY") or None
        self._governor = (
            MemoryGovernor(parse_size(max_memory), telemetry=self.telemetry)
            if max_memory is not None else None
        )
        budget = self._governor.budget if self._governor is not None else None
        self._spill = (
            SpillStore(spill_dir, telemetry=self.telemetry)
            if spill_dir is not None or budget else None
        )

        def build_fetcher(detect_bgzf: bool) -> GzipChunkFetcher:
            return GzipChunkFetcher(
                self._file_reader,
                parallelization=parallelization,
                chunk_size=chunk_size,
                strategy=strategy,
                max_chunk_output=max_chunk_output,
                index=index,
                detect_bgzf=detect_bgzf,
                detect_catalog=detect_catalog,
                chunk_timeout=chunk_timeout,
                telemetry=self.telemetry,
                governor=self._governor,
            )

        try:
            self._fetcher = build_fetcher(True)
        except FormatError:
            if not tolerate_corruption:
                raise
            # A broken BSIZE chain or an impossible BGZF footer leaves no
            # catalog to open before any chunk is decoded. Fall back to the
            # search-mode fetcher, whose resync machinery handles damage.
            self._fetcher = build_fetcher(False)
        # The chunk catalog the fetcher synthesized its index from (empty
        # windows: no chunk needs history), with per-chunk CRCs, or None.
        self._catalog = self._fetcher.catalog
        # The fetcher's chunk chain, extended here as the frontier decodes.
        self._chunks = self._fetcher.chain

        sizing = {}
        if self._governor is not None:
            sizing = {
                "sizer": len,
                "governor": self._governor,
                "account": "materialized",
            }
        self._materialized = LRUCache(
            max(4, parallelization // 2),
            max_bytes=budget // 8 if budget else None,
            on_evict=self._spill_evicted(),
            **sizing,
        )
        self.telemetry.metrics.probe(
            "cache.materialized", lambda: self._materialized.snapshot()
        )

        # CRC verification state for in-order consumption.
        self._running_crc = 0
        self._running_length = 0
        self._verified_up_to = 0
        self._verify_active = verify

        try:
            self._init_chunk_chain()
        except Exception:
            self._fetcher.close()  # don't leak the worker pool
            raise

        self._metrics_server = None
        if metrics_port is not None:
            try:
                self._metrics_server = MetricsServer(
                    self.telemetry,
                    port=metrics_port,
                    host=metrics_host,
                    stats_provider=self.statistics,
                    sample_interval=metrics_interval,
                )
                self._metrics_server.start()
            except Exception:
                self._fetcher.close()
                if self._spill is not None:
                    self._spill.close()
                raise

    def _init_chunk_chain(self) -> None:
        if self._fetcher.mode != "search":
            # An index is the whole chain: seeking anywhere is O(log n)
            # with no initial pass (paper §1.3).
            return
        try:
            header_reader = BitReader(self._file_reader)
            parse_gzip_header(header_reader)
            start_bit = header_reader.tell()
        except FormatError:
            if not self._tolerate:
                raise
            # Damaged leading header: start the chain at bit 0 and let the
            # first frontier decode fail into resync.
            start_bit = 0
        self._chunks.advance(start_bit, b"", True)

    # -- persistent index cache -------------------------------------------------

    def _try_import_index_cache(self):
        """Load the cached index for this file, or None (never raises).

        Any integrity, binding, or I/O failure is recorded as an
        ``"index"`` damage region plus telemetry and the reader proceeds
        with a full parallel search — a bad cache entry costs the fast
        path, never correctness. A missing entry is the ordinary cold
        open and records nothing.
        """
        path = self._index_cache_path
        if not os.path.exists(path):
            return None
        try:
            loaded = index_store.load_index(
                path,
                source=self._file_reader,
                telemetry=self.telemetry,
            )
        except IndexIntegrityError as error:
            self._note_index_rejected(error)
            return None
        self._index_imported = True
        events = self.telemetry.events
        if events.enabled:
            events.emit("index-imported", points=len(loaded))
        return loaded

    def _note_index_rejected(self, error) -> None:
        from ..recovery import DamagedRegion

        self.telemetry.metrics.counter("index.load_failures").increment()
        self._damage.regions.append(
            DamagedRegion(
                kind="index",
                start_bit=0,
                detail=f"cached index rejected: {error}",
            )
        )
        recorder = self.telemetry.recorder
        if recorder.enabled:
            recorder.instant(
                "index.rejected", check=getattr(error, "check", None),
                error=str(error),
            )
        events = self.telemetry.events
        if events.enabled:
            events.emit(
                "index-rejected", check=getattr(error, "check", None)
            )

    def _maybe_export_index_cache(self) -> None:
        """Atomically publish the just-built index to the cache directory.

        Runs once, after the first full pass, and only when the index
        was built fresh (not imported) over undamaged data. Index-kind
        damage regions don't block the export — they record a *rejected
        stale cache*, and exporting is exactly how it self-heals.
        Failures are counted and tolerated: the cache is an
        optimization, never a correctness dependency.
        """
        if (
            self._index_cache_path is None
            or self._index_imported
            or self._index_exported
            # A catalog-synthesized index is already embedded in the file
            # itself; persisting its empty windows would shadow (or evict)
            # a real window-bearing cache entry for no gain.
            or self._catalog is not None
            or not self.index.finalized
            or not len(self.index)
        ):
            return
        if any(
            region.kind != "index" for region in self._damage.regions
        ):
            return  # never persist an index built over damaged data
        try:
            index_store.save_index(
                self.index,
                self._index_cache_path,
                source=self._file_reader,
                telemetry=self.telemetry,
            )
        except Exception as error:
            self.telemetry.metrics.counter(
                "index.export_failures"
            ).increment()
            recorder = self.telemetry.recorder
            if recorder.enabled:
                recorder.instant("index.export_failed", error=repr(error))
            events = self.telemetry.events
            if events.enabled:
                events.emit("index-export-failed", error=str(error))
            return
        self._index_exported = True
        self.telemetry.metrics.counter("index.exports").increment()
        events = self.telemetry.events
        if events.enabled:
            events.emit(
                "index-exported", points=len(self.index),
                path=self._index_cache_path,
            )

    # -- decoding engine --------------------------------------------------------

    def _decode_next_chunk(self):
        """Advance the chain by one chunk; tolerant mode absorbs failures."""
        if not self._tolerate:
            record = self._decode_frontier_chunk()
        else:
            try:
                record = self._decode_frontier_chunk()
            except (ChunkDecodeError, FormatError) as error:
                record = self._absorb_damage(error)
        if self._chunks.frontier is None:
            self._maybe_export_index_cache()
        return record

    def _absorb_damage(self, error) -> ChunkRecord:
        """Tolerant mode: skip a broken stretch and resynchronise.

        The block finder locates the next decodable Deflate block after
        the failed frontier; everything from there to the next
        inconsistency (usually end of file) is decoded serially with
        placeholder bytes where the destroyed 32 KiB window was
        referenced, appended as one chunk record, and logged in the
        damage report. Returns ``None`` when nothing decodable remains.
        """
        from ..recovery import DamagedRegion, resync_after_damage

        chain = self._chunks
        start_bit, _window, _is_stream_start = chain.frontier
        network = _network_cause(error)
        if isinstance(network, SourceChangedError):
            # A new object generation: placeholder-filling would mix
            # bytes from two versions — never absorbed, even tolerant.
            raise error
        cause = getattr(error, "__cause__", None)
        kind = (
            "truncated"
            if isinstance(error, TruncatedError)
            or isinstance(cause, TruncatedError)
            else "corrupt"
        )
        output_start = chain.known_size
        self._verify_active = False  # checksums are meaningless past damage
        recorder = self.telemetry.recorder
        segment = None
        if network is None:
            with recorder.span("reader.resync", start_bit=start_bit):
                segment = resync_after_damage(
                    self._file_reader, start_bit + 1,
                    placeholder=self._damage.placeholder,
                )
        else:
            # The bytes are unreachable, not corrupt: block-finder resync
            # would hammer the same dead origin for every candidate.
            kind, error = "network", network
        if segment is None:
            # The rest of the file is lost: account for it and stop.
            self._damage.regions.append(
                DamagedRegion(
                    kind=kind,
                    start_bit=start_bit,
                    resume_bit=None,
                    output_offset=output_start,
                    skipped_bits=max(
                        self._file_reader.size() * 8 - start_bit, 0
                    ),
                    detail=str(error),
                )
            )
            if recorder.enabled:
                recorder.instant(
                    "reader.damage", kind=kind, start_bit=start_bit,
                    resumed=False,
                )
            chain.end(self._file_reader.size() * 8)
            return None
        self._damage.regions.append(
            DamagedRegion(
                kind=kind,
                start_bit=start_bit,
                resume_bit=segment.start_bit,
                output_offset=output_start,
                skipped_bits=segment.start_bit - start_bit,
                recovered_bytes=len(segment.data),
                unresolved_markers=segment.unresolved,
                detail=str(error),
            )
        )
        if recorder.enabled:
            recorder.instant(
                "reader.damage", kind=kind, start_bit=start_bit,
                resume_bit=segment.start_bit,
                unresolved=segment.unresolved,
            )
        record = ChunkRecord(
            start_bit=start_bit,
            output_start=output_start,
            output_end=output_start + len(segment.data),
            end_bit=segment.end_bit,
            window=b"",
            is_stream_start=False,
        )
        chain.append(record)
        # Pin the recovered bytes: they cannot be re-materialized through
        # the fetcher (its decode would fail at this offset again).
        chain.pinned[start_bit] = segment.data
        self._cache_materialized(start_bit, segment.data)
        end_bits = self._file_reader.size() * 8
        if segment.end_bit >= end_bits - 16:
            # Within footer padding of EOF: the file is fully consumed.
            chain.end(end_bits)
        else:
            # Resume the chain where consistent decoding stopped, without
            # a seek point: the window may itself contain placeholders.
            from ..deflate import MAX_WINDOW_SIZE

            chain.frontier = (
                segment.end_bit,
                segment.data[-MAX_WINDOW_SIZE:],
                False,
            )
        return record

    def _decode_frontier_chunk(self) -> ChunkRecord:
        """Decode the chunk at the frontier and extend the chain."""
        chain = self._chunks
        start_bit, window, is_stream_start = chain.frontier
        with self.telemetry.recorder.span(
            "reader.decode_next_chunk", start_bit=start_bit
        ):
            result = self._fetcher.request(start_bit, window)
            data = self._materialize_result(result, window)
        output_start = chain.known_size
        record = ChunkRecord(
            start_bit=start_bit,
            output_start=output_start,
            output_end=output_start + len(data),
            end_bit=result.end_bit,
            window=window,
            is_stream_start=is_stream_start,
        )
        chain.append(record)
        recorder = self.telemetry.recorder
        if recorder.enabled:
            recorder.instant(
                "reader.frontier",
                chunks=len(chain),
                known_size=chain.known_size,
            )
        self._cache_materialized(start_bit, data)
        self._verify_sequential(record, data, result.events)
        if not chain.index.finalized:
            self._add_interior_seek_points(record, data, result.boundaries)

        if result.end_bit is not None:
            # The end window was resolved when the fetcher handed over.
            chain.advance(
                result.end_bit, result.next_window(window),
                result.end_is_stream_start,
            )
        else:
            chain.end(start_bit + result.compressed_size_bits)
        return record

    def _add_interior_seek_points(self, record: ChunkRecord, data: bytes,
                                  boundaries) -> None:
        """Split over-long chunks with extra seek points (paper §1.4).

        A chunk whose decompressed size exceeds the spacing gets seek
        points at interior Deflate block boundaries; their windows come
        straight from the materialized data, so splitting costs nothing
        extra. The exported index then keeps both seek latency and the
        per-chunk memory of future index-mode readers bounded.
        """
        if record.length <= self._point_spacing or not boundaries:
            return
        next_emit = self._point_spacing
        from ..deflate import MAX_WINDOW_SIZE

        for boundary in boundaries:
            if boundary.output_offset == 0 or boundary.is_final:
                continue
            # Only Dynamic blocks: their bit offsets are unambiguous, the
            # stop predicate of future chunk decodes matches them, and an
            # exact index pass can end and resume at them.
            if boundary.block_type != 2:
                continue
            if boundary.output_offset < next_emit:
                continue
            if record.length - boundary.output_offset < 1:
                continue
            window_start = max(boundary.output_offset - MAX_WINDOW_SIZE, 0)
            window = data[window_start : boundary.output_offset]
            if window_start == 0 and len(window) < MAX_WINDOW_SIZE:
                window = (record.window + window)[-MAX_WINDOW_SIZE:]
            self.index.add(
                SeekPoint(
                    boundary.bit_offset,
                    record.output_start + boundary.output_offset,
                    window,
                )
            )
            next_emit = boundary.output_offset + self._point_spacing

    def _materialize_result(self, result, window: bytes) -> bytes:
        with self.telemetry.recorder.span(
            "chunk.materialize", start_bit=result.start_bit
        ):
            # Only marker output reads the window.
            data = result.payload.materialize(
                b"" if result.window_known else window
            )
        self._chunks_decoded += 1
        if not result.window_known:
            # Marker symbols just got their window: the two-stage decode's
            # second stage, the moment speculative output becomes real.
            # Counted always — a parallel-friendly archive asserts zero.
            self._markers_replaced.increment()
            events = self.telemetry.events
            if events.enabled:
                events.emit(
                    "markers-replaced", bit=result.start_bit, nbytes=len(data)
                )
        if self._pugz_compatible and data:
            import numpy as np

            values = np.frombuffer(data, dtype=np.uint8)
            if bool(((values < PUGZ_MIN_BYTE) | (values > PUGZ_MAX_BYTE)).any()):
                raise FormatError(
                    "pugz compatibility mode: decompressed data contains "
                    f"bytes outside {PUGZ_MIN_BYTE}-{PUGZ_MAX_BYTE}"
                )
        return data

    def _verify_sequential(self, record: ChunkRecord, data: bytes, events,
                           pieces=None) -> None:
        """Verify member CRC/ISIZE while chunks arrive in order.

        ``pieces`` are the chunk's :func:`_piece_crcs` if already computed.
        """
        if not self._verify_active:
            return
        recorder = self.telemetry.recorder
        if recorder.enabled:
            with recorder.span(
                "reader.verify", start_bit=record.start_bit, nbytes=len(data)
            ):
                self._verify_sequential_body(record, data, events, pieces)
        else:
            self._verify_sequential_body(record, data, events, pieces)

    def _verify_sequential_body(self, record: ChunkRecord, data: bytes,
                                events, pieces) -> None:
        if record.output_start != self._verified_up_to:
            self._verify_active = False  # out-of-order consumption: give up
            return
        if pieces is None:
            pieces = _piece_crcs(data, events)
        footers = (event for event in events if event.kind == "footer")
        for (piece_crc, length), event in zip(pieces, footers):
            if not self._verify_active:
                return  # a tolerated mismatch stood verification down
            self._running_crc = crc32_combine(
                self._running_crc, piece_crc, length)
            self._running_length += length
            if self._running_crc != event.crc32:
                self._integrity_failure(
                    record,
                    f"CRC-32 mismatch at output offset "
                    f"{record.output_start + event.local_offset}: stored "
                    f"{event.crc32:#010x}, computed {self._running_crc:#010x}",
                )
            elif self._running_length & 0xFFFFFFFF != event.isize:
                self._integrity_failure(
                    record,
                    f"ISIZE mismatch: stored {event.isize}, actual "
                    f"{self._running_length & 0xFFFFFFFF}",
                )
            self._running_crc = 0
            self._running_length = 0
        piece_crc, length = pieces[-1]
        self._running_crc = crc32_combine(self._running_crc, piece_crc, length)
        self._running_length += length
        self._verified_up_to = record.output_end

    def _integrity_failure(self, record: ChunkRecord, message: str) -> None:
        """Raise on a checksum mismatch — or, in tolerant mode, log it as
        damage (the data itself stays available) and stand down."""
        if not self._tolerate:
            raise IntegrityError(message)
        from ..recovery import DamagedRegion

        self._damage.regions.append(
            DamagedRegion(
                kind="integrity",
                start_bit=record.start_bit,
                resume_bit=record.end_bit,
                output_offset=record.output_start,
                detail=message,
            )
        )
        recorder = self.telemetry.recorder
        if recorder.enabled:
            recorder.instant(
                "reader.damage", kind="integrity",
                start_bit=record.start_bit,
            )
        self._verify_active = False

    def _ensure_decoded_to(self, offset: int) -> None:
        while (
            self._chunks.frontier is not None
            and self._chunks.known_size <= offset
        ):
            self._decode_next_chunk()

    def _spill_evicted(self):
        """Eviction hook: park evicted chunk bytes in the spill tier.

        Damaged-region bytes are already pinned on the chain (and
        could not be re-decoded anyway), so they never spill. The hook
        holds the event log, the spill tier and the pinned bytes, not the
        reader, so the cache never keeps its reader alive.
        """
        events = self.telemetry.events
        spill = self._spill
        pinned = self._chunks.pinned

        def hook(key, data):
            if events.enabled:
                events.emit("evicted", bit=key, cache="materialized")
            if key in pinned or spill is None:
                return
            if spill.put(key, data) and events.enabled:
                events.emit("spilled", bit=key, nbytes=len(data))
        return hook

    def _cache_materialized(self, key, data) -> None:
        events = self.telemetry.events
        if events.enabled:
            events.emit(
                "cached", bit=key, cache="materialized", nbytes=len(data)
            )
        self._materialized.insert(key, data)

    def _chunk_bytes(self, record: ChunkRecord) -> bytes:
        data = self._materialized.get(record.start_bit)
        if data is None:
            # Tolerant resync segments are pinned: the fetcher cannot
            # re-materialize them (its decode fails at that offset).
            data = self._chunks.pinned.get(record.start_bit)
            if data is not None:
                self._cache_materialized(record.start_bit, data)
                return data
        if data is None and self._spill is not None:
            # Spill tier: CRC-verified reload of a previously evicted
            # chunk; a corrupt or missing spill file falls through to a
            # fresh decode below.
            data = self._spill.get(record.start_bit)
            if data is not None:
                self._cache_materialized(record.start_bit, data)
                return data
        if data is None:
            try:
                result = self._fetcher.request(record.start_bit, record.window)
            except ChunkDecodeError as error:
                if not self._tolerate:
                    raise
                # Prebuilt-index path: the chunk's extent is known, so a
                # damaged chunk becomes pure placeholder bytes.
                data = self._record_index_damage(record, error)
                self._cache_materialized(record.start_bit, data)
                return data
            data = self._materialize_result(result, record.window)
            pieces = self._verify_catalog_chunk(record, data, result.events)
            self._cache_materialized(record.start_bit, data)
            # In index mode chunks materialize here, not via the chain walk;
            # verification proceeds while consumption stays in order and
            # silently stands down on the first out-of-order access.
            self._verify_sequential(record, data, result.events, pieces)
        return data

    def _verify_catalog_chunk(self, record: ChunkRecord, data: bytes,
                              events):
        """Check a freshly decoded chunk against its catalog CRC.

        Unlike the member-footer running CRC, this works at any access
        order — every catalogued chunk is independently verifiable. Returns
        the chunk's :func:`_piece_crcs` when it computed them, so the
        running member CRC folds them instead of reading the bytes again.
        """
        if not self._verify or self._catalog is None:
            return None
        number = self._chunks.position(record.start_bit)
        crc = self._catalog.chunks[number].crc32
        if crc is None:
            return None
        self._chunk_crc_checked.increment()
        pieces = _piece_crcs(data, events)
        computed = 0
        for piece_crc, length in pieces:
            computed = crc32_combine(computed, piece_crc, length)
        if len(data) != record.length or computed != crc:
            self._chunk_crc_failures.increment()
            self._integrity_failure(
                record,
                f"catalog chunk CRC mismatch at output offset "
                f"{record.output_start}: stored {crc:#010x}/{record.length}B, "
                f"computed {computed:#010x}/{len(data)}B",
            )
        return pieces

    def _record_index_damage(self, record: ChunkRecord, error) -> bytes:
        from ..recovery import DamagedRegion

        network = _network_cause(error)
        if isinstance(network, SourceChangedError):
            raise error  # generation mismatch is never placeholder-filled
        cause = getattr(error, "__cause__", None)
        if network is not None:
            # Exhausted retries on this chunk's byte range: the extent is
            # known, so the damage is exactly this chunk, not the file.
            kind = "network"
        elif isinstance(cause, TruncatedError):
            kind = "truncated"
        else:
            kind = "corrupt"
        placeholder = bytes([self._damage.placeholder]) * record.length
        self._damage.regions.append(
            DamagedRegion(
                kind=kind,
                start_bit=record.start_bit,
                resume_bit=record.end_bit,
                output_offset=record.output_start,
                skipped_bits=(record.end_bit or record.start_bit)
                - record.start_bit,
                recovered_bytes=0,
                unresolved_markers=record.length,
                detail=str(error),
            )
        )
        recorder = self.telemetry.recorder
        if recorder.enabled:
            recorder.instant(
                "reader.damage", kind=kind, start_bit=record.start_bit,
                lost_bytes=record.length,
            )
        self._verify_active = False
        self._chunks.pinned[record.start_bit] = placeholder
        return placeholder

    # -- file-like API ------------------------------------------------------------

    def read(self, size: int = -1) -> bytes:
        with self._lock:
            self._check_open()
            started = time.perf_counter()
            recorder = self.telemetry.recorder
            pieces = []
            remaining = size if size >= 0 else None
            while remaining is None or remaining > 0:
                self._ensure_decoded_to(self._position)
                if self._position >= self._chunks.known_size:
                    break  # end of file
                serve_started = time.perf_counter() if recorder.enabled else 0.0
                record = self._chunks.record_for_output(self._position)
                data = self._chunk_bytes(record)
                local = self._position - record.output_start
                piece = (
                    data[local:]
                    if remaining is None
                    else data[local : local + remaining]
                )
                pieces.append(piece)
                if recorder.enabled:
                    recorder.complete(
                        "reader.serve", serve_started, time.perf_counter(),
                        nbytes=len(piece),
                    )
                events = self.telemetry.events
                if events.enabled:
                    events.emit(
                        "served", bit=record.start_bit, nbytes=len(piece)
                    )
                self._position += len(piece)
                if remaining is not None:
                    remaining -= len(piece)
            join_started = time.perf_counter() if recorder.enabled else 0.0
            result = b"".join(pieces)
            finished = time.perf_counter()
            self._read_calls.increment()
            self._read_seconds.observe(finished - started)
            self._bytes_returned.increment(len(result))
            if recorder.enabled:
                recorder.complete(
                    "reader.serve", join_started, finished, nbytes=len(result)
                )
                recorder.complete(
                    "reader.read", started, finished,
                    requested=size, returned=len(result),
                )
            return result

    def readinto(self, buffer) -> int:
        view = memoryview(buffer)
        data = self.read(len(view))
        view[: len(data)] = data
        return len(data)

    def peek(self, size: int = 1) -> bytes:
        """Bytes at the current position without consuming them."""
        with self._lock:
            return self.read_at(self._position, size)

    def readline(self, limit: int = -1) -> bytes:
        """Read up to and including the next newline (file-like API)."""
        with self._lock:
            self._check_open()
            pieces = []
            consumed = 0
            while limit < 0 or consumed < limit:
                step = 8192 if limit < 0 else min(8192, limit - consumed)
                chunk = self.read(step)
                if not chunk:
                    break
                newline = chunk.find(b"\n")
                if newline >= 0:
                    keep = newline + 1
                    self._position -= len(chunk) - keep
                    pieces.append(chunk[:keep])
                    break
                pieces.append(chunk)
                consumed += len(chunk)
            return b"".join(pieces)

    def __iter__(self):
        return self

    def __next__(self) -> bytes:
        line = self.readline()
        if not line:
            raise StopIteration
        return line

    def read_at(self, offset: int, size: int) -> bytes:
        """Positional read; safe for concurrent callers (paper: fast
        concurrent access at two different offsets)."""
        with self._lock:
            self._check_open()
            saved = self._position
            try:
                self._position = offset
                return self.read(size)
            finally:
                self._position = saved

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        with self._lock:
            self._check_open()
            if whence == io.SEEK_SET:
                target = offset
            elif whence == io.SEEK_CUR:
                target = self._position + offset
            elif whence == io.SEEK_END:
                target = self.size() + offset  # forces a full first pass
            else:
                raise UsageError(f"invalid whence: {whence}")
            if target < 0:
                raise UsageError("negative seek target")
            self._position = target
            return target

    def tell(self) -> int:
        return self._position

    def size(self) -> int:
        """Total decompressed size; triggers a full pass if still unknown."""
        with self._lock:
            self._check_open()
            while self._chunks.frontier is not None:
                self._decode_next_chunk()
            return self._chunks.known_size

    def readable(self) -> bool:
        return True

    def seekable(self) -> bool:
        return True

    def writable(self) -> bool:
        return False

    def eof(self) -> bool:
        with self._lock:
            return (
                self._chunks.frontier is None
                and self._position >= self._chunks.known_size
            )

    # -- index management -----------------------------------------------------------

    @property
    def index(self) -> GzipIndex:
        """The (possibly still growing) seek-point index."""
        return self._chunks.index

    @property
    def damage_report(self):
        """Damage accounted so far (empty outside tolerant mode); a
        :class:`~repro.recovery.DamageReport`."""
        return self._damage

    def export_index(self, target) -> GzipIndex:
        """Complete the initial pass if needed, then write the index in
        format v2, bound to this file by its source fingerprint.

        A path is written crash-safely (temp file, ``fsync``,
        ``os.replace``: :func:`~repro.index.save_index`); a binary file
        object receives the bytes. Read it back with
        :func:`~repro.index.load_index`, passing ``source=`` to reject it
        for any other file."""
        with self._lock:
            self._check_open()
            while self._chunks.frontier is not None:
                self._decode_next_chunk()
            fingerprint = index_store.fingerprint_source(self._file_reader)
            if hasattr(target, "write"):
                target.write(index_store.index_to_bytes_v2(
                    self.index, fingerprint=fingerprint
                ))
            else:
                index_store.save_index(
                    self.index, target, fingerprint=fingerprint,
                    telemetry=self.telemetry,
                )
            return self.index

    def statistics(self) -> dict:
        stats = self._fetcher.statistics()
        stats["schema"] = STATS_SCHEMA
        stats["chunks_decoded"] = self._chunks_decoded
        stats["known_size"] = self._chunks.known_size
        stats["read_calls"] = self._read_calls.value
        stats["bytes_returned"] = self._bytes_returned.value
        stats["damaged_regions"] = len(self._damage.regions)
        counter = self.telemetry.metrics.counter
        stats["index"] = {
            "cache_path": self._index_cache_path,
            "imported": self._index_imported,
            "exported": self._index_exported,
            "seek_points": len(self.index),
            "index_chunks": counter("decode.index_chunks").value,
            "windows_validated": counter("index.windows_validated").value,
            # Always 0: a damaged window fails the load, never a chunk.
            # Kept because benchmarks/e2e reads it (ROADMAP 5(b)).
            "fallbacks": 0,
            "load_failures": counter("index.load_failures").value,
            "exports": counter("index.exports").value,
            "export_failures": counter("index.export_failures").value,
        }
        stats["materialized_cache"] = self._materialized.snapshot()
        # The paper's access cache is the materialized cache; the alias
        # keeps older readers of statistics() working (ROADMAP 5(b)).
        stats["access_cache"] = stats["materialized_cache"]
        network_stats = getattr(
            self._file_reader, "network_statistics", None
        )
        stats["network"] = (
            network_stats() if network_stats is not None else None
        )
        stats["spill"] = (
            self._spill.statistics() if self._spill is not None else None
        )
        stats["events"] = (
            {
                "records": self.telemetry.events.num_records,
                "dropped": self.telemetry.events.dropped,
            }
            if self.telemetry.event_logging else None
        )
        stats["metrics"] = self.telemetry.metrics.as_dict()
        return stats

    def save_trace(self, target) -> None:
        """Export the recorded Chrome trace-event JSON (requires
        construction with ``trace=True``); ``target`` is a path or a text
        file-like object. Load the file in Perfetto or chrome://tracing."""
        self.telemetry.recorder.export(target)

    def save_events(self, target) -> None:
        """Export the chunk-lifecycle event log as JSON Lines (requires
        construction with ``events=True``)."""
        self.telemetry.events.save(target)

    def explain(self) -> dict:
        """Attribute each ``read()``'s wall time across pipeline stages.

        Requires construction with ``trace=True`` (event logging enriches
        the report but is optional). Returns the machine-readable report
        of :func:`repro.telemetry.attribute_reads`; render it for humans
        with :func:`repro.telemetry.format_explain`.
        """
        if not self.telemetry.tracing:
            raise UsageError(
                "explain() needs trace spans; open the reader with "
                "trace=True (the CLI's --explain does this automatically)"
            )
        records = (
            self.telemetry.events.records()
            if self.telemetry.event_logging else None
        )
        return attribute_reads(
            self.telemetry.recorder.events(), event_records=records
        )

    @property
    def metrics_url(self):
        """Base URL of the live metrics server, or None when not serving."""
        return (
            self._metrics_server.url
            if self._metrics_server is not None else None
        )

    # -- lifecycle --------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise UsageError("operation on closed ParallelGzipReader")

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                if self._metrics_server is not None:
                    self._metrics_server.stop()
                    self._metrics_server = None
                self._fetcher.close()
                if self._spill is not None:
                    self._spill.close()
                # The probes close over the reader and its parts; frozen,
                # nothing cyclic is left and the last reference frees it.
                self.telemetry.metrics.freeze_probes()
                self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "ParallelGzipReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def decompress_parallel(source, parallelization: int = 1, **kwargs) -> bytes:
    """One-shot parallel decompression of a whole gzip file."""
    with ParallelGzipReader(
        source, parallelization=parallelization, **kwargs
    ) as reader:
        return reader.read()

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

The reader is a thin file-like object over one fetcher: its settings are
one :class:`~repro.reader.ReaderOptions`, its damage handling one
:class:`~repro.recovery.DamagePolicy`, its index cache one
:class:`~repro.index.store.IndexCache`.
"""

from __future__ import annotations

import io
import threading
import time

from ..blockfinder.pugz import (
    PUGZ_MAX_BYTE,
    PUGZ_MIN_BYTE,
    check_pugz_compatible,
)
from ..cache import LRUCache
from ..deflate import MAX_WINDOW_SIZE
from ..errors import ChunkDecodeError, FormatError, UsageError
from ..fetcher import ChunkRecord, GzipChunkFetcher
from ..gz.header import parse_gzip_header
from ..index import GzipIndex, IndexCache
from ..index import store as index_store
from ..io import BitReader, ensure_file_reader
from ..recovery import DamagePolicy
from ..telemetry import (
    MetricsServer,
    Telemetry,
    attribute_reads,
    lifecycle_digest,
)
from ..telemetry.exporter import STATS_SCHEMA
from .options import ReaderOptions
from .verify import ChecksumVerifier

__all__ = ["ParallelGzipReader", "decompress_parallel"]


class ParallelGzipReader:
    """Seekable, parallel-decompressing reader over a gzip file."""

    def __init__(
        self,
        source,
        *,
        index: GzipIndex = None,
        trace: bool = False,
        telemetry: Telemetry = None,
        metrics_port: int = None,
        metrics_host: str = "127.0.0.1",
        metrics_interval: float = 1.0,
        **settings,
    ):
        """Open a gzip file for parallel reading.

        ``settings`` are the fields of :class:`~repro.reader.ReaderOptions`
        (``parallelization``, ``chunk_size``, ``verify``, ``strategy``,
        ``pugz_compatible``, ``max_chunk_output``, ``detect_catalog``,
        ``tolerate_corruption``, ``chunk_timeout``, ``index_cache``,
        ``max_memory``), each documented there; the
        validated object is :attr:`options`. An unknown keyword raises
        :class:`TypeError` and an invalid value
        :class:`~repro.errors.UsageError`, before anything is opened. A
        failed open releases whatever it had acquired.

        ``index`` is a finalized :class:`~repro.index.GzipIndex` to open
        in index mode: each chunk one exact libz pass from its seek point.

        ``trace=True`` records the whole pipeline on one timeline (export
        with :meth:`save_trace`): spans for its work and instants for each
        chunk's lifecycle transitions (queued, cached, shed, rejected,
        no candidate, failed). From it :meth:`explain` reconstructs where
        each ``read()``'s wall time went. Metrics are collected either
        way; pass an existing ``telemetry`` bundle to share one recorder
        and registry across readers.

        ``metrics_port`` (``0`` for an ephemeral port) serves
        ``/metrics`` (Prometheus text), ``/stats`` (:meth:`statistics`),
        ``/series`` (samples every ``metrics_interval`` seconds) and
        ``/healthz`` on ``metrics_host``, from a background thread, until
        :meth:`close`; the URL is :attr:`metrics_url`.
        """
        #: The validated settings (:class:`~repro.reader.ReaderOptions`).
        self.options = ReaderOptions(**settings)
        if index is not None and not index.finalized:
            raise UsageError("only finalized indexes can be imported")
        self.telemetry = (
            telemetry if telemetry is not None
            else Telemetry(trace=trace)
        )
        self._damage = DamagePolicy(
            self.options.tolerate_corruption, self.telemetry.recorder
        )
        self._lock = threading.RLock()
        self._closed = False
        self._fetcher = self._metrics_server = None
        self._file_reader = ensure_file_reader(source)
        try:
            # The probes registered while opening are this reader's own:
            # closing freezes those, never another reader's on a shared
            # registry.
            with self.telemetry.metrics.claim() as self._probes:
                self._open(index)
            if metrics_port is not None:
                self._metrics_server = MetricsServer(
                    self.telemetry,
                    port=metrics_port,
                    host=metrics_host,
                    stats_provider=self.statistics,
                    sample_interval=metrics_interval,
                )
                self._metrics_server.start()
        except BaseException:
            self._release()
            raise

    def _open(self, index) -> None:
        options = self.options
        metrics = self.telemetry.metrics
        self._chunks_decoded = 0  # chunk decodes materialized
        self._position = 0
        self._read_calls = metrics.counter("reader.read_calls")
        self._read_seconds = metrics.histogram("reader.read_seconds")
        self._bytes_returned = metrics.counter("reader.bytes_returned")
        self._markers_replaced = metrics.counter("decode.markers_replaced")
        # Remote stacks count wire traffic from the very first probe
        # request, so attach telemetry before the fetcher is built.
        attach_net = getattr(self._file_reader, "attach_telemetry", None)
        if attach_net is not None:
            attach_net(self.telemetry)
        self._opened_at = time.perf_counter()
        metrics.probe(
            "reader.uptime_seconds",
            lambda: time.perf_counter() - self._opened_at,
        )
        metrics.probe(
            "reader.throughput_bytes_per_second",
            lambda: self._bytes_returned.value
            / max(time.perf_counter() - self._opened_at, 1e-9),
        )

        # A matching cached index is imported before the fetcher is built,
        # so it opens straight in index mode.
        self._index_cache = IndexCache(
            options.index_cache, self._file_reader, self.telemetry
        )
        if index is None:
            index = self._index_cache.load(self._damage.index_rejected)
        try:
            self._fetcher = GzipChunkFetcher(
                self._file_reader, options, index=index,
                telemetry=self.telemetry,
            )
        except FormatError as error:
            # A broken BSIZE chain or an impossible BGZF footer leaves no
            # catalog to open. Tolerant, fall back to the search-mode
            # fetcher, whose resync machinery handles damage.
            self._damage.classify(error)  # strict: raises
            self._fetcher = GzipChunkFetcher(
                self._file_reader, options, index=index,
                detect_bgzf=False, telemetry=self.telemetry,
            )
        # The chunk catalog the fetcher synthesized its index from (empty
        # windows: no chunk needs history), with per-chunk CRCs, or None.
        self._catalog = self._fetcher.catalog
        # The fetcher's chunk chain, extended here as the frontier decodes.
        self._chunks = self._fetcher.chain

        # The materialized cache (the paper's access cache) charges the
        # fetcher's governor: one budget spans the whole pipeline.
        governor = self._fetcher.governor
        sizing = {}
        if governor is not None:
            sizing = {"sizer": len, "governor": governor,
                      "account": "materialized"}
        budget = options.max_memory
        self._materialized = LRUCache(
            max(4, options.parallelization // 2),
            max_bytes=budget // 8 if budget else None,
            **sizing,
        )
        metrics.probe(
            "cache.materialized", lambda: self._materialized.snapshot()
        )

        self._verifier = ChecksumVerifier(
            options.verify, self._catalog, self._chunks, self._damage,
            self.telemetry,
        )

        if self._fetcher.mode == "search":
            # An index is the whole chain: seeking anywhere is O(log n)
            # with no initial pass (paper §1.3). Without one, the chain
            # starts after the first header.
            try:
                header_reader = BitReader(self._file_reader)
                parse_gzip_header(header_reader)
                start_bit = header_reader.tell()
            except FormatError as error:
                self._damage.classify(error)  # strict: raises
                # Damaged leading header: start the chain at bit 0 and let
                # the first frontier decode fail into resync.
                start_bit = 0
            self._chunks.advance(start_bit, b"", True)

    # -- decoding engine --------------------------------------------------------

    def _decode_next_chunk(self, until: int = None):
        """Advance the chain by one chunk (``until`` as in
        :meth:`_decode_frontier_chunk`); a failure goes to the damage
        policy. The first full pass publishes the index to the cache,
        unless it was built over damaged data (an ``index`` region only
        records a rejected stale entry, which the export heals) or is a
        catalog's (already embedded in the file)."""
        try:
            record = self._decode_frontier_chunk(until)
        except (ChunkDecodeError, FormatError) as error:
            record = self._resync(error)
        if (
            self._chunks.frontier is None
            and self._catalog is None
            and all(r.kind == "index" for r in self._damage.report.regions)
        ):
            self._index_cache.export(self.index)
        return record

    def _resync(self, error):
        """Tolerant mode: skip a broken stretch and resynchronise.

        Everything from the next decodable Deflate block to the next
        inconsistency (usually end of file) was decoded serially with
        placeholder bytes where the destroyed window was referenced; it
        is appended as one pinned chunk record. Returns ``None`` when
        nothing decodable remains.
        """
        chain = self._chunks
        start_bit = chain.frontier[0]
        output_start = chain.known_size
        segment = self._damage.resync(
            error, self._file_reader, start_bit, output_start
        )
        self._verifier.stand_down()  # checksums are meaningless past damage
        end_bits = self._file_reader.size() * 8
        if segment is None:
            chain.end(end_bits)  # the rest of the file is lost
            return None
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
        self._materialized.insert(start_bit, segment.data)
        if segment.end_bit >= end_bits - 16:
            # Within footer padding of EOF: the file is fully consumed.
            chain.end(end_bits)
        else:
            # Resume the chain where consistent decoding stopped, without
            # a seek point: the window may itself contain placeholders.
            chain.frontier = (
                segment.end_bit, segment.data[-MAX_WINDOW_SIZE:], False,
            )
        return record

    def _decode_frontier_chunk(self, until: int = None) -> ChunkRecord:
        """Decode the chunk at the frontier and extend the chain.

        ``until`` is the decompressed offset a read smaller than a chunk
        is blocked on: the fetcher may stop the chunk at the first block
        boundary past it (a demand stop) and decode the rest on the pool.
        """
        chain = self._chunks
        start_bit, window, is_stream_start = chain.frontier
        demand = None if until is None else until - chain.known_size
        with self.telemetry.recorder.span(
            "reader.decode_next_chunk", start_bit=start_bit
        ):
            result = self._fetcher.request(start_bit, window, demand)
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
        chain.append_split(
            record, data, result.boundaries, 2 * self.options.chunk_size
        )
        recorder = self.telemetry.recorder
        if recorder.enabled:
            recorder.instant(
                "reader.frontier",
                chunks=len(chain),
                known_size=chain.known_size,
            )
        # One entry for the whole decode, under its first record's key:
        # _chunk_bytes serves every interval of it from there.
        self._materialized.insert(start_bit, data)
        self._verifier.members(record, data, result.events)
        if result.end_bit is not None:
            # The end window was resolved when the fetcher handed over.
            chain.advance(
                result.end_bit, result.next_window(window),
                result.end_is_stream_start,
            )
        else:
            chain.end(start_bit + result.compressed_size_bits)
        return record

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
        if self.options.pugz_compatible and not check_pugz_compatible(data):
            raise FormatError(
                "pugz compatibility mode: decompressed data contains "
                f"bytes outside {PUGZ_MIN_BYTE}-{PUGZ_MAX_BYTE}"
            )
        return data

    def _ensure_decoded_to(self, offset: int, until: int = None) -> None:
        """Extend the chain past ``offset``; ``until`` (a read smaller
        than a chunk: the end of what it asked for) lets the chunk that
        gets there stop soon after it."""
        while (
            self._chunks.frontier is not None
            and self._chunks.known_size <= offset
        ):
            self._decode_next_chunk(until)

    def _entry_owner(self, record: ChunkRecord) -> ChunkRecord:
        """The record whose materialized entry holds ``record``'s bytes:
        the first record of the split decode ``record`` came from while
        that decode's entry is cached, else ``record`` itself."""
        start = record.decode_start
        if start is not None:
            owner = self._chunks[self._chunks.position(start)]
            data = self._materialized.peek(start)
            # A re-read of the first interval alone may hold that key now.
            if data is not None and (
                owner.output_start + len(data) >= record.output_end
            ):
                return owner
        return record

    def _chunk_bytes(self, record: ChunkRecord) -> tuple:
        """``(data, owner)``: bytes covering ``record`` and the record they
        start at (``record``, or the first record of the decode whose entry
        holds it). A miss decodes ``record`` alone."""
        owner = self._entry_owner(record)
        data = self._materialized.get(owner.start_bit)
        if data is not None:
            return data, owner
        key = record.start_bit
        # Tolerant-mode bytes are pinned: the fetcher cannot re-materialize
        # them (its decode fails at that offset). Any other evicted chunk
        # is decoded again: one exact pass from its start and window.
        data = self._chunks.pinned.get(key)
        if data is not None:
            self._materialized.insert(key, data)
            return data, record
        try:
            result = self._fetcher.request(key, record.window)
        except ChunkDecodeError as error:
            # The chunk's extent is known, so a damaged chunk becomes
            # exactly its length of placeholder bytes.
            data = self._damage.fill(error, record)  # strict: raises
            self._verifier.stand_down()
            self._chunks.pinned[key] = data
            self._materialized.insert(key, data)
            return data, record
        data = self._materialize_result(result, record.window)
        pieces = self._verifier.catalog_chunk(record, data, result.events)
        self._materialized.insert(key, data)
        # In index mode chunks materialize here, not via the chain walk;
        # member verification proceeds while consumption stays in order.
        self._verifier.members(record, data, result.events, pieces)
        return data, record

    # -- file-like API ------------------------------------------------------------

    def read(self, size: int = -1) -> bytes:
        with self._lock:
            self._check_open()
            started = time.perf_counter()
            recorder = self.telemetry.recorder
            pieces = []
            remaining = size if size >= 0 else None
            # A read of at least a chunk decodes whole chunks: the rest of
            # a stopped one would be the next thing it waits for.
            small = remaining is not None and size < self.options.chunk_size
            while remaining is None or remaining > 0:
                self._ensure_decoded_to(
                    self._position,
                    self._position + remaining if small else None,
                )
                if self._position >= self._chunks.known_size:
                    break  # end of file
                serve_started = time.perf_counter() if recorder.enabled else 0.0
                record = self._chunks.record_for_output(self._position)
                data, record = self._chunk_bytes(record)
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
                        start_bit=record.start_bit, nbytes=len(piece),
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
        """Damage accounted so far, a :class:`~repro.recovery.DamageReport`:
        tolerant mode's regions, and in either mode a rejected cached
        index."""
        return self._damage.report

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
        stats["damaged_regions"] = len(self._damage.report.regions)
        counter = self.telemetry.metrics.counter
        cache = self._index_cache
        stats["index"] = {
            "cache_path": cache.path,
            "imported": cache.imported,
            "exported": cache.exported,
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
        stats["metrics"] = self.telemetry.metrics.as_dict()
        return stats

    def save_trace(self, target) -> None:
        """Export the recorded Chrome trace-event JSON (requires
        construction with ``trace=True``); ``target`` is a path or a text
        file-like object. Load the file in Perfetto or chrome://tracing."""
        self.telemetry.recorder.export(target)

    def explain(self) -> dict:
        """Attribute each ``read()``'s wall time across pipeline stages.

        Requires construction with ``trace=True``. Returns the
        machine-readable report of :func:`repro.telemetry.attribute_reads`
        plus a ``lifecycle`` digest of the same trace
        (:func:`repro.telemetry.lifecycle_digest`, its evictions from the
        cache counters); render it for humans with
        :func:`repro.telemetry.format_explain`.
        """
        if not self.telemetry.tracing:
            raise UsageError(
                "explain() needs trace spans; open the reader with "
                "trace=True (the CLI's --explain does this automatically)"
            )
        trace_events = self.telemetry.recorder.events()
        report = attribute_reads(trace_events)
        evicted = sum(
            cache.snapshot()["evictions"]
            for cache in (self._fetcher.prefetch_cache, self._materialized)
        )
        report["lifecycle"] = lifecycle_digest(trace_events, evicted=evicted)
        return report

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

    def _release(self) -> None:
        """Let go of everything acquired: the metrics server, the fetcher
        (its pool and the source) or the bare source."""
        if self._metrics_server is not None:
            self._metrics_server.stop()
            self._metrics_server = None
        if self._fetcher is not None:
            self._fetcher.close()
        else:
            self._file_reader.close()
        # The probes close over the reader and its parts; frozen and
        # dropped, nothing cyclic is left and the last reference frees it.
        self.telemetry.metrics.freeze_probes(self._probes)
        self._probes = {}

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._release()
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

"""The cache-and-prefetch chunk fetcher (paper §3.1–§3.4, Fig. 4/5).

Orchestrates a thread pool, a prefetch cache, a prefetch strategy, and
the chunk-id <-> offset database, the
:class:`~repro.fetcher.chain.ChunkChain` (:attr:`GzipChunkFetcher.chain`)
the reader extends. Two operating modes, chosen at construction:

* ``search`` — no index: speculative tasks run the block finder over fixed
  compressed-size cells and two-stage-decode from the first workable
  candidate. False positives land in the cache under offsets nobody
  requests and age out; the consumer's *exact* request (previous chunk's
  end offset) either hits a speculative result or is decoded on demand
  on the requesting thread. When the blocked read asked for less than a
  chunk, that decode stops at the first Deflate block boundary past the
  bytes it asked for (a demand stop) and the rest of the cell is queued
  on the pool at once. §3.3's rule "two-stage only while the window
  is unknown" is applied through the chain. A chunk already on it (one
  record per seek-point interval) has an extent, so a request or
  prefetch wish for it is the ``index`` task below, exactly as in index
  mode. Ahead of the frontier a task is bound when a worker *starts* it,
  not when it is queued: a cell the chain holds a start and window for
  decodes exactly — one libz pass, no block search, no markers — and a
  retired cell returns without searching. No task ever waits on another
  to learn more. Chain first: a wish is searched only for a cell at
  least ``SEARCH_DISTANCE`` (3) cells past the chain's reach (the
  furthest recorded start); cells nearer are left to the exact chain
  and wished again once their start is recorded. So a sequential read
  at P <= 3 never searches, and at P >= 4 only the far wishes do.
* ``index`` — a finalized seek-point index is loaded: the chain is built
  from it, chunks are its intervals, each decoded by one exact libz pass
  from the stored window (fast path, balanced workloads, bounded memory —
  §3.3).
  The index is the caller's, or synthesized from a chunk catalog: an
  ``RG`` / ``MZ`` subfield the encoder wrote, or a BGZF file's BSIZE
  chain (§3.4.4), whose member groups are the chunks.

One name per chunk, in every mode. A chunk on the chain is named by its
start bit: its task key, prefetch-cache key, in-flight charge, trace
label and fault coordinate are ``bit:<start bit>``
(:attr:`~repro.fetcher.chain.ChunkExtent.label`), and its prefetch
history entry is its chain position. Only a search — a cell past the
frontier, the frontier's own decode, or the rest of a demand stop — is
named by its grid cell. A speculative task that yields nothing is never
queued again; the consumer decodes that chunk on demand.

Whatever the mode, speculative or on demand, a decode is one
:class:`~repro.fetcher.tasks.ChunkTaskSpec` filled by
:meth:`GzipChunkFetcher._spec_for` and run by
:func:`~repro.fetcher.tasks.run_chunk_task` with the live reader and
telemetry — on a pool thread when speculative, on the requesting thread
when the consumer is blocked on it.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError
from typing import TYPE_CHECKING

from .. import faults
from ..cache import FetchNextAdaptive, LRUCache, MemoryGovernor
from ..deflate import libz
from ..errors import ChunkDecodeError, UsageError
from ..gz.bgzf import bgzf_catalog, is_bgzf
from ..gz.catalog import detect_catalog as probe_catalog
from ..gz.catalog import synthesize_index
from ..io import ensure_file_reader
from ..pool import create_pool
from ..telemetry import Telemetry
from .chain import ChunkChain
from .decode import ChunkResult
from .tasks import ChunkTaskSpec, run_chunk_task

if TYPE_CHECKING:
    from ..reader.options import ReaderOptions

__all__ = ["GzipChunkFetcher"]


def _result_nbytes(result) -> int:
    """Resident bytes of a cached ChunkResult (the cache sizer)."""
    return result.payload.nbytes


class GzipChunkFetcher:
    """Parallel, speculatively prefetching chunk source for one gzip file.

    ``options`` is the reader's :class:`~repro.reader.ReaderOptions`; the
    fetcher reads its pool size, chunk size, strategy, output caps,
    catalog probe, time-out and memory budget from there.
    """

    def __init__(
        self,
        source,
        options: ReaderOptions,
        *,
        index=None,
        prefetch_cache_size: int = None,
        detect_bgzf: bool = True,
        telemetry: Telemetry = None,
    ):
        self.file_reader = ensure_file_reader(source)
        self.options = options
        self.strategy = options.strategy or FetchNextAdaptive()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        parallelization = options.parallelization

        # Precedence: explicit index > embedded chunk catalog > BGZF >
        # search — an explicit index is the caller's word, a catalog is
        # the encoder's, a BSIZE chain a catalog the format spells out. A
        # broken BSIZE chain raises FormatError here.
        self.catalog = None
        self.catalog_index = None
        self.catalog_errors: list = []
        if index is None:
            if options.detect_catalog:
                self.catalog, self.catalog_errors = probe_catalog(
                    self.file_reader
                )
            if self.catalog is None and detect_bgzf and is_bgzf(
                self.file_reader
            ):
                self.catalog = bgzf_catalog(
                    self.file_reader, options.chunk_size
                )
            if self.catalog is not None:
                self.catalog_index = synthesize_index(
                    self.catalog, self.file_reader.size()
                )
                index = self.catalog_index
            self._note_catalog_probe()
        if index is not None and getattr(index, "finalized", False) and len(index):
            self.mode = "index"
        else:
            self.mode = "search"
        cell_bits = options.chunk_size * 8
        #: What is known about the file's chunks; a finalized index is all
        #: of it at once. In search mode the reader starts the frontier.
        self.chain = ChunkChain(
            index, cell_bits=cell_bits,
            cells=-(-self.file_reader.size() * 8 // cell_bits),
            ahead_limit=2 * parallelization + 2,
        )

        #: ``threads``, or ``serial`` once repeated time-outs retired the pool.
        self.backend = "threads"
        # The first-stage decoder is resolved, never chosen: libz's probe,
        # or the Python decoder without libz.
        self._decoder = "probe" if libz.load() is not None else "python"
        if self._decoder == "python":
            self.telemetry.metrics.counter("decode.libz_unavailable").increment()
        self.pool = create_pool(
            self.backend, parallelization, telemetry=self.telemetry
        )
        self._backend_failures = 0  # time-outs observed since the last downgrade
        capacity = prefetch_cache_size or max(2 * parallelization, 2)
        # Memory governance: one governor for the fetcher's caches and
        # in-flight reservations and the reader's materialized bytes.
        # Without a budget all byte accounting stays dormant.
        budget = options.max_memory
        self.governor = None
        sizing = {}
        if budget is not None:
            self.governor = MemoryGovernor(budget, telemetry=self.telemetry)
            sizing = {"sizer": _result_nbytes, "governor": self.governor}
        self.prefetch_cache = LRUCache(
            capacity,
            max_bytes=budget // 4 if budget else None,
            account="prefetch_cache" if budget is not None else None,
            **sizing,
        )
        # task key (a chained chunk's label, else a cell) -> its future
        self._futures: dict = {}
        self._inflight_charge: dict = {}  # task key -> reserved bytes
        self._failed: set = set()  # task keys never to queue again
        # recent accesses: a chained chunk's chain position, else its cell
        self._history: list = []
        self._lock = threading.RLock()

        metrics = self.telemetry.metrics
        self._speculative_submitted = metrics.counter("fetcher.speculative_submitted")
        self._speculative_unusable = metrics.counter("fetcher.speculative_unusable")
        self._on_demand_decodes = metrics.counter("fetcher.on_demand_decodes")
        self._wait_inflight = metrics.counter("fetcher.wait_inflight")
        self._speculative_rejects = metrics.counter("fetcher.speculative_rejects")
        self._chunk_timeouts = metrics.counter("fetcher.chunk_timeouts")
        self._task_errors = metrics.counter("fetcher.task_errors")
        self._backend_downgrades = metrics.counter("fetcher.backend_downgrades")
        self._chunk_splits = metrics.counter("fetcher.chunk_splits")
        self._demand_stops = metrics.counter("fetcher.demand_stops")
        self._speculative_shed = metrics.counter("fetcher.speculative_shed")
        metrics.probe(
            "cache.prefetch", lambda: self.prefetch_cache.snapshot()
        )
        metrics.probe("fetcher.inflight_decodes", lambda: len(self._futures))

    def _note_catalog_probe(self) -> None:
        """Account the open-time catalog probe in metrics and the trace."""
        metrics = self.telemetry.metrics
        recorder = self.telemetry.recorder
        if self.catalog_errors:
            metrics.counter("encoding.catalog_rejected").increment(
                len(self.catalog_errors)
            )
            if recorder.enabled:
                for reason in self.catalog_errors:
                    recorder.instant(
                        "encoding.catalog_rejected", reason=reason
                    )
        if self.catalog is not None:
            metrics.counter("encoding.catalog_detected").increment()
            if recorder.enabled:
                recorder.instant(
                    "encoding.catalog_detected",
                    source=self.catalog.source,
                    layout=self.catalog.layout,
                    chunks=len(self.catalog.chunks),
                )

    # -- task specs ----------------------------------------------------------------

    def _spec_for(self, chunk_id, attempt: int = 0,
                  exact=None, known=None) -> ChunkTaskSpec:
        """The one description of a chunk decode.

        ``known`` is the chunk's extent on the chain: the ``index`` task,
        in every mode. Otherwise ``chunk_id`` is the cell a search runs
        over, and ``exact`` is ``(start_bit, window)`` when the decode
        starts there instead of searching — the on-demand request.
        """
        spec = ChunkTaskSpec(
            mode="search",
            chunk_id=chunk_id,
            attempt=attempt,
            split_output=self.options.split_output,
        )
        if known is not None:
            spec.mode = "index"
            spec.start_bit, spec.extent = known.start_bit, known
        elif exact is not None:
            spec.start_bit, spec.window = exact
        return spec

    # -- cache plumbing ------------------------------------------------------------

    def _harvest(self) -> None:
        """Move completed speculative futures into the prefetch cache."""
        with self._lock:
            finished = [
                (key, future) for key, future in self._futures.items()
                if future.done()
            ]
            if not finished:
                return
            recorder = self.telemetry.recorder
            # Spanned: absorbing worker results (cache inserts) is
            # read-thread time --explain should account for.
            with recorder.span("chunk.harvest", count=len(finished)):
                self._harvest_finished(finished, recorder)

    def _harvest_finished(self, finished, recorder) -> None:
        for key, future in finished:
            del self._futures[key]
            reserved = self._inflight_charge.pop(key, 0)
            if reserved and self.governor is not None:
                self.governor.discharge("in_flight", reserved)
            try:
                result = future.result()
            except CancelledError:
                # Shed under memory pressure before any worker ran it.
                # Says nothing about decodability: stay eligible for
                # resubmission once the budget has headroom again.
                if recorder.enabled:
                    recorder.instant("chunk.speculative_shed", chunk_id=key)
                continue
            except Exception as error:  # contain: speculation is optional
                self._task_errors.increment()
                if recorder.enabled:
                    recorder.instant(
                        "chunk.task_error", chunk_id=key, error=repr(error),
                    )
                result = None
            if result is None:
                # No candidate, rejected or failed (the task body said
                # which): never queued again; the consumer decodes the
                # chunk on demand.
                self._failed.add(key)
                self._speculative_unusable.increment()
                continue
            if result.split:
                self._chunk_splits.increment()
            if recorder.enabled:
                # Binds the task key to its start bit, the key the
                # reader's serve records carry. Without a known window
                # it waits for its predecessor's at materialization.
                recorder.instant(
                    "chunk.cached", chunk_id=key,
                    start_bit=result.start_bit,
                    window_known=result.window_known,
                )
            self.prefetch_cache.insert(result.start_bit, result)

    def _inflight_estimate(self, known) -> int:
        """Conservative resident-byte reservation for one in-flight decode:
        a chunk of known extent has its decompressed size, a search the
        split ceiling (marker symbols are 2 bytes each)."""
        if known is not None:
            return max(known.length, 1)
        return 2 * self.options.split_output

    def _submit(self, key, known=None) -> bool:
        """Submit a speculative decode of the chunk ``known`` names, whose
        key is its label, else a search of cell ``key``; False only on a
        budget refusal."""
        chain = self.chain
        with self._lock:
            if (
                self.backend == "serial"
                or key in self._futures
                or key in self._failed
                or (known is None
                    and (key in chain.retired or not 0 <= key < chain.cells))
            ):
                return True
            reserved = 0
            if self.governor is not None and self.governor.budget:
                reserved = self._inflight_estimate(known)
                # Headroom keeps room for one mandatory on-demand decode,
                # so speculation can never starve the consumer's read.
                if not self.governor.try_reserve(
                    "in_flight", reserved, headroom=2 * self.options.split_output
                    if self.mode == "search" else reserved,
                ):
                    return False
            self._speculative_submitted.increment()
            recorder = self.telemetry.recorder
            if recorder.enabled:
                recorder.instant("chunk.queued", chunk_id=key)
            self._futures[key] = self.pool.submit(
                self._run_queued, self._spec_for(key, known=known)
            )
            if reserved:
                self._inflight_charge[key] = reserved
            return True

    def _run_queued(self, spec: ChunkTaskSpec):
        """A worker starts a queued task: bind it to what is known now,
        not at submission. A search cell the chain holds a start and
        window for decodes exactly from there, like the on-demand rung; a
        retired cell returns without searching. A search that lands on
        the recorded start extends the chain too."""
        if spec.mode != "search":
            return run_chunk_task(
                spec, self.file_reader, self.telemetry, self.options
            )
        chain = self.chain
        if spec.chunk_id in chain.retired:
            recorder = self.telemetry.recorder
            if recorder.enabled:
                recorder.instant("chunk.no_candidate", chunk_id=spec.chunk_id)
            return None
        entry = chain.ahead.get(spec.chunk_id)
        if entry is not None:
            spec.start_bit, spec.window = entry
        result = run_chunk_task(
            spec, self.file_reader, self.telemetry, self.options
        )
        entry = entry or chain.ahead.get(spec.chunk_id)
        if result is not None and entry and result.start_bit == entry[0]:
            chain.hand_over(result, entry[1])
        return result

    def _shed_speculation(self) -> int:
        """Cancel queued speculative work to free budget reservations.

        Cancelled futures complete immediately, so a follow-up harvest
        discharges their in-flight reservations synchronously.
        """
        shed = self.pool.shed()
        if shed:
            self._speculative_shed.increment(shed)
            self._harvest()
        return shed

    def _targets(self, wishes: list, chained: bool) -> list:
        """``(task key, extent)`` per wish, in wish order. After a frontier
        access the wishes are cells (extent ``None``); after a chained one
        they are chain positions, in every mode.

        A position on the chain is that chunk's extent, and one n past the
        newest record the grid cell n steps beyond the frontier — inside
        known territory a cell's block search finds nothing the chain does
        not already name. Positions before the file's start, past its end,
        or of pinned bytes drop out.
        """
        if not chained:
            return [(wish, None) for wish in wishes]
        chain = self.chain
        targets = []
        for wish in wishes:
            if 0 <= wish < len(chain):
                extent = chain.extent(chain[wish].start_bit)
                if extent is not None:
                    targets.append((extent.label, extent))
            elif wish >= len(chain) and chain.frontier is not None:
                beyond = wish - len(chain)
                targets.append(
                    (chain.frontier[0] // chain.cell_bits + beyond, None)
                )
        return targets

    def _trigger_prefetch(self, access: int, chained: bool) -> None:
        self._history.append(access)
        if len(self._history) > 64:
            del self._history[:-64]
        wishes = self.strategy.prefetch(
            self._history, self.options.parallelization
        )
        chain = self.chain
        for key, known in self._targets(wishes, chained):
            # The wish-check reads the cache's keys, never its LRU recency
            # or hit/miss statistics.
            if known is not None:
                cached = known.start_bit in self.prefetch_cache
            elif key not in chain.ahead and chain.within_reach(key):
                # Chain first: the exact chain gets there before a search
                # would pay; the wish returns once its start is recorded.
                continue
            else:
                cached = any(bit // chain.cell_bits == key
                             for bit in self.prefetch_cache.keys())
            if cached:
                continue
            if not self._submit(key, known):
                # Over budget: shed queued speculation instead of piling
                # more on, and stop walking the wish list — later wishes
                # would only hit the same refusal.
                self._shed_speculation()
                break

    # -- public API -----------------------------------------------------------------

    def request(self, start_bit: int, window: bytes,
                demand: int = None) -> ChunkResult:
        """Return the chunk starting exactly at ``start_bit``.

        ``window`` is the known 32 KiB preceding the chunk (``b""`` at
        stream starts) — used only when an on-demand decode is needed;
        cached speculative results keep their markers and are materialized
        by the caller. Nothing is kept here once served: the reader's
        materialized-bytes cache is the paper's access cache.

        A chunk already on the :attr:`chain` is decoded on demand by one
        exact pass over its known extent (the ``index`` task), in every
        mode, never by block search or markers; those serve the frontier
        and beyond.

        ``demand`` is how many of the chunk's bytes a read blocked on it
        asked for, when that read was smaller than a chunk. A frontier
        chunk no pool task delivered then stops at the first Deflate
        block boundary past them (a *demand stop*), and the rest of its
        cell is queued on the pool in the same call: the consumer waits
        for the blocks it asked for, not for the whole cell.

        Every request triggers the prefetcher, prefetch-cache hit or not
        (§3.1) — along the chain's successors after a chunk of known
        extent, over grid cells otherwise. A hit in the reader's
        materialized cache is served by the reader and never reaches this
        method, so the prefetch history holds only that cache's misses:
        re-reading a chunk the reader still holds neither extends nor
        breaks a sequential run.
        """
        chain = self.chain
        known = chain.extent(start_bit)
        if known is None:
            # The frontier keeps its cell: one frontier decode may become
            # several records, and named by position consecutive frontier
            # reads would skip some and break the sequential run.
            key = access = start_bit // chain.cell_bits
        else:
            key, access = known.label, chain.position(start_bit)
        self._harvest()
        result = self.prefetch_cache.get(start_bit)
        if result is None:
            # An in-flight speculative task may be about to produce it.
            future = self._futures.get(key)
            if future is not None:
                self._wait_inflight.increment()
                with self.telemetry.recorder.span(
                    "chunk.wait_inflight", chunk_id=key
                ):
                    try:
                        future.result(timeout=self.options.chunk_timeout)
                    except TimeoutError:
                        self._chunk_timeouts.increment()
                        self._note_backend_failure("timeout")
                    except Exception:
                        pass  # classified (and counted) by _harvest below
                self._harvest()
                result = self.prefetch_cache.get(start_bit)
        ceiling = None
        if result is None:
            ceiling = self._demand_ceiling(demand, known)
            result = self._produce_chunk(
                start_bit, key, window, known, ceiling
            )
            if result.split:
                (self._chunk_splits if ceiling is None
                 else self._demand_stops).increment()
        if known is None:
            # The frontier: its window is known, so its successor's is too.
            chain.hand_over(result, window)
            if ceiling is not None and result.split:
                # The rest lies in the accessed cell, which no wish names.
                self._submit(result.end_bit // chain.cell_bits)
        self._trigger_prefetch(access, known is not None)
        return result

    def _demand_ceiling(self, demand, known):
        """The output ceiling of the on-demand decode of a chunk a read
        waits on ``demand`` bytes of, or ``None`` to decode it whole.

        Only a frontier chunk stops early, and only while a pool exists
        to decode the rest: a chunk of known extent (index, catalog,
        BGZF, or already chained) is proven by decoding all of it. The
        budget's ceiling wins when it is the lower one.
        """
        if demand is None or known is not None or self.backend != "threads":
            return None
        budget = self.options.split_output
        return demand if budget is None or demand < budget else None

    # -- on-demand decode -------------------------------------------------------------

    def _produce_chunk(self, start_bit: int, chunk_id, window: bytes,
                       known, ceiling=None):
        """Produce a chunk no cache or in-flight task delivered: decode it
        on this thread from the last verified offset, or raise a structured
        :class:`ChunkDecodeError` carrying the full context.

        Under a memory budget the decode is *mandatory* — the consumer is
        blocked on it — so when its worst case does not fit it sheds queued
        speculation (whose harvest drains reservations) and charges with
        :meth:`MemoryGovernor.reserve`, which never refuses and never
        waits: every discharge runs on this thread. ``ceiling`` is a demand
        stop's output ceiling (:meth:`_demand_ceiling`).
        """
        if self.governor is not None and self.governor.budget:
            reserved = self._inflight_estimate(known)
            if not self.governor.try_reserve("on_demand", reserved):
                self._shed_speculation()
                self.governor.reserve("on_demand", reserved)
            try:
                return self._decode_on_demand(
                    start_bit, chunk_id, window, known, ceiling
                )
            finally:
                self.governor.discharge("on_demand", reserved)
        return self._decode_on_demand(
            start_bit, chunk_id, window, known, ceiling
        )

    def _decode_on_demand(self, start_bit: int, chunk_id, window: bytes,
                          known, ceiling=None):
        """The serial rung: the same task, run on this thread."""
        self._on_demand_decodes.increment()
        try:
            faults.fire("chunk.on_demand", chunk_id=chunk_id, attempt=1)
            spec = self._spec_for(
                chunk_id, attempt=1, exact=(start_bit, window), known=known,
            )
            if ceiling is not None:
                spec.split_output = ceiling
            return run_chunk_task(
                spec, self.file_reader, self.telemetry, self.options
            )
        except UsageError:
            raise  # caller bug, not a decode failure — report it as-is
        except Exception as error:
            raise ChunkDecodeError(
                f"chunk {chunk_id} failed to decode at bit offset "
                f"{start_bit} on the {self.backend!r} backend: {error}",
                chunk_id=chunk_id,
                start_bit=start_bit,
                backend=self.backend,
            ) from error

    def _note_backend_failure(self, reason: str) -> None:
        """Record an in-flight time-out; downgrade when they pile up."""
        with self._lock:
            self._backend_failures += 1
            if self._backend_failures < 3:
                return
        self._downgrade_backend(reason)

    def _downgrade_backend(self, reason: str) -> None:
        """Step down threads → serial after repeated time-outs.

        The pool object stays: its statistics stay readable and its
        in-flight futures are harvested like any others; :meth:`_submit`
        stops feeding it.
        """
        with self._lock:
            if self.backend == "serial":
                return
            self._backend_downgrades.increment()
            recorder = self.telemetry.recorder
            if recorder.enabled:
                recorder.instant(
                    "fetcher.backend_downgrade", previous=self.backend,
                    target="serial", reason=reason,
                )
            self.backend = "serial"
            self._backend_failures = 0

    # -- statistics ----------------------------------------------------------------

    def statistics(self) -> dict:
        """Plain-dict snapshot (no live mutable objects leak out)."""
        memory = (
            self.governor.snapshot() if self.governor is not None else None
        )
        return {
            "mode": self.mode,
            "backend": self.backend,
            "decoder": self._decoder,
            "memory": memory,
            "encoding": {
                "catalog_detected": self.catalog is not None,
                "source": self.catalog.source if self.catalog else None,
                "layout": self.catalog.layout if self.catalog else None,
                "chunks": len(self.catalog.chunks) if self.catalog else 0,
                "catalog_rejected": self.telemetry.metrics.counter(
                    "encoding.catalog_rejected"
                ).value,
                "catalog_errors": list(self.catalog_errors),
                "markers_replaced": self.telemetry.metrics.counter(
                    "decode.markers_replaced"
                ).value,
                "blockfinder_searches": self.telemetry.metrics.counter(
                    "blockfinder.candidates_tested"
                ).value,
                "chunk_crc_checked": self.telemetry.metrics.counter(
                    "encoding.chunk_crc_checked"
                ).value,
                "chunk_crc_failures": self.telemetry.metrics.counter(
                    "encoding.chunk_crc_failures"
                ).value,
            },
            "chunk_split_size": self.options.split_output,
            "chunk_splits": self._chunk_splits.value,
            "speculative_shed": self._speculative_shed.value,
            "prefetch_cache": self.prefetch_cache.snapshot(),
            "speculative_submitted": self._speculative_submitted.value,
            "speculative_unusable": self._speculative_unusable.value,
            "on_demand_decodes": self._on_demand_decodes.value,
            "speculative_rejects": self._speculative_rejects.value,
            "wait_inflight": self._wait_inflight.value,
            "chunk_timeouts": self._chunk_timeouts.value,
            "task_errors": self._task_errors.value,
            "backend_downgrades": self._backend_downgrades.value,
            "inflight_decodes": len(self._futures),
            "pool": self.pool.statistics(),
        }

    def close(self) -> None:
        # Nobody will read what is still queued: cancel it (``shed``), wait
        # for what runs, harvest — every queued chunk ends in a terminal state.
        self._shed_speculation()
        self.pool.shutdown(wait=True)
        self._harvest()
        # Nothing decodes again: drop the windows held ahead.
        self.chain.close()
        self.file_reader.close()

    def __enter__(self) -> "GzipChunkFetcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

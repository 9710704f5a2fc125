"""The cache-and-prefetch chunk fetcher (paper §3.1–§3.4, Fig. 4/5).

Orchestrates a thread pool, a prefetch cache, a prefetch strategy, and
the chunk-id <-> offset database, the
:class:`~repro.fetcher.chain.ChunkChain` (:attr:`GzipChunkFetcher.chain`)
the reader extends. Two operating modes, chosen at construction:

* ``search`` — no index: speculative tasks run the block finder over fixed
  compressed-size cells and two-stage-decode from the first workable
  candidate. False positives land in the cache under offsets nobody
  requests and age out; the consumer's *exact* request (previous chunk's
  end offset) either hits a speculative result or triggers an on-demand
  decode at top priority. §3.3's rule "two-stage only while the window
  is unknown" is applied through the chain. A chunk already on it has an
  extent, so a request or prefetch wish for it is the ``index`` task
  below, and prefetch follows its successors instead of searching cells.
  Ahead of the frontier a task is bound when a worker *starts* it, not
  when it is queued: a cell the chain holds a start and window for
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

Whatever the mode and the priority (speculative prefetch or on-demand),
a decode is one :class:`~repro.fetcher.tasks.ChunkTaskSpec` filled by
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
from ..pool import PRIORITY_PREFETCH, create_pool
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
        self._futures: dict = {}  # chunk id -> Future[ChunkResult | None]
        self._keys_of_id: dict = {}  # chunk id -> set of cached start_bits
        self._inflight_charge: dict = {}  # chunk id -> reserved bytes
        self._history: list = []  # recently accessed chunk ids
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

    # -- chunk-id database (offsets <-> indexes, paper §3.2) --------------------

    def chunk_id_for_bit(self, start_bit: int) -> int:
        if self.mode == "search":
            return start_bit // self.chain.cell_bits
        identifier = self.chain.position(start_bit)
        if identifier is None:
            raise UsageError(f"bit offset {start_bit} is not a chunk boundary")
        return identifier

    @property
    def num_chunk_ids(self) -> int:
        return self.chain.cells if self.mode == "search" else len(self.chain)

    # -- task specs ----------------------------------------------------------------

    def _spec_for(self, chunk_id: int, attempt: int = 0,
                  exact=None, known=None) -> ChunkTaskSpec:
        """The one description of a chunk decode.

        ``exact`` (search mode only) is ``(start_bit, window)``: instead
        of searching, decode exactly from that offset — the on-demand
        request. ``known`` (search mode only) is the chunk's extent on
        the chain and wins over it: the same ``index`` task an index
        chunk is. ``None`` for an index chunk whose bytes the reader
        pinned: nothing decodes it again.
        """
        spec = ChunkTaskSpec(
            mode=self.mode,
            chunk_id=chunk_id,
            attempt=attempt,
        )
        if self.mode == "index":
            known = self.chain.extent(self.chain[chunk_id].start_bit)
            if known is None:
                return None
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
                (chunk_id, future)
                for chunk_id, future in self._futures.items()
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
        for chunk_id, future in finished:
            del self._futures[chunk_id]
            reserved = self._inflight_charge.pop(chunk_id, 0)
            if reserved and self.governor is not None:
                self.governor.discharge("in_flight", reserved)
            try:
                result = future.result()
            except CancelledError:
                # Shed under memory pressure before any worker ran it.
                # Says nothing about decodability: stay eligible for
                # resubmission once the budget has headroom again.
                if recorder.enabled:
                    recorder.instant(
                        "chunk.speculative_shed", chunk_id=chunk_id
                    )
                continue
            except Exception as error:  # contain: speculation is optional
                self._task_errors.increment()
                if recorder.enabled:
                    recorder.instant(
                        "chunk.task_error", chunk_id=chunk_id,
                        error=repr(error),
                    )
                result = None
            if result is None:
                # No candidate or rejected (the task body said which).
                self.chain.retired.add(chunk_id)
                self._speculative_unusable.increment()
                continue
            if result.split:
                self._chunk_splits.increment()
            if recorder.enabled:
                # Binds the chunk id to its start bit, the key the
                # reader's serve records carry. Without a known window
                # it waits for its predecessor's at materialization.
                recorder.instant(
                    "chunk.cached", chunk_id=chunk_id,
                    start_bit=result.start_bit,
                    window_known=result.window_known,
                )
            self.prefetch_cache.insert(result.start_bit, result)
            # The wish-check reads these keys through ``peek``: checking a
            # wish never touches LRU recency or the hit/miss statistics.
            self._keys_of_id.setdefault(chunk_id, set()).add(result.start_bit)

    def _inflight_estimate(self, chunk_id: int, known=None) -> int:
        """Conservative resident-byte reservation for one in-flight decode.

        Search mode is bounded by the split ceiling (marker symbols are
        2 bytes each); index chunks and chunks of known extent have a
        known decompressed size.
        """
        if known is not None:
            return max(known.length, 1)
        if self.mode == "search":
            return 2 * self.options.split_output
        return max(self.chain[chunk_id].length, 1)

    def _submit(self, chunk_id: int, known=None) -> bool:
        """Submit a speculative decode (of the chunk ``known`` names, when
        given); False only on a budget refusal."""
        with self._lock:
            if (
                self.backend == "serial"
                or chunk_id in self._futures
                or chunk_id in self.chain.retired
                or chunk_id < 0
                or chunk_id >= self.num_chunk_ids
            ):
                return True
            reserved = 0
            if self.governor is not None and self.governor.budget:
                reserved = self._inflight_estimate(chunk_id, known)
                # Headroom keeps room for one mandatory on-demand decode,
                # so speculation can never starve the consumer's read.
                if not self.governor.try_reserve(
                    "in_flight", reserved, headroom=2 * self.options.split_output
                    if self.mode == "search" else reserved,
                ):
                    return False
            spec = self._spec_for(chunk_id, known=known)
            if spec is None:
                if reserved:
                    self.governor.discharge("in_flight", reserved)
                return True
            self._speculative_submitted.increment()
            recorder = self.telemetry.recorder
            if recorder.enabled:
                recorder.instant("chunk.queued", chunk_id=chunk_id)
            self._futures[chunk_id] = self.pool.submit(
                self._run_queued, spec, priority=PRIORITY_PREFETCH,
            )
            if reserved:
                self._inflight_charge[chunk_id] = reserved
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
        shed = self.pool.shed(PRIORITY_PREFETCH)
        if shed:
            self._speculative_shed.increment(shed)
            self._harvest()
        return shed

    def _wishes_along_chain(self, accessed_id: int, known, wishes: list) -> list:
        """Re-aim the wishes ahead of a chunk of known extent along the
        chain: ``(chunk_id, extent)`` pairs, in wish order.

        The wish ``accessed_id + n`` becomes the accessed chunk's n-th
        chain successor while those are known, and past the newest of
        them the grid cell that many steps beyond the frontier — inside
        known territory a cell's block search finds nothing the chain
        does not already name. Wishes past the file's end drop out; the
        others (behind the access, another stream's) stay grid cells.
        """
        steps = max(wishes, default=accessed_id) - accessed_id
        successors, frontier_bit = self.chain.successors(known, steps)
        targets = []
        for wish in wishes:
            step = wish - accessed_id
            if step < 1:
                targets.append((wish, None))
            elif step <= len(successors):
                extent = successors[step - 1]
                targets.append((self.chunk_id_for_bit(extent.start_bit), extent))
            elif frontier_bit is not None:
                beyond = step - len(successors) - 1
                targets.append((self.chunk_id_for_bit(frontier_bit) + beyond, None))
        return targets

    def _trigger_prefetch(self, accessed_id: int, known) -> None:
        self._history.append(accessed_id)
        if len(self._history) > 64:
            del self._history[:-64]
        wishes = self.strategy.prefetch(
            self._history, self.options.parallelization
        )
        if known is None:
            targets = [(wish, None) for wish in wishes]
        else:
            targets = self._wishes_along_chain(accessed_id, known, wishes)
        for wish, target in targets:
            if (target is None and wish not in self.chain.ahead
                    and self.chain.within_reach(wish)):
                # Chain first: the exact chain gets there before a search
                # would pay; the wish returns once its start is recorded.
                continue
            keys = (
                (target.start_bit,) if target is not None
                else self._keys_of_id.get(wish, ())
            )
            if any(self.prefetch_cache.peek(key) is not None
                   for key in keys):
                continue
            if not self._submit(wish, target):
                # Over budget: shed queued speculation instead of piling
                # more on, and stop walking the wish list — later wishes
                # would only hit the same refusal.
                self._shed_speculation()
                break

    # -- public API -----------------------------------------------------------------

    def request(self, start_bit: int, window: bytes) -> ChunkResult:
        """Return the chunk starting exactly at ``start_bit``.

        ``window`` is the known 32 KiB preceding the chunk (``b""`` at
        stream starts) — used only when an on-demand decode is needed;
        cached speculative results keep their markers and are materialized
        by the caller. Nothing is kept here once served: the reader's
        materialized-bytes cache is the paper's access cache.

        In search mode a chunk already on the :attr:`chain` is decoded on
        demand by one exact pass over its known extent (the ``index``
        task), never by block search or markers;
        those serve the frontier and beyond.

        Every access triggers the prefetcher, cache hit or not (§3.1) —
        along the chain's successors after a chunk of known extent, over
        grid cells otherwise.
        """
        chunk_id = self.chunk_id_for_bit(start_bit)
        known = self.chain.extent(start_bit) if self.mode == "search" else None
        self._harvest()
        result = self.prefetch_cache.get(start_bit)
        if result is None:
            # An in-flight speculative task may be about to produce it.
            future = self._futures.get(chunk_id)
            if future is not None:
                self._wait_inflight.increment()
                with self.telemetry.recorder.span(
                    "chunk.wait_inflight", chunk_id=chunk_id
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
        if result is None:
            result = self._produce_chunk(start_bit, chunk_id, window, known)
            if result.split:
                self._chunk_splits.increment()
        if known is None and self.mode == "search":
            # The frontier: its window is known, so its successor's is too.
            self.chain.hand_over(result, window)
        self._trigger_prefetch(chunk_id, known)
        return result

    # -- on-demand decode -------------------------------------------------------------

    def _produce_chunk(self, start_bit: int, chunk_id: int, window: bytes,
                       known):
        """Produce a chunk no cache or in-flight task delivered: decode it
        on this thread from the last verified offset, or raise a structured
        :class:`ChunkDecodeError` carrying the full context.

        Under a memory budget the decode is *mandatory* — the consumer is
        blocked on it — so when its worst case does not fit it sheds queued
        speculation (whose harvest drains reservations) and charges with
        :meth:`MemoryGovernor.reserve`, which never refuses and never
        waits: every discharge runs on this thread.
        """
        if self.governor is not None and self.governor.budget:
            reserved = self._inflight_estimate(chunk_id, known)
            if not self.governor.try_reserve("on_demand", reserved):
                self._shed_speculation()
                self.governor.reserve("on_demand", reserved)
            try:
                return self._decode_on_demand(
                    start_bit, chunk_id, window, known
                )
            finally:
                self.governor.discharge("on_demand", reserved)
        return self._decode_on_demand(start_bit, chunk_id, window, known)

    def _decode_on_demand(self, start_bit: int, chunk_id: int, window: bytes,
                          known):
        """The serial rung: the same task, run on this thread."""
        self._on_demand_decodes.increment()
        try:
            faults.fire("chunk.on_demand", chunk_id=chunk_id, attempt=1)
            spec = self._spec_for(
                chunk_id, attempt=1, exact=(start_bit, window), known=known,
            )
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

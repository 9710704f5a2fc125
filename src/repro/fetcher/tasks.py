"""The chunk-decode task: one description, one body, every backend.

A chunk decode is one task the fetcher submits at two priorities,
prefetch or on-demand (paper §3.1–§3.2, Fig. 4). :class:`ChunkTaskSpec`
is its only description and :func:`run_chunk_task` its only body — span,
``decode`` lifecycle event, ``chunk.decode`` fault site, dispatch to the
mode's decode function, folding of a speculative reject — so backends
differ only in pool and shipping. Pool threads and the serial rung call
the body with the fetcher's live file reader and telemetry. Worker
*processes* share neither: the spec is picklable and carries a *reader
recipe* saying how the child re-opens the source, and
:func:`execute_chunk_task` wraps that one boundary, shipping back a
:class:`RemoteChunkOutcome` — the :class:`ChunkResult` (``bytes`` and
numpy ``uint16`` segments, which pickle cheaply) bundled with the
telemetry the child accumulated, so ``--profile``/``--trace`` keep
seeing per-chunk numbers no matter where the chunk was decoded.

Reader recipes:

* ``("path", path)`` — re-open the file with ``os.pread`` positional
  reads (one descriptor per worker process, cached across tasks).
* ``("inherited", token)`` — an in-memory source registered in the
  parent *before* the pool forked; the child finds it copy-on-write in
  :data:`_INHERITED_SOURCES`. Zero per-task shipping cost.
* ``("bytes", data)`` — the source travels inside the spec. Spawn-safe
  fallback when fork inheritance is unavailable.
* ``("url", options)`` — a remote source: the child rebuilds the full
  resilient HTTP stack from a :class:`~repro.io.RemoteReaderOptions`
  bound to the parent's discovered size/ETag, so a mid-decode origin
  swap is detected child-side too.
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass, field

from .. import faults
from ..errors import FormatError, UsageError
from ..io import FileReader, MemoryFileReader, StandardFileReader
from ..telemetry import Telemetry
from .block_map import ChunkExtent
from .decode import (
    ChunkResult,
    decode_bgzf_members,
    decode_chunk_range,
    decode_index_chunk,
    speculative_decode,
)

__all__ = [
    "ChunkTaskSpec",
    "RemoteChunkOutcome",
    "execute_chunk_task",
    "make_reader_recipe",
    "release_inherited_source",
    "resolve_reader_recipe",
    "run_chunk_task",
]

#: Parent-registered in-memory sources, inherited by forked workers.
_INHERITED_SOURCES: dict = {}
_TOKENS = itertools.count()

#: Child-side cache of re-opened readers, keyed by recipe (per process).
_READER_CACHE: dict = {}


def register_inherited_source(data: bytes) -> int:
    """Register an in-memory source for fork inheritance; returns a token.

    Must run *before* the worker pool starts: forked children see a
    copy-on-write snapshot of this registry, nothing registered later.
    """
    token = next(_TOKENS)
    _INHERITED_SOURCES[token] = bytes(data)
    return token


def release_inherited_source(token) -> None:
    """Drop a registered source (parent-side bookkeeping on close)."""
    _INHERITED_SOURCES.pop(token, None)


def make_reader_recipe(file_reader: FileReader, *, fork: bool):
    """Build ``(recipe, token)`` describing how workers re-open ``file_reader``.

    ``token`` is non-None when an inherited in-memory source was
    registered and should be released when the fetcher closes. Sources
    that are not plain files are materialized to memory once here — a
    file-like object's single shared cursor cannot be shipped to another
    process.
    """
    options = getattr(file_reader, "remote_options", None)
    if options is not None:
        return ("url", options), None
    if isinstance(file_reader, StandardFileReader):
        return ("path", file_reader.path), None
    if isinstance(file_reader, MemoryFileReader):
        data = file_reader.view().obj  # zero-copy: the underlying bytes
    else:
        data = file_reader.pread(0, file_reader.size())
    if fork:
        token = register_inherited_source(data)
        return ("inherited", token), token
    return ("bytes", bytes(data)), None


def resolve_reader_recipe(recipe) -> FileReader:
    """Child side: turn a recipe back into a ready file reader."""
    kind = recipe[0]
    if kind == "path":
        reader = _READER_CACHE.get(recipe)
        if reader is None:
            reader = StandardFileReader(recipe[1])
            _READER_CACHE[recipe] = reader
        return reader
    if kind == "inherited":
        data = _INHERITED_SOURCES.get(recipe[1])
        if data is None:
            raise UsageError(
                f"inherited source {recipe[1]} is not present in this "
                f"process — it was registered after the pool forked, or "
                f"the pool uses the spawn start method (use a path or "
                f"'bytes' recipe instead)"
            )
        return MemoryFileReader(data)
    if kind == "bytes":
        return MemoryFileReader(recipe[1])
    if kind == "url":
        reader = _READER_CACHE.get(recipe)
        if reader is None:
            from ..io.remote import reader_from_options

            reader = reader_from_options(recipe[1])
            _READER_CACHE[recipe] = reader
        return reader
    raise UsageError(f"unknown reader recipe kind {kind!r}")


@dataclass
class ChunkTaskSpec:
    """Everything needed to decode one chunk, on any backend.

    What is known about the chunk picks the decode: nothing but its grid
    cell (``search``: block finder + two-stage decode over a fixed
    compressed window), its start and window (``search`` with ``window``
    set: the on-demand decode from the last verified offset), its whole
    extent (``index``: checked zlib delegation — an index interval, or a
    search-mode chunk the reader has already chained), or its BGZF
    members (``bgzf``). Only plain picklable values — the parent never
    ships live objects.
    """

    recipe: tuple  # how a worker process re-opens the source
    mode: str  # "search" | "index" | "bgzf"
    chunk_id: int
    # 0 is the speculative prefetch; a rung of the on-demand retry
    # ladder counts from 1
    attempt: int = 0
    max_output: int = None
    # search mode
    chunk_size: int = 0
    # per-chunk decompressed ceiling (memory budget): decode stops at a
    # block boundary past this and returns a resumable partial result
    split_output: int = None
    # where decoding starts, when known (always, outside speculation)
    start_bit: int = 0
    # search mode, on demand: the window at start_bit (None: search)
    window: bytes = None
    # index mode
    extent: ChunkExtent = None
    # bgzf mode
    member_offsets: tuple = ()
    end_offset: int = 0
    # active FaultInjector (or None) — travels with the task so chunk
    # faults fire in whichever process actually decodes the chunk
    faults: object = None
    # child telemetry plumbing (trace_origin doubles as the event-log
    # origin when tracing is off but event logging is on)
    trace: bool = False
    trace_origin: float = None
    events: bool = False


def run_chunk_task(spec: ChunkTaskSpec, reader, telemetry) -> ChunkResult:
    """Decode the chunk ``spec`` describes from ``reader``: the one task
    body, run by pool threads, the serial rung and worker processes.

    A speculative task (``attempt`` 0) returns ``None`` when the chunk
    has no decodable candidate or is rejected with :class:`FormatError`
    — expected of speculation, so counted and logged here instead of
    raised. Anything else propagates to whoever reads the future; on
    demand so does :class:`FormatError`, the consumer being blocked on
    exactly this chunk.
    """
    kind = "on_demand" if spec.attempt else "speculative"
    searching = spec.mode == "search" and spec.window is None
    recorder = telemetry.recorder
    events = telemetry.events
    try:
        with recorder.span("chunk.decode", chunk_id=spec.chunk_id,
                           mode=spec.mode, kind=kind, attempt=spec.attempt):
            if events.enabled and not searching:
                # A search emits block-find/decode itself, where the
                # phases actually separate.
                events.emit(
                    "decode", chunk=spec.chunk_id, mode=spec.mode, kind=kind
                )
            faults.fire("chunk.decode", chunk_id=spec.chunk_id,
                        attempt=spec.attempt)
            result = _decode(spec, reader, telemetry, searching)
    except FormatError as error:
        if spec.attempt:
            raise
        telemetry.metrics.counter("fetcher.speculative_rejects").increment()
        if recorder.enabled:
            recorder.instant(
                "chunk.speculative_reject", chunk_id=spec.chunk_id,
                error=repr(error),
            )
        if events.enabled:
            events.emit("rejected", chunk=spec.chunk_id)
        return None
    if result is None and events.enabled:
        events.emit("no-candidate", chunk=spec.chunk_id)
    return result


def _decode(spec: ChunkTaskSpec, reader, telemetry, searching: bool):
    if searching:
        return speculative_decode(
            reader, spec.chunk_id, spec.chunk_size,
            max_output=spec.max_output, split_output=spec.split_output,
            telemetry=telemetry,
        )
    if spec.mode == "search":
        stop_bit = (spec.chunk_id + 1) * spec.chunk_size * 8
        return decode_chunk_range(
            reader, spec.start_bit, stop_bit, spec.window,
            max_output=spec.max_output, split_output=spec.split_output,
        )
    if spec.mode == "index":
        extent = spec.extent
        telemetry.metrics.counter("decode.index_chunks").increment()
        return decode_index_chunk(
            reader, spec.start_bit, extent.end_bit, extent.window,
            expected_size=extent.length, is_last=extent.is_last,
            max_output=spec.max_output, next_window=extent.next_window,
        )
    if spec.mode == "bgzf":
        return decode_bgzf_members(
            reader, list(spec.member_offsets), spec.end_offset
        )
    raise UsageError(f"unknown task mode {spec.mode!r}")


@dataclass
class RemoteChunkOutcome:
    """A worker process's chunk result plus the telemetry it accumulated
    (``result`` is ``None`` exactly when :func:`run_chunk_task`'s is)."""

    result: ChunkResult = None
    metrics: dict = field(default_factory=dict)
    trace_events: list = field(default_factory=list)
    events: list = field(default_factory=list)  # lifecycle records


def execute_chunk_task(spec: ChunkTaskSpec) -> RemoteChunkOutcome:
    """Worker-process entry point: the shipping wrapper around
    :func:`run_chunk_task` — re-open the source from the spec's recipe,
    run the body under a child-local :class:`Telemetry` whose timeline
    shares the parent's origin, ship result and telemetry back."""
    telemetry = Telemetry(
        trace=spec.trace, trace_origin=spec.trace_origin, events=spec.events
    )
    recorder = telemetry.recorder
    events = telemetry.events
    if recorder.enabled:
        recorder.set_thread_name(multiprocessing.current_process().name)
    faults.install(spec.faults)  # None outside chaos runs
    reader = resolve_reader_recipe(spec.recipe)
    attach = getattr(reader, "attach_telemetry", None)
    if attach is not None:
        # Remote stacks: wire counters accumulate into this task's local
        # registry and merge back to the parent with everything else.
        attach(telemetry)
    return RemoteChunkOutcome(
        result=run_chunk_task(spec, reader, telemetry),
        metrics=telemetry.metrics.export_state(),
        trace_events=recorder.events() if recorder.enabled else [],
        events=events.records() if events.enabled else [],
    )

"""Picklable chunk-decode task descriptions for the process backend.

The thread backend submits bound methods that close over the fetcher —
free, because workers share the address space. Worker *processes* see
none of that, so a decode task must instead be a self-contained,
picklable description: which bytes to decode (a :class:`ChunkTaskSpec`
with a *reader recipe* saying how the child re-opens the source), plus
the few decode parameters the mode needs. The child-side entry point
:func:`execute_chunk_task` rebuilds a file reader, runs the exact same
decode bodies the thread tasks use, and ships back a
:class:`RemoteChunkOutcome` — the :class:`ChunkResult` (``bytes`` and
numpy ``uint16`` segments, which pickle cheaply) bundled with the
telemetry the child accumulated locally, so ``--profile``/``--trace``
keep seeing per-chunk numbers no matter where the chunk was decoded.

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
    """Everything a worker process needs to decode one chunk.

    Mode-specific fields mirror the fetcher's three operating modes:
    ``search`` runs the block finder + two-stage decode over a fixed
    compressed window, ``index`` decodes a known interval with its known
    window (handed to the child as bytes; also what a search-mode fetcher
    sends for a chunk its reader has already chained), ``bgzf``
    zlib-decodes whole members. Only plain picklable values — the parent
    never ships live objects.
    """

    recipe: tuple
    mode: str  # "search" | "index" | "bgzf"
    chunk_id: int
    # search mode
    chunk_size: int = 0
    find_uncompressed: bool = True
    max_output: int = None
    # per-chunk decompressed ceiling (memory budget): decode stops at a
    # block boundary past this and returns a resumable partial result
    split_output: int = None
    # index mode
    start_bit: int = 0
    end_bit: int = None
    window: bytes = b""
    expected_size: int = None
    is_last: bool = False
    # next seek point's window for tail verification of the zlib fast
    # path (None: no next point / stream start / unavailable)
    next_window: bytes = None
    # bgzf mode
    member_offsets: tuple = ()
    end_offset: int = 0
    # retry-ladder context: exact=True decodes [start_bit, end_bit) from
    # the given window instead of searching (the on-demand body, shipped
    # to a worker as the ladder's pool-resubmission rung)
    exact: bool = False
    attempt: int = 0
    # active FaultInjector (or None) — travels with the task so chunk
    # faults fire in whichever process actually decodes the chunk
    faults: object = None
    # telemetry plumbing (trace_origin doubles as the event-log origin
    # when tracing is off but event logging is on)
    trace: bool = False
    trace_origin: float = None
    events: bool = False


@dataclass
class RemoteChunkOutcome:
    """A chunk decode's result plus the telemetry it accumulated.

    ``result`` is ``None`` when the chunk had no decodable candidate or
    raised :class:`FormatError` — the same signal the thread backend's
    future carries, folded into a value so the metrics still arrive.
    """

    result: ChunkResult = None
    metrics: dict = field(default_factory=dict)
    trace_events: list = field(default_factory=list)
    events: list = field(default_factory=list)  # lifecycle records


def execute_chunk_task(spec: ChunkTaskSpec) -> RemoteChunkOutcome:
    """Worker-process entry point: decode the chunk a spec describes.

    Runs the same decode bodies as the fetcher's thread tasks, under a
    child-local :class:`Telemetry` whose trace shares the parent's
    timestamp origin. Format errors are folded into a ``None`` result
    (speculative candidates are *expected* to fail); anything else
    propagates and reaches the parent through the future.
    """
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
    try:
        with recorder.span(
            "chunk.decode", chunk_id=spec.chunk_id, mode=spec.mode,
            kind="retry" if spec.exact else "speculative",
            attempt=spec.attempt,
        ):
            if events.enabled and (spec.mode != "search" or spec.exact):
                # Search-mode speculation emits block-find/decode itself.
                events.emit(
                    "decode", chunk=spec.chunk_id, mode=spec.mode,
                    kind="retry" if spec.exact else "speculative",
                )
            faults.fire(
                "chunk.decode", chunk_id=spec.chunk_id, attempt=spec.attempt
            )
            result = _decode_for_spec(spec, reader, telemetry)
    except FormatError as error:
        # Expected for speculative candidates; no longer silent — the
        # rejection is counted and traced with its chunk context.
        telemetry.metrics.counter("fetcher.speculative_rejects").increment()
        if recorder.enabled:
            recorder.instant(
                "chunk.speculative_reject", chunk_id=spec.chunk_id,
                attempt=spec.attempt, error=repr(error),
            )
        result = None
    return RemoteChunkOutcome(
        result=result,
        metrics=telemetry.metrics.export_state(),
        trace_events=recorder.events() if recorder.enabled else [],
        events=events.records() if events.enabled else [],
    )


def _decode_for_spec(spec: ChunkTaskSpec, reader, telemetry) -> ChunkResult:
    if spec.mode == "search":
        if spec.exact:
            return decode_chunk_range(
                reader,
                spec.start_bit,
                spec.end_bit,
                spec.window,
                max_output=spec.max_output,
                split_output=spec.split_output,
            )
        return speculative_decode(
            reader,
            spec.chunk_id,
            spec.chunk_size,
            find_uncompressed=spec.find_uncompressed,
            max_output=spec.max_output,
            split_output=spec.split_output,
            telemetry=telemetry,
        )
    if spec.mode == "index":
        # Counted child-side (it merges into the parent's registry with
        # the outcome), as the thread backend counts it in the fetcher.
        telemetry.metrics.counter("decode.index_chunks").increment()
        return decode_index_chunk(
            reader,
            spec.start_bit,
            spec.end_bit,
            spec.window,
            expected_size=spec.expected_size,
            is_last=spec.is_last,
            max_output=spec.max_output,
            next_window=spec.next_window,
        )
    if spec.mode == "bgzf":
        return decode_bgzf_members(
            reader, list(spec.member_offsets), spec.end_offset
        )
    raise UsageError(f"unknown task mode {spec.mode!r}")

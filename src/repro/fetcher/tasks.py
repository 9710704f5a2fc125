"""The chunk-decode task: one description, one body.

A chunk decode is one task, queued on the pool as a speculative
prefetch or run on the reading thread on demand (paper §3.1–§3.2,
Fig. 4). :class:`ChunkTaskSpec` is its only description and
:func:`run_chunk_task` its only body —
``chunk.decode`` span and fault site, dispatch to the mode's decode
function, folding of a speculative reject or an empty search. Pool
threads and the serial on-demand rung both call the body with the
fetcher's live file reader, telemetry and
:class:`~repro.reader.ReaderOptions` (chunk size, output cap), so where
a chunk is decoded changes nothing about what is recorded or raised.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import faults
from ..errors import FormatError, UsageError
from .chain import ChunkExtent
from .decode import (
    ChunkResult,
    decode_chunk_range,
    decode_index_chunk,
    speculative_decode,
)

__all__ = ["ChunkTaskSpec", "execute_chunk_task", "run_chunk_task"]


@dataclass
class ChunkTaskSpec:
    """Everything needed to decode one chunk, on a worker or serially.

    What is known about the chunk picks the decode: nothing but its grid
    cell (``search``: block finder + two-stage decode over a fixed
    compressed window), its start and window (``search`` with ``window``
    set: the on-demand decode from the last verified offset, or a queued
    one bound, when a worker started it, to the start and window the
    :class:`~repro.fetcher.chain.ChunkChain` records for its cell), or its
    whole extent (``index``: one exact pass straight into a buffer of the
    extent's length, proven to end where the extent does — an index
    interval, a catalog's or BGZF member group among them, or a
    search-mode chunk already on the chain).
    """

    mode: str  # "search" | "index"
    # a search's cell, which its decode reads; a chained chunk's label
    chunk_id: object
    # 0 is the speculative prefetch, 1 the on-demand decode
    attempt: int = 0
    # where decoding starts, when known (always, outside speculation)
    start_bit: int = 0
    # search mode: the window at start_bit once known (None: search)
    window: bytes = None
    # index mode
    extent: ChunkExtent = None
    # search mode: the decompressed ceiling past which the decode stops at
    # a block boundary — the budget's (ReaderOptions.split_output), or a
    # blocked read's demand when that is lower; None decodes the cell whole
    split_output: int = None


def run_chunk_task(spec: ChunkTaskSpec, reader, telemetry,
                   options) -> ChunkResult:
    """Decode the chunk ``spec`` describes from ``reader``: the one task
    body, run by pool threads and the serial rung. ``options`` (the
    reader's :class:`~repro.reader.ReaderOptions`) give the cell size and
    the output cap; the split ceiling is the spec's.

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
    try:
        # A known start bit joins the reader's bit-keyed serve records to
        # this chunk; a search's decode attempts carry the found one.
        with recorder.span("chunk.decode", chunk_id=spec.chunk_id,
                           start_bit=None if searching else spec.start_bit,
                           mode=spec.mode, kind=kind, attempt=spec.attempt):
            faults.fire("chunk.decode", chunk_id=spec.chunk_id,
                        attempt=spec.attempt)
            result = _decode(spec, reader, telemetry, options, searching)
    except FormatError as error:
        if spec.attempt:
            raise
        telemetry.metrics.counter("fetcher.speculative_rejects").increment()
        if recorder.enabled:
            recorder.instant(
                "chunk.speculative_reject", chunk_id=spec.chunk_id,
                error=repr(error),
            )
        return None
    if result is None and recorder.enabled:
        recorder.instant("chunk.no_candidate", chunk_id=spec.chunk_id)
    return result


def _decode(spec: ChunkTaskSpec, reader, telemetry, options,
            searching: bool):
    max_output = options.max_chunk_output
    if searching:
        return speculative_decode(
            reader, spec.chunk_id, options.chunk_size,
            max_output=max_output, split_output=spec.split_output,
            telemetry=telemetry,
        )
    if spec.mode == "search":
        stop_bit = (spec.chunk_id + 1) * options.chunk_size * 8
        return decode_chunk_range(
            reader, spec.start_bit, stop_bit, spec.window,
            max_output=max_output, split_output=spec.split_output,
        )
    if spec.mode == "index":
        extent = spec.extent
        telemetry.metrics.counter("decode.index_chunks").increment()
        return decode_index_chunk(
            reader, spec.start_bit, extent.end_bit, extent.window,
            expected_size=extent.length, is_last=extent.is_last,
            max_output=max_output, next_window=extent.next_window,
        )
    raise UsageError(f"unknown task mode {spec.mode!r}")


def execute_chunk_task(spec):
    """Tombstone of the process backend's entry point, kept only because
    ``benchmarks/e2e/layers.py`` imports the name (ROADMAP item 5(b))."""
    raise UsageError("the process backend was removed")

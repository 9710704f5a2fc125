"""Read-latency attribution: where did every ``read()`` actually wait?

The paper's whole argument is a latency budget — block search vs.
two-stage decode vs. the sequential window-propagation tail — but a
trace file answers that only after manual squinting in Perfetto. This
module reconstructs the *critical path* of every ``reader.read`` span
from the recorded trace and attributes its wall time across named
stages:

* ``block-find`` — worker time spent searching for Deflate block
  candidates while the read waited on that chunk;
* ``queue-wait`` — the read waited on an in-flight chunk that no worker
  was decoding yet (pool oversubscribed or prefetch issued too late);
* ``decode`` — actual Deflate decoding the read waited on (worker-side
  while blocked on a future, or serially on the reading thread);
* ``network-io`` — wire time on remote sources: ``net.request`` spans
  the read waited on, either directly on the reading thread or inside a
  worker's decode of the awaited chunk (matched by process/thread, since
  wire spans carry no chunk id);
* ``window-propagation`` — materialization: marker replacement with the
  propagated 32 KiB window, the paper's sequential tail;
* ``recovery`` — tolerant-mode resynchronisation after damage;
* ``verify`` — CRC-32/ISIZE verification on the reading thread;
* ``bookkeeping`` — harvesting finished futures (absorbing worker
  results, cache insertion) plus the chain-advance bookkeeping inside
  ``decode_next_chunk`` not owned by a more specific stage (cache probes,
  prefetch submission);
* ``serve-copy`` — slicing decoded chunks into the caller's result
  buffer and joining the pieces;
* ``other`` — the unexplained remainder (small by construction; a large
  value here is itself a bug signal).

The split of a blocked-on-future wait into queue-wait vs. decode vs.
block-find is *causal*: the wait span carries the awaited chunk id, and
worker-side ``chunk.decode``/``chunk.block_find`` spans for that same
chunk id, from any thread, are intersected with the wait interval. Time
the wait overlapped a worker decoding that chunk is decode time; the
remainder is queue wait.

The same trace holds each chunk's lifecycle: its spans plus the
instants marking transitions no span covers (``chunk.queued``,
``chunk.cached``, and the ``chunk.no_candidate``,
``chunk.speculative_reject``, ``chunk.speculative_shed`` and
``chunk.task_error`` off-ramps). :func:`chunk_lifecycles` groups them
per chunk and :func:`lifecycle_digest` checks that every queued chunk
reached a terminal record.

Everything operates on plain trace-event dicts (``ph == "X"`` spans with
microsecond ``ts``/``dur``, ``ph == "i"`` instants), so it works on a
live recorder's ``events()``, a loaded trace JSON, or the spans a
benchmark harness kept in memory.
"""

from __future__ import annotations

import json

__all__ = [
    "EXPLAIN_SCHEMA",
    "READ_STAGES",
    "TERMINAL_RECORDS",
    "attribute_reads",
    "chunk_lifecycles",
    "format_explain",
    "lifecycle_digest",
    "load_trace_events",
]

#: Version of the :func:`attribute_reads` report. History: 1 — optional
#: ``events`` digest of the separate event log; 2 — that log is gone,
#: the reader's ``explain()`` adds a ``lifecycle`` digest of the trace;
#: 3 — the on-disk chunk tier's stage and pressure count are gone (an
#: evicted chunk is decoded again, which is ``decode`` time).
EXPLAIN_SCHEMA = 3

#: Attribution stages, in report order. ``other`` is the unexplained
#: remainder and deliberately last.
READ_STAGES = (
    "block-find",
    "queue-wait",
    "decode",
    "network-io",
    "window-propagation",
    "recovery",
    "verify",
    "bookkeeping",
    "serve-copy",
    "other",
)

#: Direct mapping: a span with this name *on the reading thread* is that
#: stage, full stop.
_DIRECT_STAGES = {
    "chunk.materialize": "window-propagation",
    "reader.resync": "recovery",
    "reader.verify": "verify",
    "chunk.harvest": "bookkeeping",
    "chunk.decode": "decode",  # serial on-demand decode on the read thread
    "net.request": "network-io",  # wire round trips on the read thread
}

#: Waits on another execution context, split causally by chunk id.
_WAIT_SPANS = ("chunk.wait_inflight",)

#: Envelope spans: claimed *after* the direct/wait spans they contain, so
#: only their leftover time (cache probes, prefetch submission, chain
#: bookkeeping between instrumented children) lands in their stage.
_ENVELOPE_STAGES = {
    "reader.decode_next_chunk": "bookkeeping",
    "reader.serve": "serve-copy",
}

_ADVICE = {
    "block-find": (
        "search-bound: most blocked time went to finding Deflate block "
        "candidates — export an index once (--export-index) and reopen "
        "with --import-index to skip searching entirely"
    ),
    "queue-wait": (
        "prefetch-bound: reads waited on chunks no worker had started — "
        "prefetch degree or parallelization too low for this access "
        "pattern (raise -P, or check that speculation is not being shed "
        "by a tight --max-memory)"
    ),
    "decode": (
        "decode-bound: reads waited on Deflate decoding itself — raise "
        "-P; if --stats reports decoder \"python\", libz could not be "
        "loaded and the much slower Python decoder is decoding"
    ),
    "network-io": (
        "origin-latency-bound: reads waited on wire round trips to the "
        "remote source — raise prefetch depth (-P) so requests overlap, "
        "increase --net-block-size to amortize per-request latency, and "
        "persist an index (--export-index) to skip block-search probing"
    ),
    "window-propagation": (
        "window-propagation-bound: the sequential marker-replacement "
        "tail dominates — chunks decode speculatively fast enough, but "
        "each must wait for its predecessor's 32 KiB window; import an "
        "index (windows known, one exact libz pass) or recompress with "
        "independent chunks (BGZF)"
    ),
    "recovery": (
        "recovery-bound: tolerant-mode resynchronisation after damage "
        "dominated — the input is corrupt; see the damage report"
    ),
    "verify": (
        "verification-bound: CRC-32/ISIZE checking on the reading "
        "thread dominated — pass --no-verify if integrity checking is "
        "handled elsewhere"
    ),
    "bookkeeping": (
        "harvest-bound: folding finished worker results (telemetry "
        "merges, cache insertion) and chain-advance bookkeeping "
        "dominated — unusual; often a symptom of very small chunks "
        "(raise --chunk-size)"
    ),
    "serve-copy": (
        "copy-bound: assembling the returned buffer from decoded "
        "chunks dominated — reads are large and decoding is already "
        "fast; stream in smaller read() calls if latency matters"
    ),
    "other": (
        "bookkeeping-bound: most time fell outside instrumented stages "
        "— likely many tiny reads (per-call overhead) rather than a "
        "pipeline bottleneck"
    ),
}


def load_trace_events(source) -> list:
    """Load trace events from a path, file-like object, or trace dict."""
    if isinstance(source, dict):
        return source.get("traceEvents", [])
    if hasattr(source, "read"):
        return json.load(source).get("traceEvents", [])
    with open(source, "r", encoding="utf-8") as handle:
        return json.load(handle).get("traceEvents", [])


# -- interval arithmetic (microsecond floats) ----------------------------------


def _merge(intervals: list) -> list:
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for start, end in intervals[1:]:
        if start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _clip_total(merged: list, lo: float, hi: float) -> float:
    """Total overlap of already-merged intervals with ``[lo, hi]``."""
    total = 0.0
    for start, end in merged:
        if end <= lo:
            continue
        if start >= hi:
            break
        total += min(end, hi) - max(start, lo)
    return total


def _subtract(lo: float, hi: float, merged: list) -> list:
    """``[lo, hi]`` minus already-merged intervals."""
    pieces = []
    cursor = lo
    for start, end in merged:
        if end <= lo:
            continue
        if start >= hi:
            break
        if start > cursor:
            pieces.append((cursor, min(start, hi)))
        cursor = max(cursor, end)
        if cursor >= hi:
            break
    if cursor < hi:
        pieces.append((cursor, hi))
    return pieces


# -- attribution ----------------------------------------------------------------


def _spans(trace_events) -> list:
    return [
        event for event in trace_events
        if event.get("ph") == "X" and event.get("dur") is not None
    ]


def _chunk_of(event):
    return event.get("args", {}).get("chunk_id")


def attribute_reads(trace_events) -> dict:
    """Attribute every ``reader.read`` span's wall time across stages.

    Returns a machine-readable report::

        {"schema": EXPLAIN_SCHEMA,
         "reads": [{"start_us", "duration_seconds", "returned",
                    "stages": {stage: seconds}, "attributed_fraction"}],
         "totals": {"read_wall_seconds", "stages", "stage_fractions",
                    "attributed_fraction", "reads", "bottleneck"},
         "advice": [...]}

    ``attributed_fraction`` is the share of read wall time explained by
    a stage other than ``other``.
    """
    spans = _spans(trace_events)
    reads = [span for span in spans if span["name"] == "reader.read"]

    # Worker-side activity per chunk id, merged once, reused per wait.
    decode_by_chunk: dict = {}
    decode_contexts: dict = {}  # chunk -> [(pid, tid, lo, hi)]
    find_by_chunk: dict = {}
    net_by_context: dict = {}  # (pid, tid) -> wire intervals
    for span in spans:
        if span["name"] == "net.request":
            net_by_context.setdefault(
                (span.get("pid"), span.get("tid")), []
            ).append((span["ts"], span["ts"] + span["dur"]))
            continue
        chunk = _chunk_of(span)
        if chunk is None:
            continue
        interval = (span["ts"], span["ts"] + span["dur"])
        if span["name"] in ("chunk.decode", "chunk.decode_attempt"):
            decode_by_chunk.setdefault(chunk, []).append(interval)
            decode_contexts.setdefault(chunk, []).append(
                (span.get("pid"), span.get("tid"), *interval)
            )
        elif span["name"] == "chunk.block_find":
            find_by_chunk.setdefault(chunk, []).append(interval)
    decode_by_chunk = {k: _merge(v) for k, v in decode_by_chunk.items()}
    find_by_chunk = {k: _merge(v) for k, v in find_by_chunk.items()}
    net_by_context = {k: _merge(v) for k, v in net_by_context.items()}
    # Wire time per chunk: net.request spans carry no chunk id, so credit
    # a chunk with the wire intervals that fall inside *its* decode spans
    # on the same process/thread — causal, not merely concurrent.
    net_by_chunk: dict = {}
    if net_by_context:
        for chunk, contexts in decode_contexts.items():
            overlaps = []
            for pid, tid, lo, hi in contexts:
                for start, end in net_by_context.get((pid, tid), []):
                    if end <= lo:
                        continue
                    if start >= hi:
                        break
                    overlaps.append((max(start, lo), min(end, hi)))
            if overlaps:
                net_by_chunk[chunk] = _merge(overlaps)

    report_reads = []
    totals = {stage: 0.0 for stage in READ_STAGES}
    total_wall_us = 0.0
    for read in sorted(reads, key=lambda span: span["ts"]):
        read_lo = read["ts"]
        read_hi = read_lo + read["dur"]
        total_wall_us += read["dur"]
        stages = {stage: 0.0 for stage in READ_STAGES}
        claimed: list = []
        children = []
        envelopes = []
        for span in spans:
            if (span is read
                    or span.get("pid") != read.get("pid")
                    or span.get("tid") != read.get("tid")
                    or span["ts"] < read_lo - 0.5
                    or span["ts"] + span["dur"] > read_hi + 0.5):
                continue
            if span["name"] in _DIRECT_STAGES or span["name"] in _WAIT_SPANS:
                children.append(span)
            elif span["name"] in _ENVELOPE_STAGES:
                envelopes.append(span)
        # Wire spans claim before anything else: on the reading thread
        # they nest *inside* serial chunk.decode / resync spans, and the
        # deeper truth (the read waited on the network) should win the
        # shared interval.
        for child in sorted(
            children,
            key=lambda span: (
                0 if span["name"] == "net.request" else 1,
                span["ts"],
                -span["dur"],
            ),
        ):
            lo = max(child["ts"], read_lo)
            hi = min(child["ts"] + child["dur"], read_hi)
            if hi <= lo:
                continue
            # Claim only time no earlier stage span owns: stage spans are
            # disjoint by construction, but a defensive subtraction keeps
            # accidental nesting from double-counting.
            pieces = _subtract(lo, hi, _merge(claimed))
            claimed.extend(pieces)
            owned = sum(end - start for start, end in pieces)
            if owned <= 0.0:
                continue
            if child["name"] in _WAIT_SPANS:
                chunk = _chunk_of(child)
                decode_overlap = 0.0
                find_overlap = 0.0
                net_overlap = 0.0
                for start, end in pieces:
                    decode_overlap += _clip_total(
                        decode_by_chunk.get(chunk, []), start, end
                    )
                    find_overlap += _clip_total(
                        find_by_chunk.get(chunk, []), start, end
                    )
                    net_overlap += _clip_total(
                        net_by_chunk.get(chunk, []), start, end
                    )
                net_overlap = min(net_overlap, decode_overlap)
                find_overlap = min(find_overlap, decode_overlap - net_overlap)
                stages["network-io"] += net_overlap
                stages["block-find"] += find_overlap
                stages["decode"] += (
                    decode_overlap - net_overlap - find_overlap
                )
                stages["queue-wait"] += max(owned - decode_overlap, 0.0)
            else:
                stages[_DIRECT_STAGES[child["name"]]] += owned
        # Envelope spans claim last: whatever their instrumented children
        # did not own is *their* bookkeeping, not "other".
        for envelope in sorted(envelopes, key=lambda span: span["ts"]):
            lo = max(envelope["ts"], read_lo)
            hi = min(envelope["ts"] + envelope["dur"], read_hi)
            if hi <= lo:
                continue
            pieces = _subtract(lo, hi, _merge(claimed))
            claimed.extend(pieces)
            owned = sum(end - start for start, end in pieces)
            if owned > 0.0:
                stages[_ENVELOPE_STAGES[envelope["name"]]] += owned
        explained = sum(stages.values())
        stages["other"] = max(read["dur"] - explained, 0.0)
        for stage in READ_STAGES:
            totals[stage] += stages[stage]
        attributed = (
            1.0 - stages["other"] / read["dur"] if read["dur"] > 0 else 1.0
        )
        report_reads.append(
            {
                "start_us": read_lo,
                "duration_seconds": read["dur"] / 1e6,
                "returned": read.get("args", {}).get("returned"),
                "stages": {
                    stage: seconds / 1e6
                    for stage, seconds in stages.items()
                },
                "attributed_fraction": attributed,
            }
        )

    stage_seconds = {stage: value / 1e6 for stage, value in totals.items()}
    wall_seconds = total_wall_us / 1e6
    fractions = {
        stage: (value / wall_seconds if wall_seconds else 0.0)
        for stage, value in stage_seconds.items()
    }
    bottleneck = max(
        READ_STAGES, key=lambda stage: stage_seconds[stage]
    ) if reads else None
    attributed_fraction = (
        1.0 - fractions.get("other", 0.0) if reads else 0.0
    )
    report = {
        "schema": EXPLAIN_SCHEMA,
        "reads": report_reads,
        "totals": {
            "reads": len(reads),
            "read_wall_seconds": wall_seconds,
            "stages": stage_seconds,
            "stage_fractions": fractions,
            "attributed_fraction": attributed_fraction,
            "bottleneck": bottleneck,
        },
        "advice": [_ADVICE[bottleneck]] if bottleneck else [],
    }
    return report


# -- chunk lifecycles -----------------------------------------------------------

#: Trace records that end a chunk's journey through the pipeline.
#: ``chunk.cached`` is terminal too: a chunk parked in the prefetch cache
#: that nobody reads again (a speculative false positive, or data past
#: the last read) ends its life there.
TERMINAL_RECORDS = frozenset(
    {
        "chunk.cached",
        "reader.serve",
        "chunk.no_candidate",
        "chunk.speculative_reject",
        "chunk.speculative_shed",
        "chunk.task_error",
    }
)

#: Records the ``lifecycle pressure`` line counts, with their labels.
_PRESSURE = {
    "chunk.speculative_shed": "shed",
    "chunk.speculative_reject": "rejected",
    "chunk.task_error": "failed",
}


def chunk_lifecycles(trace_events) -> dict:
    """Group a trace's chunk records: ``{chunk: [records in time order]}``.

    Spans and instants carrying a ``chunk_id`` are keyed by it. Those
    carrying only a ``start_bit`` (the reader's serve and materialize
    records) fold into the chunk a record carrying both
    (``chunk.cached``, an exact ``chunk.decode``, a search's
    ``chunk.decode_attempt``) bound to that bit, else into ``"bit:N"``.
    Records with neither are left out.
    """
    ordered = sorted(
        (event for event in trace_events
         if event.get("ph") in ("X", "i") and event.get("args")),
        key=lambda event: event["ts"],
    )
    bit_to_chunk: dict = {}
    for event in ordered:
        chunk = event["args"].get("chunk_id")
        bit = event["args"].get("start_bit")
        if chunk is not None and bit is not None:
            bit_to_chunk[bit] = chunk
    lifecycles: dict = {}
    for event in ordered:
        args = event["args"]
        key = args.get("chunk_id")
        if key is None:
            bit = args.get("start_bit")
            if bit is None:
                continue
            key = bit_to_chunk.get(bit, f"bit:{bit}")
        lifecycles.setdefault(key, []).append(event)
    return lifecycles


def lifecycle_digest(trace_events, evicted: int = 0) -> dict:
    """Per-chunk digest of a trace: record counts, the pipeline pressure
    signals, and the chunks whose last ``chunk.queued`` reached no
    terminal record. ``evicted`` is the caches' eviction count
    (``statistics()``'s ``prefetch_cache`` and ``materialized_cache``):
    evictions are counted, not traced."""
    lifecycles = chunk_lifecycles(trace_events)
    counts: dict = {}
    incomplete = []
    for key, history in lifecycles.items():
        pending = False
        for event in history:
            name = event["name"]
            counts[name] = counts.get(name, 0) + 1
            if name == "chunk.queued":
                pending = True
            elif name in TERMINAL_RECORDS:
                pending = False
        if pending:
            incomplete.append(key)
    pressure = {"evicted": evicted}
    for name, label in _PRESSURE.items():
        pressure[label] = counts.get(name, 0)
    return {
        "chunks": len(lifecycles),
        "record_counts": dict(sorted(counts.items())),
        "pressure": {
            label: count for label, count in pressure.items() if count
        },
        "incomplete_chunks": sorted(incomplete, key=str)[:32],
    }


def format_explain(report: dict) -> list:
    """Render an attribution report as human-readable ``[Explain]`` lines."""
    lines = []

    def say(text: str) -> None:
        lines.append(f"[Explain] {text}")

    totals = report.get("totals", {})
    reads = totals.get("reads", 0)
    if not reads:
        say("no reader.read spans recorded — nothing to attribute "
            "(was tracing enabled?)")
        return lines
    wall = totals.get("read_wall_seconds", 0.0)
    say(f"{reads} read() call(s), {wall:.3f} s total wall time inside reads")
    fractions = totals.get("stage_fractions", {})
    stage_seconds = totals.get("stages", {})
    for stage in READ_STAGES:
        seconds = stage_seconds.get(stage, 0.0)
        if seconds <= 0.0:
            continue
        say(f"  {stage:<20}: {seconds:8.3f} s  "
            f"({100.0 * fractions.get(stage, 0.0):5.1f} %)")
    say(f"attributed to named stages: "
        f"{100.0 * totals.get('attributed_fraction', 0.0):.1f} %")
    bottleneck = totals.get("bottleneck")
    if bottleneck:
        share = 100.0 * fractions.get(bottleneck, 0.0)
        say(f"bottleneck: reads spent {share:.0f}% in {bottleneck}")
    for advice in report.get("advice", []):
        say(f"hint: {advice}")
    lifecycle = report.get("lifecycle")
    if lifecycle:
        pressure = lifecycle.get("pressure")
        if pressure:
            say("lifecycle pressure: " + ", ".join(
                f"{count} {label}" for label, count in pressure.items()
            ))
        incomplete = lifecycle.get("incomplete_chunks")
        if incomplete:
            say(f"warning: {len(incomplete)} chunk(s) never reached a "
                f"terminal lifecycle record: {incomplete[:8]}")
    return lines

"""Structured JSONL chunk-lifecycle event log (telemetry v2).

Where the trace recorder answers "what was each thread doing when", the
event log answers "what happened to each *chunk*": every chunk moves
through an explicit lifecycle state machine

    queued -> block-find -> decode -> wait-window -> markers-replaced
           -> cached -> evicted/spilled -> served

and each transition is appended as one schema-versioned, JSON-serializable
record. Records are cheap dicts held in a bounded ring; they can be
exported as JSON Lines (one record per line — the format log scrapers and
``jq`` consume directly) and replayed by the analysis toolkit
(:mod:`repro.telemetry.analysis`) to reconstruct where read latency went.

Event logging is opt-in. The default is :data:`NULL_EVENT_LOG`, a
stateless no-op, so instrumented paths cost one attribute check when the
log is off. Code that wants to skip argument building branches on
``events.enabled``.

Record shape (schema 1)::

    {"schema": 1, "ts": 0.0123, "pid": 4242, "state": "cached",
     "chunk": 7, "bit": 234881024, ...}

``ts`` is seconds since the log's origin (the owning recorder's origin
when tracing is also on, so event timestamps line up with trace span
timestamps). ``chunk`` is the fetcher's chunk id and ``bit`` the chunk's
compressed start-bit cache key; either may be absent when unknown at the
emission site. A prefetch-cache ``cached`` transition and an exact
``decode`` carry both, which is the join the lifecycle reconstruction
uses.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque

from ..errors import UsageError

__all__ = [
    "EVENT_SCHEMA",
    "EventLog",
    "NULL_EVENT_LOG",
    "NullEventLog",
    "TERMINAL_STATES",
    "INDEX_STATES",
    "LIFECYCLE_STATES",
    "chunk_lifecycles",
    "load_events",
]

#: Version stamped into every record; bump on any shape change.
EVENT_SCHEMA = 1

#: Every state a chunk may enter, in canonical lifecycle order.
LIFECYCLE_STATES = (
    "queued",
    "block-find",
    "decode",
    "wait-window",
    "markers-replaced",
    "cached",
    "evicted",
    "spilled",
    "served",
    # off-ramp states: the chunk left the pipeline without being served
    "rejected",      # speculative candidate turned out undecodable
    "no-candidate",  # search window held nothing decodable
    "shed",          # cancelled under memory pressure before running
    "failed",        # decode error / worker crash
)

#: Persistent-index lifecycle events. Not chunk states: they describe the
#: on-disk index tier (one record per import/export/incident), so they
#: live outside :data:`LIFECYCLE_STATES` and the per-chunk journey model.
INDEX_STATES = (
    "index-imported",       # cached/explicit index loaded and accepted
    "index-rejected",       # import failed validation; search mode used
    "index-fallback",       # one window failed mid-flight; re-decoded
    "index-exported",       # index atomically persisted
    "index-export-failed",  # persist attempt failed (tolerated)
)

#: States that end a chunk's journey through the pipeline. ``cached`` is
#: terminal too: a chunk parked in a cache that nobody ever reads again
#: (a speculative false positive under a never-requested key, or simply
#: data past the last read) ends its life there legitimately.
TERMINAL_STATES = frozenset(
    {
        "cached",
        "evicted",
        "spilled",
        "served",
        "rejected",
        "no-candidate",
        "shed",
        "failed",
    }
)


class NullEventLog:
    """Disabled event log: every operation is a no-op, nothing is stored."""

    enabled = False

    def emit(self, state, chunk=None, bit=None, **attrs) -> None:
        pass

    def records(self) -> list:
        return []

    @property
    def num_records(self) -> int:
        return 0

    def save(self, target) -> None:
        raise UsageError(
            "event logging is disabled; enable it (Telemetry(events=True) "
            "or the reader's events=True) before exporting the event log"
        )


#: Shared stateless instance used wherever event logging is off.
NULL_EVENT_LOG = NullEventLog()


class EventLog:
    """Thread-safe bounded ring of lifecycle records with JSONL export.

    ``origin`` pins the zero point of record timestamps; pass the trace
    recorder's origin so events and spans share a timeline.
    ``capacity`` bounds memory — the newest records win, and the count of
    dropped older records is reported in :meth:`save`'s trailer and
    :attr:`dropped`.
    """

    enabled = True

    def __init__(self, origin: float = None, capacity: int = 1_000_000):
        if capacity < 1:
            raise UsageError("event log needs room for at least one record")
        self._lock = threading.Lock()
        self._origin = time.perf_counter() if origin is None else origin
        self._records: deque = deque(maxlen=capacity)
        self._pid = os.getpid()
        self.dropped = 0

    def emit(self, state: str, chunk=None, bit=None, **attrs) -> None:
        """Append one lifecycle transition record."""
        record = {
            "schema": EVENT_SCHEMA,
            "ts": round(time.perf_counter() - self._origin, 9),
            "pid": self._pid,
            "state": state,
        }
        if chunk is not None:
            record["chunk"] = chunk
        if bit is not None:
            record["bit"] = bit
        if attrs:
            record.update(attrs)
        with self._lock:
            if len(self._records) == self._records.maxlen:
                self.dropped += 1
            self._records.append(record)

    @property
    def num_records(self) -> int:
        with self._lock:
            return len(self._records)

    def records(self) -> list:
        """Time-ordered snapshot (copies the deque, not the dicts).

        Threads read the clock before they take the ring's lock, so
        neighbours can land out of order; sorting by timestamp restores it.
        """
        with self._lock:
            snapshot = list(self._records)
        snapshot.sort(key=lambda record: record.get("ts", 0.0))
        return snapshot

    def save(self, target) -> None:
        """Write the log as JSON Lines to a path or text file-like object."""
        records = self.records()

        def write(sink) -> None:
            for record in records:
                sink.write(json.dumps(record, sort_keys=True))
                sink.write("\n")

        if hasattr(target, "write"):
            write(target)
            return
        with open(target, "w", encoding="utf-8") as sink:
            write(sink)


def load_events(source) -> list:
    """Parse a JSONL event log back into records (path or file-like)."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    records = []
    for line in lines:
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def chunk_lifecycles(records) -> dict:
    """Group records per chunk: ``{key: [records in time order]}``.

    Records are joined on the fetcher chunk id when present; records that
    only carry a ``bit`` are folded into the chunk that a record
    carrying both bound to the same bit (the cache key <-> chunk id join).
    Records with neither id (rare bookkeeping notes) are dropped.
    """
    ordered = sorted(records, key=lambda record: record.get("ts", 0.0))
    bit_to_chunk: dict = {}
    for record in ordered:
        if record.get("chunk") is not None and record.get("bit") is not None:
            bit_to_chunk[record["bit"]] = record["chunk"]
    lifecycles: dict = {}
    for record in ordered:
        key = record.get("chunk")
        if key is None and record.get("bit") is not None:
            key = bit_to_chunk.get(record["bit"])
            if key is None:
                key = f"bit:{record['bit']}"
        if key is None:
            continue
        lifecycles.setdefault(key, []).append(record)
    return lifecycles

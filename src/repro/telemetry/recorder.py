"""Chunk-lifecycle trace recorder with Chrome trace-event export.

A :class:`TraceRecorder` collects *spans* (named, attributed durations) and
*instants* from any thread and exports them as Chrome trace-event JSON —
the ``{"traceEvents": [...]}`` object format that both ``chrome://tracing``
and Perfetto load directly. Spans carry the recording thread's id, so the
per-worker busy/idle timeline of the decode pipeline falls out of the
viewer for free: each pool worker is one track, each decoded chunk one bar.

Tracing is opt-in. The default is :data:`NULL_RECORDER`, a stateless
no-op whose ``span()`` returns a shared do-nothing context manager — no
clock reads, no allocation beyond the call itself — so instrumented hot
paths cost nothing when tracing is off. Code that wants to skip even
argument building can branch on ``recorder.enabled``.

Timestamps are ``time.perf_counter()`` microseconds relative to recorder
creation, the convention the trace viewers expect.
"""

from __future__ import annotations

import json
import os
import threading
import time

from ..errors import UsageError

__all__ = ["NullRecorder", "NULL_RECORDER", "TraceRecorder"]


class _Span:
    """Context manager recording one complete ("X") event on exit."""

    __slots__ = ("_recorder", "_name", "_attrs", "_start")

    def __init__(self, recorder, name, attrs):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder.complete(
            self._name, self._start, time.perf_counter(), **self._attrs
        )
        return False


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Disabled recorder: every operation is a no-op, nothing is stored."""

    enabled = False

    def span(self, name, **attrs):
        return _NULL_SPAN

    def complete(self, name, start, end, tid=None, **attrs) -> None:
        pass

    def instant(self, name, **attrs) -> None:
        pass

    def set_thread_name(self, name, tid=None) -> None:
        pass

    @property
    def num_events(self) -> int:
        return 0

    def events(self) -> list:
        return []

    def export(self, target) -> None:
        raise UsageError(
            "tracing is disabled; enable it (Telemetry(trace=True) or the "
            "reader's trace=True) before exporting a trace"
        )


#: Shared stateless instance used wherever tracing is off.
NULL_RECORDER = NullRecorder()


class TraceRecorder:
    """Thread-safe span/instant collector with Chrome trace-event export."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list = []
        self._origin = time.perf_counter()
        self._pid = os.getpid()
        self._named_threads: dict = {}
        self.set_thread_name(threading.current_thread().name)

    # -- recording ---------------------------------------------------------------

    def span(self, name: str, **attrs) -> _Span:
        """Context manager timing a block as one complete event."""
        return _Span(self, name, attrs)

    def complete(self, name: str, start: float, end: float, tid=None, **attrs) -> None:
        """Record an externally timed duration (``perf_counter`` endpoints).

        Lets callers that already hold timing measurements (e.g. the pool's
        queue-wait, clocked from the submitting thread to the dequeuing
        worker) emit a span without a second pair of clock reads.
        """
        event = {
            "name": name,
            "ph": "X",
            "ts": (start - self._origin) * 1e6,
            "dur": max(end - start, 0.0) * 1e6,
            "pid": self._pid,
            "tid": tid if tid is not None else threading.get_ident(),
        }
        if attrs:
            event["args"] = attrs
        with self._lock:
            self._events.append(event)

    def instant(self, name: str, **attrs) -> None:
        """Record a point-in-time marker on the current thread's track."""
        event = {
            "name": name,
            "ph": "i",
            "s": "t",
            "ts": (time.perf_counter() - self._origin) * 1e6,
            "pid": self._pid,
            "tid": threading.get_ident(),
        }
        if attrs:
            event["args"] = attrs
        with self._lock:
            self._events.append(event)

    def set_thread_name(self, name: str, tid=None) -> None:
        """Attach viewer metadata naming a thread's track.

        Renames re-emit the metadata event — trace viewers keep the last
        name seen.
        """
        tid = tid if tid is not None else threading.get_ident()
        with self._lock:
            if self._named_threads.get(tid) == name:
                return
            self._named_threads[tid] = name
            self._events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": self._pid,
                    "tid": tid,
                    "args": {"name": name},
                }
            )

    # -- export ------------------------------------------------------------------

    @property
    def num_events(self) -> int:
        with self._lock:
            return len(self._events)

    def events(self) -> list:
        """Snapshot of the recorded events (copies the list, not the dicts)."""
        with self._lock:
            return list(self._events)

    def to_json(self) -> dict:
        return {"traceEvents": self.events(), "displayTimeUnit": "ms"}

    def export(self, target) -> None:
        """Write the trace to a path or text file-like object."""
        document = self.to_json()
        if hasattr(target, "write"):
            json.dump(document, target)
            return
        with open(target, "w", encoding="utf-8") as sink:
            json.dump(document, sink)

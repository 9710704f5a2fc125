"""Telemetry: tracing, metrics, lifecycle events, and live export.

One :class:`Telemetry` object travels through a decode pipeline
(reader → fetcher → pool → decode tasks → block finders) and bundles:

* ``recorder`` — span tracing with Chrome trace-event export
  (:class:`TraceRecorder`), or the zero-overhead :data:`NULL_RECORDER`
  when tracing is off (the default);
* ``metrics`` — the always-on :class:`MetricsRegistry` of counters,
  gauges, and histograms that backs ``statistics()`` snapshots, the
  ``--profile`` report, and the live ``/metrics`` endpoint;
* ``events`` — the structured chunk-lifecycle :class:`EventLog`
  (queued → block-find → decode → wait-window → markers-replaced →
  cached → evicted/spilled → served), or the zero-overhead
  :data:`NULL_EVENT_LOG` when event logging is off (the default).

Live surfaces on top of the bundle:

* :class:`MetricsServer` — stdlib background HTTP server exposing
  ``/metrics`` (Prometheus text format), ``/stats`` (schema-versioned
  JSON), ``/series`` (periodic sampler history), and ``/healthz``;
* :func:`attribute_reads` / :func:`format_explain` — the ``--explain``
  toolkit reconstructing each ``read()``'s critical path from trace
  spans and attributing its latency across named stages.

Usage::

    from repro import ParallelGzipReader

    with ParallelGzipReader("data.gz", parallelization=8, trace=True,
                            metrics_port=9555) as r:
        r.read()                            # scrape :9555/metrics live
        r.save_trace("decode.trace.json")   # open in Perfetto
        print(r.explain()["totals"]["bottleneck"])
"""

from .events import (
    EVENT_SCHEMA,
    EventLog,
    LIFECYCLE_STATES,
    NULL_EVENT_LOG,
    NullEventLog,
    TERMINAL_STATES,
    chunk_lifecycles,
    load_events,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = [
    "Counter",
    "EVENT_SCHEMA",
    "EventLog",
    "Gauge",
    "Histogram",
    "LIFECYCLE_STATES",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_EVENT_LOG",
    "NULL_RECORDER",
    "NullEventLog",
    "NullRecorder",
    "READ_STAGES",
    "STATS_SCHEMA",
    "TERMINAL_STATES",
    "Telemetry",
    "TelemetrySampler",
    "TraceRecorder",
    "attribute_reads",
    "chunk_lifecycles",
    "flatten_metrics",
    "format_explain",
    "format_profile",
    "load_events",
    "load_trace_events",
    "render_prometheus",
    "sanitize_metric_name",
]


_LAZY = {
    "READ_STAGES": "analysis",
    "attribute_reads": "analysis",
    "format_explain": "analysis",
    "load_trace_events": "analysis",
    "MetricsServer": "exporter",
    "STATS_SCHEMA": "exporter",
    "TelemetrySampler": "exporter",
    "flatten_metrics": "exporter",
    "render_prometheus": "exporter",
    "sanitize_metric_name": "exporter",
    "format_profile": "profile",
}


def __getattr__(name):
    # Lazy: the views over a bundle (the exporter's HTTP server loads
    # http.client) load on first use; a pipeline needs only the bundle.
    if name in _LAZY:
        from importlib import import_module

        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Telemetry:
    """Recorder + metrics + event-log bundle shared by one decode pipeline.

    ``events`` may be ``True`` (create an :class:`EventLog` sharing the
    recorder's timeline) or an existing :class:`EventLog`/
    :class:`NullEventLog` to share one log across bundles.
    """

    def __init__(self, trace: bool = False, metrics: MetricsRegistry = None,
                 events=False):
        self.recorder = TraceRecorder() if trace else NULL_RECORDER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if isinstance(events, (EventLog, NullEventLog)):
            self.events = events
        elif events:
            self.events = EventLog(origin=self.recorder.origin)
        else:
            self.events = NULL_EVENT_LOG

    @property
    def tracing(self) -> bool:
        return self.recorder.enabled

    @property
    def event_logging(self) -> bool:
        return self.events.enabled

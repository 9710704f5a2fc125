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

from .analysis import (
    READ_STAGES,
    attribute_reads,
    format_explain,
    load_trace_events,
)
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
from .exporter import (
    MetricsServer,
    STATS_SCHEMA,
    TelemetrySampler,
    flatten_metrics,
    render_prometheus,
    sanitize_metric_name,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import format_profile
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

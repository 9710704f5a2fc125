"""Telemetry: tracing, metrics, and live export.

One :class:`Telemetry` object travels through a decode pipeline
(reader → fetcher → pool → decode tasks → block finders) and bundles:

* ``recorder`` — span tracing with Chrome trace-event export
  (:class:`TraceRecorder`), or the zero-overhead :data:`NULL_RECORDER`
  when tracing is off (the default);
* ``metrics`` — the always-on :class:`MetricsRegistry` of counters,
  gauges, and histograms that backs ``statistics()`` snapshots, the
  ``--profile`` report, and the live ``/metrics`` endpoint.

The trace is the one timeline: besides the spans it holds each chunk's
lifecycle as instants (``chunk.queued``, ``chunk.cached``, the shed,
reject, no-candidate and error off-ramps), which
:func:`chunk_lifecycles` groups per chunk.

Live surfaces on top of the bundle:

* :class:`MetricsServer` — stdlib background HTTP server exposing
  ``/metrics`` (Prometheus text format), ``/stats`` (schema-versioned
  JSON), ``/series`` (periodic sampler history), and ``/healthz``;
* :func:`attribute_reads` / :func:`format_explain` — the ``--explain``
  toolkit reconstructing each ``read()``'s critical path from trace
  spans and attributing its latency across named stages, with
  :func:`lifecycle_digest` summarising the chunks' lifecycles.

Usage::

    from repro import ParallelGzipReader

    with ParallelGzipReader("data.gz", parallelization=8, trace=True,
                            metrics_port=9555) as r:
        r.read()                            # scrape :9555/metrics live
        r.save_trace("decode.trace.json")   # open in Perfetto
        print(r.explain()["totals"]["bottleneck"])
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import NULL_RECORDER, NullRecorder, TraceRecorder

__all__ = [
    "Counter",
    "EXPLAIN_SCHEMA",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "NULL_RECORDER",
    "NullRecorder",
    "READ_STAGES",
    "STATS_SCHEMA",
    "TERMINAL_RECORDS",
    "Telemetry",
    "TelemetrySampler",
    "TraceRecorder",
    "attribute_reads",
    "chunk_lifecycles",
    "flatten_metrics",
    "format_explain",
    "format_profile",
    "lifecycle_digest",
    "load_trace_events",
    "render_prometheus",
    "sanitize_metric_name",
]


_LAZY = {
    "EXPLAIN_SCHEMA": "analysis",
    "READ_STAGES": "analysis",
    "TERMINAL_RECORDS": "analysis",
    "attribute_reads": "analysis",
    "chunk_lifecycles": "analysis",
    "format_explain": "analysis",
    "lifecycle_digest": "analysis",
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
    """Recorder + metrics bundle shared by one decode pipeline."""

    def __init__(self, trace: bool = False):
        self.recorder = TraceRecorder() if trace else NULL_RECORDER
        self.metrics = MetricsRegistry()

    @property
    def tracing(self) -> bool:
        return self.recorder.enabled

"""Live metrics service: Prometheus exporter + stats/health HTTP endpoints.

Turns the always-on :class:`~repro.telemetry.metrics.MetricsRegistry`
into a *live* observability surface instead of a post-mortem one:

* :func:`render_prometheus` — the registry as Prometheus text exposition
  format (version 0.0.4): counters as ``counter`` series (``_total``
  suffix), gauges and probes as ``gauge`` series, histograms as
  ``summary`` series (``{quantile=...}`` + ``_sum`` + ``_count``).
  Dotted metric names become ``repro_``-prefixed underscore names;
  nested probe dicts (cache snapshots, memory accounts) flatten into one
  series per leaf.
* :class:`TelemetrySampler` — a daemon thread capturing flattened
  registry snapshots at a fixed interval into a bounded ring, so a
  scraper that arrives late still sees how the run developed
  (``/series``).
* :class:`MetricsServer` — a stdlib-only threaded HTTP server exposing
  ``/metrics`` (Prometheus), ``/stats`` (the reader's full
  schema-versioned statistics JSON), ``/series`` (sampler history), and
  ``/healthz``. Bound to loopback by default; ``port=0`` picks an
  ephemeral port (read it back from :attr:`MetricsServer.port`).

Everything here is pull-based and allocation-light: nothing is computed
until a scrape or sampler tick asks for it, so a reader constructed
without ``metrics_port`` pays nothing.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import UsageError

__all__ = [
    "MetricsServer",
    "TelemetrySampler",
    "flatten_metrics",
    "render_prometheus",
    "sanitize_metric_name",
]

#: Stamped into ``/stats`` and ``/series`` payloads; bump on shape change.
#: 3: added the "index" section (persistent index cache);
#: 4: removed the "kernel" section (one block-decode kernel);
#: 5: removed "index" keys "validate" and "window_crc_failures" (one
#: index validation pipeline);
#: 6: removed the "events" section (chunk lifecycles live in the trace).
STATS_SCHEMA = 6


def sanitize_metric_name(name: str) -> str:
    """Dotted registry name -> legal Prometheus metric name."""
    cleaned = []
    for character in name:
        if character.isalnum() or character == "_":
            cleaned.append(character)
        else:
            cleaned.append("_")
    sanitized = "".join(cleaned)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def flatten_metrics(snapshot: dict, prefix: str = "") -> dict:
    """Flatten a nested metrics snapshot into dotted scalar leaves.

    Histogram summaries and probe dicts become ``name.leaf`` entries;
    non-numeric leaves (paths, mode strings) are dropped — the sampler
    and Prometheus renderer only deal in numbers. ``None`` leaves
    (empty-histogram percentiles) are dropped too.
    """
    flat: dict = {}
    for key, value in snapshot.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten_metrics(value, prefix=f"{name}."))
        elif _is_number(value):
            flat[name] = value
        elif isinstance(value, bool):
            flat[name] = int(value)
    return flat


_QUANTILE_KEYS = {"p50": "0.5", "p90": "0.9", "p99": "0.99"}


def _render_histogram(lines: list, name: str, summary: dict) -> None:
    base = sanitize_metric_name(name)
    lines.append(f"# TYPE {base} summary")
    for key, quantile in _QUANTILE_KEYS.items():
        value = summary.get(key)
        if value is not None:
            lines.append(f'{base}{{quantile="{quantile}"}} {value!r}')
    lines.append(f"{base}_sum {summary.get('sum', 0.0)!r}")
    lines.append(f"{base}_count {summary.get('count', 0)}")


def render_prometheus(registry) -> str:
    """Render a :class:`MetricsRegistry` as Prometheus text format."""
    lines: list = []
    for name, (kind, value) in registry.snapshot_typed().items():
        if kind == "counter":
            base = sanitize_metric_name(name)
            lines.append(f"# TYPE {base}_total counter")
            lines.append(f"{base}_total {value}")
        elif kind == "gauge":
            base = sanitize_metric_name(name)
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base} {value!r}")
        elif kind == "histogram":
            _render_histogram(lines, name, value)
        else:  # probe: scalar or nested dict of scalars
            if isinstance(value, dict):
                for leaf, leaf_value in sorted(
                    flatten_metrics(value, prefix=f"{name}.").items()
                ):
                    base = sanitize_metric_name(leaf)
                    lines.append(f"# TYPE {base} gauge")
                    lines.append(f"{base} {leaf_value!r}")
            elif _is_number(value) or isinstance(value, bool):
                base = sanitize_metric_name(name)
                lines.append(f"# TYPE {base} gauge")
                lines.append(f"{base} {value!r}")
    return "\n".join(lines) + "\n"


class TelemetrySampler:
    """Daemon thread sampling the registry into a bounded time series.

    Each tick captures ``(unix time, flattened scalar snapshot)``. The
    ring holds the newest ``capacity`` ticks — ten minutes of history at
    the default one-second interval — so a dashboard or the analysis
    toolkit can reconstruct how queue depth, cache occupancy, and
    throughput evolved without having subscribed from the start.
    """

    def __init__(self, telemetry, interval: float = 1.0, capacity: int = 600):
        if interval <= 0:
            raise UsageError("sampler interval must be positive")
        if capacity < 1:
            raise UsageError("sampler needs room for at least one sample")
        self._telemetry = telemetry
        self.interval = interval
        self._samples: deque = deque(maxlen=capacity)
        self._stop = threading.Event()
        self._thread = None
        self._lock = threading.Lock()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-sampler", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def sample(self) -> dict:
        """Capture one snapshot immediately (also used by tests)."""
        snapshot = {
            "time": time.time(),
            "metrics": flatten_metrics(self._telemetry.metrics.as_dict()),
        }
        with self._lock:
            self._samples.append(snapshot)
        return snapshot

    def series(self) -> dict:
        with self._lock:
            samples = list(self._samples)
        return {
            "schema": STATS_SCHEMA,
            "interval_seconds": self.interval,
            "samples": samples,
        }

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)
            self._thread = None


class MetricsServer:
    """Background HTTP server exposing live pipeline telemetry.

    ``stats_provider`` is a zero-argument callable returning the full
    statistics dict (normally ``reader.statistics``); ``/stats`` serves
    it as stable-key-ordered JSON. Construction binds the socket (so
    ``port`` is final immediately); :meth:`start` begins serving.
    """

    def __init__(self, telemetry, *, port: int = 0, host: str = "127.0.0.1",
                 stats_provider=None, sample_interval: float = 1.0):
        if port < 0 or port > 65535:
            raise UsageError(f"invalid metrics port {port}")
        self._telemetry = telemetry
        self._stats_provider = stats_provider
        self.sampler = TelemetrySampler(telemetry, interval=sample_interval)
        owner = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:
                pass  # never write scrape noise to stderr

            def _send(self, status: int, content_type: str, body: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        self._send(
                            200,
                            "text/plain; version=0.0.4; charset=utf-8",
                            render_prometheus(owner._telemetry.metrics),
                        )
                    elif path == "/stats":
                        self._send(
                            200, "application/json", owner.render_stats()
                        )
                    elif path == "/series":
                        self._send(
                            200,
                            "application/json",
                            json.dumps(owner.sampler.series(),
                                       sort_keys=True, default=str),
                        )
                    elif path == "/healthz":
                        self._send(200, "text/plain; charset=utf-8", "ok\n")
                    else:
                        self._send(404, "text/plain; charset=utf-8",
                                   "not found\n")
                except (BrokenPipeError, ConnectionResetError):
                    pass  # scraper went away mid-response
                except Exception as error:  # never kill the serving thread
                    try:
                        self._send(500, "text/plain; charset=utf-8",
                                   f"internal error: {error}\n")
                    except OSError:
                        pass

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def render_stats(self) -> str:
        """The ``/stats`` JSON body (schema-versioned, stable key order)."""
        if self._stats_provider is not None:
            statistics = dict(self._stats_provider())
        else:
            statistics = {"metrics": self._telemetry.metrics.as_dict()}
        statistics.setdefault("schema", STATS_SCHEMA)
        return json.dumps(statistics, sort_keys=True, default=str)

    def start(self) -> "MetricsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-metrics-server",
                daemon=True,
            )
            self._thread.start()
            self.sampler.start()
        return self

    def stop(self) -> None:
        self.sampler.stop()
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()
        # The handler class keeps this server in a cycle: do not let it
        # keep the provider's owner (a closed reader) alive as well.
        self._stats_provider = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

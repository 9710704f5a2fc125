"""Metrics registry: counters, gauges, histograms, and probe gauges.

Replaces the ad-hoc integer attributes that used to be scattered across
the fetcher, pool, and caches with one named, thread-safe surface. The
registry is *always on* — instruments are plain locked primitives whose
update cost is on par with the bare ``int`` increments they replaced — so
``statistics()`` snapshots carry the same numbers whether or not tracing
is enabled.

Histograms keep a bounded ring of ``(perf_counter, value)`` samples, so
percentiles can be computed either over everything observed or over a
trailing time window (``window_seconds``) — the time-bucketed view that
distinguishes "queue wait was bad at startup" from "queue wait is bad
now".

Naming convention: dotted ``subsystem.metric`` strings, e.g.
``pool.queue_wait_seconds`` or ``blockfinder.candidates_tested``.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque

from ..errors import UsageError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """Monotonically increasing thread-safe counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Streaming distribution with windowed percentile queries.

    Running count/sum/min/max cover the whole lifetime; percentiles come
    from a bounded sample ring (newest ``max_samples`` observations, each
    timestamped), optionally restricted to a trailing window.
    """

    __slots__ = ("_lock", "count", "total", "minimum", "maximum", "_samples")

    def __init__(self, max_samples: int = 4096):
        if max_samples < 1:
            raise UsageError("histogram needs room for at least one sample")
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._samples: deque = deque(maxlen=max_samples)

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
            self._samples.append((time.perf_counter(), value))

    def _window_values(self, window_seconds) -> list:
        if window_seconds is None:
            return [value for _, value in self._samples]
        horizon = time.perf_counter() - window_seconds
        return [value for ts, value in self._samples if ts >= horizon]

    def percentile(self, fraction: float, window_seconds: float = None):
        """Linear-interpolated percentile; ``None`` when no samples apply."""
        if not 0.0 <= fraction <= 1.0:
            raise UsageError("percentile fraction must be within [0, 1]")
        with self._lock:
            values = sorted(self._window_values(window_seconds))
        if not values:
            return None
        if len(values) == 1:
            return values[0]
        rank = fraction * (len(values) - 1)
        low = int(rank)
        high = min(low + 1, len(values) - 1)
        return values[low] + (values[high] - values[low]) * (rank - low)

    @property
    def mean(self):
        with self._lock:
            return self.total / self.count if self.count else None

    def summary(self, window_seconds: float = None) -> dict:
        """JSON-serializable snapshot (count, sum, extrema, percentiles)."""
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "p50": self.percentile(0.50, window_seconds),
            "p90": self.percentile(0.90, window_seconds),
            "p99": self.percentile(0.99, window_seconds),
        }


class MetricsRegistry:
    """Named instrument store shared by one decode pipeline."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict = {}
        self._probes: dict = {}

    def _get(self, name: str, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = factory()
                self._instruments[name] = instrument
            elif not isinstance(instrument, factory):
                raise UsageError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def probe(self, name: str, callback) -> None:
        """Register (or replace) a pull gauge evaluated at snapshot time."""
        with self._lock:
            self._probes[name] = callback

    def freeze_probes(self) -> None:
        """Replace every probe by its current reading. For a pipeline
        shutting down: later snapshots still show the last values, and
        the registry stops keeping the probed objects alive."""
        with self._lock:
            probes = dict(self._probes)
        readings = {name: callback() for name, callback in probes.items()}
        with self._lock:
            for name, value in readings.items():
                self._probes[name] = lambda value=value: value

    def names(self) -> list:
        with self._lock:
            return sorted(set(self._instruments) | set(self._probes))

    def as_dict(self) -> dict:
        """Snapshot every instrument into plain JSON-serializable values."""
        with self._lock:
            instruments = dict(self._instruments)
            probes = dict(self._probes)
        snapshot: dict = {}
        for name, instrument in instruments.items():
            if isinstance(instrument, Histogram):
                snapshot[name] = instrument.summary()
            else:
                snapshot[name] = instrument.value
        for name, callback in probes.items():
            snapshot[name] = callback()
        return dict(sorted(snapshot.items()))

    def snapshot_typed(self) -> dict:
        """Snapshot with instrument kinds: ``{name: (kind, value)}``.

        ``kind`` is ``"counter"``, ``"gauge"``, ``"histogram"`` (value is
        the :meth:`Histogram.summary` dict), or ``"probe"`` (value is
        whatever the callback returns — a scalar or a nested dict). The
        Prometheus exporter needs the kind to emit correct ``# TYPE``
        metadata, which :meth:`as_dict` erases.
        """
        with self._lock:
            instruments = dict(self._instruments)
            probes = dict(self._probes)
        snapshot: dict = {}
        for name, instrument in instruments.items():
            if isinstance(instrument, Counter):
                snapshot[name] = ("counter", instrument.value)
            elif isinstance(instrument, Gauge):
                snapshot[name] = ("gauge", instrument.value)
            elif isinstance(instrument, Histogram):
                snapshot[name] = ("histogram", instrument.summary())
        for name, callback in probes.items():
            snapshot[name] = ("probe", callback())
        return dict(sorted(snapshot.items()))

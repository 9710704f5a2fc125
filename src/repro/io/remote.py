"""Resilient remote range-read sources (HTTP range / S3-like origins).

The paper's thesis is that cache prefetching hides the latency of
fetching and decoding chunks; cold object storage is that thesis taken
to its logical extreme — every ``pread`` is a network round trip that
can be slow, fail transiently, or fail forever. This module makes the
network a first-class :class:`~repro.io.FileReader` so the whole
fetcher/cache/prefetch machinery works unchanged over HTTP, and makes
I/O failure a *recoverable event* instead of an unhandled exception:

* :class:`HttpRangeFileReader` — stdlib ``http.client`` over persistent
  connections, ``Range:`` requests, HEAD/first-GET size discovery, and
  ETag/``Last-Modified`` capture. ``pread`` is thread-safe through a
  small connection pool; ``clone()`` shares the pool and the discovered
  metadata so per-worker readers cost nothing extra.
* :class:`BlockCacheFileReader` — a read-coalescing aligned-block cache
  (``repro.cache`` LRU, optional :class:`MemoryGovernor` accounting)
  between the fetcher and the wire, so the block finder's bit-level
  probing does not issue thousands of tiny range requests.
* :class:`ResilientFileReader` — a source-agnostic decorator adding a
  bounded retry ladder with exponential backoff + decorrelated jitter
  (deterministic when seeded), a per-read deadline covering all
  retries, and a :class:`CircuitBreaker` (closed → open → half-open
  with probe reads) so a dead origin fails fast instead of stalling
  every worker. Source changes (:class:`SourceChangedError`) are never
  retried — mixing object generations would be silent garbage.

:func:`open_remote` assembles the stack; ``ensure_file_reader`` calls
it for ``http(s)://`` strings. Worker threads share one reader (and
clones share its connection pool), so they share the captured size/ETag
and a mid-decode origin swap is detected whichever thread meets it.

Failure semantics end-to-end: exhausted retries surface as
:class:`NetworkError` (CLI exit code 9); under
``tolerate_corruption=True`` the reader converts them into a
``DamageReport`` region (kind ``"network"``) instead of aborting the
read. The ``io.pread`` fault site (:mod:`repro.faults`) injects
deterministic network errors/delays/stalls in front of every attempt.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
import urllib.parse
from collections import deque
from dataclasses import dataclass

from .. import faults
from ..errors import NetworkError, SourceChangedError, UsageError
from .file_reader import FileReader

__all__ = [
    "BlockCacheFileReader",
    "CircuitBreaker",
    "HttpRangeFileReader",
    "NetworkStats",
    "RemoteReaderOptions",
    "ResilientFileReader",
    "is_remote_url",
    "open_remote",
    "reader_from_options",
]

#: Default aligned wire-block size (one HTTP range request per block).
DEFAULT_BLOCK_SIZE = 1024 * 1024
#: Default number of wire blocks kept in the coalescing cache.
DEFAULT_CACHE_BLOCKS = 32

_CIRCUIT_CODES = {"closed": 0, "half-open": 1, "open": 2}


def is_remote_url(source) -> bool:
    """True for strings ``ensure_file_reader`` should open over HTTP."""
    return isinstance(source, str) and source.startswith(
        ("http://", "https://")
    )


@dataclass(frozen=True)
class RemoteReaderOptions:
    """Everything needed to build a resilient remote reader stack.

    ``timeout`` bounds one socket operation (one attempt); ``deadline``
    bounds one ``pread`` including every retry and backoff sleep.
    ``expected_size``/``expected_etag``/``expected_last_modified`` bind
    the reader to a known generation of the object — a different one at
    the origin raises :class:`SourceChangedError` instead of mixing bytes.
    ``jitter_seed`` makes the backoff sequence deterministic for tests.
    """

    url: str
    block_size: int = DEFAULT_BLOCK_SIZE
    cache_blocks: int = DEFAULT_CACHE_BLOCKS
    timeout: float = 10.0
    deadline: float = 30.0
    retries: int = 4
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    breaker_threshold: int = 5
    breaker_cooldown: float = 1.0
    pool_size: int = 4
    jitter_seed: int = None
    expected_size: int = None
    expected_etag: str = None
    expected_last_modified: str = None

    def validate(self) -> "RemoteReaderOptions":
        if not is_remote_url(self.url):
            raise UsageError(f"not an http(s) URL: {self.url!r}")
        if self.block_size < 1:
            raise UsageError("block_size must be at least 1 byte")
        if self.retries < 0:
            raise UsageError("retries cannot be negative")
        if self.timeout is not None and self.timeout <= 0:
            raise UsageError("timeout must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise UsageError("deadline must be positive")
        return self


class NetworkStats:
    """Shared wire counters for one remote reader stack.

    Counts locally (always available) and mirrors every increment into
    an attached :class:`~repro.telemetry.MetricsRegistry` under
    ``net.*`` names. When a trace recorder
    is attached, each wire request additionally leaves a ``net.request``
    span — the raw material for ``--explain``'s ``network-io`` stage.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local: dict = {}
        self._metrics = None
        self._recorder = None

    def attach(self, telemetry) -> None:
        """Mirror future increments into a telemetry bundle."""
        self._metrics = telemetry.metrics
        self._recorder = (
            telemetry.recorder if telemetry.tracing else None
        )

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self._local[name] = self._local.get(name, 0) + amount
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(f"net.{name}").increment(amount)

    def observe_backoff(self, seconds: float) -> None:
        self.count("backoff_seconds", seconds)
        metrics = self._metrics
        if metrics is not None:
            metrics.histogram("net.backoff_wait_seconds").observe(seconds)

    def record_request(self, started: float, finished: float, *,
                       offset: int, nbytes: int, status) -> None:
        recorder = self._recorder
        if recorder is not None:
            recorder.complete(
                "net.request", started, finished,
                offset=offset, nbytes=nbytes, status=status,
            )

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._local)


class CircuitBreaker:
    """Closed → open → half-open breaker shared by one reader stack.

    ``allow()`` raises a fail-fast :class:`NetworkError` while open (no
    wire traffic, no per-worker stall pile-up). After ``cooldown``
    seconds one *probe* read is let through (half-open); its success
    closes the breaker, its failure re-opens it for another cooldown.
    """

    def __init__(self, threshold: int = 5, cooldown: float = 1.0,
                 stats: NetworkStats = None) -> None:
        self.threshold = max(int(threshold), 1)
        self.cooldown = cooldown
        self._stats = stats
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._open_until = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def state_code(self) -> int:
        return _CIRCUIT_CODES[self.state]

    def allow(self) -> None:
        with self._lock:
            if self._state == "closed":
                return
            now = time.monotonic()
            if self._state == "open":
                if now < self._open_until:
                    raise NetworkError(
                        f"circuit breaker open for another "
                        f"{self._open_until - now:.2f} s after "
                        f"{self._failures} consecutive failure(s)",
                        circuit_open=True,
                    )
                self._state = "half-open"
                self._probing = False
            # half-open: exactly one probe read at a time.
            if self._probing:
                raise NetworkError(
                    "circuit breaker half-open: a probe read is already "
                    "in flight",
                    circuit_open=True,
                )
            self._probing = True

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._failures = 0
            self._probing = False

    def record_failure(self) -> None:
        opened = False
        with self._lock:
            self._failures += 1
            was_probe = self._state == "half-open" and self._probing
            self._probing = False
            if was_probe or (
                self._state == "closed" and self._failures >= self.threshold
            ):
                self._state = "open"
                self._open_until = time.monotonic() + self.cooldown
                opened = True
        if opened and self._stats is not None:
            self._stats.count("breaker_opens")


class _HttpPool:
    """Refcounted shared state behind every clone of one HTTP reader:
    the parsed origin, a small pool of persistent connections, and the
    metadata (size, ETag, Last-Modified) discovered on first contact."""

    def __init__(self, url: str, *, timeout: float, pool_size: int,
                 stats: NetworkStats) -> None:
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https"):
            raise UsageError(f"unsupported URL scheme {parts.scheme!r}")
        if not parts.netloc:
            raise UsageError(f"URL has no host: {url!r}")
        self.url = url
        self.scheme = parts.scheme
        self.netloc = parts.netloc
        self.target = urllib.parse.urlunsplit(
            ("", "", parts.path or "/", parts.query, "")
        )
        self.timeout = timeout
        self.pool_size = max(int(pool_size), 1)
        self.stats = stats
        self.lock = threading.Lock()
        self.idle: list = []
        self.refs = 1
        self.size = None
        self.etag = None
        self.last_modified = None

    def connect(self) -> http.client.HTTPConnection:
        factory = (
            http.client.HTTPSConnection
            if self.scheme == "https" else http.client.HTTPConnection
        )
        return factory(self.netloc, timeout=self.timeout)

    def checkout(self) -> http.client.HTTPConnection:
        with self.lock:
            if self.idle:
                return self.idle.pop()
        return self.connect()

    def checkin(self, connection) -> None:
        with self.lock:
            if len(self.idle) < self.pool_size:
                self.idle.append(connection)
                return
        connection.close()

    def retain(self) -> "_HttpPool":
        with self.lock:
            self.refs += 1
        return self

    def release(self) -> None:
        with self.lock:
            self.refs -= 1
            if self.refs > 0:
                return
            idle, self.idle = self.idle, []
        for connection in idle:
            connection.close()


class HttpRangeFileReader(FileReader):
    """``FileReader`` over an HTTP(S) origin using ``Range:`` requests.

    Size discovery is lazy (HEAD, falling back to a 1-byte ranged GET
    for servers that reject HEAD) so building the reader costs no round
    trip. The first response's ETag/``Last-Modified`` are captured and
    every later response is checked against them — a mismatch raises
    :class:`SourceChangedError` mid-decode rather than mixing bytes
    from two object generations. All transport-level failures (denied
    connections, timeouts, 5xx, truncated bodies) surface as
    :class:`NetworkError` for the resilience layer above to retry.
    """

    def __init__(self, url: str, *, timeout: float = 10.0,
                 pool_size: int = 4, expected_size: int = None,
                 expected_etag: str = None,
                 expected_last_modified: str = None,
                 stats: NetworkStats = None, _pool: _HttpPool = None) -> None:
        super().__init__()
        self._stats = stats if stats is not None else NetworkStats()
        if _pool is not None:
            self._pool = _pool.retain()
        else:
            self._pool = _HttpPool(
                url, timeout=timeout, pool_size=pool_size, stats=self._stats
            )
            self._pool.size = expected_size
            self._pool.etag = expected_etag
            self._pool.last_modified = expected_last_modified
        self._position = 0

    @property
    def url(self) -> str:
        return self._pool.url

    @property
    def etag(self):
        return self._pool.etag

    @property
    def last_modified(self):
        return self._pool.last_modified

    # -- metadata discovery --------------------------------------------------

    def size(self) -> int:
        self._check_open()
        if self._pool.size is None:
            self._discover_metadata()
        return self._pool.size

    def _discover_metadata(self) -> None:
        try:
            self._head()
        except NetworkError:
            # Some servers refuse HEAD (405/501) — a 1-byte ranged GET
            # discovers the total through Content-Range instead.
            self.pread(0, 1)
        if self._pool.size is None:
            raise NetworkError(
                f"could not discover the size of {self.url}",
                url=self.url,
            )

    def _head(self) -> None:
        started = time.perf_counter()
        connection = self._pool.checkout()
        try:
            connection.request("HEAD", self._pool.target)
            response = connection.getresponse()
            response.read()
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise NetworkError(
                f"HEAD {self.url} failed: {error!r}", url=self.url
            ) from error
        self._stats.count("requests")
        self._stats.record_request(
            started, time.perf_counter(), offset=-1, nbytes=0,
            status=response.status,
        )
        if response.status != 200:
            self._pool.checkin(connection)
            raise NetworkError(
                f"HEAD {self.url} returned {response.status}",
                url=self.url,
            )
        length = response.getheader("Content-Length")
        self._adopt_validators(response)
        if length is not None:
            self._bind_size(int(length))
        self._pool.checkin(connection)

    def _adopt_validators(self, response) -> None:
        """Capture (or verify) the origin's change validators."""
        etag = response.getheader("ETag")
        modified = response.getheader("Last-Modified")
        pool = self._pool
        with pool.lock:
            changed = []
            if etag is not None:
                if pool.etag is not None and pool.etag != etag:
                    changed.append(f"ETag {pool.etag!r} -> {etag!r}")
                pool.etag = pool.etag or etag
            if modified is not None:
                if (pool.last_modified is not None
                        and pool.last_modified != modified):
                    changed.append(
                        f"Last-Modified {pool.last_modified!r} -> "
                        f"{modified!r}"
                    )
                pool.last_modified = pool.last_modified or modified
        if changed:
            self._stats.count("source_changes")
            raise SourceChangedError(
                f"{self.url} changed mid-read: {'; '.join(changed)}",
                url=self.url,
            )

    def _bind_size(self, total: int) -> None:
        pool = self._pool
        with pool.lock:
            if pool.size is not None and pool.size != total:
                mismatch = (pool.size, total)
            else:
                pool.size = total
                return
        self._stats.count("source_changes")
        raise SourceChangedError(
            f"{self.url} changed size mid-read: expected {mismatch[0]} "
            f"bytes, origin now reports {mismatch[1]}",
            url=self.url,
        )

    # -- positional reads ----------------------------------------------------

    def pread(self, offset: int, size: int) -> bytes:
        self._check_open()
        if size <= 0 or offset < 0:
            return b""
        known = self._pool.size
        if known is not None:
            if offset >= known:
                return b""
            size = min(size, known - offset)
        started = time.perf_counter()
        connection = self._pool.checkout()
        try:
            connection.request(
                "GET", self._pool.target,
                headers={"Range": f"bytes={offset}-{offset + size - 1}"},
            )
            response = connection.getresponse()
            status = response.status
            if status in (200, 206):
                body = response.read()
            else:
                response.read()
                body = b""
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            self._stats.count("requests")
            self._stats.count("transport_errors")
            self._stats.record_request(
                started, time.perf_counter(), offset=offset, nbytes=0,
                status="error",
            )
            raise NetworkError(
                f"range read [{offset}, {offset + size}) of {self.url} "
                f"failed: {error!r}",
                url=self.url, offset=offset, size=size,
            ) from error
        self._stats.count("requests")
        self._stats.record_request(
            started, time.perf_counter(), offset=offset, nbytes=len(body),
            status=status,
        )
        if status == 416:  # requested range not satisfiable: past EOF
            self._pool.checkin(connection)
            return b""
        if status not in (200, 206):
            self._pool.checkin(connection)
            raise NetworkError(
                f"range read [{offset}, {offset + size}) of {self.url} "
                f"returned HTTP {status}",
                url=self.url, offset=offset, size=size,
            )
        self._adopt_validators(response)
        if status == 206:
            total = _content_range_total(response.getheader("Content-Range"))
            if total is not None:
                self._bind_size(total)
            data = body
        else:  # the origin ignored Range: it sent the whole object
            self._bind_size(len(body))
            data = body[offset : offset + size]
        self._pool.checkin(connection)
        self._stats.count("wire_bytes", len(body))
        expected = size
        if self._pool.size is not None:
            expected = max(min(size, self._pool.size - offset), 0)
        if len(data) < expected:
            raise NetworkError(
                f"short read: got {len(data)} of {expected} bytes at "
                f"offset {offset} from {self.url} (connection dropped "
                f"mid-body?)",
                url=self.url, offset=offset, size=size,
            )
        return data[:size]

    def clone(self) -> "HttpRangeFileReader":
        return HttpRangeFileReader(
            self._pool.url, stats=self._stats, _pool=self._pool
        )

    def close(self) -> None:
        if not self._closed:
            self._pool.release()
        super().close()


def _content_range_total(header):
    """Total size out of ``Content-Range: bytes lo-hi/total`` (or None)."""
    if not header:
        return None
    _, _, total = header.partition("/")
    try:
        return int(total)
    except ValueError:
        return None  # "bytes */..." or an unparseable unit: stay lazy


class BlockCacheFileReader(FileReader):
    """Read-coalescing aligned-block cache in front of a slow reader.

    Every ``pread`` is served from whole, block-aligned wire reads kept
    in a shared thread-safe LRU — the block finder's bit-level probing
    touches the same 1 MiB block hundreds of times and pays for one
    range request, and a read spanning several cold blocks coalesces
    the contiguous misses into a single range request. Concurrent
    misses of the same block are deduplicated with per-block in-flight
    locks. Clones share the cache (that is the
    point: every worker's probing hits one pool of blocks).
    ``attach_governor`` rebinds the cache to a reader-wide
    :class:`MemoryGovernor` so resident wire blocks charge the same
    budget as every other cache tier.
    """

    def __init__(self, base: FileReader, *, block_size: int =
                 DEFAULT_BLOCK_SIZE, cache_blocks: int = DEFAULT_CACHE_BLOCKS,
                 stats: NetworkStats = None, _shared: dict = None) -> None:
        super().__init__()
        if block_size < 1:
            raise UsageError("block_size must be at least 1 byte")
        from ..cache import LRUCache

        self._base = base
        self._block_size = block_size
        self._stats = stats if stats is not None else NetworkStats()
        if _shared is not None:
            self._shared = _shared
        else:
            self._shared = {
                "cache": LRUCache(max(int(cache_blocks), 1), sizer=len),
                "lock": threading.Lock(),
                "inflight": {},
                "cache_blocks": max(int(cache_blocks), 1),
            }
        self._position = 0

    @property
    def block_size(self) -> int:
        return self._block_size

    def size(self) -> int:
        self._check_open()
        return self._base.size()

    def attach_governor(self, governor, account: str = "network_cache") -> None:
        """Swap in a budget-accounted cache (entries start fresh)."""
        from ..cache import LRUCache

        with self._shared["lock"]:
            self._shared["cache"] = LRUCache(
                self._shared["cache_blocks"], sizer=len,
                governor=governor, account=account,
                max_bytes=max(
                    self._shared["cache_blocks"] * self._block_size, 1
                ),
            )

    def cache_snapshot(self) -> dict:
        return self._shared["cache"].snapshot()

    def _fetch_span(self, first: int, last: int) -> dict:
        """Blocks ``first..last`` inclusive, coalescing wire round trips.

        Every contiguous run of still-missing blocks becomes ONE range
        request — a chunk-sized ``pread`` spanning four cold blocks pays
        one round trip, not four. Gates are acquired in ascending index
        order (one global ordering, so overlapping spans cannot
        deadlock); blocks fetched concurrently by another thread turn
        into cache hits on the double-check under the gates.
        """
        cache = self._shared["cache"]
        size = self._block_size
        with self._shared["lock"]:
            gates = []
            for index in range(first, last + 1):
                gate = self._shared["inflight"].get(index)
                if gate is None:
                    gate = self._shared["inflight"][index] = threading.Lock()
                gates.append(gate)
        blocks = {}
        for gate in gates:
            gate.acquire()
        try:
            runs = []  # [start, length] of consecutive missing indexes
            for index in range(first, last + 1):
                block = cache.get(index)
                if block is not None:
                    self._stats.count("block_hits")
                    blocks[index] = block
                elif runs and index == runs[-1][0] + runs[-1][1]:
                    runs[-1][1] += 1
                else:
                    runs.append([index, 1])
            for start, length in runs:
                data = self._base.pread(start * size, length * size)
                for step in range(length):
                    index = start + step
                    block = data[step * size:(step + 1) * size]
                    self._stats.count("block_misses")
                    cache.insert(index, block)
                    blocks[index] = block
        finally:
            for gate in reversed(gates):
                gate.release()
            with self._shared["lock"]:
                for index in range(first, last + 1):
                    self._shared["inflight"].pop(index, None)
        return blocks

    def pread(self, offset: int, size: int) -> bytes:
        self._check_open()
        if size <= 0 or offset < 0:
            return b""
        total = self.size()
        if offset >= total:
            return b""
        size = min(size, total - offset)
        first = offset // self._block_size
        last = (offset + size - 1) // self._block_size
        blocks = self._fetch_span(first, last)
        pieces = []
        for index in range(first, last + 1):
            block = blocks[index]
            lo = offset - index * self._block_size if index == first else 0
            hi = (
                offset + size - index * self._block_size
                if index == last else len(block)
            )
            pieces.append(block[max(lo, 0):hi])
            if len(block) < self._block_size:
                break  # short tail block: nothing past it
        data = b"".join(pieces)
        self._stats.count("served_bytes", len(data))
        return data

    def clone(self) -> "BlockCacheFileReader":
        return BlockCacheFileReader(
            self._base.clone(), block_size=self._block_size,
            stats=self._stats, _shared=self._shared,
        )

    def close(self) -> None:
        if not self._closed:
            self._base.close()
        super().close()


class ResilientFileReader(FileReader):
    """Retry/deadline/circuit-breaker decorator around any reader.

    Wraps ``base.pread`` in a bounded retry ladder: up to ``retries``
    re-attempts with exponential backoff and decorrelated jitter
    (``sleep = min(cap, uniform(base, 3 * previous))``), all inside a
    per-read ``deadline``. A shared :class:`CircuitBreaker` rejects
    reads outright while the origin looks dead, and re-probes after a
    cooldown. :class:`SourceChangedError` is re-raised immediately —
    retrying a generation mismatch cannot succeed. Clones share the
    breaker, the jitter RNG, and the statistics, so the whole stack
    behaves as one origin client no matter how many worker threads hold
    clones. Every attempt passes through the ``io.pread`` fault site.
    """

    def __init__(self, base: FileReader, *, options: RemoteReaderOptions =
                 None, retries: int = 4, backoff_base: float = 0.05,
                 backoff_cap: float = 2.0, deadline: float = 30.0,
                 jitter_seed: int = None, breaker: CircuitBreaker = None,
                 stats: NetworkStats = None, _rng=None,
                 _rng_lock=None) -> None:
        super().__init__()
        if retries < 0:
            raise UsageError("retries cannot be negative")
        self._base = base
        self._options = options
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.deadline = deadline
        self._stats = stats if stats is not None else NetworkStats()
        self.breaker = (
            breaker if breaker is not None
            else CircuitBreaker(stats=self._stats)
        )
        self._rng = _rng if _rng is not None else random.Random(jitter_seed)
        self._rng_lock = _rng_lock if _rng_lock is not None else threading.Lock()
        self._position = 0
        self.backoff_log: list = []  # recent delays, for tests/diagnostics

    # -- identity ------------------------------------------------------------

    @property
    def url(self):
        return getattr(self._base, "url", None) or (
            self._options.url if self._options is not None else None
        )

    # -- telemetry -----------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Mirror wire counters/spans into a telemetry bundle and expose
        the circuit state as a gauge probe."""
        self._stats.attach(telemetry)
        telemetry.metrics.probe(
            "net.circuit_state", lambda: self.breaker.state_code
        )

    def attach_governor(self, governor) -> None:
        base = self._base
        hook = getattr(base, "attach_governor", None)
        if hook is not None:
            hook(governor)

    def network_statistics(self) -> dict:
        """Plain-dict wire/resilience snapshot for ``statistics()``."""
        snapshot = self._stats.snapshot()
        wire = snapshot.get("wire_bytes", 0)
        served = snapshot.get("served_bytes", 0)
        cache = getattr(self._base, "cache_snapshot", None)
        return {
            "url": self.url,
            "requests": snapshot.get("requests", 0),
            "wire_bytes": wire,
            "served_bytes": served,
            "coalescing_ratio": (served / wire) if wire else None,
            "block_hits": snapshot.get("block_hits", 0),
            "block_misses": snapshot.get("block_misses", 0),
            "retries": snapshot.get("retries", 0),
            "giveups": snapshot.get("giveups", 0),
            "transport_errors": snapshot.get("transport_errors", 0),
            "backoff_seconds": snapshot.get("backoff_seconds", 0.0),
            "breaker_opens": snapshot.get("breaker_opens", 0),
            "source_changes": snapshot.get("source_changes", 0),
            "circuit_state": self.breaker.state,
            "block_cache": cache() if callable(cache) else None,
        }

    # -- the retry ladder ----------------------------------------------------

    def size(self) -> int:
        self._check_open()
        # Size discovery goes over the wire too: give it the same ladder
        # by riding a 1-byte read when the size is still unknown.
        try:
            return self._base.size()
        except NetworkError:
            self.pread(0, 1)
            return self._base.size()

    def _next_delay(self, previous: float) -> float:
        with self._rng_lock:
            delay = self._rng.uniform(self.backoff_base, previous * 3)
        return min(delay, self.backoff_cap)

    def pread(self, offset: int, size: int) -> bytes:
        self._check_open()
        if size <= 0:
            return b""
        deadline_at = (
            time.monotonic() + self.deadline
            if self.deadline is not None else None
        )
        attempt = 0
        previous_delay = self.backoff_base
        while True:
            self.breaker.allow()  # fail fast: not caught, not retried
            try:
                faults.fire("io.pread", chunk_id=offset, attempt=attempt)
                data = self._base.pread(offset, size)
            except SourceChangedError:
                raise  # a new object generation: retrying cannot help
            except NetworkError as error:
                self.breaker.record_failure()
                attempt += 1
                if attempt > self.retries:
                    self._stats.count("giveups")
                    raise NetworkError(
                        f"range [{offset}, {offset + size}) of "
                        f"{self.url or 'source'} failed after {attempt} "
                        f"attempt(s): {error}",
                        url=self.url, offset=offset, size=size,
                        attempts=attempt,
                    ) from error
                delay = self._next_delay(previous_delay)
                if (deadline_at is not None
                        and time.monotonic() + delay > deadline_at):
                    self._stats.count("giveups")
                    raise NetworkError(
                        f"range [{offset}, {offset + size}) of "
                        f"{self.url or 'source'} exhausted its "
                        f"{self.deadline:.1f} s deadline after {attempt} "
                        f"attempt(s): {error}",
                        url=self.url, offset=offset, size=size,
                        attempts=attempt,
                    ) from error
                previous_delay = delay
                self._stats.count("retries")
                self._stats.observe_backoff(delay)
                self.backoff_log.append(delay)
                del self.backoff_log[:-64]
                time.sleep(delay)
                continue
            self.breaker.record_success()
            return data

    def warm_ranges(self, ranges) -> None:
        """Best-effort concurrent prefetch of ``(offset, size)`` ranges.

        Serial validation walks (catalog probing touches the header of
        every chunk) would otherwise pay one wire round trip per range.
        Warming fetches them through the normal resilient path on a
        small thread fan-out so the block cache underneath absorbs the
        blocks and the walk itself runs against cache hits. Failures
        are swallowed: this is a hint, and the real read surfaces any
        error through the ordinary retry ladder.
        """
        self._check_open()
        queue = deque(span for span in ranges if span[1] > 0)
        if not queue:
            return
        if len(queue) == 1:
            offset, nbytes = queue.popleft()
            try:
                self.pread(offset, nbytes)
            except NetworkError:
                pass
            return

        def drain() -> None:
            while True:
                try:
                    offset, nbytes = queue.popleft()
                except IndexError:
                    return
                try:
                    self.pread(offset, nbytes)
                except NetworkError:
                    return  # origin unhappy: stop hinting, let reads decide

        workers = [
            threading.Thread(target=drain, daemon=True)
            for _ in range(min(8, len(queue)))
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

    def clone(self) -> "ResilientFileReader":
        return ResilientFileReader(
            self._base.clone(),
            options=self._options,
            retries=self.retries,
            backoff_base=self.backoff_base,
            backoff_cap=self.backoff_cap,
            deadline=self.deadline,
            breaker=self.breaker,
            stats=self._stats,
            _rng=self._rng,
            _rng_lock=self._rng_lock,
        )

    def close(self) -> None:
        if not self._closed:
            self._base.close()
        super().close()


def reader_from_options(options: RemoteReaderOptions,
                        stats: NetworkStats = None) -> ResilientFileReader:
    """Assemble the resilient HTTP stack one options object describes."""
    options.validate()
    stats = stats if stats is not None else NetworkStats()
    base = HttpRangeFileReader(
        options.url,
        timeout=options.timeout,
        pool_size=options.pool_size,
        expected_size=options.expected_size,
        expected_etag=options.expected_etag,
        expected_last_modified=options.expected_last_modified,
        stats=stats,
    )
    cached = BlockCacheFileReader(
        base, block_size=options.block_size,
        cache_blocks=options.cache_blocks, stats=stats,
    )
    breaker = CircuitBreaker(
        options.breaker_threshold, options.breaker_cooldown, stats=stats
    )
    return ResilientFileReader(
        cached,
        options=options,
        retries=options.retries,
        backoff_base=options.backoff_base,
        backoff_cap=options.backoff_cap,
        deadline=options.deadline,
        jitter_seed=options.jitter_seed,
        breaker=breaker,
        stats=stats,
    )


def open_remote(url: str, **overrides) -> ResilientFileReader:
    """Open an ``http(s)://`` URL as a resilient, cached ``FileReader``.

    Keyword overrides map onto :class:`RemoteReaderOptions` fields::

        reader = open_remote("https://host/big.gz",
                             retries=6, deadline=60.0,
                             block_size=4 << 20)
    """
    return reader_from_options(RemoteReaderOptions(url=url, **overrides))

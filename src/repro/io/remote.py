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
  small pool of idle connections, so every worker thread reads through
  the one reader.
* :class:`BlockCacheFileReader` — a read-coalescing aligned-block cache
  (``repro.cache`` LRU) between the fetcher and the wire, so the block
  finder's bit-level probing does not issue thousands of tiny range
  requests.
* :class:`ResilientFileReader` — a source-agnostic decorator adding a
  bounded retry ladder with exponential backoff + decorrelated jitter
  (deterministic when seeded), a per-read deadline covering all
  retries, and a :class:`CircuitBreaker` (closed → open → half-open
  with probe reads) so a dead origin fails fast instead of stalling
  every worker. Source changes (:class:`SourceChangedError`) are never
  retried — mixing object generations would be silent garbage.

:func:`open_remote` assembles the stack from one
:class:`~repro.io.options.RemoteReaderOptions`, which every layer reads;
``ensure_file_reader`` calls it for ``http(s)://`` strings. Worker threads
share the one stack, so they share its breaker, its block cache and the
captured size/ETag, and a mid-decode origin swap is detected whichever
thread meets it.

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

from .. import faults
from ..errors import NetworkError, SourceChangedError
from .file_reader import FileReader
from .options import RemoteReaderOptions

__all__ = [
    "BlockCacheFileReader",
    "CircuitBreaker",
    "HttpRangeFileReader",
    "NetworkStats",
    "RemoteReaderOptions",
    "ResilientFileReader",
    "open_remote",
    "reader_from_options",
]

_CIRCUIT_CODES = {"closed": 0, "half-open": 1, "open": 2}


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

    def __init__(self, options: RemoteReaderOptions,
                 stats: NetworkStats) -> None:
        self._options = options
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
                self._state == "closed"
                and self._failures >= self._options.breaker_threshold
            ):
                self._state = "open"
                self._open_until = (
                    time.monotonic() + self._options.breaker_cooldown
                )
                opened = True
        if opened:
            self._stats.count("breaker_opens")


class HttpRangeFileReader(FileReader):
    """``FileReader`` over an HTTP(S) origin using ``Range:`` requests.

    Size discovery is lazy (HEAD, falling back to a 1-byte ranged GET
    for servers that refuse HEAD with 405 or 501) so building the reader
    costs no round trip; a range read binds the size too, through its
    ``Content-Range``. The first response's ETag/``Last-Modified`` are
    captured and every later response is checked against them — a
    mismatch raises :class:`SourceChangedError` mid-decode rather than
    mixing bytes from two object generations. All transport-level
    failures (denied connections, timeouts, 5xx, truncated bodies)
    surface as :class:`NetworkError` for the resilience layer above to
    retry.
    """

    def __init__(self, options: RemoteReaderOptions,
                 stats: NetworkStats) -> None:
        super().__init__()
        parts = urllib.parse.urlsplit(options.url)
        self.url = options.url
        self._options = options
        self._stats = stats
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self._netloc = parts.netloc
        self._target = urllib.parse.urlunsplit(
            ("", "", parts.path or "/", parts.query, "")
        )
        self._lock = threading.Lock()
        self._idle: list = []  # persistent connections between requests
        # Discovered on first contact unless the options bind them.
        self._size = options.expected_size
        self.etag = options.expected_etag
        self.last_modified = options.expected_last_modified
        self._position = 0

    def _checkout(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return self._connection_class(
            self._netloc, timeout=self._options.timeout
        )

    def _checkin(self, connection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self._options.pool_size:
                self._idle.append(connection)
                return
        connection.close()

    # -- metadata discovery --------------------------------------------------

    def size(self) -> int:
        self._check_open()
        if self._size is None:
            self._discover_metadata()
        return self._size

    @property
    def known_size(self):
        """The size once discovered or bound, else ``None``; asking costs
        no request."""
        return self._size

    def _discover_metadata(self) -> None:
        if not self._head():
            # The server refuses HEAD itself: a 1-byte ranged GET
            # discovers the total through Content-Range instead.
            self.pread(0, 1)
        if self._size is None:
            raise NetworkError(
                f"could not discover the size of {self.url}",
                url=self.url,
            )

    def _head(self) -> bool:
        """Learn size and validators from a HEAD; ``False`` when the
        server refuses the method (405/501). Any other failure raises
        :class:`NetworkError` for the retry ladder above."""
        started = time.perf_counter()
        connection = self._checkout()
        try:
            connection.request("HEAD", self._target)
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
        if response.status in (405, 501):
            self._checkin(connection)
            return False
        if response.status != 200:
            self._checkin(connection)
            raise NetworkError(
                f"HEAD {self.url} returned {response.status}",
                url=self.url,
            )
        length = response.getheader("Content-Length")
        self._adopt_validators(response)
        if length is not None:
            self._bind_size(int(length))
        self._checkin(connection)
        return True

    def _adopt_validators(self, response) -> None:
        """Capture (or verify) the origin's change validators."""
        etag = response.getheader("ETag")
        modified = response.getheader("Last-Modified")
        with self._lock:
            changed = []
            if etag is not None:
                if self.etag is not None and self.etag != etag:
                    changed.append(f"ETag {self.etag!r} -> {etag!r}")
                self.etag = self.etag or etag
            if modified is not None:
                if (self.last_modified is not None
                        and self.last_modified != modified):
                    changed.append(
                        f"Last-Modified {self.last_modified!r} -> "
                        f"{modified!r}"
                    )
                self.last_modified = self.last_modified or modified
        if changed:
            self._stats.count("source_changes")
            raise SourceChangedError(
                f"{self.url} changed mid-read: {'; '.join(changed)}",
                url=self.url,
            )

    def _bind_size(self, total: int) -> None:
        with self._lock:
            if self._size is not None and self._size != total:
                mismatch = (self._size, total)
            else:
                self._size = total
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
        known = self._size
        if known is not None:
            if offset >= known:
                return b""
            size = min(size, known - offset)
        started = time.perf_counter()
        connection = self._checkout()
        try:
            connection.request(
                "GET", self._target,
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
            self._checkin(connection)
            return b""
        if status not in (200, 206):
            self._checkin(connection)
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
        self._checkin(connection)
        self._stats.count("wire_bytes", len(body))
        expected = size
        if self._size is not None:
            expected = max(min(size, self._size - offset), 0)
        if len(data) < expected:
            raise NetworkError(
                f"short read: got {len(data)} of {expected} bytes at "
                f"offset {offset} from {self.url} (connection dropped "
                f"mid-body?)",
                url=self.url, offset=offset, size=size,
            )
        return data[:size]

    def close(self) -> None:
        with self._lock:
            super().close()
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


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
    locks. Every worker thread reads through the one cache, so all of
    their probing hits one pool of blocks.
    """

    def __init__(self, base: FileReader, options: RemoteReaderOptions,
                 stats: NetworkStats) -> None:
        super().__init__()
        from ..cache import LRUCache

        self._base = base
        self.block_size = options.block_size
        self._stats = stats
        self._cache = LRUCache(max(options.cache_blocks, 1), sizer=len)
        self._lock = threading.Lock()
        self._inflight: dict = {}  # block index -> its fetch gate
        self._position = 0

    def size(self) -> int:
        self._check_open()
        return self._base.size()

    @property
    def known_size(self):
        """The wire reader's size once known, else ``None``."""
        return self._base.known_size

    def cache_snapshot(self) -> dict:
        return self._cache.snapshot()

    def _fetch_span(self, first: int, last: int) -> dict:
        """Blocks ``first..last`` inclusive, coalescing wire round trips.

        Every contiguous run of still-missing blocks becomes ONE range
        request — a chunk-sized ``pread`` spanning four cold blocks pays
        one round trip, not four. Gates are acquired in ascending index
        order (one global ordering, so overlapping spans cannot
        deadlock); blocks fetched concurrently by another thread turn
        into cache hits on the double-check under the gates.
        """
        cache = self._cache
        size = self.block_size
        with self._lock:
            gates = []
            for index in range(first, last + 1):
                gate = self._inflight.get(index)
                if gate is None:
                    gate = self._inflight[index] = threading.Lock()
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
            with self._lock:
                for index in range(first, last + 1):
                    self._inflight.pop(index, None)
        return blocks

    def pread(self, offset: int, size: int) -> bytes:
        self._check_open()
        if size <= 0 or offset < 0:
            return b""
        # An unknown size is not discovered first: the fetch's
        # Content-Range binds it, and a short tail block ends the read.
        total = self._base.known_size
        if total is not None:
            if offset >= total:
                return b""
            size = min(size, total - offset)
        first = offset // self.block_size
        last = (offset + size - 1) // self.block_size
        blocks = self._fetch_span(first, last)
        pieces = []
        for index in range(first, last + 1):
            block = blocks[index]
            lo = offset - index * self.block_size if index == first else 0
            hi = (
                offset + size - index * self.block_size
                if index == last else len(block)
            )
            pieces.append(block[max(lo, 0):hi])
            if len(block) < self.block_size:
                break  # short tail block: nothing past it
        data = b"".join(pieces)
        self._stats.count("served_bytes", len(data))
        return data

    def close(self) -> None:
        if not self._closed:
            self._base.close()
        super().close()


class ResilientFileReader(FileReader):
    """Retry/deadline/circuit-breaker decorator around any reader.

    Wraps ``base.pread``, and ``base.size`` while the size is unknown,
    in one bounded retry ladder: up to ``retries`` re-attempts with
    exponential backoff and decorrelated jitter (``sleep = min(cap,
    uniform(base, 3 * previous))``), all inside a per-read ``deadline``.
    A shared :class:`CircuitBreaker` rejects reads outright while the
    origin looks dead, and re-probes after a cooldown.
    :class:`SourceChangedError` is re-raised immediately — retrying a
    generation mismatch cannot succeed. Every worker thread reads
    through the one decorator, so the whole stack behaves as one origin
    client: one breaker, one jitter sequence, one set of statistics.
    Every read attempt passes through the ``io.pread`` fault site.
    """

    def __init__(self, base: FileReader, options: RemoteReaderOptions,
                 stats: NetworkStats) -> None:
        super().__init__()
        self._base = base
        self._options = options
        self.url = options.url
        self._stats = stats
        self.breaker = CircuitBreaker(options, stats)
        self._rng = random.Random(options.jitter_seed)
        self._position = 0
        self.backoff_log: list = []  # recent delays, for tests/diagnostics

    # -- telemetry -----------------------------------------------------------

    def attach_telemetry(self, telemetry) -> None:
        """Mirror wire counters/spans into a telemetry bundle and expose
        the circuit state as a gauge probe."""
        self._stats.attach(telemetry)
        telemetry.metrics.probe(
            "net.circuit_state", lambda: self.breaker.state_code
        )

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
        known = getattr(self._base, "known_size", None)
        if known is not None:
            return known  # no request to make, so nothing to retry
        return self._with_retries(
            lambda attempt: self._base.size(), "size discovery"
        )

    def pread(self, offset: int, size: int) -> bytes:
        self._check_open()
        if size <= 0:
            return b""

        def attempt(number: int) -> bytes:
            faults.fire("io.pread", chunk_id=offset, attempt=number)
            return self._base.pread(offset, size)

        return self._with_retries(
            attempt, f"range [{offset}, {offset + size})",
            offset=offset, size=size,
        )

    def _with_retries(self, call, what: str, **where):
        """``call(attempt)`` under the breaker, retried with backoff until
        it succeeds, ``retries`` re-attempts are spent, or the deadline
        would pass; ``what`` and ``where`` name the request in the
        :class:`NetworkError` that gives up."""
        options = self._options
        deadline_at = (
            time.monotonic() + options.deadline
            if options.deadline is not None else None
        )
        attempt = 0
        previous_delay = options.backoff_base
        while True:
            self.breaker.allow()  # fail fast: not caught, not retried
            try:
                result = call(attempt)
            except SourceChangedError:
                raise  # a new object generation: retrying cannot help
            except NetworkError as error:
                self.breaker.record_failure()
                attempt += 1
                if attempt > options.retries:
                    self._stats.count("giveups")
                    raise NetworkError(
                        f"{what} of {self.url or 'source'} failed after "
                        f"{attempt} attempt(s): {error}",
                        url=self.url, attempts=attempt, **where,
                    ) from error
                # One C call: atomic under the GIL, no lock needed.
                delay = min(
                    self._rng.uniform(options.backoff_base,
                                      previous_delay * 3),
                    options.backoff_cap,
                )
                if (deadline_at is not None
                        and time.monotonic() + delay > deadline_at):
                    self._stats.count("giveups")
                    raise NetworkError(
                        f"{what} of {self.url or 'source'} exhausted its "
                        f"{options.deadline:.1f} s deadline after {attempt} "
                        f"attempt(s): {error}",
                        url=self.url, attempts=attempt, **where,
                    ) from error
                previous_delay = delay
                self._stats.count("retries")
                self._stats.observe_backoff(delay)
                self.backoff_log.append(delay)
                del self.backoff_log[:-64]
                time.sleep(delay)
                continue
            self.breaker.record_success()
            return result

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

    def close(self) -> None:
        if not self._closed:
            self._base.close()
        super().close()


def reader_from_options(options: RemoteReaderOptions) -> ResilientFileReader:
    """Assemble the resilient HTTP stack one options object describes."""
    options.validate()
    stats = NetworkStats()
    wire = HttpRangeFileReader(options, stats)
    return ResilientFileReader(
        BlockCacheFileReader(wire, options, stats), options, stats
    )


def open_remote(url: str, **overrides) -> ResilientFileReader:
    """Open an ``http(s)://`` URL as a resilient, cached ``FileReader``.

    Keyword overrides map onto :class:`RemoteReaderOptions` fields::

        reader = open_remote("https://host/big.gz",
                             retries=6, deadline=60.0,
                             block_size=4 << 20)
    """
    return reader_from_options(RemoteReaderOptions(url=url, **overrides))

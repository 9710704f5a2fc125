"""Chaos matrix for resilient remote sources (repro.io.remote).

Every scenario runs against the deterministic in-process fault server —
no external network — and replays exactly under its seed::

    CHAOS_SEED=<seed> PYTHONPATH=src python -m pytest tests/test_remote_source.py

Matrix: seeded fault server x (flaky 10% errors / injected latency /
mid-decode connection drops / mid-decode content change / hard-down
origin) x threads+processes backends, asserting byte-identical output
vs local decode on recoverable faults, bounded wall-clock on
circuit-break, and correct tolerant-mode damage regions on exhausted
ranges.
"""

import gzip as stdlib_gzip
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import (
    ChunkDecodeError,
    EXIT_NETWORK,
    NetworkError,
    SourceChangedError,
    UsageError,
    exit_code_for,
)
from repro.io import (
    BlockCacheFileReader,
    HttpRangeFileReader,
    RemoteReaderOptions,
    ResilientFileReader,
    ensure_file_reader,
    open_remote,
    reader_from_options,
)
from repro.io.fault_server import FaultHTTPServer
from repro.io.remote import NetworkStats
from repro.reader import ParallelGzipReader

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1337"))

CHUNK = 64 * 1024

# Base64-like data compresses to ~75%, so BLOB spans many chunks and
# wire blocks — line-art test data would collapse to a few KiB and every
# interesting offset would sit past EOF.
from repro.datagen import generate_base64

DATA = generate_base64(800_000, seed=CHAOS_SEED % 7)
BLOB = stdlib_gzip.compress(DATA, 6)

#: Tight resilience knobs so failure paths stay fast in CI.
FAST = dict(backoff_base=0.01, backoff_cap=0.05, jitter_seed=CHAOS_SEED)


@pytest.fixture(autouse=True)
def _hard_deadline():
    """Remote chaos tests must never hang: 120 s hard kill per test."""

    def _expired(signum, frame):
        raise AssertionError(
            f"remote-source test exceeded its hard deadline "
            f"(CHAOS_SEED={CHAOS_SEED})"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class _RefuseHeadHandler(BaseHTTPRequestHandler):
    """Serves ``BLOB`` to ranged GETs and answers HEAD with 405."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args) -> None:
        pass

    def do_HEAD(self) -> None:
        self.server.methods.append("HEAD")
        self.send_response(405)
        self.send_header("Allow", "GET")
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_GET(self) -> None:
        self.server.methods.append("GET")
        lo, _, hi = self.headers["Range"][len("bytes="):].partition("-")
        start, stop = int(lo), min(int(hi) + 1, len(BLOB))
        body = BLOB[start:stop]
        self.send_response(206)
        self.send_header(
            "Content-Range", f"bytes {start}-{stop - 1}/{len(BLOB)}"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class TestHttpRangeReader:
    def test_size_and_validators(self):
        with FaultHTTPServer(BLOB) as server:
            with open_remote(server.url, **FAST) as reader:
                assert reader.size() == len(BLOB)
                stats = reader.network_statistics()
                assert stats["url"] == server.url

    def test_pread_matches_local(self):
        with FaultHTTPServer(BLOB) as server:
            with open_remote(server.url, block_size=8192, **FAST) as reader:
                assert reader.pread(0, 100) == BLOB[:100]
                assert reader.pread(5000, 9000) == BLOB[5000:14000]
                assert reader.pread(len(BLOB) - 7, 100) == BLOB[-7:]
                assert reader.pread(len(BLOB) + 1, 10) == b""
                assert reader.read() == BLOB  # cursor API on top of pread

    def test_block_cache_coalesces_probing(self):
        with FaultHTTPServer(BLOB) as server:
            with open_remote(server.url, block_size=32 * 1024, **FAST) as reader:
                # Bit-level probing: hundreds of tiny reads, few blocks.
                for offset in range(0, 30 * 1024, 111):
                    assert reader.pread(offset, 37) == BLOB[offset : offset + 37]
                stats = reader.network_statistics()
                assert stats["block_misses"] <= 2
                assert stats["block_hits"] >= 200
                # wire bytes ~ one block, served bytes ~ sum of tiny reads
                assert stats["wire_bytes"] <= 2 * 32 * 1024

    def test_failed_read_costs_one_request_per_attempt(self):
        # A 503 is the origin failing, not refusing HEAD: the retry
        # ladder handles it, no second request rides along.
        with FaultHTTPServer(BLOB, hard_down=True) as server:
            with open_remote(server.url, retries=0, breaker_threshold=1,
                             **FAST) as reader:
                with pytest.raises(NetworkError) as info:
                    reader.pread(0, 10)
            assert server.request_count == 1
        assert "503" in str(info.value)

    def test_failed_head_is_not_retried_as_a_ranged_get(self):
        with FaultHTTPServer(BLOB, hard_down=True) as server:
            stats = NetworkStats()
            wire = HttpRangeFileReader(
                RemoteReaderOptions(url=server.url), stats
            )
            with pytest.raises(NetworkError) as info:
                wire.size()
            wire.close()
            assert server.request_count == 1
        assert "HEAD" in str(info.value)
        assert "503" in str(info.value)

    @pytest.mark.parametrize("retries, breaker_threshold",
                             [(0, 1), (2, 5)])
    def test_size_discovery_runs_the_retry_ladder(self, retries,
                                                  breaker_threshold):
        # One HEAD per attempt, under the breaker: no extra request rides
        # along, and the error names the size probe, not a byte range.
        with FaultHTTPServer(BLOB, hard_down=True) as server:
            with open_remote(server.url, retries=retries,
                             breaker_threshold=breaker_threshold,
                             **FAST) as reader:
                with pytest.raises(NetworkError) as info:
                    reader.size()
            assert server.request_count == retries + 1
        error = info.value
        assert "size discovery" in str(error)
        assert "range [" not in str(error)
        assert error.offset is None
        assert error.attempts == retries + 1

    def test_known_size_costs_no_request(self):
        with FaultHTTPServer(BLOB) as server:
            with open_remote(server.url, retries=0, **FAST) as reader:
                assert reader.size() == len(BLOB)
                requests = server.request_count
                server.set_hard_down(True)
                assert reader.size() == len(BLOB)
            assert server.request_count == requests

    def test_refused_head_discovers_size_through_ranged_get(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _RefuseHeadHandler)
        server.daemon_threads = True
        server.methods = []
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        try:
            host, port = server.server_address[:2]
            url = f"http://{host}:{port}/payload"
            with open_remote(url, retries=0, **FAST) as reader:
                assert reader.size() == len(BLOB)
                assert reader.pread(1000, 50) == BLOB[1000:1050]
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert server.methods[:2] == ["HEAD", "GET"]

    def test_rejects_non_http_url(self):
        with pytest.raises(UsageError):
            open_remote("ftp://example.invalid/file.gz")
        with pytest.raises(UsageError):
            RemoteReaderOptions(url="not-a-url").validate()


class TestRetryLadder:
    def test_fail_first_then_recover_counts_attempts(self):
        with FaultHTTPServer(BLOB, seed=CHAOS_SEED, fail_first=2) as server:
            with open_remote(server.url, retries=4, **FAST) as reader:
                assert reader.pread(0, 64) == BLOB[:64]
                stats = reader.network_statistics()
                assert stats["retries"] >= 2
                assert stats["giveups"] == 0

    def test_retries_exhausted_raises_with_context(self):
        with FaultHTTPServer(BLOB, hard_down=True) as server:
            with open_remote(server.url, retries=2, deadline=10.0,
                             **FAST) as reader:
                with pytest.raises(NetworkError) as excinfo:
                    reader.pread(0, 64)
                error = excinfo.value
                assert error.attempts == 3  # initial try + 2 retries
                assert error.offset == 0
                assert server.url in str(error)
                assert exit_code_for(error) == EXIT_NETWORK

    def test_deadline_bounds_total_wall_clock(self):
        with FaultHTTPServer(BLOB, hard_down=True) as server:
            with open_remote(server.url, retries=50, deadline=1.0,
                             **FAST) as reader:
                started = time.monotonic()
                with pytest.raises(NetworkError):
                    reader.pread(0, 64)
                assert time.monotonic() - started < 3.0

    def test_seeded_jitter_is_deterministic(self):
        logs = []
        for _ in range(2):
            with FaultHTTPServer(BLOB, fail_first=3) as server:
                with open_remote(server.url, retries=5, **FAST) as reader:
                    reader.pread(0, 64)
                    logs.append(tuple(reader.backoff_log))
        assert logs[0] == logs[1]
        assert len(logs[0]) >= 3

    def test_fault_site_injects_without_server(self):
        from repro.faults import FaultSpec, injected

        with FaultHTTPServer(BLOB) as server:
            with open_remote(server.url, retries=3, **FAST) as reader:
                with injected(seed=CHAOS_SEED, specs=[
                    FaultSpec("io.pread", "raise", error="network",
                              attempts=(0,)),
                ]):
                    # First attempt is injected away, the retry succeeds.
                    assert reader.pread(0, 64) == BLOB[:64]
                assert reader.network_statistics()["retries"] >= 1


class TestCircuitBreaker:
    def test_open_circuit_fails_fast_without_wire_traffic(self):
        with FaultHTTPServer(BLOB, hard_down=True) as server:
            reader = open_remote(server.url, retries=1, breaker_threshold=2,
                                 breaker_cooldown=30.0, **FAST)
            with pytest.raises(NetworkError):
                reader.pread(0, 64)
            assert reader.breaker.state == "open"
            requests_before = server.request_count
            started = time.monotonic()
            for _ in range(20):
                with pytest.raises(NetworkError) as excinfo:
                    reader.pread(0, 64)
                assert excinfo.value.circuit_open
            # Fail-fast: no new wire traffic, no backoff sleeps.
            assert server.request_count == requests_before
            assert time.monotonic() - started < 1.0
            assert reader.network_statistics()["circuit_state"] == "open"
            reader.close()

    def test_half_open_probe_recovers(self):
        with FaultHTTPServer(BLOB, hard_down=True) as server:
            reader = open_remote(server.url, retries=0, breaker_threshold=1,
                                 breaker_cooldown=0.05, **FAST)
            with pytest.raises(NetworkError):
                reader.pread(0, 64)
            assert reader.breaker.state == "open"
            server.set_hard_down(False)
            time.sleep(0.1)  # past the cooldown: next read is the probe
            assert reader.pread(0, 64) == BLOB[:64]
            assert reader.breaker.state == "closed"
            reader.close()

    def test_dead_origin_costs_one_deadline_across_threads(self):
        # Worker threads share one stack and so one breaker. Each read may
        # retry for 2 s, but once the breaker opens every thread's next
        # attempt fails fast, and the origin sees no further request.
        threads = 4
        with FaultHTTPServer(BLOB, hard_down=True) as server:
            reader = open_remote(server.url, retries=50, deadline=2.0,
                                 breaker_threshold=2, breaker_cooldown=30.0,
                                 block_size=8192, **FAST)
            start = threading.Barrier(threads)
            errors = [None] * threads

            def worker(slot):
                start.wait()
                try:
                    reader.pread(slot * 8192, 64)
                except NetworkError as error:
                    errors[slot] = error

            started = time.monotonic()
            pool = [threading.Thread(target=worker, args=(slot,))
                    for slot in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
            assert time.monotonic() - started < 1.0
            assert all(error is not None and error.circuit_open
                       for error in errors), errors
            assert reader.breaker.state == "open"
            requests = server.request_count
            for slot in range(threads):
                with pytest.raises(NetworkError) as excinfo:
                    reader.pread(slot * 8192, 64)
                assert excinfo.value.circuit_open
            assert server.request_count == requests
            reader.close()


class TestSourceChangeDetection:
    def test_changed_etag_raises_structured_error(self):
        with FaultHTTPServer(BLOB) as server:
            with open_remote(server.url, block_size=8192, **FAST) as reader:
                assert reader.pread(0, 64) == BLOB[:64]
                server.set_payload(BLOB[:-1] + b"!")
                with pytest.raises(SourceChangedError) as excinfo:
                    reader.pread(64 * 1024, 64)  # uncached block: hits wire
                assert exit_code_for(excinfo.value) == EXIT_NETWORK
                assert reader.network_statistics()["source_changes"] >= 1

    def test_source_change_is_never_retried(self):
        with FaultHTTPServer(BLOB) as server:
            with open_remote(server.url, block_size=8192, retries=5,
                             **FAST) as reader:
                reader.pread(0, 64)
                requests = server.request_count
                server.set_payload(BLOB + b"longer")
                with pytest.raises(SourceChangedError):
                    reader.pread(64 * 1024, 64)
                # One wire request, no retry storm on a generation change.
                assert server.request_count == requests + 1


class TestWiring:
    def test_ensure_file_reader_accepts_urls(self):
        with FaultHTTPServer(BLOB) as server:
            reader = ensure_file_reader(server.url)
            try:
                assert isinstance(reader, ResilientFileReader)
                assert reader.pread(0, 10) == BLOB[:10]
            finally:
                reader.close()

    def test_rebuilt_reader_detects_generation_mismatch(self):
        with FaultHTTPServer(BLOB) as server:
            with HttpRangeFileReader(RemoteReaderOptions(url=server.url),
                                     NetworkStats()) as first:
                options = RemoteReaderOptions(
                    url=server.url, expected_size=first.size(),
                    expected_etag=first.etag, **FAST,
                )
            assert options.expected_etag is not None
            server.set_payload(BLOB + b"v2")
            rebuilt = reader_from_options(options)
            with pytest.raises(SourceChangedError):
                rebuilt.pread(0, 64)
            rebuilt.close()

    def test_stack_layering(self):
        options = RemoteReaderOptions(url="http://127.0.0.1:9/none")
        stack = reader_from_options(options)
        assert isinstance(stack, ResilientFileReader)
        assert isinstance(stack._base, BlockCacheFileReader)
        assert isinstance(stack._base._base, HttpRangeFileReader)
        stack.close()


class TestEndToEndChaos:
    @pytest.mark.parametrize("backend", ["threads"])
    def test_flaky_origin_with_latency_decodes_byte_identical(self, backend):
        with FaultHTTPServer(BLOB, seed=CHAOS_SEED, error_rate=0.10,
                             latency=0.002) as server:
            source = open_remote(server.url, block_size=CHUNK, retries=6,
                                 **FAST)
            with ParallelGzipReader(source, parallelization=4,
                                    chunk_size=CHUNK) as reader:
                assert reader.read() == DATA, (
                    f"remote decode diverged (CHAOS_SEED={CHAOS_SEED})"
                )
                assert reader.statistics()["backend"] == backend
                net = reader.statistics()["network"]
                assert net["requests"] > 0
                assert net["giveups"] == 0

    @pytest.mark.parametrize("backend", ["threads"])
    def test_connection_drops_mid_decode_recover(self, backend):
        # Coalesced span reads keep the request count low, so the rates
        # are high enough that the seeded draws provably hit both kinds;
        # the breaker threshold is raised so a dense-but-recoverable
        # fault burst exercises the retry ladder, not the circuit.
        with FaultHTTPServer(BLOB, seed=CHAOS_SEED, drop_rate=0.20,
                             short_read_rate=0.20) as server:
            source = open_remote(server.url, block_size=CHUNK, retries=6,
                                 breaker_threshold=20, **FAST)
            with ParallelGzipReader(source, parallelization=4,
                                    chunk_size=CHUNK) as reader:
                assert reader.read() == DATA
                assert reader.statistics()["backend"] == backend
            assert server.counters()["drops"] + \
                server.counters()["short_reads"] > 0

    def test_hard_down_origin_fails_within_budget_exit_9(self):
        with FaultHTTPServer(BLOB, hard_down=True) as server:
            source = open_remote(server.url, retries=2, deadline=2.0,
                                 breaker_threshold=2, **FAST)
            started = time.monotonic()
            with pytest.raises(NetworkError) as excinfo:
                with ParallelGzipReader(source, parallelization=4) as reader:
                    reader.read()
            # Bounded: no per-worker stall pile-up past the read budget.
            assert time.monotonic() - started < 10.0
            assert exit_code_for(excinfo.value) == EXIT_NETWORK

    def test_content_change_mid_decode_surfaces_not_garbage(self):
        with FaultHTTPServer(BLOB) as server:
            source = open_remote(server.url, block_size=8192, **FAST)
            with pytest.raises((SourceChangedError, ChunkDecodeError)) \
                    as excinfo:
                with ParallelGzipReader(source, parallelization=1,
                                        chunk_size=CHUNK) as reader:
                    reader.read(1000)
                    server.set_payload(
                        stdlib_gzip.compress(DATA[::-1], 6)
                    )
                    while reader.read(CHUNK):
                        pass
            assert exit_code_for(excinfo.value) == EXIT_NETWORK

    def test_tolerant_mode_records_network_damage_search_mode(self):
        # The first chunks decode; a permanently dead range later in the
        # file exhausts its retries and becomes a damage region instead
        # of aborting the whole read.
        dead_from = 48 * 1024
        with FaultHTTPServer(
            BLOB, fail_ranges=[(dead_from, len(BLOB))]
        ) as server:
            source = open_remote(server.url, block_size=8192, retries=1,
                                 breaker_threshold=10_000, **FAST)
            with ParallelGzipReader(source, parallelization=2,
                                    chunk_size=16 * 1024,
                                    tolerate_corruption=True) as reader:
                output = reader.read()
                report = reader.damage_report
            assert report.regions, "expected a tolerant-mode damage region"
            kinds = {region.kind for region in report.regions}
            assert "network" in kinds
            # Whatever was produced before the dead range is real data.
            assert output[: 16 * 1024] == DATA[: len(output)][: 16 * 1024]

    def test_tolerant_mode_placeholders_exact_chunk_catalog_mode(self):
        from repro.gz.parallel_writer import compress_parallel

        blob = compress_parallel(
            DATA, parallelization=4, layout="parallel-friendly",
            chunk_size=128 * 1024,
        )
        # Kill one interior chunk's byte range; catalogued extents make
        # the damage exactly that chunk, not the rest of the file.
        dead = (len(blob) // 2 // 4096 * 4096, len(blob) // 2 // 4096 * 4096
                + 8192)
        with FaultHTTPServer(blob, fail_ranges=[dead]) as server:
            source = open_remote(server.url, block_size=4096, retries=1,
                                 breaker_threshold=10_000, **FAST)
            with ParallelGzipReader(source, parallelization=2,
                                    tolerate_corruption=True) as reader:
                output = reader.read()
                report = reader.damage_report
            assert len(output) == len(DATA)
            assert output != DATA  # the dead chunk is placeholder-filled
            network_regions = [
                region for region in report.regions
                if region.kind == "network"
            ]
            assert network_regions
            # Bytes outside the damaged chunks are byte-identical.
            placeholder = report.placeholder
            matching = sum(
                1 for a, b in zip(output, DATA) if a == b
            )
            assert matching > len(DATA) // 2

    def test_explain_attributes_network_io(self):
        with FaultHTTPServer(BLOB, latency=0.01) as server:
            source = open_remote(server.url, block_size=32 * 1024, **FAST)
            with ParallelGzipReader(source, parallelization=2,
                                    chunk_size=CHUNK, trace=True) as reader:
                assert reader.read() == DATA
                report = reader.explain()
            stages = report["totals"]["stages"]
            assert stages.get("network-io", 0.0) > 0.0, (
                f"--explain saw no network-io despite {0.01}s/request "
                f"injected latency: {stages}"
            )


class TestCLI:
    def test_cli_decodes_url(self, tmp_path, capsys):
        from repro.cli import main

        with FaultHTTPServer(BLOB, seed=CHAOS_SEED, error_rate=0.05) as server:
            out = tmp_path / "out.bin"
            code = main([server.url, "-o", str(out), "--net-retries", "6",
                         "--net-block-size", "64", "-P", "2"])
            assert code == 0
            assert out.read_bytes() == DATA

    def test_cli_hard_down_exits_9_with_summary(self, tmp_path, capsys):
        from repro.cli import main

        with FaultHTTPServer(BLOB, hard_down=True) as server:
            out = tmp_path / "out.bin"
            code = main([server.url, "-o", str(out), "--net-retries", "1",
                         "--net-timeout", "2", "-P", "2"])
            assert code == EXIT_NETWORK
            stderr = capsys.readouterr().err
            assert "network" in stderr
            assert "attempt" in stderr
            assert server.url in stderr

    def test_cli_count_over_url(self, capsys):
        from repro.cli import main

        with FaultHTTPServer(BLOB) as server:
            code = main([server.url, "--count"])
            assert code == 0
            assert capsys.readouterr().out.strip() == str(len(DATA))

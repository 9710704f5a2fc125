"""Tests for the process worker backend: pool, task specs, telemetry merge."""

import gzip as stdlib_gzip
import io
import os
import pickle
import random
import time

import numpy as np
import pytest

from repro.deflate import libz
from repro.deflate.constants import MARKER_FLAG
from repro.deflate.markers import ChunkPayload
from repro.errors import UsageError, WorkerCrashedError
from repro.fetcher import (
    ChunkResult,
    ChunkTaskSpec,
    StreamEvent,
    execute_chunk_task,
)
from repro.fetcher.tasks import make_reader_recipe, resolve_reader_recipe
from repro.gz.bgzf import compress_bgzf
from repro.gz.parallel_writer import compress_parallel
from repro.index import GzipIndex
from repro.io import MemoryFileReader
from repro.pool import (
    PRIORITY_ON_DEMAND,
    PRIORITY_PREFETCH,
    ProcessPool,
    available_cores,
    create_pool,
    resolve_backend,
)
from repro.reader import ParallelGzipReader
from repro.telemetry import MetricsRegistry, Telemetry, TraceRecorder


def _double(x):
    return x * 2


def ascii_data(size, seed=0):
    rng = random.Random(seed)
    return bytes(rng.randrange(33, 127) for _ in range(size))


def _boom():
    raise ValueError("intentional")


def _die(code):
    os._exit(code)


def _sleep_then_clock(duration):
    time.sleep(duration)
    return time.perf_counter()


def _clock():
    return time.perf_counter()


class TestProcessPool:
    def test_submit_and_result(self):
        with ProcessPool(2) as pool:
            assert pool.submit(_double, 21).result(timeout=30) == 42

    def test_exception_propagates(self):
        with ProcessPool(1) as pool:
            with pytest.raises(ValueError, match="intentional"):
                pool.submit(_boom).result(timeout=30)

    def test_priorities_order_queued_work(self):
        with ProcessPool(1) as pool:
            pool.submit(_sleep_then_clock, 0.3)  # occupy the single worker
            prefetch = pool.submit(_clock, priority=PRIORITY_PREFETCH)
            demand = pool.submit(_clock, priority=PRIORITY_ON_DEMAND)
            # perf_counter is machine-wide on Linux: the on-demand task must
            # have executed before the earlier-submitted prefetch task.
            assert demand.result(timeout=30) < prefetch.result(timeout=30)

    def test_worker_crash_surfaces_error_and_pool_survives(self):
        with ProcessPool(2) as pool:
            doomed = pool.submit(_die, 3)
            with pytest.raises(WorkerCrashedError):
                doomed.result(timeout=30)
            # The surviving worker keeps serving tasks.
            assert pool.submit(_double, 5).result(timeout=30) == 10

    def test_unpicklable_task_fails_cleanly(self):
        with ProcessPool(1) as pool:
            future = pool.submit(lambda: 1)  # lambdas cannot pickle
            with pytest.raises(UsageError, match="picklable"):
                future.result(timeout=30)
            assert pool.submit(_double, 1).result(timeout=30) == 2

    def test_shutdown_drains_queue(self):
        pool = ProcessPool(2)
        futures = [pool.submit(_double, i) for i in range(10)]
        pool.shutdown(wait=True)
        assert [f.result(timeout=5) for f in futures] == [2 * i for i in range(10)]

    def test_submit_after_shutdown_raises(self):
        pool = ProcessPool(1)
        pool.shutdown()
        with pytest.raises(UsageError):
            pool.submit(_double, 1)

    def test_statistics_shape_matches_thread_pool(self):
        from repro.pool import ThreadPool

        process_pool = ProcessPool(1)
        process_pool.submit(_double, 1).result(timeout=30)
        process_pool.shutdown()
        thread_pool = ThreadPool(1)
        thread_pool.submit(_double, 1).result(timeout=30)
        thread_pool.shutdown()
        process_keys = set(process_pool.statistics())
        thread_keys = set(thread_pool.statistics())
        assert thread_keys <= process_keys
        assert process_pool.statistics()["tasks_completed"] == 1
        assert process_pool.pending == 0

    def test_size_validation(self):
        with pytest.raises(UsageError):
            ProcessPool(0)


class TestBackendResolution:
    def test_explicit_choices_pass_through(self):
        assert resolve_backend("threads", mode="search", parallelization=8) == "threads"
        assert resolve_backend("processes", mode="bgzf", parallelization=1) == "processes"

    def test_unknown_backend_rejected(self):
        with pytest.raises(UsageError):
            resolve_backend("fibers", mode="search", parallelization=2)

    def test_auto_uses_threads_for_zlib_delegation_modes(self):
        assert resolve_backend("auto", mode="index", parallelization=8) == "threads"
        assert resolve_backend("auto", mode="bgzf", parallelization=8) == "threads"

    def test_auto_uses_threads_for_serial_decode(self):
        assert resolve_backend("auto", mode="search", parallelization=1) == "threads"

    def test_auto_search_mode_depends_on_cores(self, monkeypatch):
        # Keyed on the decoder: a C-backed one leaves the GIL, so threads.
        if libz.load() is not None:
            assert resolve_backend("auto", mode="search", parallelization=4) == "threads"
        # The fused Python kernel is GIL-bound: processes, given a second core.
        monkeypatch.setattr(libz, "load", lambda: None)
        expected = "processes" if available_cores() >= 2 else "threads"
        assert resolve_backend("auto", mode="search", parallelization=4) == expected
        monkeypatch.setattr("repro.pool.backend.available_cores", lambda: 1)
        assert resolve_backend("auto", mode="search", parallelization=4) == "threads"
        monkeypatch.setattr("repro.pool.backend.available_cores", lambda: 2)
        assert resolve_backend("auto", mode="search", parallelization=4) == "processes"

    @pytest.mark.parametrize("leg", ["libz", "python"])
    def test_reader_auto_backend_follows_the_decoder(self, monkeypatch, leg):
        if leg == "python":
            monkeypatch.setattr(libz, "load", lambda: None)
        elif libz.load() is None:
            pytest.skip("libz cannot be loaded on this host")
        monkeypatch.setattr("repro.pool.backend.available_cores", lambda: 2)
        data = ascii_data(120_000, seed=4)

        def resolved(blob, **options):
            with ParallelGzipReader(blob, parallelization=2, **options) as reader:
                assert reader.read() == data
                stats = reader.statistics()
            return stats["mode"], stats["backend"]

        blob = stdlib_gzip.compress(data)
        search = "threads" if leg == "libz" else "processes"
        assert resolved(blob, chunk_size=16 * 1024) == ("search", search)
        # Everything that delegates to zlib stays on threads on both legs.
        with ParallelGzipReader(blob, chunk_size=16 * 1024) as reader:
            sink = io.BytesIO()
            reader.export_index(sink)
        index = GzipIndex.load(sink.getvalue())
        assert resolved(blob, index=index) == ("index", "threads")
        assert resolved(compress_bgzf(data)) == ("bgzf", "threads")
        catalogued = compress_parallel(data, layout="parallel-friendly",
                                       chunk_size=16 * 1024)
        assert resolved(catalogued)[1] == "threads"

    def test_create_pool_rejects_unresolved_auto(self):
        with pytest.raises(UsageError):
            create_pool("auto", 2)


class TestPicklability:
    def test_chunk_payload_round_trip_with_markers(self):
        payload = ChunkPayload()
        payload.append_bytes(b"resolved prefix")
        payload.append_symbol_bytes(
            np.array(
                [MARKER_FLAG + 5, 65, MARKER_FLAG + 32767, 66], dtype="<u2"
            ).tobytes()
        )
        clone = pickle.loads(pickle.dumps(payload))
        assert clone.length == payload.length
        assert clone.has_markers
        assert isinstance(clone.segments[1], np.ndarray)
        assert clone.segments[1].dtype == np.uint16
        window = bytes(range(256)) * 128
        assert clone.materialize(window) == payload.materialize(window)

    def test_stream_event_round_trip(self):
        event = StreamEvent(kind="footer", local_offset=123, crc32=0xDEADBEEF,
                            isize=456)
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event

    def test_chunk_result_round_trip(self):
        payload = ChunkPayload()
        payload.append_symbol_bytes(
            np.array([MARKER_FLAG, 70, 71], dtype="<u2").tobytes()
        )
        result = ChunkResult(
            start_bit=800,
            end_bit=1600,
            end_is_stream_start=False,
            payload=payload,
            events=[StreamEvent(kind="footer", local_offset=3)],
            window_known=False,
            speculative=True,
            compressed_size_bits=800,
        )
        clone = pickle.loads(pickle.dumps(result))
        assert clone.start_bit == result.start_bit
        assert clone.end_bit == result.end_bit
        assert clone.speculative
        assert clone.events[0].kind == "footer"
        assert clone.payload.materialize(b"\x00" * 32768) == (
            result.payload.materialize(b"\x00" * 32768)
        )

    def test_chunk_task_spec_round_trip(self):
        spec = ChunkTaskSpec(
            recipe=("bytes", b"blob"), mode="search", chunk_id=7,
            chunk_size=4096, window=b"w" * 100,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestTaskSpecs:
    def test_bytes_recipe_round_trip(self):
        reader = MemoryFileReader(b"hello world")
        recipe, token = make_reader_recipe(reader, fork=False)
        assert recipe[0] == "bytes"
        assert token is None
        rebuilt = resolve_reader_recipe(recipe)
        assert rebuilt.pread(0, 5) == b"hello"

    def test_inherited_recipe_round_trip(self):
        reader = MemoryFileReader(b"forked data")
        recipe, token = make_reader_recipe(reader, fork=True)
        assert recipe[0] == "inherited"
        assert token is not None
        # Same-process resolution models what forked children inherit.
        rebuilt = resolve_reader_recipe(recipe)
        assert rebuilt.pread(0, 6) == b"forked"
        from repro.fetcher.tasks import release_inherited_source

        release_inherited_source(token)
        with pytest.raises(UsageError):
            resolve_reader_recipe(recipe)

    def test_path_recipe_round_trip(self, tmp_path):
        from repro.io import StandardFileReader

        path = tmp_path / "x.bin"
        path.write_bytes(b"on disk")
        recipe, token = make_reader_recipe(StandardFileReader(path), fork=True)
        assert recipe[0] == "path"
        assert token is None
        assert resolve_reader_recipe(recipe).pread(0, 7) == b"on disk"

    def test_execute_search_task_in_process(self):
        data = ascii_data(400_000)
        blob = stdlib_gzip.compress(data, 6)
        spec = ChunkTaskSpec(
            recipe=("bytes", blob), mode="search", chunk_id=1,
            chunk_size=16 * 1024,
        )
        outcome = execute_chunk_task(spec)
        assert outcome.result is not None
        assert outcome.result.speculative
        assert outcome.metrics["counters"]  # block finder counted work
        assert outcome.trace_events == []  # tracing was off

    def test_execute_task_with_trace_names_worker_track(self):
        data = ascii_data(60_000, seed=2)
        blob = stdlib_gzip.compress(data, 6)
        spec = ChunkTaskSpec(
            recipe=("bytes", blob), mode="search", chunk_id=0,
            chunk_size=16 * 1024, trace=True, trace_origin=0.0,
        )
        outcome = execute_chunk_task(spec)
        names = {e["name"] for e in outcome.trace_events}
        assert "chunk.decode" in names

    def test_unknown_mode_rejected(self):
        spec = ChunkTaskSpec(recipe=("bytes", b""), mode="warp", chunk_id=0)
        with pytest.raises(UsageError):
            execute_chunk_task(spec)


class TestTelemetryMerge:
    def test_metrics_export_merge(self):
        child = MetricsRegistry()
        child.counter("x.count").increment(3)
        child.gauge("x.level").set(7.5)
        child.histogram("x.seconds").observe(0.5)
        child.histogram("x.seconds").observe(1.5)

        parent = MetricsRegistry()
        parent.counter("x.count").increment(1)
        parent.histogram("x.seconds").observe(2.0)
        parent.merge_state(child.export_state())

        assert parent.counter("x.count").value == 4
        assert parent.gauge("x.level").value == 7.5
        histogram = parent.histogram("x.seconds")
        assert histogram.count == 3
        assert histogram.total == 4.0
        assert histogram.minimum == 0.5
        assert histogram.maximum == 2.0

    def test_recorder_ingest_and_shared_origin(self):
        parent = TraceRecorder()
        child = TraceRecorder(origin=parent.origin)
        assert child.origin == parent.origin
        with child.span("remote.work", item=1):
            pass
        before = parent.num_events
        parent.ingest(child.events())
        assert parent.num_events > before
        names = {e["name"] for e in parent.events()}
        assert "remote.work" in names

    def test_telemetry_cross_process_end_to_end(self):
        data = ascii_data(200_000, seed=3)
        blob = stdlib_gzip.compress(data, 6)
        from repro.reader import ParallelGzipReader

        with ParallelGzipReader(
            blob, parallelization=2, chunk_size=32 * 1024,
            backend="processes", trace=True,
        ) as reader:
            assert reader.read() == data
            metrics = reader.statistics()["metrics"]
            assert any(name.startswith("blockfinder.") for name in metrics)
            events = reader.telemetry.recorder.events()
            decode_spans = [e for e in events if e.get("name") == "chunk.decode"]
            assert decode_spans
            worker_tracks = {
                e["args"]["name"]
                for e in events
                if e.get("ph") == "M" and e.get("name") == "thread_name"
            }
            assert any(n.startswith("repro-worker") for n in worker_tracks)

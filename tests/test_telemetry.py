"""Tests for the telemetry subsystem: metrics registry, trace recorder,
profile report, and the statistics surface across all three fetcher modes."""

import gzip as stdlib_gzip
import io
import json
import threading

import pytest

from repro.datagen import generate_base64
from repro.errors import UsageError
from repro.fetcher import speculative_decode
from repro.gz.writer import compress as gz_compress
from repro.io import ensure_file_reader
from repro.reader import ParallelGzipReader
from repro.telemetry import (
    NULL_RECORDER,
    MetricsRegistry,
    NullRecorder,
    Telemetry,
    TraceRecorder,
    format_profile,
)

DATA = generate_base64(200_000, seed=13)
BLOB = stdlib_gzip.compress(DATA, 6)


class TestMetricsRegistry:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        assert registry.counter("x") is counter  # same instrument

    def test_gauge(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(2.5)
        assert registry.gauge("g").value == 2.5

    def test_histogram_summary_and_percentiles(self):
        histogram = MetricsRegistry().histogram("h")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.count == 100
        assert histogram.minimum == 1.0
        assert histogram.maximum == 100.0
        assert histogram.percentile(0.5) == pytest.approx(50.5)
        assert histogram.percentile(0.0) == 1.0
        assert histogram.percentile(1.0) == 100.0
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["p90"] == pytest.approx(90.1)

    def test_histogram_empty(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.percentile(0.5) is None
        summary = histogram.summary()
        assert summary["count"] == 0
        assert summary["min"] is None

    def test_histogram_time_window(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(1.0)
        # A zero-width trailing window excludes everything already recorded.
        assert histogram.percentile(0.5, window_seconds=0.0) is None
        assert histogram.percentile(0.5, window_seconds=60.0) == 1.0

    def test_histogram_invalid_fraction(self):
        with pytest.raises(UsageError):
            MetricsRegistry().histogram("h").percentile(1.5)

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("dual")
        with pytest.raises(UsageError):
            registry.gauge("dual")

    def test_probe_evaluated_at_snapshot(self):
        registry = MetricsRegistry()
        state = {"v": 1}
        registry.probe("probe.v", lambda: state["v"])
        assert registry.as_dict()["probe.v"] == 1
        state["v"] = 7
        assert registry.as_dict()["probe.v"] == 7

    def test_frozen_probe_keeps_its_reading_not_its_object(self):
        import weakref

        class Owner:
            def read(self):
                return 3

        owner = Owner()
        registry = MetricsRegistry()
        registry.probe("owner.value", owner.read)  # holds the owner
        registry.freeze_probes()
        alive = weakref.ref(owner)
        del owner
        assert alive() is None
        assert registry.as_dict()["owner.value"] == 3

    def test_as_dict_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.counter("c").increment()
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.25)
        json.dumps(registry.as_dict())

    def test_thread_safety_smoke(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        histogram = registry.histogram("h")

        def worker():
            for i in range(500):
                counter.increment()
                histogram.observe(float(i))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 2000
        assert histogram.count == 2000


class TestTraceRecorder:
    def test_span_records_complete_event(self):
        recorder = TraceRecorder()
        with recorder.span("work", chunk_id=3):
            pass
        events = [e for e in recorder.events() if e["ph"] == "X"]
        assert len(events) == 1
        event = events[0]
        assert event["name"] == "work"
        assert event["args"]["chunk_id"] == 3
        assert event["dur"] >= 0
        assert {"ts", "pid", "tid"} <= set(event)

    def test_thread_metadata_deduplicated_per_name(self):
        recorder = TraceRecorder()
        recorder.set_thread_name("custom")  # rename re-emits metadata
        recorder.set_thread_name("custom")  # same name again does not
        metadata = [e for e in recorder.events() if e["ph"] == "M"]
        assert len(metadata) == 2
        assert metadata[-1]["args"]["name"] == "custom"

    def test_instant_and_counter_events(self):
        recorder = TraceRecorder()
        recorder.instant("marker", chunks=2)
        recorder.counter("queue", depth=5)
        phases = {e["ph"] for e in recorder.events()}
        assert {"i", "C"} <= phases

    def test_export_valid_chrome_trace_json(self, tmp_path):
        recorder = TraceRecorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        path = tmp_path / "trace.json"
        recorder.export(str(path))
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        assert document["displayTimeUnit"] == "ms"
        sink = io.StringIO()
        recorder.export(sink)
        assert json.loads(sink.getvalue()) == document

    def test_spans_record_from_worker_threads(self):
        recorder = TraceRecorder()

        def work():
            recorder.set_thread_name("helper")
            with recorder.span("threaded"):
                pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        names = {e["args"]["name"] for e in recorder.events() if e["ph"] == "M"}
        assert "helper" in names


class TestNullRecorder:
    def test_records_no_events(self):
        recorder = NullRecorder()
        with recorder.span("ignored", attr=1):
            recorder.instant("ignored")
            recorder.counter("ignored", n=1)
        recorder.complete("ignored", 0.0, 1.0)
        recorder.set_thread_name("ignored")
        assert recorder.num_events == 0
        assert recorder.events() == []
        assert not recorder.enabled

    def test_export_refused(self):
        with pytest.raises(UsageError):
            NULL_RECORDER.export(io.StringIO())

    def test_disabled_reader_records_nothing(self):
        with ParallelGzipReader(BLOB, parallelization=2,
                                chunk_size=32 * 1024) as reader:
            reader.read()
            assert reader.telemetry.recorder.num_events == 0
            assert not reader.telemetry.tracing


EXPECTED_KEYS = {
    "mode", "prefetch_cache", "access_cache", "speculative_submitted",
    "speculative_unusable", "on_demand_decodes", "pool", "chunks_decoded",
    "known_size", "read_calls", "metrics",
}
POOL_KEYS = {
    "workers", "tasks_submitted", "tasks_completed", "tasks_cancelled",
    "queued", "worker_busy_seconds", "elapsed_seconds", "utilization",
}


def assert_statistics_shape(stats, mode):
    assert EXPECTED_KEYS <= set(stats)
    assert stats["mode"] == mode
    assert POOL_KEYS <= set(stats["pool"])
    for cache_key in ("prefetch_cache", "access_cache"):
        cache = stats[cache_key]
        assert isinstance(cache, dict)  # plain dict, not a live object
        assert {"hits", "misses", "insertions", "evictions",
                "hit_rate"} <= set(cache)
    pool = stats["pool"]
    assert pool["tasks_completed"] + pool["tasks_cancelled"] <= \
        pool["tasks_submitted"]
    assert pool["queued"] >= 0
    assert 0.0 <= pool["utilization"] <= 1.0
    json.dumps(stats)  # the whole snapshot must be serializable


class TestStatisticsSurface:
    def test_search_mode(self):
        with ParallelGzipReader(BLOB, parallelization=2,
                                chunk_size=16 * 1024) as reader:
            assert reader.read() == DATA
            stats = reader.statistics()
        assert_statistics_shape(stats, "search")
        assert stats["known_size"] == len(DATA)
        assert stats["chunks_decoded"] >= 1
        assert stats["read_calls"] >= 1
        assert stats["pool"]["tasks_completed"] > 0
        assert stats["metrics"]["fetcher.speculative_submitted"] == \
            stats["speculative_submitted"]
        # How many queued tasks still searched depends on timing (a worker
        # decodes exactly where the chain already names the chunk start);
        # the surface reports whatever count that was.
        assert stats["metrics"]["blockfinder.candidates_tested"] == \
            stats["encoding"]["blockfinder_searches"] >= 0
        assert stats["metrics"]["pool.task_seconds"]["count"] == \
            stats["pool"]["tasks_completed"]
        # The finder's counts reach the registry a search-mode task records
        # into: one speculated cell, deterministically.
        telemetry = Telemetry()
        speculative_decode(ensure_file_reader(BLOB), 1, 16 * 1024,
                           telemetry=telemetry)
        assert telemetry.metrics.counter(
            "blockfinder.candidates_tested"
        ).value > 0

    def test_index_mode(self):
        with ParallelGzipReader(BLOB, chunk_size=16 * 1024) as reader:
            sink = io.BytesIO()
            reader.export_index(sink)
        from repro.index import load_index

        index = load_index(sink.getvalue())
        with ParallelGzipReader(BLOB, parallelization=2,
                                index=index) as reader:
            assert reader.read() == DATA
            stats = reader.statistics()
        assert_statistics_shape(stats, "index")
        assert stats["known_size"] == len(DATA)

    def test_bgzf_mode(self):
        blob = gz_compress(DATA, "bgzf")
        with ParallelGzipReader(blob, parallelization=2,
                                chunk_size=16 * 1024) as reader:
            assert reader.read() == DATA
            stats = reader.statistics()
        # The BSIZE chain is a catalog: BGZF opens through its index.
        assert_statistics_shape(stats, "index")
        assert stats["encoding"]["source"] == "bgzf"
        assert stats["known_size"] == len(DATA)


class TestTracedPipeline:
    def test_trace_has_span_per_chunk_and_worker_metadata(self, tmp_path):
        with ParallelGzipReader(BLOB, parallelization=3,
                                chunk_size=16 * 1024, trace=True) as reader:
            assert reader.read() == DATA
            chunks = reader.statistics()["chunks_decoded"]
            path = tmp_path / "pipeline.trace.json"
            reader.save_trace(str(path))
        document = json.loads(path.read_text())
        events = document["traceEvents"]
        decode_spans = [e for e in events
                        if e["ph"] == "X" and e["name"] == "chunk.decode"]
        assert len(decode_spans) >= chunks
        chunk_ids = {e["args"]["chunk_id"] for e in decode_spans}
        assert len(chunk_ids) >= chunks
        thread_names = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert {"repro-worker-0", "repro-worker-1",
                "repro-worker-2"} <= thread_names

    def test_save_trace_requires_tracing(self):
        with ParallelGzipReader(BLOB, parallelization=1,
                                chunk_size=32 * 1024) as reader:
            with pytest.raises(UsageError):
                reader.save_trace(io.StringIO())

    def test_shared_telemetry_across_readers(self):
        telemetry = Telemetry(trace=True)
        for _ in range(2):
            with ParallelGzipReader(BLOB, parallelization=1,
                                    chunk_size=64 * 1024,
                                    telemetry=telemetry) as reader:
                reader.read()
        assert telemetry.recorder.num_events > 0
        assert telemetry.metrics.counter("reader.read_calls").value >= 2


class TestProfileReport:
    def test_format_profile_lines(self):
        with ParallelGzipReader(BLOB, parallelization=2,
                                chunk_size=16 * 1024) as reader:
            reader.read()
            stats = reader.statistics()
        lines = format_profile(stats, wall_time=0.5)
        assert lines
        assert all(line.startswith("[Info]") for line in lines)
        text = "\n".join(lines)
        assert "Worker utilization" in text
        assert "Chunks decoded" in text
        # A line for the finder exactly when it ran — which, in a search
        # read, is up to how many tasks a worker started with a known start.
        searched = stats["metrics"]["blockfinder.candidates_tested"] > 0
        assert ("Block finder" in text) == searched
        stats["metrics"]["blockfinder.candidates_tested"] = 7
        stats["metrics"]["blockfinder.candidates_accepted"] = 2
        text = "\n".join(format_profile(stats, wall_time=0.5))
        assert "7 candidates tested, 2 accepted" in text

    def test_format_profile_tolerates_empty_stats(self):
        assert format_profile({}) == []


class TestCliObservability:
    @pytest.fixture
    def gz_file(self, tmp_path):
        path = tmp_path / "data.gz"
        path.write_bytes(BLOB)
        return path

    def test_trace_flag_writes_valid_json(self, gz_file, tmp_path,
                                          capsysbinary):
        from repro.cli import main

        trace_path = tmp_path / "cli.trace.json"
        assert main(["-c", "-P", "2", "--chunk-size", "16",
                     "--trace", str(trace_path), str(gz_file)]) == 0
        assert capsysbinary.readouterr().out == DATA
        document = json.loads(trace_path.read_text())
        assert any(e["name"] == "chunk.decode"
                   for e in document["traceEvents"])

    def test_profile_flag_prints_info_report(self, gz_file, capsys):
        from repro.cli import main

        assert main(["--count", str(gz_file), "--profile"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == str(len(DATA))
        assert "[Info]" in captured.err

    def test_stats_flag_prints_json(self, gz_file, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "data"
        assert main(["-o", str(out), "--stats", str(gz_file)]) == 0
        stderr = capsys.readouterr().err
        payload = json.loads(stderr)
        assert payload["known_size"] == len(DATA)
        assert "metrics" in payload

    def test_compress_profile_still_selects_compression_profile(
            self, tmp_path):
        from repro.cli import main

        src = tmp_path / "plain.txt"
        src.write_bytes(DATA[:30_000])
        assert main(["--compress", "--profile", "pigz", str(src)]) == 0
        assert stdlib_gzip.decompress(
            (tmp_path / "plain.txt.gz").read_bytes()) == DATA[:30_000]

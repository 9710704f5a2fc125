"""Tests for the chunk lifecycles on the trace and the read-latency
attribution (--explain) toolkit."""

import gzip as stdlib_gzip
import json

import pytest

from repro.datagen import generate_base64
from repro.errors import UsageError
from repro.reader import ParallelGzipReader
from repro.telemetry import (
    EXPLAIN_SCHEMA,
    READ_STAGES,
    TERMINAL_RECORDS,
    attribute_reads,
    chunk_lifecycles,
    format_explain,
    lifecycle_digest,
    load_trace_events,
)

DATA = generate_base64(400_000, seed=21)
BLOB = stdlib_gzip.compress(DATA, 6)


def _instant(name, ts, **args):
    return {"ph": "i", "s": "t", "name": name, "ts": float(ts), "pid": 1,
            "tid": 1, "args": args}


def _span(name, ts, dur, tid=1, pid=1, **args):
    return {"ph": "X", "name": name, "ts": float(ts), "dur": float(dur),
            "pid": pid, "tid": tid, "args": args}


def _unfinished(lifecycles) -> dict:
    """Chunks whose last ``chunk.queued`` reached no terminal record."""
    unfinished = {}
    for chunk, history in lifecycles.items():
        names = [event["name"] for event in history]
        if "chunk.queued" not in names:
            continue
        last_queued = len(names) - 1 - names[::-1].index("chunk.queued")
        if not TERMINAL_RECORDS & set(names[last_queued:]):
            unfinished[chunk] = names
    return unfinished


class TestLifecycles:
    def test_chunk_lifecycles_joins_bit_records(self):
        trace_events = [
            _instant("chunk.queued", 0, chunk_id=4),
            _span("chunk.decode", 1, 5, tid=2, chunk_id=4, start_bit=None),
            _instant("chunk.cached", 8, chunk_id=4, start_bit=352,
                     window_known=False),
            _span("reader.serve", 9, 1, start_bit=352, nbytes=100),
            _span("reader.serve", 11, 1, nbytes=100),  # the join: no bit
            _span("spill.write", 12, 1, start_bit=999, nbytes=10),
        ]
        lifecycles = chunk_lifecycles(trace_events)
        assert set(lifecycles) == {4, "bit:999"}
        assert [event["name"] for event in lifecycles[4]] == [
            "chunk.queued", "chunk.decode", "chunk.cached", "reader.serve",
        ]

    def test_digest_counts_pressure_and_unfinished_chunks(self):
        trace_events = [
            _instant("chunk.queued", 0, chunk_id=1),
            _instant("chunk.speculative_shed", 1, chunk_id=1),
            _instant("chunk.queued", 2, chunk_id=1),  # resubmitted, pending
            _instant("chunk.queued", 3, chunk_id=2),
            _instant("chunk.cached", 4, chunk_id=2, start_bit=80,
                     window_known=True),
        ]
        digest = lifecycle_digest(trace_events, evicted=3)
        assert digest["chunks"] == 2
        assert digest["incomplete_chunks"] == [1]
        assert digest["record_counts"]["chunk.queued"] == 3
        assert digest["pressure"] == {"evicted": 3, "shed": 1}
        lines = format_explain({
            "totals": {"reads": 1, "read_wall_seconds": 0.0},
            "lifecycle": digest,
        })
        assert "[Explain] lifecycle pressure: 3 evicted, 1 shed" in lines
        assert any("never reached a terminal" in line for line in lines)


def read_all_with_telemetry(backend, **kwargs):
    with ParallelGzipReader(BLOB, parallelization=3, chunk_size=32 * 1024,
                            trace=True, **kwargs) as reader:
        output = bytearray()
        while True:
            piece = reader.read(128 * 1024)
            if not piece:
                break
            output.extend(piece)
        assert bytes(output) == DATA
        assert reader.statistics()["backend"] == backend
    # Read after close(), as the CLI does: what was still queued or in
    # flight has been shed or harvested by then, so the trace is complete.
    trace_events = reader.telemetry.recorder.events()
    report = reader.explain()
    return trace_events, report


class TestLifecycleCompleteness:
    @pytest.mark.parametrize("backend", ["threads"])
    def test_every_chunk_reaches_terminal_state(self, backend):
        trace_events, _ = read_all_with_telemetry(backend)
        lifecycles = chunk_lifecycles(trace_events)
        assert len(lifecycles) > 1  # multi-chunk by construction
        assert any(
            event["name"] == "chunk.queued"
            for history in lifecycles.values() for event in history
        )
        assert not _unfinished(lifecycles)
        # The served data is on the same timeline, joined to its chunk.
        names = {
            event["name"]
            for chunk, history in lifecycles.items() if isinstance(chunk, int)
            for event in history
        }
        assert {"chunk.queued", "chunk.decode", "chunk.cached",
                "reader.serve"} <= names

    @pytest.mark.parametrize("backend", ["threads"])
    def test_close_terminates_what_was_queued(self, backend):
        # One small read leaves speculative decodes queued and in flight;
        # close() cancels or harvests them, so none ends as "queued".
        reader = ParallelGzipReader(BLOB, parallelization=2,
                                    chunk_size=16 * 1024, trace=True)
        assert reader.read(1000) == DATA[:1000]
        assert reader.statistics()["backend"] == backend
        reader.close()
        lifecycles = chunk_lifecycles(reader.telemetry.recorder.events())
        queued = [
            chunk for chunk, history in lifecycles.items()
            if any(event["name"] == "chunk.queued" for event in history)
        ]
        assert queued
        assert not _unfinished(lifecycles)


class TestAttribution:
    def test_attribution_identity_on_hand_built_spans(self):
        # One 1000 us read on (pid 1, tid 1). It waits 600 us on chunk 3,
        # which a worker (pid 2) was block-finding then decoding for the
        # first 490 us of the wait; materializes for 200 us; serves for
        # 80 us. 100 us of the chain-advance envelope and 20 us of the
        # read itself have no instrumented child.
        trace_events = [
            _span("reader.read", 0, 1000, returned=4096),
            _span("reader.decode_next_chunk", 0, 900),
            _span("chunk.wait_inflight", 10, 600, chunk_id=3),
            _span("chunk.materialize", 620, 200, chunk_id=3),
            _span("reader.serve", 900, 80),
            _span("chunk.decode", 0, 500, tid=7, pid=2, chunk_id=3),
            _span("chunk.block_find", 0, 200, tid=7, pid=2, chunk_id=3),
        ]
        totals = attribute_reads(trace_events)["totals"]
        expected_us = {
            "block-find": 190, "decode": 300, "queue-wait": 110,
            "window-propagation": 200, "bookkeeping": 100,
            "serve-copy": 80, "other": 20,
        }
        for stage in READ_STAGES:
            assert totals["stages"][stage] == \
                pytest.approx(expected_us.get(stage, 0) / 1e6), stage
        # Acceptance: >=95% of read wall time lands in named stages.
        assert totals["attributed_fraction"] == pytest.approx(0.98)
        assert totals["attributed_fraction"] >= 0.95
        assert totals["bottleneck"] == "decode"

    @pytest.mark.parametrize("backend", ["threads"])
    def test_attributes_most_wall_time(self, backend):
        # Live run: structural identities only. How much lands in named
        # stages depends on scheduler luck on a loaded host; that identity
        # is asserted on the hand-built spans above.
        trace_events, report = read_all_with_telemetry(backend)
        totals = report["totals"]
        assert totals["reads"] >= 2  # multi-read, multi-chunk
        assert totals["bottleneck"] in READ_STAGES
        assert report["advice"]
        # Stage seconds sum to the wall time (within float noise).
        assert set(totals["stages"]) == set(READ_STAGES)
        assert sum(totals["stages"].values()) == \
            pytest.approx(totals["read_wall_seconds"], rel=1e-6)
        # Per-read rows mirror the totals.
        for row in report["reads"]:
            assert set(row["stages"]) == set(READ_STAGES)
            assert row["duration_seconds"] >= 0.0
        # The report is reproducible from the raw artifacts.
        rebuilt = attribute_reads(trace_events)
        assert rebuilt["totals"]["stages"] == totals["stages"]

    def test_event_digest_included(self):
        trace_events, report = read_all_with_telemetry("threads")
        digest = report["lifecycle"]
        assert digest == lifecycle_digest(
            trace_events, evicted=digest["pressure"].get("evicted", 0)
        )
        assert digest["chunks"] > 1
        assert digest["incomplete_chunks"] == []
        assert digest["record_counts"]["chunk.queued"] >= 1
        assert digest["record_counts"]["reader.serve"] >= 1

    def test_explain_requires_tracing(self):
        with ParallelGzipReader(BLOB, parallelization=1,
                                chunk_size=64 * 1024) as reader:
            with pytest.raises(UsageError):
                reader.explain()

    def test_format_explain_lines(self):
        _, report = read_all_with_telemetry("threads")
        lines = format_explain(report)
        assert lines
        assert all(line.startswith("[Explain]") for line in lines)
        text = "\n".join(lines)
        assert "attributed to named stages" in text
        assert "bottleneck" in text
        assert "hint:" in text

    def test_no_reads_reported_gracefully(self):
        report = attribute_reads([])
        assert report["totals"]["reads"] == 0
        lines = format_explain(report)
        assert any("nothing to attribute" in line for line in lines)


class TestCliExplain:
    @pytest.fixture
    def gz_file(self, tmp_path):
        path = tmp_path / "data.gz"
        path.write_bytes(BLOB)
        return path

    def test_trace_flag_holds_lifecycle(self, gz_file, tmp_path):
        from repro.cli import main

        trace_path = tmp_path / "data.trace.json"
        out = tmp_path / "data"
        assert main(["-o", str(out), "-P", "2", "--chunk-size", "64",
                     "--trace", str(trace_path), str(gz_file)]) == 0
        assert out.read_bytes() == DATA
        lifecycles = chunk_lifecycles(load_trace_events(str(trace_path)))
        names = {
            event["name"]
            for history in lifecycles.values() for event in history
        }
        assert {"chunk.queued", "chunk.cached", "reader.serve"} <= names
        assert not _unfinished(lifecycles)

    def test_explain_flag_prints_report(self, gz_file, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "data"
        assert main(["-o", str(out), "--explain", str(gz_file)]) == 0
        stderr = capsys.readouterr().err
        assert "[Explain]" in stderr
        assert "bottleneck" in stderr

    def test_explain_json_flag_writes_report(self, gz_file, tmp_path):
        from repro.cli import main

        report_path = tmp_path / "explain.json"
        out = tmp_path / "data"
        assert main(["-o", str(out), "--explain-json", str(report_path),
                     str(gz_file)]) == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == EXPLAIN_SCHEMA
        assert report["lifecycle"]["incomplete_chunks"] == []
        assert report["totals"]["attributed_fraction"] > 0.5
        assert report["totals"]["bottleneck"] in READ_STAGES

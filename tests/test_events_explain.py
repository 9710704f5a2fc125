"""Tests for the structured event log and the read-latency attribution
(--explain) toolkit."""

import gzip as stdlib_gzip
import io
import json

import pytest

from repro.datagen import generate_base64
from repro.errors import UsageError
from repro.reader import ParallelGzipReader
from repro.telemetry import (
    EVENT_SCHEMA,
    EventLog,
    NULL_EVENT_LOG,
    READ_STAGES,
    TERMINAL_STATES,
    attribute_reads,
    chunk_lifecycles,
    format_explain,
    load_events,
)

DATA = generate_base64(400_000, seed=21)
BLOB = stdlib_gzip.compress(DATA, 6)


class TestEventLog:
    def test_emit_and_records(self):
        log = EventLog(origin=0.0)
        log.emit("queued", chunk=1, kind="speculative")
        log.emit("cached", chunk=1, bit=80, nbytes=4096)
        records = log.records()
        assert len(records) == 2
        for record in records:
            assert record["schema"] == EVENT_SCHEMA
            assert record["ts"] >= 0.0
            assert "pid" in record
        assert records[0]["state"] == "queued"
        assert records[1]["bit"] == 80

    def test_schema_round_trip(self, tmp_path):
        log = EventLog(origin=0.0)
        log.emit("queued", chunk=0)
        log.emit("decode", chunk=0, mode="search")
        log.emit("cached", chunk=0, bit=0, nbytes=10)
        path = tmp_path / "events.jsonl"
        log.save(str(path))
        loaded = load_events(str(path))
        assert loaded == log.records()
        # JSONL: one self-contained JSON object per line.
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["schema"] == EVENT_SCHEMA
                   for line in lines)

    def test_capacity_drops_counted(self):
        log = EventLog(origin=0.0, capacity=2)
        for index in range(5):
            log.emit("queued", chunk=index)
        assert len(log.records()) == 2
        assert log.dropped == 3

    def test_null_log_is_inert(self):
        NULL_EVENT_LOG.emit("queued", chunk=0)
        assert NULL_EVENT_LOG.records() == []
        assert not NULL_EVENT_LOG.enabled

    def test_chunk_lifecycles_joins_bit_records(self):
        log = EventLog(origin=0.0)
        log.emit("queued", chunk=4)
        log.emit("cached", chunk=4, bit=352, nbytes=100)
        log.emit("served", bit=352, nbytes=100)  # bit-only record
        lifecycles = chunk_lifecycles(log.records())
        assert set(lifecycles) == {4}
        assert [r["state"] for r in lifecycles[4]] == \
            ["queued", "cached", "served"]


def read_all_with_telemetry(backend, **kwargs):
    with ParallelGzipReader(BLOB, parallelization=3, chunk_size=32 * 1024,
                            trace=True, events=True, **kwargs) as reader:
        output = bytearray()
        while True:
            piece = reader.read(128 * 1024)
            if not piece:
                break
            output.extend(piece)
        assert bytes(output) == DATA
        assert reader.statistics()["backend"] == backend
    # Read after close(), as the CLI does: what was still queued or in
    # flight has been shed or harvested by then, so the log is complete.
    trace_events = reader.telemetry.recorder.events()
    event_records = reader.telemetry.events.records()
    report = reader.explain()
    return trace_events, event_records, report


class TestLifecycleCompleteness:
    @pytest.mark.parametrize("backend", ["threads"])
    def test_every_chunk_reaches_terminal_state(self, backend):
        _, records, _ = read_all_with_telemetry(backend)
        lifecycles = chunk_lifecycles(records)
        assert lifecycles  # multi-chunk by construction
        incomplete = {
            chunk: [record["state"] for record in history]
            for chunk, history in lifecycles.items()
            if not any(record["state"] in TERMINAL_STATES
                       for record in history)
        }
        assert not incomplete
        # The served data must also be visible as lifecycle events.
        states = {record["state"] for record in records}
        assert {"queued", "decode", "cached", "served"} <= states

    @pytest.mark.parametrize("backend", ["threads"])
    def test_close_terminates_what_was_queued(self, backend):
        # One small read leaves speculative decodes queued and in flight;
        # close() cancels or harvests them, so none ends as "queued".
        reader = ParallelGzipReader(BLOB, parallelization=2,
                                    chunk_size=16 * 1024, events=True)
        assert reader.read(1000) == DATA[:1000]
        assert reader.statistics()["backend"] == backend
        reader.close()
        lifecycles = chunk_lifecycles(reader.telemetry.events.records())
        speculative = [
            history for history in lifecycles.values()
            if history[0]["state"] == "queued"
        ]
        assert speculative
        for history in speculative:
            assert history[-1]["state"] in TERMINAL_STATES, history


def _span(name, ts, dur, tid=1, pid=1, **args):
    return {"ph": "X", "name": name, "ts": float(ts), "dur": float(dur),
            "pid": pid, "tid": tid, "args": args}


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
        trace_events, records, report = read_all_with_telemetry(backend)
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
        rebuilt = attribute_reads(trace_events, records)
        assert rebuilt["totals"]["stages"] == totals["stages"]

    def test_event_digest_included(self):
        _, records, report = read_all_with_telemetry("threads")
        digest = report["events"]
        assert digest["chunks"] >= 1
        assert digest["records"] == len(records)
        assert digest["incomplete_chunks"] == []
        assert digest["state_counts"]["served"] >= 1

    def test_explain_requires_tracing(self):
        with ParallelGzipReader(BLOB, parallelization=1,
                                chunk_size=64 * 1024) as reader:
            with pytest.raises(UsageError):
                reader.explain()

    def test_format_explain_lines(self):
        _, _, report = read_all_with_telemetry("threads")
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

    def test_events_flag_writes_jsonl(self, gz_file, tmp_path, capsys):
        from repro.cli import main

        events_path = tmp_path / "events.jsonl"
        out = tmp_path / "data"
        assert main(["-o", str(out), "--events", str(events_path),
                     str(gz_file)]) == 0
        records = load_events(str(events_path))
        assert records
        assert all(record["schema"] == EVENT_SCHEMA for record in records)
        assert out.read_bytes() == DATA

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
        assert report["schema"] == 1
        assert report["totals"]["attributed_fraction"] > 0.5
        assert report["totals"]["bottleneck"] in READ_STAGES

"""Memory-governed pipeline tests: budget accounting, backpressure,
chunk splitting, evicted chunks decoded again, and end-to-end peak-RSS
behavior.

The hard guarantees under test:

* a >=1000:1 gzip bomb decompresses byte-exactly under a budget a
  fraction of its decompressed size, with the governor's peak charged
  bytes never exceeding the budget,
* seeking backward into an evicted chunk decodes it again exactly, with
  no file written beside the output,
* backpressure can never deadlock the consumer — every test runs under
  a hard SIGALRM deadline.
"""

import gzip
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.cache import (
    LRUCache,
    MemoryGovernor,
    format_size,
    parse_size,
)
from repro.datagen import (
    BOMB_MIN_RATIO,
    bomb_expected_output,
    generate_bomb,
)
from repro.errors import UsageError
from repro.reader import ParallelGzipReader

MiB = 1024 * 1024


@pytest.fixture(autouse=True)
def _hard_deadline():
    """Backpressure bugs must fail loudly, never hang: 120 s hard kill."""

    def _expired(signum, frame):
        raise AssertionError("memory-budget test exceeded its hard deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("123", 123),
            (123, 123),
            ("64MiB", 64 * MiB),
            ("64 MiB", 64 * MiB),
            ("64m", 64 * MiB),
            ("64MB", 64_000_000),
            ("1.5K", 1536),
            ("1kb", 1000),
            ("2GiB", 2 * 1024 ** 3),
            ("1g", 1024 ** 3),
            ("1TiB", 1024 ** 4),
            ("100b", 100),
        ],
    )
    def test_units(self, text, expected):
        assert parse_size(text) == expected

    @pytest.mark.parametrize("bad", ["", "abc", "12XB", "-5", "0", 0, None])
    def test_rejects(self, bad):
        with pytest.raises(UsageError):
            parse_size(bad)

    def test_format_size_round(self):
        assert format_size(None) == "unlimited"
        assert format_size(64 * MiB) == "64.0 MiB"
        assert format_size(512) == "512 B"


class TestMemoryGovernor:
    def test_charge_discharge_and_high_water(self):
        governor = MemoryGovernor(1000)
        governor.charge("a", 600)
        governor.charge("b", 300)
        assert governor.charged == 900
        governor.discharge("a", 600)
        assert governor.charged == 300
        assert governor.high_water == 900

    def test_try_reserve_refuses_over_budget_and_counts_stalls(self):
        governor = MemoryGovernor(1000)
        assert governor.try_reserve("spec", 800)
        assert not governor.try_reserve("spec", 300)
        assert governor.stalls == 1
        assert governor.charged == 800  # refusal charges nothing

    def test_try_reserve_headroom(self):
        governor = MemoryGovernor(1000)
        assert not governor.try_reserve("spec", 600, headroom=500)
        assert governor.try_reserve("spec", 500, headroom=500)

    def test_reserve_charges_past_the_budget_without_waiting(self):
        governor = MemoryGovernor(1000)
        governor.charge("cache", 500)
        governor.reserve("mandatory", 400)  # fits
        assert governor.overcommits == 0
        governor.reserve("mandatory", 400)  # does not: forced through
        assert governor.charged == 1300
        assert governor.overcommits == 1
        assert governor.high_water == 1300

    def test_unbudgeted_accounting_never_refuses(self):
        governor = MemoryGovernor(None)
        assert governor.try_reserve("x", 10 ** 12)
        assert governor.charged == 10 ** 12
        assert governor.stalls == 0

    def test_governed_cache_mirrors_charges(self):
        governor = MemoryGovernor(10_000)
        cache = LRUCache(
            4, max_bytes=150, sizer=len, governor=governor, account="c"
        )
        cache.insert("a", b"x" * 100)
        assert governor.account("c") == 100
        cache.insert("b", b"y" * 100)  # evicts a
        assert governor.account("c") == 100
        cache.clear()
        assert governor.account("c") == 0


class TestBombCorpus:
    def test_ratio_and_content(self):
        blob = generate_bomb(4 * MiB)
        assert 4 * MiB / len(blob) >= BOMB_MIN_RATIO
        assert gzip.decompress(blob) == bomb_expected_output(4 * MiB)

    def test_multi_member(self):
        blob = generate_bomb(2 * MiB, member_size=MiB, fill=0x41)
        assert gzip.decompress(blob) == b"A" * (2 * MiB)


class TestBudgetedDecompression:
    DECOMPRESSED = 32 * MiB
    # Splits can only land on Deflate block boundaries, and zlib's level-9
    # zeros stream emits ~6.3 MB-output blocks; one such piece is resident
    # at peak beside the materialized bytes being served, so ~8.5 MB is
    # the structural floor for the governor's high water regardless of
    # budget. Smaller budgets degrade gracefully (recorded as overcommits).
    WITHIN_BUDGET = 16 * MiB
    WITHIN_DECOMPRESSED = 64 * MiB

    def _run(self, *, decompressed=None, **kwargs):
        decompressed = decompressed or self.DECOMPRESSED
        blob = generate_bomb(decompressed)
        reader = ParallelGzipReader(blob, **kwargs)
        pieces = []
        while True:
            piece = reader.read(4 * MiB)
            if not piece:
                break
            pieces.append(piece)
        stats = reader.statistics()
        reader.close()
        return b"".join(pieces), stats

    def test_byte_exact_within_budget_threads(self):
        out, stats = self._run(
            decompressed=self.WITHIN_DECOMPRESSED,
            parallelization=4, max_memory=self.WITHIN_BUDGET,
        )
        assert out == bomb_expected_output(self.WITHIN_DECOMPRESSED)
        memory = stats["memory"]
        assert memory["budget_bytes"] == self.WITHIN_BUDGET
        assert memory["high_water_bytes"] <= self.WITHIN_BUDGET
        assert stats["chunk_splits"] > 0  # the bomb chunk was split

    def test_size_string_accepted(self):
        out, stats = self._run(parallelization=2, max_memory="8MiB")
        assert out == bomb_expected_output(self.DECOMPRESSED)
        assert stats["memory"]["budget_bytes"] == 8 * MiB

    def test_mandatory_decodes_never_sleep(self):
        # Every discharge runs on the reading thread, so a mandatory decode
        # that waited for one could only time out: 5 s per stall, 35 s for
        # this read. It charges at once, with the same accounting. The
        # budget sits below the structural floor, so every split piece
        # overcommits.
        start = time.monotonic()
        out, stats = self._run(parallelization=2, max_memory="4MiB")
        elapsed = time.monotonic() - start
        assert out == bomb_expected_output(self.DECOMPRESSED)
        memory = stats["memory"]
        assert memory["overcommits"] == 7
        assert memory["high_water_bytes"] == 8_453_628
        assert elapsed < 5, elapsed

    def test_no_budget_keeps_statistics_dormant(self):
        out, stats = self._run(parallelization=2)
        assert out == bomb_expected_output(self.DECOMPRESSED)
        assert stats["memory"] is None
        assert stats["chunk_split_size"] is None
        assert stats["chunk_splits"] == 0

    def test_backpressure_with_corruption_tolerance_no_deadlock(self):
        # Flip bytes mid-bomb: tolerant mode must resync AND the budget
        # must keep gating without deadlocking the consumer.
        blob = bytearray(generate_bomb(self.DECOMPRESSED))
        blob[len(blob) // 2] ^= 0xFF
        blob[len(blob) // 2 + 1] ^= 0xFF
        reader = ParallelGzipReader(
            bytes(blob), parallelization=2, max_memory="8MiB",
            tolerate_corruption=True,
        )
        total = 0
        while True:
            piece = reader.read(4 * MiB)
            if not piece:
                break
            total += len(piece)
        stats = reader.statistics()
        reader.close()
        assert total > 0
        assert stats["memory"]["high_water_bytes"] > 0


class TestEvictedChunks:
    """An evicted chunk is decoded again by one exact pass from its seek
    point and window; a budgeted read touches no disk beyond its output."""

    def test_budgeted_read_uses_no_temp_files_and_decodes_again(
        self, tmp_path, monkeypatch
    ):
        import tempfile
        import zlib

        from repro.datagen import generate_silesia_like

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        data = generate_silesia_like(4 * MiB, seed=9)
        blob = gzip.compress(data, 6)
        with ParallelGzipReader(
            blob, parallelization=2, chunk_size=256 * 1024, max_memory="8MiB"
        ) as reader:
            pieces = []
            while True:
                piece = reader.read(MiB)
                if not piece:
                    break
                pieces.append(piece)
            assert b"".join(pieces) == data
            assert list(tmp_path.iterdir()) == []
            before = reader.statistics()
            assert before["materialized_cache"]["evictions"] > 0
            reader.seek(100)
            piece = reader.read(8192)
            after = reader.statistics()
        assert piece == zlib.decompress(blob, 31)[100:8292]
        assert (after["index"]["index_chunks"]
                > before["index"]["index_chunks"])


class TestPeakRSS:
    def test_budgeted_bomb_bounds_peak_rss(self, tmp_path):
        """Decompress 128 MiB (from ~128 KiB) under a 32 MiB budget in a
        fresh interpreter and assert the OS-level peak RSS stays far below
        the decompressed size. Unbudgeted, the single bomb chunk alone
        materializes >128 MiB (plus 2-byte marker symbols)."""
        decompressed = 128 * MiB
        bomb_path = tmp_path / "bomb.gz"
        bomb_path.write_bytes(generate_bomb(decompressed))
        script = textwrap.dedent(
            f"""
            import resource, sys
            from repro.reader import ParallelGzipReader

            reader = ParallelGzipReader(
                {str(bomb_path)!r}, parallelization=2, max_memory="32MiB"
            )
            total = 0
            while True:
                piece = reader.read(4 * 1024 * 1024)
                if not piece:
                    break
                total += len(piece)
            stats = reader.statistics()
            reader.close()
            assert total == {decompressed}, total
            assert stats["memory"]["high_water_bytes"] <= 32 * 1024 * 1024
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # On Linux a forked child inherits the parent's max-RSS
            # accounting, so ru_maxrss reflects pytest's own footprint
            # when spawned from a fat test run; VmHWM is per-mm and
            # resets at exec, measuring only this interpreter.
            for line in open("/proc/self/status"):
                if line.startswith("VmHWM"):
                    peak_kib = int(line.split()[1])
                    break
            print(peak_kib)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        # glibc's dynamic mmap threshold otherwise lets freed multi-MB
        # chunk buffers linger in the heap, inflating RSS by an amount
        # that depends on allocation timing. Pinning the threshold makes
        # the measurement reflect live memory, not allocator retention.
        env["MALLOC_MMAP_THRESHOLD_"] = str(MiB)
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=110,
        )
        assert result.returncode == 0, result.stderr
        peak_bytes = int(result.stdout.strip()) * 1024
        # Interpreter + numpy baseline is ~50 MiB; the budget adds 32 MiB
        # plus transient materialize buffers (measured: ~70 MiB). The same
        # run without --max-memory measures ~305 MiB because the single
        # bomb chunk materializes all 128 MiB plus marker symbols.
        assert peak_bytes < 96 * MiB, (
            f"peak RSS {peak_bytes / MiB:.0f} MiB not bounded by the budget"
        )


class TestClosedReaderIsFreed:
    """A closed reader holds no reference cycle: reference counting frees
    it — caches, windows, pool, telemetry — with its last reference, not
    whenever the cyclic collector reaches its generation."""

    def test_no_cycle_outlives_close(self):
        import gc
        import io
        import weakref

        from repro.datagen import generate_silesia_like
        from repro.index import load_index

        data = generate_silesia_like(600_000, seed=3)
        blob = gzip.compress(data, 6)
        with ParallelGzipReader(blob, chunk_size=64 * 1024) as reader:
            sink = io.BytesIO()
            reader.export_index(sink)
        index = load_index(sink.getvalue())
        variants = [
            {},
            {"max_memory": "8MiB"},
            {"trace": True},
            {"tolerate_corruption": True},
            {"index": index},
        ]
        gc.disable()
        try:
            for options in variants:
                reader = ParallelGzipReader(
                    blob, parallelization=2, chunk_size=64 * 1024, **options
                )
                assert reader.read() == data
                reader.close()
                owned = [reader, reader._fetcher, reader._fetcher.pool,
                         reader._fetcher.chain, reader.telemetry]
                references = [weakref.ref(item) for item in owned]
                del reader, owned
                assert [ref() for ref in references] == [None] * 5, options
        finally:
            gc.enable()

    def test_resident_size_is_flat_across_passes_without_gc(self):
        """Twelve open/read/close passes with the cyclic collector off:
        resident size must not grow per pass (it grew by the whole reader
        — index windows, caches — before close broke the cycles)."""
        script = textwrap.dedent(
            """
            import gc, gzip
            from repro.datagen import generate_silesia_like
            from repro.reader import ParallelGzipReader

            def resident():
                for line in open("/proc/self/status"):
                    if line.startswith("VmRSS"):
                        return int(line.split()[1]) * 1024

            data = generate_silesia_like(4 << 20, seed=4)
            blob = gzip.compress(data, 6)
            gc.disable()
            samples = []
            for _ in range(12):
                with ParallelGzipReader(
                    blob, parallelization=2, chunk_size=64 * 1024
                ) as reader:
                    assert reader.read() == data
                samples.append(resident())
            # Passes 1-2 warm the allocator; the slope is taken after them.
            print((samples[-1] - samples[2]) / (len(samples) - 3))
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=110,
        )
        assert result.returncode == 0, result.stderr
        slope = float(result.stdout.strip())
        assert slope < 0.5 * MiB, f"{slope / MiB:.2f} MiB per pass"

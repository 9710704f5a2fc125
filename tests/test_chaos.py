"""Chaos suite: seeded fault injection against the decode pipeline.

Every test here is deterministic — faults fire based on a seed that is
printed on failure, so any red run can be replayed exactly with::

    CHAOS_SEED=<seed> PYTHONPATH=src python -m pytest tests/test_chaos.py

and every test is wrapped in a hard SIGALRM deadline so a hang is a
loud failure, never a stuck CI job.
"""

import collections
import functools
import gzip as stdlib_gzip
import io
import os
import random
import signal

import pytest

from repro.errors import (
    ChunkDecodeError,
    FormatError,
    IndexIntegrityError,
    IntegrityError,
    RecoveryError,
    ReproError,
    UsageError,
    EXIT_FORMAT,
    EXIT_INDEX,
    EXIT_INTEGRITY,
    EXIT_NETWORK,
    EXIT_RECOVERY,
    exit_code_for,
)
from repro.faults import (
    _ERROR_CLASSES,
    SITES,
    FaultInjector,
    FaultSpec,
    InjectedError,
    flip_bytes,
    injected,
    truncate,
)
from repro.index.store import index_to_bytes_v2, load_index
from repro.reader import ParallelGzipReader

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1337"))

CHUNK = 64 * 1024


def ascii_data(size: int, seed: int = 0) -> bytes:
    line = bytes(range(32, 127)) + b"\n"
    blob = line * (size // len(line) + 1)
    offset = seed % len(line)
    return blob[offset : offset + size]


DATA = ascii_data(800_000, seed=CHAOS_SEED % 7)
BLOB = stdlib_gzip.compress(DATA, 6)


@pytest.fixture(autouse=True)
def _hard_deadline():
    """Chaos tests must never hang: 120 s hard kill per test."""

    def _expired(signum, frame):
        raise AssertionError(
            f"chaos test exceeded its hard deadline (CHAOS_SEED={CHAOS_SEED})"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _read_all(reader) -> bytes:
    try:
        pieces = []
        while True:
            piece = reader.read(1 << 20)
            if not piece:
                break
            pieces.append(piece)
        return b"".join(pieces)
    finally:
        reader.close()


# ---------------------------------------------------------------------------
# The harness itself
# ---------------------------------------------------------------------------


class TestHarness:
    def test_flip_bytes_is_seeded_and_bounded(self):
        a = flip_bytes(BLOB, seed=CHAOS_SEED, flips=3, start=100, stop=500)
        b = flip_bytes(BLOB, seed=CHAOS_SEED, flips=3, start=100, stop=500)
        assert a == b, f"flip_bytes not deterministic (CHAOS_SEED={CHAOS_SEED})"
        assert a != BLOB
        diff = [i for i, (x, y) in enumerate(zip(a, BLOB)) if x != y]
        assert 1 <= len(diff) <= 3
        assert all(100 <= i < 500 for i in diff)
        assert flip_bytes(BLOB, seed=CHAOS_SEED + 1, flips=3) != a

    def test_truncate_helpers(self):
        assert truncate(BLOB, keep=10) == BLOB[:10]
        assert len(truncate(BLOB, fraction=0.5)) == len(BLOB) // 2
        with pytest.raises(UsageError):
            truncate(BLOB)

    def test_injector_decisions_are_deterministic(self):
        spec = FaultSpec("chunk.decode", "raise", probability=0.5, attempts=None)
        first = FaultInjector(seed=CHAOS_SEED, specs=[spec])
        second = FaultInjector(seed=CHAOS_SEED, specs=[spec])
        for chunk_id in range(64):
            try:
                first.fire("chunk.decode", chunk_id=chunk_id)
                fired_a = False
            except InjectedError:
                fired_a = True
            try:
                second.fire("chunk.decode", chunk_id=chunk_id)
                fired_b = False
            except InjectedError:
                fired_b = True
            assert fired_a == fired_b
        assert first.fire("other.site", chunk_id=0) is None

    def test_injector_rejects_unknown_site_and_kind(self):
        with pytest.raises(UsageError):
            FaultSpec("no.such.site", "raise").validate()
        with pytest.raises(UsageError):
            FaultSpec("chunk.decode", "meteor-strike").validate()


# ---------------------------------------------------------------------------
# Exit-code mapping (satellite: CLI distinguishes failure classes)
# ---------------------------------------------------------------------------


class TestExitCodes:
    def test_direct_mapping(self):
        assert exit_code_for(FormatError("x")) == EXIT_FORMAT == 4
        assert exit_code_for(IntegrityError("x")) == EXIT_INTEGRITY == 5
        assert exit_code_for(RecoveryError("x")) == EXIT_RECOVERY == 7
        assert exit_code_for(ReproError("x")) == 1
        # 6 was "worker process crashed": retired, not reused.
        assert 6 not in (EXIT_FORMAT, EXIT_INTEGRITY, EXIT_RECOVERY,
                         EXIT_INDEX, EXIT_NETWORK)

    def test_cause_chain_wins_over_wrapper(self):
        try:
            try:
                raise IntegrityError("crc mismatch")
            except IntegrityError as mismatch:
                raise ChunkDecodeError(
                    "chunk 3 failed", chunk_id=3, start_bit=0
                ) from mismatch
        except ChunkDecodeError as error:
            assert exit_code_for(error) == EXIT_INTEGRITY

    def test_bare_chunk_decode_error_is_format(self):
        assert exit_code_for(ChunkDecodeError("x", chunk_id=0, start_bit=0)) == 4


# ---------------------------------------------------------------------------
# Corruption: strict raises structured errors, tolerant keeps going
# ---------------------------------------------------------------------------


class TestSeededCorruption:
    def _corrupt(self) -> bytes:
        # Flip bytes in the middle of the deflate stream, away from the
        # header and the trailer.
        return flip_bytes(
            BLOB, seed=CHAOS_SEED, flips=4,
            start=len(BLOB) // 3, stop=2 * len(BLOB) // 3,
        )

    def test_strict_mode_raises_classified_error(self):
        bad = self._corrupt()
        with pytest.raises((ChunkDecodeError, FormatError, IntegrityError)) as info:
            _read_all(ParallelGzipReader(bad, parallelization=2, chunk_size=CHUNK))
        assert exit_code_for(info.value) in (4, 5), (
            f"unexpected exit class (CHAOS_SEED={CHAOS_SEED})"
        )

    def test_tolerant_mode_reads_through_damage(self):
        bad = self._corrupt()
        reader = ParallelGzipReader(
            bad, parallelization=2, chunk_size=CHUNK, tolerate_corruption=True
        )
        out = _read_all(reader)
        report = reader.damage_report
        assert report.damaged, f"no damage recorded (CHAOS_SEED={CHAOS_SEED})"
        assert out, "tolerant read produced no output at all"
        # The prefix before the first damaged region must be byte-exact.
        first = min(region.output_offset for region in report.regions)
        assert out[:first] == DATA[:first]
        assert "damaged region" in report.summary()

    def test_tolerant_mode_is_deterministic(self):
        bad = self._corrupt()
        runs = []
        for _ in range(2):
            reader = ParallelGzipReader(
                bad, parallelization=2, chunk_size=CHUNK, tolerate_corruption=True
            )
            out = _read_all(reader)
            runs.append((out, len(reader.damage_report.regions)))
        assert runs[0] == runs[1], (
            f"tolerant decode not reproducible (CHAOS_SEED={CHAOS_SEED})"
        )

    def test_strict_integrity_on_flipped_crc(self):
        bad = bytearray(BLOB)
        bad[-6] ^= 0xFF  # CRC-32 field of the trailer
        with pytest.raises(IntegrityError):
            _read_all(ParallelGzipReader(bytes(bad), parallelization=2,
                                         chunk_size=CHUNK))

    def test_tolerant_integrity_records_region(self):
        bad = bytearray(BLOB)
        bad[-6] ^= 0xFF
        reader = ParallelGzipReader(
            bytes(bad), parallelization=2, chunk_size=CHUNK,
            tolerate_corruption=True,
        )
        out = _read_all(reader)
        assert out == DATA  # data itself was fine, only the checksum lied
        regions = reader.damage_report.regions
        assert any(region.kind == "integrity" for region in regions)


# ---------------------------------------------------------------------------
# Injected decode faults: one task body, so one contract on pool and serial
# ---------------------------------------------------------------------------

# Barely compressible, so the corpus spans several chunks and speculation
# actually runs (BLOB above is a single chunk).
MULTI_DATA = random.Random(CHAOS_SEED).randbytes(150_000).hex().encode()
MULTI_BLOB = stdlib_gzip.compress(MULTI_DATA, 6)
MULTI_CHUNK = 32 * 1024
FAULTED_CHUNK = 2

BACKENDS = ("threads", "serial")
CHUNK_SITES = tuple(site for site in SITES if site.startswith("chunk."))


def _open(backend: str, source=MULTI_BLOB, **options) -> ParallelGzipReader:
    """A reader on ``backend``. ``"serial"`` is reachable only by
    downgrade, so it opens on threads and steps down."""
    reader = ParallelGzipReader(
        source, parallelization=2, chunk_size=MULTI_CHUNK, **options
    )
    if backend == "serial":
        reader._fetcher._downgrade_backend("test")
    assert reader.statistics()["backend"] == backend
    return reader


def _ladder_specs(site: str, error: str) -> list:
    """Fail one chunk at ``site`` on every attempt. ``chunk.on_demand``
    guards the on-demand decode only, so it gets a companion that makes
    the reader need one: the speculative decode is rejected."""
    specs = [FaultSpec(site, "raise", error=error,
                       chunk_ids=(FAULTED_CHUNK,), attempts=None)]
    if site == "chunk.on_demand":
        specs.append(FaultSpec("chunk.decode", "raise", error="format",
                               chunk_ids=(FAULTED_CHUNK,), attempts=(0,)))
    return specs


@functools.lru_cache(maxsize=None)
def _ladder_outcome(backend: str, site: str, error: str) -> tuple:
    """What a reader on ``backend`` shows of a chunk that cannot be decoded:
    the strict-mode error and the tolerant-mode damage report."""
    with injected(seed=CHAOS_SEED, specs=_ladder_specs(site, error)):
        strict = _open(backend)
        with pytest.raises(ChunkDecodeError) as info:
            _read_all(strict)
        tolerant = _open(backend, tolerate_corruption=True)
        output = _read_all(tolerant)
    raised = info.value
    assert raised.backend == strict.statistics()["backend"]
    return (
        type(raised.__cause__), raised.chunk_id, raised.start_bit,
        [(region.kind, region.start_bit, region.resume_bit,
          region.output_offset, region.skipped_bits)
         for region in tolerant.damage_report.regions],
        output,
    )


def _corrupt_index_interval():
    """MULTI_BLOB with the head of one index interval overwritten, and
    the (intact) index that still describes it. All-ones bits declare
    more Huffman codes than Deflate has: no decoder accepts the block."""
    with ParallelGzipReader(MULTI_BLOB, parallelization=1,
                            chunk_size=MULTI_CHUNK) as reader:
        index = reader.export_index(io.BytesIO())
    start = index[2].compressed_bit_offset // 8 + 1
    damaged = bytearray(MULTI_BLOB)
    damaged[start : start + 32] = b"\xff" * 32
    return bytes(damaged), index


class TestDecodeFaults:
    @pytest.mark.parametrize("error", ["injected", "format"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_speculative_faults_are_survived(self, backend, error):
        specs = [FaultSpec("chunk.decode", "raise", error=error,
                           chunk_ids=(1, 3), attempts=(0,))]
        with injected(seed=CHAOS_SEED, specs=specs):
            reader = _open(backend)
            out = _read_all(reader)
        assert out == MULTI_DATA
        assert not reader.damage_report.damaged
        stats = reader.statistics()
        assert stats["on_demand_decodes"] > 1
        if backend != "serial":  # which never speculates
            assert stats["task_errors"] + stats["speculative_rejects"] > 0

    @pytest.mark.parametrize("error", sorted(_ERROR_CLASSES))
    @pytest.mark.parametrize("site", CHUNK_SITES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exhausted_ladder_has_one_contract(self, backend, site, error):
        # Fault every attempt: the read must end with the same structured
        # error, and tolerant mode with the same damage report, whether
        # the pool was still being fed or not.
        outcome = _ladder_outcome(backend, site, error)
        cause, chunk_id, _start_bit, regions, _output = outcome
        assert cause is type(_ERROR_CLASSES[error]("x"))
        assert chunk_id == FAULTED_CHUNK
        assert len(regions) == 1
        assert outcome == _ladder_outcome("threads", site, error)

    @pytest.mark.parametrize("error", ["injected", "format"])
    def test_fault_on_a_bound_task_is_contained(self, error):
        # At P=1 a worker starts each queued task once its predecessor is
        # decoded, so the task is bound to the recorded start and window:
        # an exact decode, no block search. A fault there keeps the
        # speculative contract — folded into a reject or a contained task
        # error — and the on-demand rung decodes the chunk instead.
        specs = [FaultSpec("chunk.decode", "raise", error=error,
                           chunk_ids=(FAULTED_CHUNK,), attempts=(0,))]
        with injected(seed=CHAOS_SEED, specs=specs):
            reader = ParallelGzipReader(
                MULTI_BLOB, parallelization=1, chunk_size=MULTI_CHUNK,
                events=True,
            )
            out = _read_all(reader)
        assert out == MULTI_DATA
        stats = reader.statistics()
        states = [
            record["state"] for record in reader.telemetry.events.records()
            if record.get("chunk") == FAULTED_CHUNK
        ]
        assert "block-find" not in states  # bound at dequeue: no search
        assert ("rejected" if error == "format" else "failed") in states
        assert stats["metrics"]["blockfinder.candidates_tested"] == 0
        assert stats["on_demand_decodes"] == 2  # the first chunk, and this

    @pytest.mark.parametrize("error", sorted(_ERROR_CLASSES))
    def test_exhausted_ladder_on_a_bound_task(self, error):
        # The same chunk failing on every attempt raises exactly what the
        # serial rung (which never speculates) raises.
        with injected(seed=CHAOS_SEED,
                      specs=_ladder_specs("chunk.decode", error)):
            reader = ParallelGzipReader(
                MULTI_BLOB, parallelization=1, chunk_size=MULTI_CHUNK
            )
            with pytest.raises(ChunkDecodeError) as info:
                _read_all(reader)
        raised = info.value
        serial = _ladder_outcome("serial", "chunk.decode", error)
        assert (type(raised.__cause__), raised.chunk_id,
                raised.start_bit) == serial[:3]

    def test_speculative_reject_is_one_event(self):
        # The reject happens on a pool thread and must show up exactly
        # once: one lifecycle record, one counter increment.
        damaged, index = _corrupt_index_interval()
        reader = _open("threads", damaged, index=index, events=True,
                       verify=False, tolerate_corruption=True)
        _read_all(reader)
        states = collections.Counter(
            record["state"] for record in reader.telemetry.events.records()
        )
        assert reader.statistics()["speculative_rejects"] == 1
        assert states["rejected"] == 1
        assert not states["no-candidate"]

    def test_damaged_index_window_has_one_contract(self):
        # One seek point's lazily validated window fails validation every
        # time it is touched: the pool skips that chunk and checks its
        # predecessor's tail against nothing, and the consumer's request
        # re-decodes it from the last good point — the same bytes, the
        # same fallback count and the same damage record as on serial.
        with ParallelGzipReader(MULTI_BLOB, parallelization=1,
                                chunk_size=MULTI_CHUNK) as reader:
            exported = reader.export_index(io.BytesIO())
        saved = index_to_bytes_v2(exported)
        faulted_bit = exported[FAULTED_CHUNK].compressed_bit_offset
        specs = [FaultSpec("index.window", "raise", error="index",
                           chunk_ids=(FAULTED_CHUNK,), attempts=None)]

        def outcome(backend):
            index = load_index(saved, validate="lazy")
            with injected(seed=CHAOS_SEED, specs=specs):
                reader = _open(backend, index=index)
                output = _read_all(reader)
            return (
                output, reader.statistics()["index"]["fallbacks"],
                [(region.kind, region.start_bit)
                 for region in reader.damage_report.regions],
            )

        threads = outcome("threads")
        assert threads[0] == MULTI_DATA
        assert threads[1] >= 1
        assert threads[2] == [("index", faulted_bit)]
        assert outcome("serial") == threads


# ---------------------------------------------------------------------------
# Index fault sites: one contract on pool and serial
# ---------------------------------------------------------------------------


class TestIndexFaults:
    def test_failed_export_has_one_contract(self, tmp_path):
        # A path export under an ``index.export`` fault raises the same
        # typed error on both backends and leaves the previous file intact.
        specs = [FaultSpec("index.export", "raise", error="index")]

        def outcome(backend):
            target = tmp_path / f"{backend}.idx"
            reader = _open(backend)
            try:
                reader.export_index(target)
                before = target.read_bytes()
                with injected(seed=CHAOS_SEED, specs=specs):
                    with pytest.raises(ReproError) as info:
                        reader.export_index(target)
            finally:
                reader.close()
            assert target.read_bytes() == before
            # No staging litter beside the exports.
            assert all(name.endswith(".idx") for name in os.listdir(tmp_path))
            error = info.value
            return type(error), getattr(error, "check", None), before

        threads = outcome("threads")
        assert threads[:2] == (IndexIntegrityError, "injected")
        assert threads[2].startswith(b"RPGZIDX2")
        assert outcome("serial") == threads

    def test_faulted_cache_load_has_one_contract(self, tmp_path):
        # An ``index_cache`` open whose ``index.load`` fails falls back to
        # a search: the same bytes, damage region and index statistics
        # whether the pool keeps being fed or not.
        source = tmp_path / "multi.gz"
        source.write_bytes(MULTI_BLOB)
        cache = tmp_path / "cache"
        _read_all(_open("threads", str(source), index_cache=str(cache)))
        assert list(cache.iterdir())  # the cold read exported an index
        specs = [FaultSpec("index.load", "raise", error="index")]

        def outcome(backend):
            with injected(seed=CHAOS_SEED, specs=specs):
                reader = _open(backend, str(source), index_cache=str(cache))
                output = _read_all(reader)
            return (
                output,
                [(region.kind, region.start_bit)
                 for region in reader.damage_report.regions],
                reader.statistics()["index"],
            )

        threads = outcome("threads")
        assert threads[0] == MULTI_DATA
        assert threads[1] == [("index", 0)]
        assert threads[2]["load_failures"] == 1
        assert not threads[2]["imported"]
        assert outcome("serial") == threads


# ---------------------------------------------------------------------------
# Stalls: bounded waits turn a hung worker into an on-demand decode
# ---------------------------------------------------------------------------


class TestStalls:
    def test_stalled_chunk_is_rescued_by_timeout(self, tmp_path):
        token = str(tmp_path / "stall-once")
        specs = [FaultSpec("chunk.decode", "stall", delay_seconds=2.0,
                           attempts=(0,), once_token=token)]
        with injected(seed=CHAOS_SEED, specs=specs):
            reader = _open("threads", chunk_timeout=0.2)
            out = _read_all(reader)
        assert out == MULTI_DATA
        stats = reader.statistics()
        assert stats["chunk_timeouts"] >= 1, (
            f"stall was never detected (CHAOS_SEED={CHAOS_SEED})"
        )
        assert stats["backend"] == "threads"

    STALL_ALL = [FaultSpec("chunk.decode", "stall", delay_seconds=0.5,
                           attempts=(0,))]

    def test_three_timeouts_stop_feeding_the_pool(self, monkeypatch):
        # Every speculative decode hangs past the bound: the third
        # time-out steps threads -> serial and the read finishes on
        # on-demand decodes. The downgrade is the contract without a
        # memory budget; the sibling below covers the budgeted read.
        monkeypatch.delenv("REPRO_MAX_MEMORY", raising=False)
        with injected(seed=CHAOS_SEED, specs=self.STALL_ALL):
            reader = _open("threads", chunk_timeout=0.05)
            out = _read_all(reader)
        assert out == MULTI_DATA
        stats = reader.statistics()
        assert stats["chunk_timeouts"] >= 3
        assert stats["backend_downgrades"] == 1
        assert stats["backend"] == "serial"

    def test_budget_refuses_the_third_stalled_wish(self):
        # Under a budget each stalled task keeps its in-flight
        # reservation; two of them leave no room for a third, so the
        # third wish is refused instead of queued. A refused wish is never
        # waited on and cannot time out: the read ends on threads.
        with injected(seed=CHAOS_SEED, specs=self.STALL_ALL):
            reader = _open("threads", chunk_timeout=0.05, max_memory="64MiB")
            out = _read_all(reader)
        assert out == MULTI_DATA
        stats = reader.statistics()
        assert stats["memory"]["backpressure_stalls"] >= 1
        assert stats["chunk_timeouts"] < 3
        assert stats["backend_downgrades"] == 0
        assert stats["backend"] == "threads"

    def test_short_delays_only_slow_things_down(self):
        specs = [FaultSpec("chunk.decode", "delay", delay_seconds=0.02,
                           probability=0.5, attempts=None)]
        with injected(seed=CHAOS_SEED, specs=specs):
            reader = ParallelGzipReader(
                BLOB, parallelization=2, chunk_size=CHUNK
            )
            out = _read_all(reader)
        assert out == DATA
        assert not reader.damage_report.damaged


# ---------------------------------------------------------------------------
# Lifecycle edges (satellite: use-after-close is UsageError, not garbage)
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_reader_read_after_close(self):
        reader = ParallelGzipReader(BLOB, parallelization=1, chunk_size=CHUNK)
        reader.close()
        with pytest.raises(UsageError):
            reader.read(10)

    def test_file_readers_after_close(self, tmp_path):
        from repro.io import MemoryFileReader, StandardFileReader
        from repro.io.shared_file_reader import SharedFileReader

        path = tmp_path / "blob.bin"
        path.write_bytes(b"0123456789")

        memory = MemoryFileReader(b"abc")
        memory.close()
        with pytest.raises(UsageError):
            memory.pread(0, 1)

        standard = StandardFileReader(path)
        standard.close()
        with pytest.raises(UsageError):
            standard.pread(0, 1)

        shared = SharedFileReader(path)
        shared.close()
        with pytest.raises(UsageError):
            shared.pread(0, 1)
        with pytest.raises(UsageError):
            shared.clone()

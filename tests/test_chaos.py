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

from repro import WorkerCrashedError
from repro.errors import (
    ChunkDecodeError,
    FormatError,
    IntegrityError,
    RecoveryError,
    ReproError,
    UsageError,
    EXIT_FORMAT,
    EXIT_INTEGRITY,
    EXIT_RECOVERY,
    EXIT_WORKER_CRASH,
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
from repro.pool import ProcessPool
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
        assert exit_code_for(WorkerCrashedError("x")) == EXIT_WORKER_CRASH == 6
        assert exit_code_for(RecoveryError("x")) == EXIT_RECOVERY == 7
        assert exit_code_for(ReproError("x")) == 1

    def test_cause_chain_wins_over_wrapper(self):
        try:
            try:
                raise WorkerCrashedError("worker died")
            except WorkerCrashedError as crash:
                raise ChunkDecodeError(
                    "chunk 3 failed", chunk_id=3, start_bit=0
                ) from crash
        except ChunkDecodeError as error:
            assert exit_code_for(error) == EXIT_WORKER_CRASH

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
# Injected decode faults: one task body, so one contract on every backend
# ---------------------------------------------------------------------------

# Barely compressible, so the corpus spans several chunks and speculation
# actually runs (BLOB above is a single chunk).
MULTI_DATA = random.Random(CHAOS_SEED).randbytes(150_000).hex().encode()
MULTI_BLOB = stdlib_gzip.compress(MULTI_DATA, 6)
MULTI_CHUNK = 32 * 1024
FAULTED_CHUNK = 2

BACKENDS = ("threads", "processes", "serial")
CHUNK_SITES = tuple(site for site in SITES if site.startswith("chunk."))


def _open(backend: str, source=MULTI_BLOB, **options) -> ParallelGzipReader:
    """A reader on ``backend``. The serial rung is reachable only by
    downgrade, so ``"serial"`` opens on threads and steps down."""
    reader = ParallelGzipReader(
        source, parallelization=2, chunk_size=MULTI_CHUNK,
        backend="threads" if backend == "serial" else backend, **options
    )
    if backend == "serial":
        reader._fetcher._downgrade_backend("test")
        assert reader.statistics()["backend"] == "serial"
    return reader


def _ladder_specs(site: str, error: str) -> list:
    """Fail one chunk at ``site`` on every attempt. ``chunk.on_demand``
    guards the serial rung only, so it gets a companion that drives
    every backend down to that rung: the speculative decode and the
    first pool resubmission are rejected."""
    specs = [FaultSpec(site, "raise", error=error,
                       chunk_ids=(FAULTED_CHUNK,), attempts=None)]
    if site == "chunk.on_demand":
        specs.append(FaultSpec("chunk.decode", "raise", error="format",
                               chunk_ids=(FAULTED_CHUNK,), attempts=(0, 1)))
    return specs


@functools.lru_cache(maxsize=None)
def _ladder_outcome(backend: str, site: str, error: str) -> tuple:
    """What a reader on ``backend`` shows of a chunk no rung can decode:
    the strict-mode error and the tolerant-mode damage report."""
    with injected(seed=CHAOS_SEED, specs=_ladder_specs(site, error)):
        strict = _open(backend)
        with pytest.raises(ChunkDecodeError) as info:
            _read_all(strict)
        tolerant = _open(backend, tolerate_corruption=True)
        output = _read_all(tolerant)
    raised = info.value
    assert raised.attempts >= 1
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
        assert stats["on_demand_decodes"] + stats["retries"] > 1
        if backend != "serial":  # which never speculates
            assert stats["task_errors"] + stats["speculative_rejects"] > 0

    @pytest.mark.parametrize("error", sorted(_ERROR_CLASSES))
    @pytest.mark.parametrize("site", CHUNK_SITES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_exhausted_ladder_has_one_contract(self, backend, site, error):
        # Fault every attempt: the ladder must terminate with the same
        # structured error, and tolerant mode with the same damage
        # report, whichever backend's rungs it climbed down.
        outcome = _ladder_outcome(backend, site, error)
        cause, chunk_id, _start_bit, regions, _output = outcome
        assert cause is type(_ERROR_CLASSES[error]("x"))
        assert chunk_id == FAULTED_CHUNK
        assert len(regions) == 1
        assert outcome == _ladder_outcome("threads", site, error)

    def test_speculative_reject_is_one_event_on_every_backend(self):
        # The reject happens where the task ran — a pool thread or a
        # worker process — and must look the same from the parent.
        damaged, index = _corrupt_index_interval()
        seen = {}
        for backend in ("threads", "processes"):
            reader = _open(backend, damaged, index=index, events=True,
                           verify=False, tolerate_corruption=True)
            _read_all(reader)
            # All but the ladder's pool resubmissions, a rung (hence a
            # ``queued`` record) only the process backend has.
            states = collections.Counter(
                record["state"] for record in reader.telemetry.events.records()
                if record.get("kind") != "on-demand-retry"
            )
            seen[backend] = (
                states, reader.statistics()["speculative_rejects"]
            )
        states, rejects = seen["threads"]
        assert rejects == states["rejected"] == 1
        assert not states["no-candidate"]
        assert seen["processes"] == seen["threads"]


# ---------------------------------------------------------------------------
# Worker crashes: kill -9 mid-decode must be invisible to the caller
# ---------------------------------------------------------------------------


class TestWorkerCrash:
    def test_killed_worker_is_respawned_and_read_succeeds(self, tmp_path):
        token = str(tmp_path / "kill-once")
        specs = [FaultSpec("chunk.decode", "kill", attempts=None,
                           once_token=token)]
        with injected(seed=CHAOS_SEED, specs=specs):
            reader = ParallelGzipReader(
                BLOB, parallelization=2, chunk_size=CHUNK, backend="processes"
            )
            out = _read_all(reader)
        assert out == DATA, (
            f"output diverged after worker kill (CHAOS_SEED={CHAOS_SEED})"
        )
        pool = reader.statistics()["pool"]
        assert pool["worker_crashes"] >= 1
        assert pool["worker_respawns"] >= 1

    def test_repeated_kills_degrade_not_hang(self, tmp_path):
        # Kill every speculative decode. The pool burns its respawn
        # budget, the fetcher downgrades backends (on the thread pool
        # "kill" degrades into a raised WorkerCrashedError, the same
        # signal), and the read still finishes on on-demand decodes.
        # (Killing every attempt is
        # test_crash_is_surfaced_when_every_rung_crashes: the serial
        # rung passes the same fault site as every other decode.)
        specs = [FaultSpec("chunk.decode", "kill", attempts=(0,))]
        with injected(seed=CHAOS_SEED, specs=specs):
            reader = _open("processes")
            out = _read_all(reader)
        assert out == MULTI_DATA
        stats = reader.statistics()
        assert stats["worker_crashes"] >= 1 or stats["pool"]["worker_crashes"] >= 1
        assert stats["backend_downgrades"] >= 1
        assert stats["backend"] in ("threads", "serial")

    def test_crash_is_surfaced_when_every_rung_crashes(self):
        specs = [
            FaultSpec("chunk.decode", "kill", attempts=None),
            FaultSpec("chunk.on_demand", "raise", error="crash", attempts=None),
        ]
        with injected(seed=CHAOS_SEED, specs=specs):
            reader = ParallelGzipReader(
                BLOB, parallelization=2, chunk_size=CHUNK, backend="processes"
            )
            with pytest.raises(ChunkDecodeError) as info:
                _read_all(reader)
        assert exit_code_for(info.value) == EXIT_WORKER_CRASH


# ---------------------------------------------------------------------------
# Stalls: the watchdog turns a hung worker into a retried chunk
# ---------------------------------------------------------------------------


class TestStalls:
    def test_stalled_chunk_is_rescued_by_watchdog(self, tmp_path):
        token = str(tmp_path / "stall-once")
        specs = [FaultSpec("chunk.decode", "stall", delay_seconds=30.0,
                           attempts=None, once_token=token)]
        with injected(seed=CHAOS_SEED, specs=specs):
            reader = ParallelGzipReader(
                BLOB, parallelization=2, chunk_size=CHUNK,
                backend="processes", chunk_timeout=1.0,
            )
            out = _read_all(reader)
        assert out == DATA
        stats = reader.statistics()
        rescued = (
            stats["chunk_timeouts"]
            + stats["pool"]["task_timeouts"]
            + stats["pool"]["worker_crashes"]
        )
        assert rescued >= 1, (
            f"stall was never detected (CHAOS_SEED={CHAOS_SEED})"
        )

    def test_short_delays_only_slow_things_down(self):
        specs = [FaultSpec("chunk.decode", "delay", delay_seconds=0.02,
                           probability=0.5, attempts=None)]
        with injected(seed=CHAOS_SEED, specs=specs):
            reader = ParallelGzipReader(
                BLOB, parallelization=2, chunk_size=CHUNK, backend="threads"
            )
            out = _read_all(reader)
        assert out == DATA
        assert not reader.damage_report.damaged


# ---------------------------------------------------------------------------
# Pool supervision unit tests (satellite: lifecycle edges)
# ---------------------------------------------------------------------------


def _identity(value):
    return value


def _exit_hard(code):
    os._exit(code)


class TestPoolSupervision:
    def test_crash_requeues_task_and_respawns_worker(self, tmp_path):
        token = str(tmp_path / "pool-kill-once")
        injector = FaultInjector(
            seed=CHAOS_SEED,
            specs=[FaultSpec("worker.task", "kill", attempts=None,
                             once_token=token)],
        )
        pool = ProcessPool(2)
        try:
            # Ship the injector into the children via a task argument;
            # faults.fire() inside _worker_main picks it up globally.
            from repro import faults as faults_module

            futures = [
                pool.submit(faults_module.install, injector) for _ in range(2)
            ]
            for future in futures:
                future.result(timeout=30)
            results = [pool.submit(_identity, n) for n in range(8)]
            assert [f.result(timeout=30) for f in results] == list(range(8))
            stats = pool.statistics()
            assert stats["worker_crashes"] >= 1
            assert stats["worker_respawns"] >= 1
            assert stats["tasks_requeued"] >= 1
        finally:
            pool.shutdown()

    def test_shutdown_leaves_no_zombies_after_crashes(self):
        pool = ProcessPool(2)
        futures = [pool.submit(_exit_hard, 3) for _ in range(3)]
        for future in futures:
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=60)
        processes = list(pool.worker_processes)
        pool.shutdown()
        assert processes, "supervisor lost track of its worker processes"
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode is not None, (
                f"unreaped zombie: {process}"
            )

    def test_respawn_budget_exhaustion_sets_degraded(self):
        pool = ProcessPool(1, max_respawns=1, max_task_retries=0)
        try:
            for _ in range(4):
                future = pool.submit(_exit_hard, 5)
                with pytest.raises(WorkerCrashedError):
                    future.result(timeout=60)
                if pool.degraded:
                    break
            assert pool.degraded
        finally:
            pool.shutdown()
        for process in pool.worker_processes:
            assert not process.is_alive()

    def test_submit_after_shutdown_is_usage_error(self):
        pool = ProcessPool(1)
        assert pool.submit(_identity, 1).result(timeout=30) == 1
        pool.shutdown()
        with pytest.raises(UsageError):
            pool.submit(_identity, 2)


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

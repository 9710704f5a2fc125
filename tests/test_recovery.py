"""Tests for corrupted-gzip recovery."""

import gzip as stdlib_gzip
import random

import pytest

from repro.datagen import generate_silesia_like
from repro.errors import RecoveryError
from repro.recovery import recover_gzip


def ascii_data(size: int, seed: int = 0) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(33, 127) for _ in range(size))


class TestRecovery:
    def test_intact_file_recovers_fully(self):
        data = ascii_data(100_000)
        report = recover_gzip(stdlib_gzip.compress(data, 6))
        assert report.data() == data
        assert report.unresolved_bytes == 0
        assert report.segments[0].clean_start

    def test_destroyed_header_resyncs(self):
        data = ascii_data(300_000, 1)
        blob = bytearray(stdlib_gzip.compress(data, 6))
        blob[:512] = bytes(512)
        report = recover_gzip(bytes(blob))
        assert not report.segments[0].clean_start
        # Most of the file must come back, and its tail must be exact.
        assert report.recovered_bytes > len(data) // 2
        assert report.data()[-50_000:] == data[-50_000:]

    def test_destroyed_middle_keeps_head_and_tail(self):
        data = ascii_data(400_000, 2)
        blob = bytearray(stdlib_gzip.compress(data, 6))
        middle = len(blob) // 2
        blob[middle : middle + 64] = b"\xff" * 64
        report = recover_gzip(bytes(blob))
        recovered = report.data()
        assert recovered[:10_000] == data[:10_000]  # head decodes cleanly
        assert recovered[-10_000:] == data[-10_000:]  # tail resynced

    def test_unresolved_markers_get_placeholder(self):
        # Compressible data after the damage references the destroyed
        # window; those bytes must surface as placeholders, not garbage.
        data = generate_silesia_like(400_000, 3)
        blob = bytearray(stdlib_gzip.compress(data, 6))
        blob[:2048] = bytes(2048)
        report = recover_gzip(bytes(blob), placeholder=ord("?"))
        assert report.unresolved_bytes > 0
        resynced = report.segments[-1]
        assert b"?" in resynced.data[:40_000]

    def test_truncated_file(self):
        data = ascii_data(200_000, 4)
        blob = stdlib_gzip.compress(data, 6)
        report = recover_gzip(blob[: len(blob) // 2])
        assert report.segments[0].clean_start
        assert report.recovered_bytes > 10_000
        assert report.data()[:10_000] == data[:10_000]

    def test_hopeless_input_raises(self):
        with pytest.raises(RecoveryError):
            recover_gzip(b"\x00" * 1000)

    def test_multi_member_partial_damage(self):
        first = ascii_data(100_000, 5)
        second = ascii_data(100_000, 6)
        blob = bytearray(stdlib_gzip.compress(first) + stdlib_gzip.compress(second))
        blob[100:400] = bytes(300)  # damage inside the first member
        report = recover_gzip(bytes(blob))
        assert report.data()[-50_000:] == second[-50_000:]


class TestDamagePolicy:
    """One place turns an error into a strict raise or a tolerant region."""

    def policy(self, tolerate=True):
        from repro.recovery import DamagePolicy
        from repro.telemetry import Telemetry

        self.telemetry = Telemetry(trace=True)
        return DamagePolicy(tolerate, self.telemetry.recorder)

    def chained(self, outer, cause):
        try:
            try:
                raise cause
            except Exception as inner:
                raise outer from inner
        except Exception as error:
            return error

    def record(self):
        from repro.fetcher import ChunkRecord

        return ChunkRecord(800, 100, 150, 1600, b"", False)

    def test_strict_raises_what_it_is_given(self):
        from repro.errors import ChunkDecodeError, IntegrityError

        policy = self.policy(tolerate=False)
        error = ChunkDecodeError("broken")
        with pytest.raises(ChunkDecodeError) as info:
            policy.fill(error, self.record())
        assert info.value is error
        with pytest.raises(IntegrityError, match="CRC"):
            policy.integrity("CRC-32 mismatch", self.record())
        assert policy.report.regions == []

    def test_classification(self):
        from repro.errors import (
            ChunkDecodeError,
            FormatError,
            NetworkError,
            TruncatedError,
        )

        policy = self.policy()
        network = NetworkError("dead range")
        assert policy.classify(
            self.chained(ChunkDecodeError("x"), network)
        ) == ("network", network)
        truncated = self.chained(ChunkDecodeError("x"), TruncatedError("eof"))
        assert policy.classify(truncated) == ("truncated", truncated)
        bare = TruncatedError("eof")
        assert policy.classify(bare) == ("truncated", bare)
        corrupt = self.chained(ChunkDecodeError("x"), FormatError("bad"))
        assert policy.classify(corrupt) == ("corrupt", corrupt)

    def test_source_change_is_never_absorbed(self):
        from repro.errors import ChunkDecodeError, SourceChangedError

        policy = self.policy()
        error = self.chained(ChunkDecodeError("x"), SourceChangedError("new"))
        with pytest.raises(ChunkDecodeError):
            policy.fill(error, self.record())
        assert policy.report.regions == []

    def test_regions_and_one_instant_each(self):
        from repro.errors import ChunkDecodeError, IndexIntegrityError
        from repro.recovery import DamagedRegion

        policy = self.policy()
        record = self.record()
        filled = policy.fill(ChunkDecodeError("gone"), record)
        assert filled == b"?" * 50
        policy.integrity("ISIZE mismatch", record)
        policy.index_rejected(IndexIntegrityError("stale", check="footer"))
        assert policy.report.regions == [
            DamagedRegion("corrupt", 800, resume_bit=1600, output_offset=100,
                          skipped_bits=800, unresolved_markers=50,
                          detail="gone"),
            DamagedRegion("integrity", 800, resume_bit=1600,
                          output_offset=100, detail="ISIZE mismatch"),
            DamagedRegion("index", 0,
                          detail="cached index rejected: [footer] stale"),
        ]
        instants = [
            event["args"]["kind"] for event in self.telemetry.recorder.events()
            if event["name"] == "reader.damage"
        ]
        assert instants == ["corrupt", "integrity", "index"]

    def test_index_rejection_is_recorded_in_strict_mode(self):
        from repro.errors import IndexIntegrityError

        policy = self.policy(tolerate=False)
        policy.index_rejected(IndexIntegrityError("torn", check="truncated"))
        assert [region.kind for region in policy.report.regions] == ["index"]

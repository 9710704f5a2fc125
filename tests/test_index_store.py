"""Crash-safe persistent index tier (:mod:`repro.index.store`).

Four pillars, mirroring the issue's acceptance criteria:

* **Round-trip and rejection units** — v2 save/load, v1 dispatch,
  future-version, truncation and count rejection with named checks
  (crafted files re-sealed with a valid footer CRC reach the structural
  checks behind it), fingerprints.
* **Chaos matrix** — seeded ``flip_bytes``/``truncate`` damage to the
  cached index file and injected faults at every index fault site
  (``index.load``/``index.window``/``index.export``). The invariant
  everywhere: **the damaged index is rejected at load, bytes out are
  identical to a fresh decode, no exception escapes, the incident is
  recorded** (differential safety).
* **Self-heal** — a rejected cache is silently replaced by a freshly
  exported one on the next full decode.
* **Concurrency** — simultaneous readers over one cache directory and
  an export racing a reader
  (last-writer-wins; nobody crashes, nobody reads torn files).

Deterministic throughout: damage is seeded, so a red run replays.
"""

import gzip as stdlib_gzip
import io
import os
import random
import struct
import threading
import zlib

import pytest

from repro import faults
from repro.errors import IndexIntegrityError, UsageError
from repro.faults import FaultSpec, flip_bytes, injected, truncate
from repro.index import (
    GzipIndex,
    INDEX_MAGIC_V2,
    INDEX_TRAILER_V2,
    SourceFingerprint,
    cache_path,
    fingerprint_source,
    load_index,
    save_index,
    window_bytes,
)
from repro.index.store import index_to_bytes_v2
from repro.reader import ParallelGzipReader

from .test_index import _v1_of

CHUNK = 32 * 1024

# Incompressible payload so the compressed stream spans many chunks and
# the index carries several real 32 KiB windows.
DATA = random.Random(0xC0FFEE).getrandbits(8 * 300_000).to_bytes(300_000, "little")
BLOB = stdlib_gzip.compress(DATA, 6)


def read_all(reader) -> bytes:
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


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("index-store")
    source = root / "data.gz"
    source.write_bytes(BLOB)
    return source


@pytest.fixture(scope="module")
def index_file(corpus, tmp_path_factory):
    """A pristine v2 index for ``corpus``, built once by a real decode."""
    target = tmp_path_factory.mktemp("pristine") / "data.rpzidx"
    with ParallelGzipReader(
        str(corpus), parallelization=2, chunk_size=CHUNK
    ) as reader:
        while reader.read(1 << 20):
            pass
        reader.export_index(str(target))
    return target


def open_with_cache(corpus, cache_dir, **kwargs):
    kwargs.setdefault("parallelization", 2)
    kwargs.setdefault("chunk_size", CHUNK)
    return ParallelGzipReader(str(corpus), index_cache=str(cache_dir), **kwargs)


def reseal(blob, keep: int = None) -> bytes:
    """``blob`` (a mutated v2 file) with its footer CRC recomputed, its
    body first cut to ``keep`` bytes when given: a crafted file the
    whole-file checksum accepts, so the structural check behind it is
    the one that must reject it."""
    footer = struct.Struct("<I8s")  # body CRC-32 | trailer magic
    body = bytes(blob[: -footer.size])[:keep]
    return body + footer.pack(zlib.crc32(body), INDEX_TRAILER_V2)


def seed_cache(corpus, index_file, cache_dir) -> str:
    """Place the pristine index where the auto-import will find it."""
    target = cache_path(str(cache_dir), str(corpus))
    os.makedirs(str(cache_dir), exist_ok=True)
    with open(index_file, "rb") as handle:
        blob = handle.read()
    with open(target, "wb") as handle:
        handle.write(blob)
    return target


# ---------------------------------------------------------------------------
# Round-trip and rejection units
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_v2_round_trip(self, corpus):
        with ParallelGzipReader(
            str(corpus), parallelization=2, chunk_size=CHUNK
        ) as reader:
            while reader.read(1 << 20):
                pass
            original = reader.index
            blob = index_to_bytes_v2(
                original, fingerprint=fingerprint_source(str(corpus))
            )
        loaded = load_index(blob, source=str(corpus))
        assert loaded.finalized
        assert len(loaded) == len(original) > 3
        for point, restored in zip(original, loaded):
            assert restored.compressed_bit_offset == (
                point.compressed_bit_offset
            )
            assert restored.uncompressed_offset == point.uncompressed_offset
            # Every window is checked and inflated before load returns.
            assert type(restored.window) is bytes
            assert restored.window == window_bytes(point.window)

    def test_v2_magic_on_disk(self, index_file):
        with open(index_file, "rb") as handle:
            assert handle.read(8) == INDEX_MAGIC_V2

    def test_v1_blob_dispatch(self):
        index = GzipIndex()
        from repro.index import SeekPoint

        index.add(SeekPoint(100, 0, b"", is_stream_start=True))
        index.add(SeekPoint(2000, 5000, b"x" * 32768))
        index.finalize(10000, 4000)
        loaded = load_index(_v1_of(index))
        assert len(loaded) == 2
        assert loaded.finalized

    def test_stream_export_is_v2_and_bound_to_its_source(self, corpus):
        sink = io.BytesIO()
        with ParallelGzipReader(
            str(corpus), parallelization=2, chunk_size=CHUNK
        ) as reader:
            reader.export_index(sink)
        blob = sink.getvalue()
        assert blob.startswith(INDEX_MAGIC_V2)
        assert len(load_index(blob, source=str(corpus))) > 3
        other = stdlib_gzip.compress(DATA[::-1], 6)
        with pytest.raises(IndexIntegrityError) as info:
            load_index(blob, source=other)
        assert info.value.check == "fingerprint"

    def test_unfinalized_index_not_exportable(self):
        index = GzipIndex()
        with pytest.raises(UsageError, match="finalized"):
            index_to_bytes_v2(index)

    def test_future_version_rejected(self, index_file):
        blob = bytearray(index_file.read_bytes())
        blob[8] = 9  # version byte
        with pytest.raises(IndexIntegrityError) as info:
            load_index(reseal(blob))
        assert info.value.check == "version"

    def test_truncation_rejected_with_named_check(self, index_file):
        blob = index_file.read_bytes()
        for keep in (0, 4, 7, 20, len(blob) // 2, len(blob) - 3):
            with pytest.raises(IndexIntegrityError) as info:
                load_index(truncate(blob, keep=keep))
            assert info.value.check in {"truncated", "trailer"}, (
                f"keep={keep} -> {info.value.check}"
            )
        # Re-sealed, a cut body passes the footer CRC and runs into the
        # truncation checks of the parse itself.
        for keep in (0, 4, 7, 20, 32 + 40 + 10, len(blob) // 2):
            with pytest.raises(IndexIntegrityError) as info:
                load_index(reseal(blob, keep=keep))
            assert info.value.check == "truncated", f"keep={keep}"

    def test_impossible_point_count_rejected(self, index_file):
        blob = bytearray(index_file.read_bytes())
        struct.pack_into("<I", blob, 28, 1 << 30)  # header point count
        with pytest.raises(IndexIntegrityError,
                           match="cannot fit") as info:
            load_index(reseal(blob))
        assert info.value.check == "truncated"

    def test_footer_crc_rejected_eagerly(self, index_file):
        blob = bytearray(index_file.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(IndexIntegrityError) as info:
            load_index(bytes(blob))
        assert info.value.check == "footer_crc"

    def test_window_crc_rejected_at_load(self, index_file):
        blob = bytearray(index_file.read_bytes())
        # Past the 32-byte header, the 40-byte fingerprint and point 0's
        # 29-byte record: the first byte of point 0's window.
        blob[32 + 40 + 29] ^= 0xFF
        with pytest.raises(IndexIntegrityError) as info:
            load_index(reseal(blob))
        assert (info.value.check, info.value.point) == ("window_crc", 0)

    def test_unknown_policy_rejected(self, index_file):
        for policy in ("lazy", "off", "paranoid"):
            with pytest.raises(UsageError):
                load_index(str(index_file), validate=policy)

    def test_cache_path_stable_and_distinct(self, tmp_path):
        a = cache_path(str(tmp_path), "/data/one.gz")
        b = cache_path(str(tmp_path), "/data/one.gz")
        c = cache_path(str(tmp_path), "/elsewhere/one.gz")
        assert a == b
        assert a != c  # same basename, different source path
        assert a.endswith(".rpzidx")


class TestFingerprint:
    def test_fingerprint_stable(self, corpus):
        assert fingerprint_source(str(corpus)) == fingerprint_source(
            str(corpus)
        )

    def test_changed_source_rejected(self, corpus, index_file, tmp_path):
        changed = tmp_path / "changed.gz"
        blob = bytearray(corpus.read_bytes())
        blob[10] ^= 0xFF
        changed.write_bytes(bytes(blob))
        with pytest.raises(IndexIntegrityError) as info:
            load_index(str(index_file), source=str(changed))
        assert info.value.check == "fingerprint"

    def test_resized_source_rejected(self, corpus, index_file, tmp_path):
        grown = tmp_path / "grown.gz"
        grown.write_bytes(corpus.read_bytes() + b"tail")
        with pytest.raises(IndexIntegrityError) as info:
            load_index(str(index_file), source=str(grown))
        assert info.value.check == "fingerprint"

    def test_mtime_is_advisory(self, corpus, index_file, tmp_path):
        copy = tmp_path / "data.gz"
        copy.write_bytes(corpus.read_bytes())
        os.utime(copy, (1_000_000, 1_000_000))
        loaded = load_index(str(index_file), source=str(copy))
        assert loaded.finalized  # same bytes, different mtime: accepted

    def test_mismatch_names_failing_check(self):
        base = SourceFingerprint(size=10, mtime_ns=0, head_crc=1, tail_crc=2,
                                 stride_crc=3, sample_size=4, stride=5)
        assert base.mismatch(base) == ""
        grown = SourceFingerprint(size=11, mtime_ns=0, head_crc=1, tail_crc=2,
                                  stride_crc=3, sample_size=4, stride=5)
        assert "size" in base.mismatch(grown)


class TestAtomicExport:
    def test_replace_is_atomic_and_clean(self, corpus, index_file, tmp_path):
        target = tmp_path / "out.rpzidx"
        target.write_bytes(b"stale previous contents")
        index = load_index(str(index_file))
        save_index(index, str(target), source=str(corpus))
        reloaded = load_index(str(target), source=str(corpus))
        assert len(reloaded) == len(index)
        # No staging litter left beside the target.
        assert os.listdir(tmp_path) == ["out.rpzidx"]

    def test_failed_export_preserves_previous_file(self, corpus, index_file,
                                                   tmp_path):
        target = tmp_path / "out.rpzidx"
        index = load_index(str(index_file))
        save_index(index, str(target), source=str(corpus))
        before = target.read_bytes()
        with injected(
            seed=1, specs=[FaultSpec("index.export", "raise", error="index")]
        ):
            with pytest.raises(IndexIntegrityError):
                save_index(index, str(target), source=str(corpus))
        assert target.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.rpzidx"]


# ---------------------------------------------------------------------------
# Cache lifecycle: cold export, warm import, self-heal
# ---------------------------------------------------------------------------


class TestCacheLifecycle:
    def test_cold_then_warm(self, corpus, tmp_path):
        cold = open_with_cache(corpus, tmp_path)
        assert read_all(cold) == DATA
        stats = cold.statistics()["index"]
        assert not stats["imported"]
        assert stats["exported"]
        assert os.path.exists(cache_path(str(tmp_path), str(corpus)))

        warm = open_with_cache(corpus, tmp_path)
        assert read_all(warm) == DATA
        stats = warm.statistics()["index"]
        assert stats["imported"]
        assert stats["index_chunks"] > 0  # zlib-delegated fast path used
        assert stats["load_failures"] == 0

    def test_rejected_cache_self_heals(self, corpus, index_file, tmp_path):
        target = seed_cache(corpus, index_file, tmp_path)
        with open(target, "r+b") as handle:  # corrupt the cached copy
            handle.seek(40)
            handle.write(b"\xff\xff\xff\xff")
        healer = open_with_cache(corpus, tmp_path)
        assert read_all(healer) == DATA
        stats = healer.statistics()["index"]
        assert stats["load_failures"] == 1
        assert stats["exported"], "healed index should be re-exported"
        # The replacement cache imports cleanly.
        fresh = open_with_cache(corpus, tmp_path)
        assert read_all(fresh) == DATA
        assert fresh.statistics()["index"]["imported"]


# ---------------------------------------------------------------------------
# Chaos matrix: seeded damage, rejected at load, differential safety
# ---------------------------------------------------------------------------


# How chunks are decoded after a rejected cache sends the reader back to
# a search: "eager" prefetches ahead of the consumer (the default);
# "lazy" runs under a memory budget smaller than one chunk, so every
# speculative decode is declined and each chunk is decoded on demand.
DECODE = {"eager": {}, "lazy": {"max_memory": "16KiB"}}


def open_decoding(corpus, cache_dir, decode):
    return open_with_cache(corpus, cache_dir, **DECODE[decode])


def assert_rejected_at_load(reader, decode: str = "eager") -> None:
    stats = reader.statistics()
    assert stats["index"]["load_failures"] == 1
    assert not stats["index"]["imported"]
    assert stats["damaged_regions"] >= 1
    if decode == "lazy":  # the budget did turn speculation away
        assert stats["memory"]["backpressure_stalls"] >= 1


class TestChaosMatrix:
    @pytest.mark.parametrize("decode", ["eager", "lazy"])
    @pytest.mark.parametrize("seed", range(6))
    def test_flipped_cache_bytes_identical_output(
        self, corpus, index_file, tmp_path, seed, decode
    ):
        target = seed_cache(corpus, index_file, tmp_path)
        blob = index_file.read_bytes()
        with open(target, "wb") as handle:
            handle.write(flip_bytes(blob, seed=seed, flips=4))
        reader = open_decoding(corpus, tmp_path, decode)
        assert read_all(reader) == DATA, (
            f"corrupted cache changed output (seed={seed}, {decode})"
        )
        # The footer CRC covers every byte: any flip fails the load.
        assert_rejected_at_load(reader, decode)

    @pytest.mark.parametrize("decode", ["eager", "lazy"])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9, 0.99])
    def test_truncated_cache_bytes_identical_output(
        self, corpus, index_file, tmp_path, fraction, decode
    ):
        target = seed_cache(corpus, index_file, tmp_path)
        with open(target, "wb") as handle:
            handle.write(truncate(index_file.read_bytes(), fraction=fraction))
        reader = open_decoding(corpus, tmp_path, decode)
        assert read_all(reader) == DATA
        assert_rejected_at_load(reader, decode)

    @pytest.mark.parametrize("decode", ["eager", "lazy"])
    def test_injected_load_fault(self, corpus, index_file, tmp_path,
                                 decode):
        seed_cache(corpus, index_file, tmp_path)
        with injected(
            seed=3, specs=[FaultSpec("index.load", "raise", error="index")]
        ):
            reader = open_decoding(corpus, tmp_path, decode)
            assert read_all(reader) == DATA
        assert_rejected_at_load(reader, decode)

    def test_injected_window_fault_eager_rejects_at_load(
        self, corpus, index_file, tmp_path
    ):
        seed_cache(corpus, index_file, tmp_path)
        with injected(
            seed=5, specs=[FaultSpec("index.window", "raise", error="index")]
        ):
            reader = open_with_cache(corpus, tmp_path)
            assert read_all(reader) == DATA
        assert_rejected_at_load(reader)

    def test_injected_export_fault_is_tolerated(self, corpus, tmp_path):
        with injected(
            seed=7, specs=[FaultSpec("index.export", "raise", error="index")]
        ):
            reader = open_with_cache(corpus, tmp_path)
            assert read_all(reader) == DATA
        stats = reader.statistics()["index"]
        assert not stats["exported"]
        assert stats["export_failures"] == 1
        assert not os.path.exists(cache_path(str(tmp_path), str(corpus)))

    def test_differential_safety_against_fresh_decode(
        self, corpus, index_file, tmp_path
    ):
        """The headline invariant: for every damage seed, a reader served
        from a corrupted cache produces bytes identical to an index-free
        decode, with the incident recorded and exit path clean."""
        fresh = ParallelGzipReader(str(corpus), parallelization=2,
                                   chunk_size=CHUNK)
        expected = read_all(fresh)
        assert expected == DATA
        blob = index_file.read_bytes()
        for seed in range(8):
            target = seed_cache(corpus, index_file, tmp_path)
            with open(target, "wb") as handle:
                handle.write(flip_bytes(blob, seed=seed, flips=6))
            reader = open_with_cache(corpus, tmp_path)
            assert read_all(reader) == expected, (
                f"differential mismatch seed={seed}"
            )
            assert_rejected_at_load(reader)


# ---------------------------------------------------------------------------
# zlib-delegation integrity (regression: silent stored-block corruption)
# ---------------------------------------------------------------------------


class TestDelegationIntegrity:
    """The warm path's zlib fast path is checked, never trusted.

    Regression: on all-stored-block streams (incompressible data) seek
    points land inside the previous block's padding, the bit shift
    desynchronizes stored LEN/NLEN fields, and one corpus in 2^16 made
    zlib emit exact-length garbage that the old code accepted silently.
    The module-level DATA/BLOB corpus is exactly such a stream.
    """

    def test_corpus_is_the_nasty_shape(self):
        # Incompressible input -> stored blocks; the guard below is what
        # keeps this test meaningful if the corpus generator changes.
        assert len(BLOB) > len(DATA) * 0.999

    def test_index_mode_decode_of_stored_stream_is_exact(self, corpus,
                                                         index_file):
        index = load_index(str(index_file), source=str(corpus))
        reader = ParallelGzipReader(str(corpus), parallelization=2,
                                    index=index)
        assert read_all(reader) == DATA

    def test_unaligned_stored_start_refused(self, corpus, index_file):
        from repro.errors import FormatError
        from repro.fetcher.decode import zlib_decode_range
        from repro.io import ensure_file_reader

        index = load_index(str(index_file), source=str(corpus))
        first, second = index.seek_points[1], index.seek_points[2]
        assert first.compressed_bit_offset % 8, "corpus lost its misalignment"
        file_reader = ensure_file_reader(str(corpus))
        try:
            with pytest.raises(FormatError, match="stored block"):
                zlib_decode_range(
                    file_reader,
                    first.compressed_bit_offset,
                    second.compressed_bit_offset,
                    window_bytes(first.window),
                )
        finally:
            file_reader.close()

    def test_tail_window_mismatch_refused(self, tmp_path):
        from repro.errors import FormatError
        from repro.fetcher.decode import zlib_decode_range
        from repro.io import ensure_file_reader

        # Hex text: compressible enough for Huffman blocks (so the zlib
        # path genuinely delegates) yet bulky enough to span chunks.
        text = DATA.hex().encode()
        source = tmp_path / "text.gz"
        source.write_bytes(stdlib_gzip.compress(text, 6))
        with ParallelGzipReader(str(source), parallelization=2,
                                chunk_size=CHUNK) as reader:
            while reader.read(1 << 20):
                pass
            index = reader.index
        points = index.seek_points
        assert len(points) >= 2
        file_reader = ensure_file_reader(str(source))
        try:
            expected = points[1].uncompressed_offset
            good = zlib_decode_range(
                file_reader, points[0].compressed_bit_offset,
                points[1].compressed_bit_offset, b"",
                expected_size=expected,
                next_window=bytes(points[1].window),
            )
            assert good.payload.materialize(b"") == text[:expected]
            with pytest.raises(FormatError, match="next seek point"):
                zlib_decode_range(
                    file_reader, points[0].compressed_bit_offset,
                    points[1].compressed_bit_offset, b"",
                    expected_size=expected,
                    next_window=b"\x00" * 32768,
                )
        finally:
            file_reader.close()

    def test_final_chunk_must_reach_stream_end(self, corpus, index_file):
        from repro.errors import FormatError
        from repro.fetcher.decode import zlib_decode_range
        from repro.io import ensure_file_reader

        index = load_index(str(index_file), source=str(corpus))
        last = index.seek_points[-1]
        file_reader = ensure_file_reader(str(corpus))
        try:
            with pytest.raises(FormatError):
                zlib_decode_range(
                    file_reader, last.compressed_bit_offset,
                    index.compressed_size_bits,
                    window_bytes(last.window),
                    require_stream_end=True,
                )
        finally:
            file_reader.close()

    def test_member_boundary_after_a_shifted_head(self):
        # A range that starts mid-member at an unaligned bit and runs
        # past a footer into the next member: the shifted head is read
        # once, the byte-aligned rest once more, never the rest per member.
        from repro.datagen import generate_silesia_like
        from repro.fetcher.decode import zlib_decode_range
        from repro.io import SharedFileReader

        parts = [generate_silesia_like(150_000, seed=k) for k in range(3)]
        text = b"".join(parts)
        blob = b"".join(stdlib_gzip.compress(part, 6) for part in parts)
        with ParallelGzipReader(blob, chunk_size=CHUNK) as reader:
            assert read_all(reader) == text
            points = reader.index.seek_points
        crossed = 0
        for first, last in zip(points, points[2:]):
            if not first.compressed_bit_offset % 8:
                continue
            source = SharedFileReader(blob)
            result = zlib_decode_range(
                source, first.compressed_bit_offset,
                last.compressed_bit_offset, bytes(first.window),
                expected_size=last.uncompressed_offset
                - first.uncompressed_offset,
            )
            assert result.payload.materialize(b"") == text[
                first.uncompressed_offset : last.uncompressed_offset
            ]
            footers = [e for e in result.events if e.kind == "footer"]
            if footers and footers[-1].local_offset < result.length:
                crossed += 1
                span = (last.compressed_bit_offset + 7) // 8 \
                    - first.compressed_bit_offset // 8
                assert source.bytes_read <= 2 * span + 64
        assert crossed, "corpus lost its mid-member boundary crossings"


# ---------------------------------------------------------------------------
# Concurrency: shared cache directory, last-writer-wins
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_two_readers_share_one_cache_dir(self, corpus, tmp_path):
        results = {}
        errors = []

        def run(name):
            try:
                reader = open_with_cache(corpus, tmp_path)
                results[name] = read_all(reader)
            except Exception as error:  # pragma: no cover - failure detail
                errors.append((name, error))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert results[0] == results[1] == DATA
        # Whoever exported last, the survivor must be importable.
        survivor = load_index(
            cache_path(str(tmp_path), str(corpus)),
            source=str(corpus),
        )
        assert survivor.finalized

    @pytest.mark.parametrize("backend", ["threads"])
    def test_export_races_reader(self, corpus, index_file, tmp_path, backend):
        """One reader mid-decode while another finishes and exports into
        the same cache slot: last writer wins, nobody reads torn data."""
        seed_cache(corpus, index_file, tmp_path)
        reader = open_with_cache(corpus, tmp_path)
        first = reader.read(CHUNK)  # decode under way, cache imported
        exporter = open_with_cache(corpus, tmp_path)
        assert read_all(exporter) == DATA  # re-exports over the cache slot
        assert reader.statistics()["backend"] == backend
        rest = read_all(reader)
        assert first + rest == DATA
        survivor = load_index(
            cache_path(str(tmp_path), str(corpus)),
            source=str(corpus),
        )
        assert survivor.finalized

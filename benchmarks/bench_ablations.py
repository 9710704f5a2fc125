"""Ablations of the design choices DESIGN.md calls out.

Not part of the paper's tables, but each ablation isolates one mechanism
the paper credits for its performance:

* **prefetch strategy** — adaptive vs fixed vs none (prefetch hits,
  on-demand decodes and speculation on sequential and random access),
* **prefetch cache size** — the 2P sizing rule vs a starved cache,
* **marker fallback** — the §3.3 fall-back to conventional decoding once
  the window is marker-free (decode bandwidth on marker-free data),
* **precode quick-reject LUT** — §3.4.2's histogram pre-filter,
* **zlib delegation** — the index fast path vs forcing the custom decoder.
"""

import io
import random
import time

import pytest

from repro.cache import FetchNextAdaptive, FetchNextFixed, LRUCache, PrefetchStrategy
from repro.datagen import generate_base64
from repro.fetcher import GzipChunkFetcher
from repro.gz.writer import compress as gz_compress
from repro.index import load_index
from repro.io import BitReader
from repro.reader import ParallelGzipReader, ReaderOptions
from repro.gz.header import parse_gzip_header

from conftest import fmt_bw


class NoPrefetch(PrefetchStrategy):
    def prefetch(self, history, degree):
        return []


def drive_fetcher(blob: bytes, strategy, parallelization=3, chunk_size=48 * 1024):
    fetcher = GzipChunkFetcher(blob, ReaderOptions(
        parallelization=parallelization, chunk_size=chunk_size,
        strategy=strategy,
    ))
    try:
        reader = BitReader(blob)
        parse_gzip_header(reader)
        start, window = reader.tell(), b""
        while True:
            result = fetcher.request(start, window)
            if result.end_bit is None:
                break
            window = (
                b"" if result.end_is_stream_start
                else result.payload.window_at_end(window)
            )
            start = result.end_bit
        return fetcher.statistics()
    finally:
        fetcher.close()


def drive_random(blob: bytes, index: bytes, strategy, offsets,
                 parallelization=3):
    """4 KiB reads at ``offsets`` through an imported index."""
    with ParallelGzipReader(
        blob, index=load_index(index), parallelization=parallelization,
        strategy=strategy,
    ) as reader:
        for offset in offsets:
            reader.read_at(offset, 4096)
        return reader.statistics()


def random_chunk_starts(index: bytes, reads: int, seed: int) -> list:
    """Seek-point offsets in random order, never the same or an adjacent
    point twice in a row."""
    points = [point.uncompressed_offset
              for point in load_index(index).seek_points]
    rng = random.Random(seed)
    chosen = [rng.randrange(len(points))]
    while len(chosen) < reads:
        candidate = rng.randrange(len(points))
        if abs(candidate - chosen[-1]) > 1:
            chosen.append(candidate)
    return [points[chunk] for chunk in chosen]


def test_ablation_prefetch_strategy(benchmark, reporter):
    data = generate_base64(1024 * 1024, seed=20)
    blob = gz_compress(data, "pigz")
    with ParallelGzipReader(
        blob, parallelization=3, chunk_size=48 * 1024
    ) as reader:
        reader.read()
        sink = io.BytesIO()
        reader.export_index(sink)
    index = sink.getvalue()
    offsets = random_chunk_starts(index, reads=24, seed=22)
    strategies = {
        "adaptive (paper default)": FetchNextAdaptive,
        "fixed-next": FetchNextFixed,
        "no prefetch": NoPrefetch,
    }

    def run():
        return {
            (name, access): (
                drive_fetcher(blob, strategy()) if access == "sequential"
                else drive_random(blob, index, strategy(), offsets)
            )
            for access in ("sequential", "random")
            for name, strategy in strategies.items()
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    table = reporter("Ablation: prefetch strategy (sequential full read, "
                     f"{len(offsets)} random 4 KiB reads)")
    widths = [26, 10, 14, 10, 12]
    table.row("strategy", "access", "prefetch hits", "on-demand",
              "speculative", widths=widths)
    for (name, access), stat in stats.items():
        table.row(name, access, stat["prefetch_cache"]["hits"],
                  stat["on_demand_decodes"], stat["speculative_submitted"],
                  widths=widths)
    table.add("(no prefetch => every chunk is an on-demand decode; the")
    table.add(" adaptive strategy hides chunk latency behind the pool and,")
    table.add(" on random access, speculates only on its first access)")
    table.emit()
    adaptive = stats["adaptive (paper default)", "sequential"]
    assert stats["no prefetch", "sequential"]["on_demand_decodes"] > (
        adaptive["on_demand_decodes"]
    )
    assert adaptive["prefetch_cache"]["hits"] > 0
    # Only the first random access wishes the full degree (P = 3).
    assert stats["adaptive (paper default)", "random"][
        "speculative_submitted"] <= 3


def test_ablation_prefetch_cache_size(benchmark, reporter):
    data = generate_base64(1024 * 1024, seed=21)
    blob = gz_compress(data, "pigz")

    def run(cache_size):
        fetcher = GzipChunkFetcher(
            blob, ReaderOptions(parallelization=3, chunk_size=48 * 1024),
            prefetch_cache_size=cache_size,
        )
        try:
            reader = BitReader(blob)
            parse_gzip_header(reader)
            start, window = reader.tell(), b""
            while True:
                result = fetcher.request(start, window)
                if result.end_bit is None:
                    break
                window = result.payload.window_at_end(window)
                start = result.end_bit
            return fetcher.statistics()
        finally:
            fetcher.close()

    def sweep():
        return {size: run(size) for size in (1, 2, 6, 12)}

    stats = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = reporter("Ablation: prefetch cache capacity (paper: 2 x P)")
    table.row("capacity", "hits", "evictions", "on-demand", widths=[9, 8, 10, 10])
    for size, stat in stats.items():
        cache = stat["prefetch_cache"]
        table.row(size, cache["hits"], cache["evictions"],
                  stat["on_demand_decodes"], widths=[9, 8, 10, 10])
    table.emit()
    # A starved cache (capacity 1) must lose speculative results.
    assert stats[1]["on_demand_decodes"] >= stats[6]["on_demand_decodes"]


def test_ablation_marker_fallback(benchmark, reporter):
    """§3.3 fallback: decode marker-free data with and without it."""
    import zlib

    from repro.deflate.inflate import TwoStageStreamDecoder
    from repro.deflate import MAX_WINDOW_SIZE

    rng = random.Random(30)
    data = bytes(rng.randrange(256) for _ in range(256 * 1024))
    compressed = zlib.compress(data, 1)[2:-4]

    def decode(disable_fallback: bool) -> float:
        start = time.perf_counter()
        decoder = TwoStageStreamDecoder(window=None)
        if disable_fallback:
            # Pin the conservative marker bound so the trailing window
            # never looks clean — the decoder stays in 16-bit mode.
            decoder._maybe_fall_back = lambda: None
        reader = BitReader(compressed)
        while not decoder.read_and_decode_block(reader).final:
            pass
        payload = decoder.finish()
        elapsed = time.perf_counter() - start
        assert payload.materialize(b"") == data
        return len(data) / elapsed

    with_fallback = benchmark.pedantic(decode, args=(False,), rounds=1,
                                       iterations=1)
    without_fallback = decode(True)
    table = reporter("Ablation: fallback to conventional decoding (§3.3)")
    table.row("variant", "bandwidth", widths=[22, 14])
    table.row("with fallback", fmt_bw(with_fallback), widths=[22, 14])
    table.row("fallback disabled", fmt_bw(without_fallback), widths=[22, 14])
    table.add("(paper: the fallback is what makes base64 data behave like")
    table.add(" single-stage decompression, §4.4)")
    table.emit()
    assert with_fallback > without_fallback


def test_ablation_quick_reject_lut(benchmark, reporter):
    """§3.4.2 histogram pre-filter: rejection rate on random headers."""
    import numpy as np

    from repro.huffman import classify_packed_histogram, packed_histogram, quick_reject
    from repro.huffman.canonical import CodeClassification

    rng = np.random.default_rng(40)
    samples = [
        (int(bits), int(count))
        for bits, count in zip(
            rng.integers(0, 1 << 57, size=4000), rng.integers(4, 20, size=4000)
        )
    ]

    def census():
        rejected_fast = 0
        rejected_exact = 0
        for bits, count in samples:
            packed = packed_histogram(bits, count)
            if quick_reject(packed):
                rejected_fast += 1
            if classify_packed_histogram(packed) is not CodeClassification.VALID:
                rejected_exact += 1
        return rejected_fast, rejected_exact

    fast, exact = benchmark.pedantic(census, rounds=1, iterations=1)
    table = reporter("Ablation: precode quick-reject LUT (§3.4.2)")
    table.add(f"random precodes rejected by 20-bit LUT alone: {fast}/{len(samples)}")
    table.add(f"rejected by the exact walk:                   {exact}/{len(samples)}")
    table.add(f"LUT coverage of exact filter: {fast / max(exact, 1):.0%} "
              "at a single table lookup")
    table.emit()
    assert fast <= exact  # sound: never rejects a valid code
    assert fast > 0.5 * exact  # and catches most invalid ones early


def test_ablation_zlib_delegation(benchmark, reporter):
    """Index fast path: zlib delegation vs forcing the custom decoder."""
    import io

    from repro.index import load_index
    from repro.reader import ParallelGzipReader

    data = generate_base64(1024 * 1024, seed=22)
    blob = gz_compress(data, "gzip", level=1)
    with ParallelGzipReader(blob, chunk_size=64 * 1024) as reader:
        sink = io.BytesIO()
        reader.export_index(sink)
    index = load_index(sink.getvalue(), source=blob)

    def timed_read(**kwargs) -> float:
        start = time.perf_counter()
        with ParallelGzipReader(blob, parallelization=2, **kwargs) as reader:
            assert reader.read() == data
        return len(data) / (time.perf_counter() - start)

    indexed = benchmark.pedantic(
        lambda: timed_read(index=index), rounds=1, iterations=1
    )
    searched = timed_read(chunk_size=64 * 1024)
    table = reporter("Ablation: zlib delegation via the index (§3.3)")
    table.row("mode", "bandwidth", widths=[24, 14])
    table.row("index (zlib delegated)", fmt_bw(indexed), widths=[24, 14])
    table.row("no index (custom decode)", fmt_bw(searched), widths=[24, 14])
    table.add(f"speedup: {indexed / searched:.1f}x (paper: 'more than twice')")
    table.emit()
    assert indexed > 2 * searched

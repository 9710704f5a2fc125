"""Table 2: component bandwidths of the implementation.

Measures every component the paper benchmarks, reports absolute numbers
for *this* implementation and compares the *ratios* against the paper's
(the pure-Python absolutes are of course far lower; what must reproduce is
which component is how much faster than which — 28x custom-parser over
zlib-trial, ~6x skip-LUT over custom parser, NBF ~7x over the best DBF,
marker replacement an order of magnitude above decoding).
"""

import zlib

import numpy as np
import pytest

from repro.blockfinder import (
    DynamicBlockFinder,
    DynamicBlockFinderCustomTrial,
    DynamicBlockFinderSkipLUT,
    DynamicBlockFinderZlibTrial,
    PugzBlockFinder,
    UncompressedBlockFinder,
    VectorizedDynamicBlockFinder,
)
from repro.datagen import generate_silesia_like
from repro.deflate import inflate
from repro.deflate.markers import pad_window, replace_markers

from conftest import fmt_bw

#: Paper Table 2, MB/s. ("DBF skip-LUT+packed" has no paper row: it is the
#: scalar variant whose optimizations the paper folds into "DBF rapidgzip";
#: our production "DBF rapidgzip" is the vectorized filter chain.)
PAPER = {
    "DBF zlib": 0.1234,
    "DBF custom deflate": 3.403,
    "Pugz block finder": 11.3,
    "DBF skip-LUT": 18.26,
    "DBF skip-LUT+packed": 43.1,
    "DBF rapidgzip": 43.1,
    "NBF": 301.8,
    "Marker replacement": 1254.0,
    "Write to /dev/shm/": 3799.0,
    "Count newlines": 9550.0,
}

_results = {}


def _noise(size: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(
        0, 256, size=size, dtype=np.uint8
    ).tobytes()


def _scan(finder_class, data: bytes, until_bits: int):
    finder = finder_class(data)
    list(finder.iter_candidates(0, until=until_bits))
    return until_bits / 8


def _record(benchmark, name: str, nbytes: float):
    _results[name] = nbytes / benchmark.stats.stats.min


def test_dbf_zlib_trial(benchmark):
    data = _noise(4096)
    benchmark.pedantic(
        _scan, args=(DynamicBlockFinderZlibTrial, data, 1024), rounds=2, iterations=1
    )
    _record(benchmark, "DBF zlib", 1024 / 8)


def test_dbf_custom_trial(benchmark):
    data = _noise(16 * 1024)
    benchmark.pedantic(
        _scan, args=(DynamicBlockFinderCustomTrial, data, 40_000), rounds=2,
        iterations=1,
    )
    _record(benchmark, "DBF custom deflate", 40_000 / 8)


def test_pugz_block_finder(benchmark):
    data = _noise(16 * 1024)
    benchmark.pedantic(
        _scan, args=(PugzBlockFinder, data, 16_000), rounds=2, iterations=1
    )
    _record(benchmark, "Pugz block finder", 16_000 / 8)


def test_dbf_skip_lut(benchmark):
    data = _noise(64 * 1024)
    benchmark.pedantic(
        _scan, args=(DynamicBlockFinderSkipLUT, data, 300_000), rounds=2,
        iterations=1,
    )
    _record(benchmark, "DBF skip-LUT", 300_000 / 8)


def test_dbf_skip_lut_packed(benchmark):
    # The scalar skip-LUT + packed-histogram finder: in C++ this is the
    # production finder; in Python the per-position interpreter dispatch
    # makes it *slower* than the plain trial parser — an honestly reported
    # inversion (see the report note below).
    data = _noise(16 * 1024)
    benchmark.pedantic(
        _scan, args=(DynamicBlockFinder, data, 60_000), rounds=2, iterations=1
    )
    _record(benchmark, "DBF skip-LUT+packed", 60_000 / 8)


def test_dbf_rapidgzip(benchmark):
    # Production finder: the NumPy-vectorized filter chain — the Python
    # analogue of the paper's bit-level parallelism (§3.4.2).
    data = _noise(512 * 1024)
    benchmark.pedantic(
        _scan, args=(VectorizedDynamicBlockFinder, data, len(data) * 8 - 80),
        rounds=2, iterations=1,
    )
    _record(benchmark, "DBF rapidgzip", len(data) - 10)


def test_nbf(benchmark):
    data = _noise(8 << 20)
    benchmark.pedantic(
        _scan, args=(UncompressedBlockFinder, data, len(data) * 8), rounds=3,
        iterations=1,
    )
    _record(benchmark, "NBF", len(data))


def test_marker_replacement(benchmark):
    rng = np.random.default_rng(1)
    segment = rng.integers(0, 1 << 16, size=4 << 20, dtype=np.uint16)
    window = pad_window(_noise(32 * 1024, seed=2))
    benchmark.pedantic(
        replace_markers, args=(segment, window), rounds=3, iterations=1
    )
    _record(benchmark, "Marker replacement", len(segment))


def test_write_tmpfs(benchmark, tmp_path):
    import os

    directory = "/dev/shm" if os.path.isdir("/dev/shm") else tmp_path
    data = _noise(16 << 20, seed=3)
    path = f"{directory}/repro_tbl2.bin"

    def write():
        with open(path, "wb") as handle:
            handle.write(data)

    benchmark.pedantic(write, rounds=3, iterations=1)
    os.unlink(path)
    _record(benchmark, "Write to /dev/shm/", len(data))


def _decode_silesia():
    inflate(_DECODE_BLOB)


_DECODE_BLOB = None


def _decode_blob() -> bytes:
    global _DECODE_BLOB
    if _DECODE_BLOB is None:
        compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
        data = generate_silesia_like(2 << 20, seed=9)
        _DECODE_BLOB = compressor.compress(data) + compressor.flush()
    return _DECODE_BLOB


def test_decode_legacy(benchmark):
    # Not a paper Table 2 row: the paper benchmarks decoding indirectly
    # through the end-to-end figures. Reported here because the Python
    # decoder's speed sets the decode/block-finder balance Table 2 frames.
    _decode_blob()
    benchmark.pedantic(_decode_silesia, rounds=3, iterations=1)
    _record(benchmark, "Decode (legacy)", 2 << 20)


def test_count_newlines(benchmark):
    data = _noise(32 << 20, seed=4)
    benchmark.pedantic(data.count, args=(b"\n",), rounds=3, iterations=1)
    _record(benchmark, "Count newlines", len(data))


def test_report(benchmark, reporter):
    benchmark.pedantic(lambda: None, rounds=1)
    table = reporter("Table 2: component bandwidths")
    table.row("component", "measured", "paper", "ratio vs 'DBF rapidgzip'",
              widths=[22, 14, 14, 26])
    our_reference = _results.get("DBF rapidgzip", 1.0)
    paper_reference = PAPER["DBF rapidgzip"]
    for name in PAPER:
        if name not in _results:
            continue
        ours_rel = _results[name] / our_reference
        paper_rel = PAPER[name] / paper_reference
        table.row(
            name,
            fmt_bw(_results[name]),
            f"{PAPER[name]:.4g} MB/s",
            f"{ours_rel:8.3f} (paper {paper_rel:.3f})",
            widths=[22, 14, 14, 30],
        )
    table.add()
    table.add("Key ratio checks (paper -> here):")
    checks = []
    if "DBF zlib" in _results and "DBF custom deflate" in _results:
        checks.append(("custom/zlib trial", 28,
                       _results["DBF custom deflate"] / _results["DBF zlib"]))
    if "DBF skip-LUT" in _results and "DBF custom deflate" in _results:
        checks.append(("skip-LUT/custom", 5.4,
                       _results["DBF skip-LUT"] / _results["DBF custom deflate"]))
    if "NBF" in _results and "DBF rapidgzip" in _results:
        checks.append(("NBF/DBF", 7.0, _results["NBF"] / _results["DBF rapidgzip"]))
    for label, paper_ratio, ours in checks:
        table.add(f"  {label}: paper {paper_ratio:.1f}x, here {ours:.1f}x")
    if "Decode (legacy)" in _results:
        table.add()
        table.add("Python decoder (no paper row; see bench_decode_kernels):")
        table.add(f"  Decode (legacy): {fmt_bw(_results['Decode (legacy)'])}")
    table.add()
    table.add("NOTE: the paper's 28x custom-parser advantage over the zlib")
    table.add("trial INVERTS here — a substrate artifact: one C-level zlib")
    table.add("attempt costs less than one pure-Python header parse, even")
    table.add("though it does far more work per position. The orderings")
    table.add("among the from-scratch variants and the vectorized finder do")
    table.add("reproduce the paper's optimization story.")
    table.emit()
    # Orderings that must hold among the from-scratch components:
    assert _results["DBF custom deflate"] < _results["DBF skip-LUT"]
    assert _results["DBF skip-LUT"] < _results["DBF rapidgzip"]
    assert _results["DBF rapidgzip"] < _results["NBF"]
    # NBF and marker replacement are both single NumPy passes here, so they
    # land within noise of each other (the paper's 4x gap between them is a
    # memcpy-vs-gather effect below NumPy's granularity); both must beat
    # the Dynamic finder decisively.
    assert _results["Marker replacement"] > 5 * _results["DBF rapidgzip"]

"""Parallel-friendly archives: write cost and marker-free read speedup.

Write side: producing a self-describing archive (independent members plus
an MZ/RG chunk catalog in the first header) against stock single-stream
gzip and BGZF, on the paper's three corpora. The catalogued layout
compresses chunks on worker threads, so its write throughput should beat
stock gzip and track BGZF.

Read side (the tentpole claim): single-thread decode of the *same*
parallel-friendly archive with the catalog honored (complete seek index
synthesized at open, every chunk on the conventional zlib path)
versus the catalog ignored (``detect_catalog=False`` — the block-finder +
two-stage marker pipeline the paper needs for arbitrary gzip). Identical
bytes out; the speedup is pure encoding-awareness.

All timings are interleaved best-of-N (cancels machine-load drift).
Appends a trajectory entry to ``BENCH_parallel_friendly.json`` at the
repo root; ``check_regression.py --suite parallel-friendly`` replays it.
"""

import json
import pathlib
import time

from repro.datagen import generate_base64, generate_fastq, generate_silesia_like
from repro.gz.parallel_writer import compress_parallel
from repro.gz.writer import compress as gz_compress
from repro.reader import ParallelGzipReader

from conftest import fmt_bw

CORPUS_SIZE = 4 << 20
LEVEL = 6
REPS = 5
WRITE_THREADS = 4
#: Writer chunk size — also the synthesized index's chunk granularity.
WRITE_CHUNK = 512 * 1024
#: Reader chunk size for the marker baseline, so the forced path really
#: exercises block-finding + marker decode instead of one giant chunk.
READ_CHUNK = 256 * 1024
TRAJECTORY_PATH = (
    pathlib.Path(__file__).parent.parent / "BENCH_parallel_friendly.json"
)

_results = {}


def _corpora():
    return {
        "base64": generate_base64(CORPUS_SIZE, seed=1),
        "silesia": generate_silesia_like(CORPUS_SIZE, seed=2),
        "fastq": generate_fastq(CORPUS_SIZE, seed=3),
    }


# -- write side --------------------------------------------------------------

def _write_gzip(data: bytes) -> bytes:
    return gz_compress(data, "gzip", level=LEVEL)


def _write_parallel_friendly(data: bytes) -> bytes:
    return compress_parallel(
        data, parallelization=WRITE_THREADS, level=LEVEL,
        chunk_size=WRITE_CHUNK, layout="parallel-friendly",
    )


def _write_bgzf(data: bytes) -> bytes:
    return compress_parallel(
        data, parallelization=WRITE_THREADS, level=LEVEL,
        chunk_size=WRITE_CHUNK, layout="bgzf",
    )


_WRITERS = {
    "gzip": _write_gzip,
    "parallel_friendly": _write_parallel_friendly,
    "bgzf": _write_bgzf,
}


# -- read side ---------------------------------------------------------------

def _read(blob: bytes, *, detect_catalog: bool) -> bytes:
    with ParallelGzipReader(
        blob, parallelization=1, chunk_size=READ_CHUNK,
        detect_catalog=detect_catalog,
    ) as reader:
        return reader.read()


_READERS = {
    "catalog": lambda blob: _read(blob, detect_catalog=True),
    "marker": lambda blob: _read(blob, detect_catalog=False),
}


def _interleaved_best(tasks: dict, argument) -> dict:
    best = {name: float("inf") for name in tasks}
    for _ in range(REPS):
        for name, run in tasks.items():
            start = time.perf_counter()
            run(argument)
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def _measure(name: str, data: bytes):
    write_best = _interleaved_best(_WRITERS, data)
    _results[(name, "write")] = {
        key: len(data) / seconds for key, seconds in write_best.items()
    }
    blob = _write_parallel_friendly(data)
    assert _READERS["catalog"](blob) == _READERS["marker"](blob) == data
    read_best = _interleaved_best(_READERS, blob)
    _results[(name, "read")] = {
        key: len(data) / seconds for key, seconds in read_best.items()
    }


def _load_trajectory() -> list:
    if not TRAJECTORY_PATH.exists():
        return []
    document = json.loads(TRAJECTORY_PATH.read_text())
    return document.get("trajectory", [])


def measure(reps: int = REPS) -> dict:
    """Fresh ``corpus/side`` series for the regression gate."""
    global REPS
    original_reps, REPS = REPS, reps
    try:
        _results.clear()
        for name, data in _corpora().items():
            _measure(name, data)
        return {
            f"{name}/{side}": {
                f"{key}_mb_s": round(rate / 1e6, 3)
                for key, rate in rates.items()
            }
            for (name, side), rates in _results.items()
        }
    finally:
        REPS = original_reps


def test_parallel_friendly(benchmark, reporter):
    corpora = _corpora()
    benchmark.pedantic(
        lambda: [_measure(name, data) for name, data in corpora.items()],
        rounds=1,
        iterations=1,
    )

    table = reporter("Parallel-friendly archives: write cost, marker-free "
                     "read speedup")
    widths = [8, 6, 13, 13, 13, 9]
    table.row("corpus", "side", "gzip/marker", "pf/catalog", "bgzf",
              "speedup", widths=widths)
    entry = {
        "series_keys": sorted(
            {f"{key}_mb_s" for rates in _results.values() for key in rates}
        ),
        "corpus_size": CORPUS_SIZE,
        "level": LEVEL,
        "reps": REPS,
        "write_threads": WRITE_THREADS,
        "write_chunk": WRITE_CHUNK,
        "read_chunk": READ_CHUNK,
        "results": {},
    }
    for name in corpora:
        write = _results[(name, "write")]
        read = _results[(name, "read")]
        table.row(
            name, "write", fmt_bw(write["gzip"]),
            fmt_bw(write["parallel_friendly"]), fmt_bw(write["bgzf"]),
            f"{write['parallel_friendly'] / write['gzip']:.2f}x",
            widths=widths,
        )
        table.row(
            name, "read", fmt_bw(read["marker"]), fmt_bw(read["catalog"]),
            "-", f"{read['catalog'] / read['marker']:.2f}x", widths=widths,
        )
        entry["results"][f"{name}/write"] = {
            f"{key}_mb_s": round(rate / 1e6, 3) for key, rate in write.items()
        }
        entry["results"][f"{name}/read"] = {
            **{f"{key}_mb_s": round(rate / 1e6, 3)
               for key, rate in read.items()},
            "catalog_vs_marker": round(read["catalog"] / read["marker"], 3),
        }
    table.add()
    table.add(f"{CORPUS_SIZE >> 20} MiB per corpus, level {LEVEL}, "
              f"{WRITE_THREADS} write threads, single-thread reads, "
              f"interleaved best-of-{REPS}")
    table.emit()

    document = {"schema": 1, "trajectory": _load_trajectory() + [entry]}
    TRAJECTORY_PATH.write_text(json.dumps(document, indent=2) + "\n")

    # Acceptance floor: marker-free reads must decisively beat the forced
    # marker path on the compressible corpora (committed results show far
    # more; 1.3x is the PR's stated floor).
    for name in ("base64", "silesia"):
        rates = _results[(name, "read")]
        assert rates["catalog"] >= 1.3 * rates["marker"], (name, rates)
    # Parallel write must not be materially slower than stock gzip — on
    # few-core containers zlib itself is the bound, so the catalogued
    # layout's close-time assembly may cost a few percent; the floor only
    # guards against a pathological writer regression.
    for name in corpora:
        rates = _results[(name, "write")]
        assert rates["parallel_friendly"] >= 0.85 * rates["gzip"], (name, rates)

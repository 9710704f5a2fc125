"""Remote sources: latency hiding through parallel prefetched range reads.

Decoding straight off an HTTP origin turns every cache-miss block into a
wire round trip. A serial consumer pays one round trip per block; the
parallel reader's prefetcher keeps many range requests in flight at
once, so the same origin latency is paid once per *batch* instead of
once per block. This benchmark quantifies that hiding against a local
fault-injection server with a deliberate 20 ms per-request latency (a
realistic same-region object-store round trip).

Two series over the same parallel-friendly archive served by
:class:`repro.io.fault_server.FaultHTTPServer`:

* ``serial`` — a plain sequential sweep of range reads through
  :func:`repro.io.remote.open_remote`, one block at a time: the
  lower bound any single-cursor client (curl | gunzip) pays.
* ``parallel`` — a full :class:`ParallelGzipReader` decode over the
  same URL with a worker pool issuing overlapped chunk reads.

Timings are best-of-N on fresh readers (cold block cache every rep).
Appends a trajectory entry to ``BENCH_remote_source.json`` at the repo
root; ``check_regression.py --suite remote`` replays it.
"""

import json
import pathlib
import time

from repro.datagen import generate_base64
from repro.gz.parallel_writer import compress_parallel
from repro.io.fault_server import FaultHTTPServer
from repro.io.remote import open_remote
from repro.reader import ParallelGzipReader

from conftest import fmt_bw

CORPUS_SIZE = 2 << 20
LEVEL = 6
REPS = 3
#: Injected per-request origin latency — the quantity being hidden.
LATENCY = 0.02
#: Remote block-cache granularity; also the serial sweep's read size.
NET_BLOCK = 64 * 1024
#: Writer chunk size — the catalog's chunk granularity on the read side.
WRITE_CHUNK = 256 * 1024
PARALLELIZATION = 8
#: Acceptance floor: prefetched decode must beat the serial sweep by
#: at least this factor under the injected latency.
SPEEDUP_FLOOR = 3.0
TRAJECTORY_PATH = (
    pathlib.Path(__file__).parent.parent / "BENCH_remote_source.json"
)

_results = {}


def _payload():
    data = generate_base64(CORPUS_SIZE, seed=11)
    blob = compress_parallel(
        data, parallelization=4, level=LEVEL,
        chunk_size=WRITE_CHUNK, layout="parallel-friendly",
    )
    return data, blob


def _open(url):
    # Generous deadline: the bench injects latency, not failures, and a
    # spurious giveup would corrupt the timing rather than surface it.
    return open_remote(url, block_size=NET_BLOCK, timeout=5.0, deadline=60.0)


def _serial_sweep(url, total: int) -> int:
    """One block-at-a-time range-read pass — the single-cursor baseline."""
    reader = _open(url)
    try:
        offset = 0
        while offset < total:
            piece = reader.pread(offset, NET_BLOCK)
            if not piece:
                break
            offset += len(piece)
        return offset
    finally:
        reader.close()


def _parallel_decode(url, expected: bytes) -> None:
    source = _open(url)
    with ParallelGzipReader(
        source, parallelization=PARALLELIZATION
    ) as reader:
        assert reader.read() == expected


def _best_of(reps: int, run) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(reps: int) -> dict:
    data, blob = _payload()
    with FaultHTTPServer(blob, latency=LATENCY) as server:
        serial = _best_of(
            reps, lambda: _serial_sweep(server.url, len(blob))
        )
        parallel = _best_of(
            reps, lambda: _parallel_decode(server.url, data)
        )
    # Throughput is quoted over the *wire* payload for the sweep (it
    # moves compressed bytes) and the decoded output for the reader (it
    # delivers plaintext) — both normalized to the compressed size so
    # the two series stay directly comparable.
    return {
        "remote/decode": {
            "serial_mb_s": round(len(blob) / serial / 1e6, 3),
            "parallel_mb_s": round(len(blob) / parallel / 1e6, 3),
            "speedup": round(serial / parallel, 3),
        },
    }


def _load_trajectory() -> list:
    if not TRAJECTORY_PATH.exists():
        return []
    document = json.loads(TRAJECTORY_PATH.read_text())
    return document.get("trajectory", [])


def measure(reps: int = REPS) -> dict:
    """Fresh ``remote/decode`` series for the regression gate."""
    _results.clear()
    _results.update(_measure(reps))
    return {
        series: {
            key: value for key, value in rates.items() if key.endswith("_mb_s")
        }
        for series, rates in _results.items()
    }


def test_remote_source(benchmark, reporter):
    benchmark.pedantic(lambda: measure(REPS), rounds=1, iterations=1)
    rates = _results["remote/decode"]

    table = reporter("Remote sources: latency hiding via parallel prefetch")
    widths = [14, 13, 13, 9]
    table.row("series", "serial", "parallel", "speedup", widths=widths)
    table.row(
        "remote/decode",
        fmt_bw(rates["serial_mb_s"] * 1e6),
        fmt_bw(rates["parallel_mb_s"] * 1e6),
        f"{rates['speedup']:.2f}x",
        widths=widths,
    )
    table.add()
    table.add(
        f"{CORPUS_SIZE >> 20} MiB corpus, {LATENCY * 1e3:.0f} ms injected "
        f"per-request latency, {NET_BLOCK >> 10} KiB blocks, "
        f"{PARALLELIZATION} workers, best-of-{REPS}"
    )
    table.emit()

    entry = {
        "series_keys": ["serial_mb_s", "parallel_mb_s"],
        "corpus_size": CORPUS_SIZE,
        "level": LEVEL,
        "reps": REPS,
        "latency": LATENCY,
        "net_block": NET_BLOCK,
        "write_chunk": WRITE_CHUNK,
        "parallelization": PARALLELIZATION,
        "results": dict(_results),
    }
    document = {"schema": 1, "trajectory": _load_trajectory() + [entry]}
    TRAJECTORY_PATH.write_text(json.dumps(document, indent=2) + "\n")

    # Acceptance floor: with 20 ms per request, overlapping the round
    # trips must win decisively — anything under 3x means the prefetcher
    # stopped hiding the wire.
    assert rates["speedup"] >= SPEEDUP_FLOOR, rates

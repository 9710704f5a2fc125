"""Single-thread Deflate decode-kernel throughput: fused vs the reference loops.

Measures the block-decode hot loop in isolation (no chunking, no workers)
in both modes the pipeline uses:

* **conventional** — decode to bytes with a known window
  (:func:`repro.deflate.inflate`), the index-assisted path;
* **marker** — two-stage decode to 16-bit symbols with an unknown window
  (:class:`repro.deflate.TwoStageStreamDecoder`), the search-mode path
  that dominates no-index decompression (paper §4.1).

All decoder timings are interleaved inside the same repetition loop and
the best-of-N is reported, which cancels machine-load drift that
single-shot timings on a small container are exposed to (±10% observed).

Emits the paper-style table, and appends a trajectory entry to
``BENCH_decode_kernels.json`` at the repo root. Older entries stay on
record — including the three-tier measurement of the removed two-pass
``batched`` kernel, the evidence its deletion rests on; only a newest
entry for the same decoder set is replaced, so reruns do not pile up.
"""

import json
import pathlib
import time
import zlib

from repro.datagen import generate_base64, generate_silesia_like
from repro.deflate import TwoStageStreamDecoder, inflate
from repro.io import BitReader

from conftest import fmt_bw

CORPUS_SIZE = 4 << 20
LEVEL = 6
REPS = 8
DECODERS = ("fused", "legacy")  # the kernels and their reference loops
TRAJECTORY_PATH = pathlib.Path(__file__).parent.parent / "BENCH_decode_kernels.json"

_results = {}


def _raw_deflate(data: bytes) -> bytes:
    compressor = zlib.compressobj(LEVEL, zlib.DEFLATED, -15)
    return compressor.compress(data) + compressor.flush()


def _corpora():
    return {
        "base64": generate_base64(CORPUS_SIZE, seed=1),
        "silesia": generate_silesia_like(CORPUS_SIZE, seed=2),
    }


def _decode_conventional(blob: bytes, decoder: str) -> int:
    return len(inflate(blob, decoder=decoder).data)


def _decode_marker(blob: bytes, decoder: str) -> int:
    reader = BitReader(blob)
    stream = TwoStageStreamDecoder(window=None, decoder=decoder)
    while True:
        header = stream.read_and_decode_block(reader)
        if header.final:
            break
    stream.finish()
    return stream.produced


def _interleaved_best(decode, blob: bytes) -> dict:
    """Best-of-REPS seconds per decoder, all decoders alternating."""
    best = {decoder: float("inf") for decoder in DECODERS}
    for _ in range(REPS):
        for decoder in DECODERS:
            start = time.perf_counter()
            decode(blob, decoder)
            best[decoder] = min(best[decoder], time.perf_counter() - start)
    return best


def _measure(name: str, data: bytes):
    blob = _raw_deflate(data)
    for mode, decode in (
        ("conventional", _decode_conventional),
        ("marker", _decode_marker),
    ):
        best = _interleaved_best(decode, blob)
        _results[(name, mode)] = {
            decoder: len(data) / seconds for decoder, seconds in best.items()
        }


def _load_trajectory() -> list:
    """Prior entries from the committed file, oldest first, minus a
    newest entry this run supersedes (same decoder set)."""
    if not TRAJECTORY_PATH.exists():
        return []
    entries = json.loads(TRAJECTORY_PATH.read_text())["trajectory"]
    if entries and tuple(entries[-1].get("decoders", ())) == DECODERS:
        entries = entries[:-1]
    return entries


def test_decode_kernels(benchmark, reporter):
    corpora = _corpora()
    benchmark.pedantic(
        lambda: [_measure(name, data) for name, data in corpora.items()],
        rounds=1,
        iterations=1,
    )

    table = reporter("Decode kernels: single-thread fused vs legacy (reference)")
    widths = [8, 14, 12, 12, 9]
    table.row("corpus", "mode", "fused", "legacy", "fus/leg", widths=widths)
    entry = {
        "decoders": list(DECODERS),
        "corpus_size": CORPUS_SIZE,
        "level": LEVEL,
        "reps": REPS,
        "results": {},
    }
    for (name, mode), rates in _results.items():
        fused_speedup = rates["fused"] / rates["legacy"]
        table.row(
            name, mode, fmt_bw(rates["fused"]), fmt_bw(rates["legacy"]),
            f"{fused_speedup:.2f}x", widths=widths,
        )
        entry["results"][f"{name}/{mode}"] = {
            **{
                f"{decoder}_mb_s": round(rates[decoder] / 1e6, 3)
                for decoder in DECODERS
            },
            "fused_vs_legacy": round(fused_speedup, 3),
        }
    table.add()
    table.add(f"{CORPUS_SIZE >> 20} MiB per corpus, zlib level {LEVEL}, "
              f"interleaved best-of-{REPS}")
    table.emit()

    document = {"schema": 2, "trajectory": _load_trajectory() + [entry]}
    TRAJECTORY_PATH.write_text(json.dumps(document, indent=2) + "\n")

    # Regression guard. The fused kernels must stay decisively ahead of
    # the reference loops in every mode (committed results show >=1.5x;
    # the floor is lower only to absorb shared-container noise).
    for (name, mode), rates in _results.items():
        assert rates["fused"] > 1.25 * rates["legacy"], (name, mode, rates)

"""Figure 9: weak-scaling decompression of base64 data.

Two parts:

1. **Real**: the actual ParallelGzipReader on a pigz-layout base64 file at
   small thread counts (this container has one core, so wall-clock
   parallel speedup is not expected — the run demonstrates correctness and
   measures per-configuration overheads).
2. **Simulated**: the full 1..128-core sweep on the calibrated pipeline
   model, under both the paper calibration and this implementation's
   self-calibration, against the paper's published anchor points.
"""

import pytest

from repro.datagen import generate_base64
from repro.pool import available_cores
from repro.sim import (
    CostModel,
    WORKLOADS,
    simulate_pugz,
    simulate_rapidgzip,
    simulate_single_threaded,
)

from _scaling import (
    PAPER_CORES,
    REAL_THREADS,
    make_corpus,
    measured_model,
    real_decompression_bandwidth,
)
from conftest import fmt_bw

#: Anchor points read off the paper's Figure 9 (GB/s).
PAPER_ANCHORS = {
    ("rapidgzip", 128): 8.7,
    ("rapidgzip-index", 128): 17.8,
    ("pugz-sync", 128): 1.2,
    ("gzip", 1): 0.157,
    ("igzip", 1): 0.416,
}


def test_fig09_real_small_scale(benchmark, reporter):
    data, blob = make_corpus(generate_base64, 2 * 1024 * 1024)

    def sweep():
        return {
            threads: real_decompression_bandwidth(
                blob, parallelization=threads, chunk_size=128 * 1024,
                repeats=1,
            )
            for threads in REAL_THREADS
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = reporter("Figure 9 (real): base64, this implementation")
    table.row("threads", "bandwidth", widths=[8, 14])
    for threads, bandwidth in results.items():
        table.row(threads, fmt_bw(bandwidth), widths=[8, 14])
    table.add()
    table.add(f"usable cores: {available_cores()}")
    table.emit()
    for bandwidth in results.values():
        assert bandwidth > 0


def test_fig09_simulated_sweep(benchmark, reporter):
    paper_model = CostModel.from_paper()
    self_model = measured_model()
    workload = WORKLOADS["base64"]

    def simulate(model):
        rows = {}
        for cores in PAPER_CORES:
            size = 512 * 1024 * 1024 * cores
            rows[cores] = {
                "rapidgzip": simulate_rapidgzip(
                    cores, workload, model, uncompressed_size=size
                ).bandwidth,
                "rapidgzip-index": simulate_rapidgzip(
                    cores, workload, model, uncompressed_size=size, with_index=True
                ).bandwidth,
                "pugz": simulate_pugz(
                    cores, workload, model,
                    uncompressed_size=size, synchronized=False,
                ).bandwidth,
                "pugz-sync": simulate_pugz(
                    cores, workload, model,
                    uncompressed_size=128 * 1024 * 1024 * cores,
                ).bandwidth,
            }
        return rows

    paper_rows = benchmark.pedantic(simulate, args=(paper_model,), rounds=1,
                                    iterations=1)
    self_rows = simulate(self_model)

    table = reporter("Figure 9 (simulated): base64 weak scaling, GB/s")
    table.row("P", "rapidgzip", "rg-index", "pugz", "pugz-sync",
              "self-cal rapidgzip", widths=[4, 10, 10, 10, 10, 18])
    for cores in PAPER_CORES:
        row = paper_rows[cores]
        table.row(
            cores,
            f"{row['rapidgzip'] / 1e9:.2f}",
            f"{row['rapidgzip-index'] / 1e9:.2f}",
            f"{row['pugz'] / 1e9:.2f}",
            f"{row['pugz-sync'] / 1e9:.2f}",
            f"{self_rows[cores]['rapidgzip'] / 1e6:.2f} MB/s",
            widths=[4, 10, 10, 10, 10, 18],
        )
    gzip_bw = simulate_single_threaded(
        "gzip", workload, paper_model, uncompressed_size=1e9
    ).bandwidth
    speedup = paper_rows[128]["rapidgzip"] / gzip_bw
    table.add()
    table.add(f"speedup over gzip at 128 cores: {speedup:.0f}x (paper: 55x)")
    for (series, cores), paper_value in PAPER_ANCHORS.items():
        if series == "gzip":
            value = gzip_bw / 1e9
        elif series == "igzip":
            value = simulate_single_threaded(
                "igzip", workload, paper_model, uncompressed_size=1e9
            ).bandwidth / 1e9
        else:
            value = paper_rows[cores][series] / 1e9
        table.add(
            f"anchor {series}@{cores}: paper {paper_value:.2f} GB/s, "
            f"sim {value:.2f} GB/s"
        )
    table.emit()

    assert 40 < speedup < 70
    assert abs(paper_rows[128]["rapidgzip"] / 1e9 - 8.7) / 8.7 < 0.2
    assert abs(paper_rows[128]["rapidgzip-index"] / 1e9 - 17.8) / 17.8 < 0.2
    assert abs(paper_rows[128]["pugz-sync"] / 1e9 - 1.2) / 1.2 < 0.25
    # Self-calibrated model preserves the shape: index mode wins, pugz-sync
    # plateaus, rapidgzip leads pugz below 64 cores.
    assert self_rows[128]["rapidgzip-index"] > self_rows[128]["rapidgzip"]
    assert self_rows[128]["pugz-sync"] < self_rows[32]["rapidgzip"]

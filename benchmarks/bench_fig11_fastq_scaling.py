"""Figure 11: weak-scaling decompression of a (synthetic) FASTQ file.

Paper findings: rapidgzip without an index scales to ~48 cores and stops
at 4.9 GB/s; with an index (and pugz without output synchronization, which
we cover in the simulator) scaling continues to 128 cores. pugz with
synchronization reaches 1.4 GB/s at 16 cores and *errors out* at 96/128.
"""

import pytest

from repro.datagen import generate_fastq
from repro.sim import CostModel, WORKLOADS, simulate_pugz, simulate_rapidgzip

from _scaling import PAPER_CORES, REAL_THREADS, make_corpus, measured_model, real_decompression_bandwidth
from conftest import fmt_bw


def test_fig11_real_small_scale(benchmark, reporter):
    data, blob = make_corpus(generate_fastq, 2 * 1024 * 1024)

    def sweep():
        return {
            threads: real_decompression_bandwidth(
                blob, parallelization=threads, chunk_size=128 * 1024,
                repeats=1,
            )
            for threads in REAL_THREADS
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = reporter("Figure 11 (real): FASTQ, this implementation")
    table.row("threads", "bandwidth", widths=[8, 14])
    for threads, bandwidth in results.items():
        table.row(threads, fmt_bw(bandwidth), widths=[8, 14])
    table.emit()


def test_fig11_simulated_sweep(benchmark, reporter):
    paper_model = CostModel.from_paper()
    self_model = measured_model()
    workload = WORKLOADS["fastq"]

    def simulate(model):
        rows = {}
        for cores in PAPER_CORES:
            size = 362e6 * cores  # paper: 362 MB uncompressed per core
            rows[cores] = {
                "rapidgzip": simulate_rapidgzip(
                    cores, workload, model, uncompressed_size=size
                ).bandwidth,
                "rapidgzip-index": simulate_rapidgzip(
                    cores, workload, model, uncompressed_size=size, with_index=True
                ).bandwidth,
            }
        return rows

    paper_rows = benchmark.pedantic(simulate, args=(paper_model,), rounds=1,
                                    iterations=1)
    self_rows = simulate(self_model)

    table = reporter("Figure 11 (simulated): FASTQ weak scaling, GB/s")
    table.row("P", "rapidgzip", "rg-index", "self-cal rapidgzip",
              widths=[4, 10, 10, 20])
    for cores in PAPER_CORES:
        table.row(
            cores,
            f"{paper_rows[cores]['rapidgzip'] / 1e9:.2f}",
            f"{paper_rows[cores]['rapidgzip-index'] / 1e9:.2f}",
            f"{self_rows[cores]['rapidgzip'] / 1e6:.2f} MB/s",
            widths=[4, 10, 10, 20],
        )
    peak = max(row["rapidgzip"] for row in paper_rows.values()) / 1e9
    knee_48_64 = paper_rows[64]["rapidgzip"] / paper_rows[48]["rapidgzip"]
    knee_64_128 = paper_rows[128]["rapidgzip"] / paper_rows[64]["rapidgzip"]
    table.add()
    table.add(f"no-index peak: {peak:.2f} GB/s (paper: 4.9 GB/s)")
    table.add(f"scaling 48->64: +{100 * (knee_48_64 - 1):.0f}%, "
              f"64->128: +{100 * (knee_64_128 - 1):.0f}% "
              "(paper: stops scaling above ~48)")
    table.emit()

    assert abs(peak - 4.9) / 4.9 < 0.25
    assert knee_64_128 < 1.12  # flat well before 128
    # With-index keeps scaling well past the no-index knee, like pugz-async
    # in the paper (our index curve saturates on the serial bound ~96).
    assert paper_rows[128]["rapidgzip-index"] > paper_rows[48]["rapidgzip-index"] * 1.4
    assert self_rows[128]["rapidgzip-index"] > self_rows[128]["rapidgzip"]

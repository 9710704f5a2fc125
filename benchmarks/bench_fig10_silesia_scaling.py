"""Figure 10: weak-scaling decompression of the (synthetic) Silesia corpus.

The paper's headline findings here: rapidgzip stops scaling after ~64
cores at 5.6 GB/s without an index (Amdahl via sequential window
propagation — markers persist on this corpus) and reaches 16.3 GB/s with
one; speedups over GNU gzip are 33x / 95x. pugz is absent: it cannot
decompress data with bytes outside 9-126.
"""

import pytest

from repro.datagen import generate_silesia_like
from repro.errors import FormatError, UsageError
from repro.reader import decompress_parallel
from repro.sim import CostModel, WORKLOADS, simulate_rapidgzip, simulate_single_threaded, simulate_pugz

from _scaling import PAPER_CORES, REAL_THREADS, make_corpus, measured_model, real_decompression_bandwidth
from conftest import fmt_bw


def test_fig10_real_small_scale(benchmark, reporter):
    data, blob = make_corpus(generate_silesia_like, 2 * 1024 * 1024)

    def sweep():
        return {
            threads: real_decompression_bandwidth(
                blob, parallelization=threads, chunk_size=128 * 1024,
                repeats=1,
            )
            for threads in REAL_THREADS
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = reporter("Figure 10 (real): silesia-like, this implementation")
    table.row("threads", "bandwidth", widths=[8, 14])
    for threads, bandwidth in results.items():
        table.row(threads, fmt_bw(bandwidth), widths=[8, 14])
    table.emit()
    for bandwidth in results.values():
        assert bandwidth > 0


def test_fig10_pugz_cannot_participate(reporter, benchmark):
    # Paper §4.5: "The comparison does not include pugz because it is not
    # able to decompress data containing bytes outside of 9-126."
    data, blob = make_corpus(generate_silesia_like, 256 * 1024)

    def check():
        with pytest.raises(FormatError):
            decompress_parallel(blob, 2, chunk_size=64 * 1024, pugz_compatible=True)
        with pytest.raises(UsageError):
            simulate_pugz(
                4, WORKLOADS["silesia"], CostModel.from_paper(),
                uncompressed_size=1e9,
            )
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)


def test_fig10_simulated_sweep(benchmark, reporter):
    paper_model = CostModel.from_paper()
    self_model = measured_model()
    workload = WORKLOADS["silesia"]

    def simulate(model):
        rows = {}
        for cores in PAPER_CORES:
            size = 424e6 * cores  # paper: 424 MB uncompressed per core
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
    gzip_bw = simulate_single_threaded(
        "gzip", workload, paper_model, uncompressed_size=1e9
    ).bandwidth

    table = reporter("Figure 10 (simulated): silesia weak scaling, GB/s")
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
    no_index_speedup = paper_rows[128]["rapidgzip"] / gzip_bw
    index_speedup = paper_rows[128]["rapidgzip-index"] / gzip_bw
    table.add()
    table.add(f"speedups over gzip at 128: {no_index_speedup:.0f}x no-index "
              f"(paper 33x), {index_speedup:.0f}x with index (paper 95x)")
    knee = paper_rows[96]["rapidgzip"] / paper_rows[64]["rapidgzip"]
    table.add(f"scaling 64->96 cores: +{100 * (knee - 1):.0f}% "
              "(paper: stops scaling after ~64)")
    table.emit()

    assert abs(paper_rows[128]["rapidgzip"] / 1e9 - 5.6) / 5.6 < 0.2
    assert abs(paper_rows[128]["rapidgzip-index"] / 1e9 - 16.3) / 16.3 < 0.25
    assert knee < 1.15  # plateau after 64 cores
    assert 25 < no_index_speedup < 45
    # Self-calibration keeps the same qualitative plateau.
    self_knee = self_rows[128]["rapidgzip"] / self_rows[64]["rapidgzip"]
    assert self_knee < 1.5

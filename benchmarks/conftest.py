"""Shared infrastructure for the paper-reproduction benchmarks.

Every ``bench_*`` module regenerates one table or figure from the paper's
evaluation section (see DESIGN.md §4 for the index). Results are printed
as paper-style tables AND written to
``benchmarks/results/<module>__<test>.txt`` so EXPERIMENTS.md can quote
them.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class TableReporter:
    """Collects rows and emits an aligned paper-style table."""

    def __init__(self, name: str, title: str):
        self.name = name
        self.title = title
        self.lines = []

    def add(self, line: str = "") -> None:
        self.lines.append(line)

    def row(self, *cells, widths=None) -> None:
        if widths is None:
            widths = [14] * len(cells)
        self.lines.append(
            "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))
        )

    def emit(self) -> str:
        header = f"=== {self.title} ==="
        text = "\n".join([header, *self.lines, ""])
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{self.name}.txt").write_text(text + "\n")
        return text


@pytest.fixture
def reporter(request):
    """``reporter(title)`` makes the test's table; its file is named after
    the module and the test (``test_`` dropped), so no two tables share
    one and a run rewrites only the tables it made."""

    def make(title: str) -> TableReporter:
        slug = "".join(
            ch if ch.isalnum() else "_"
            for ch in request.node.name.removeprefix("test_")
        ).strip("_")
        return TableReporter(
            f"{request.node.module.__name__}__{slug}", title
        )

    return make


def fmt_bw(bytes_per_second: float) -> str:
    """Human bandwidth: GB/s above 1e9, else MB/s."""
    if bytes_per_second >= 1e9:
        return f"{bytes_per_second / 1e9:.2f} GB/s"
    if bytes_per_second >= 1e6:
        return f"{bytes_per_second / 1e6:.2f} MB/s"
    return f"{bytes_per_second / 1e3:.1f} kB/s"

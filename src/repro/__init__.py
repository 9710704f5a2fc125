"""Pure-Python reproduction of *Rapidgzip* (Knespel & Brunst, HPDC '23).

Parallel decompression of and random access into arbitrary gzip files via
two-stage Deflate decoding behind a cache-and-prefetch architecture.

Public entry points::

    from repro import ParallelGzipReader

    with ParallelGzipReader("data.gz", parallelization=4) as reader:
        header = reader.read(100)
        reader.seek(1_000_000)
        middle = reader.read(100)

Subpackages (bottom-up):

* :mod:`repro.io` — file abstraction + LSB-first bit reader
* :mod:`repro.huffman` — canonical Huffman decode/encode, precode filters
* :mod:`repro.deflate` — RFC 1951 decoder (conventional + two-stage),
  marker replacement, and a from-scratch compressor
* :mod:`repro.gz` — RFC 1952 container, CRC-32, BGZF, compressor profiles
* :mod:`repro.blockfinder` — speculative Deflate block finders
* :mod:`repro.cache` / :mod:`repro.pool` / :mod:`repro.fetcher` — the
  cache-and-prefetch engine
* :mod:`repro.index` — seek-point index with 32 KiB windows
* :mod:`repro.reader` — the user-facing :class:`ParallelGzipReader`
* :mod:`repro.datagen` — workload generators for the paper's benchmarks
* :mod:`repro.sim` — calibrated performance simulator for the scaling
  experiments (stands in for the paper's 128-core node)
* :mod:`repro.recovery` — corrupted-gzip recovery via the block finder
* :mod:`repro.telemetry` — chunk-lifecycle tracing (Chrome trace-event
  export), metrics registry, and the ``--profile`` report
"""

from .errors import (
    ChunkDecodeError,
    DeflateError,
    FormatError,
    GzipHeaderError,
    HuffmanError,
    IntegrityError,
    RecoveryError,
    ReproError,
    TruncatedError,
    UsageError,
    exit_code_for,
)

__version__ = "1.0.0"

__all__ = [
    "ChunkDecodeError",
    "DeflateError",
    "FormatError",
    "GzipHeaderError",
    "HuffmanError",
    "IntegrityError",
    "RecoveryError",
    "ReproError",
    "TruncatedError",
    "UsageError",
    "exit_code_for",
    "__version__",
    "ParallelGzipReader",
    "GzipIndex",
    "GzipWriter",
    "Telemetry",
]


def __getattr__(name):
    # Lazy imports keep `import repro` cheap and avoid import cycles while
    # the high-level classes pull in most of the package.
    if name == "ParallelGzipReader":
        from .reader import ParallelGzipReader

        return ParallelGzipReader
    if name == "GzipIndex":
        from .index import GzipIndex

        return GzipIndex
    if name == "GzipWriter":
        from .gz import GzipWriter

        return GzipWriter
    if name == "Telemetry":
        from .telemetry import Telemetry

        return Telemetry
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

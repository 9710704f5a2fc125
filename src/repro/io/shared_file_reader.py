"""Shared, thread-safe file reader used by the parallel decompressor.

Mirrors rapidgzip's ``SharedFileReader`` (paper §4.2, Fig. 8): many threads
read disjoint ranges of one file concurrently. For regular files this maps
to lock-free ``os.pread`` on a shared descriptor; for in-memory buffers it
is a plain slice; for Python file-like objects a lock serializes access.

Also provides :func:`strided_read_benchmark`, the measurement kernel behind
Figure 8 — each of ``num_threads`` workers reads every ``num_threads``-th
``chunk_size`` block of the file through the one shared reader.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from .file_reader import FileReader, ensure_file_reader

__all__ = ["SharedFileReader", "strided_read_benchmark"]


class SharedFileReader(FileReader):
    """Counting decorator over any reader, shared by every thread.

    All threads read through this one object (and so through one file
    descriptor or buffer) with positionless ``pread``; ``bytes_read`` and
    ``read_calls`` total what they asked for, for instrumentation.
    """

    def __init__(self, source) -> None:
        super().__init__()
        self._base = ensure_file_reader(source)
        self.bytes_read = 0
        self.read_calls = 0
        self._lock = threading.Lock()  # guards the two counters only
        self._position = 0

    def size(self) -> int:
        return self._base.size()

    def pread(self, offset: int, size: int) -> bytes:
        self._check_open()
        data = self._base.pread(offset, size)
        with self._lock:
            self.bytes_read += len(data)
            self.read_calls += 1
        return data

    def close(self) -> None:
        if not self._closed:
            self._base.close()
        super().close()


def strided_read_benchmark(
    source,
    *,
    num_threads: int,
    chunk_size: int = 128 * 1024,
) -> dict:
    """Figure 8 measurement kernel: parallel strided reads of one file.

    Thread *t* reads chunks ``t, t + T, t + 2T, ...`` (T = ``num_threads``)
    of ``chunk_size`` bytes each. Returns aggregate bandwidth in bytes/s
    along with the total byte count, for the Fig. 8 bench harness.
    """
    reader = SharedFileReader(source)
    total_size = reader.size()
    num_chunks = (total_size + chunk_size - 1) // chunk_size

    def worker(thread_index: int) -> int:
        read = 0
        for chunk in range(thread_index, num_chunks, num_threads):
            read += len(reader.pread(chunk * chunk_size, chunk_size))
        return read

    start = time.perf_counter()
    if num_threads == 1:
        totals = [worker(0)]
    else:
        with ThreadPoolExecutor(max_workers=num_threads) as pool:
            totals = list(pool.map(worker, range(num_threads)))
    elapsed = time.perf_counter() - start
    reader.close()

    total = sum(totals)
    return {
        "bytes": total,
        "seconds": elapsed,
        "bandwidth": total / elapsed if elapsed > 0 else float("inf"),
        "threads": num_threads,
        "chunk_size": chunk_size,
    }

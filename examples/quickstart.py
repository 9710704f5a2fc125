#!/usr/bin/env python3
"""Quickstart: parallel decompression and random access in 40 lines.

Creates a gzip file, decompresses it with the parallel reader, seeks into
the middle without decompressing everything before it twice, and exports a
seek-point index for instant random access next time.

Run:  python examples/quickstart.py
"""

import io

from repro.datagen import generate_base64
from repro.gz.writer import compress
from repro.index import load_index
from repro.reader import ParallelGzipReader

# 1. Make a gzip file (any gzip file works — this one is base64 test data
#    compressed with a pigz-like layout, so it contains many Deflate blocks).
data = generate_base64(4 * 1024 * 1024, seed=7)
gz_blob = compress(data, "pigz")
print(f"input: {len(data):,} bytes -> {len(gz_blob):,} compressed "
      f"(ratio {len(data) / len(gz_blob):.3f})")

# 2. Parallel decompression: 4 worker threads, 256 KiB chunks.
with ParallelGzipReader(gz_blob, parallelization=4, chunk_size=256 * 1024) as reader:
    out = reader.read()
    assert out == data
    print(f"decompressed {len(out):,} bytes, "
          f"{reader.statistics()['chunks_decoded']} chunks, "
          f"mode={reader.statistics()['mode']}")

    # 3. Seek + read behaves like a regular file object.
    reader.seek(1_000_000)
    assert reader.read(80) == data[1_000_000:1_000_080]
    print("random access at offset 1,000,000: OK")

    # 4. Export the index built during decompression.
    index_sink = io.BytesIO()
    reader.export_index(index_sink)

# 5. Re-open with the index: decompression now delegates to zlib and
#    seeking anywhere is constant-time.
index = load_index(index_sink.getvalue(), source=gz_blob)
with ParallelGzipReader(gz_blob, parallelization=4, index=index) as reader:
    reader.seek(3_000_000)
    assert reader.read(80) == data[3_000_000:3_000_080]
    print(f"indexed reopen ({len(index)} seek points): "
          f"mode={reader.statistics()['mode']}, random access OK")

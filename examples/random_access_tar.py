#!/usr/bin/env python3
"""Ratarmount-style random access into a .tar.gz (paper §1.3, §3.2).

The paper's motivating application: serving individual files out of a
gzip-compressed TAR archive without decompressing the whole thing per
access. ParallelGzipReader is file-like, so the stdlib ``tarfile`` module
can operate directly on top of it; the seek-point index makes member reads
near-constant-time, and the multi-stream prefetcher handles two readers
walking different members concurrently.

Run:  python examples/random_access_tar.py
"""

import io
import tarfile
import threading  # two concurrent clients below

from repro.cache import FetchMultiStream
from repro.datagen import build_tar, silesia_members
from repro.gz.writer import compress
from repro.index import load_index
from repro.reader import ParallelGzipReader

# 1. Build archive.tar.gz with a few differently flavored members.
members = silesia_members(2 * 1024 * 1024, seed=3)
tar_bytes = build_tar(members)
archive = compress(tar_bytes, "gzip", level=6)
print(f"archive.tar.gz: {len(members)} members, "
      f"{len(tar_bytes):,} B tar -> {len(archive):,} B gz")

# 2. First open: list the archive and build the index as a side effect.
with ParallelGzipReader(archive, parallelization=4, chunk_size=128 * 1024) as reader:
    with tarfile.open(fileobj=reader, mode="r:") as tar:
        names = tar.getnames()
        print("members:", names)
    index_sink = io.BytesIO()
    reader.export_index(index_sink)
index = load_index(index_sink.getvalue(), source=archive)

# 3. Indexed reopen: extract a single member without a full pass.
with ParallelGzipReader(
    archive,
    parallelization=4,
    index=index,
    strategy=FetchMultiStream(),
) as reader:
    with tarfile.open(fileobj=reader, mode="r:") as tar:
        extracted = tar.extractfile("mozilla.c").read()
        assert extracted == members["mozilla.c"]
        print(f"extracted mozilla.c: {len(extracted):,} bytes, verified")

    # 4. Concurrent access at two offsets (the ratarmount serving pattern).
    # tarfile is not thread-safe over a shared cursor, so each "client"
    # streams its member through the thread-safe positional read_at API.
    results = {}

    def serve_range(name, member_data):
        # Simulate a client streaming one file in 64 KiB requests via the
        # thread-safe positional API.
        offset = tar_bytes.find(member_data)
        out = bytearray()
        for start in range(0, len(member_data), 65536):
            out += reader.read_at(offset + start, min(65536, len(member_data) - start))
        results[name] = bytes(out)

    threads = [
        threading.Thread(target=serve_range, args=(name, members[name]))
        for name in ("dickens.txt", "x-ray.bin")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for name in ("dickens.txt", "x-ray.bin"):
        assert results[name] == members[name]
    print("two concurrent streaming clients served correctly")
    stats = reader.statistics()
    print(f"prefetch cache hit rate: {stats['prefetch_cache']['hit_rate']:.0%}")

#!/usr/bin/env python3
"""Bioinformatics pipeline over a gzip-compressed FASTQ file (paper §4.6).

FASTQ is the workload pugz was built for. This example streams a
FASTQ.gz through the parallel reader, computes per-read statistics on the
fly (record count, base composition, mean quality), then uses the index to
jump straight to a record range in the middle of the file — the access
pattern of an aligner resuming work.

Run:  python examples/fastq_pipeline.py
"""

import io
from collections import Counter

from repro.datagen import count_fastq_records, generate_fastq
from repro.gz.writer import compress
from repro.index import load_index
from repro.reader import ParallelGzipReader

# 1. Create reads.fastq.gz (pigz-like layout, as in the paper's setup).
fastq = generate_fastq(3 * 1024 * 1024, seed=11)
blob = compress(fastq, "pigz")
print(f"reads.fastq.gz: {len(fastq):,} B -> {len(blob):,} B "
      f"(ratio {len(fastq) / len(blob):.2f})")

# 2. Stream through the parallel reader, processing 1 MiB at a time.
records = 0
bases = Counter()
quality_sum = 0
quality_count = 0
carry = b""
with ParallelGzipReader(blob, parallelization=4, chunk_size=128 * 1024) as reader:
    while True:
        piece = reader.read(1024 * 1024)
        if not piece:
            break
        buffer = carry + piece
        cut = buffer.rfind(b"\n") + 1  # only process whole lines
        carry = buffer[cut:]
        lines = buffer[:cut].split(b"\n")[:-1]
        for number, line in enumerate(lines):
            kind = number % 4
            if kind == 1:  # sequence line
                bases.update(line)
            elif kind == 3:  # quality line
                quality_sum += sum(line) - 33 * len(line)
                quality_count += len(line)
        records += len(lines) // 4
    index_sink = io.BytesIO()
    reader.export_index(index_sink)

total_bases = sum(bases[b] for b in b"ACGT")
print(f"records: {records:,} (generator says {count_fastq_records(fastq):,})")
print("base composition: " + ", ".join(
    f"{chr(b)}={bases[b] / total_bases:.1%}" for b in b"ACGT"))
print(f"mean quality: Q{quality_sum / quality_count:.1f}")

# 3. Indexed random access: re-read records around the 60% mark without
#    re-decompressing the first 60% of the file.
index = load_index(index_sink.getvalue(), source=blob)
with ParallelGzipReader(blob, parallelization=2, index=index) as reader:
    offset = int(len(fastq) * 0.6)
    reader.seek(offset)
    window = reader.read(4096)
    first_record = window.find(b"\n@") + 1
    record = window[first_record:].split(b"\n", 4)[:4]
    print("record near 60% mark:")
    for line in record[:2]:
        print("   ", line[:60].decode("ascii", "replace"))
    print(f"   (decoded {reader.statistics()['chunks_decoded']} of "
          f"{len(index)} chunks for this access)")

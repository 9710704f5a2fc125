"""End-to-end property tests: writer profiles x parallel reader x index."""

import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import generate_base64, generate_fastq, generate_silesia_like
from repro.gz.writer import PROFILES, compress as gz_compress
from repro.index import load_index
from repro.reader import ParallelGzipReader, decompress_parallel


GENERATORS = {
    "base64": generate_base64,
    "silesia": generate_silesia_like,
    "fastq": generate_fastq,
}


@settings(max_examples=12, deadline=None)
@given(
    profile=st.sampled_from(sorted(PROFILES)),
    corpus=st.sampled_from(sorted(GENERATORS)),
    seed=st.integers(0, 100),
    parallelization=st.integers(1, 4),
)
def test_property_any_profile_any_corpus(profile, corpus, seed, parallelization):
    """decompress_parallel(compress(x)) == x across the full matrix."""
    rng = random.Random(seed)
    size = rng.randrange(1_000, 120_000)
    data = GENERATORS[corpus](size, seed)
    blob = gz_compress(data, profile)
    assert decompress_parallel(blob, parallelization, chunk_size=16 * 1024) == data


@settings(max_examples=6, deadline=None)
@given(
    profile=st.sampled_from(["gzip", "pigz", "bgzf"]),
    seed=st.integers(0, 50),
)
def test_property_index_round_trip_any_profile(profile, seed):
    """Index built on first pass reproduces the file on indexed reopen."""
    data = generate_silesia_like(150_000, seed)
    blob = gz_compress(data, profile)
    with ParallelGzipReader(blob, chunk_size=16 * 1024) as reader:
        sink = io.BytesIO()
        reader.export_index(sink)
    index = load_index(sink.getvalue())
    with ParallelGzipReader(blob, parallelization=2, index=index) as reader:
        assert reader.read() == data
        # And a random mid-file access agrees.
        offset = len(data) // 3
        reader.seek(offset)
        assert reader.read(64) == data[offset : offset + 64]


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 1000),
    schedule=st.lists(
        st.tuples(st.integers(0, 149_999), st.integers(0, 4096)),
        min_size=1,
        max_size=6,
    ),
)
def test_property_seek_schedule_equals_slicing(seed, schedule):
    """Arbitrary seek/read schedules across profiles match plain slicing."""
    data = generate_base64(150_000, seed)
    blob = gz_compress(data, "pigz")
    with ParallelGzipReader(blob, parallelization=2, chunk_size=16 * 1024) as reader:
        for offset, size in schedule:
            reader.seek(offset)
            assert reader.read(size) == data[offset : offset + size]

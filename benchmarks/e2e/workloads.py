"""Workloads of the end-to-end benchmark: inputs, verified operations and
the timed closed loop.

Every workload runs the same cycle of verified operations on its own
corpus and open mode — full reads at P=cores and at P=1, first reads,
random positional reads, and one parallel compression — so that every
end-to-end metric exists on every workload. What differs is the corpus,
the way the file is opened (block search, imported index, embedded
catalog) and how the cycle's time is split between the operations.

The client is one thread in one process: the next operation starts when
the previous one has returned (closed loop). It consumes what it reads by
folding it into a CRC-32, and holds no copy of the original.
"""

import gzip
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import time
import zlib
from dataclasses import dataclass

from repro import datagen
from repro.errors import ReproError
from repro.gz import ParallelGzipWriter
from repro.pool.backend import available_cores
from repro.reader import ParallelGzipReader

__all__ = [
    "InvalidRun",
    "Prepared",
    "Tally",
    "WORKLOADS",
    "Workload",
    "check_path",
    "cold_offsets",
    "compress_file",
    "drain",
    "first_read",
    "full_read",
    "parallelism",
    "prepare",
    "reader_options",
    "run_timed",
    "seek_burst",
    "seek_offsets",
    "wait_until_idle",
    "workload_offsets",
]

MiB = 1 << 20
READ_SIZE = MiB  # the client reads in 1 MiB calls
FIRST_READ_SIZE = 65536
SEEK_SIZE = 4096
NEAR_SEEK = 128 * 1024  # every third seek lands this close to the last one
WRITER_CHUNK = 512 * 1024
QUICK_SCALE = 8  # --quick divides every corpus and chunk size by this
TAIL_MEMBER = 4096  # bytes of the original in an index workload's 2nd member
MIN_CYCLES = 2


class InvalidRun(Exception):
    """The program did not take the path the workload exists to measure.

    Such a run has no numbers: the harness exits with an error instead of
    reporting the throughput of some other path under this name.
    """


@dataclass(frozen=True)
class Workload:
    """One corpus, one open mode, and the operations of one cycle."""

    name: str
    generator: str  # function in repro.datagen
    size: int  # bytes of the original
    chunk_size: int
    mode: str  # "search" | "index" | "catalog"
    passes: int  # full reads per cycle at P=cores, and as many at P=1
    first_reads: int
    seeks: int  # positional reads per cycle (at most, for cold_offsets)
    random_seeks: bool  # seek_offsets() if true, else cold_offsets()
    compressions: int


# Sizes are what the driver's cap allows (114 runs in 3420 s, each with
# three set-ups) on a 2-core host whose search path decodes 3-8 MB/s; the
# counts give the workload's own operations most of each cycle. Only the
# seek workload has enough seek points (about 90) for random positional
# reads to miss the chunk caches most of the time; on the others a random
# pattern hits about every second time, which makes its median flip
# between the two modes, so they read cold chunks only (cold_offsets): the
# same chunks in every burst, one read each, on an idle pool. The search
# corpora have 6 and 3-4 such chunks.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("search_base64", "generate_base64", 4 * MiB, 256 * 1024,
                 "search", passes=1, first_reads=5, seeks=6,
                 random_seeks=False, compressions=4),
        Workload("search_silesia", "generate_silesia_like", 6 * MiB,
                 256 * 1024, "search", passes=1, first_reads=5,
                 seeks=4, random_seeks=False, compressions=4),
        Workload("index_full_silesia", "generate_silesia_like", 8 * MiB,
                 256 * 1024, "index", passes=6, first_reads=3,
                 seeks=8, random_seeks=False, compressions=1),
        Workload("index_seek_silesia", "generate_silesia_like", 8 * MiB,
                 32 * 1024, "index", passes=1, first_reads=3, seeks=300,
                 random_seeks=True, compressions=1),
        Workload("catalog_roundtrip_fastq", "generate_fastq", 12 * MiB,
                 WRITER_CHUNK, "catalog", passes=4, first_reads=3,
                 seeks=10, random_seeks=False, compressions=2),
    )
}


def parallelism() -> int:
    """P of the P=cores operations: what fits the host, at most 4."""
    return min(available_cores(), 4)


def reader_options(workload: Workload, prepared: "Prepared") -> dict:
    """How a user opens this workload's file: defaults, plus the index
    cache directory where the workload is about an imported index."""
    options = {"chunk_size": prepared.manifest["chunk_size"]}
    if workload.mode == "index":
        options["index_cache"] = prepared.index_dir
    return options


# -- inputs ---------------------------------------------------------------------


@dataclass
class Prepared:
    """A prepared corpus on disk and its manifest."""

    directory: str
    manifest: dict

    @property
    def plain(self) -> str:
        return os.path.join(self.directory, "plain.bin")

    @property
    def gz(self) -> str:
        return os.path.join(self.directory, "data.gz")

    @property
    def index_dir(self) -> str:
        return os.path.join(self.directory, "index")

    @property
    def scratch_gz(self) -> str:
        """Where the timed compressions write."""
        return os.path.join(self.directory, "written.gz")


def drain(stream) -> tuple:
    """Read ``stream`` to its end in :data:`READ_SIZE` calls, the way the
    benchmark's client does; ``(length, crc32)`` of what it returned."""
    crc = length = 0
    while block := stream.read(READ_SIZE):
        crc = zlib.crc32(block, crc)
        length += len(block)
    return length, crc


def file_digest(path) -> dict:
    sha = hashlib.sha256()
    crc = length = 0
    with open(path, "rb") as handle:
        while block := handle.read(READ_SIZE):
            sha.update(block)
            crc = zlib.crc32(block, crc)
            length += len(block)
    return {"length": length, "crc32": crc, "sha256": sha.hexdigest()}


def _load_cached(directory: str):
    """The prepared corpus in ``directory`` if its files still match the
    manifest written beside them, else None."""
    try:
        with open(os.path.join(directory, "manifest.json")) as handle:
            manifest = json.load(handle)
        prepared = Prepared(directory, manifest)
        if (file_digest(prepared.plain) != manifest["plain"]
                or file_digest(prepared.gz) != manifest["gz"]):
            return None
    except (OSError, ValueError, KeyError):
        return None
    return prepared


def prepare(workload: Workload, seed: int, root: str,
            quick: bool = False) -> Prepared:
    """Write the workload's corpus under ``root`` (or reuse a valid one).

    The directory is keyed by (workload, seed, size). Only this function
    sees the seed; the program is handed the files.
    """
    scale = QUICK_SCALE if quick else 1
    size = workload.size // scale
    directory = os.path.join(root, f"{workload.name}-seed{seed}-{size}")
    cached = _load_cached(directory)
    if cached is not None:
        return cached
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    # Chunks shrink with the corpus, so a quick run has as many of them.
    prepared = Prepared(directory, {"chunk_size": workload.chunk_size // scale})

    data = getattr(datagen, workload.generator)(size, seed=seed)
    with open(prepared.plain, "wb") as handle:
        handle.write(data)
    plain = file_digest(prepared.plain)
    if workload.mode == "catalog":
        compress_file(prepared.plain, prepared.gz, parallelism())
    else:
        # Level 6, as `gzip -6` writes it; mtime=0 keeps the file a
        # function of the seed alone. The search workloads read one member.
        # An index workload's file ends in a second, small member: when a
        # single member's Deflate stream ends at some bit alignments, zlib
        # delegation misplaces the gzip footer at end of file and the last
        # index chunk falls back to the Python decoder, which halves the
        # pass's throughput for about every second seed. A gzip magic
        # after the footer makes its position unambiguous.
        cut = len(data) - (TAIL_MEMBER if workload.mode == "index" else 0)
        with open(prepared.gz, "wb") as handle:
            handle.write(gzip.compress(data[:cut], 6, mtime=0))
            if cut < len(data):
                handle.write(gzip.compress(data[cut:], 6, mtime=0))

    index = None
    if workload.mode == "index":
        index = _export_index(workload, prepared, plain)
    prepared.manifest.update(
        workload=workload.name, seed=seed, size=size, plain=plain,
        gz=file_digest(prepared.gz), index=index,
    )
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump(prepared.manifest, handle, indent=1)
    return prepared


def _export_index(workload: Workload, prepared: Prepared, plain: dict) -> dict:
    """Build the index the way a user does: one full search-mode read
    with ``index_cache`` set, which exports it when the pass completes."""
    with ParallelGzipReader(
        prepared.gz, parallelization=parallelism(),
        **reader_options(workload, prepared),
    ) as reader:
        decoded = drain(reader)
        stats = reader.statistics()["index"]
    if decoded != (plain["length"], plain["crc32"]):
        raise InvalidRun("set-up decoded the corpus wrongly")
    if not stats["exported"]:
        raise InvalidRun("set-up read the file but no index was exported")
    return {
        "path": stats["cache_path"],
        "seek_points": stats["seek_points"],
        "file_bytes": os.path.getsize(stats["cache_path"]),
    }


# -- verified operations --------------------------------------------------------


class Tally:
    """Verified operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []  # first few reasons, for the report

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(what)
        return ok


def check_path(workload: Workload, stats: dict) -> None:
    """Raise :class:`InvalidRun` unless ``statistics()`` shows the open
    mode this workload is about."""
    encoding = stats["encoding"]
    problem = None
    if workload.mode == "search":
        if stats["mode"] != "search" or encoding["catalog_detected"]:
            problem = f"mode {stats['mode']!r}, expected a block search"
    elif workload.mode == "index":
        index = stats["index"]
        if stats["mode"] != "index" or not index["imported"]:
            problem = "the exported index was not imported"
        elif index["fallbacks"]:
            problem = f"{index['fallbacks']} index chunk(s) fell back"
    elif (not encoding["catalog_detected"] or stats["mode"] != "index"
            or encoding["blockfinder_searches"]
            or encoding["markers_replaced"]):
        problem = "the archive's catalog was not used for every chunk"
    if problem:
        raise InvalidRun(f"{workload.name}: {problem}")


def full_read(path, parallelization: int, options: dict, expect: dict,
              tally: Tally, after_read=None):
    """One verified sequential read of the whole file.

    Returns ``(seconds, statistics)``, or ``None`` when the read failed.
    The time runs from before the constructor to after ``close()`` and
    leaves out ``after_read(reader)``, which the seek bursts of the search
    workloads use to reuse the index this pass has just built.
    """
    paused = 0.0
    started = time.perf_counter()
    try:
        with ParallelGzipReader(
            path, parallelization=parallelization, **options
        ) as reader:
            decoded = drain(reader)
            pause_started = time.perf_counter()
            stats = reader.statistics()
            if after_read is not None:
                after_read(reader)
            paused = time.perf_counter() - pause_started
    except ReproError as error:
        tally.record(False, f"full read of {path}: {error!r}")
        return None
    seconds = time.perf_counter() - started - paused
    matches = decoded == (expect["length"], expect["crc32"])
    if not tally.record(matches, f"full read of {path}: wrong bytes"):
        return None
    return seconds, stats


def first_read(path, parallelization: int, options: dict, plain_fd: int,
               tally: Tally):
    """Milliseconds from before the constructor to the first 64 KiB
    returned by a fresh reader, or ``None`` when that failed."""
    started = time.perf_counter()
    try:
        reader = ParallelGzipReader(
            path, parallelization=parallelization, **options
        )
        try:
            data = reader.read(FIRST_READ_SIZE)
            seconds = time.perf_counter() - started
        finally:
            reader.close()
    except ReproError as error:
        tally.record(False, f"first read of {path}: {error!r}")
        return None
    matches = data == os.pread(plain_fd, FIRST_READ_SIZE, 0)
    if not tally.record(matches, f"first read of {path}: wrong bytes"):
        return None
    return seconds * 1e3


def seek_offsets(rng: random.Random, count: int, size: int) -> list:
    """Uniform offsets, except that every third lands near the last."""
    limit = max(size - SEEK_SIZE, 1)
    offsets = []
    for number in range(count):
        if number % 3 == 2:
            near = offsets[-1] + rng.randint(-NEAR_SEEK, NEAR_SEEK)
            offsets.append(min(max(near, 0), limit - 1))
        else:
            offsets.append(rng.randrange(limit))
    return offsets


def cold_offsets(reader, grid: int, rng: random.Random, count: int) -> list:
    """One offset in each of the ``count`` chunks before the middle of
    the file, walking backwards.

    The chunks come from the reader's own index. With ``grid`` (bytes, a
    search-mode reader) a chunk is what starts in one ``grid``-sized cell
    of the compressed file, and the read lands before the chunk's first
    interior seek point; without it every seek point starts a chunk. No
    cache holds these chunks (a pass leaves the file's tail cached, a
    fresh reader nothing) and forward prefetch does not bring them in, so
    every sample is one chunk decoded on demand, the same chunks in every
    burst.
    """
    points = reader.index.seek_points
    spans = {}  # chunk -> decompressed range up to the next seek point
    for number, (point, following) in enumerate(zip(points, points[1:])):
        chunk = point.compressed_bit_offset // (grid * 8) if grid else number
        spans.setdefault(
            chunk, (point.uncompressed_offset, following.uncompressed_offset)
        )
    cold = list(spans.values())
    cold = cold[:max(len(cold) // 2, 1)][-count:]
    return [
        start + rng.randrange(max(end - start - SEEK_SIZE, 1))
        for start, end in reversed(cold)
    ]


def workload_offsets(workload: Workload, reader, chunk_size: int,
                     rng: random.Random, size: int) -> list:
    """One burst of offsets in the workload's pattern."""
    if workload.random_seeks:
        return seek_offsets(rng, workload.seeks, size)
    grid = chunk_size if workload.mode == "search" else 0
    return cold_offsets(reader, grid, rng, workload.seeks)


def wait_until_idle(reader, limit: float = 2.0) -> None:
    """Return once the reader's pool has no task queued or running (or
    after ``limit`` seconds), by polling its public ``statistics()``."""
    deadline = time.perf_counter() + limit
    while time.perf_counter() < deadline:
        pool = reader.statistics()["pool"]
        done = pool["tasks_completed"] + pool["tasks_cancelled"]
        if pool["tasks_submitted"] <= done:
            return
        time.sleep(0.002)


def seek_burst(reader, offsets: list, plain_fd: int, tally: Tally,
               settle: bool = False) -> list:
    """``read_at`` each offset; milliseconds of the reads that verified.

    With ``settle`` the client lets the pool drain before each read, so
    that a sample is one read on an idle reader and not also the wait
    behind the prefetch that the previous read set off.
    """
    latencies = []
    for offset in offsets:
        if settle:
            wait_until_idle(reader)
        started = time.perf_counter()
        try:
            data = reader.read_at(offset, SEEK_SIZE)
        except ReproError as error:
            tally.record(False, f"read_at({offset}): {error!r}")
            continue
        seconds = time.perf_counter() - started
        if tally.record(data == os.pread(plain_fd, SEEK_SIZE, offset),
                        f"read_at({offset}): wrong bytes"):
            latencies.append(seconds * 1e3)
    return latencies


def compress_file(plain_path, target_path, parallelization: int) -> float:
    """Stream ``plain_path`` into a parallel-friendly archive; seconds."""
    started = time.perf_counter()
    with open(plain_path, "rb") as source, open(target_path, "wb") as sink:
        with ParallelGzipWriter(
            sink, parallelization=parallelization, chunk_size=WRITER_CHUNK,
            layout="parallel-friendly",
        ) as writer:
            while block := source.read(READ_SIZE):
                writer.write(block)
    return time.perf_counter() - started


def verified_compression(prepared: Prepared, parallelization: int,
                         tally: Tally):
    """Compress the original and check that stock gzip restores it.

    Returns seconds, or ``None`` when the archive was wrong.
    """
    seconds = compress_file(
        prepared.plain, prepared.scratch_gz, parallelization
    )
    try:
        with gzip.open(prepared.scratch_gz) as handle:
            restored = drain(handle)
    except (OSError, EOFError, zlib.error) as error:
        tally.record(False, f"written archive unreadable: {error!r}")
        return None
    expect = prepared.manifest["plain"]
    matches = restored == (expect["length"], expect["crc32"])
    if not tally.record(matches, "written archive restores other bytes"):
        return None
    return seconds


# -- the timed loop -------------------------------------------------------------


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest reaped child
    (a reader's worker process), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024  # Linux reports KiB


def run_timed(workload: Workload, prepared: Prepared, seconds: float,
              seed: int) -> dict:
    """Warm up, then repeat the workload's cycle for ``seconds``.

    Returns the end-to-end metric values (medians over all samples), the
    tally of verified operations and what the readers resolved to.
    """
    cores = parallelism()
    options = reader_options(workload, prepared)
    expect = prepared.manifest["plain"]
    megabytes = expect["length"] / 1e6
    tally = Tally()
    rng = random.Random(seed)
    samples = {name: [] for name in (
        "decompress_mb_s", "decompress_p1_mb_s", "first_read_ms",
        "seek_ms_p50", "compress_mb_s",
    )}
    resolved = {}
    plain_fd = os.open(prepared.plain, os.O_RDONLY)

    # The catalog workload reads back what its cycle has just written.
    path = prepared.scratch_gz if workload.mode == "catalog" else prepared.gz

    def cycle(sink: dict) -> None:
        def burst(reader) -> None:
            offsets = workload_offsets(
                workload, reader, options["chunk_size"], rng,
                expect["length"],
            )
            sink["seek_ms_p50"].extend(
                seek_burst(reader, offsets, plain_fd, tally,
                           settle=not workload.random_seeks)
            )

        for _ in range(workload.compressions):
            taken = verified_compression(prepared, cores, tally)
            if taken is not None:
                sink["compress_mb_s"].append(megabytes / taken)
        for parallelization, name in (
            (cores, "decompress_mb_s"), (1, "decompress_p1_mb_s"),
        ):
            for number in range(workload.passes):
                # A search-mode reader can only seek cheaply once a pass
                # has built its index, so its seeks follow that pass.
                seeks_here = (
                    workload.mode == "search" and parallelization == cores
                    and number == workload.passes - 1
                )
                outcome = full_read(
                    path, parallelization, options, expect, tally,
                    after_read=burst if seeks_here else None,
                )
                if outcome is None:
                    continue
                taken, stats = outcome
                check_path(workload, stats)
                sink[name].append(megabytes / taken)
                resolved[f"backend_p{parallelization}"] = stats["backend"]
                resolved["decoder"] = stats["decoder"]
        if workload.mode != "search":
            try:
                with ParallelGzipReader(
                    path, parallelization=cores, **options
                ) as reader:
                    burst(reader)
                    check_path(workload, reader.statistics())
            except ReproError as error:
                tally.record(False, f"open for seeking: {error!r}")
        for _ in range(workload.first_reads):
            taken = first_read(path, cores, options, plain_fd, tally)
            if taken is not None:
                sink["first_read_ms"].append(taken)

    try:
        # Untimed: lazy tables, imports and the page cache. Its operations
        # are verified and counted like the others.
        cycle({name: [] for name in samples})
        # Memory is read after this fixed amount of work. Resident size
        # creeps up from cycle to cycle, by an amount that varies, and a
        # faster program must not look bigger for fitting more cycles in.
        peak_rss = peak_rss_mib()
        started = time.perf_counter()
        cycles = 0
        measured = 0.0
        # Stop where another cycle would overshoot by more than it
        # undershoots now.
        while (cycles < MIN_CYCLES
               or measured + measured / cycles / 2 <= seconds):
            cycle(samples)
            cycles += 1
            measured = time.perf_counter() - started
    finally:
        os.close(plain_fd)

    # Every metric but memory is the median of its samples. A run with
    # failed operations may lack samples; it reports 0 there and is marked
    # incorrect by its failure count.
    metrics = {
        name: statistics.median(values) if values else 0.0
        for name, values in samples.items()
    }
    metrics["peak_rss_mb"] = peak_rss
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "cycles": cycles,
        "measured_seconds": measured,
        "samples": {name: len(values) for name, values in samples.items()},
        "quartiles": {
            name: statistics.quantiles(values, n=4)
            for name, values in samples.items() if len(values) >= 2
        },
        "resolved": resolved,
    }

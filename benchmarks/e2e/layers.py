"""The layer budget, measured from outside.

The traced pass answers "where does a pass's time go" without touching
the program: it calls each layer's public function the way the pipeline
does, one chunk after the other in file order and with the true previous
window (a *serial replay*), and wraps every call in a span. A layer is a
module of ``repro``; its busy time is the sum of the spans around its
function. Counts that the pipeline itself keeps are read from the public
``statistics()`` of a reader pass made under outside spans.

Nothing here feeds an end-to-end metric. A layer with no role in a
workload reports 0, so that "predicted no change" can be checked.
"""

import gzip
import os
import pickle
import random
import statistics
import zlib

from repro.blockfinder.combined import CombinedBlockFinder
from repro.fetcher.decode import (
    decode_chunk_range,
    decode_index_chunk,
    shift_to_byte_alignment,
    speculative_decode,
    zlib_decode_range,
)
from repro.errors import FormatError
from repro.fetcher.tasks import ChunkTaskSpec, execute_chunk_task
from repro.gz import detect_catalog, fast_crc32, parse_gzip_header, synthesize_index
from repro.index import load_index, window_bytes
from repro.io import BitReader, SharedFileReader, ensure_file_reader
from repro.pool.backend import create_pool
from repro.reader import ParallelGzipReader
from repro.telemetry import Telemetry

from trace import Tracer
from workloads import (
    READ_SIZE,
    WRITER_CHUNK,
    Tally,
    check_path,
    compress_file,
    drain,
    full_read,
    parallelism,
    reader_options,
    seek_burst,
    workload_offsets,
)

__all__ = ["run_traced"]

UNTRACED_PASSES = 3  # reference for trace.overhead_ratio
LAYER_PASSES = 2  # P=1 pass + serial replay; each layer keeps its quieter sum


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- reader passes under outside spans -------------------------------------------


def _traced_full_read(tracer: Tracer, path, parallelization: int,
                      options: dict, expect: dict, tally: Tally,
                      after_read=None):
    """A full read whose constructor, ``read`` calls and ``close`` each
    sit in a span; returns ``(seconds, statistics)``. ``after_read`` runs
    on the open reader after the statistics are taken, outside the time."""
    crc = length = 0
    with tracer.span("reader.pass", parallelization=parallelization):
        with tracer.span("reader.open") as opening:
            reader = ParallelGzipReader(
                path, parallelization=parallelization, **options
            )
        try:
            while True:
                with tracer.span("reader.read") as reading:
                    block = reader.read(READ_SIZE)
                if not block:
                    break
                crc = zlib.crc32(block, crc)
                length += len(block)
            stats = reader.statistics()
            if after_read is not None:
                after_read(reader)
        finally:
            with tracer.span("reader.close") as closing:
                reader.close()
    tally.record((length, crc) == (expect["length"], expect["crc32"]),
                 f"traced full read at P={parallelization}: wrong bytes")
    seconds = (
        reading["end"] - opening["start"] + closing["end"] - closing["start"]
    )
    return seconds, stats


def _traced_seek_pass(tracer: Tracer, path, options: dict, burst) -> dict:
    """``burst`` on a fresh reader; returns its ``statistics()``."""
    with tracer.span("reader.seek_pass"):
        with tracer.span("reader.open"):
            reader = ParallelGzipReader(
                path, parallelization=parallelism(), **options
            )
        try:
            burst(reader)
            return reader.statistics()
        finally:
            with tracer.span("reader.close"):
                reader.close()


# -- serial replays ----------------------------------------------------------------


def _replay_search(tracer: Tracer, path: str, chunk_size: int,
                   time_ipc: bool) -> dict:
    """Decode the file chunk by chunk the way search mode does.

    Per chunk: the block finder alone, the speculative decode the worker
    runs (finder + two-stage decode), the two decode kernels alone from
    the offset found, marker replacement and window propagation with the
    true previous window, the CRC, and — where workers are processes — the
    task as a worker runs it plus a pickle round trip of what it returns.
    """
    # `source` counts the bytes the pipeline's own calls read; the calls
    # that time one layer in isolation read through `aside`.
    source = SharedFileReader(path)
    aside = ensure_file_reader(path)
    chunk_bits = chunk_size * 8
    header = BitReader(aside.clone())
    parse_gzip_header(header)
    counts = {"chunks": 0, "speculative": 0, "unusable": 0, "candidates": 0,
              "with_markers": 0, "output": 0, "speculative_output": 0,
              "scanned_bits": 0, "ipc_bytes": 0, "crc": 0}

    # The first chunk starts at a known offset with an empty window.
    with tracer.span("fetcher.on_demand", chunk=0):
        result = decode_chunk_range(source, header.tell(), chunk_bits, b"")
    window = b""
    while True:
        counts["chunks"] += 1
        with tracer.span("markers.materialize"):
            data = result.payload.materialize(window)
        with tracer.span("markers.window_at_end"):
            window = result.payload.window_at_end(window)
        with tracer.span("crc32.fast_crc32"):
            counts["crc"] = fast_crc32(data, counts["crc"])
        counts["output"] += len(data)
        next_bit = result.end_bit
        if next_bit is None:
            break

        chunk = next_bit // chunk_bits
        stop_bit = (chunk + 1) * chunk_bits
        with tracer.span("blockfinder.find_next", chunk=chunk):
            CombinedBlockFinder(aside.clone()).find_next(
                chunk * chunk_bits, until=stop_bit
            )
        # The finder filters the whole window before it returns its first
        # candidate, so the window is what it scanned.
        counts["scanned_bits"] += (
            min(stop_bit, source.size() * 8) - chunk * chunk_bits
        )
        telemetry = Telemetry()
        with tracer.span("fetcher.speculative_decode", chunk=chunk):
            result = speculative_decode(
                source, chunk, chunk_size, telemetry=telemetry
            )
        counts["speculative"] += 1
        counts["candidates"] += telemetry.metrics.counter(
            "blockfinder.candidates_tested"
        ).value
        if result is None or result.start_bit != next_bit:
            # What the fetcher does with a speculation it cannot use.
            counts["unusable"] += 1
            with tracer.span("fetcher.on_demand", chunk=chunk):
                result = decode_chunk_range(source, next_bit, stop_bit, window)
            continue
        counts["with_markers"] += result.payload.has_markers
        counts["speculative_output"] += result.length
        with tracer.span("deflate.two_stage", chunk=chunk):
            decode_chunk_range(aside, next_bit, stop_bit, None)
        with tracer.span("deflate.conventional", chunk=chunk):
            decode_chunk_range(aside, next_bit, stop_bit, window)
        if time_ipc:
            spec = ChunkTaskSpec(
                recipe=("path", path), mode="search", chunk_id=chunk,
                chunk_size=chunk_size,
            )
            with tracer.span("pool.execute_chunk_task", chunk=chunk):
                outcome = execute_chunk_task(spec)
            with tracer.span("pool.pickle", chunk=chunk):
                blob = pickle.dumps(outcome)
                pickle.loads(blob)
            counts["ipc_bytes"] += len(blob)
    counts["bytes_read"] = source.bytes_read
    source.close()
    aside.close()
    return counts


def _replay_index(tracer: Tracer, path: str, index) -> dict:
    """Decode every seek-point interval the way index mode does: the bit
    shift alone, then the zlib-delegating chunk decode with the interval's
    window and the next window for tail verification."""
    source = SharedFileReader(path)  # counts bytes read
    aside = ensure_file_reader(path)
    points = index.seek_points
    counts = {"chunks": 0, "output": 0, "crc": 0, "refused": 0}
    for number, point in enumerate(points):
        last = number + 1 == len(points)
        following = None if last else points[number + 1]
        end_bit = (
            index.compressed_size_bits if last
            else following.compressed_bit_offset
        )
        expected = (
            index.uncompressed_size if last else following.uncompressed_offset
        ) - point.uncompressed_offset
        next_window = None
        if following is not None and not following.is_stream_start:
            next_window = window_bytes(following.window) or None
        window = window_bytes(point.window)
        with tracer.span("fetcher.shift_to_byte_alignment", chunk=number):
            shift_to_byte_alignment(
                aside, point.compressed_bit_offset, end_bit
            )
        # decode_index_chunk falls back to the Python decoder silently;
        # the delegation alone shows how often it would.
        try:
            with tracer.span("fetcher.zlib_decode_range", chunk=number):
                zlib_decode_range(
                    aside, point.compressed_bit_offset, end_bit, window,
                    expected_size=expected, next_window=next_window,
                    require_stream_end=last,
                )
        except FormatError:
            counts["refused"] += 1
        with tracer.span("fetcher.decode_index_chunk", chunk=number):
            result = decode_index_chunk(
                source, point.compressed_bit_offset, end_bit, window,
                expected_size=expected, is_last=last, next_window=next_window,
            )
        with tracer.span("markers.materialize"):
            data = result.payload.materialize(window)
        with tracer.span("crc32.fast_crc32"):
            counts["crc"] = fast_crc32(data, counts["crc"])
        counts["chunks"] += 1
        counts["output"] += len(data)
    counts["bytes_read"] = source.bytes_read
    source.close()
    aside.close()
    return counts


# -- stand-alone probes ------------------------------------------------------------


def _pread_sweep(tracer: Tracer, path: str, chunk_size: int) -> float:
    """MB/s of chunk-sized positional reads over the compressed file."""
    reader = ensure_file_reader(path)
    size = reader.size()
    sweeps = max(1, (64 << 20) // max(size, 1))
    with tracer.span("io.pread", sweeps=sweeps) as span:
        for _ in range(sweeps):
            for offset in range(0, size, chunk_size):
                reader.pread(offset, chunk_size)
    reader.close()
    return _ratio(sweeps * size / 1e6, span["end"] - span["start"])


def _pool_spawn_ms(tracer: Tracer, backend: str, size: int) -> float:
    """Create the pool the reader would, run one trivial task, shut down."""
    with tracer.span("pool.spawn", backend=backend) as span:
        pool = create_pool(backend, size)
        try:
            pool.submit(os.getpid).result()
        finally:
            pool.shutdown(wait=True)
    return (span["end"] - span["start"]) * 1e3


def _zlib_floor(tracer: Tracer, plain_path: str) -> float:
    """MB/s of ``zlib`` over the writer's pieces on one core: what the
    parallel writer can at best reach per worker."""
    total = 0
    with open(plain_path, "rb") as handle, \
            tracer.span("zlib.compress_pieces") as span:
        while piece := handle.read(WRITER_CHUNK):
            compressor = zlib.compressobj(6, zlib.DEFLATED, -15)
            compressor.compress(piece)
            compressor.flush()
            total += len(piece)
    return _ratio(total / 1e6, span["end"] - span["start"])


def _stock_gzip(tracer: Tracer, path: str) -> float:
    """MB/s of the standard library reading the same file."""
    with tracer.span("zlib.gzip_read") as span, gzip.open(path) as handle:
        length, _ = drain(handle)
    return _ratio(length / 1e6, span["end"] - span["start"])


# -- the traced pass -----------------------------------------------------------------


def run_traced(workload, prepared, seed: int, trace_path=None) -> dict:
    """Run the traced pass of one workload; returns per-layer metric
    values, the verified-operation tally and exact counts."""
    tracer = Tracer(f"{workload.name}-seed{seed}")
    tally = Tally()
    cores = parallelism()
    options = reader_options(workload, prepared)
    expect = prepared.manifest["plain"]
    megabytes = expect["length"] / 1e6
    path = prepared.gz

    # Untraced reference passes (the first also warms lazy tables).
    full_read(path, cores, options, expect, tally)
    untraced = [
        outcome[0]
        for outcome in (
            full_read(path, cores, options, expect, tally)
            for _ in range(UNTRACED_PASSES)
        )
        if outcome is not None
    ]

    # One seek burst in the workload's pattern: on a fresh reader, or, as
    # in the timed cycle, after the pass that gives a search-mode reader
    # its index.
    seek_ms = []
    plain_fd = os.open(prepared.plain, os.O_RDONLY)

    def burst(reader) -> None:
        offsets = workload_offsets(
            workload, reader, options["chunk_size"], random.Random(seed),
            expect["length"],
        )
        with tracer.span("reader.read_at", count=len(offsets)):
            seek_ms.extend(seek_burst(
                reader, offsets, plain_fd, tally,
                settle=not workload.random_seeks,
            ))

    try:
        traced_cores, stats_cores = _traced_full_read(
            tracer, path, cores, options, expect, tally,
            after_read=burst if workload.mode == "search" else None,
        )
        check_path(workload, stats_cores)
        stats = stats_cores
        if workload.mode != "search":
            seek_stats = _traced_seek_pass(tracer, path, options, burst)
            check_path(workload, seek_stats)
            if workload.random_seeks:
                # Counts come from the workload's own access pattern.
                stats = seek_stats
    finally:
        os.close(plain_fd)
    backend = stats_cores["backend"]

    # What the replay of an index or catalog workload decodes from.
    compressed = os.path.getsize(path)
    index = None
    index_info = {"load_s": 0.0, "file_bytes": 0, "seek_points": 0}
    if workload.mode == "index":
        cached = prepared.manifest["index"]
        with tracer.span("index.load_index"):
            index = load_index(cached["path"], source=path, validate="eager")
        index_info["load_s"] = tracer.seconds("index.load_index")
        index_info["file_bytes"] = cached["file_bytes"]
    elif workload.mode == "catalog":
        file_reader = ensure_file_reader(path)
        with tracer.span("catalog.detect_catalog"):
            catalog, errors = detect_catalog(file_reader)
        if catalog is None:
            raise RuntimeError(f"no catalog in {path}: {errors}")
        with tracer.span("catalog.synthesize_index"):
            index = synthesize_index(catalog, file_reader.size())
        file_reader.close()
    if index is not None:
        index_info["seek_points"] = len(index)

    # The budget: a P=1 reader pass, then the serial replay of its layers.
    # Both run LAYER_PASSES times and the pass and each layer keep their
    # smaller total: on a shared host a burst of interference only ever
    # adds time, and one burst must not read as a layer's share.
    layer_passes = []
    for _ in range(LAYER_PASSES):
        mark = len(tracer.spans)
        wall_p1, stats_p1 = _traced_full_read(
            tracer, path, 1, options, expect, tally
        )
        check_path(workload, stats_p1)
        if workload.mode == "search":
            counts = _replay_search(
                tracer, path, options["chunk_size"], backend == "processes"
            )
        else:
            counts = _replay_index(tracer, path, index)
        tally.record(
            (counts["output"], counts["crc"])
            == (expect["length"], expect["crc32"]),
            "serial replay produced other bytes",
        )
        layer_passes.append((wall_p1, tracer.seconds_by_name(mark)))
    traced_p1 = min(wall for wall, _ in layer_passes)

    def seconds(name: str) -> float:
        return min(totals.get(name, 0.0) for _, totals in layer_passes)

    # Stand-alone probes.
    pread_mb_s = _pread_sweep(tracer, path, options["chunk_size"])
    spawn_ms = _pool_spawn_ms(tracer, backend, cores)
    writer_cores = compress_file(prepared.plain, prepared.scratch_gz, cores)
    writer_p1 = compress_file(prepared.plain, prepared.scratch_gz, 1)
    zlib_floor = _zlib_floor(tracer, prepared.plain)
    stock_mb_s = _stock_gzip(tracer, path)

    find_s = seconds("blockfinder.find_next")
    speculative_s = seconds("fetcher.speculative_decode")
    two_stage_s = seconds("deflate.two_stage")
    index_chunk_s = seconds("fetcher.decode_index_chunk")
    speculative_output = counts.get("speculative_output", 0)
    accounted = (
        speculative_s + seconds("fetcher.on_demand") + index_chunk_s
        + seconds("markers.materialize") + seconds("markers.window_at_end")
        + seconds("crc32.fast_crc32") + index_info["load_s"]
        + tracer.seconds("catalog.detect_catalog")
        + tracer.seconds("catalog.synthesize_index")
    )
    submitted = stats["speculative_submitted"]
    pool = stats["pool"]
    untraced_median = statistics.median(untraced) if untraced else 0.0
    # Like the P=1 pass it is compared with, the quietest of the P=cores
    # passes (the spans around read() cost nothing measurable).
    best_cores = min([traced_cores] + untraced)
    metrics = {
        "io.pread_mb_s": pread_mb_s,
        "io.bytes_read_per_compressed_byte": _ratio(
            counts["bytes_read"], compressed
        ),
        "blockfinder.find_s": find_s,
        "blockfinder.scan_mb_s": _ratio(
            counts.get("scanned_bits", 0) / 8e6, find_s
        ),
        "blockfinder.candidates_tested": counts.get("candidates", 0),
        "blockfinder.share_of_chunk": _ratio(find_s, speculative_s),
        "deflate.two_stage_s": two_stage_s,
        "deflate.two_stage_mb_s": _ratio(speculative_output / 1e6, two_stage_s),
        "deflate.conventional_mb_s": _ratio(
            speculative_output / 1e6, seconds("deflate.conventional")
        ),
        "markers.replace_s": seconds("markers.materialize"),
        "markers.window_propagation_s": seconds("markers.window_at_end"),
        "markers.replaced": stats_p1["encoding"]["markers_replaced"],
        "markers.chunks_with_markers_ratio": _ratio(
            counts.get("with_markers", 0), counts["chunks"]
        ),
        "fetcher.speculative_s": speculative_s,
        "fetcher.index_chunk_s": index_chunk_s,
        "fetcher.index_chunk_mb_s": _ratio(
            counts["output"] / 1e6, index_chunk_s
        ) if index_chunk_s else 0.0,
        "fetcher.shift_s": seconds("fetcher.shift_to_byte_alignment"),
        "fetcher.index_fallbacks": stats["index"]["fallbacks"],
        "fetcher.delegation_refusals": counts.get("refused", 0),
        "fetcher.wasted_decode_ratio": _ratio(
            stats["speculative_unusable"] + stats["speculative_rejects"],
            submitted,
        ),
        "fetcher.on_demand_decodes": stats["on_demand_decodes"],
        "pool.ipc_s": seconds("pool.pickle"),
        "pool.ipc_bytes_per_output_byte": _ratio(
            counts.get("ipc_bytes", 0), speculative_output
        ),
        "pool.utilization": pool["utilization"],
        "pool.tasks_completed": pool["tasks_completed"],
        "pool.spawn_ms": spawn_ms,
        "cache.prefetch_hit_rate": stats["prefetch_cache"]["hit_rate"],
        "cache.access_hit_rate": stats["access_cache"]["hit_rate"],
        "cache.materialized_hit_rate": stats["materialized_cache"]["hit_rate"],
        "cache.prefetch_evictions": stats["prefetch_cache"]["evictions"],
        "index.load_s": index_info["load_s"],
        "index.file_bytes": index_info["file_bytes"],
        "index.seek_points": index_info["seek_points"],
        "crc32.verify_s": seconds("crc32.fast_crc32"),
        "catalog.detect_s": tracer.seconds("catalog.detect_catalog"),
        "catalog.synthesize_index_s": tracer.seconds(
            "catalog.synthesize_index"
        ),
        "writer.p1_mb_s": _ratio(megabytes, writer_p1),
        "writer.zlib_floor_mb_s": zlib_floor,
        "writer.scaling": _ratio(writer_p1, writer_cores),
        "reader.residual_s": traced_p1 - accounted,
        "reader.accounted_ratio": _ratio(accounted, traced_p1),
        "reader.read_calls": stats_p1["read_calls"],
        "scaling.speedup": _ratio(traced_p1, best_cores),
        "scaling.efficiency": _ratio(traced_p1, best_cores * cores),
        "baseline.zlib_mb_s": stock_mb_s,
        "trace.overhead_ratio": _ratio(traced_cores, untraced_median),
        # Few samples except on the seek workload (one burst): the 95th
        # percentile is then the slowest read or the one before it.
        "seek_ms_p95": sorted(seek_ms)[int(0.95 * len(seek_ms))]
        if seek_ms else 0.0,
    }
    if trace_path is not None:
        tracer.write(trace_path)
    return {
        "metrics": metrics,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "spans": len(tracer.spans),
        "exact_counts": {
            "chunks": counts["chunks"],
            "blockfinder.candidates_tested": counts.get("candidates", 0),
            "markers.replaced": stats_p1["encoding"]["markers_replaced"],
            "index.seek_points": index_info["seek_points"],
        },
        "resolved": {
            f"backend_p{cores}": backend,
            "backend_p1": stats_p1["backend"],
            "decoder": stats_cores["decoder"],
        },
    }

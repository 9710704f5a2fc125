"""rapidgzip-like command line interface.

Mirrors the rapidgzip tool's surface where it makes sense for this
reproduction::

    rapidgzip-py data.gz                       # decompress to data
    rapidgzip-py -c data.gz > out              # decompress to stdout
    rapidgzip-py -P 8 --chunk-size 4096 x.gz   # 8-way parallel, 4 MiB chunks
    rapidgzip-py --export-index x.idx x.gz     # build + save seek index
    rapidgzip-py --import-index x.idx x.gz     # decompress via the index
    rapidgzip-py --count x.gz                  # decompressed size only
    rapidgzip-py --count-lines x.gz            # newline count (wc -l)
    rapidgzip-py --analyze x.gz                # block/member structure
    rapidgzip-py --recover broken.gz           # salvage a damaged file
    rapidgzip-py --compress --profile pigz f   # create test corpora
    rapidgzip-py x.gz --trace x.trace.json     # Chrome/Perfetto trace
    rapidgzip-py x.gz --profile                # [Info] profile report
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import (
    EXIT_NETWORK,
    NetworkError,
    ReproError,
    SourceChangedError,
    cause_chain,
    exit_code_for,
)
from .io.options import RemoteReaderOptions
from .pool import available_cores
from .reader.options import DEFAULT_CHUNK_SIZE

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rapidgzip-py",
        description="Parallel gzip decompression with seeking "
        "(pure-Python reproduction of rapidgzip, HPDC '23).",
    )
    parser.add_argument("file", help="input file ('-' for stdin)")
    parser.add_argument("--version", action="version", version=__version__)

    parser.add_argument(
        "-P",
        "--parallelization",
        type=int,
        default=available_cores(),
        help="number of decompression threads (default: the cores this "
        "process may run on)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE // 1024,
        metavar="KiB",
        help=f"compressed chunk size in KiB (default: "
        f"{DEFAULT_CHUNK_SIZE // 1024})",
    )
    parser.add_argument("-o", "--output", help="output file path")
    parser.add_argument(
        "-c", "--stdout", action="store_true", help="write output to stdout"
    )
    parser.add_argument(
        "-d", "--decompress", action="store_true", help="decompress (default action)"
    )
    parser.add_argument(
        "-f", "--force", action="store_true", help="overwrite existing output files"
    )
    parser.add_argument(
        "--no-verify", action="store_true", help="skip CRC-32/ISIZE verification"
    )
    parser.add_argument(
        "--no-catalog",
        action="store_true",
        help="ignore embedded MZ/RG chunk catalogs and decode via the "
        "marker-based search path (baseline for benchmarking "
        "parallel-friendly archives)",
    )

    robustness = parser.add_argument_group("robustness")
    robustness.add_argument(
        "--tolerate-corruption",
        action="store_true",
        help="keep reading through corrupted/truncated regions: skip the "
        "damage, substitute '?' where history was destroyed, and print a "
        "damage summary to stderr instead of failing",
    )
    robustness.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="bound on the wait for an in-flight chunk decode; a chunk "
        "that misses it is decoded on the reading thread instead",
    )
    robustness.add_argument(
        "--max-memory",
        default=None,
        metavar="SIZE",
        help="cap resident decompressed bytes across caches and in-flight "
        "decodes, e.g. 64MiB, 1.5G, or a plain byte count; prefetching "
        "backs off, oversized chunks split at block boundaries, and "
        "evicted chunks spill to disk",
    )
    robustness.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="directory for spilled chunks (default: a private temp "
        "directory, removed on exit); implies the spill tier even "
        "without --max-memory",
    )
    robustness.add_argument(
        "--net-retries",
        type=int,
        default=RemoteReaderOptions.retries,
        metavar="N",
        help="for http(s):// inputs: retry budget per range read; "
        "transient failures back off with jitter, a persistently dead "
        "origin trips the circuit breaker and exits with code 9 "
        f"(default: {RemoteReaderOptions.retries})",
    )
    robustness.add_argument(
        "--net-timeout",
        type=float,
        default=RemoteReaderOptions.deadline,
        metavar="SECONDS",
        help="for http(s):// inputs: total per-read deadline covering "
        "all retries and backoff (per-attempt socket timeout is "
        f"derived); default: {RemoteReaderOptions.deadline:g}",
    )
    robustness.add_argument(
        "--net-block-size",
        type=int,
        default=RemoteReaderOptions.block_size // 1024,
        metavar="KiB",
        help="for http(s):// inputs: aligned wire-block size of the "
        "read-coalescing cache — one HTTP range request per block "
        f"(default: {RemoteReaderOptions.block_size // 1024})",
    )

    group = parser.add_argument_group("index")
    group.add_argument(
        "--export-index",
        metavar="FILE",
        help="build the seek index and persist it crash-safely "
        "(checksummed format with a source fingerprint, atomic "
        "temp-file + rename write)",
    )
    group.add_argument(
        "--import-index",
        metavar="FILE",
        help="decompress via a saved seek index; strict: any integrity "
        "or binding failure aborts with exit code 8 naming the failed "
        "check (use --index-cache for the tolerant fall-back behavior)",
    )
    group.add_argument(
        "--index-cache",
        metavar="DIR",
        help="persistent index cache directory: a matching index is "
        "imported on open and one is atomically exported after the "
        "first full decode; a stale or corrupted entry falls back to "
        "the full parallel search (notice on stderr, exit 0) and is "
        "re-exported afterwards",
    )

    actions = parser.add_argument_group("alternative actions")
    actions.add_argument(
        "--count", action="store_true", help="print the decompressed byte count"
    )
    actions.add_argument(
        "--count-lines", action="store_true", help="print the newline count"
    )
    actions.add_argument(
        "--analyze", action="store_true", help="print member/block structure"
    )
    actions.add_argument(
        "--recover", action="store_true", help="salvage data from a damaged file"
    )
    actions.add_argument(
        "--compress", action="store_true", help="compress instead of decompressing"
    )
    actions.add_argument(
        "--profile",
        nargs="?",
        const="__report__",
        default="gzip",
        metavar="NAME",
        help="with --compress: compression profile (gzip, pigz, bgzf, "
        "bgzf-stored, igzip0, stored, custom); without --compress, a bare "
        "--profile prints an [Info] telemetry report to stderr",
    )
    actions.add_argument("--level", type=int, default=None, help="compression level")
    actions.add_argument(
        "--parallel-compress",
        action="store_true",
        help="with --compress: compress chunks on -P threads "
        "(pigz-style independent members; combine with --profile bgzf "
        "via --layout)",
    )
    actions.add_argument(
        "--layout",
        default="members",
        choices=["members", "bgzf", "parallel-friendly", "chunk-isolated"],
        help="parallel compression output layout; parallel-friendly and "
        "chunk-isolated embed an MZ/RG chunk catalog in the first gzip "
        "header so readers skip marker decode and block-finder search",
    )
    actions.add_argument(
        "--parallel-friendly",
        action="store_true",
        help="shorthand for --parallel-compress --layout parallel-friendly: "
        "independent members with a self-describing chunk catalog, still "
        "decodable by stock gunzip",
    )
    actions.add_argument(
        "--chunk-isolated-size",
        type=int,
        default=None,
        metavar="KiB",
        help="shorthand for --parallel-compress --layout chunk-isolated "
        "with the given chunk size: one gzip member whose Deflate stream "
        "resets LZ77 history at byte-aligned chunk boundaries",
    )
    observability = parser.add_argument_group("observability")
    observability.add_argument(
        "--trace",
        metavar="FILE",
        help="record the pipeline's spans and each chunk's lifecycle "
        "instants and write Chrome trace-event JSON (open in Perfetto or "
        "chrome://tracing)",
    )
    observability.add_argument(
        "--stats",
        action="store_true",
        help="print the full statistics/metrics snapshot as "
        "schema-versioned, key-sorted JSON to stderr",
    )
    observability.add_argument(
        "--explain",
        action="store_true",
        help="attribute each read()'s wall time across pipeline stages "
        "(block-find, queue wait, decode, window propagation, spill I/O) "
        "and print the bottleneck report to "
        "stderr; implies tracing for this run",
    )
    observability.add_argument(
        "--explain-json",
        metavar="FILE",
        help="write the machine-readable --explain report as JSON "
        "(implies --explain's instrumentation)",
    )
    observability.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live telemetry over HTTP on 127.0.0.1:PORT while the "
        "run lasts: /metrics (Prometheus text format), /stats (JSON), "
        "/series (periodic samples), /healthz; 0 picks an ephemeral "
        "port (printed to stderr)",
    )
    observability.add_argument(
        "--metrics-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="sampling interval of the /series time-series capture "
        "(default: 1.0)",
    )
    return parser


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    if path.startswith(("http://", "https://")):
        from .io import open_remote

        with open_remote(path) as reader:
            return reader.pread(0, reader.size())
    with open(path, "rb") as handle:
        return handle.read()


def _open_output(arguments, default_name: str):
    if arguments.stdout or arguments.file == "-":
        return sys.stdout.buffer
    path = arguments.output or default_name
    if os.path.exists(path) and not arguments.force:
        raise ReproError(f"output file {path!r} exists (use --force to overwrite)")
    return open(path, "wb")


def _cmd_analyze(data: bytes) -> int:
    from .gz import iter_members

    type_names = {0: "stored", 1: "fixed", 2: "dynamic"}
    print(f"{'member':>6} {'start':>12} {'deflate-bit':>12} {'size':>12} "
          f"{'blocks':>7} {'types':>12}")
    for number, (info, _data) in enumerate(iter_members(data, verify=False)):
        counts: dict = {}
        for boundary in info.boundaries:
            name = type_names[boundary.block_type]
            counts[name] = counts.get(name, 0) + 1
        summary = ",".join(f"{k}:{v}" for k, v in sorted(counts.items()))
        print(
            f"{number:>6} {info.compressed_start:>12} {info.deflate_start_bit:>12} "
            f"{info.uncompressed_size:>12} {len(info.boundaries):>7} {summary:>12}"
        )
    return 0


def main(argv=None) -> int:
    arguments = build_parser().parse_args(argv)
    try:
        return _dispatch(arguments)
    except ReproError as error:
        print(f"rapidgzip-py: error: {error}", file=sys.stderr)
        cause = error.__cause__
        if cause is not None and cause is not error:
            print(f"rapidgzip-py: caused by: {cause}", file=sys.stderr)
        code = exit_code_for(error)
        if code == EXIT_NETWORK:
            _summarize_network_failure(error)
        # Distinct exit codes per failure class: format=4, integrity=5,
        # recovery=7, index=8, network=9, other library errors=1 (6 is
        # retired).
        return code
    except BrokenPipeError:
        return 141


def _summarize_network_failure(error) -> None:
    """One stderr line saying which range failed and how hard we tried."""
    network = None
    for cursor in cause_chain(error):
        if isinstance(cursor, NetworkError):
            if network is None or (
                network.attempts is None and cursor.attempts is not None
            ):
                network = cursor  # prefer the one carrying retry context
    if network is None:
        return
    if isinstance(network, SourceChangedError):
        print(
            f"rapidgzip-py: network: the remote object at "
            f"{network.url or '?'} changed mid-decode; re-run to read "
            f"the new version",
            file=sys.stderr,
        )
        return
    attempts = network.attempts if network.attempts is not None else 1
    if network.offset is not None and network.size is not None:
        where = f"range [{network.offset}, {network.offset + network.size})"
    else:
        where = "the source"
    print(
        f"rapidgzip-py: network: gave up on {where} of "
        f"{network.url or '?'} after {attempts} attempt(s)"
        + (" (circuit breaker open)" if network.circuit_open else ""),
        file=sys.stderr,
    )


def _dispatch(arguments) -> int:
    if arguments.parallel_friendly:
        arguments.parallel_compress = True
        arguments.layout = "parallel-friendly"
    if arguments.chunk_isolated_size is not None:
        arguments.parallel_compress = True
        arguments.layout = "chunk-isolated"

    if arguments.compress:
        data = _read_input(arguments.file)
        if arguments.parallel_compress:
            from .gz.parallel_writer import compress_parallel

            writer_options = {}
            if arguments.chunk_isolated_size is not None:
                writer_options["chunk_size"] = (
                    arguments.chunk_isolated_size * 1024
                )
            blob = compress_parallel(
                data,
                parallelization=max(arguments.parallelization, 1),
                level=arguments.level if arguments.level is not None else 6,
                layout=arguments.layout,
                **writer_options,
            )
        else:
            from .gz.writer import compress as gz_compress

            profile = arguments.profile
            if profile == "__report__":  # bare --profile with --compress
                profile = "gzip"
            blob = gz_compress(data, profile, level=arguments.level)
        sink = _open_output(arguments, arguments.file + ".gz")
        sink.write(blob)
        if sink is not sys.stdout.buffer:
            sink.close()
        return 0

    if arguments.recover:
        from .recovery import recover_gzip

        report = recover_gzip(_read_input(arguments.file))
        sink = _open_output(arguments, arguments.file + ".recovered")
        sink.write(report.data())
        if sink is not sys.stdout.buffer:
            sink.close()
        print(
            f"recovered {report.recovered_bytes} bytes in "
            f"{len(report.segments)} segment(s); {report.unresolved_bytes} "
            f"unresolved window bytes replaced",
            file=sys.stderr,
        )
        return 0

    if arguments.analyze:
        return _cmd_analyze(_read_input(arguments.file))

    from .index import load_index
    from .reader import ParallelGzipReader

    is_url = arguments.file.startswith(("http://", "https://"))
    if arguments.file == "-":
        source = _read_input(arguments.file)
    elif is_url:
        from .io import open_remote

        source = open_remote(
            arguments.file,
            retries=max(arguments.net_retries, 0),
            deadline=arguments.net_timeout,
            timeout=min(arguments.net_timeout, RemoteReaderOptions.timeout),
            block_size=max(arguments.net_block_size, 1) * 1024,
        )
    else:
        source = arguments.file

    index = None
    if arguments.import_index:
        # Strict by design: an explicitly named index the user cannot
        # trust is an error (exit code 8, stderr names the failed
        # check), unlike the tolerant --index-cache auto-import.
        index = load_index(
            arguments.import_index,
            source=source if arguments.file != "-" and not is_url else None,
        )

    explain = bool(arguments.explain or arguments.explain_json)
    started = time.perf_counter()
    reader = ParallelGzipReader(
        source,
        parallelization=max(arguments.parallelization, 1),
        chunk_size=arguments.chunk_size * 1024,
        verify=not arguments.no_verify,
        index=index,
        index_cache=arguments.index_cache,
        tolerate_corruption=arguments.tolerate_corruption,
        chunk_timeout=arguments.chunk_timeout,
        trace=bool(arguments.trace) or explain,
        detect_catalog=not arguments.no_catalog,
        max_memory=arguments.max_memory,
        spill_dir=arguments.spill_dir,
        metrics_port=arguments.metrics_port,
        metrics_interval=arguments.metrics_interval,
    )
    if reader.metrics_url is not None:
        print(
            f"rapidgzip-py: serving live telemetry at {reader.metrics_url} "
            f"(/metrics /stats /series /healthz)",
            file=sys.stderr,
        )
    try:
        if arguments.export_index:
            reader.export_index(arguments.export_index)

        if arguments.count:
            print(reader.size())
            return 0
        if arguments.count_lines:
            lines = 0
            while True:
                piece = reader.read(4 * 1024 * 1024)
                if not piece:
                    break
                lines += piece.count(b"\n")
            print(lines)
            return 0
        if arguments.export_index and not (
            arguments.stdout or arguments.output or arguments.decompress
        ):
            return 0  # index-only invocation

        base_name = arguments.file
        if is_url:
            import urllib.parse

            base_name = os.path.basename(
                urllib.parse.urlsplit(arguments.file).path
            ) or "remote"
        default_name = (
            base_name[:-3] if base_name.endswith(".gz") else
            base_name + ".out"
        )
        sink = _open_output(arguments, default_name)
        while True:
            piece = reader.read(4 * 1024 * 1024)
            if not piece:
                break
            sink.write(piece)
        if sink is not sys.stdout.buffer:
            sink.close()
        return 0
    finally:
        _report_observability(arguments, reader, time.perf_counter() - started)
        reader.close()


def _report_observability(arguments, reader, wall_time: float) -> None:
    """Emit --trace/--profile/--stats output after any reader action."""
    report = reader.damage_report
    index_regions = [r for r in report.regions if r.kind == "index"]
    for region in index_regions:
        # Index incidents lost no data — the fast path was bypassed and
        # the bytes re-decoded — so they get a notice, not the damage
        # banner, and never affect the exit code.
        print(
            f"rapidgzip-py: index fallback: {region.detail}; "
            f"re-decoded without the index, output is complete",
            file=sys.stderr,
        )
    if any(region.kind != "index" for region in report.regions):
        print(
            f"rapidgzip-py: damage tolerated:\n"
            f"{reader.damage_report.summary()}",
            file=sys.stderr,
        )
    if arguments.trace:
        reader.save_trace(arguments.trace)
    if arguments.explain or arguments.explain_json:
        from .telemetry import format_explain

        report = reader.explain()
        if arguments.explain:
            for line in format_explain(report):
                print(line, file=sys.stderr)
        if arguments.explain_json:
            with open(arguments.explain_json, "w", encoding="utf-8") as sink:
                json.dump(report, sink, indent=2, sort_keys=True, default=str)
                sink.write("\n")
    show_profile = arguments.profile == "__report__" and not arguments.compress
    if show_profile or arguments.stats:
        statistics = reader.statistics()
        if show_profile:
            from .telemetry import format_profile

            for line in format_profile(statistics, wall_time=wall_time):
                print(line, file=sys.stderr)
        if arguments.stats:
            print(
                json.dumps(statistics, indent=2, sort_keys=True, default=str),
                file=sys.stderr,
            )


if __name__ == "__main__":
    sys.exit(main())

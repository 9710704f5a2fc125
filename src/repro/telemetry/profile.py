"""Human-readable profile report (rapidgzip-style ``[Info]`` summary).

Renders one :meth:`ParallelGzipReader.statistics` snapshot into the kind
of post-run summary rapidgzip prints under ``--verbose``: wall-time
breakdown, per-worker utilization, speculative-waste ratio, block-finder
filter efficiency, and cache behavior — the live counterparts of the
paper's Fig. 9–12 scaling analysis and Table 1 filter rates.
"""

from __future__ import annotations

__all__ = ["format_profile"]


def _fmt_seconds(value) -> str:
    if value is None:
        return "n/a"
    if value >= 1.0:
        return f"{value:.2f} s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f} ms"
    return f"{value * 1e6:.0f} us"


def _fmt_percent(numerator, denominator) -> str:
    if not denominator:
        return "n/a"
    return f"{100.0 * numerator / denominator:.1f} %"


def _histogram_line(label: str, summary: dict) -> str:
    return (
        f"{label:<28}: p50 {_fmt_seconds(summary.get('p50'))}, "
        f"p90 {_fmt_seconds(summary.get('p90'))}, "
        f"max {_fmt_seconds(summary.get('max'))} "
        f"({summary.get('count', 0)} samples)"
    )


def format_profile(statistics: dict, *, wall_time: float = None,
                   output_bytes: int = None) -> list:
    """Build the ``[Info]`` summary lines from a statistics snapshot."""
    metrics = statistics.get("metrics", {})
    pool = statistics.get("pool", {})
    lines = []

    def info(text: str) -> None:
        lines.append(f"[Info] {text}")

    if output_bytes is None:
        output_bytes = statistics.get("known_size")
    if wall_time and output_bytes:
        bandwidth = output_bytes / wall_time / 1e6
        info(
            f"Decompressed {output_bytes} B in {wall_time:.3f} s "
            f"-> {bandwidth:.1f} MB/s"
        )

    mode = statistics.get("mode", "?")
    chunks = statistics.get("chunks_decoded")
    on_demand = statistics.get("on_demand_decodes", 0)
    if chunks is not None:
        info(
            f"{'Chunks decoded':<28}: {chunks} in {mode} mode "
            f"({on_demand} on-demand)"
        )

    submitted = statistics.get("speculative_submitted", 0)
    unusable = statistics.get("speculative_unusable", 0)
    if submitted:
        used = statistics.get("prefetch_cache", {}).get("hits", 0)
        wasted = max(submitted - used, 0)
        info(
            f"{'Speculative decodes':<28}: {submitted} submitted, "
            f"{unusable} unusable, {wasted} unused "
            f"(waste {_fmt_percent(wasted, submitted)})"
        )

    tested = metrics.get("blockfinder.candidates_tested", 0)
    accepted = metrics.get("blockfinder.candidates_accepted", 0)
    if tested:
        false_positives = metrics.get("fetcher.decode_false_positives", 0)
        info(
            f"{'Block finder':<28}: {tested} candidates tested, "
            f"{accepted} accepted "
            f"(filtered {_fmt_percent(tested - accepted, tested)}), "
            f"{false_positives} decode false positives"
        )

    for label, key in (
        ("Prefetch cache", "prefetch_cache"),
        ("Materialized cache", "materialized_cache"),
    ):
        cache = statistics.get(key)
        if cache:
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            info(
                f"{label:<28}: {cache.get('hits', 0)} hits / "
                f"{lookups} lookups "
                f"({_fmt_percent(cache.get('hits', 0), lookups)}), "
                f"{cache.get('evictions', 0)} evictions"
            )

    if pool:
        utilization = pool.get("utilization")
        workers = pool.get("workers", 0)
        if utilization is not None:
            info(
                f"{'Worker utilization':<28}: {utilization * 100:.1f} % "
                f"across {workers} worker(s) over "
                f"{_fmt_seconds(pool.get('elapsed_seconds'))}"
            )
        busy = pool.get("worker_busy_seconds", {})
        elapsed = pool.get("elapsed_seconds") or 0.0
        for name in sorted(busy):
            share = busy[name] / elapsed if elapsed else 0.0
            info(
                f"  {name:<26}: busy {_fmt_seconds(busy[name])} "
                f"({share * 100:.1f} %)"
            )
        info(
            f"{'Pool tasks':<28}: {pool.get('tasks_submitted', 0)} submitted, "
            f"{pool.get('tasks_completed', 0)} completed, "
            f"{pool.get('tasks_cancelled', 0)} cancelled, "
            f"{pool.get('queued', 0)} still queued"
        )

    for label, key in (
        ("Queue wait", "pool.queue_wait_seconds"),
        ("Task run time", "pool.task_seconds"),
        ("Read-call latency", "reader.read_seconds"),
    ):
        summary = metrics.get(key)
        if summary and summary.get("count"):
            info(_histogram_line(label, summary))

    # Parallel-friendly encoding: reported when the file advertised a
    # chunk catalog (or a present catalog was rejected) — the skipped
    # stages are exactly the point, so they are attributed explicitly.
    encoding = statistics.get("encoding")
    if encoding and (
        encoding.get("catalog_detected") or encoding.get("catalog_rejected")
    ):
        if encoding.get("catalog_detected"):
            info(
                f"{'Encoding catalog':<28}: {encoding.get('source', '?').upper()} "
                f"subfield, {encoding.get('layout', '?')} layout, "
                f"{encoding.get('chunks', 0)} chunk(s) — marker decode and "
                f"block-finder search skipped"
            )
            info(
                f"{'Marker-free decode':<28}: "
                f"{encoding.get('markers_replaced', 0)} marker "
                f"replacement(s), {encoding.get('blockfinder_searches', 0)} "
                f"block-finder candidate(s), "
                f"{encoding.get('chunk_crc_checked', 0)} chunk CRC(s) "
                f"verified, {encoding.get('chunk_crc_failures', 0)} failure(s)"
            )
        if encoding.get("catalog_rejected"):
            reasons = "; ".join(encoding.get("catalog_errors", [])) or "?"
            info(
                f"{'Encoding catalog rejected':<28}: "
                f"{encoding.get('catalog_rejected', 0)} subfield(s) "
                f"unusable ({reasons})"
            )

    # Memory governance: only reported when a governor was attached — an
    # unbudgeted run keeps its profile unchanged.
    memory = statistics.get("memory")
    if memory:
        from ..cache import format_size

        budget = memory.get("budget_bytes")
        info(
            f"{'Memory budget':<28}: {format_size(budget)} budget, "
            f"peak charged {format_size(memory.get('high_water_bytes', 0))}, "
            f"{memory.get('backpressure_stalls', 0)} backpressure stall(s), "
            f"{memory.get('overcommits', 0)} overcommit(s)"
        )
        splits = statistics.get("chunk_splits", 0)
        shed = statistics.get("speculative_shed", 0)
        split_size = statistics.get("chunk_split_size")
        if splits or shed or split_size:
            info(
                f"{'Budget pressure':<28}: {splits} chunk split(s) at a "
                f"{format_size(split_size)} ceiling, "
                f"{shed} speculative task(s) shed"
            )
    # Persistent index cache: reported whenever the tier was in play —
    # an imported/exported index, chunks on the exact index pass, or
    # any integrity incident. Plain index-free runs stay unchanged.
    index = statistics.get("index")
    if index and (
        index.get("cache_path") or index.get("imported")
        or index.get("exported") or index.get("index_chunks")
        or index.get("load_failures")
    ):
        info(
            f"{'Index':<28}: {index.get('seek_points', 0)} seek point(s), "
            f"{'imported' if index.get('imported') else 'built fresh'}"
            + (", exported" if index.get("exported") else "")
        )
        info(
            f"{'Index decode path':<28}: {index.get('index_chunks', 0)} "
            f"exact-pass chunk(s), "
            f"{index.get('windows_validated', 0)} window(s) validated"
        )
        if index.get("load_failures", 0) + index.get("export_failures", 0):
            info(
                f"{'Index integrity':<28}: "
                f"{index.get('load_failures', 0)} rejected import(s), "
                f"{index.get('export_failures', 0)} failed export(s)"
            )

    # Remote source: reported only when the input came over the wire —
    # local-file runs keep their profile unchanged.
    network = statistics.get("network")
    if network and network.get("requests"):
        from ..cache import format_size

        wire = network.get("wire_bytes", 0)
        served = network.get("served_bytes", 0)
        info(
            f"{'Network':<28}: {network.get('requests', 0)} request(s) to "
            f"{network.get('url', '?')}"
        )
        ratio = network.get("coalescing_ratio")
        info(
            f"{'Network transfer':<28}: {format_size(wire)} over the wire "
            f"for {format_size(served)} served"
            + (f" ({ratio:.1f}x coalescing)" if ratio else "")
            + f", block cache {network.get('block_hits', 0)} hit(s) / "
            f"{network.get('block_misses', 0)} miss(es)"
        )
        incidents = (
            network.get("retries", 0) + network.get("giveups", 0)
            + network.get("breaker_opens", 0)
            + network.get("source_changes", 0)
        )
        if incidents or network.get("circuit_state") != "closed":
            info(
                f"{'Network resilience':<28}: {network.get('retries', 0)} "
                f"retry(ies) ({_fmt_seconds(network.get('backoff_seconds'))} "
                f"backing off), {network.get('giveups', 0)} giveup(s), "
                f"{network.get('breaker_opens', 0)} circuit open(s), "
                f"{network.get('source_changes', 0)} source change(s), "
                f"circuit now {network.get('circuit_state', '?')}"
            )

    # Resilience: only reported when something actually went wrong — a
    # clean run keeps its profile unchanged.
    chunk_timeouts = statistics.get("chunk_timeouts", 0)
    downgrades = statistics.get("backend_downgrades", 0)
    damaged = statistics.get("damaged_regions", 0)
    if chunk_timeouts or downgrades:
        info(
            f"{'Resilience':<28}: {chunk_timeouts} chunk timeout(s), "
            f"{downgrades} backend downgrade(s)"
        )
    if damaged:
        info(
            f"{'Damage':<28}: {damaged} region(s) tolerated — see the "
            f"damage summary"
        )

    return lines

"""Throughput-regression gate against the committed benchmark baseline.

Reruns the decode-kernel measurement from :mod:`bench_decode_kernels`
(same corpora, same interleaved best-of-N discipline) and compares the
fresh per-decoder throughputs against the committed trajectory file
``BENCH_decode_kernels.json`` (latest trajectory entry; the flat
pre-trajectory layout is still accepted). Any series more than
``--threshold`` (default 15%) below its committed value fails the check.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --reps 3 --json -

Runs as a *blocking* CI step: the interleaved best-of-N discipline
cancels shared-runner load drift, and the 15% threshold absorbs what
noise remains, so a failure means a real kernel regression.
Exit codes: 0 ok, 1 regression past the threshold, 2 no baseline.
"""

import argparse
import json
import pathlib
import sys

_HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(_HERE))  # conftest, bench_decode_kernels

import bench_decode_kernels as kernels  # noqa: E402
import bench_parallel_friendly as parallel_friendly  # noqa: E402
import bench_remote_source as remote_source  # noqa: E402


def baseline_entry(document: dict) -> dict:
    """The comparison baseline inside a committed trajectory document.

    Schema 2 keeps a list of entries (one per decoder set); the newest
    one is the baseline. The schema-1 flat layout *is* the entry.
    """
    trajectory = document.get("trajectory")
    if trajectory:
        return trajectory[-1]
    return document


def measure(reps: int) -> dict:
    """Fresh per-decoder MB/s per ``corpus/mode`` series."""
    original_reps = kernels.REPS
    kernels.REPS = reps
    try:
        fresh = {}
        for name, data in kernels._corpora().items():
            blob = kernels._raw_deflate(data)
            for mode, decode in (
                ("conventional", kernels._decode_conventional),
                ("marker", kernels._decode_marker),
            ):
                best = kernels._interleaved_best(decode, blob)
                fresh[f"{name}/{mode}"] = {
                    f"{decoder}_mb_s": round(len(data) / seconds / 1e6, 3)
                    for decoder, seconds in best.items()
                }
        return fresh
    finally:
        kernels.REPS = original_reps


#: name -> (measure(reps) -> fresh series, committed baseline, default reps)
SUITES = {
    "kernels": (measure, kernels.TRAJECTORY_PATH, kernels.REPS),
    "parallel-friendly": (
        parallel_friendly.measure,
        parallel_friendly.TRAJECTORY_PATH,
        parallel_friendly.REPS,
    ),
    "remote": (
        remote_source.measure,
        remote_source.TRAJECTORY_PATH,
        remote_source.REPS,
    ),
}


def _metric_keys(baseline: dict) -> list:
    """Throughput keys a baseline entry tracks (``*_mb_s``)."""
    if baseline.get("series_keys"):
        return list(baseline["series_keys"])
    return [
        f"{decoder}_mb_s"
        for decoder in baseline.get("decoders", ("legacy",))
    ]


def compare(baseline: dict, fresh: dict, threshold: float) -> list:
    """One comparison row per (series, metric) present in both runs."""
    rows = []
    for series, committed in sorted(baseline.get("results", {}).items()):
        current = fresh.get(series)
        if current is None:
            continue
        for key in _metric_keys(baseline):
            before, after = committed.get(key), current.get(key)
            if not before or not after:
                continue
            change = after / before - 1.0
            rows.append({
                "series": f"{series}/{key[: -len('_mb_s')]}",
                "baseline_mb_s": before,
                "current_mb_s": after,
                "change": round(change, 4),
                "regressed": change < -threshold,
            })
    return rows


def run_suite(name: str, arguments) -> tuple:
    """Measure one suite; returns (exit_code, comparison rows)."""
    suite_measure, default_baseline, default_reps = SUITES[name]
    baseline_path = arguments.baseline or default_baseline
    if not baseline_path.exists():
        print(f"check_regression: no baseline at {baseline_path}",
              file=sys.stderr)
        return 2, []
    baseline = baseline_entry(json.loads(baseline_path.read_text()))
    reps = arguments.reps or default_reps

    print(f"check_regression[{name}]: measuring (best-of-{reps}, "
          f"{baseline.get('corpus_size', 0) >> 20} MiB corpora, series "
          f"{'/'.join(key[: -len('_mb_s')] for key in _metric_keys(baseline))}"
          ")...")
    fresh = suite_measure(reps)
    rows = compare(baseline, fresh, arguments.threshold)

    width = max((len(row["series"]) for row in rows), default=10)
    for row in rows:
        flag = "REGRESSED" if row["regressed"] else "ok"
        print(f"  {row['series']:<{width}}  "
              f"{row['baseline_mb_s']:8.2f} -> {row['current_mb_s']:8.2f} MB/s "
              f"({row['change']:+7.1%})  {flag}")

    regressed = [row for row in rows if row["regressed"]]
    if regressed:
        print(f"check_regression[{name}]: {len(regressed)} series regressed "
              f"more than {arguments.threshold:.0%}", file=sys.stderr)
        return 1, rows
    print(f"check_regression[{name}]: all {len(rows)} series within "
          f"{arguments.threshold:.0%} of baseline")
    return 0, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite", default="kernels",
        choices=[*SUITES, "all"],
        help="which committed baseline to replay (default: kernels)",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="committed BENCH_*.json to compare against (default: the "
        "suite's own trajectory file; only meaningful for a single suite)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="fractional slowdown that fails the check (default 0.15)",
    )
    parser.add_argument(
        "--reps", type=int, default=None,
        help="best-of-N repetitions (lower = faster, noisier; default: "
        "the suite's committed rep count)",
    )
    parser.add_argument(
        "--json", metavar="FILE",
        help="also write the comparison as JSON ('-' for stdout)",
    )
    arguments = parser.parse_args(argv)

    suites = list(SUITES) if arguments.suite == "all" else [arguments.suite]
    if arguments.baseline and len(suites) > 1:
        parser.error("--baseline only applies to a single --suite")

    worst = 0
    all_rows = []
    for name in suites:
        code, rows = run_suite(name, arguments)
        worst = max(worst, code)
        all_rows.extend(rows)

    if arguments.json:
        verdict = {
            "schema": 1,
            "suites": suites,
            "threshold": arguments.threshold,
            "series": all_rows,
            "regressed": [r["series"] for r in all_rows if r["regressed"]],
        }
        text = json.dumps(verdict, indent=2, sort_keys=True) + "\n"
        if arguments.json == "-":
            sys.stdout.write(text)
        else:
            pathlib.Path(arguments.json).write_text(text)
    return worst


if __name__ == "__main__":
    sys.exit(main())

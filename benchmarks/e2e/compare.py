#!/usr/bin/env python3
"""Compare two sets of benchmark results: ``compare.py PARENT/ CHANGE/``.

Each directory holds one or more ``result.json`` files written by
``run.py --out`` (searched recursively), all from one commit. For every
pairing of workload and end-to-end metric this prints both sides' median,
quartiles and sample count, the bound ``BENCHMARK.json`` fixes, and a
verdict:

``regressed``   the change's median is worse by more than the bound;
``improved``    every run of the change reads better than every run of
                the parent, by more than the parent's own spread (by more
                than the bound when a side has a single run);
``unresolved``  a side's spread (distance between its quartiles, as a
                share of its median) is wider than the bound and the two
                sides' runs overlap, so the sets cannot tell;
``unchanged``   otherwise.

Every percentage is printed with the value it is a share of. The exit
code is non-zero when any pairing regressed or a workload's share of
failed operations rose.
"""

import json
import os
import statistics
import sys

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_side(directory: str) -> list:
    """Every result set found under ``directory``, in path order."""
    results = []
    for folder, _, files in sorted(os.walk(directory)):
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(folder, name)) as handle:
                try:
                    document = json.load(handle)
                except ValueError:
                    continue
            if isinstance(document, dict) and "workloads" in document:
                results.append(document)
    if not results:
        raise SystemExit(f"no result.json with workloads under {directory}")
    return results


def describe(values: list) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        low, _, high = statistics.quantiles(values, n=4)
    else:
        low = high = median
    return {
        "n": len(values), "median": median, "q1": low, "q3": high,
        "spread": (high - low) / median if median else 0.0,
        "min": min(values), "max": max(values),
    }


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = parent["median"]
    worse_by = sign * (change["median"] - base) / base if base else 0.0
    if better == "lower":
        change_all_better = change["max"] < parent["min"]
        change_all_worse = change["min"] > parent["max"]
    else:
        change_all_better = change["min"] > parent["max"]
        change_all_worse = change["max"] < parent["min"]
    overlap = not (change_all_better or change_all_worse)
    if max(parent["spread"], change["spread"]) > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    # One run a side says nothing about spread; the bound stands in for it.
    noise = parent["spread"] if min(parent["n"], change["n"]) >= 2 else bound
    if change_all_better and -worse_by > noise:
        return "improved"
    return "unchanged"


def compare(parent_dir: str, change_dir: str) -> int:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    parent_sets, change_sets = load_side(parent_dir), load_side(change_dir)
    bad = 0
    for workload in (entry["name"] for entry in contract["workloads"]):
        rows = [
            [result["workloads"][workload] for result in side
             if workload in result["workloads"]]
            for side in (parent_sets, change_sets)
        ]
        if not all(rows):
            print(f"{workload}: missing on one side")
            bad += 1
            continue
        print(f"\n== {workload}")
        for metric in contract["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            parent, change = (
                describe([row["end_to_end"][name]["value"] for row in side])
                for side in rows
            )
            result = verdict(parent, change, metric["better"], metric["bound"])
            bad += result == "regressed"
            delta = change["median"] - parent["median"]
            share = delta / parent["median"] if parent["median"] else 0.0
            print(
                f"  {name:<20} parent {parent['median']:.5g} "
                f"[{parent['q1']:.5g}, {parent['q3']:.5g}] n={parent['n']}"
                f" | change {change['median']:.5g} "
                f"[{change['q1']:.5g}, {change['q3']:.5g}] n={change['n']}"
                f" | {share:+.1%} of {parent['median']:.5g} {unit}"
                f" ({metric['better']} is better, bound "
                f"{metric['bound']:.0%} of {parent['median']:.5g} {unit})"
                f" -> {result}"
            )
        failed = [
            sum(row["failed"] for row in side)
            / max(sum(row["attempted"] for row in side), 1)
            for side in rows
        ]
        attempted = [sum(row["attempted"] for row in side) for side in rows]
        rose = failed[1] > failed[0]
        bad += rose
        print(
            f"  {'failed_ops_ratio':<20} parent {failed[0]:.6f} of "
            f"{attempted[0]} operations | change {failed[1]:.6f} of "
            f"{attempted[1]} operations -> "
            f"{'regressed' if rose else 'unchanged'}"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))

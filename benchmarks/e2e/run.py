#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md beside it).

Two ways to call it, both from the root of a checkout:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, as ``BENCHMARK.json`` declares it. The last line of
    standard output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
    the per-layer metrics with ``--trace 1``.

``run.py --seed N --out DIR [--quick]``
    Every workload, untraced then traced; prints every metric by name with
    its unit and writes ``DIR/result.json`` and ``DIR/trace_<workload>.json``.

Set-up and each measured phase run in their own subprocess (this file
again, with ``--phase``), so that a phase's peak memory is the program's
and not the harness's. All files are written under ``.bench_work/`` in the
checkout and removed on exit; nothing is built.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(REPO, "src")
WORK_ROOT = os.path.join(REPO, ".bench_work")
SETUPS = 3  # set-ups per untraced run; setup_s is their median
PHASE_TIMEOUT = 170  # seconds; a run must end within 180


def load_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- phases (child processes) -------------------------------------------------------


def environment() -> dict:
    """What the numbers of this process depend on."""
    import numpy
    from repro.pool.backend import available_cores

    import workloads

    try:
        commit = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "usable_cores": available_cores(),
        "parallelization": workloads.parallelism(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": commit,
        "load_average": os.getloadavg(),
    }


def phase_main(args) -> int:
    """Body of a ``--phase`` child: one JSON report on standard output."""
    sys.path.insert(0, SOURCE)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    try:
        prepared = workloads.prepare(
            workload, args.seed, args.work, args.quick
        )
        if args.phase == "prepare":
            print(json.dumps({"manifest": prepared.manifest}))
            return 0
        if args.phase == "timed":
            report = workloads.run_timed(
                workload, prepared, args.seconds, args.seed
            )
        else:
            import layers

            report = layers.run_traced(
                workload, prepared, args.seed, args.trace_out
            )
    except workloads.InvalidRun as error:
        print(f"invalid run: {error}", file=sys.stderr)
        return 3
    report["environment"] = environment()
    print(json.dumps(report))
    return 0


# -- orchestration ------------------------------------------------------------------


class PhaseFailed(Exception):
    pass


def call_phase(phase: str, args, work: str, trace_out=None) -> dict:
    """Run one phase in a fresh interpreter and return its report.

    The child leads its own process group, which is killed once the child
    has ended, so that no worker of a reader can outlive the run.
    """
    command = [
        sys.executable, os.path.abspath(__file__), "--phase", phase,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--work", work,
    ]
    if args.quick:
        command.append("--quick")
    if trace_out:
        command += ["--trace-out", trace_out]
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        output, _ = child.communicate(timeout=PHASE_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise PhaseFailed(f"{phase} of {args.workload} timed out") from None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        child.wait()
    if child.returncode != 0:
        raise PhaseFailed(
            f"{phase} of {args.workload} exited with {child.returncode}"
        )
    return json.loads(output.strip().splitlines()[-1])


def run_workload(args, trace: int, work: str, trace_out=None) -> dict:
    """All phases of one run of one workload; returns the phase report
    with ``setup_s`` merged in for an untraced run."""
    if trace:
        call_phase("prepare", args, work)
        return call_phase("traced", args, work, trace_out)
    setups = []
    for _ in range(1 if args.quick else SETUPS):
        for entry in os.listdir(work):
            if entry.startswith(f"{args.workload}-seed{args.seed}-"):
                shutil.rmtree(os.path.join(work, entry))
        started = time.perf_counter()
        call_phase("prepare", args, work)
        setups.append(time.perf_counter() - started)
    report = call_phase("timed", args, work)
    report["metrics"]["setup_s"] = statistics.median(setups)
    report["setups"] = setups
    return report


def with_units(report: dict, declared: list) -> dict:
    """The report's metrics as the contract prints them; refuses a set of
    names other than the declared one."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(report["metrics"]) != set(units):
        odd = sorted(set(report["metrics"]) ^ set(units))
        raise PhaseFailed(f"metrics differ from BENCHMARK.json: {odd}")
    return {
        name: {"value": report["metrics"][name], "unit": units[name]}
        for name in units
    }


def result_line(report: dict, declared: list) -> dict:
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": with_units(report, declared),
    }


def degraded_metrics(report: dict) -> list:
    """P=cores metrics that a one-core host cannot tell from P=1."""
    if report["environment"]["usable_cores"] >= 2:
        return []
    return ["decompress_mb_s", "first_read_ms", "compress_mb_s",
            "scaling.speedup", "scaling.efficiency", "pool.utilization"]


def run_one(args, contract: dict, work: str) -> int:
    """The driver's call: one workload, one JSON line."""
    report = run_workload(args, args.trace, work)
    declared = contract["per_layer" if args.trace else "end_to_end"]
    line = result_line(report, declared)
    for reason in report["failures"]:
        print(f"failed operation: {reason}", file=sys.stderr)
    for name in degraded_metrics(report):
        print(f"degraded (one usable core): {name}", file=sys.stderr)
    print(json.dumps(line))
    return 0


def run_all(args, contract: dict, work: str) -> int:
    """Every workload, untraced then traced; prints all metrics."""
    os.makedirs(args.out, exist_ok=True)
    summary = {
        "benchmark": "benchmarks/e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "workloads": {},
    }
    failed = 0
    for declared in contract["workloads"]:
        args.workload = name = declared["name"]
        untraced = run_workload(args, 0, work)
        traced = run_workload(
            args, 1, work, os.path.join(args.out, f"trace_{name}.json")
        )
        row = {
            "why": declared["why"],
            "end_to_end": with_units(untraced, contract["end_to_end"]),
            "per_layer": with_units(traced, contract["per_layer"]),
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "failures": untraced["failures"] + traced["failures"],
            "degraded": degraded_metrics(untraced),
            "cycles": untraced["cycles"],
            "samples": untraced["samples"],
            "quartiles": untraced["quartiles"],
            "setups": untraced["setups"],
            "exact_counts": traced["exact_counts"],
            "resolved": untraced["resolved"],
            "environment": untraced["environment"],
        }
        row["failed_ops_ratio"] = row["failed"] / row["attempted"]
        failed += row["failed"]
        summary["workloads"][name] = row

        print(f"\n== {name}: {declared['why']}")
        print(f"   operations {row['attempted']}, failed {row['failed']} "
              f"(failed_ops_ratio {row['failed_ops_ratio']:.4f}), "
              f"cycles {row['cycles']}, resolved {row['resolved']}")
        for kind in ("end_to_end", "per_layer"):
            for metric, entry in row[kind].items():
                note = "  [degraded]" if metric in row["degraded"] else ""
                print(f"   {metric:<36} {entry['value']:>14.6g} "
                      f"{entry['unit']}{note}")
    summary["claim"] = None
    with open(os.path.join(args.out, "result.json"), "w") as handle:
        json.dump(summary, handle, indent=1)
    print(f"\nwrote {os.path.join(args.out, 'result.json')}")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for result.json and traces "
                        "(all-workloads mode)")
    parser.add_argument("--quick", action="store_true",
                        help="corpora divided by 8, two cycles")
    parser.add_argument("--phase", choices=("prepare", "timed", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        print(f"no program to measure: {SOURCE}/repro is missing",
              file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(contract["run_seconds"])
    if args.phase:
        return phase_main(args)
    names = [workload["name"] for workload in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload; choose one of {', '.join(names)}")
    if args.workload is None and not args.out:
        parser.error("give --workload NAME, or --out DIR to run them all")

    # SIGTERM must unwind like an exception, or the work dir would stay.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work)
    try:
        if args.workload is not None:
            return run_one(args, contract, work)
        return run_all(args, contract, work)
    except PhaseFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

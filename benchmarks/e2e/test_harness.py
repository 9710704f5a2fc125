"""Self-test of the benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``. It checks
the harness, not the program: that what ``BENCHMARK.json`` names is what
gets emitted, that inputs and exact counts follow from the seed, that the
checker notices a wrong byte, and that span files are whole.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
for entry in (os.path.join(REPO, "src"), HERE):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from trace import load_spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN = [sys.executable, os.path.join(HERE, "run.py")]


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``run.py --quick`` over all workloads; (summary, directory)."""
    out = tmp_path_factory.mktemp("quick")
    done = subprocess.run(
        RUN + ["--quick", "--seed", "7", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    with open(out / "result.json") as handle:
        return json.load(handle), out, done.stdout


def test_contract_is_well_formed(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= contract["run_seconds"] <= 60
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert set(workloads.WORKLOADS) == {
        workload["name"] for workload in contract["workloads"]
    }


def test_quick_run_emits_every_named_metric(contract, quick):
    summary, _, printed = quick
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    for workload in contract["workloads"]:
        row = summary["workloads"][workload["name"]]
        assert row["failed"] == 0 and row["failed_ops_ratio"] == 0
        assert row["attempted"] > 0
        for kind in ("end_to_end", "per_layer"):
            assert list(row[kind]) == [m["name"] for m in contract[kind]]
            for metric in contract[kind]:
                entry = row[kind][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))
                assert metric["name"] in printed
        for name, entry in row["end_to_end"].items():
            assert entry["value"] > 0, name
        assert row["environment"]["usable_cores"] >= 1
        assert row["resolved"]["decoder"]


def test_layers_with_no_role_report_zero(quick):
    rows = quick[0]["workloads"]
    for name in ("index_full_silesia", "index_seek_silesia",
                 "catalog_roundtrip_fastq"):
        layer = rows[name]["per_layer"]
        for metric in ("blockfinder.find_s", "deflate.two_stage_s",
                       "markers.replaced", "fetcher.speculative_s"):
            assert layer[metric]["value"] == 0, (name, metric)
        assert layer["fetcher.index_chunk_s"]["value"] > 0
    for name in ("search_base64", "search_silesia"):
        layer = rows[name]["per_layer"]
        assert layer["blockfinder.find_s"]["value"] > 0
        assert layer["fetcher.index_chunk_s"]["value"] == 0
        assert layer["reader.accounted_ratio"]["value"] > 0


def test_span_files_are_whole(contract, quick):
    _, out, _ = quick
    for workload in contract["workloads"]:
        spans = load_spans(out / f"trace_{workload['name']}.json")
        assert spans
        assert len({span["pass"] for span in spans}) == 1
        assert any(span["name"] == "reader.read" for span in spans)


def test_same_seed_same_inputs_and_counts(tmp_path):
    workload = workloads.WORKLOADS["search_base64"]
    runs = []
    for number in range(2):
        prepared = workloads.prepare(
            workload, 11, str(tmp_path / str(number)), quick=True
        )
        traced = layers.run_traced(workload, prepared, 11)
        runs.append((
            prepared.manifest["plain"]["sha256"],
            prepared.manifest["gz"]["sha256"],
            traced["exact_counts"],
        ))
    assert runs[0] == runs[1]
    assert runs[0][2]["blockfinder.candidates_tested"] > 0
    other = workloads.prepare(workload, 12, str(tmp_path / "other"), quick=True)
    assert other.manifest["plain"]["sha256"] != runs[0][0]


def test_prepared_inputs_are_reused_only_while_intact(tmp_path):
    workload = workloads.WORKLOADS["search_base64"]
    first = workloads.prepare(workload, 3, str(tmp_path), quick=True)
    stamp = os.stat(first.gz).st_mtime_ns
    again = workloads.prepare(workload, 3, str(tmp_path), quick=True)
    assert os.stat(again.gz).st_mtime_ns == stamp  # served from the cache
    with open(first.gz, "r+b") as handle:
        handle.seek(100)
        handle.write(b"\xff")
    rebuilt = workloads.prepare(workload, 3, str(tmp_path), quick=True)
    assert workloads.file_digest(rebuilt.gz) == rebuilt.manifest["gz"]


def _flip_middle_byte(path):
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.seek(size // 2)
        byte = handle.read(1)
        handle.seek(size // 2)
        handle.write(bytes([byte[0] ^ 0x10]))


def test_a_flipped_byte_is_a_failed_operation(tmp_path):
    workload = workloads.WORKLOADS["search_base64"]
    prepared = workloads.prepare(workload, 5, str(tmp_path), quick=True)
    _flip_middle_byte(prepared.gz)
    report = workloads.run_timed(workload, prepared, 0.0, 5)
    assert 0 < report["failed"] <= report["attempted"]


def test_a_flipped_byte_invalidates_an_index_run(tmp_path):
    # The index no longer matches the file, the reader falls back to
    # searching, and that is not the path this workload measures.
    workload = workloads.WORKLOADS["index_full_silesia"]
    prepared = workloads.prepare(workload, 5, str(tmp_path), quick=True)
    _flip_middle_byte(prepared.gz)
    with pytest.raises(workloads.InvalidRun):
        workloads.run_timed(workload, prepared, 0.0, 5)


def test_wrong_open_mode_invalidates_the_run():
    workload = workloads.WORKLOADS["index_full_silesia"]
    stats = {
        "mode": "search",
        "encoding": {"catalog_detected": False, "blockfinder_searches": 9,
                     "markers_replaced": 1},
        "index": {"imported": False, "fallbacks": 0},
    }
    with pytest.raises(workloads.InvalidRun):
        workloads.check_path(workload, stats)
    stats["mode"] = "index"
    stats["index"] = {"imported": True, "fallbacks": 2}
    with pytest.raises(workloads.InvalidRun):
        workloads.check_path(workload, stats)
    stats["index"]["fallbacks"] = 0
    workloads.check_path(workload, stats)


def test_driver_call_prints_one_result_line(contract):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            RUN + ["--workload", "catalog_roundtrip_fastq", "--seed", "2",
                   "--seconds", "0", "--trace", str(trace), "--quick"],
            cwd=REPO, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in contract[kind]]
        for entry in line["metrics"].values():
            assert set(entry) == {"value", "unit"}
    assert not os.path.exists(os.path.join(REPO, ".bench_work"))


def test_without_the_program_the_run_fails(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(
        HERE, target, ignore=shutil.ignore_patterns("__pycache__", ".*")
    )
    done = subprocess.run(
        [sys.executable, str(target / "run.py"), "--workload",
         "search_base64", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _result(tmp_path, label, value, failed=0):
    directory = tmp_path / label
    directory.mkdir()
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    row = {
        "end_to_end": {
            metric["name"]: {"value": value, "unit": metric["unit"]}
            for metric in contract["end_to_end"]
        },
        "attempted": 100, "failed": failed,
    }
    summary = {"workloads": {
        workload["name"]: row for workload in contract["workloads"]
    }}
    (directory / "result.json").write_text(json.dumps(summary))
    return str(directory)


def test_compare_flags_regressions_and_failures(tmp_path, capsys):
    parent = _result(tmp_path, "parent", 100.0)
    same = _result(tmp_path, "same", 101.0)
    assert compare.compare(parent, same) == 0
    printed = capsys.readouterr().out
    assert "unchanged" in printed and "improved" not in printed
    # 40% off in either direction is worse for one kind of metric.
    lower = _result(tmp_path, "lower", 60.0)
    assert compare.compare(parent, lower) == 1
    printed = capsys.readouterr().out
    assert "regressed" in printed and "improved" in printed
    assert "of 100" in printed  # every ratio names its base
    failing = _result(tmp_path, "failing", 100.0, failed=1)
    assert compare.compare(parent, failing) == 1

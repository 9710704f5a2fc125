"""Tests for the command line interface."""

import gzip as stdlib_gzip
import sys

import pytest

from repro.cli import build_parser, main
from repro.datagen import generate_base64

DATA = generate_base64(150_000, seed=8)


@pytest.fixture
def gz_file(tmp_path):
    path = tmp_path / "data.txt.gz"
    path.write_bytes(stdlib_gzip.compress(DATA, 6))
    return path


class TestDecompress:
    def test_to_file(self, gz_file, tmp_path):
        out = tmp_path / "data.txt"
        assert main([str(gz_file), "-P", "2"]) == 0
        assert out.read_bytes() == DATA

    def test_to_stdout(self, gz_file, capsysbinary):
        assert main(["-c", str(gz_file)]) == 0
        assert capsysbinary.readouterr().out == DATA

    def test_refuses_overwrite_without_force(self, gz_file, tmp_path):
        (tmp_path / "data.txt").write_bytes(b"precious")
        assert main([str(gz_file)]) == 1
        assert (tmp_path / "data.txt").read_bytes() == b"precious"
        assert main([str(gz_file), "-f"]) == 0

    def test_explicit_output(self, gz_file, tmp_path):
        out = tmp_path / "other.bin"
        assert main([str(gz_file), "-o", str(out)]) == 0
        assert out.read_bytes() == DATA

    def test_chunk_size_option(self, gz_file, tmp_path):
        out = tmp_path / "data.txt"
        assert main([str(gz_file), "--chunk-size", "16", "-P", "3", "-f"]) == 0
        assert out.read_bytes() == DATA

    def test_corrupt_input_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.gz"
        blob = bytearray(stdlib_gzip.compress(DATA[:50_000]))
        blob[-6] ^= 0xFF
        bad.write_bytes(bytes(blob))
        # A flipped CRC byte is an integrity failure: exit code 5.
        assert main(["-c", str(bad)]) == 5
        assert "error" in capsys.readouterr().err

    def test_no_verify_allows_corrupt(self, tmp_path, capsysbinary):
        bad = tmp_path / "bad.gz"
        blob = bytearray(stdlib_gzip.compress(DATA[:50_000]))
        blob[-6] ^= 0xFF
        bad.write_bytes(bytes(blob))
        assert main(["-c", "--no-verify", str(bad)]) == 0
        assert capsysbinary.readouterr().out == DATA[:50_000]


class TestCounting:
    def test_count(self, gz_file, capsys):
        assert main(["--count", str(gz_file)]) == 0
        assert capsys.readouterr().out.strip() == str(len(DATA))

    def test_count_lines(self, gz_file, capsys):
        assert main(["--count-lines", str(gz_file)]) == 0
        assert capsys.readouterr().out.strip() == str(DATA.count(b"\n"))


class TestIndex:
    def test_export_then_import(self, gz_file, tmp_path, capsysbinary):
        idx = tmp_path / "data.idx"
        assert main(["--export-index", str(idx), str(gz_file)]) == 0
        assert idx.exists()
        assert main(["-c", "--import-index", str(idx), str(gz_file)]) == 0
        assert capsysbinary.readouterr().out == DATA

    def test_strict_import_corrupt_index_exits_8(self, gz_file, tmp_path,
                                                 capsys):
        idx = tmp_path / "data.idx"
        assert main(["--export-index", str(idx), str(gz_file)]) == 0
        capsys.readouterr()
        blob = bytearray(idx.read_bytes())
        blob[-4] ^= 0xFF  # trailer magic
        idx.write_bytes(bytes(blob))
        assert main(["-c", "--import-index", str(idx), str(gz_file)]) == 8
        err = capsys.readouterr().err
        assert "rapidgzip-py: error:" in err
        assert "[trailer]" in err or "[footer_crc]" in err

    def test_strict_import_stale_fingerprint_exits_8(self, gz_file, tmp_path,
                                                     capsys):
        idx = tmp_path / "data.idx"
        assert main(["--export-index", str(idx), str(gz_file)]) == 0
        capsys.readouterr()
        # Recompress at another level: valid gzip, different bytes.
        gz_file.write_bytes(stdlib_gzip.compress(DATA, 1))
        assert main(["-c", "--import-index", str(idx), str(gz_file)]) == 8
        assert "[fingerprint]" in capsys.readouterr().err

    def test_strict_import_truncated_index_exits_8(self, gz_file, tmp_path,
                                                   capsys):
        idx = tmp_path / "data.idx"
        assert main(["--export-index", str(idx), str(gz_file)]) == 0
        capsys.readouterr()
        idx.write_bytes(idx.read_bytes()[:40])
        assert main(["-c", "--import-index", str(idx), str(gz_file)]) == 8
        assert "[truncated]" in capsys.readouterr().err


class TestIndexCache:
    def test_cold_then_warm(self, gz_file, tmp_path, capsysbinary):
        cache = tmp_path / "cache"
        args = ["-c", "--index-cache", str(cache), str(gz_file)]
        assert main(args) == 0
        assert capsysbinary.readouterr().out == DATA
        cached = list(cache.glob("*.rpzidx"))
        assert len(cached) == 1
        assert main(args) == 0  # warm open imports what the cold one wrote
        assert capsysbinary.readouterr().out == DATA

    # "eager": the default, prefetching ahead of the consumer; "lazy": a
    # memory budget below one 32 KiB chunk declines every speculative
    # decode, so each chunk of the fallback search is decoded on demand.
    @pytest.mark.parametrize("decode", ["eager", "lazy"])
    def test_corrupt_cache_falls_back_exit_0(self, gz_file, tmp_path,
                                             decode, capsysbinary):
        cache = tmp_path / "cache"
        budget = ["--max-memory", "16KiB"] if decode == "lazy" else []
        base = ["-c", "--index-cache", str(cache), "--chunk-size", "32",
                *budget, str(gz_file)]
        assert main(base) == 0
        capsysbinary.readouterr()
        cached = next(cache.glob("*.rpzidx"))
        blob = bytearray(cached.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        cached.write_bytes(bytes(blob))
        assert main(base) == 0  # tolerant: notice, not an error
        captured = capsysbinary.readouterr()
        assert captured.out == DATA
        err = captured.err.decode()
        assert "index fallback" in err
        assert "output is complete" in err
        assert "damage" not in err.lower().replace("index fallback", "")

    def test_rejected_cache_is_healed(self, gz_file, tmp_path, capsysbinary):
        cache = tmp_path / "cache"
        base = ["-c", "--index-cache", str(cache), str(gz_file)]
        assert main(base) == 0
        cached = next(cache.glob("*.rpzidx"))
        good = cached.read_bytes()
        cached.write_bytes(good[: len(good) // 2])  # truncate the cache
        assert main(base) == 0
        assert cached.read_bytes() == good  # re-exported, byte-identical
        capsysbinary.readouterr()


class TestAnalyze:
    def test_analyze_prints_structure(self, gz_file, capsys):
        assert main(["--analyze", str(gz_file)]) == 0
        out = capsys.readouterr().out
        assert "member" in out
        assert "dynamic" in out or "stored" in out or "fixed" in out

        # One decode per member: the block counts printed are the ones
        # inflate() reports for the member's Deflate stream.
        from repro.deflate import inflate
        from repro.gz import parse_gzip_header
        from repro.io import BitReader

        reader = BitReader(gz_file.read_bytes())
        parse_gzip_header(reader)
        deflate_start = reader.tell()
        boundaries = inflate(reader).boundaries
        names = {0: "stored", 1: "fixed", 2: "dynamic"}
        counts = {}
        for boundary in boundaries:
            name = names[boundary.block_type]
            counts[name] = counts.get(name, 0) + 1
        row = out.splitlines()[1].split()
        assert row[:3] == ["0", "0", str(deflate_start)]
        assert int(row[4]) == len(boundaries)
        assert row[5] == ",".join(f"{k}:{v}" for k, v in sorted(counts.items()))


class TestCompress:
    @pytest.mark.parametrize("profile", ["gzip", "pigz", "bgzf", "igzip0"])
    def test_compress_profiles(self, tmp_path, profile):
        src = tmp_path / "plain.txt"
        src.write_bytes(DATA[:40_000])
        assert main(["--compress", "--profile", profile, str(src)]) == 0
        assert stdlib_gzip.decompress(
            (tmp_path / "plain.txt.gz").read_bytes()
        ) == DATA[:40_000]


class TestParallelCompress:
    def test_parallel_compress_members(self, tmp_path):
        src = tmp_path / "big.txt"
        src.write_bytes(DATA)
        assert main(["--compress", "--parallel-compress", "-P", "3", str(src)]) == 0
        blob = (tmp_path / "big.txt.gz").read_bytes()
        assert stdlib_gzip.decompress(blob) == DATA

    def test_parallel_compress_bgzf_layout(self, tmp_path):
        from repro.gz.bgzf import is_bgzf

        src = tmp_path / "big.txt"
        src.write_bytes(DATA)
        assert main([
            "--compress", "--parallel-compress", "--layout", "bgzf",
            "-P", "2", str(src),
        ]) == 0
        blob = (tmp_path / "big.txt.gz").read_bytes()
        assert is_bgzf(blob)
        assert stdlib_gzip.decompress(blob) == DATA


class TestRecover:
    def test_recover_cli(self, tmp_path, capsys):
        blob = bytearray(stdlib_gzip.compress(DATA))
        blob[:256] = bytes(256)
        bad = tmp_path / "broken.gz"
        bad.write_bytes(bytes(blob))
        assert main(["--recover", str(bad)]) == 0
        recovered = (tmp_path / "broken.gz.recovered").read_bytes()
        assert len(recovered) > len(DATA) // 2
        assert "recovered" in capsys.readouterr().err


class TestDefaults:
    def test_parallelization_respects_cpu_affinity(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert build_parser().parse_args(["x.gz"]).parallelization == 1

    def test_defaults_come_from_the_library(self):
        from repro.io.remote import RemoteReaderOptions
        from repro.reader import DEFAULT_CHUNK_SIZE

        arguments = build_parser().parse_args(["x.gz"])
        assert arguments.chunk_size * 1024 == DEFAULT_CHUNK_SIZE
        assert arguments.net_retries == RemoteReaderOptions.retries
        assert arguments.net_timeout == RemoteReaderOptions.deadline
        assert arguments.net_block_size * 1024 == RemoteReaderOptions.block_size

def test_import_leaves_the_engine_and_http_stack_unloaded():
    # `--version` and argument errors must not pay for NumPy, the reader
    # engine or the HTTP client: the parser's defaults come from the
    # settings modules alone.
    import os
    import subprocess

    import repro

    heavy = ("numpy", "http.client", "repro.reader.parallel_reader")
    code = (
        "import sys, repro.cli; "
        f"print([name for name in {heavy!r} if name in sys.modules])"
    )
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=source_root), check=True,
    )
    assert result.stdout.strip() == "[]"


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version", "x"])
    assert excinfo.value.code == 0

"""Tests for ReaderOptions — each reader setting declared once."""

import dataclasses
import gzip as stdlib_gzip

import pytest

from repro.cache import FetchNextFixed
from repro.errors import UsageError
from repro.reader import DEFAULT_CHUNK_SIZE, ParallelGzipReader, ReaderOptions
from repro.reader import options as reader_options

BLOB = stdlib_gzip.compress(b"options " * 4096)


@pytest.fixture(autouse=True)
def _no_budget_from_environment(monkeypatch):
    monkeypatch.delenv("REPRO_MAX_MEMORY", raising=False)


class TestReaderOptions:
    def test_defaults(self):
        options = ReaderOptions()
        assert options.parallelization == 1
        assert options.chunk_size == DEFAULT_CHUNK_SIZE == 4 * 1024 * 1024
        assert options.verify and options.detect_catalog
        assert not options.pugz_compatible
        assert not options.tolerate_corruption
        for name in ("strategy", "max_chunk_output", "chunk_timeout",
                     "index_cache", "max_memory"):
            assert getattr(options, name) is None, name
        assert options.split_output is None

    def test_eleven_settings(self):
        names = [field.name for field in dataclasses.fields(ReaderOptions)]
        assert len(names) == 11

    @pytest.mark.parametrize("settings", [
        {"parallelization": 0},
        {"chunk_size": 10},
        {"chunk_timeout": 0},
        {"chunk_timeout": -1.0},
        {"max_memory": "12 parsecs"},
        {"max_memory": 0},
    ])
    def test_invalid_values_raise_usage_error(self, settings):
        with pytest.raises(UsageError):
            ReaderOptions(**settings)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ReaderOptions().chunk_size = 1024

    def test_max_memory_is_parsed_once(self):
        options = ReaderOptions(max_memory="64MiB")
        assert options.max_memory == 64 * 1024 * 1024
        assert options.split_output == 8 * 1024 * 1024
        assert dataclasses.replace(options, verify=False).max_memory == (
            64 * 1024 * 1024
        )

    def test_split_output_has_a_floor(self, monkeypatch):
        assert ReaderOptions(max_memory="2MiB").split_output == (
            reader_options.MIN_SPLIT_OUTPUT
        )
        monkeypatch.setattr(reader_options, "MIN_SPLIT_OUTPUT", 1024)
        assert ReaderOptions(max_memory="2MiB").split_output == 256 * 1024

    def test_environment_supplies_the_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_MEMORY", "32MiB")
        assert ReaderOptions().max_memory == 32 * 1024 * 1024
        assert ReaderOptions(max_memory=1 << 20).max_memory == 1 << 20
        monkeypatch.setenv("REPRO_MAX_MEMORY", "")
        assert ReaderOptions().max_memory is None


class TestReaderForwarding:
    def test_every_setting_reaches_the_options(self, tmp_path):
        strategy = FetchNextFixed()
        settings = {
            "parallelization": 2,
            "chunk_size": 16 * 1024,
            "verify": False,
            "strategy": strategy,
            "pugz_compatible": True,
            "max_chunk_output": 1 << 24,
            "detect_catalog": False,
            "tolerate_corruption": True,
            "chunk_timeout": 5.0,
            "index_cache": str(tmp_path / "cache"),
            "max_memory": "64MiB",
        }
        with ParallelGzipReader(BLOB, **settings) as reader:
            assert reader.read() == b"options " * 4096
            assert {
                field.name: getattr(reader.options, field.name)
                for field in dataclasses.fields(ReaderOptions)
            } == dict(settings, max_memory=64 * 1024 * 1024)

    def test_reader_keywords_outside_the_options(self):
        with ParallelGzipReader(
            BLOB, index=None, trace=True, telemetry=None,
            metrics_port=None, metrics_host="127.0.0.1", metrics_interval=1.0,
        ) as reader:
            assert reader.options == ReaderOptions()
            assert reader.read() == b"options " * 4096

    def test_unknown_keyword_is_a_type_error(self):
        with pytest.raises(TypeError):
            ParallelGzipReader(BLOB, chunksize=1024)

    def test_invalid_value_is_a_usage_error(self):
        with pytest.raises(UsageError):
            ParallelGzipReader(BLOB, parallelization=0)

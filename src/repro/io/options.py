"""The remote source's settings, declared once: :class:`RemoteReaderOptions`.

Every layer of the remote stack (:mod:`repro.io.remote`) reads the one
options object; each setting's default and check live here and nowhere
else. This module imports nothing heavier than ``dataclasses``, so the CLI
takes its defaults from it without loading the HTTP client.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import UsageError

__all__ = ["RemoteReaderOptions", "is_remote_url"]


def is_remote_url(source) -> bool:
    """True for strings ``ensure_file_reader`` should open over HTTP."""
    return isinstance(source, str) and source.startswith(
        ("http://", "https://")
    )


@dataclass(frozen=True)
class RemoteReaderOptions:
    """Everything needed to build a resilient remote reader stack.

    ``block_size`` is the aligned wire block (one HTTP range request per
    block) and ``cache_blocks`` the number of them kept in the coalescing
    cache. ``timeout`` bounds one socket operation (one attempt);
    ``deadline`` bounds one ``pread`` including every retry and backoff
    sleep. ``expected_size``/``expected_etag``/``expected_last_modified``
    bind the reader to a known generation of the object — a different one
    at the origin raises :class:`SourceChangedError` instead of mixing
    bytes. ``jitter_seed`` makes the backoff sequence deterministic for
    tests.
    """

    url: str
    block_size: int = 1024 * 1024
    cache_blocks: int = 32
    timeout: float = 10.0
    deadline: float = 30.0
    retries: int = 4
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    breaker_threshold: int = 5
    breaker_cooldown: float = 1.0
    pool_size: int = 4
    jitter_seed: int = None
    expected_size: int = None
    expected_etag: str = None
    expected_last_modified: str = None

    def validate(self) -> "RemoteReaderOptions":
        # "http://host/..." splits into ["http:", "", "host", ...].
        if not is_remote_url(self.url) or not self.url.split("/")[2]:
            raise UsageError(f"not an http(s) URL with a host: {self.url!r}")
        if self.block_size < 1:
            raise UsageError("block_size must be at least 1 byte")
        if self.retries < 0:
            raise UsageError("retries cannot be negative")
        if self.timeout is not None and self.timeout <= 0:
            raise UsageError("timeout must be positive")
        if self.deadline is not None and self.deadline <= 0:
            raise UsageError("deadline must be positive")
        return self

"""Deterministic fault injection for the decode pipeline (chaos harness).

Production means chunks fail, workers stall, and files arrive truncated.
This module makes those failures *reproducible on demand* so the
fetcher's bounded waits, its on-demand rung, and tolerant mode can be
tested under a seed instead of waiting for the real thing:

* **Input damage** — :func:`flip_bytes` and :func:`truncate` build
  corrupted/truncated variants of a byte blob deterministically from a
  seed, for feeding damaged files into the reader.
* **Runtime faults** — a :class:`FaultInjector` holding
  :class:`FaultSpec` rules is installed process-wide with
  :func:`install` (or the :func:`injected` context manager). Hook points
  in the fetcher, the chunk task body, the index store and the remote
  reader call :func:`fire`, which consults the active injector and may
  sleep (``delay``/``stall``) or raise (``raise``).

Determinism: whether a spec fires for a given ``(site, chunk_id,
attempt)`` is decided by hashing those coordinates with the seed — never
by shared RNG state — so the decision is identical regardless of thread
interleaving. Exactly-once faults (e.g. "stall one decode, then let the
on-demand decode pass") use ``once_token``, a filesystem path claimed
atomically by the first firing.

``chunk.decode`` fires exactly once per chunk decode — speculative on a
pool thread or on demand on the requesting thread — because both run the
one task body (:func:`~repro.fetcher.tasks.run_chunk_task`); ``attempt``
is 0 for the speculative prefetch and 1 for the on-demand decode.

**Network I/O faults.** The ``io.pread`` site fires inside
:class:`~repro.io.remote.ResilientFileReader` before *every* read
attempt, with ``chunk_id`` carrying the byte offset and ``attempt`` the
retry ordinal — so ``FaultSpec("io.pread", "raise", error="network",
probability=0.1, attempts=None)`` simulates a flaky origin (retried by
the resilience ladder), ``kind="delay"`` simulates origin latency, and
``kind="stall"`` exercises per-read deadlines, all without any server.
For faults *below* the reader — 503s, dropped connections, truncated
bodies, mid-decode content swaps — use the in-process
:class:`~repro.io.fault_server.FaultHTTPServer`, whose decisions hash
``(seed, kind, range_start, attempt)`` the same way this module hashes
``(seed, site, chunk_id, attempt)``: replaying with the failing test's
``CHAOS_SEED`` replays the exact same faults.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass

from .errors import (
    FormatError,
    IndexIntegrityError,
    NetworkError,
    TruncatedError,
    UsageError,
)

__all__ = [
    "FaultInjector",
    "FaultSpec",
    "InjectedError",
    "fire",
    "flip_bytes",
    "injected",
    "install",
    "truncate",
    "uninstall",
]

#: Hook sites the pipeline currently exposes.
SITES = (
    "chunk.decode",  # the chunk task body, wherever it runs
    "chunk.on_demand",  # the serial on-demand rung, before its decode
    "index.load",  # persistent index import (store.load_index)
    "index.window",  # seek-point window validation/inflation
    "index.export",  # persistent index export (store.save_index)
    "io.pread",  # every ResilientFileReader read attempt (network I/O)
)


class InjectedError(RuntimeError):
    """Default exception raised by ``kind="raise"`` faults."""


# -- input damage ----------------------------------------------------------------


def flip_bytes(data: bytes, *, seed: int, flips: int = 1, start: int = 0,
               stop: int = None) -> bytes:
    """Return ``data`` with ``flips`` bytes XOR-flipped in ``[start, stop)``.

    Positions and flip masks come from ``random.Random(seed)``, so the
    same seed always damages the same bytes — a failing chaos test
    prints its seed and the run can be replayed exactly.
    """
    if stop is None:
        stop = len(data)
    if not 0 <= start < stop <= len(data):
        raise UsageError(f"invalid corruption range [{start}, {stop})")
    rng = random.Random(seed)
    damaged = bytearray(data)
    for _ in range(flips):
        position = rng.randrange(start, stop)
        damaged[position] ^= rng.randrange(1, 256)
    return bytes(damaged)


def truncate(data: bytes, *, keep: int = None, fraction: float = None) -> bytes:
    """Cut ``data`` short: keep ``keep`` bytes, or ``fraction`` of them."""
    if (keep is None) == (fraction is None):
        raise UsageError("pass exactly one of keep= or fraction=")
    if keep is None:
        keep = int(len(data) * fraction)
    if not 0 <= keep <= len(data):
        raise UsageError(f"cannot keep {keep} of {len(data)} bytes")
    return data[:keep]


# -- runtime faults --------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: where, what, and how often.

    ``site`` names a hook point from :data:`SITES`. ``kind`` is one of:

    * ``"raise"`` — raise an exception (``error`` picks the class:
      ``"injected"``/``"format"``/``"truncated"``/``"index"``/
      ``"network"``);
    * ``"delay"`` — sleep ``delay_seconds`` then continue;
    * ``"stall"`` — like delay, semantically "this task hung" (use with
      a timeout that should fire first).

    ``chunk_ids``/``attempts`` restrict matching (``None`` = any).
    ``probability`` < 1 gates firing on a deterministic hash of
    ``(seed, site, chunk_id, attempt)``. ``once_token`` is a filesystem
    path: the first firing claims it atomically and later matches are
    skipped — exactly-once semantics.
    """

    site: str
    kind: str
    chunk_ids: tuple = None
    attempts: tuple = (0,)
    probability: float = 1.0
    error: str = "injected"
    delay_seconds: float = 0.05
    once_token: str = None

    def validate(self) -> "FaultSpec":
        if self.site not in SITES:
            raise UsageError(
                f"unknown fault site {self.site!r}; choose from {SITES}"
            )
        if self.kind not in ("raise", "delay", "stall"):
            raise UsageError(f"unknown fault kind {self.kind!r}")
        if self.kind == "raise" and self.error not in _ERROR_CLASSES:
            raise UsageError(f"unknown fault error class {self.error!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise UsageError(f"probability out of range: {self.probability}")
        return self


def _injected_index_error(message: str) -> IndexIntegrityError:
    return IndexIntegrityError(message, check="injected")


_ERROR_CLASSES = {
    "injected": InjectedError,
    "format": FormatError,
    "truncated": TruncatedError,
    "index": _injected_index_error,
    "network": NetworkError,
}


@dataclass(frozen=True)
class FaultInjector:
    """A seed plus a tuple of :class:`FaultSpec` rules."""

    seed: int
    specs: tuple

    def _matches(self, spec: FaultSpec, site: str, chunk_id, attempt) -> bool:
        if spec.site != site:
            return False
        if spec.chunk_ids is not None and chunk_id not in spec.chunk_ids:
            return False
        if spec.attempts is not None and attempt not in spec.attempts:
            return False
        if spec.probability < 1.0:
            key = f"{self.seed}:{site}:{chunk_id}:{attempt}".encode()
            digest = hashlib.blake2s(key).digest()
            if int.from_bytes(digest[:8], "big") / 2**64 >= spec.probability:
                return False
        return True

    def fire(self, site: str, *, chunk_id=None, attempt: int = 0) -> None:
        """Apply every matching spec at this hook point (may not return)."""
        for spec in self.specs:
            if not self._matches(spec, site, chunk_id, attempt):
                continue
            if spec.once_token is not None and not _claim_token(spec.once_token):
                continue
            context = (
                f"injected fault at {site} (chunk={chunk_id}, "
                f"attempt={attempt}, seed={self.seed})"
            )
            if spec.kind in ("delay", "stall"):
                time.sleep(spec.delay_seconds)
            elif spec.kind == "raise":
                raise _ERROR_CLASSES[spec.error](context)
            else:
                raise UsageError(f"unknown fault kind {spec.kind!r}")


def _claim_token(path: str) -> bool:
    """Atomically claim a once-token file; True exactly once per path."""
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        return True
    except FileExistsError:
        return False


# -- installation ----------------------------------------------------------------

_ACTIVE: FaultInjector = None


def install(injector: FaultInjector) -> None:
    """Make ``injector`` the process-wide active injector."""
    global _ACTIVE
    _ACTIVE = injector


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def fire(site: str, *, chunk_id=None, attempt: int = 0) -> None:
    """Hook-point entry: no-op unless an injector is installed."""
    if _ACTIVE is not None:
        _ACTIVE.fire(site, chunk_id=chunk_id, attempt=attempt)


class injected:
    """Context manager installing an injector for the enclosed block::

        with faults.injected(seed=7, specs=[FaultSpec("chunk.decode", "raise")]):
            decompress_parallel(path, parallelization=4)
    """

    def __init__(self, *, seed: int, specs) -> None:
        self._injector = FaultInjector(
            seed=seed, specs=tuple(spec.validate() for spec in specs)
        )

    def __enter__(self) -> FaultInjector:
        install(self._injector)
        return self._injector

    def __exit__(self, *exc) -> None:
        uninstall()

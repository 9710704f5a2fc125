"""Byte-accounted memory budget for the decode pipeline.

The paper sizes the prefetch and access caches in *chunk counts* (§3.2,
Fig. 4) under the assumption of roughly uniform chunk output. A
high-ratio input breaks that assumption: a 4 MiB compressed chunk of
zeros inflates ~1000x, so ``capacity = 2 * parallelization`` entries can
silently mean gigabytes of resident decompressed data while the
prefetcher keeps submitting more.

:class:`MemoryGovernor` replaces the implicit "entries are roughly a
chunk each" sizing with explicit byte accounting shared by every holder
of decompressed data — the fetcher's prefetch cache, the reader's
materialized-bytes cache (the paper's access cache), and in-flight
(submitted but not yet collected) speculative decodes, which are charged
a conservative *reservation* up front and re-charged at their true size
on harvest.

The governor never frees anything itself; it is pure accounting plus an
admission gate. Graceful degradation is the callers' job:

* byte-capacity LRU eviction (:class:`~repro.cache.LRUCache` with
  ``max_bytes``) keeps each cache under its share,
* the fetcher stops submitting speculative work (and sheds queued
  speculation) when a reservation does not fit,
* workers split oversized chunks at Deflate block boundaries so a single
  bomb chunk cannot blow the budget on its own.

An evicted chunk is simply dropped: a later read decodes it again by one
exact pass from its seek point and window (paper §3.3).

``budget=None`` disables the gate but keeps the accounting, so
``statistics()`` can always report charged bytes and high-water marks.
"""

from __future__ import annotations

import threading

from ..errors import UsageError

__all__ = ["MemoryGovernor", "format_size", "parse_size"]

_UNITS = {
    "": 1,
    "b": 1,
    "k": 1024,
    "kb": 1000,
    "kib": 1024,
    "m": 1024 ** 2,
    "mb": 1000 ** 2,
    "mib": 1024 ** 2,
    "g": 1024 ** 3,
    "gb": 1000 ** 3,
    "gib": 1024 ** 3,
    "t": 1024 ** 4,
    "tb": 1000 ** 4,
    "tib": 1024 ** 4,
}


def parse_size(text) -> int:
    """Parse a human byte size (``"64MiB"``, ``"1.5G"``, ``"500000"``).

    Accepts binary (KiB/MiB/GiB, and bare K/M/G as their aliases) and
    decimal (KB/MB/GB) suffixes, case-insensitively, with an optional
    fractional value. Plain integers pass through unchanged.
    """
    if isinstance(text, (int, float)):
        value = int(text)
        if value <= 0:
            raise UsageError(f"size must be positive, got {value}")
        return value
    if not isinstance(text, str):
        raise UsageError(f"cannot parse a size from {type(text).__name__}")
    cleaned = text.strip().replace(" ", "")
    split = len(cleaned)
    while split > 0 and not cleaned[split - 1].isdigit():
        split -= 1
    number, unit = cleaned[:split], cleaned[split:].lower()
    if unit not in _UNITS:
        raise UsageError(
            f"unknown size unit {unit!r} in {text!r} "
            f"(use KiB/MiB/GiB, KB/MB/GB, or a plain byte count)"
        )
    try:
        value = float(number)
    except ValueError:
        raise UsageError(f"cannot parse size {text!r}") from None
    result = int(value * _UNITS[unit])
    if result <= 0:
        raise UsageError(f"size must be positive, got {text!r}")
    return result


def format_size(value) -> str:
    """Render bytes with a binary suffix (inverse-ish of :func:`parse_size`)."""
    if value is None:
        return "unlimited"
    for threshold, suffix in (
        (1024 ** 4, "TiB"), (1024 ** 3, "GiB"), (1024 ** 2, "MiB"),
        (1024, "KiB"),
    ):
        if value >= threshold:
            return f"{value / threshold:.1f} {suffix}"
    return f"{value} B"


class MemoryGovernor:
    """Byte accounting and admission control for decompressed data.

    Thread-safe. Accounts are plain names (``"prefetch_cache"``,
    ``"in_flight"``, ...); the budget applies to their *sum*.
    """

    def __init__(self, budget: int = None, telemetry=None):
        if budget is not None:
            budget = parse_size(budget)
        self.budget = budget
        self._lock = threading.Lock()
        self._accounts: dict = {}
        self._high_water = 0
        self.stalls = 0  # speculative reservations declined
        self.overcommits = 0  # mandatory charges forced past the budget
        if telemetry is not None:
            metrics = telemetry.metrics
            metrics.probe("memory.charged_bytes", lambda: self.charged)
            metrics.probe("memory.high_water_bytes", lambda: self.high_water)
            metrics.probe(
                "memory.budget_bytes", lambda: self.budget or 0
            )
            metrics.probe("memory.backpressure_stalls", lambda: self.stalls)
            metrics.probe("memory.overcommits", lambda: self.overcommits)

    # -- accounting -------------------------------------------------------------

    @property
    def charged(self) -> int:
        with self._lock:
            return sum(self._accounts.values())

    @property
    def high_water(self) -> int:
        with self._lock:
            return self._high_water

    def account(self, name: str) -> int:
        with self._lock:
            return self._accounts.get(name, 0)

    def charge(self, account: str, nbytes: int) -> None:
        """Unconditionally add ``nbytes`` to ``account``."""
        if nbytes <= 0:
            return
        with self._lock:
            self._accounts[account] = self._accounts.get(account, 0) + nbytes
            total = sum(self._accounts.values())
            if total > self._high_water:
                self._high_water = total

    def discharge(self, account: str, nbytes: int) -> None:
        """Release ``nbytes`` from ``account``."""
        if nbytes <= 0:
            return
        with self._lock:
            remaining = self._accounts.get(account, 0) - nbytes
            if remaining > 0:
                self._accounts[account] = remaining
            else:
                self._accounts.pop(account, None)

    # -- admission --------------------------------------------------------------

    def _fits(self, nbytes: int, headroom: int) -> bool:
        if self.budget is None:
            return True
        return sum(self._accounts.values()) + nbytes + headroom <= self.budget

    def try_reserve(self, account: str, nbytes: int, *,
                    headroom: int = 0) -> bool:
        """Charge ``nbytes`` only if it fits under the budget.

        ``headroom`` keeps that many bytes free on top of the request —
        the fetcher reserves one chunk-ceiling of slack so a mandatory
        on-demand decode always has room even when speculation saturates
        the budget. Refusals are counted as backpressure stalls.
        """
        with self._lock:
            if not self._fits(nbytes, headroom):
                self.stalls += 1
                return False
            self._accounts[account] = self._accounts.get(account, 0) + nbytes
            total = sum(self._accounts.values())
            if total > self._high_water:
                self._high_water = total
            return True

    def reserve(self, account: str, nbytes: int) -> None:
        """Charge ``nbytes`` for *mandatory* work, fitting or not.

        The consumer's read must always make progress, so the budget is
        enforced for speculation but only *pursued* for mandatory decodes:
        the caller frees what it can first (shedding queued speculation,
        harvesting finished work), then charges. A charge that lands past
        the budget is counted in ``overcommits``. Nothing is waited for —
        every discharge runs on the calling thread, so a wait could only
        time out.
        """
        with self._lock:
            if not self._fits(nbytes, 0):
                self.overcommits += 1
            self._accounts[account] = self._accounts.get(account, 0) + nbytes
            total = sum(self._accounts.values())
            if total > self._high_water:
                self._high_water = total

    # -- reporting --------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict state for ``statistics()`` surfaces."""
        with self._lock:
            accounts = dict(self._accounts)
            return {
                "budget_bytes": self.budget,
                "charged_bytes": sum(accounts.values()),
                "high_water_bytes": self._high_water,
                "accounts": accounts,
                "backpressure_stalls": self.stalls,
                "overcommits": self.overcommits,
            }

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"MemoryGovernor(budget={format_size(snap['budget_bytes'])}, "
            f"charged={format_size(snap['charged_bytes'])}, "
            f"high_water={format_size(snap['high_water_bytes'])})"
        )

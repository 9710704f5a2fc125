"""The worker pool's constructor and the host's usable core count.

Workers are threads (paper §3.1, Fig. 4): they share the address space, so
there is no spawn, no pickling, no per-worker file handle, and a result is
with the orchestrating thread the moment it is done. They scale because the
hot paths leave the GIL wherever libz loads (:mod:`repro.deflate.libz`:
inflate — the exact pass of a loaded index, BGZF or catalog chunk and the
two-stage search path alike — and the finder's strict check run in C).
Without libz the Python decoder is GIL-bound and P > 1 buys nothing; that
fallback is accepted as single-core (DESIGN.md §5).
"""

from __future__ import annotations

import os

from ..errors import UsageError

__all__ = ["available_cores", "create_pool"]


def available_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def create_pool(backend: str, size: int, *, telemetry=None):
    """Instantiate the fetcher's worker pool; ``backend`` is ``"threads"``."""
    # Imported here so that `available_cores` alone stays cheap (the CLI's
    # -P default); the fetcher's own import of the pool has loaded it.
    from .thread_pool import ThreadPool

    if backend != "threads":
        raise UsageError(
            f"cannot create a pool for backend {backend!r}; workers are threads"
        )
    return ThreadPool(size, telemetry=telemetry)

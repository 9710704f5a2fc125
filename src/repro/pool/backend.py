"""Worker backend selection: threads vs. processes.

Threads share the address space: no spawn, no pickling, no per-worker file
handles, a result is with the orchestrating thread the moment it is done.
They scale where the hot path leaves the GIL. The zlib-delegation modes
(loaded index, BGZF, catalog) always did; the two-stage search path does
wherever libz loads (:mod:`repro.deflate.libz`: inflate and the finder's
strict check run in C). Where it does not, the fused Python kernel is
GIL-bound and only worker *processes* give it a second core — at the price
of shipping 2 bytes per output byte through a pipe.

``resolve_backend`` encodes that for ``backend="auto"``, keyed on that one
observable property of the decoder: processes exactly when the speculative
path is active, more than one worker is requested, the machine has more
than one usable core *and* libz cannot be loaded — otherwise threads.
Measured at P = 1 and 2 on 2 cores, all this repository's hosts offer
(EXPERIMENTS.md, "Search path after PR 22"; ROADMAP 4(b)).
"""

from __future__ import annotations

import os

from ..deflate import libz
from ..errors import UsageError

__all__ = ["BACKENDS", "available_cores", "create_pool", "resolve_backend"]

#: Accepted values for the ``backend`` argument across the stack.
BACKENDS = ("auto", "threads", "processes")


def available_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        return os.cpu_count() or 1


def resolve_backend(backend: str, *, mode: str, parallelization: int) -> str:
    """Map a requested backend (possibly ``auto``) to a concrete one.

    ``mode`` is the fetcher's operating mode (``search``/``index``/
    ``bgzf``); only ``search`` runs the two-stage decoder, and that is
    GIL-bound only without libz.
    """
    if backend not in BACKENDS:
        raise UsageError(
            f"unknown backend {backend!r}; choose one of {', '.join(BACKENDS)}"
        )
    if backend != "auto":
        return backend
    if mode != "search" or parallelization < 2 or available_cores() < 2:
        return "threads"
    return "threads" if libz.load() is not None else "processes"


def create_pool(backend: str, size: int, *, telemetry=None, context=None,
                task_timeout: float = None):
    """Instantiate the pool for a *concrete* backend name.

    ``task_timeout`` arms the process pool's stall watchdog; the thread
    backend has no safe way to interrupt a running thread, so the
    timeout is enforced by the fetcher's bounded waits instead.
    """
    if backend == "threads":
        from .thread_pool import ThreadPool

        return ThreadPool(size, telemetry=telemetry)
    if backend == "processes":
        from .process_pool import ProcessPool

        return ProcessPool(
            size, telemetry=telemetry, context=context,
            task_timeout=task_timeout,
        )
    raise UsageError(
        f"cannot create a pool for backend {backend!r}; resolve 'auto' with "
        f"resolve_backend() first"
    )

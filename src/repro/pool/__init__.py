"""Worker pool: a priority thread pool."""

from .backend import available_cores, create_pool

__all__ = [
    "PRIORITY_ON_DEMAND",
    "PRIORITY_PREFETCH",
    "ThreadPool",
    "available_cores",
    "create_pool",
]


def __getattr__(name):
    # Lazy: the pool itself (concurrent.futures, telemetry) loads on first
    # use; the host's core count alone does not need it.
    if name in ("PRIORITY_ON_DEMAND", "PRIORITY_PREFETCH", "ThreadPool"):
        from . import thread_pool

        return getattr(thread_pool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Worker pool: a FIFO thread pool."""

from .backend import available_cores, create_pool

__all__ = ["ThreadPool", "available_cores", "create_pool"]


def __getattr__(name):
    # Lazy: the pool itself (concurrent.futures, telemetry) loads on first
    # use; the host's core count alone does not need it.
    if name == "ThreadPool":
        from .thread_pool import ThreadPool

        return ThreadPool
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

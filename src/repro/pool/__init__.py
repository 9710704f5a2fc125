"""Worker pool: a priority thread pool."""

from .backend import available_cores, create_pool
from .thread_pool import PRIORITY_ON_DEMAND, PRIORITY_PREFETCH, ThreadPool

__all__ = [
    "PRIORITY_ON_DEMAND",
    "PRIORITY_PREFETCH",
    "ThreadPool",
    "available_cores",
    "create_pool",
]

"""Worker thread pool: one FIFO queue, clean shutdown, and telemetry.

Decompression tasks are CPU-heavy, so exactly ``parallelization`` workers
exist, and they start queued tasks in submission order. Every task is
speculative: a decode the consuming reader is blocked on runs on the
reading thread, never here, so nothing queued has to overtake anything
else. What is still queued can be cancelled at once (:meth:`shed`).

Futures are :class:`concurrent.futures.Future`, so callers get the standard
``result()/done()/add_done_callback()`` surface.

Every task is clocked twice — queue wait (submit to dequeue) and run time —
into the shared metrics registry, and each worker accumulates busy seconds
for the utilization report. When tracing is enabled, both intervals become
spans on the executing worker's track, giving the per-worker busy/idle
timeline in the trace viewer.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future

from ..errors import UsageError
from ..telemetry import Telemetry

__all__ = ["ThreadPool"]


class ThreadPool:
    """Fixed-size FIFO thread pool."""

    def __init__(self, size: int, name: str = "repro-worker", telemetry=None):
        if size < 1:
            raise UsageError("thread pool needs at least one worker")
        self.size = size
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._shutdown = False
        self._lock = threading.Lock()
        self._started_at = time.perf_counter()
        self.tasks_submitted = 0
        self.tasks_completed = 0
        self.tasks_cancelled = 0
        self._tasks_dequeued = 0
        self._queued_futures: set = set()
        self._busy_seconds: dict = {}
        metrics = self._telemetry.metrics
        self._queue_wait = metrics.histogram("pool.queue_wait_seconds")
        self._task_time = metrics.histogram("pool.task_seconds")
        metrics.probe("pool.queued", lambda: self.queued)
        metrics.probe("pool.tasks_submitted", lambda: self.tasks_submitted)
        metrics.probe("pool.tasks_completed", lambda: self.tasks_completed)
        metrics.probe("pool.tasks_cancelled", lambda: self.tasks_cancelled)
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"{name}-{i}", daemon=True)
            for i in range(size)
        ]
        for worker in self._workers:
            worker.start()

    def submit(self, function, /, *args, **kwargs) -> Future:
        """Queue ``function(*args, **kwargs)`` behind what is queued."""
        future: Future = Future()
        with self._lock:
            if self._shutdown:
                raise UsageError("submit on a shut-down ThreadPool")
            self.tasks_submitted += 1
            self._queued_futures.add(future)
        self._queue.put((future, function, args, kwargs, time.perf_counter()))
        return future

    def shed(self) -> int:
        """Cancel every still-queued task.

        The memory governor's load-shedding hook: when charged bytes
        exceed the budget, queued speculative work is cancelled before
        any worker picks it up. Running tasks are never touched.
        Returns the number of tasks newly cancelled.
        """
        with self._lock:
            queued, self._queued_futures = self._queued_futures, set()
        return sum(future.cancel() for future in queued)

    def _worker_loop(self) -> None:
        recorder = self._telemetry.recorder
        worker_name = threading.current_thread().name
        recorder.set_thread_name(worker_name)
        while True:
            future, function, args, kwargs, submitted = self._queue.get()
            if future is None:  # shutdown sentinel, queued after real work
                return
            dequeued = time.perf_counter()
            with self._lock:
                self._tasks_dequeued += 1
                self._queued_futures.discard(future)
            self._queue_wait.observe(dequeued - submitted)
            if recorder.enabled:
                recorder.complete("pool.queue_wait", submitted, dequeued)
            if not future.set_running_or_notify_cancel():
                with self._lock:
                    self.tasks_cancelled += 1
                continue
            try:
                future.set_result(function(*args, **kwargs))
            except BaseException as error:  # propagate to the waiter
                future.set_exception(error)
            finally:
                finished = time.perf_counter()
                self._task_time.observe(finished - dequeued)
                if recorder.enabled:
                    recorder.complete("pool.task", dequeued, finished)
                with self._lock:
                    self.tasks_completed += 1
                    self._busy_seconds[worker_name] = (
                        self._busy_seconds.get(worker_name, 0.0)
                        + (finished - dequeued)
                    )

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        for _ in self._workers:
            self._queue.put((None, None, (), {}, 0.0))
        if wait:
            for worker in self._workers:
                worker.join()

    @property
    def pending(self) -> int:
        """Tasks submitted but not yet finished (running or queued)."""
        with self._lock:
            return self.tasks_submitted - self.tasks_completed - self.tasks_cancelled

    @property
    def queued(self) -> int:
        """Tasks submitted but not yet picked up by any worker."""
        with self._lock:
            return self.tasks_submitted - self._tasks_dequeued

    def utilization(self) -> float:
        """Fraction of worker wall time spent running tasks so far."""
        elapsed = time.perf_counter() - self._started_at
        if elapsed <= 0:
            return 0.0
        with self._lock:
            busy = sum(self._busy_seconds.values())
        return min(busy / (elapsed * self.size), 1.0)

    def statistics(self) -> dict:
        """Plain-dict snapshot for ``GzipChunkFetcher.statistics()``."""
        elapsed = time.perf_counter() - self._started_at
        with self._lock:
            busy = dict(self._busy_seconds)
            submitted = self.tasks_submitted
            completed = self.tasks_completed
            cancelled = self.tasks_cancelled
            dequeued = self._tasks_dequeued
        return {
            "workers": self.size,
            "tasks_submitted": submitted,
            "tasks_completed": completed,
            "tasks_cancelled": cancelled,
            "queued": submitted - dequeued,
            "worker_busy_seconds": busy,
            "elapsed_seconds": elapsed,
            "utilization": min(sum(busy.values()) / (elapsed * self.size), 1.0)
            if elapsed > 0 else 0.0,
        }

    def __enter__(self) -> "ThreadPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

"""Worker process pool: real multi-core execution for GIL-bound decoding.

Where libz cannot be loaded the two-stage decoder's hot path is the fused
Python kernel, :class:`ThreadPool` workers serialize on the GIL and
speculative chunk decodes gain nothing from extra cores.
:class:`ProcessPool` runs the same priority-scheduled task model on
``multiprocessing`` workers instead: tasks must be *descriptions* — a
picklable module-level callable plus picklable arguments — and results
travel back through a pipe, so each decode genuinely occupies its own
core. With libz the decoder leaves the GIL and threads win (no spawn, no
pipe): ``backend="auto"`` picks this pool only for the Python kernel
(:mod:`repro.pool.backend`); ``backend="processes"`` always selects it.

Scheduling stays parent-side: a dispatcher thread holds the priority
queue and feeds exactly one task at a time to each idle worker over a
dedicated duplex pipe. Queued work therefore keeps its priority ordering
(an on-demand decode still overtakes pending prefetches) and cancelling
an undispatched future never reaches a child at all.

Failure model — the pool *contains* worker failures instead of
propagating them:

* A worker that dies mid-task (OOM kill, signal, interpreter abort)
  closes its pipe, which wakes the dispatcher. The in-flight task is
  **requeued** (bounded by ``max_task_retries``) and a **replacement
  worker is spawned** (bounded by ``max_respawns``); only when a task's
  retry budget is exhausted does its future receive
  :class:`~repro.errors.WorkerCrashedError`.
* With ``task_timeout`` set, a watchdog terminates any worker whose task
  exceeds the soft deadline — a silent hang becomes a retryable timeout
  through the same requeue path.
* When the respawn budget runs out the pool flags itself ``degraded``
  and fails queued futures fast instead of hanging their waiters; the
  fetcher reads that flag to downgrade ``processes → threads``.

Every crash, requeue, respawn, and timeout lands in the shared metrics
registry (``pool.worker_crashes`` etc.) and, when tracing, as trace
instants — visible in ``--profile`` and ``--trace`` output.

Start method: ``fork`` where available (Linux — chunk sources registered
in the parent are inherited copy-on-write), ``spawn`` otherwise; pass an
explicit ``multiprocessing`` context to override.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import queue
import threading
import time
from concurrent.futures import Future
from multiprocessing import connection

from .. import faults
from ..errors import UsageError, WorkerCrashedError
from ..telemetry import Telemetry
from .thread_pool import PRIORITY_PREFETCH

__all__ = ["ProcessPool"]


def _worker_main(conn) -> None:
    """Child-side loop: receive (task_id, function, args, kwargs), reply.

    Replies are ``(task_id, ok, value_or_error, run_seconds)``. Exceptions
    are shipped back as objects when picklable, otherwise downgraded to a
    descriptive :class:`UsageError` so the parent always gets *an* answer.
    """
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return
        if item is None:
            conn.close()
            return
        task_id, function, args, kwargs = item
        started = time.perf_counter()
        try:
            faults.fire("worker.task")  # chaos hook (no-op normally)
            value = function(*args, **kwargs)
            message = (task_id, True, value, time.perf_counter() - started)
        except BaseException as error:  # ship the failure to the waiter
            message = (task_id, False, error, time.perf_counter() - started)
        try:
            conn.send(message)
        except (TypeError, ValueError, AttributeError) as pickle_error:
            conn.send(
                (
                    task_id,
                    False,
                    UsageError(
                        f"task result could not be pickled back to the "
                        f"parent: {pickle_error}"
                    ),
                    time.perf_counter() - started,
                )
            )


class _Worker:
    """Parent-side handle for one worker process."""

    __slots__ = ("process", "conn", "name", "current", "terminated")

    def __init__(self, process, conn, name):
        self.process = process
        self.conn = conn
        self.name = name
        self.current = None  # in-flight _TaskRecord, None when idle
        self.terminated = False  # watchdog already sent SIGTERM


class _TaskRecord:
    __slots__ = (
        "task_id", "future", "priority", "submitted", "dispatched",
        "function", "args", "kwargs", "attempts", "started",
    )

    def __init__(self, task_id, future, priority, submitted,
                 function, args, kwargs):
        self.task_id = task_id
        self.future = future
        self.priority = priority
        self.submitted = submitted
        self.dispatched = None
        self.function = function
        self.args = args
        self.kwargs = kwargs
        self.attempts = 0  # failed executions so far
        self.started = False  # future moved to RUNNING


class ProcessPool:
    """Fixed-size priority pool executing picklable tasks in processes.

    API-compatible with :class:`ThreadPool`: ``submit()`` returns a
    :class:`concurrent.futures.Future`, priorities order queued work, and
    ``statistics()`` exposes the same keys, so the fetcher and the profile
    report work against either backend unchanged.

    ``task_timeout`` arms the stall watchdog (seconds per task attempt).
    ``max_task_retries`` bounds requeues per task after worker crashes or
    watchdog kills; ``max_respawns`` (default ``2 * size``) bounds
    replacement workers over the pool's lifetime.
    """

    def __init__(self, size: int, name: str = "repro-worker", telemetry=None,
                 context=None, task_timeout: float = None,
                 max_task_retries: int = 2, max_respawns: int = None):
        if size < 1:
            raise UsageError("process pool needs at least one worker")
        if task_timeout is not None and task_timeout <= 0:
            raise UsageError("task_timeout must be positive (or None)")
        self.size = size
        self._name = name
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        self._task_timeout = task_timeout
        self._max_task_retries = max_task_retries
        self._max_respawns = max_respawns if max_respawns is not None else 2 * size
        if context is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
        self._context = context
        self.start_method = context.get_start_method()
        self._queue: queue.PriorityQueue = queue.PriorityQueue()
        self._sequence = itertools.count()  # FIFO tie-breaker per priority
        self._task_ids = itertools.count()
        self._worker_index = itertools.count(size)
        self._shutdown = False
        self._degraded = False
        self._respawns = 0
        self._drained = threading.Event()
        self._lock = threading.Lock()
        self._started_at = time.perf_counter()
        self.tasks_submitted = 0
        self.tasks_completed = 0
        self.tasks_cancelled = 0
        self._tasks_dispatched = 0
        self._queued_records: dict = {}  # task_id -> undispatched _TaskRecord
        self._busy_seconds: dict = {}
        metrics = self._telemetry.metrics
        self._queue_wait = metrics.histogram("pool.queue_wait_seconds")
        self._task_time = metrics.histogram("pool.task_seconds")
        self._worker_crashes = metrics.counter("pool.worker_crashes")
        self._worker_respawns = metrics.counter("pool.worker_respawns")
        self._tasks_requeued = metrics.counter("pool.tasks_requeued")
        self._task_timeouts = metrics.counter("pool.task_timeouts")
        metrics.probe("pool.queued", lambda: self.queued)
        metrics.probe("pool.tasks_submitted", lambda: self.tasks_submitted)
        metrics.probe("pool.tasks_completed", lambda: self.tasks_completed)
        metrics.probe("pool.tasks_cancelled", lambda: self.tasks_cancelled)

        self._workers: list = []
        self._all_processes: list = []  # every process ever spawned (reaping)
        for _ in range(size):
            self._workers.append(self._spawn_worker())

        # Dispatcher wakeup pipe: submit()/shutdown() nudge the loop.
        self._wakeup_read, self._wakeup_write = os.pipe()
        os.set_blocking(self._wakeup_read, False)
        os.set_blocking(self._wakeup_write, False)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name=f"{name}-dispatch", daemon=True
        )
        self._dispatcher.start()

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"{self._name}-{next(self._worker_index)}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # parent keeps only its end
        self._all_processes.append(process)
        worker = _Worker(process, parent_conn, process.name)
        recorder = self._telemetry.recorder
        if recorder.enabled:
            recorder.set_thread_name(worker.name, tid=process.pid)
        return worker

    # -- submission --------------------------------------------------------------

    def submit(self, function, /, *args, priority: int = PRIORITY_PREFETCH,
               **kwargs) -> Future:
        """Queue ``function(*args, **kwargs)``; lower priority runs first.

        ``function`` must be a module-level callable and all arguments
        picklable — they are shipped to a worker process by value.
        """
        with self._lock:
            if self._shutdown:
                raise UsageError("submit on a shut-down ProcessPool")
            self.tasks_submitted += 1
        future: Future = Future()
        record = _TaskRecord(
            next(self._task_ids), future, priority, time.perf_counter(),
            function, args, kwargs,
        )
        with self._lock:
            self._queued_records[record.task_id] = record
        self._queue.put((priority, next(self._sequence), record))
        self._wake()
        return future

    def shed(self, min_priority: int = PRIORITY_PREFETCH) -> int:
        """Cancel still-queued tasks at ``min_priority`` or lower urgency.

        Mirrors :meth:`ThreadPool.shed`: the memory governor's
        load-shedding hook. Cancelled futures stay in the priority queue
        and are discarded (never dispatched) when the dispatcher pops
        them. Dispatched and requeued-after-crash tasks are never shed.
        Returns the number of tasks newly cancelled.
        """
        with self._lock:
            queued = [
                record for record in self._queued_records.values()
                if record.priority >= min_priority
            ]
        shed = 0
        for record in queued:
            if record.future.cancel():
                shed += 1
        if shed:
            self._wake()  # let the dispatcher reap the cancelled entries
        return shed

    def _wake(self) -> None:
        try:
            os.write(self._wakeup_write, b"\0")
        except (BlockingIOError, OSError):
            pass  # pipe full or already closed: the loop is awake anyway

    # -- dispatcher --------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        workers = list(self._workers)
        try:
            while True:
                self._fill_idle_workers(workers)
                with self._lock:
                    stopping = self._shutdown
                busy = [w for w in workers if w.current is not None]
                if stopping and not busy and self._queue.empty():
                    break
                if not workers:
                    # Respawn budget exhausted (or stopping): fail queued
                    # futures instead of hanging their waiters.
                    self._fail_all_queued()
                    with self._lock:
                        if self._shutdown:
                            break
                    connection.wait([self._wakeup_read], timeout=0.5)
                    self._drain_wakeups()
                    continue
                ready = connection.wait(
                    [w.conn for w in workers] + [self._wakeup_read],
                    timeout=self._watchdog_timeout(workers),
                )
                if self._wakeup_read in ready:
                    self._drain_wakeups()
                for worker in [w for w in workers if w.conn in ready]:
                    if not self._collect(worker):
                        workers.remove(worker)
                        replacement = self._respawn()
                        if replacement is not None:
                            workers.append(replacement)
                self._expire_stalled(workers)
        finally:
            self._stop_workers(workers)
            self._drained.set()

    def _drain_wakeups(self) -> None:
        while True:
            try:
                if not os.read(self._wakeup_read, 4096):
                    return
            except (BlockingIOError, OSError):
                return

    def _watchdog_timeout(self, workers):
        """Seconds until the earliest in-flight task deadline, or None."""
        if self._task_timeout is None:
            return None
        deadlines = [
            w.current.dispatched + self._task_timeout
            for w in workers
            if w.current is not None and not w.terminated
        ]
        if not deadlines:
            return None
        return max(min(deadlines) - time.perf_counter(), 0.0)

    def _expire_stalled(self, workers) -> None:
        """Terminate workers whose task blew the soft deadline.

        Termination closes the worker's pipe, so the normal crash path
        (requeue + respawn) picks the task up on the next loop pass —
        a hang is just a crash the watchdog had to force.
        """
        if self._task_timeout is None:
            return
        now = time.perf_counter()
        for worker in workers:
            record = worker.current
            if (
                record is None
                or worker.terminated
                or now - record.dispatched < self._task_timeout
            ):
                continue
            self._task_timeouts.increment()
            recorder = self._telemetry.recorder
            if recorder.enabled:
                recorder.instant(
                    "pool.task_timeout", worker=worker.name,
                    task_id=record.task_id,
                    timeout_seconds=self._task_timeout,
                )
            worker.terminated = True
            worker.process.terminate()

    def _fill_idle_workers(self, workers) -> None:
        """Hand the highest-priority queued tasks to idle workers."""
        idle = [w for w in workers if w.current is None]
        while idle:
            try:
                _priority, _seq, record = self._queue.get_nowait()
            except queue.Empty:
                return
            with self._lock:
                self._queued_records.pop(record.task_id, None)
            if not record.started:
                if not record.future.set_running_or_notify_cancel():
                    with self._lock:
                        self.tasks_cancelled += 1
                    continue
                record.started = True
            first_dispatch = record.dispatched is None
            record.dispatched = time.perf_counter()
            if first_dispatch:
                self._queue_wait.observe(record.dispatched - record.submitted)
                recorder = self._telemetry.recorder
                if recorder.enabled:
                    recorder.complete(
                        "pool.queue_wait", record.submitted, record.dispatched,
                        priority=record.priority,
                    )
                with self._lock:
                    self._tasks_dispatched += 1
            worker = idle.pop()
            worker.current = record
            try:
                worker.conn.send(
                    (record.task_id, record.function, record.args,
                     record.kwargs)
                )
            except (pickle.PicklingError, ValueError, TypeError,
                    AttributeError) as error:
                # Pickling happens before any bytes hit the pipe, so the
                # worker is untouched and stays available.
                worker.current = None
                idle.append(worker)
                with self._lock:
                    self.tasks_completed += 1
                record.future.set_exception(
                    UsageError(f"task is not picklable: {error}")
                )
            except (BrokenPipeError, OSError):
                # Worker died between wait() and send(); requeue the task
                # now — the dead pipe is reaped on the next loop pass.
                worker.current = None
                self._finish_failed(
                    record,
                    f"worker {worker.name} died before accepting task "
                    f"{record.task_id}",
                )
                return

    def _collect(self, worker) -> bool:
        """Receive one message from ``worker``; False when it is gone."""
        try:
            task_id, ok, value, run_seconds = worker.conn.recv()
        except (EOFError, OSError):
            self._handle_crash(worker)
            return False
        record = worker.current
        worker.current = None
        if record is None or record.task_id != task_id:
            return True  # stale reply from a pre-crash requeue; drop it
        finished = time.perf_counter()
        self._task_time.observe(run_seconds)
        recorder = self._telemetry.recorder
        if recorder.enabled:
            recorder.complete(
                "pool.task", record.dispatched, finished,
                tid=worker.process.pid, priority=record.priority,
                run_seconds=run_seconds,
            )
        with self._lock:
            self.tasks_completed += 1
            self._busy_seconds[worker.name] = (
                self._busy_seconds.get(worker.name, 0.0) + run_seconds
            )
        if ok:
            record.future.set_result(value)
        else:
            record.future.set_exception(value)
        return True

    def _handle_crash(self, worker) -> None:
        worker.process.join(timeout=5.0)
        exit_code = worker.process.exitcode
        record = worker.current
        worker.current = None
        try:
            worker.conn.close()
        except OSError:
            pass
        self._worker_crashes.increment()
        recorder = self._telemetry.recorder
        if recorder.enabled:
            recorder.instant(
                "pool.worker_crash", worker=worker.name, exit_code=exit_code,
                watchdog=worker.terminated,
            )
        if record is not None:
            self._finish_failed(
                record,
                f"worker {worker.name} (pid {worker.process.pid}) died "
                f"with exit code {exit_code} while running task "
                f"{record.task_id}",
            )

    def _finish_failed(self, record, description: str) -> None:
        """Requeue a failed task, or fail its future once retries run out."""
        record.attempts += 1
        with self._lock:
            stopping = self._shutdown
        if record.attempts <= self._max_task_retries and not stopping:
            self._tasks_requeued.increment()
            recorder = self._telemetry.recorder
            if recorder.enabled:
                recorder.instant(
                    "pool.task_requeued", task_id=record.task_id,
                    attempt=record.attempts, reason=description,
                )
            self._queue.put((record.priority, next(self._sequence), record))
            return
        with self._lock:
            self.tasks_completed += 1
        record.future.set_exception(
            WorkerCrashedError(
                f"{description} (task failed {record.attempts} time(s); "
                f"retry budget exhausted)"
            )
        )

    def _respawn(self):
        """Spawn a replacement worker, or None when the budget is spent."""
        with self._lock:
            if self._shutdown:
                return None
            if self._respawns >= self._max_respawns:
                self._degraded = True
                return None
            self._respawns += 1
        replacement = self._spawn_worker()
        self._worker_respawns.increment()
        recorder = self._telemetry.recorder
        if recorder.enabled:
            recorder.instant(
                "pool.worker_respawn", worker=replacement.name,
                respawns=self._respawns,
            )
        return replacement

    def _fail_all_queued(self) -> None:
        while True:
            try:
                _priority, _seq, record = self._queue.get_nowait()
            except queue.Empty:
                return
            with self._lock:
                self._queued_records.pop(record.task_id, None)
            if not record.started and not record.future.set_running_or_notify_cancel():
                # Already cancelled (e.g. shed under memory pressure).
                with self._lock:
                    self.tasks_cancelled += 1
                continue
            with self._lock:
                self.tasks_completed += 1
            record.future.set_exception(
                WorkerCrashedError("all pool workers have died")
            )

    def _stop_workers(self, workers) -> None:
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    # -- lifecycle ---------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            already = self._shutdown
            self._shutdown = True
        if not already:
            self._wake()
        if wait:
            self._drained.wait()
            self._dispatcher.join(timeout=5.0)
            for fd in (self._wakeup_read, self._wakeup_write):
                try:
                    os.close(fd)
                except OSError:
                    pass
            # Reap every process ever spawned — including workers that
            # crashed or were watchdog-terminated mid-run — so shutdown
            # leaves no zombies behind.
            for process in self._all_processes:
                process.join(timeout=5.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)

    # -- introspection -----------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True once the respawn budget is spent — callers should stop
        relying on this pool (the fetcher downgrades its backend)."""
        with self._lock:
            return self._degraded

    @property
    def worker_processes(self) -> list:
        """Every worker process ever spawned (for reap assertions)."""
        return list(self._all_processes)

    @property
    def pending(self) -> int:
        """Tasks submitted but not yet finished (running or queued)."""
        with self._lock:
            return self.tasks_submitted - self.tasks_completed - self.tasks_cancelled

    @property
    def queued(self) -> int:
        """Tasks submitted but not yet handed to any worker."""
        with self._lock:
            return (
                self.tasks_submitted - self._tasks_dispatched
                - self.tasks_cancelled
            )

    def utilization(self) -> float:
        """Fraction of worker wall time spent running tasks so far."""
        elapsed = time.perf_counter() - self._started_at
        if elapsed <= 0:
            return 0.0
        with self._lock:
            busy = sum(self._busy_seconds.values())
        return min(busy / (elapsed * self.size), 1.0)

    def statistics(self) -> dict:
        """Plain-dict snapshot; same keys as :meth:`ThreadPool.statistics`."""
        elapsed = time.perf_counter() - self._started_at
        with self._lock:
            busy = dict(self._busy_seconds)
            submitted = self.tasks_submitted
            completed = self.tasks_completed
            cancelled = self.tasks_cancelled
            dispatched = self._tasks_dispatched
            respawns = self._respawns
            degraded = self._degraded
        return {
            "workers": self.size,
            "start_method": self.start_method,
            "tasks_submitted": submitted,
            "tasks_completed": completed,
            "tasks_cancelled": cancelled,
            "queued": submitted - dispatched - cancelled,
            "worker_busy_seconds": busy,
            "elapsed_seconds": elapsed,
            "utilization": min(sum(busy.values()) / (elapsed * self.size), 1.0)
            if elapsed > 0 else 0.0,
            "worker_crashes": self._worker_crashes.value,
            "worker_respawns": respawns,
            "tasks_requeued": self._tasks_requeued.value,
            "task_timeouts": self._task_timeouts.value,
            "degraded": degraded,
        }

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

"""Campaign task execution: serial or process pool.

The campaign drivers express work as a list of picklable *task descriptors*
plus a module-level worker function; the executor runs them and returns the
per-task results in task order.  Two implementations:

* :class:`SerialExecutor` — in-process loop.  Zero overhead, exact same
  code path as pool workers, the default everywhere (the batched
  replayer already saturates one core with vectorised NumPy).
* :class:`ProcessPoolCampaignExecutor` — ``concurrent.futures`` process
  pool.  Each worker runs an initializer once before any task, so tasks
  carry only index arrays and results carry only reduced arrays (outcome
  grids, aggregator partials), never multi-megabyte traces.

Pool workers start by ``fork`` while the calling process runs one thread
and from a ``forkserver`` otherwise (:func:`pool_start_method`).  A
forked worker inherits the parent's memory, campaign workload and replay
plan included, so its initializer receives them without any pickling;
but it also inherits every lock that another thread held at the fork,
and nothing in the child will ever release it.  Workers the forkserver
starts share no such state: their initargs are pickled, so each one
unpickles its own copy of the campaign workload.

Both executors expose two consumption styles:

* :meth:`run` — materialise all results in task order;
* :meth:`run_stream` — yield ``(task_index, result)`` pairs as tasks
  complete.  Campaign merges are commutative, so drivers consume streams
  for accurate progress and re-order by index only where layout matters.

Result merging stays with the campaign driver: outcome grids concatenate,
Algorithm 1 partials merge by per-site max (a commutative, associative
reduction, so any completion order is fine).

The fault-tolerant wrapper (retries, timeouts, pool-crash recovery) lives
in :mod:`repro.parallel.resilience`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from typing import Any, Callable, Iterator, Protocol, Sequence

from ..obs.metrics import absorb_result, inc as _inc, wrap_task

__all__ = [
    "CampaignExecutor",
    "ProcessPoolCampaignExecutor",
    "SerialExecutor",
    "default_workers",
    "pool_start_method",
]

#: Modules the forkserver imports once, so every worker it starts begins
#: with the campaign code loaded.
FORKSERVER_PRELOAD = ("repro.core.campaign",)

#: Bound on :meth:`ProcessPoolCampaignExecutor.kill`'s wait for the pool's
#: manager thread; it exits within milliseconds of its workers dying.
KILL_JOIN_S = 5.0


def pool_start_method() -> str:
    """How to start pool workers: ``fork`` or ``forkserver``.

    ``fork`` while this process runs one thread: nothing can hold a lock
    at the fork, and workers inherit the parent's state for free.
    ``forkserver`` otherwise (a threaded server, an embedding
    application): a forked worker could inherit a lock another thread
    held, such as the replay-plan lock or the metrics registry lock, and
    block on it forever.
    """
    return "fork" if threading.active_count() == 1 else "forkserver"


def default_workers() -> int:
    """Worker count leaving one core for the parent process."""
    return max(1, (os.cpu_count() or 2) - 1)


class CampaignExecutor(Protocol):
    """Runs ``fn(task)`` for every task, preserving task order of results."""

    def run(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        ...

    def run_stream(self, fn: Callable[[Any], Any],
                   tasks: Sequence[Any]) -> Iterator[tuple[int, Any]]:
        ...

    def shutdown(self) -> None:
        ...


class SerialExecutor:
    """In-process execution; reference implementation and default."""

    def __init__(self, initializer: Callable[..., None] | None = None,
                 initargs: tuple = ()):  # noqa: D401 - mirror pool signature
        if initializer is not None:
            initializer(*initargs)

    def run(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        _inc("executor.tasks_dispatched", len(tasks))
        results = [fn(task) for task in tasks]
        _inc("executor.tasks_completed", len(tasks))
        return results

    def run_stream(self, fn: Callable[[Any], Any],
                   tasks: Sequence[Any]) -> Iterator[tuple[int, Any]]:
        for i, task in enumerate(tasks):
            _inc("executor.tasks_dispatched")
            result = fn(task)
            _inc("executor.tasks_completed")
            yield i, result

    def shutdown(self) -> None:  # nothing to release
        return None


class ProcessPoolCampaignExecutor:
    """Process-pool execution with per-worker workload initialisation.

    Parameters
    ----------
    initializer / initargs:
        Run once in every worker before any task (points the campaign's
        module globals at its workload; see ``repro.core.campaign``).
        Under ``fork`` the workers receive them unpickled; under
        ``forkserver`` they must pickle.
    n_workers:
        Pool size; defaults to ``cpu_count - 1``.
    chunksize:
        Tasks dispatched per IPC round-trip (``run`` only; streaming
        submits tasks individually).

    The workers' start method is :func:`pool_start_method` evaluated at
    construction; :attr:`start_method` records it.
    """

    def __init__(
        self,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        n_workers: int | None = None,
        chunksize: int = 1,
    ):
        if n_workers is not None and n_workers < 1:
            raise ValueError("need at least one worker")
        if chunksize < 1:
            raise ValueError("chunksize must be at least 1")
        self.n_workers = n_workers or default_workers()
        self.chunksize = chunksize
        self.start_method = pool_start_method()
        context = multiprocessing.get_context(self.start_method)
        if self.start_method == "forkserver":
            context.set_forkserver_preload(list(FORKSERVER_PRELOAD))
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=context,
            initializer=initializer,
            initargs=initargs,
        )
        self._shut = False

    def run(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        _inc("executor.tasks_dispatched", len(tasks))
        results = [absorb_result(res) for res in
                   self._pool.map(wrap_task(fn), tasks,
                                  chunksize=self.chunksize)]
        _inc("executor.tasks_completed", len(tasks))
        return results

    def run_stream(self, fn: Callable[[Any], Any],
                   tasks: Sequence[Any]) -> Iterator[tuple[int, Any]]:
        """Yield ``(task_index, result)`` in completion order."""
        wrapped = wrap_task(fn)
        futures = {}
        for i, task in enumerate(tasks):
            _inc("executor.tasks_dispatched")
            futures[self._pool.submit(wrapped, task)] = i
        for fut in as_completed(futures):
            result = absorb_result(fut.result())
            _inc("executor.tasks_completed")
            yield futures[fut], result

    def submit(self, fn: Callable[[Any], Any], task: Any) -> Future:
        """Submit one task; raises ``BrokenProcessPool`` on a dead pool.

        When the driver's metrics registry is enabled the task function is
        wrapped for worker-side metric capture, so callers consuming the
        future directly must pass its result through
        :func:`repro.obs.metrics.absorb_result` (the resilient executor
        does).
        """
        _inc("executor.tasks_dispatched")
        return self._pool.submit(wrap_task(fn), task)

    def shutdown(self) -> None:
        """Release the pool.  Idempotent, and safe on a broken pool."""
        if self._shut:
            return
        self._shut = True
        self._pool.shutdown(wait=True)

    def kill(self) -> None:
        """Best-effort immediate teardown: drop queued work, terminate workers.

        Used by the resilience layer to reclaim a pool with a hung worker
        (a plain ``shutdown`` would block on the stuck task forever).
        Waits up to :data:`KILL_JOIN_S` for the pool's manager thread to
        notice the dead workers and exit, so a pool built next in a
        one-thread process forks again.  Idempotent; the executor is
        unusable afterwards.
        """
        if self._shut:
            return
        self._shut = True
        processes = getattr(self._pool, "_processes", None) or {}
        procs = [processes[pid] for pid in list(processes)]
        manager = getattr(self._pool, "_executor_manager_thread", None)
        self._pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        if manager is not None:
            manager.join(timeout=KILL_JOIN_S)

    def __enter__(self) -> "ProcessPoolCampaignExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

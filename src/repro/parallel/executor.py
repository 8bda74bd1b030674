"""Campaign task execution: serial or process pool.

The campaign drivers express work as a list of picklable *task descriptors*
plus a module-level worker function; the executor runs them and returns the
per-task results.  Two implementations:

* :class:`SerialExecutor` — in-process loop.  Zero overhead, exact same
  code path as pool workers, and no recovery: it is the reference every
  other plane must match bit for bit.
* :class:`ProcessPoolCampaignExecutor` — ``concurrent.futures`` process
  pool under the retry loop of :mod:`repro.parallel.resilience` (retries,
  deadlines, crash recovery, serial degradation).  Each worker runs an
  initializer once before any task, so tasks carry only index arrays and
  results carry only reduced arrays (outcome grids, aggregator partials),
  never multi-megabyte traces.

Pool workers start by ``fork`` while the calling process runs one thread
and from a ``forkserver`` otherwise (:func:`pool_start_method`).  A
forked worker inherits the parent's memory, campaign workload and replay
plan included, so its initializer receives them without any pickling;
but it also inherits every lock that another thread held at the fork,
and nothing in the child will ever release it.  Workers the forkserver
starts share no such state: their initargs are pickled, so each one
unpickles its own copy of the campaign workload.

Every executor exposes two consumption styles (:class:`CampaignExecutor`):

* :meth:`~CampaignExecutor.run_stream` — yield ``(task_index, result)``
  pairs as tasks complete.  Campaign merges are commutative, so drivers
  consume streams for accurate progress and re-order by index only where
  layout matters;
* :meth:`~CampaignExecutor.run` — the stream collected into task order.

Result merging stays with the campaign driver: outcome grids concatenate,
Algorithm 1 partials merge by per-site max (a commutative, associative
reduction, so any completion order is fine).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, \
    wait
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Any, Callable, Iterator, Sequence

from ..obs.metrics import absorb_result, inc as _inc, wrap_task
from .resilience import (
    DONE,
    FAILED,
    LOST,
    CampaignHealth,
    RetryPolicy,
    TaskTimeout,
    WorkerDeath,
    run_with_retries,
)

__all__ = [
    "CampaignExecutor",
    "ProcessPoolCampaignExecutor",
    "SerialExecutor",
    "default_workers",
    "pool_start_method",
    "process_pool",
]

#: Modules the forkserver imports once, so every worker it starts begins
#: with the campaign code loaded.
FORKSERVER_PRELOAD = ("repro.core.campaign",)

#: Bound on :meth:`ProcessPoolCampaignExecutor.kill`'s wait for the pool's
#: manager thread; it exits within milliseconds of its workers dying.
KILL_JOIN_S = 5.0

#: In-flight tasks per pool worker.  One leaves a worker idle while the
#: campaign thread absorbs a result and submits the next task; the queued
#: second one starts at once.
WINDOW_PER_WORKER = 2

_DIED = "worker process died while the task was in flight"


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


def process_pool(n_workers: int,
                 initializer: Callable[..., None] | None = None,
                 initargs: tuple = ()) -> ProcessPoolExecutor:
    """A ``concurrent.futures`` pool whose workers start by
    :func:`pool_start_method`, evaluated now."""
    method = pool_start_method()
    context = multiprocessing.get_context(method)
    if method == "forkserver":
        context.set_forkserver_preload(list(FORKSERVER_PRELOAD))
    return ProcessPoolExecutor(max_workers=n_workers, mp_context=context,
                               initializer=initializer, initargs=initargs)


class CampaignExecutor:
    """Runs ``fn(task)`` for every task (see module doc).

    Subclasses define :meth:`run_stream`; :meth:`shutdown` releases what
    they hold and is idempotent.
    """

    def run(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        """Every task's result, in task order."""
        results: list[Any] = [None] * len(tasks)
        for index, result in self.run_stream(fn, tasks):
            results[index] = result
        return results

    def run_stream(self, fn: Callable[[Any], Any],
                   tasks: Sequence[Any]) -> Iterator[tuple[int, Any]]:
        """Yield ``(task_index, result)`` as tasks complete."""
        raise NotImplementedError

    def shutdown(self) -> None:
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class SerialExecutor(CampaignExecutor):
    """In-process execution; reference implementation and default."""

    def __init__(self, initializer: Callable[..., None] | None = None,
                 initargs: tuple = ()):  # noqa: D401 - mirror pool signature
        if initializer is not None:
            initializer(*initargs)

    def run_stream(self, fn: Callable[[Any], Any],
                   tasks: Sequence[Any]) -> Iterator[tuple[int, Any]]:
        for i, task in enumerate(tasks):
            _inc("executor.tasks_dispatched")
            result = fn(task)
            _inc("executor.tasks_completed")
            yield i, result


class ProcessPoolCampaignExecutor(CampaignExecutor):
    """A process pool under the retry loop, with per-worker workload
    initialisation.

    Parameters
    ----------
    initializer / initargs:
        Run once in every worker before any task (points the worker's
        state at its campaign's workload; see ``repro.core.campaign``),
        and in this process before a serial drain.  Under ``fork`` the
        workers receive them unpickled; under ``forkserver`` they must
        pickle.
    n_workers:
        Pool size; defaults to ``cpu_count - 1``.
    policy:
        The :class:`~repro.parallel.resilience.RetryPolicy`; ``None``
        means ``RetryPolicy()``.
    pool_factory:
        Zero-argument callable building each pool; defaults to
        :func:`process_pool` over ``initializer`` / ``initargs``.

    The pool is built on the first submit and rebuilt after a worker
    death or a hung task (:attr:`~RetryPolicy.max_pool_rebuilds` times,
    then the rest drains serially).  Every build reads
    :func:`pool_start_method` afresh; :attr:`start_method` records the
    latest.  :attr:`health` accumulates across streams.
    """

    lost = WorkerDeath
    expired = TaskTimeout

    def __init__(
        self,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        n_workers: int | None = None,
        policy: RetryPolicy | None = None,
        pool_factory: Callable[[], ProcessPoolExecutor] | None = None,
    ):
        if n_workers is not None and n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers or default_workers()
        self.policy = policy or RetryPolicy()
        self.health = CampaignHealth()
        self.window = WINDOW_PER_WORKER * self.n_workers
        self.concurrency = self.n_workers
        self.deadline_s = self.policy.task_timeout
        self.start_method = pool_start_method()
        self._initializer = initializer
        self._initargs = initargs
        self._factory = pool_factory or partial(
            process_pool, self.n_workers, initializer, initargs)
        self._pool: ProcessPoolExecutor | None = None
        self._broken = False

    def run_stream(self, fn: Callable[[Any], Any],
                   tasks: Sequence[Any]) -> Iterator[tuple[int, Any]]:
        """Yield ``(task_index, result)`` in completion order.

        Raises the structured failure (:class:`TaskError`,
        :class:`TaskTimeout`, :class:`WorkerDeath`) of the first task
        whose retry budget runs out.
        """
        self._fn = wrap_task(fn)
        yield from run_with_retries(self, fn, list(tasks))

    def shutdown(self) -> None:
        """Release the pool once its running tasks finish; queued ones
        never start.  Idempotent, and safe on a broken pool."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def kill(self) -> None:
        """Best-effort immediate teardown: drop queued work, terminate workers.

        Reclaims a pool with a hung worker (a plain ``shutdown`` would
        block on the stuck task forever).  Waits up to
        :data:`KILL_JOIN_S` for the pool's manager thread to notice the
        dead workers and exit, so a pool built next in a one-thread
        process forks again.  Idempotent; the next submit builds a new
        pool.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        procs = [processes[pid] for pid in list(processes)]
        manager = getattr(pool, "_executor_manager_thread", None)
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        if manager is not None:
            manager.join(timeout=KILL_JOIN_S)

    # ------------------------------------------- the retry loop's plane

    def _broke(self) -> None:
        if not self._broken:
            self._broken = True
            self.health.worker_deaths += 1
            _inc("resilience.worker_deaths")

    def _submit(self, index: int, task: Any) -> Future | None:
        try:
            if self._pool is None:
                self.start_method = pool_start_method()
                self._pool = self._factory()
            fut = self._pool.submit(self._fn, task)
        except BrokenProcessPool:
            self._broke()
            return None
        _inc("executor.tasks_dispatched")
        return fut

    def _collect(self, inflight, timeout) -> list[tuple]:
        if self._broken:  # a submit found the pool broken
            return [(LOST, list(inflight), _DIED)]
        if not inflight:  # every task is serving its backoff
            time.sleep(timeout or 0.0)
            return []
        done, _ = wait(inflight, timeout=timeout, return_when=FIRST_COMPLETED)
        events = []
        for fut in done:
            try:
                result = fut.result()
            except BrokenProcessPool:
                self._broke()
            except Exception as exc:
                events.append((FAILED, fut, repr(exc), exc))
            else:
                _inc("executor.tasks_completed")
                events.append((DONE, fut, inflight[fut].index,
                               absorb_result(result)))
        if self._broken:
            events.append((LOST, list(inflight), _DIED))
        return events

    def _expire(self, handles) -> bool:
        """A hung worker cannot be reclaimed: the pool goes, and every
        task in it with it."""
        self.health.timeouts += len(handles)
        _inc("resilience.timeouts", len(handles))
        self.kill()
        self._broken = True
        return True

    def _release(self, handles) -> None:
        for fut in handles:
            fut.cancel()

    def _stalled(self, idle: bool) -> bool:
        """Rebuild a broken pool, or stall once rebuilds run out."""
        if self._broken:
            self.kill()
            self._broken = False
            if self.health.pool_rebuilds >= self.policy.max_pool_rebuilds:
                return True
            self.health.pool_rebuilds += 1
            _inc("resilience.pool_rebuilds")
        return self.health.degraded_to_serial  # stays serial once drained

    def _go_serial(self, pending: int) -> None:
        if self._initializer is not None:
            self._initializer(*self._initargs)


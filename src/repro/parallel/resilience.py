"""Fault-tolerant campaign execution.

Exhaustive fault-injection campaigns are the dominant cost of the method
(the paper rules out the "billions or trillions of runs" of native
exhaustive injection, §4.1); the campaign harness itself must therefore
survive the failures a long run will see.  :class:`ResilientExecutor`
wraps :class:`~repro.parallel.executor.ProcessPoolCampaignExecutor` with:

* **per-task retry** — campaign tasks are pure functions of their
  descriptor (index arrays in, reduced arrays out), so re-running a failed
  task is always safe.  Attempts are bounded by
  :attr:`RetryPolicy.max_retries`.
* **per-task wall-clock timeouts** — the in-flight window never exceeds
  the worker count, so a submitted task starts (almost) immediately and
  its deadline measures actual execution.  A task still running past its
  deadline is presumed hung; the pool is torn down (workers terminated)
  and every in-flight task requeued.
* **worker-crash recovery** — a worker death (OOM kill, segfault,
  ``SIGKILL``) breaks the whole ``concurrent.futures`` pool.  The pool is
  rebuilt (bounded by :attr:`RetryPolicy.max_pool_rebuilds`) and in-flight
  tasks are requeued with their attempt counts bumped, so a poison task
  that reliably kills its worker cannot loop forever.
* **graceful degradation** — once pool rebuilds are exhausted the
  remaining tasks drain through a
  :class:`~repro.parallel.executor.SerialExecutor` in the parent process
  (still honouring retry bounds; timeouts cannot be enforced in-process).

Failures carry a structured taxonomy — :class:`TaskError` (the task
raised), :class:`TaskTimeout` (deadline exceeded), :class:`WorkerDeath`
(crashed worker) — and every run accumulates a :class:`CampaignHealth`
record that campaign drivers surface on their results.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterator, Sequence

from ..obs.metrics import absorb_result, inc as _inc
from .executor import (
    ProcessPoolCampaignExecutor,
    SerialExecutor,
    default_workers,
)

__all__ = [
    "CampaignExecutionError",
    "CampaignHealth",
    "LeaseExpired",
    "NodeDeath",
    "ResilientExecutor",
    "RetryPolicy",
    "TaskError",
    "TaskTimeout",
    "WorkerDeath",
]


# --------------------------------------------------------------- taxonomy


class CampaignExecutionError(RuntimeError):
    """A campaign task failed permanently (its retry budget ran out).

    Attributes
    ----------
    task_index:
        Position of the task in the submitted sequence.
    attempts:
        Number of attempts made (first run + retries).
    """

    def __init__(self, task_index: int, attempts: int, detail: str = ""):
        self.task_index = task_index
        self.attempts = attempts
        message = (f"task {task_index} failed after {attempts} "
                   f"attempt{'s' if attempts != 1 else ''}")
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class TaskError(CampaignExecutionError):
    """The task function raised an exception (chained as ``__cause__``)."""


class TaskTimeout(CampaignExecutionError):
    """The task exceeded its per-attempt wall-clock deadline."""


class WorkerDeath(CampaignExecutionError):
    """The task was in flight every time a worker process died."""


class NodeDeath(CampaignExecutionError):
    """The task was in flight every time a campaign *node* died.

    The multi-node analogue of :class:`WorkerDeath`: raised by the
    distributed plane (:mod:`repro.dist`) when a task's retry budget is
    consumed entirely by worker-node losses (missed heartbeats, dropped
    connections, SIGKILL)."""


class LeaseExpired(CampaignExecutionError):
    """Every lease granted for the task outlived its deadline.

    Raised by the distributed plane when a chunk lease repeatedly expires
    on live-but-unresponsive nodes — the multi-node analogue of
    :class:`TaskTimeout`."""


# ----------------------------------------------------------------- policy


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds on the resilience layer's recovery behaviour.

    Attributes
    ----------
    max_retries:
        Re-runs allowed per task after its first attempt.  A task is in
        flight during a pool crash counts an attempt too, bounding poison
        tasks.
    task_timeout:
        Per-attempt wall-clock deadline in seconds; ``None`` disables
        timeout enforcement.
    max_pool_rebuilds:
        Pool reconstructions allowed (worker crash or hung-task teardown)
        before degrading to serial execution.
    poll_interval:
        Seconds between deadline sweeps while any timeout is armed.
    backoff_base:
        First-retry delay in seconds.  ``0`` (the default) retries
        immediately; a positive base delays the *n*-th retry of a task by
        ``backoff_base * 2**(n-1)`` seconds (capped at
        :attr:`backoff_max`) with half-to-full jitter, so a burst of
        correlated failures — a flaky filesystem, an overloaded node —
        does not turn into a synchronized retry storm.
    backoff_max:
        Cap on any single backoff delay in seconds.
    """

    max_retries: int = 2
    task_timeout: float | None = None
    max_pool_rebuilds: int = 1
    poll_interval: float = 0.05
    backoff_base: float = 0.0
    backoff_max: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive")
        if self.max_pool_rebuilds < 0:
            raise ValueError("max_pool_rebuilds must be non-negative")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        if self.backoff_max <= 0:
            raise ValueError("backoff_max must be positive")

    def backoff_delay(self, attempts: int,
                      rng: random.Random | None = None) -> float:
        """Seconds to wait before re-running a task's ``attempts``-th try.

        Exponential in the retry count, capped at :attr:`backoff_max`,
        with half-to-full jitter (a uniform factor in ``[0.5, 1.0]``).
        Returns ``0.0`` when backoff is disabled or this is the first
        attempt.
        """
        if self.backoff_base <= 0 or attempts <= 0:
            return 0.0
        delay = min(self.backoff_base * (2.0 ** (attempts - 1)),
                    self.backoff_max)
        jitter = (rng.uniform(0.5, 1.0) if rng is not None
                  else random.uniform(0.5, 1.0))
        return delay * jitter


@dataclass
class CampaignHealth:
    """What the resilience layer had to do to finish a campaign.

    Attributes
    ----------
    attempts:
        Task submissions, including retries (equals the task count on a
        failure-free run).
    retries:
        Re-submissions of previously attempted tasks.
    task_errors:
        Attempts that ended in the task raising.
    timeouts:
        Attempts abandoned for exceeding the wall-clock deadline.
    worker_deaths:
        Pool-breaking worker crashes observed.
    pool_rebuilds:
        Process pools rebuilt after a crash or hung-task teardown.
    node_deaths:
        Worker *nodes* lost by the distributed plane (missed heartbeats
        or dropped connections; :mod:`repro.dist`).
    lease_expiries:
        Chunk leases that outlived their deadline on a live node and were
        reassigned.
    degraded_to_serial:
        Whether the run finished on the in-process serial fallback (for
        distributed runs: on the coordinator-local fallback, because no
        nodes were available).
    """

    attempts: int = 0
    retries: int = 0
    task_errors: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    pool_rebuilds: int = 0
    node_deaths: int = 0
    lease_expiries: int = 0
    degraded_to_serial: bool = False

    @property
    def clean(self) -> bool:
        """True when no recovery action was needed."""
        return not (self.retries or self.task_errors or self.timeouts
                    or self.worker_deaths or self.pool_rebuilds
                    or self.node_deaths or self.lease_expiries
                    or self.degraded_to_serial)

    def merged_with(self, other: "CampaignHealth | None") -> "CampaignHealth":
        """Combine records of successive phases of one campaign."""
        if other is None:
            return CampaignHealth(**{f.name: getattr(self, f.name)
                                     for f in fields(self)})
        merged = CampaignHealth()
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(merged, f.name,
                    (mine or theirs) if f.type == "bool" else mine + theirs)
        return merged

    def summary(self) -> str:
        """One-line report for CLI output and logs."""
        parts = [f"attempts={self.attempts}", f"retries={self.retries}"]
        if self.task_errors:
            parts.append(f"task_errors={self.task_errors}")
        if self.timeouts:
            parts.append(f"timeouts={self.timeouts}")
        if self.worker_deaths:
            parts.append(f"worker_deaths={self.worker_deaths}")
        if self.pool_rebuilds:
            parts.append(f"pool_rebuilds={self.pool_rebuilds}")
        if self.node_deaths:
            parts.append(f"node_deaths={self.node_deaths}")
        if self.lease_expiries:
            parts.append(f"lease_expiries={self.lease_expiries}")
        if self.degraded_to_serial:
            parts.append("degraded_to_serial")
        return " ".join(parts)


# --------------------------------------------------------------- executor


class ResilientExecutor:
    """Fault-tolerant process-pool executor for campaign tasks.

    Drop-in :class:`~repro.parallel.executor.CampaignExecutor`: same
    ``run`` / ``run_stream`` / ``shutdown`` surface, plus a
    :attr:`health` record accumulated across runs.  Tasks must be pure
    (retries re-run them) and the worker function must be a module-level
    picklable callable, exactly as for the plain pool executor.

    ``initializer`` / ``initargs`` set up the serial fallback in this
    process, and the workers of every pool unless ``pool_factory`` (a
    zero-argument callable returning a
    :class:`~repro.parallel.executor.ProcessPoolCampaignExecutor`) builds
    the pools instead.  Each build, rebuilds included, is a new pool, so
    :func:`~repro.parallel.executor.pool_start_method` is applied afresh.
    """

    def __init__(
        self,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        n_workers: int | None = None,
        policy: RetryPolicy | None = None,
        pool_factory: Callable[[], ProcessPoolCampaignExecutor] | None = None,
    ):
        if n_workers is not None and n_workers < 1:
            raise ValueError("need at least one worker")
        self.n_workers = n_workers or default_workers()
        self.policy = policy or RetryPolicy()
        self.health = CampaignHealth()
        self._initializer = initializer
        self._initargs = initargs
        self._pool_factory = pool_factory or (
            lambda: ProcessPoolCampaignExecutor(
                initializer=initializer, initargs=initargs,
                n_workers=self.n_workers))
        self._pool: ProcessPoolCampaignExecutor | None = None
        self._serial: SerialExecutor | None = None
        self._shut = False
        self._rng = random.Random()  # backoff jitter source

    # ------------------------------------------------------------- public

    def run(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> list[Any]:
        results: list[Any] = [None] * len(tasks)
        for index, result in self.run_stream(fn, tasks):
            results[index] = result
        return results

    def run_stream(self, fn: Callable[[Any], Any],
                   tasks: Sequence[Any]) -> Iterator[tuple[int, Any]]:
        """Yield ``(task_index, result)`` in completion order.

        Raises the structured failure (:class:`TaskError`,
        :class:`TaskTimeout`, :class:`WorkerDeath`) of the first task whose
        retry budget runs out; the pool is shut down by the caller via
        :meth:`shutdown` as usual.
        """
        tasks = list(tasks)
        todo: deque[tuple[int, int]] = deque((i, 0) for i in range(len(tasks)))
        #: retries serving their backoff delay: heap of
        #: ``(eligible_at, index, attempts)``
        waiting: list[tuple[float, int, int]] = []
        inflight: dict[Future, tuple[int, int, float | None]] = {}

        while todo or inflight or waiting:
            self._promote_waiting(todo, waiting)
            if self._serial is not None:
                for index, attempts, _ in inflight.values():
                    todo.append((index, attempts))
                inflight.clear()
                for _, index, attempts in waiting:
                    todo.append((index, attempts))
                waiting.clear()
                while todo:
                    index, attempts = todo.popleft()
                    yield index, self._run_serial(fn, tasks[index], index,
                                                  attempts)
                return

            self._fill_window(fn, tasks, todo, waiting, inflight)
            if not inflight:  # submission broke the pool, or all retries
                if not todo and waiting:  # are backing off: sleep, retry
                    delay = max(0.0, waiting[0][0] - time.monotonic())
                    time.sleep(min(delay, self.policy.poll_interval))
                continue

            timeout = (self.policy.poll_interval
                       if self.policy.task_timeout is not None or waiting
                       else None)
            done, _ = wait(set(inflight), timeout=timeout,
                           return_when=FIRST_COMPLETED)

            broke = False
            for fut in done:
                index, attempts, _ = inflight.pop(fut)
                try:
                    result = fut.result()
                except BrokenProcessPool:
                    broke = True
                    self._requeue_crashed(todo, waiting, index, attempts)
                except CancelledError:
                    todo.append((index, attempts))
                except Exception as exc:
                    self.health.task_errors += 1
                    _inc("resilience.task_errors")
                    if attempts + 1 > self.policy.max_retries:
                        raise TaskError(index, attempts + 1,
                                        repr(exc)) from exc
                    self._backoff_requeue(todo, waiting, index, attempts + 1)
                else:
                    yield index, absorb_result(result)

            if broke:
                self.health.worker_deaths += 1
                _inc("resilience.worker_deaths")
                for index, attempts, _ in inflight.values():
                    self._requeue_crashed(todo, waiting, index, attempts)
                inflight.clear()
                self._recover_pool()
            elif self.policy.task_timeout is not None:
                self._sweep_deadlines(todo, waiting, inflight)

    def shutdown(self) -> None:
        """Release pool and fallback resources.  Idempotent."""
        if self._shut:
            return
        self._shut = True
        if self._pool is not None:
            self._pool.shutdown()
        if self._serial is not None:
            self._serial.shutdown()

    def __enter__(self) -> "ResilientExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ----------------------------------------------------------- plumbing

    def _ensure_pool(self) -> ProcessPoolCampaignExecutor:
        if self._pool is None:
            self._pool = self._pool_factory()
        return self._pool

    def _promote_waiting(self, todo, waiting) -> None:
        """Move backoff-expired retries back onto the ready queue."""
        now = time.monotonic()
        while waiting and waiting[0][0] <= now:
            _, index, attempts = heapq.heappop(waiting)
            todo.append((index, attempts))

    def _backoff_requeue(self, todo, waiting, index: int,
                         attempts: int) -> None:
        """Requeue a retry, honouring the policy's exponential backoff."""
        delay = self.policy.backoff_delay(attempts, self._rng)
        if delay > 0:
            heapq.heappush(waiting,
                           (time.monotonic() + delay, index, attempts))
        else:
            todo.append((index, attempts))

    def _fill_window(self, fn, tasks, todo, waiting, inflight) -> None:
        """Submit until the in-flight window matches the worker count.

        Capping in-flight tasks at the pool width keeps per-task deadlines
        honest (a submitted task is picked up immediately) and bounds the
        work lost to a pool crash.
        """
        while todo and len(inflight) < self.n_workers:
            index, attempts = todo.popleft()
            try:
                fut = self._ensure_pool().submit(fn, tasks[index])
            except BrokenProcessPool:
                todo.appendleft((index, attempts))
                self.health.worker_deaths += 1
                _inc("resilience.worker_deaths")
                for idx, att, _ in inflight.values():
                    self._requeue_crashed(todo, waiting, idx, att)
                inflight.clear()
                self._recover_pool()
                return
            self.health.attempts += 1
            if attempts:
                self.health.retries += 1
                _inc("resilience.retries")
            deadline = (time.monotonic() + self.policy.task_timeout
                        if self.policy.task_timeout is not None else None)
            inflight[fut] = (index, attempts, deadline)

    def _requeue_crashed(self, todo, waiting, index: int,
                         attempts: int) -> None:
        """Requeue a task that was in flight when the pool broke.

        Every in-flight task's attempt count is bumped: one of them is the
        potential poison task, and bounding all of them guarantees progress
        even when the culprit cannot be identified.
        """
        if attempts + 1 > self.policy.max_retries:
            raise WorkerDeath(index, attempts + 1,
                              "worker process died while the task was "
                              "in flight")
        self._backoff_requeue(todo, waiting, index, attempts + 1)

    def _sweep_deadlines(self, todo, waiting, inflight) -> None:
        """Abandon in-flight tasks that outlived their deadline."""
        now = time.monotonic()
        expired = [fut for fut, (_, _, deadline) in inflight.items()
                   if deadline is not None and now > deadline]
        if not expired:
            return
        hung = False
        for fut in expired:
            index, attempts, _ = inflight.pop(fut)
            self.health.timeouts += 1
            _inc("resilience.timeouts")
            if fut.cancel():
                # never started (pool was mid-rebuild); not the task's fault
                todo.append((index, attempts))
                continue
            hung = True
            if attempts + 1 > self.policy.max_retries:
                self._teardown_hung_pool(todo, inflight)
                raise TaskTimeout(
                    index, attempts + 1,
                    f"exceeded {self.policy.task_timeout:.3g}s wall-clock "
                    f"deadline")
            self._backoff_requeue(todo, waiting, index, attempts + 1)
        if hung:
            # A hung worker cannot be reclaimed: tear the pool down and
            # requeue the innocent in-flight tasks at their current attempt
            # count.
            self._teardown_hung_pool(todo, inflight)
            self._recover_pool()

    def _teardown_hung_pool(self, todo, inflight) -> None:
        for index, attempts, _ in inflight.values():
            todo.append((index, attempts))
        inflight.clear()
        if self._pool is not None:
            self._pool.kill()
            self._pool = None

    def _recover_pool(self) -> None:
        """Rebuild the pool, or degrade to serial once rebuilds run out."""
        if self._pool is not None:
            self._pool.kill()
            self._pool = None
        if self.health.pool_rebuilds >= self.policy.max_pool_rebuilds:
            self.health.degraded_to_serial = True
            _inc("resilience.degraded_to_serial")
            self._serial = SerialExecutor(initializer=self._initializer,
                                          initargs=self._initargs)
            return
        self.health.pool_rebuilds += 1
        _inc("resilience.pool_rebuilds")
        self._ensure_pool()

    def _run_serial(self, fn, task, index: int, attempts: int) -> Any:
        """Serial fallback with the same bounded-retry/backoff semantics."""
        while True:
            self.health.attempts += 1
            if attempts:
                self.health.retries += 1
            try:
                return fn(task)
            except Exception as exc:
                self.health.task_errors += 1
                _inc("resilience.task_errors")
                attempts += 1
                if attempts > self.policy.max_retries:
                    raise TaskError(index, attempts, repr(exc)) from exc
                delay = self.policy.backoff_delay(attempts, self._rng)
                if delay > 0:
                    time.sleep(delay)

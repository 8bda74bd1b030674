"""Fault-tolerant campaign execution: one task loop for the pooled planes.

Exhaustive fault-injection campaigns are the dominant cost of the method
(the paper rules out the "billions or trillions of runs" of native
exhaustive injection, §4.1); the campaign harness itself must therefore
survive the failures a long run will see.  :func:`run_with_retries` is
the task loop of both pooled planes, the local process pool
(:class:`~repro.parallel.executor.ProcessPoolCampaignExecutor`) and the
distributed lease plane (:class:`~repro.dist.DistExecutor`).  It owns:

* **per-task retry** — campaign tasks are pure functions of their
  descriptor (index arrays in, reduced arrays out), so re-running a failed
  task is always safe.  Attempts are bounded by
  :attr:`RetryPolicy.max_retries`, and a retry first waits out the
  policy's backoff.
* **per-task deadlines** — a deadline is armed when its task can start,
  not when it is submitted: a pool starts tasks in submission order, so
  only the first :attr:`TaskPlane.concurrency` in-flight tasks can be
  running.  What an expired task costs is the plane's business: the pool
  kills and rebuilds, the dist plane re-grants the chunk.
* **lost tasks** — a dead worker or node loses every task it held.  They
  requeue with their attempt counts bumped, so a poison task that
  reliably kills its worker cannot loop forever.
* **graceful degradation** — once the plane can run nothing (pool
  rebuilds exhausted, no node for ``node_wait_s``), the remaining tasks
  drain in this process through the same loop, still honouring retry
  bounds and backoff (timeouts cannot be enforced in-process).
* **release on close** — a stream closed early (its consumer raised,
  e.g. a cancelled job) hands its in-flight work back to the plane.

Failures carry a structured taxonomy — :class:`TaskError` (the task
raised), :class:`TaskTimeout` (deadline exceeded), :class:`WorkerDeath`
(crashed worker), and the dist plane's :class:`NodeDeath` and
:class:`LeaseExpired` — and every run accumulates a
:class:`CampaignHealth` record that campaign drivers surface on their
results.
"""

from __future__ import annotations

import heapq
import random
import time
from collections import deque
from dataclasses import dataclass, fields
from itertools import islice
from typing import Any, Callable, Hashable, Iterator, Mapping, Protocol, \
    Sequence

from ..obs.metrics import inc as _inc

__all__ = [
    "CampaignExecutionError",
    "CampaignHealth",
    "LeaseExpired",
    "NodeDeath",
    "RetryPolicy",
    "TaskError",
    "TaskPlane",
    "TaskTimeout",
    "WorkerDeath",
    "run_with_retries",
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
    """Bounds on the task loop's recovery behaviour.

    Both pooled planes run under one; a campaign that passes none gets
    ``RetryPolicy()``.

    Attributes
    ----------
    max_retries:
        Re-runs allowed per task after its first attempt.  A task in
        flight when its worker or node dies counts an attempt too,
        bounding poison tasks.
    task_timeout:
        Pool only: per-attempt wall-clock deadline in seconds, counted
        from when the task can start; ``None`` disables it.  The dist
        plane's deadline is its ``lease_ttl_s``.
    max_pool_rebuilds:
        Pool only: rebuilds allowed (worker crash or hung-task teardown)
        before the remaining tasks drain serially in this process.
    poll_interval:
        Seconds between deadline sweeps while a deadline or a backoff is
        pending (the dist plane always has its lease deadline).
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


# ------------------------------------------------------------- task loop

#: Event kinds a plane's ``_collect`` reports:
#: ``(DONE, handle, index, result)`` — a task finished; ``handle`` may
#: name an attempt the loop already gave up on (a straggler), whose
#: result still counts;
#: ``(FAILED, handle, detail, cause)`` — the task raised;
#: ``(LOST, handles, detail)`` — a worker or node died holding these.
DONE, FAILED, LOST = "done", "failed", "lost"


class TaskPlane(Protocol):
    """What :func:`run_with_retries` needs of an execution plane.

    A handle is whatever names one submitted attempt on the plane (a
    future, a lease id).  The loop keeps in-flight handles in submission
    order and tells the plane, through ``_expire`` and ``_release``,
    which ones it stops waiting for.
    """

    policy: RetryPolicy
    health: CampaignHealth
    #: raised when lost workers or nodes spend a task's retry budget
    lost: type[CampaignExecutionError]
    #: raised when expiries spend a task's retry budget
    expired: type[CampaignExecutionError]
    #: most tasks in flight; ``None`` lets ``_submit`` decide
    window: int | None
    #: how many in-flight tasks, in submission order, can be running
    #: (their deadlines are armed); ``None`` means all of them
    concurrency: int | None
    #: per-attempt deadline in seconds once a task can run, or ``None``
    deadline_s: float | None

    def _submit(self, index: int, task: Any) -> Hashable | None:
        """Start ``task``, number ``index``; ``None`` when the plane has
        no room now."""

    def _collect(self, inflight: Mapping[Hashable, Any],
                 timeout: float | None) -> list[tuple]:
        """Events that arrived within ``timeout`` seconds (``None``:
        block until one does)."""

    def _expire(self, handles: list) -> bool:
        """Count and drop attempts past their deadline; ``True`` when
        every other in-flight attempt was lost with them."""

    def _release(self, handles: list) -> None:
        """Stop working on attempts the loop no longer waits for."""

    def _stalled(self, idle: bool) -> bool:
        """Whether the plane can run no more tasks, so the rest must
        drain in this process.  Called once per round; ``idle`` says
        nothing is in flight, and a plane stalls only then."""

    def _go_serial(self, pending: int) -> None:
        """Prepare this process to run tasks (``pending`` is the first
        unfinished one), or raise when the plane forbids it."""


@dataclass(slots=True)
class _Attempt:
    index: int
    attempts: int
    deadline: float | None = None


class _InProcess:
    """The serial drain as a plane: each task runs in this process as it
    is submitted."""

    window = 1
    concurrency = None
    deadline_s = None

    def __init__(self, fn: Callable[[Any], Any]):
        self._fn = fn
        self._events: list[tuple] = []

    def _submit(self, index: int, task: Any) -> Hashable:
        handle = object()
        try:
            result = self._fn(task)
        except Exception as exc:
            self._events.append((FAILED, handle, repr(exc), exc))
        else:
            self._events.append((DONE, handle, index, result))
        return handle

    def _collect(self, inflight, timeout) -> list[tuple]:
        events, self._events = self._events, []
        if not events and timeout:  # every task is serving its backoff
            time.sleep(timeout)
        return events

    def _release(self, handles) -> None:
        return None

    def _stalled(self, idle: bool) -> bool:
        return False


def run_with_retries(plane: TaskPlane, fn: Callable[[Any], Any],
                     tasks: Sequence[Any]) -> Iterator[tuple[int, Any]]:
    """Run every task on ``plane``; yield ``(index, result)`` as each
    first completes.

    Raises the structured failure of the first task whose retry budget
    runs out (:class:`TaskError`, or the plane's ``lost`` / ``expired``
    class), after releasing the plane's in-flight work — as does closing
    the stream early.
    """
    policy, health = plane.policy, plane.health
    n = len(tasks)
    todo: deque[tuple[int, int]] = deque((i, 0) for i in range(n))
    #: retries serving their backoff: heap of (eligible_at, index, attempts)
    waiting: list[tuple[float, int, int]] = []
    inflight: dict[Hashable, _Attempt] = {}
    done: set[int] = set()
    lane: Any = plane

    def retry(index: int, attempts: int, failure: type, detail: str,
              cause: BaseException | None = None) -> None:
        if attempts > policy.max_retries:
            raise failure(index, attempts, detail) from cause
        delay = policy.backoff_delay(attempts)
        if delay > 0:
            heapq.heappush(waiting,
                           (time.monotonic() + delay, index, attempts))
        else:
            todo.append((index, attempts))

    try:
        while len(done) < n:
            now = time.monotonic()
            while waiting and waiting[0][0] <= now:
                _, index, attempts = heapq.heappop(waiting)
                todo.append((index, attempts))

            if lane._stalled(not inflight):
                plane._go_serial(next(i for i in range(n) if i not in done))
                if not health.degraded_to_serial:
                    health.degraded_to_serial = True
                    _inc("resilience.degraded_to_serial")
                lane = _InProcess(fn)

            while todo and (lane.window is None
                            or len(inflight) < lane.window):
                index, attempts = todo[0]
                if index in done:  # a straggler's result already came
                    todo.popleft()
                    continue
                handle = lane._submit(index, tasks[index])
                if handle is None:
                    break
                todo.popleft()
                inflight[handle] = _Attempt(index, attempts)
                health.attempts += 1
                if attempts:
                    health.retries += 1
                    _inc("resilience.retries")

            deadline_s = lane.deadline_s
            if deadline_s is not None:
                now = time.monotonic()
                for attempt in islice(inflight.values(), lane.concurrency):
                    if attempt.deadline is None:
                        attempt.deadline = now + deadline_s
            timeout = (policy.poll_interval
                       if deadline_s is not None or waiting else None)

            for event in lane._collect(inflight, timeout):
                if event[0] == DONE:
                    _, handle, index, result = event
                    attempt = inflight.pop(handle, None)
                    if index in done:
                        continue
                    done.add(index)
                    if attempt is None:  # a straggler beat the retry
                        moot = [h for h, a in inflight.items()
                                if a.index == index]
                        for h in moot:
                            del inflight[h]
                        lane._release(moot)
                    yield index, result
                elif event[0] == FAILED:
                    _, handle, detail, cause = event
                    attempt = inflight.pop(handle, None)
                    if attempt is None:
                        continue
                    health.task_errors += 1
                    _inc("resilience.task_errors")
                    retry(attempt.index, attempt.attempts + 1, TaskError,
                          detail, cause)
                else:
                    _, handles, detail = event
                    for handle in handles:
                        attempt = inflight.pop(handle, None)
                        if attempt is not None:
                            retry(attempt.index, attempt.attempts + 1,
                                  plane.lost, detail)

            if deadline_s is not None:
                now = time.monotonic()
                expired = [h for h, a in inflight.items()
                           if a.deadline is not None and now > a.deadline]
                if expired:
                    others_lost = lane._expire(expired)
                    hung = [inflight.pop(h) for h in expired]
                    if others_lost:  # requeued as they were: not their fault
                        todo.extend((a.index, a.attempts)
                                    for a in inflight.values())
                        inflight.clear()
                    for attempt in hung:
                        retry(attempt.index, attempt.attempts + 1,
                              plane.expired,
                              f"outlived its {deadline_s:.3g}s deadline")
    finally:
        if inflight:
            lane._release(list(inflight))

"""Lease-based campaign coordinator for multi-node execution.

:class:`DistPlane` owns the control channel: a listening TCP socket,
one reader thread per registered node, and a registry of
:class:`NodeHandle` records.  It outlives individual campaigns — the
serve layer or CLI opens one plane, nodes attach and detach freely, and
every campaign phase borrows the plane through a :class:`DistExecutor`.

:class:`DistExecutor` is a drop-in
:class:`~repro.parallel.executor.CampaignExecutor`: ``run_stream`` runs
the task loop of :mod:`repro.parallel.resilience` (retries, backoff,
terminal raise, serial drain, release on close) over a lease table.  It
shards the phase's chunk list into **leases**, hands them to nodes (at
most ``n_workers`` in flight per node, so a lease starts when granted
and its TTL measures execution), and yields results in completion
order.  Correctness leans on three properties the single-node plane
already established:

* campaign tasks are **pure functions of content-keyed chunks** — a
  chunk's experiment indices fully determine its reduced arrays, so a
  lease can be re-granted to any node at any time and a *late* result
  from an expired lease is still valid (accepted by content key);
* chunk merges are **commutative and associative** (outcomes reorder by
  chunk index, Algorithm 1 partials merge by per-site max / sum), so
  completion-order streaming across nodes is bit-identical to a serial
  run;
* completed chunks are **never re-leased** — the loop's completed set
  plays the role :mod:`repro.core.checkpoint` plays across process
  restarts, and composes with it: a checkpointed distributed campaign
  resumes without re-running chunks that any node ever finished.

Failure handling extends the pool's taxonomy one level up: a dead node
(EOF, reset, or ``heartbeat_timeout_s`` of silence) requeues its leases
with attempt counts bumped and raises
:class:`~repro.parallel.resilience.NodeDeath` once a task's budget is
consumed entirely by node losses; a lease that outlives ``lease_ttl_s``
on a live node counts a :class:`~repro.parallel.resilience.LeaseExpired`
strike and is re-granted.  When no nodes are connected for
``node_wait_s`` the rest of the phase drains coordinator-locally
(``local_fallback``), as the pool drains once its rebuilds run out.
"""

from __future__ import annotations

import hashlib
import itertools
import queue
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from ..kernels.workload import Workload, workload_key
from ..obs.metrics import inc as _inc
from ..obs.trace import span
from ..parallel.executor import CampaignExecutor
from ..parallel.resilience import (
    DONE,
    FAILED,
    LOST,
    CampaignHealth,
    LeaseExpired,
    NodeDeath,
    RetryPolicy,
    run_with_retries,
)
from .protocol import PROTOCOL_VERSION, ProtocolError, recv_msg, send_msg

__all__ = ["DistConfig", "DistExecutor", "DistPlane", "NodeHandle"]

#: Task kinds the plane knows how to ship.  Maps the campaign module's
#: worker functions; anything else is rejected at ``run_stream`` time.
TASK_KINDS = ("phase_a", "phase_b", "round")


@dataclass(frozen=True)
class DistConfig:
    """Tuning knobs of one coordinator plane.

    Attributes
    ----------
    host / port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from :attr:`DistPlane.port`).
    heartbeat_s:
        Interval nodes beacon at; any frame from a node refreshes its
        liveness.
    heartbeat_timeout_s:
        Silence after which a node is declared dead and its leases
        reassigned.  ``None`` derives ``max(4 * heartbeat_s, 2.0)``.
    lease_ttl_s:
        Wall-clock budget of one lease; past it the chunk is re-granted
        elsewhere (the straggler's late result is still accepted).
    node_wait_s:
        Grace period with zero live nodes before the executor falls back
        to coordinator-local execution (or fails, see
        ``local_fallback``).
    local_fallback:
        Whether a node-less phase degrades to in-process serial
        execution instead of raising.
    """

    host: str = "127.0.0.1"
    port: int = 0
    heartbeat_s: float = 0.5
    heartbeat_timeout_s: float | None = None
    lease_ttl_s: float = 120.0
    node_wait_s: float = 10.0
    local_fallback: bool = True

    def __post_init__(self) -> None:
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        if self.heartbeat_timeout_s is not None \
                and self.heartbeat_timeout_s <= self.heartbeat_s:
            raise ValueError("heartbeat_timeout_s must exceed heartbeat_s")
        if self.lease_ttl_s <= 0:
            raise ValueError("lease_ttl_s must be positive")
        if self.node_wait_s < 0:
            raise ValueError("node_wait_s must be non-negative")

    @property
    def liveness_timeout(self) -> float:
        return self.heartbeat_timeout_s \
            if self.heartbeat_timeout_s is not None \
            else max(4.0 * self.heartbeat_s, 2.0)


@dataclass
class NodeHandle:
    """Coordinator-side record of one attached node."""

    node_id: str
    sock: socket.socket = field(repr=False)
    n_workers: int = 1
    pid: int | None = None
    last_seen: float = 0.0
    #: lease ids currently granted to this node
    inflight: set[str] = field(default_factory=set)
    alive: bool = True
    #: workload key the node was last welcomed with
    welcomed_key: str | None = None
    #: serializes frame writes (leases, welcome, shutdown)
    send_lock: threading.Lock = field(default_factory=threading.Lock,
                                      repr=False)

    def send(self, msg: dict) -> None:
        with self.send_lock:
            send_msg(self.sock, msg)


class DistPlane:
    """The coordinator's long-lived control channel (see module doc)."""

    def __init__(self, config: DistConfig | None = None):
        self.config = config or DistConfig()
        self._nodes: dict[str, NodeHandle] = {}
        self._lock = threading.Lock()
        self._events: queue.Queue = queue.Queue()
        self._epoch = 0
        self._spec: tuple[str, dict] | None = None
        self._welcome: dict | None = None
        self._closing = threading.Event()
        self._ids = itertools.count(1)

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.config.host, self.config.port))
        self._listener.listen(32)
        self._listener.settimeout(0.2)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dist-accept", daemon=True)
        self._accept_thread.start()

    # ------------------------------------------------------------- public

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def live_nodes(self) -> list[NodeHandle]:
        with self._lock:
            return [n for n in self._nodes.values() if n.alive]

    @property
    def n_nodes(self) -> int:
        return len(self.live_nodes())

    def wait_for_nodes(self, n: int, timeout: float = 30.0) -> bool:
        """Block until ``n`` nodes are attached (or the timeout passes)."""
        deadline = time.monotonic() + timeout
        while self.n_nodes < n:
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    def executor(self, workload: Workload,
                 retry_policy: RetryPolicy | None = None) -> "DistExecutor":
        """A campaign executor for one phase, borrowing this plane."""
        return DistExecutor(self, workload, retry_policy)

    def close(self) -> None:
        """Tell nodes to exit, drop every connection, stop accepting."""
        if self._closing.is_set():
            return
        self._closing.set()
        with self._lock:
            nodes = list(self._nodes.values())
        for node in nodes:
            try:
                node.send({"type": "shutdown"})
            except OSError:
                pass
            self._kill_node(node.node_id, "plane closed", notify=False)
        self._listener.close()
        self._accept_thread.join(timeout=5)

    def __enter__(self) -> "DistPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------- executor seam

    def _begin_phase(self, workload: Workload) -> int:
        """Bind the phase's workload, welcome nodes, bump the epoch.

        The epoch tags every lease and result frame, so results from
        an abandoned earlier phase can never satisfy a later phase's
        task (the content key alone would collide when the same chunk
        is re-run, e.g. after a driver-level retry).
        """
        spec = workload.spec
        if spec is None:
            raise ValueError(
                "distributed execution needs a spec-built workload "
                "(kernel name + params) so nodes can rebuild it; this "
                "workload has no spec provenance")
        key = workload_key(spec, workload.tolerance, workload.norm)
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            self._spec = spec
            self._welcome = {
                "type": "welcome",
                "spec": [spec[0], spec[1]],
                "workload_key": key,
                "tolerance": workload.tolerance,
                "norm": workload.norm,
                "heartbeat_s": self.config.heartbeat_s,
                "epoch": epoch,
            }
            nodes = [n for n in self._nodes.values() if n.alive]
        for node in nodes:
            self._welcome_node(node)
        return epoch

    def _welcome_node(self, node: NodeHandle) -> None:
        welcome = self._welcome
        if welcome is None or node.welcomed_key == welcome["workload_key"]:
            if welcome is not None:
                # same workload: just refresh the node's epoch
                try:
                    node.send({"type": "welcome_epoch",
                               "epoch": welcome["epoch"]})
                except OSError:
                    self._kill_node(node.node_id, "send failed")
            return
        try:
            node.send(welcome)
            node.welcomed_key = welcome["workload_key"]
        except OSError:
            self._kill_node(node.node_id, "send failed")

    def _kill_node(self, node_id: str, reason: str,
                   notify: bool = True) -> None:
        """Mark a node dead, close its socket, surface a death event."""
        with self._lock:
            node = self._nodes.get(node_id)
            if node is None or not node.alive:
                return
            node.alive = False
            leases = set(node.inflight)
            node.inflight.clear()
        try:
            node.sock.close()
        except OSError:
            pass
        _inc("dist.node_deaths")
        if notify:
            self._events.put(("dead", node_id, reason, leases))

    def _sweep_liveness(self) -> None:
        """Declare nodes silent past the heartbeat timeout dead."""
        cutoff = time.monotonic() - self.config.liveness_timeout
        for node in self.live_nodes():
            if node.last_seen and node.last_seen < cutoff:
                self._kill_node(node.node_id,
                                f"no heartbeat for "
                                f"{self.config.liveness_timeout:.1f}s")

    # ------------------------------------------------------------ threads

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            threading.Thread(target=self._serve_node, args=(conn,),
                             name="dist-node-reader", daemon=True).start()

    def _register(self, conn: socket.socket, hello: dict) -> NodeHandle:
        if hello.get("version") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"protocol version mismatch: node speaks "
                f"{hello.get('version')}, coordinator {PROTOCOL_VERSION}")
        base = str(hello.get("node_id") or "node")
        n_workers = max(1, int(hello.get("n_workers") or 1))
        pid = hello.get("pid")
        with self._lock:
            node_id = base
            while node_id in self._nodes:
                node_id = f"{base}~{next(self._ids)}"
            node = NodeHandle(node_id=node_id, sock=conn,
                              n_workers=n_workers, pid=pid,
                              last_seen=time.monotonic())
            self._nodes[node_id] = node
        _inc("dist.nodes_registered")
        node.send({"type": "registered", "node_id": node_id})
        self._welcome_node(node)
        return node

    def _serve_node(self, conn: socket.socket) -> None:
        conn.settimeout(10.0)
        try:
            hello = recv_msg(conn)
            if hello is None or hello.get("type") != "hello":
                conn.close()
                return
            node = self._register(conn, hello)
        except (ProtocolError, OSError):
            conn.close()
            return
        conn.settimeout(None)
        try:
            while True:
                msg = recv_msg(conn)
                if msg is None:
                    self._kill_node(node.node_id, "connection closed")
                    return
                node.last_seen = time.monotonic()
                kind = msg.get("type")
                if kind == "heartbeat":
                    continue
                if kind in ("result", "task_error", "node_error"):
                    self._events.put(("msg", node.node_id, msg, None))
                # unknown frames are ignored: forward compatibility
        except (ProtocolError, OSError) as exc:
            self._kill_node(node.node_id, f"connection torn: {exc}")


class DistExecutor(CampaignExecutor):
    """One campaign's view of the plane (see module doc).

    Same ``run`` / ``run_stream`` / ``shutdown`` surface as every other
    campaign executor, plus the :attr:`health` record drivers already
    harvest via ``getattr(pool, "health", None)``.  ``run_stream`` is the
    retry loop of :mod:`repro.parallel.resilience` over the lease table;
    this class only grants, collects, expires and releases leases.
    ``shutdown`` releases the campaign's outstanding leases and leaves
    the plane open: it outlives campaigns and is closed by whoever
    opened it.
    """

    lost = NodeDeath
    expired = LeaseExpired
    #: each node takes at most its ``n_workers`` leases (``_submit``)
    window = None
    #: a granted lease starts at once, so its TTL runs from the grant
    concurrency = None

    def __init__(self, plane: DistPlane, workload: Workload,
                 retry_policy: RetryPolicy | None = None):
        self._plane = plane
        self._workload = workload
        self.policy = retry_policy or RetryPolicy()
        self.health = CampaignHealth()
        self.deadline_s = plane.config.lease_ttl_s
        self._seq = itertools.count(1)
        #: outstanding lease id -> id of the node holding it
        self._leases: dict[str, str] = {}
        self._live: list[NodeHandle] = []
        self._empty_since: float | None = None
        spec = workload.spec
        self._wkey = (workload_key(spec, workload.tolerance, workload.norm)
                      if spec is not None else None)

    # ------------------------------------------------------------- public

    def run_stream(self, fn: Callable[[Any], Any],
                   tasks: Sequence[Any]) -> Iterator[tuple[int, Any]]:
        """Yield ``(task_index, result)`` in completion order."""
        kind = self._task_kind(fn)
        tasks = list(tasks)
        if not tasks:
            return
        self._kind = kind
        self._keys = [self._content_key(kind, task) for task in tasks]
        self._key_to_index = {k: i for i, k in enumerate(self._keys)}
        self._epoch = self._plane._begin_phase(self._workload)
        self._empty_since = None
        with span("dist.phase", kind=kind, n_tasks=len(tasks),
                  n_nodes=self._plane.n_nodes, epoch=self._epoch):
            yield from run_with_retries(self, fn, tasks)

    def shutdown(self) -> None:
        self._release(list(self._leases))

    # ----------------------------------------------------------- plumbing

    def _task_kind(self, fn: Callable) -> str:
        from ..core import campaign as _campaign
        if fn is _campaign._task_outcomes:
            return "phase_a"
        if fn is _campaign._task_aggregate:
            return "phase_b"
        if fn is _campaign._task_round:
            return "round"
        raise ValueError(
            f"the distributed plane only ships campaign phase tasks "
            f"({TASK_KINDS}); got {getattr(fn, '__name__', fn)!r}")

    def _content_key(self, kind: str, task: Any) -> str:
        """Content hash identifying one chunk's result, node-independent."""
        h = hashlib.sha256()
        h.update(kind.encode())
        h.update(self._wkey.encode())
        for name, value in self._encode_task(kind, task).items():
            h.update(name.encode())
            h.update(value.tobytes() if isinstance(value, np.ndarray)
                     else repr(value).encode())
        return h.hexdigest()[:32]

    def _encode_task(self, kind: str, task: Any) -> dict:
        if kind == "phase_a":
            return {"flat": np.asarray(task, dtype=np.int64)}
        if kind == "round":
            flat, rel = task
            return {"flat": np.asarray(flat, dtype=np.int64),
                    "rel": float(rel)}
        flat, caps, rel = task
        return {"flat": np.asarray(flat, dtype=np.int64),
                "caps": None if caps is None
                else np.asarray(caps, dtype=np.float64),
                "rel": float(rel)}

    @staticmethod
    def _decode_result(kind: str, payload: dict) -> Any:
        if kind == "phase_a":
            return (payload["outcomes"], payload["injected"])
        partial = (payload["delta_e"], payload["info"], int(payload["n"]))
        if kind == "round":
            return (payload["outcomes"], payload["injected"], *partial)
        return partial

    # ------------------------------------------- the retry loop's plane

    def _stalled(self, idle: bool) -> bool:
        """Sweep liveness; stall once no node has been live for
        ``node_wait_s`` while nothing was leased."""
        self._plane._sweep_liveness()
        self._live = [n for n in self._plane.live_nodes()
                      if n.welcomed_key == self._wkey]
        if self._live:
            self._empty_since = None
        elif idle:
            now = time.monotonic()
            if self._empty_since is None:
                self._empty_since = now
            return now - self._empty_since >= self._plane.config.node_wait_s
        return False

    def _go_serial(self, pending: int) -> None:
        """Coordinator-local fallback, unless the config forbids it."""
        if not self._plane.config.local_fallback:
            waited = time.monotonic() - self._empty_since
            raise NodeDeath(pending, 0,
                            f"no live nodes for {waited:.1f}s and local "
                            "fallback is disabled")
        from ..core import campaign as _campaign
        _campaign._init_worker_direct(self._workload)

    def _submit(self, index: int, task: Any) -> str | None:
        """Lease task ``index`` to the least-loaded node with a free slot.

        A lease is recorded on its node, under the plane lock and only
        while the node is alive, *before* its frame is sent: a node
        killed at any point after that reports the lease in its death
        event, so the chunk is requeued at once instead of waiting out
        its TTL on a dead node.
        """
        while True:
            candidates = [n for n in self._live
                          if n.alive and len(n.inflight) < n.n_workers]
            if not candidates:
                return None
            node = min(candidates, key=lambda n: len(n.inflight))
            lease_id = f"L{self._epoch}-{next(self._seq)}"
            with self._plane._lock:
                granted = node.alive
                if granted:
                    node.inflight.add(lease_id)
            if not granted:  # died since the candidates were listed
                self._live.remove(node)
                continue
            self._leases[lease_id] = node.node_id
            msg = {"type": "lease", "lease_id": lease_id,
                   "epoch": self._epoch, "kind": self._kind,
                   "key": self._keys[index],
                   "task": self._encode_task(self._kind, task)}
            try:
                node.send(msg)
            except OSError:
                # Undo the record: a death event naming it finds no lease.
                self._release([lease_id])
                self._plane._kill_node(node.node_id, "lease send failed")
                self._live.remove(node)
                continue
            _inc("dist.leases_granted")
            return lease_id

    def _collect(self, inflight, timeout) -> list[tuple]:
        """Drain the plane's event queue into the loop's events."""
        frames = []
        try:
            frames.append(self._plane._events.get(timeout=timeout))
            while True:
                frames.append(self._plane._events.get_nowait())
        except queue.Empty:
            pass

        events = []
        for tag, node_id, payload, dead_leases in frames:
            if tag == "dead":
                self.health.node_deaths += 1
                lost = [lease_id for lease_id in dead_leases
                        if self._leases.pop(lease_id, None) is not None]
                events.append((LOST, lost, f"node {node_id} died while "
                               "the chunk was leased"))
                continue
            kind = payload.get("type")
            if kind == "node_error":
                # Carries no epoch: the node could not take the welcome.
                self._plane._kill_node(
                    node_id, payload.get("error", "node_error"))
                continue
            if payload.get("epoch") != self._epoch:
                continue  # stale frame from an abandoned phase
            lease_id = payload.get("lease_id", "")
            self._release([lease_id])
            if kind == "result":
                # by content key: an expired lease's late result counts
                index = self._key_to_index.get(payload.get("key"))
                if index is not None:
                    _inc("dist.results")
                    events.append((DONE, lease_id, index, self._decode_result(
                        self._kind, payload["payload"])))
            elif kind == "task_error":
                events.append((FAILED, lease_id, payload.get(
                    "error", "task raised on remote node"), None))
        return events

    def _expire(self, handles) -> bool:
        """Expired leases are re-granted; their nodes keep serving."""
        self._release(handles)
        self.health.lease_expiries += len(handles)
        _inc("dist.lease_expiries", len(handles))
        return False

    def _release(self, handles) -> None:
        """Forget leases, freeing their nodes' slots."""
        for lease_id in handles:
            node_id = self._leases.pop(lease_id, None)
            node = self._plane._nodes.get(node_id)
            if node is not None:
                node.inflight.discard(lease_id)

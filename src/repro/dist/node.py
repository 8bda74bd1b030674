"""Worker-node agent of the distributed campaign plane.

A node is deliberately dumb: it connects to a coordinator, announces its
capacity (``hello``), rebuilds the campaign workload from the spec the
coordinator ``welcome``s it with (verifying the content key — a node
with a diverging kernel registry must refuse work rather than poison the
merged boundary), and then executes whatever leases arrive on a thread
pool of its own.  Its threads run the campaign's own task functions on
the rebuilt workload, so node results are bit-identical to local
execution.

The node never tracks campaign state: leases are self-contained (chunk
indices in, reduced arrays out), results are keyed by content hash, and
the coordinator owns retry/assignment entirely.  Losing a node therefore
loses nothing but in-flight work, and a replacement node needs no
handshake beyond ``hello``.

Liveness is a background heartbeat thread; every outbound frame shares
one send lock so result frames and heartbeats never interleave.
"""

from __future__ import annotations

import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any

# Imported when the node starts, so its first lease pays no import.
from ..core import campaign as _campaign
from ..kernels.workload import from_spec, workload_key
from ..parallel.executor import default_workers
from .protocol import PROTOCOL_VERSION, ProtocolError, recv_msg, send_msg

__all__ = ["NodeAgent"]


class NodeAgent:
    """One worker node's connection to a coordinator (see module doc).

    ``run()`` blocks until the coordinator sends ``shutdown``, the
    connection drops, or :meth:`stop` is called from another thread.
    """

    def __init__(self, host: str, port: int, n_workers: int | None = None,
                 node_id: str | None = None, connect_timeout: float = 10.0):
        self.host = host
        self.port = int(port)
        self.n_workers = n_workers or default_workers()
        self.node_id = node_id or f"{socket.gethostname()}-{os.getpid()}"
        self.connect_timeout = connect_timeout
        self.leases_served = 0
        self._sock: socket.socket | None = None
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._pool: ThreadPoolExecutor | None = None
        self._workload_key: str | None = None
        self._epoch = 0
        self._heartbeat_s = 0.5

    # ------------------------------------------------------------- public

    def run(self) -> None:
        """Serve leases until shutdown or disconnect."""
        sock = socket.create_connection((self.host, self.port),
                                        timeout=self.connect_timeout)
        self._sock = sock
        self._send({"type": "hello", "node_id": self.node_id,
                    "pid": os.getpid(), "n_workers": self.n_workers,
                    "version": PROTOCOL_VERSION})
        sock.settimeout(None)
        beat = threading.Thread(target=self._heartbeat_loop,
                                name="dist-heartbeat", daemon=True)
        beat.start()
        try:
            while not self._stop.is_set():
                try:
                    msg = recv_msg(sock)
                except (ProtocolError, OSError):
                    return
                if msg is None:
                    return
                kind = msg.get("type")
                if kind == "registered":
                    self.node_id = msg.get("node_id", self.node_id)
                elif kind == "welcome":
                    if not self._welcome(msg):
                        return
                elif kind == "welcome_epoch":
                    self._epoch = int(msg.get("epoch", self._epoch))
                elif kind == "lease":
                    self._accept_lease(msg)
                elif kind == "shutdown":
                    return
                # unknown frames ignored: forward compatibility
        finally:
            self._stop.set()
            if self._pool is not None:
                self._pool.shutdown(wait=False, cancel_futures=True)
            try:
                sock.close()
            except OSError:
                pass

    def stop(self) -> None:
        """Ask a running agent to exit (thread-safe, idempotent)."""
        self._stop.set()
        sock = self._sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    # ----------------------------------------------------------- plumbing

    def _send(self, msg: dict) -> None:
        sock = self._sock
        if sock is None:
            return
        with self._send_lock:
            send_msg(sock, msg)

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self._heartbeat_s):
            try:
                self._send({"type": "heartbeat"})
            except OSError:
                return

    def _welcome(self, msg: dict) -> bool:
        """Rebuild the campaign workload from its spec; verify the key."""
        name, params = msg["spec"]
        expected = msg["workload_key"]
        self._epoch = int(msg.get("epoch", self._epoch))
        self._heartbeat_s = float(msg.get("heartbeat_s", self._heartbeat_s))
        if self._workload_key == expected:
            return True  # same campaign workload; keep the warm pool
        try:
            workload = from_spec((name, dict(params)))
            key = workload_key((name, dict(params)), workload.tolerance,
                               workload.norm)
            if key != expected:
                raise ValueError(
                    f"workload key mismatch: coordinator expects "
                    f"{expected}, local registry builds {key}")
        except Exception as exc:
            try:
                self._send({"type": "node_error", "error": repr(exc)})
            except OSError:
                pass
            return False

        if self._pool is not None:
            self._pool.shutdown(wait=True)
        # The golden run and the replay plan happen once, here; each lease
        # thread then holds its own worker state (replayer and replay
        # workspace) over them.
        _campaign.make_replayer(workload.trace)
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-dist-node",
            initializer=_campaign._init_worker_direct, initargs=(workload,))
        self._workload_key = expected
        return True

    def _accept_lease(self, msg: dict) -> None:
        if self._pool is None or msg.get("epoch") != self._epoch:
            return  # not welcomed yet, or a stale in-flight lease frame
        self._pool.submit(self._serve_lease, msg)

    def _serve_lease(self, msg: dict) -> None:
        """Execute one lease and stream its result back (worker thread)."""
        lease_id = msg.get("lease_id")
        kind = msg.get("kind")
        task = msg.get("task") or {}
        base = {"lease_id": lease_id, "epoch": msg.get("epoch"),
                "key": msg.get("key"), "task_kind": kind}
        try:
            if kind == "phase_a":
                outcomes, injected = _campaign._task_outcomes(task["flat"])
                payload: dict[str, Any] = {"outcomes": outcomes,
                                           "injected": injected}
            elif kind == "phase_b":
                delta_e, info, n = _campaign._task_aggregate(
                    (task["flat"], task.get("caps"), task["rel"]))
                payload = {"delta_e": delta_e, "info": info, "n": int(n)}
            else:
                raise ValueError(f"unknown task kind {kind!r}")
        except Exception as exc:
            try:
                self._send({"type": "task_error", "error": repr(exc),
                            **base})
            except OSError:
                pass
            return
        try:
            self._send({"type": "result", "payload": payload, **base})
            self.leases_served += 1
        except OSError:
            pass  # coordinator gone; the chunk will be re-leased

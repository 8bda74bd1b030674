"""Replica fleet supervisor: N serve processes on one SO_REUSEPORT port.

``repro serve --replicas N`` runs a :class:`Fleet` instead of a single
:class:`~repro.serve.server.ServiceServer`.  The supervisor

1. reserves a concrete port by binding a *placeholder* ``SO_REUSEPORT``
   socket it never listens on (the kernel only balances connections
   across *listening* group members, so the placeholder receives no
   traffic — it just pins the port number so ``--port 0`` works and no
   other process can squat the port between child restarts),
2. forks N child processes, each a full single-replica service
   (``python -m repro serve --reuse-port --replica-id rI``) over the
   *same* root directory and the *same* host:port,
3. restarts any child that exits unexpectedly (exponential backoff,
   capped), and
4. on SIGTERM/SIGINT propagates the drain: every child gets SIGTERM,
   finishes its in-flight requests and running jobs, and the supervisor
   exits when the last child has.

The children coordinate through the shared job store's claim protocol
(:mod:`repro.serve.jobs`), not through the supervisor: killing the
supervisor with SIGKILL leaves the children serving, and killing a child
with SIGKILL leaves its claims to go stale and be taken over by its
siblings.  The supervisor is deliberately dumb — it owns no job state.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

__all__ = ["Fleet", "FleetError"]

#: First restart delay after a child crash; doubles per consecutive
#: crash of the same slot up to the cap, and resets once a child
#: survives ``RESTART_RESET_S``.
RESTART_BACKOFF_S = 0.5
RESTART_BACKOFF_MAX_S = 30.0
RESTART_RESET_S = 60.0

#: Seconds a draining child gets before escalating SIGTERM -> SIGKILL.
DRAIN_GRACE_S = 120.0


class FleetError(RuntimeError):
    """Fleet-level failure (port reservation, child spawn)."""


class Fleet:
    """Supervise ``replicas`` serve processes sharing one port.

    Parameters mirror the single-process ``repro serve`` flags; each is
    forwarded to every child.  ``port=0`` reserves an ephemeral port
    (read it back from :attr:`port` after :meth:`start`).
    """

    def __init__(self, root: str | Path, replicas: int,
                 host: str = "127.0.0.1", port: int = 0, *,
                 job_workers: int = 1, campaign_workers: int | None = None,
                 cache_capacity: int | None = None,
                 claim_ttl_s: float | None = None, recover: bool = True,
                 verbose: bool = False, out=None):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        if not hasattr(socket, "SO_REUSEPORT"):
            raise FleetError(
                "SO_REUSEPORT is not available on this platform; "
                "run a single replica instead")
        self.root = Path(root)
        self.replicas = replicas
        self.host = host
        self.port = port
        self.job_workers = job_workers
        self.campaign_workers = campaign_workers
        self.cache_capacity = cache_capacity
        self.claim_ttl_s = claim_ttl_s
        self.recover = recover
        self.verbose = verbose
        self.out = out if out is not None else sys.stdout
        self._placeholder: socket.socket | None = None
        self._children: list[subprocess.Popen | None] = [None] * replicas
        self._last_spawn = [0.0] * replicas
        self._crashes = [0] * replicas
        self.restarts = 0
        self._stopping = threading.Event()

    # ---------------------------------------------------------------- spawn

    def _child_cmd(self, index: int) -> list[str]:
        cmd = [sys.executable, "-m", "repro", "serve",
               "--root", str(self.root),
               "--host", self.host, "--port", str(self.port),
               "--reuse-port", "--replica-id", f"r{index}",
               "--job-workers", str(self.job_workers)]
        if self.campaign_workers is not None:
            cmd += ["--campaign-workers", str(self.campaign_workers)]
        if self.cache_capacity is not None:
            cmd += ["--cache-capacity", str(self.cache_capacity)]
        if self.claim_ttl_s is not None:
            cmd += ["--claim-ttl", str(self.claim_ttl_s)]
        if not self.recover:
            cmd += ["--no-recover"]
        if self.verbose:
            cmd += ["--verbose"]
        return cmd

    def _spawn(self, index: int) -> None:
        env = os.environ.copy()
        # Children must import the same repro tree as the supervisor,
        # installed or run straight from a source checkout.
        pkg_parent = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (pkg_parent if not existing
                             else pkg_parent + os.pathsep + existing)
        try:
            self._children[index] = subprocess.Popen(self._child_cmd(index),
                                                     env=env)
        except OSError as exc:
            raise FleetError(f"failed to spawn replica r{index}: {exc}") \
                from exc
        self._last_spawn[index] = time.monotonic()
        self._log(f"replica r{index} pid {self._children[index].pid} up")

    def _log(self, message: str) -> None:
        print(f"fleet: {message}", file=self.out, flush=True)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Reserve the port and spawn every replica."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((self.host, self.port))
        except OSError as exc:
            sock.close()
            raise FleetError(
                f"cannot reserve {self.host}:{self.port}: {exc}") from exc
        self._placeholder = sock
        self.port = sock.getsockname()[1]
        for i in range(self.replicas):
            self._spawn(i)

    def run_forever(self, poll_s: float = 0.5) -> None:
        """Supervise until :meth:`drain` (or a signal handler) stops us.

        A child that exits while the fleet is running is restarted with
        exponential backoff; a child that keeps crashing immediately
        backs off up to ``RESTART_BACKOFF_MAX_S`` but is never given up
        on — a replica is stateless (all state is the shared root), so
        restarting is always safe.
        """
        while not self._stopping.wait(poll_s):
            for i, child in enumerate(self._children):
                if child is None or child.poll() is None:
                    continue
                if self._stopping.is_set():
                    break
                rc = child.returncode
                uptime = time.monotonic() - self._last_spawn[i]
                if uptime > RESTART_RESET_S:
                    self._crashes[i] = 0
                delay = min(RESTART_BACKOFF_S * (2 ** self._crashes[i]),
                            RESTART_BACKOFF_MAX_S)
                self._crashes[i] += 1
                self.restarts += 1
                self._log(f"replica r{i} exited rc={rc} after "
                          f"{uptime:.1f}s; restarting in {delay:.1f}s")
                if self._stopping.wait(delay):
                    break
                self._spawn(i)

    def drain(self, grace_s: float = DRAIN_GRACE_S) -> None:
        """Propagate SIGTERM to every child and wait for them to drain.

        Each child finishes its in-flight requests and running jobs
        (the single-process drain path); a child still alive after
        ``grace_s`` is SIGKILLed — its claims go stale and the next
        fleet over this root adopts its jobs.  Idempotent.
        """
        self._stopping.set()
        alive = [c for c in self._children if c is not None
                 and c.poll() is None]
        for child in alive:
            try:
                child.send_signal(signal.SIGTERM)
            except OSError:
                pass
        deadline = time.monotonic() + grace_s
        for child in alive:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                child.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                self._log(f"pid {child.pid} ignored drain; killing")
                child.kill()
                child.wait()
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None

    def stop(self) -> None:
        """Hard stop: SIGKILL every child, release the port."""
        self._stopping.set()
        for child in self._children:
            if child is not None and child.poll() is None:
                child.kill()
                child.wait()
        if self._placeholder is not None:
            self._placeholder.close()
            self._placeholder = None

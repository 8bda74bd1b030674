"""Persistent, resumable campaign jobs behind a claim-based shared queue.

A *job* is one campaign request (kernel + params + mode + options) with a
durable on-disk record: a ``job.json`` manifest written atomically on
every state change, an append-only ``events.ndjson`` progress stream, the
campaign's checkpoint directory, and the result artifacts.  The state
machine is::

    queued -> running -> done
                     \\-> failed
    queued/running ---> cancelled

:class:`JobManager` owns a directory tree::

    <root>/jobs/<job_id>/job.json        atomic manifest (schema v1)
    <root>/jobs/<job_id>/events.ndjson   append-only progress events
    <root>/jobs/<job_id>/claim           lease of the replica running it
    <root>/jobs/<job_id>/cancel          cross-process cancel marker
    <root>/jobs/<job_id>/checkpoint/     CampaignCheckpoint state
    <root>/jobs/<job_id>/boundary.npz    (+ sampled/exhaustive.npz)
    <root>/boundaries/boundary-<workload_key>.npz   published boundaries
    <root>/fronts/front-<workload_key>.npz          published Pareto fronts
    <root>/compose-cache/                shared section-summary store

and a pool of worker threads that drive :func:`repro.core.run_campaign`.

**The queue is the directory tree, not process memory.**  Any number of
manager processes (*replicas*, e.g. ``repro serve --replicas N`` over one
``SO_REUSEPORT`` socket) may share one root: before running a job a
worker must *claim* it by creating the job's ``claim`` file with
``O_CREAT | O_EXCL`` — the same atomic-lease idiom as
:mod:`repro.dist.coordinator`.  A claim carries the owner's replica id,
pid and a heartbeat timestamp which a background thread refreshes every
``heartbeat_s``; a claim silent for longer than its ``ttl_s`` is *stale*
and any replica may take it over (serialized by a per-job steal lock,
then rename-to-tombstone, so exactly one stealer wins).  Because
campaigns run with per-job content-keyed
checkpoints, a takeover resumes from the dead replica's last completed
chunk and the final boundary is bit-identical to an uninterrupted run.

A manager killed mid-job — SIGKILL included — therefore needs no special
recovery protocol: its claims go stale and the next scan of any live
replica (or the same root's next process) adopts the orphaned jobs.

Completed boundaries are *published* under the workload's content key
(:func:`~repro.kernels.workload.workload_key`), which is what the
``/v1/boundary/{workload_key}`` query endpoint serves through the
:class:`~repro.serve.artifacts.ArtifactCache` (its ``(mtime_ns, size)``
validation makes republication by any replica visible to every other).
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import kernels
from ..core.boundary import exhaustive_boundary
from ..core.campaign import CampaignConfig, run_campaign
from ..core.checkpoint import CampaignCheckpoint
from ..core.prediction import BoundaryPredictor
from ..core.sampling import ProgressiveConfig
from ..io.store import (
    atomic_write_json,
    save_boundary,
    save_exhaustive,
    save_front,
    save_sampled,
)
from ..kernels.workload import workload_key
from ..obs import metrics as _metrics
from ..optimize import (
    EnvelopeEvaluator,
    SearchCheckpoint,
    SearchConfig,
    build_cost_model,
    synthesize,
)
from ..parallel.progress import CallbackProgress
from ..parallel.resilience import RetryPolicy

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobCancelled",
    "JobClaimLost",
    "JobManager",
    "JobNotFoundError",
    "JobRequest",
]

MANIFEST_VERSION = 1

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Campaign styles a job may request, mapped to run_campaign modes.
#: ``optimize`` is the exception: it runs a compositional campaign and
#: then drives :mod:`repro.optimize`'s placement search, so it has no
#: run_campaign mode of its own.
JOB_MODES = {
    "exhaustive": "exhaustive",
    "sample": "monte_carlo",
    "adaptive": "adaptive",
    "compose": "compositional",
    "optimize": "optimize",
}

_COMMON_OPTIONS = frozenset({
    "n_workers", "executor", "batch_budget",
    "max_retries", "task_timeout",
})

#: Values of ``options.executor``: ``auto`` runs a process pool when
#: ``n_workers`` is more than one, ``serial`` runs in the job's thread
#: whatever ``n_workers`` says, and ``dist`` leases chunks through the
#: service's distributed plane.
JOB_EXECUTORS = ("auto", "serial", "dist")

#: Job modes that run a compositional campaign.  Dist nodes run only
#: phase-A, phase-B and adaptive-round tasks, not its section tasks.
_COMPOSITIONAL_MODES = ("compose", "optimize")

_MODE_OPTIONS = {
    "exhaustive": frozenset(),
    "sample": frozenset({"sampling_rate", "seed", "use_filter",
                         "exact_rule"}),
    "adaptive": frozenset({"seed", "round_fraction", "stop_masked_fraction",
                           "use_filter", "exact_rule"}),
    "compose": frozenset({"n_sections", "cuts", "slack"}),
    "optimize": frozenset({"target_sdc", "budget", "modes", "margin",
                           "beam_width", "beam_steps", "generations",
                           "population", "mutation_rate", "crossover_rate",
                           "seed", "n_sections", "slack"}),
}

def _search_config_from_options(options: dict) -> SearchConfig:
    """Build (and thereby validate) a SearchConfig from job options.

    Raises ``ValueError`` on unknown modes or out-of-range knobs, so bad
    ``optimize`` submissions fail at submit time like every other mode.
    """
    kwargs: dict = {}
    modes = options.get("modes")
    if modes:
        if isinstance(modes, str):
            modes = [m.strip() for m in modes.split(",") if m.strip()]
        kwargs["modes"] = tuple(str(m) for m in modes)
    if options.get("target_sdc") is not None:
        kwargs["target_sdc"] = float(options["target_sdc"])
    if options.get("budget") is not None:
        kwargs["budget"] = float(options["budget"])
    for key, cast in (("beam_width", int), ("beam_steps", int),
                      ("generations", int), ("population", int),
                      ("mutation_rate", float), ("crossover_rate", float),
                      ("seed", int)):
        if options.get(key) is not None:
            kwargs[key] = cast(options[key])
    config = SearchConfig(**kwargs)
    from ..optimize.costmodel import PROTECTION_MODES
    for name in config.modes:
        if name not in PROTECTION_MODES or name == "none":
            raise ValueError(
                f"unknown protection mode {name!r}; "
                f"choose from {PROTECTION_MODES[1:]}")
    return config


#: Minimum seconds between persisted progress events per job; the final
#: update of each phase always lands.
EVENT_THROTTLE_S = 0.2

#: Default seconds of heartbeat silence after which a claim is stale and
#: another replica may take the job over.
DEFAULT_CLAIM_TTL_S = 10.0

#: Default seconds between scans of the shared jobs directory for
#: claimable work (queued jobs, stale claims).
DEFAULT_SCAN_INTERVAL_S = 1.0


class JobCancelled(Exception):
    """Raised inside a campaign's progress hook to abort a cancelled job."""


class JobClaimLost(Exception):
    """Raised inside a campaign's progress hook when this replica's claim
    on the job was taken over (stale heartbeat) by another replica.

    Unlike :class:`JobCancelled` the job is *not* terminal — the new
    owner drives the state machine from here on, so the loser must walk
    away without touching the manifest.
    """


class JobNotFoundError(KeyError):
    """No job with the requested id exists under the manager's root."""


@dataclass(frozen=True)
class JobRequest:
    """A validated campaign request.

    ``mode`` is one of ``exhaustive`` / ``sample`` / ``adaptive`` /
    ``compose``; ``options`` carries the mode's knobs (sampling rate,
    seed, worker count, retry policy fields, ...) and is validated
    against a per-mode allowlist so typos fail at submit time, not hours
    into a campaign.
    """

    kernel: str
    params: dict = field(default_factory=dict)
    mode: str = "sample"
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in JOB_MODES:
            raise ValueError(f"unknown job mode {self.mode!r}; "
                             f"expected one of {sorted(JOB_MODES)}")
        if self.kernel not in kernels.available_kernels():
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"available: {kernels.available_kernels()}")
        if not isinstance(self.params, dict):
            raise ValueError("params must be an object of kernel parameters")
        if not isinstance(self.options, dict):
            raise ValueError("options must be an object")
        allowed = _COMMON_OPTIONS | _MODE_OPTIONS[self.mode]
        unknown = sorted(set(self.options) - allowed)
        if unknown:
            raise ValueError(
                f"unknown option(s) {unknown} for mode {self.mode!r}; "
                f"allowed: {sorted(allowed)}")
        executor = self.options.get("executor", "auto")
        if executor not in JOB_EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; "
                             f"expected one of {JOB_EXECUTORS}")
        if executor == "dist" and self.mode in _COMPOSITIONAL_MODES:
            raise ValueError(
                f'mode {self.mode!r} cannot take options.executor="dist": '
                "dist nodes run only phase-A, phase-B and round tasks, and this "
                "mode runs compositional section tasks")
        if self.mode == "sample":
            rate = self.options.get("sampling_rate")
            if rate is None or not 0 < float(rate) <= 1:
                raise ValueError(
                    'mode "sample" needs options.sampling_rate in (0, 1]')
        if self.mode == "optimize":
            target = self.options.get("target_sdc")
            budget = self.options.get("budget")
            if (target is None) == (budget is None):
                raise ValueError(
                    'mode "optimize" needs exactly one of '
                    "options.target_sdc / options.budget")
            _search_config_from_options(self.options)  # typo/range check

    def to_dict(self) -> dict:
        return {"kernel": self.kernel, "params": dict(self.params),
                "mode": self.mode, "options": dict(self.options)}

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRequest":
        if not isinstance(payload, dict):
            raise ValueError("job request must be a JSON object")
        unknown = sorted(set(payload) - {"kernel", "params", "mode",
                                         "options"})
        if unknown:
            raise ValueError(f"unknown request field(s) {unknown}")
        if "kernel" not in payload:
            raise ValueError("job request needs a 'kernel'")
        return cls(kernel=payload["kernel"],
                   params=payload.get("params") or {},
                   mode=payload.get("mode", "sample"),
                   options=payload.get("options") or {})


def _utcnow() -> float:
    return time.time()


class JobManager:
    """Submit / run / recover campaign jobs under one (shared) root.

    Parameters
    ----------
    root:
        Service state directory (created if missing).  Several manager
        processes may share one root; the claim protocol arbitrates.
    job_workers:
        Concurrent campaign jobs (bounded worker-thread pool).
    campaign_workers:
        Cap on each campaign's own worker count; a request asking for
        more is clamped.  ``None`` leaves requests untouched.
    recover:
        Adopt jobs found under the root that this manager did not
        submit itself (queued work from dead or busy replicas, stale
        running claims).  ``False`` restricts this manager to jobs
        submitted through it.
    dist_plane:
        Optional :class:`~repro.dist.DistPlane`; jobs submitted with
        ``options.executor="dist"`` lease their chunks through it.
        Owned by the caller (it outlives individual jobs); without one,
        dist requests are rejected at submit time.
    replica_id:
        Name this manager claims jobs under (shows up in claim files,
        manifests and ``/healthz``).  Defaults to ``"r<pid>"``.
    claim_ttl_s:
        Seconds of heartbeat silence after which this manager's claims
        become stale (and it considers other replicas' claims stale).
    heartbeat_s:
        Claim refresh interval; defaults to ``claim_ttl_s / 4``.
    scan_interval_s:
        Seconds between scans of the shared jobs directory for
        claimable work.
    """

    def __init__(self, root: str | Path, job_workers: int = 1,
                 campaign_workers: int | None = None, recover: bool = True,
                 dist_plane=None, replica_id: str | None = None,
                 claim_ttl_s: float = DEFAULT_CLAIM_TTL_S,
                 heartbeat_s: float | None = None,
                 scan_interval_s: float = DEFAULT_SCAN_INTERVAL_S):
        if job_workers < 1:
            raise ValueError("job_workers must be >= 1")
        if claim_ttl_s <= 0:
            raise ValueError("claim_ttl_s must be positive")
        if heartbeat_s is None:
            heartbeat_s = claim_ttl_s / 4.0
        if not 0 < heartbeat_s < claim_ttl_s:
            raise ValueError("heartbeat_s must be in (0, claim_ttl_s)")
        if scan_interval_s <= 0:
            raise ValueError("scan_interval_s must be positive")
        self.dist_plane = dist_plane
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.boundaries_dir = self.root / "boundaries"
        self.fronts_dir = self.root / "fronts"
        self.compose_cache_dir = self.root / "compose-cache"
        for d in (self.jobs_dir, self.boundaries_dir, self.fronts_dir):
            d.mkdir(parents=True, exist_ok=True)
        self.campaign_workers = campaign_workers
        self.replica_id = replica_id or f"r{os.getpid()}"
        self.claim_ttl_s = float(claim_ttl_s)
        self.heartbeat_s = float(heartbeat_s)
        self.scan_interval_s = float(scan_interval_s)
        self.recover = recover
        #: failures of the terminal-transition path that were survived
        #: (mirrors the ``serve.jobs.finish_errors`` counter)
        self.finish_errors = 0
        self._queue: queue.Queue[str | None] = queue.Queue()
        self._cancel_events: dict[str, threading.Event] = {}
        self._lost_events: dict[str, threading.Event] = {}
        self._manifest_lock = threading.Lock()
        self._state_lock = threading.Lock()  # _owned/_pending/_local
        self._owned: set[str] = set()        # claims held by this manager
        self._pending: set[str] = set()      # enqueued, not yet picked up
        self._local: set[str] = set()        # submitted through this manager
        self._closed = False
        self._stop = threading.Event()
        if recover:
            self._scan_for_claimable()
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-job-worker-{i}", daemon=True)
            for i in range(job_workers)
        ]
        for t in self._threads:
            t.start()
        self._heartbeat_thread = threading.Thread(
            target=self._heartbeat_loop, name="repro-job-heartbeat",
            daemon=True)
        self._heartbeat_thread.start()
        self._scan_thread = threading.Thread(
            target=self._scan_loop, name="repro-job-scan", daemon=True)
        self._scan_thread.start()

    # ------------------------------------------------------------- manifests

    def _job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def _manifest_path(self, job_id: str) -> Path:
        return self._job_dir(job_id) / "job.json"

    def events_path(self, job_id: str) -> Path:
        return self._job_dir(job_id) / "events.ndjson"

    def _claim_path(self, job_id: str) -> Path:
        return self._job_dir(job_id) / "claim"

    def _cancel_marker_path(self, job_id: str) -> Path:
        return self._job_dir(job_id) / "cancel"

    def _read_manifest(self, job_id: str) -> dict:
        path = self._manifest_path(job_id)
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            raise JobNotFoundError(job_id) from None

    def _update_manifest(self, job_id: str, **fields) -> dict:
        with self._manifest_lock:
            manifest = self._read_manifest(job_id)
            manifest.update(fields)
            atomic_write_json(self._manifest_path(job_id), manifest)
            return manifest

    def _transition(self, job_id: str, state: str,
                    expect: tuple[str, ...], event_extra: dict | None = None,
                    **fields) -> dict | None:
        """Compare-and-swap state transition under the manifest lock.

        Refuses (returns ``None``) when the manifest is already terminal
        or not in ``expect`` — a worker can therefore never resurrect a
        job another thread cancelled, and a duplicate finisher can never
        overwrite the first terminal verdict.  The state event is
        appended *before* the manifest flips (both under the lock), so a
        streamer that observes the new state finds its event on disk and
        event order matches manifest order.
        """
        with self._manifest_lock:
            manifest = self._read_manifest(job_id)
            current = manifest["state"]
            if current in TERMINAL_STATES or current not in expect:
                return None
            event = {"event": "state", "state": state,
                     "replica": self.replica_id, **(event_extra or {})}
            self._append_event(job_id, event)
            manifest.update(state=state, **fields)
            atomic_write_json(self._manifest_path(job_id), manifest)
            return manifest

    def _append_event(self, job_id: str, event: dict) -> None:
        line = json.dumps({"t": _utcnow(), **event}, sort_keys=True)
        with open(self.events_path(job_id), "a") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    # --------------------------------------------------------------- claims

    def _read_claim(self, job_id: str) -> dict | None:
        """The job's current claim, or ``None`` (missing or unreadable —
        an unreadable claim is treated as stale by callers)."""
        try:
            return json.loads(self._claim_path(job_id).read_text())
        except (OSError, json.JSONDecodeError, ValueError):
            return None

    @staticmethod
    def _claim_fresh(claim: dict | None) -> bool:
        if not isinstance(claim, dict):
            return False
        try:
            return _utcnow() < float(claim["hb_unix"]) + float(claim["ttl_s"])
        except (KeyError, TypeError, ValueError):
            return False

    def _claim_payload(self) -> bytes:
        doc = {"replica": self.replica_id, "pid": os.getpid(),
               "hb_unix": _utcnow(), "ttl_s": self.claim_ttl_s}
        return (json.dumps(doc, sort_keys=True) + "\n").encode()

    def _write_claim_excl(self, path: Path) -> bool:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        except FileNotFoundError:
            return False  # job dir vanished underneath us
        try:
            os.write(fd, self._claim_payload())
            os.fsync(fd)
        finally:
            os.close(fd)
        return True

    def _steal_lock_path(self, job_id: str) -> Path:
        return self._job_dir(job_id) / "claim.steal"

    def _acquire_steal_lock(self, job_id: str) -> bool:
        """One stealer at a time per job.

        A live takeover holds the lock for milliseconds, so a lock file
        older than the claim ttl was leaked by a stealer that died
        mid-steal; remove it and back off — the next scan pass retries.
        """
        path = self._steal_lock_path(job_id)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            try:
                if path.stat().st_mtime < _utcnow() - self.claim_ttl_s:
                    path.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        except FileNotFoundError:
            return False  # job dir vanished underneath us
        os.close(fd)
        return True

    def _try_claim(self, job_id: str) -> bool:
        """Acquire the job's claim; exactly one replica can succeed.

        The fast path is an ``O_CREAT | O_EXCL`` create.  When a claim
        already exists and is stale, takeover is serialized through a
        per-job steal lock: the lock holder re-reads the claim (it may
        have been refreshed — or already stolen — since the caller
        first looked), renames it to a unique tombstone and does the
        fresh ``O_EXCL`` create.  Without the lock, a second stealer
        acting on a pre-takeover read could tombstone the first
        stealer's *fresh* claim and both would think they own the job.
        """
        path = self._claim_path(job_id)
        if not self._write_claim_excl(path):
            if self._claim_fresh(self._read_claim(job_id)):
                return False
            if not self._acquire_steal_lock(job_id):
                return False  # another stealer is mid-takeover
            try:
                claim = self._read_claim(job_id)
                if self._claim_fresh(claim):
                    return False  # refreshed or stolen since we looked
                if not path.exists():
                    # released (terminal) or torn down; nothing to steal
                    return False
                tombstone = path.with_name(
                    f"claim.stale-{uuid.uuid4().hex[:8]}")
                try:
                    os.rename(path, tombstone)
                except OSError:
                    return False
                tombstone.unlink(missing_ok=True)
                if not self._write_claim_excl(path):
                    return False
            finally:
                self._steal_lock_path(job_id).unlink(missing_ok=True)
            _metrics.inc("serve.claims.takeovers")
        with self._state_lock:
            self._owned.add(job_id)
        self._lost_events[job_id] = threading.Event()
        _metrics.inc("serve.claims.acquired")
        _metrics.set_gauge("serve.jobs.claimed", len(self._owned))
        return True

    def _release_claim(self, job_id: str) -> None:
        with self._state_lock:
            self._owned.discard(job_id)
        if self._lost_events.get(job_id, threading.Event()).is_set():
            return  # the claim is someone else's now; don't unlink theirs
        self._claim_path(job_id).unlink(missing_ok=True)
        _metrics.set_gauge("serve.jobs.claimed", len(self._owned))

    def _refresh_claims(self) -> None:
        """Rewrite every owned claim with a fresh heartbeat.

        Re-reads the claim first: if it is no longer ours (a stale
        takeover happened while this process was stalled), the job is
        flagged *lost* so the campaign aborts at its next progress tick
        instead of split-braining with the new owner.
        """
        with self._state_lock:
            owned = list(self._owned)
        for job_id in owned:
            claim = self._read_claim(job_id)
            if (not isinstance(claim, dict)
                    or claim.get("replica") != self.replica_id
                    or claim.get("pid") != os.getpid()):
                self._mark_lost(job_id)
                continue
            path = self._claim_path(job_id)
            tmp = path.with_name(
                f"claim.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
            try:
                tmp.write_bytes(self._claim_payload())
                os.replace(tmp, path)
            except OSError:
                self._mark_lost(job_id)
            finally:
                tmp.unlink(missing_ok=True)

    def _mark_lost(self, job_id: str) -> None:
        with self._state_lock:
            self._owned.discard(job_id)
        event = self._lost_events.get(job_id)
        if event is not None and not event.is_set():
            event.set()
            _metrics.inc("serve.claims.lost")
            _metrics.set_gauge("serve.jobs.claimed", len(self._owned))

    def claimed_jobs(self) -> list[str]:
        """Ids of the jobs this manager currently holds claims for."""
        with self._state_lock:
            return sorted(self._owned)

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            self._refresh_claims()

    # ------------------------------------------------------------ discovery

    def _enqueue(self, job_id: str) -> None:
        with self._state_lock:
            if job_id in self._pending or job_id in self._owned:
                return
            self._pending.add(job_id)
        self._queue.put(job_id)

    def _scan_for_claimable(self) -> None:
        """Enqueue every job any replica left runnable: queued jobs
        without a fresh claim, and running jobs whose claim went stale
        (their owner died — the checkpoint makes resume exact)."""
        claimable = []
        for manifest in self.list():
            if manifest["state"] in TERMINAL_STATES:
                continue
            job_id = manifest["id"]
            with self._state_lock:
                skip = job_id in self._owned or (
                    not self.recover and job_id not in self._local)
            if skip:
                continue
            if self._claim_fresh(self._read_claim(job_id)):
                continue
            claimable.append((manifest.get("created_unix") or 0, job_id))
        # Oldest first: adopted work keeps its original submit order.
        for _, job_id in sorted(claimable):
            self._enqueue(job_id)
        # Tombstones a crashed stealer left behind are dead weight.
        cutoff = _utcnow() - self.claim_ttl_s
        for tomb in self.jobs_dir.glob("*/claim.stale-*"):
            try:
                if tomb.stat().st_mtime < cutoff:
                    tomb.unlink(missing_ok=True)
            except OSError:
                continue

    def _scan_loop(self) -> None:
        while not self._stop.wait(self.scan_interval_s):
            try:
                self._scan_for_claimable()
            except Exception:  # noqa: BLE001 — scanner must survive
                _metrics.inc("serve.jobs.scan_errors")

    # ------------------------------------------------------------ public API

    def submit(self, request: JobRequest) -> dict:
        """Persist and enqueue a job; returns the initial manifest."""
        if self._closed:
            raise RuntimeError("JobManager is closed")
        if request.options.get("executor") == "dist" \
                and self.dist_plane is None:
            raise ValueError(
                'options.executor="dist" needs a service started with a '
                "distributed plane (repro serve --dist-port)")
        job_id = "j" + uuid.uuid4().hex[:12]
        job_dir = self._job_dir(job_id)
        job_dir.mkdir(parents=True)
        manifest = {
            "schema_version": MANIFEST_VERSION,
            "id": job_id,
            "state": "queued",
            "request": request.to_dict(),
            "workload_key": None,
            "replica": None,
            "created_unix": _utcnow(),
            "started_unix": None,
            "finished_unix": None,
            "error": None,
            "artifacts": {},
            "summary": {},
        }
        atomic_write_json(self._manifest_path(job_id), manifest)
        self._append_event(job_id, {"event": "state", "state": "queued"})
        self._cancel_events[job_id] = threading.Event()
        with self._state_lock:
            self._local.add(job_id)
        self._enqueue(job_id)
        _metrics.inc("serve.jobs.submitted")
        return manifest

    def get(self, job_id: str) -> dict:
        """The job's current manifest (raises :class:`JobNotFoundError`)."""
        return self._read_manifest(job_id)

    def list(self) -> list[dict]:
        """All manifests under the root, newest first."""
        manifests = []
        for path in self.jobs_dir.glob("*/job.json"):
            try:
                manifests.append(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError):
                continue  # half-created or foreign dir: not a job
        manifests.sort(key=lambda m: m.get("created_unix") or 0,
                       reverse=True)
        return manifests

    def _cancel_requested(self, job_id: str) -> bool:
        event = self._cancel_events.get(job_id)
        if event is not None and event.is_set():
            return True
        return self._cancel_marker_path(job_id).exists()

    def cancel(self, job_id: str) -> dict:
        """Request cancellation; queued jobs flip immediately, running
        jobs (on any replica) abort at their next progress update."""
        manifest = self._read_manifest(job_id)
        if manifest["state"] in TERMINAL_STATES:
            return manifest
        event = self._cancel_events.setdefault(job_id, threading.Event())
        event.set()
        # Durable marker: the claim owner may be another process, whose
        # progress hook polls for this file.
        try:
            self._cancel_marker_path(job_id).touch()
        except OSError:
            pass  # job dir vanished; the terminal check below re-reads
        cancelled = self._transition(job_id, "cancelled", expect=("queued",),
                                     finished_unix=_utcnow())
        if cancelled is not None:
            _metrics.inc("serve.jobs.cancelled")
            return cancelled
        return self._read_manifest(job_id)

    def wait(self, job_id: str, timeout: float | None = None,
             poll_s: float = 0.05) -> dict:
        """Block until the job reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            manifest = self._read_manifest(job_id)
            if manifest["state"] in TERMINAL_STATES:
                return manifest
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still {manifest['state']!r} "
                    f"after {timeout}s")
            time.sleep(poll_s)

    def boundary_path(self, key: str) -> Path:
        return self.boundaries_dir / f"boundary-{key}.npz"

    def front_path(self, key: str) -> Path:
        return self.fronts_dir / f"front-{key}.npz"

    def front_keys(self) -> list[str]:
        """Workload keys with a published Pareto front."""
        return sorted(p.name[len("front-"):-len(".npz")]
                      for p in self.fronts_dir.glob("front-*.npz"))

    def close(self, wait: bool = True) -> None:
        """Stop the worker pool (running campaigns finish their job)."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for t in self._threads:
                t.join()
            self._heartbeat_thread.join(timeout=5)
            self._scan_thread.join(timeout=5)

    def drain(self) -> None:
        """Graceful shutdown: record the drain, finish running jobs.

        Every job this replica owns or enqueued locally that is still
        ``queued``/``running`` gets a fsynced ``draining`` event (so an
        operator tailing the stream knows the interruption was
        deliberate), then the worker pool is joined — running campaigns
        finish their job; queued jobs stay queued (they checkpoint
        nothing) for another replica or the next process.  Idempotent.
        """
        if self._closed:
            return
        with self._state_lock:
            mine = self._owned | self._local
        for manifest in self.list():
            if manifest["id"] in mine \
                    and manifest["state"] in ("queued", "running"):
                try:
                    self._append_event(
                        manifest["id"],
                        {"event": "draining", "replica": self.replica_id})
                except OSError:
                    pass
        self.close(wait=True)

    # ------------------------------------------------------------ job runner

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._state_lock:
                self._pending.discard(job_id)
            try:
                self._maybe_run(job_id)
            except Exception as exc:  # noqa: BLE001 — worker must survive
                # The failure path itself can fail (the terminal event
                # append fsyncs); a dead worker thread would silently
                # shrink the pool, so survive and count it instead.
                try:
                    self._finish(job_id, "failed",
                                 error=f"{type(exc).__name__}: {exc}")
                except Exception:  # noqa: BLE001
                    self.finish_errors += 1
                    _metrics.inc("serve.jobs.finish_errors")

    def _maybe_run(self, job_id: str) -> None:
        """Claim the job and run it; silently yields to faster replicas."""
        try:
            manifest = self._read_manifest(job_id)
        except JobNotFoundError:
            return
        if manifest["state"] in TERMINAL_STATES:
            return  # cancelled (or finished elsewhere) while enqueued
        if not self._try_claim(job_id):
            return  # another replica owns it
        try:
            # Re-read under the claim: the state may have flipped between
            # the optimistic check above and the claim landing.
            manifest = self._read_manifest(job_id)
            if manifest["state"] in TERMINAL_STATES:
                return
            if manifest["state"] == "running":
                # The previous owner died mid-run (stale claim); the
                # campaign resumes from its checkpoint.
                self._append_event(job_id, {"event": "recovered",
                                            "replica": self.replica_id})
                _metrics.inc("serve.jobs.recovered")
            self._run_job(job_id, manifest)
        except JobNotFoundError:
            pass  # job dir torn down underneath us
        finally:
            self._release_claim(job_id)

    def _finish(self, job_id: str, state: str, error: str | None = None,
                **fields) -> bool:
        """Terminal transition; refuses to overwrite an earlier verdict."""
        lost = self._lost_events.get(job_id)
        if lost is not None and lost.is_set():
            # Another replica owns the job now; its verdict is the one
            # that counts (re-running a chunk is bit-identical anyway).
            return False
        extra = {"error": error} if error is not None else None
        manifest = self._transition(job_id, state,
                                    expect=("queued", "running"),
                                    event_extra=extra, error=error,
                                    finished_unix=_utcnow(), **fields)
        if manifest is None:
            return False
        _metrics.inc(f"serve.jobs.{state}")
        return True

    def _progress_hook(self, job_id: str) -> CallbackProgress:
        cancel = self._cancel_events.setdefault(job_id, threading.Event())
        lost = self._lost_events.setdefault(job_id, threading.Event())
        last = {"t": float("-inf")}

        def hook(done: int, total: int, phase: int) -> None:
            if lost.is_set():
                raise JobClaimLost(job_id)
            if cancel.is_set():
                raise JobCancelled(job_id)
            now = time.monotonic()
            if done < total and now - last["t"] < EVENT_THROTTLE_S:
                return
            last["t"] = now
            # The durable marker is how a cancel issued on another
            # replica reaches the claim owner; polling it rides the
            # event throttle so it costs one stat() per persisted event.
            if self._cancel_marker_path(job_id).exists():
                cancel.set()
                raise JobCancelled(job_id)
            self._append_event(job_id, {"event": "progress", "done": done,
                                        "total": total, "phase": phase})

        return CallbackProgress(hook)

    def _build_config(self, request: JobRequest, job_dir: Path,
                      workload, progress) -> CampaignConfig:
        opts = request.options
        n_workers = opts.get("n_workers")
        if n_workers and self.campaign_workers:
            n_workers = min(int(n_workers), self.campaign_workers)
        retry_policy = None
        if opts.get("max_retries") is not None \
                or opts.get("task_timeout") is not None:
            retry_policy = RetryPolicy(
                max_retries=int(opts.get("max_retries", 2)),
                task_timeout=opts.get("task_timeout"))
        executor = opts.get("executor", "auto")
        common = dict(
            n_workers=None if executor == "serial" else n_workers,
            dist=self.dist_plane if executor == "dist" else None,
            progress=progress,
            retry_policy=retry_policy,
        )
        if opts.get("batch_budget") is not None:
            common["batch_budget"] = int(opts["batch_budget"])
        if request.mode in _COMPOSITIONAL_MODES:
            compose = {"cache_dir": str(self.compose_cache_dir)}
            for key in ("n_sections", "cuts", "slack"):
                if opts.get(key) is not None:
                    compose[key] = opts[key]
            return CampaignConfig(mode="compositional", compose=compose,
                                  **common)
        checkpoint = CampaignCheckpoint(job_dir / "checkpoint", workload,
                                        resume=True)
        if request.mode == "exhaustive":
            return CampaignConfig(mode="exhaustive", checkpoint=checkpoint,
                                  **common)
        if request.mode == "sample":
            return CampaignConfig(
                mode="monte_carlo",
                sampling_rate=float(opts["sampling_rate"]),
                seed=int(opts.get("seed", 0)),
                use_filter=bool(opts.get("use_filter", True)),
                exact_rule=bool(opts.get("exact_rule", True)),
                checkpoint=checkpoint, **common)
        progressive = ProgressiveConfig(
            round_fraction=float(opts.get("round_fraction", 0.001)),
            stop_masked_fraction=float(
                opts.get("stop_masked_fraction", 0.05)))
        return CampaignConfig(
            mode="adaptive", seed=int(opts.get("seed", 0)),
            progressive=progressive,
            use_filter=bool(opts.get("use_filter", True)),
            exact_rule=bool(opts.get("exact_rule", True)),
            checkpoint=checkpoint, **common)

    def _publish_artifact(self, src: Path, dst: Path) -> Path:
        """Atomically publish a job artifact under a shared key path.

        The tmp name is unique per writer (pid + random suffix): two
        jobs for the same workload key finishing concurrently — two
        ``job_workers`` threads, or two replicas — must never interleave
        writes into one tmp file or unlink each other's tmp, or a torn
        file could be renamed into the published path.  Whichever
        ``os.replace`` lands last wins with a complete file either way.
        """
        tmp = dst.with_name(
            f"{dst.name}.{os.getpid()}.{uuid.uuid4().hex[:8]}.tmp")
        try:
            shutil.copyfile(src, tmp)
            os.replace(tmp, dst)
        finally:
            tmp.unlink(missing_ok=True)
        return dst

    def _publish_boundary(self, src: Path, key: str) -> Path:
        return self._publish_artifact(src, self.boundary_path(key))

    def _publish_front(self, src: Path, key: str) -> Path:
        return self._publish_artifact(src, self.front_path(key))

    def _run_job(self, job_id: str, manifest: dict) -> None:
        request = JobRequest.from_dict(manifest["request"])
        job_dir = self._job_dir(job_id)
        t0 = time.perf_counter()
        # A cancel may have landed while the job sat in the queue (or
        # between the claim and here); never start a cancelled campaign.
        if self._cancel_requested(job_id):
            self._finish(job_id, "cancelled")
            return
        if request.mode == "optimize":
            self._run_optimize_job(job_id, request, job_dir, t0)
            return
        try:
            workload = kernels.build(request.kernel, **request.params)
            key = workload_key(workload.spec, workload.tolerance,
                               workload.norm)
            started = self._transition(
                job_id, "running", expect=("queued", "running"),
                event_extra={"workload_key": key},
                started_unix=_utcnow(), workload_key=key,
                replica=self.replica_id)
            if started is None:
                return  # cancelled in the submit->claim window
            config = self._build_config(request, job_dir, workload,
                                        self._progress_hook(job_id))
            result = run_campaign(workload, config)
        except JobClaimLost:
            return  # the new owner drives the state machine now
        except JobCancelled:
            self._finish(job_id, "cancelled")
            return
        except Exception as exc:  # campaign/build/validation failure
            self._finish(job_id, "failed",
                         error=f"{type(exc).__name__}: {exc}")
            return

        artifacts: dict[str, str] = {}
        summary: dict = {"wall_s": time.perf_counter() - t0}
        boundary = result.boundary
        if result.exhaustive is not None:
            save_exhaustive(job_dir / "exhaustive.npz", result.exhaustive)
            artifacts["exhaustive"] = "exhaustive.npz"
            summary["n_experiments"] = int(result.exhaustive.outcomes.size)
            summary["sdc_ratio"] = result.exhaustive.sdc_ratio()
            summary["outcome_counts"] = result.exhaustive.outcome_counts()
            if boundary is None:
                # Ground truth subsumes inference: publish the exact
                # boundary so the query API serves exhaustive jobs too.
                boundary = exhaustive_boundary(result.exhaustive)
        if result.sampled is not None:
            save_sampled(job_dir / "sampled.npz", result.sampled)
            artifacts["sampled"] = "sampled.npz"
            summary["n_experiments"] = int(result.sampled.n_samples)
            summary["sampled_sdc_ratio"] = result.sampled.sdc_ratio()
            summary["outcome_counts"] = result.sampled.outcome_counts()
        if boundary is not None:
            save_boundary(job_dir / "boundary.npz", boundary)
            artifacts["boundary"] = "boundary.npz"
            summary["boundary"] = boundary.stats()
            self._publish_boundary(job_dir / "boundary.npz", key)
            artifacts["published_boundary"] = str(self.boundary_path(key))
        if getattr(result, "rounds", None):
            summary["rounds"] = int(result.rounds)
        if getattr(result, "cache_hits", None) is not None \
                and hasattr(result, "n_sections"):
            summary["n_sections"] = int(result.n_sections)
            summary["cache_hits"] = int(result.cache_hits)
            summary["n_experiments"] = int(result.n_experiments)
        if result.health is not None and not result.health.clean:
            summary["resilience"] = result.health.summary()
        self._finish(job_id, "done", artifacts=artifacts, summary=summary)

    def _run_optimize_job(self, job_id: str, request: JobRequest,
                          job_dir: Path, t0: float) -> None:
        """Drive one protection-synthesis job end to end.

        Two stages, both resumable after a SIGKILL/claim takeover: the
        compositional campaign re-summarizes only cache-miss sections
        (the summary cache is shared across jobs and replicas), and the
        placement search resumes bit-identically from its last completed
        generation (:class:`~repro.optimize.SearchCheckpoint` in the job
        dir, content-keyed by workload + search config).
        """
        opts = request.options
        try:
            workload = kernels.build(request.kernel, **request.params)
            key = workload_key(workload.spec, workload.tolerance,
                               workload.norm)
            started = self._transition(
                job_id, "running", expect=("queued", "running"),
                event_extra={"workload_key": key},
                started_unix=_utcnow(), workload_key=key,
                replica=self.replica_id)
            if started is None:
                return  # cancelled in the submit->claim window
            progress = self._progress_hook(job_id)

            result = run_campaign(workload, self._build_config(
                request, job_dir, workload, progress))

            search_cfg = _search_config_from_options(opts)
            model = build_cost_model(workload, modes=search_cfg.modes,
                                     margin=float(opts.get("margin", 0.5)))
            evaluator = EnvelopeEvaluator.from_summaries(
                model, result.summaries, result.boundary.space,
                workload.tolerance, float(opts.get("slack", 1.0)))
            checkpoint = SearchCheckpoint(
                job_dir / "search-checkpoint.npz",
                content_key=f"{key}:{search_cfg.content_key()}")
            synth = synthesize(
                evaluator, search_cfg,
                predictor=BoundaryPredictor(workload.trace),
                boundary=result.boundary,
                checkpoint=checkpoint, progress=progress)
        except JobClaimLost:
            return  # the new owner drives the state machine now
        except JobCancelled:
            self._finish(job_id, "cancelled")
            return
        except Exception as exc:  # campaign/search/validation failure
            self._finish(job_id, "failed",
                         error=f"{type(exc).__name__}: {exc}")
            return

        artifacts: dict[str, str] = {}
        summary: dict = {
            "wall_s": time.perf_counter() - t0,
            "n_sections": int(result.n_sections),
            "cache_hits": int(result.cache_hits),
            "n_experiments": int(result.n_experiments),
            "n_candidates": int(synth.n_candidates),
            "front_size": int(synth.front.n_points),
            "unprotected_sdc": float(evaluator.unprotected_sdc),
        }
        save_boundary(job_dir / "boundary.npz", result.boundary)
        artifacts["boundary"] = "boundary.npz"
        summary["boundary"] = result.boundary.stats()
        self._publish_boundary(job_dir / "boundary.npz", key)
        artifacts["published_boundary"] = str(self.boundary_path(key))

        meta = {
            "workload_key": key,
            "kernel": request.kernel,
            "params": dict(request.params),
            "tolerance": workload.tolerance,
            "target_sdc": search_cfg.target_sdc,
            "budget": search_cfg.budget,
            "search_key": search_cfg.content_key(),
            "n_candidates": int(synth.n_candidates),
            "greedy": synth.greedy,
        }
        save_front(job_dir / "front.npz", synth.front, meta=meta)
        artifacts["front"] = "front.npz"
        self._publish_front(job_dir / "front.npz", key)
        artifacts["published_front"] = str(self.front_path(key))

        if synth.greedy is not None:
            summary["greedy"] = synth.greedy
        chosen = synth.chosen_index(search_cfg)
        if chosen is not None:
            summary["chosen"] = {
                "cost": float(synth.front.costs[chosen]),
                "residual_sdc": float(synth.front.residuals[chosen]),
                "n_protected": int(
                    np.count_nonzero(synth.front.placements[chosen])),
                "mode_counts": synth.front.mode_counts(chosen),
            }
        self._finish(job_id, "done", artifacts=artifacts, summary=summary)

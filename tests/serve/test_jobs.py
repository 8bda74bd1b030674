"""JobManager: the state machine, persistence, recovery and cancellation."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro import kernels
from repro.core.boundary import exhaustive_boundary
from repro.io.store import load_boundary
from repro.serve.jobs import (
    TERMINAL_STATES,
    JobManager,
    JobNotFoundError,
    JobRequest,
)

CG_PARAMS = {"n": 8, "iters": 8}


def sample_request(**extra):
    options = {"sampling_rate": 0.05, "seed": 1, **extra}
    return JobRequest(kernel="cg", params=CG_PARAMS, mode="sample",
                      options=options)


def read_events(manager, job_id):
    lines = manager.events_path(job_id).read_text().splitlines()
    return [json.loads(line) for line in lines]


@pytest.fixture()
def manager(tmp_path):
    m = JobManager(tmp_path / "svc", job_workers=1)
    yield m
    m.close(wait=False)


class TestBuildConfig:
    def test_executor_option_selects_the_plane(self, tmp_path):
        """``options.executor`` maps onto ``dist`` and ``n_workers``."""
        plane = object()  # only its identity is read here
        m = JobManager(tmp_path / "svc", dist_plane=plane)
        workload = kernels.build("cg", **CG_PARAMS)

        def config(executor):
            request = JobRequest(kernel="cg", params=CG_PARAMS,
                                 mode="exhaustive",
                                 options={"n_workers": 2,
                                          "executor": executor})
            return m._build_config(request, tmp_path / "job", workload,
                                   None)

        try:
            auto, serial, dist = (config(kind)
                                  for kind in ("auto", "serial", "dist"))
            assert (auto.n_workers, auto.dist) == (2, None)
            assert (serial.n_workers, serial.dist) == (None, None)
            assert (dist.n_workers, dist.dist) == (2, plane)
        finally:
            m.close(wait=False)


class TestJobRequest:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown job mode"):
            JobRequest(kernel="cg", mode="turbo")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            JobRequest(kernel="nope", mode="exhaustive")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="sampling_rte"):
            JobRequest(kernel="cg", mode="sample",
                       options={"sampling_rate": 0.1, "sampling_rte": 0.1})
        # one replay engine: the former backend selector is unknown too
        with pytest.raises(ValueError, match="backend"):
            JobRequest(kernel="cg", mode="exhaustive",
                       options={"backend": "compiled"})

    def test_removed_executor_knobs_rejected(self):
        for kind in ("threads", "processes"):  # n_workers picks the pool
            with pytest.raises(ValueError,
                               match=f"unknown executor '{kind}'"):
                JobRequest(kernel="cg", mode="exhaustive",
                           options={"executor": kind})
        with pytest.raises(ValueError, match="autotune"):
            JobRequest(kernel="cg", mode="exhaustive",
                       options={"autotune": True})

    def test_dist_rejected_for_compositional_modes(self):
        """Dist nodes run only phase-A, phase-B and round tasks, so modes that
        run section tasks fail at submit, not on their first lease."""
        for mode, extra in (("compose", {}),
                            ("optimize", {"target_sdc": 0.4})):
            with pytest.raises(ValueError, match="executor"):
                JobRequest(kernel="cg", mode=mode,
                           options={"executor": "dist", **extra})
        JobRequest(kernel="cg", mode="exhaustive",
                   options={"executor": "dist"})

    def test_mode_specific_option_does_not_leak(self):
        # sampling_rate belongs to "sample", not "exhaustive"
        with pytest.raises(ValueError, match="unknown option"):
            JobRequest(kernel="cg", mode="exhaustive",
                       options={"sampling_rate": 0.1})

    def test_sample_requires_rate(self):
        with pytest.raises(ValueError, match="sampling_rate"):
            JobRequest(kernel="cg", mode="sample")
        with pytest.raises(ValueError, match="sampling_rate"):
            JobRequest(kernel="cg", mode="sample",
                       options={"sampling_rate": 1.5})

    def test_from_dict_round_trip(self):
        req = sample_request()
        assert JobRequest.from_dict(req.to_dict()) == req

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown request field"):
            JobRequest.from_dict({"kernel": "cg", "nonsense": 1})
        with pytest.raises(ValueError, match="kernel"):
            JobRequest.from_dict({"mode": "exhaustive"})


class TestLifecycle:
    def test_sample_job_completes_and_publishes(self, manager):
        job = manager.submit(sample_request())
        assert job["state"] == "queued"
        final = manager.wait(job["id"], timeout=120)
        assert final["state"] == "done"
        assert final["error"] is None
        assert final["workload_key"].startswith("cg-")
        assert final["summary"]["n_experiments"] > 0
        assert "boundary" in final["artifacts"]
        assert "sampled" in final["artifacts"]

        published = manager.boundary_path(final["workload_key"])
        assert published.exists()
        job_boundary = load_boundary(
            manager.jobs_dir / job["id"] / "boundary.npz")
        np.testing.assert_array_equal(
            load_boundary(published).thresholds, job_boundary.thresholds)

    def test_event_log_records_the_state_machine(self, manager):
        job = manager.submit(sample_request())
        manager.wait(job["id"], timeout=120)
        events = read_events(manager, job["id"])
        states = [e["state"] for e in events if e["event"] == "state"]
        assert states == ["queued", "running", "done"]
        progress = [e for e in events if e["event"] == "progress"]
        assert progress, "campaign progress must reach the event log"
        assert all(e["done"] <= e["total"] for e in progress)

    def test_exhaustive_job_publishes_exact_boundary(self, manager,
                                                     cg_tiny_golden):
        job = manager.submit(JobRequest(kernel="cg", params=CG_PARAMS,
                                        mode="exhaustive"))
        final = manager.wait(job["id"], timeout=300)
        assert final["state"] == "done"
        assert final["summary"]["sdc_ratio"] == cg_tiny_golden.sdc_ratio()
        published = load_boundary(
            manager.boundary_path(final["workload_key"]))
        expected = exhaustive_boundary(cg_tiny_golden)
        np.testing.assert_array_equal(published.thresholds,
                                      expected.thresholds)

    def test_compose_job_uses_the_shared_summary_cache(self, manager):
        req = JobRequest(kernel="cg", params=CG_PARAMS, mode="compose")
        first = manager.wait(manager.submit(req)["id"], timeout=300)
        second = manager.wait(manager.submit(req)["id"], timeout=300)
        assert first["state"] == second["state"] == "done"
        assert first["summary"]["cache_hits"] == 0
        assert second["summary"]["cache_hits"] == \
            second["summary"]["n_sections"]

    def test_failed_job_records_the_error(self, manager):
        job = manager.submit(JobRequest(kernel="cg",
                                        params={"n": 8, "bogus": 3},
                                        mode="exhaustive"))
        final = manager.wait(job["id"], timeout=120)
        assert final["state"] == "failed"
        assert "bogus" in final["error"]
        states = [e["state"] for e in read_events(manager, job["id"])
                  if e["event"] == "state"]
        assert states[-1] == "failed"

    def test_unknown_job_raises(self, manager):
        with pytest.raises(JobNotFoundError):
            manager.get("jdoesnotexist")
        with pytest.raises(JobNotFoundError):
            manager.cancel("jdoesnotexist")

    def test_list_newest_first(self, manager):
        a = manager.submit(sample_request())
        b = manager.submit(sample_request(seed=2))
        manager.wait(a["id"], timeout=120)
        manager.wait(b["id"], timeout=120)
        listed = [m["id"] for m in manager.list()]
        assert listed == [b["id"], a["id"]]


class TestCancellation:
    def test_cancel_queued_job(self, tmp_path):
        manager = JobManager(tmp_path / "svc", job_workers=1)
        gate = threading.Event()
        original = manager._run_job
        manager._run_job = lambda job_id, manifest: gate.wait()
        try:
            blocker = manager.submit(sample_request())
            victim = manager.submit(sample_request(seed=9))
            deadline = time.monotonic() + 10
            # wait until the single worker is parked on the blocker so
            # the victim is deterministically still queued
            while manager._queue.qsize() > 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            cancelled = manager.cancel(victim["id"])
            assert cancelled["state"] == "cancelled"
            assert manager.get(victim["id"])["state"] == "cancelled"
            gate.set()
            manager._run_job = original
            # the blocker is unaffected; the victim never runs
            assert manager.get(blocker["id"])["state"] != "cancelled"
        finally:
            gate.set()
            manager.close(wait=False)

    def test_cancel_running_job_aborts_at_next_progress(self, tmp_path):
        manager = JobManager(tmp_path / "svc", job_workers=1)
        try:
            job = manager.submit(JobRequest(
                kernel="cg", params=CG_PARAMS, mode="exhaustive",
                options={"batch_budget": 64}))
            deadline = time.monotonic() + 60
            while manager.get(job["id"])["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            manager.cancel(job["id"])
            final = manager.wait(job["id"], timeout=120)
            assert final["state"] == "cancelled"
            assert not list(manager.boundaries_dir.glob("*.npz"))
            assert "boundary" not in final["artifacts"]
        finally:
            manager.close(wait=False)

    def test_cancel_terminal_job_is_a_no_op(self, manager):
        job = manager.submit(sample_request())
        final = manager.wait(job["id"], timeout=120)
        assert manager.cancel(job["id"])["state"] == final["state"] == "done"


class TestRecovery:
    def test_restart_reenqueues_unfinished_jobs(self, tmp_path):
        root = tmp_path / "svc"
        dead = JobManager(root, job_workers=1, claim_ttl_s=0.5,
                          heartbeat_s=0.1, scan_interval_s=0.1)
        park = threading.Event()

        def crash_mid_run(job_id, manifest):
            # mark the job running (as a real worker would), then hang
            dead._transition(job_id, "running", expect=("queued",),
                             started_unix=time.time(),
                             replica=dead.replica_id)
            park.wait()

        dead._run_job = crash_mid_run
        job = dead.submit(sample_request())
        deadline = time.monotonic() + 10
        while dead.get(job["id"])["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # simulate SIGKILL: heartbeats stop but the claim file stays
        # behind, so it must go stale and be taken over
        dead._stop.set()
        dead._heartbeat_thread.join(timeout=10)
        revived = JobManager(root, job_workers=1, claim_ttl_s=0.5,
                             heartbeat_s=0.1, scan_interval_s=0.1)
        try:
            final = revived.wait(job["id"], timeout=120)
            assert final["state"] == "done"
            events = read_events(revived, job["id"])
            assert any(e["event"] == "recovered" for e in events)
        finally:
            park.set()
            revived.close(wait=False)
            dead.close(wait=False)

    def test_recover_false_leaves_jobs_queued(self, tmp_path):
        root = tmp_path / "svc"
        dead = JobManager(root, job_workers=1)
        park = threading.Event()
        dead._run_job = lambda job_id, manifest: park.wait()
        job = dead.submit(sample_request())
        idle = JobManager(root, job_workers=1, recover=False)
        try:
            time.sleep(0.2)
            assert idle.get(job["id"])["state"] not in TERMINAL_STATES
        finally:
            park.set()
            idle.close(wait=False)
            dead.close(wait=False)


class TestClaims:
    """The O_EXCL claim-file lease that arbitrates the shared job store."""

    def _bare_job(self, manager, job_id="jclaim0"):
        # A handmade queued job dir: recover=False managers ignore it,
        # so claim calls below are the only actors.
        d = manager.jobs_dir / job_id
        d.mkdir(parents=True)
        (d / "job.json").write_text(json.dumps(
            {"schema_version": 1, "id": job_id, "state": "queued",
             "created_unix": time.time()}))
        return job_id

    def test_claim_is_exclusive_across_managers(self, tmp_path):
        a = JobManager(tmp_path / "svc", recover=False, replica_id="a")
        b = JobManager(tmp_path / "svc", recover=False, replica_id="b")
        try:
            job_id = self._bare_job(a)
            assert a._try_claim(job_id)
            assert not b._try_claim(job_id)
            assert a.claimed_jobs() == [job_id]
            assert b.claimed_jobs() == []
            a._release_claim(job_id)
            assert b._try_claim(job_id)
        finally:
            a.close(wait=False)
            b.close(wait=False)

    def test_stale_claim_takeover(self, tmp_path):
        a = JobManager(tmp_path / "svc", recover=False, replica_id="dead",
                       claim_ttl_s=1.0, heartbeat_s=0.1)
        b = JobManager(tmp_path / "svc", recover=False, replica_id="stealer",
                       claim_ttl_s=1.0, heartbeat_s=0.1)
        try:
            job_id = self._bare_job(a)
            assert a._try_claim(job_id)
            assert not b._try_claim(job_id), "fresh claim must hold"
            # simulate SIGKILL of a: heartbeats stop, claim file remains
            a._stop.set()
            a._heartbeat_thread.join(timeout=10)
            deadline = time.monotonic() + 30
            while not b._try_claim(job_id):
                assert time.monotonic() < deadline, \
                    "stale claim was never taken over"
                time.sleep(0.05)
            claim = json.loads((b.jobs_dir / job_id / "claim").read_text())
            assert claim["replica"] == "stealer"
        finally:
            a.close(wait=False)
            b.close(wait=False)

    def test_exactly_one_concurrent_stealer_wins(self, tmp_path):
        root = tmp_path / "svc"
        dead = JobManager(root, recover=False, replica_id="dead",
                          claim_ttl_s=0.4, heartbeat_s=0.1)
        job_id = self._bare_job(dead)
        assert dead._try_claim(job_id)
        dead._stop.set()
        dead._heartbeat_thread.join(timeout=10)
        time.sleep(0.6)  # let the claim go stale
        stealers = [JobManager(root, recover=False, replica_id=f"s{i}",
                               claim_ttl_s=30.0) for i in range(4)]
        try:
            barrier = threading.Barrier(len(stealers))
            wins = []

            def attempt(m):
                barrier.wait()
                if m._try_claim(job_id):
                    wins.append(m.replica_id)

            threads = [threading.Thread(target=attempt, args=(m,))
                       for m in stealers]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(wins) == 1, f"stealers that won: {wins}"
            claim = json.loads((dead.jobs_dir / job_id / "claim").read_text())
            assert claim["replica"] == wins[0]
        finally:
            dead.close(wait=False)
            for m in stealers:
                m.close(wait=False)

    def test_stealer_with_stale_read_cannot_tombstone_fresh_takeover(
            self, tmp_path):
        """Regression: two stealers race a stale claim; the loser's
        pre-takeover read of the (then-stale) claim must not let it
        tombstone the winner's *fresh* claim — both would own the job.
        """
        root = tmp_path / "svc"
        dead = JobManager(root, recover=False, replica_id="dead",
                          claim_ttl_s=0.4, heartbeat_s=0.1)
        winner = JobManager(root, recover=False, replica_id="winner",
                            claim_ttl_s=30.0)
        loser = JobManager(root, recover=False, replica_id="loser",
                           claim_ttl_s=30.0)
        try:
            job_id = self._bare_job(dead)
            assert dead._try_claim(job_id)
            dead._stop.set()
            dead._heartbeat_thread.join(timeout=10)
            time.sleep(0.6)  # let the claim go stale

            stale_read = loser._read_claim(job_id)
            assert not loser._claim_fresh(stale_read)
            assert winner._try_claim(job_id)

            # The loser resumes from its torn, pre-takeover read: its
            # first look at the claim still sees the dead owner.
            real_read = loser._read_claim
            replayed = iter([stale_read])
            loser._read_claim = (
                lambda jid: next(replayed, None) or real_read(jid))
            assert not loser._try_claim(job_id)
            claim = json.loads((root / "jobs" / job_id / "claim")
                               .read_text())
            assert claim["replica"] == "winner"
        finally:
            dead.close(wait=False)
            winner.close(wait=False)
            loser.close(wait=False)

    def test_lost_claim_fences_the_old_owner(self, tmp_path):
        a = JobManager(tmp_path / "svc", recover=False, replica_id="zombie",
                       claim_ttl_s=0.4, heartbeat_s=0.1)
        b = JobManager(tmp_path / "svc", recover=False, replica_id="stealer",
                       claim_ttl_s=0.4, heartbeat_s=0.1)
        try:
            job_id = self._bare_job(a)
            assert a._try_claim(job_id)
            # a stalls (heartbeat off), the claim goes stale, b steals it
            a._stop.set()
            a._heartbeat_thread.join(timeout=10)
            time.sleep(0.6)
            assert b._try_claim(job_id)
            # a wakes up: one refresh pass discovers the theft, fences,
            # and its terminal write becomes a refused no-op
            a._refresh_claims()
            assert a._lost_events[job_id].is_set()
            assert a._finish(job_id, "failed", error="zombie verdict") \
                is False
            assert a.get(job_id)["state"] == "queued"
        finally:
            a.close(wait=False)
            b.close(wait=False)


class TestRaceRegressions:
    """Deterministic replays of the three cross-thread races."""

    def test_worker_cannot_resurrect_a_cancelled_job(self, tmp_path):
        # The cancel/start race: a worker pops the job and reads its
        # manifest, the cancel lands, then the worker proceeds with its
        # stale view.  The queued->running CAS must refuse to leave the
        # terminal state.
        manager = JobManager(tmp_path / "svc", job_workers=1)
        gate = threading.Event()
        original_run = manager._run_job
        manager._run_job = lambda job_id, manifest: gate.wait()
        try:
            manager.submit(sample_request())  # parks the only worker
            victim = manager.submit(sample_request(seed=7))
            stale_view = manager.get(victim["id"])  # the worker's read
            assert manager.cancel(victim["id"])["state"] == "cancelled"
            original_run(victim["id"], stale_view)  # replay the race
            assert manager.get(victim["id"])["state"] == "cancelled"
            states = [e["state"] for e in read_events(manager, victim["id"])
                      if e["event"] == "state"]
            assert states == ["queued", "cancelled"], \
                "a cancelled job must never reach running/done"
            assert not list(manager.boundaries_dir.glob("*.npz"))
        finally:
            gate.set()
            manager.close(wait=False)

    def test_concurrent_same_key_publish_is_atomic(self, tmp_path):
        # Two jobs for one workload key finishing together must not
        # interleave tmp-file writes or unlink each other's tmp: the
        # published file is always exactly one writer's bytes.
        manager = JobManager(tmp_path / "svc", job_workers=1)
        key = "cg-feedc0de"
        n_writers, rounds = 6, 25
        srcs, contents = [], set()
        for i in range(n_writers):
            src = tmp_path / f"payload-{i}.npz"
            src.write_bytes(bytes([i + 1]) * (256 * 1024))
            srcs.append(src)
            contents.add(src.read_bytes())
        barrier = threading.Barrier(n_writers)
        errors = []

        def publish(src):
            barrier.wait()
            try:
                for _ in range(rounds):
                    manager._publish_boundary(src, key)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=publish, args=(s,))
                   for s in srcs]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors, f"publish raced: {errors[:3]}"
            published = manager.boundary_path(key).read_bytes()
            assert published in contents, "published boundary is torn"
            assert not list(manager.boundaries_dir.glob("*.tmp*")), \
                "publish leaked tmp files"
        finally:
            manager.close(wait=False)

    def test_worker_survives_finish_failure(self, tmp_path):
        # An OSError out of the fsynced terminal event append must not
        # kill the worker thread: the pool would silently shrink to zero.
        manager = JobManager(tmp_path / "svc", job_workers=1)
        original_run = manager._run_job
        original_append = manager._append_event
        armed = threading.Event()

        def exploding_run(job_id, manifest):
            armed.set()
            raise RuntimeError("campaign exploded")

        def flaky_append(job_id, event):
            if armed.is_set():
                raise OSError(28, "No space left on device")
            original_append(job_id, event)

        manager._run_job = exploding_run
        manager._append_event = flaky_append
        try:
            manager.submit(sample_request())
            deadline = time.monotonic() + 60
            while manager.finish_errors == 0:
                assert time.monotonic() < deadline, \
                    "the finish failure was never recorded"
                time.sleep(0.01)
            # The worker survived: with the fault cleared, the same
            # thread still picks up and completes new jobs.
            manager._run_job = original_run
            manager._append_event = original_append
            armed.clear()
            healthy = manager.submit(sample_request(seed=3))
            final = manager.wait(healthy["id"], timeout=120)
            assert final["state"] == "done"
            assert manager.finish_errors >= 1
        finally:
            manager.close(wait=False)

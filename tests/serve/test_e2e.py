"""End-to-end acceptance: HTTP round trip parity and SIGKILL recovery.

Three flows the whole subsystem exists for:

* submit over HTTP, observe NDJSON progress events, and verify the
  boundary query endpoint answers bit-identically to offline
  :mod:`repro.core.prediction` over the job's own artifact;
* SIGKILL the server mid-campaign, restart it on the same root, and
  verify the job resumes from its checkpoint (completed chunks are NOT
  re-run) and still converges to the bit-identical boundary;
* run two SO_REUSEPORT replicas over one shared root, SIGKILL the one
  that claimed the job mid-campaign, and verify the *survivor* steals
  the stale claim and resumes — same chunk-adoption and bit-identity
  proof, but across processes with no restart involved.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.boundary import exhaustive_boundary
from repro.io.store import load_boundary
from repro.serve import ServiceClient

from tests.helpers import LogSnapshot, whole_records

from .conftest import CG_SAMPLE


class TestHttpParityWithOffline:
    def test_submit_stream_query_matches_offline_prediction(self, client,
                                                            service):
        job = client.submit(CG_SAMPLE["kernel"], CG_SAMPLE["params"],
                            mode="sample", options=CG_SAMPLE["options"])

        # The follow stream must deliver live progress and end with the
        # terminal event.
        events = list(client.events(job["id"], follow=True, timeout=120))
        assert events[-1]["event"] == "state"
        assert events[-1]["state"] == "done"
        progress = [e for e in events if e["event"] == "progress"]
        assert progress and progress[-1]["done"] == progress[-1]["total"]

        final = client.wait(job["id"], timeout=10)
        key = final["workload_key"]

        # Offline truth: the boundary artifact the job itself wrote.
        boundary = load_boundary(
            service.manager.jobs_dir / job["id"] / "boundary.npz")

        # Every service verdict must be bit-identical to the offline §3.3
        # predicate over that artifact: masked iff eps <= Δe_i.
        rng = np.random.default_rng(0)
        sites = rng.integers(0, boundary.n_sites, size=32)
        epsilons = 10.0 ** rng.uniform(-40, 3, size=32)
        for site, eps in zip(sites, epsilons):
            verdict = client.query_boundary(key, int(site), float(eps))
            threshold = boundary.thresholds[int(site)]
            assert verdict["threshold"] == threshold  # bit-identical float
            assert verdict["masked"] == bool(eps <= threshold)


@pytest.mark.slow
class TestSigkillRecovery:
    def _spawn(self, root: Path):
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root)],
            stdout=subprocess.PIPE, text=True, env=env)
        line = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        assert match, f"serve did not announce a port: {line!r}"
        return proc, ServiceClient(match.group(0))

    def test_killed_server_resumes_without_rerunning_chunks(self, tmp_path,
                                                            cg_tiny_golden):
        root = tmp_path / "svc"
        proc, client = self._spawn(root)
        try:
            # Small chunks -> many checkpoint records -> a kill lands
            # mid-campaign with completed work on disk.
            job = client.submit("cg", {"n": 8, "iters": 8},
                                mode="exhaustive",
                                options={"batch_budget": 64})
            job_id = job["id"]
            checkpoint = root / "jobs" / job_id / "checkpoint"

            deadline = time.monotonic() + 120
            while whole_records(checkpoint) < 3:
                assert time.monotonic() < deadline, \
                    "no checkpoint chunks appeared before the deadline"
                assert proc.poll() is None
                time.sleep(0.01)
        finally:
            proc.kill()  # SIGKILL: no cleanup, no atexit, no flush
            proc.wait(timeout=30)

        (log,) = checkpoint.glob("a-*.log")
        survivors = LogSnapshot(log)
        assert survivors.chunks
        total_chunks = -(-cg_tiny_golden.space.size // 64)
        assert len(survivors.chunks) < total_chunks, \
            "campaign finished before the kill; nothing was interrupted"

        proc, client = self._spawn(root)
        try:
            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done"
            events = list(client.events(job_id))
            assert any(e["event"] == "recovered" for e in events)

            # Completed chunks were adopted, not re-run: the log's
            # whole records are byte-for-byte untouched and none of
            # their chunks was appended again.
            survivors.assert_adopted()

            # And the result is still exact: the published boundary is
            # bit-identical to offline ground truth.
            published = load_boundary(
                root / "boundaries"
                / f"boundary-{final['workload_key']}.npz")
            expected = exhaustive_boundary(cg_tiny_golden)
            np.testing.assert_array_equal(published.thresholds,
                                          expected.thresholds)
            np.testing.assert_array_equal(published.exact, expected.exact)
        finally:
            proc.kill()
            proc.wait(timeout=30)


@pytest.mark.slow
class TestReplicaSigkillTakeover:
    """Two replicas, one port, one shared root: kill the claim owner."""

    def _spawn(self, root: Path, port: int, replica_id: str):
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root),
             "--port", str(port), "--reuse-port",
             "--replica-id", replica_id, "--claim-ttl", "2"],
            stdout=subprocess.PIPE, text=True, env=env)
        line = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        assert match, f"serve did not announce a port: {line!r}"
        return proc, match.group(0), int(match.group(1))

    def test_survivor_adopts_job_of_sigkilled_replica(self, tmp_path,
                                                      cg_tiny_golden):
        root = tmp_path / "svc"
        proc_a, url, port = self._spawn(root, 0, "rA")
        proc_b, _, _ = self._spawn(root, port, "rB")
        procs = {"rA": proc_a, "rB": proc_b}
        client = ServiceClient(url)
        try:
            job = client.submit("cg", {"n": 8, "iters": 8},
                                mode="exhaustive",
                                options={"batch_budget": 64})
            job_id = job["id"]
            job_dir = root / "jobs" / job_id
            checkpoint = job_dir / "checkpoint"
            claim_path = job_dir / "claim"

            # Wait until one replica has claimed the job AND banked some
            # chunks, so the kill lands mid-campaign with adoptable work.
            owner = None
            deadline = time.monotonic() + 120
            while owner is None:
                assert time.monotonic() < deadline, \
                    "no claimed, checkpointed run appeared"
                assert proc_a.poll() is None and proc_b.poll() is None
                if whole_records(checkpoint) >= 3:
                    try:
                        owner = json.loads(
                            claim_path.read_text())["replica"]
                    except (OSError, json.JSONDecodeError, KeyError):
                        pass  # claim mid-refresh; retry
                time.sleep(0.01)
            assert owner in procs
            procs[owner].kill()  # SIGKILL: the claim file stays behind
            procs[owner].wait(timeout=30)

            (log,) = checkpoint.glob("a-*.log")
            survivors = LogSnapshot(log)
            total_chunks = -(-cg_tiny_golden.space.size // 64)
            assert 0 < len(survivors.chunks) < total_chunks, \
                "campaign finished before the kill; nothing to adopt"

            # The surviving replica must declare the stale claim dead,
            # steal it, and resume -- all over the still-shared port.
            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done"
            survivor = next(r for r in procs if r != owner)
            assert final["replica"] == survivor
            events = list(client.events(job_id))
            recovered = [e for e in events if e["event"] == "recovered"]
            assert recovered and recovered[-1]["replica"] == survivor

            # Adopted, not re-run: the dead replica's completed records
            # are byte-for-byte untouched and none was appended again.
            survivors.assert_adopted()

            # And the takeover is invisible in the result: the published
            # boundary is bit-identical to offline ground truth.
            published = load_boundary(
                root / "boundaries"
                / f"boundary-{final['workload_key']}.npz")
            expected = exhaustive_boundary(cg_tiny_golden)
            np.testing.assert_array_equal(published.thresholds,
                                          expected.thresholds)
            np.testing.assert_array_equal(published.exact, expected.exact)
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=30)

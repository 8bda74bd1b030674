"""Chaos harness: SIGKILL real node processes mid-campaign.

The test process acts as the coordinator; nodes are genuine
``python -m repro dist-node`` subprocesses.  One node is SIGKILLed while
the campaign is in flight (no cleanup, no atexit, the kernel just drops
the TCP connection) and the campaign must finish on the survivor with a
merged result bit-identical to the serial golden run — the headline
guarantee of the distributed plane.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import core
from repro.dist import DistConfig, DistPlane
from repro.parallel.resilience import RetryPolicy

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spawn_node(plane, node_id, workers=2):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "dist-node",
         "--connect", f"{plane.host}:{plane.port}",
         "--workers", str(workers), "--node-id", node_id],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    return proc


class _ChunkWatcher(threading.Thread):
    """SIGKILL ``victim`` once ``checkpoint`` holds >= ``arm_after``
    completed chunk files, snapshotting their mtimes first."""

    def __init__(self, checkpoint: Path, victim: subprocess.Popen,
                 arm_after: int = 2, timeout: float = 120.0):
        super().__init__(daemon=True)
        self.checkpoint = checkpoint
        self.victim = victim
        self.arm_after = arm_after
        self.timeout = timeout
        self.survivors: dict[str, int] = {}
        self.killed = False

    def run(self):
        deadline = time.monotonic() + self.timeout
        while time.monotonic() < deadline:
            chunks = list(self.checkpoint.glob("a-*-chunk-*.npz"))
            if len(chunks) >= self.arm_after:
                self.survivors = {p.name: p.stat().st_mtime_ns
                                  for p in chunks}
                self.victim.kill()  # SIGKILL: no goodbye frame
                self.killed = True
                return
            time.sleep(0.002)


@pytest.mark.slow
class TestSigkillNode:
    # Budgets picked so every kernel cuts into dozens-to-hundreds of
    # leases (enough for a mid-campaign kill) without being swamped by
    # per-lease overhead.
    @pytest.mark.parametrize("name,budget", [
        ("cg", 1 << 21), ("lu", 1 << 19), ("fft", 1 << 21)])
    def test_merged_result_bit_identical_after_node_sigkill(
            self, name, budget, tmp_path, request):
        wl = request.getfixturevalue(f"{name}_tiny")
        golden = request.getfixturevalue(f"{name}_tiny_golden")
        from repro.core.checkpoint import CampaignCheckpoint

        checkpoint_dir = tmp_path / "ckpt"
        with DistPlane(DistConfig(heartbeat_s=0.1)) as plane:
            victim = _spawn_node(plane, "victim")
            survivor = _spawn_node(plane, "survivor")
            try:
                assert plane.wait_for_nodes(2, timeout=60.0)
                watcher = _ChunkWatcher(checkpoint_dir, victim)
                watcher.start()
                result = core.run_campaign(wl, core.CampaignConfig(
                    mode="exhaustive", dist=plane,
                    batch_budget=budget,
                    checkpoint=CampaignCheckpoint(checkpoint_dir, wl),
                    retry_policy=RetryPolicy(max_retries=4,
                                             backoff_base=0.01)))
                watcher.join(timeout=10)
            finally:
                victim.kill()
                survivor.kill()
                victim.wait(timeout=30)
                survivor.wait(timeout=30)

        assert watcher.killed, "campaign produced no chunks to arm on"
        health = result.health
        assert health is not None
        assert health.node_deaths >= 1, \
            f"SIGKILL went unnoticed: {health.summary()}"
        assert health.retries >= 1
        assert not health.degraded_to_serial

        # The headline guarantee: max-reduce merge over lease-recovered
        # chunks is bit-identical to the serial golden run.
        np.testing.assert_array_equal(result.exhaustive.outcomes,
                                      golden.outcomes)
        np.testing.assert_array_equal(result.exhaustive.injected_errors,
                                      golden.injected_errors)

        # Chunks completed before the kill were never recomputed: their
        # checkpoint artifacts are byte-for-byte untouched.
        assert watcher.survivors
        for chunk_name, mtime_ns in watcher.survivors.items():
            path = checkpoint_dir / chunk_name
            assert path.stat().st_mtime_ns == mtime_ns, \
                f"chunk {chunk_name} was rewritten after the node kill"

    def test_killed_node_rejoins_without_rerunning_completed_work(
            self, tmp_path, cg_tiny, cg_tiny_golden):
        """A replacement node attaching after the kill serves the rest of
        the campaign; chunks finished before the kill stay untouched."""
        from repro.core.checkpoint import CampaignCheckpoint

        checkpoint_dir = tmp_path / "ckpt"
        with DistPlane(DistConfig(heartbeat_s=0.1)) as plane:
            victim = _spawn_node(plane, "victim")
            replacement = None
            try:
                assert plane.wait_for_nodes(1, timeout=60.0)
                watcher = _ChunkWatcher(checkpoint_dir, victim)
                watcher.start()

                def rejoin():
                    watcher.join(timeout=120)
                    return _spawn_node(plane, "replacement")

                rejoined: list = []
                spawner = threading.Thread(
                    target=lambda: rejoined.append(rejoin()), daemon=True)
                spawner.start()
                result = core.run_campaign(cg_tiny, core.CampaignConfig(
                    mode="exhaustive", dist=plane,
                    batch_budget=1 << 21,
                    checkpoint=CampaignCheckpoint(checkpoint_dir, cg_tiny),
                    retry_policy=RetryPolicy(max_retries=4,
                                             backoff_base=0.01)))
                spawner.join(timeout=60)
                replacement = rejoined[0] if rejoined else None
            finally:
                victim.kill()
                victim.wait(timeout=30)
                if replacement is not None:
                    replacement.kill()
                    replacement.wait(timeout=30)

        assert watcher.killed
        assert result.health.node_deaths >= 1
        np.testing.assert_array_equal(result.exhaustive.outcomes,
                                      cg_tiny_golden.outcomes)
        for chunk_name, mtime_ns in watcher.survivors.items():
            path = checkpoint_dir / chunk_name
            assert path.stat().st_mtime_ns == mtime_ns, \
                f"chunk {chunk_name} was rewritten after the node kill"

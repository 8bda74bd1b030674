"""Coordinator plane: parity with serial runs, lease recovery, fallback.

Nodes here are in-process :class:`NodeAgent` threads — the full TCP
protocol is exercised (real sockets, real frames) without subprocess
startup cost.  Process-level chaos lives in ``test_chaos.py``.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro import core
from repro.dist import DistConfig, DistPlane, NodeAgent
from repro.dist.protocol import (PROTOCOL_VERSION, ProtocolError,
                                 recv_msg, send_msg)
from repro.parallel.resilience import NodeDeath, RetryPolicy

from tests.helpers import assert_same_adaptive


def _start_nodes(plane, n, n_workers=2, heartbeat=None):
    """Attach ``n`` in-process node agents; returns (agents, threads)."""
    agents = [NodeAgent(plane.host, plane.port, n_workers=n_workers,
                        node_id=f"t-node-{i}") for i in range(n)]
    threads = [threading.Thread(target=a.run, daemon=True) for a in agents]
    for t in threads:
        t.start()
    assert plane.wait_for_nodes(n, timeout=30.0)
    return agents, threads


class _ErrorNode(threading.Thread):
    """A node speaking the wire protocol over a raw socket that answers
    every welcome with ``node_error``, then stays connected and keeps
    sending heartbeats."""

    def __init__(self, plane):
        super().__init__(daemon=True)
        self.sock = socket.create_connection((plane.host, plane.port),
                                             timeout=10)
        self.welcomed = False
        self._lock = threading.Lock()
        self._stop = threading.Event()

    def _send(self, msg):
        with self._lock:
            send_msg(self.sock, msg)

    def _beat(self):
        while not self._stop.wait(0.1):
            try:
                self._send({"type": "heartbeat"})
            except OSError:
                return

    def run(self):
        self._send({"type": "hello", "node_id": "broken", "pid": 0,
                    "n_workers": 2, "version": PROTOCOL_VERSION})
        self.sock.settimeout(None)
        threading.Thread(target=self._beat, daemon=True).start()
        try:
            while (msg := recv_msg(self.sock)) is not None:
                if msg.get("type") == "welcome":
                    self.welcomed = True
                    self._send({"type": "node_error",
                                "error": "no such kernel here"})
        except (OSError, ProtocolError):
            pass

    def close(self):
        self._stop.set()
        self.sock.close()


class TestDistConfig:
    @pytest.mark.parametrize("kwargs", [
        {"heartbeat_s": 0.0},
        {"heartbeat_s": -1.0},
        {"heartbeat_s": 1.0, "heartbeat_timeout_s": 0.5},
        {"lease_ttl_s": 0.0},
        {"node_wait_s": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DistConfig(**kwargs)

    def test_liveness_timeout_derived_from_heartbeat(self):
        assert DistConfig(heartbeat_s=1.0).liveness_timeout == 4.0
        assert DistConfig(heartbeat_s=0.1).liveness_timeout == 2.0
        assert DistConfig(heartbeat_s=0.1,
                          heartbeat_timeout_s=7.0).liveness_timeout == 7.0


class TestCampaignConfigWiring:
    def test_dist_executor_requires_plane(self, cg_tiny):
        """Only ``dist=plane`` selects the distributed plane; there is no
        ``executor`` knob to ask for it without one."""
        with pytest.raises(TypeError, match="executor"):
            core.CampaignConfig(mode="exhaustive", executor="dist")

    def test_dist_plane_without_executor_dist_is_fine(self):
        # A service may hold a plane while most jobs run locally.
        core.CampaignConfig(mode="exhaustive")


class TestPlaneLifecycle:
    def test_ephemeral_port_and_close_is_idempotent(self):
        plane = DistPlane(DistConfig())
        assert plane.port > 0
        assert plane.host == "127.0.0.1"
        plane.close()
        plane.close()

    def test_wait_for_nodes_times_out(self):
        with DistPlane(DistConfig()) as plane:
            assert not plane.wait_for_nodes(1, timeout=0.05)

    @staticmethod
    def _assert_hello_refused(version) -> None:
        with DistPlane(DistConfig()) as plane:
            sock = socket.create_connection((plane.host, plane.port),
                                            timeout=5)
            try:
                send_msg(sock, {"type": "hello", "node_id": "old",
                                "version": version})
                sock.settimeout(5)
                # Coordinator drops the connection without registering.
                assert recv_msg(sock) is None
                assert plane.n_nodes == 0
            finally:
                sock.close()

    def test_version_mismatch_rejected(self):
        self._assert_hello_refused(-1)

    def test_version_one_node_refused(self):
        """Version 1 predates ``round`` leases: such a node is refused at
        hello rather than failing every adaptive round."""
        assert PROTOCOL_VERSION == 2
        self._assert_hello_refused(1)

    def test_node_ids_uniquified(self):
        with DistPlane(DistConfig()) as plane:
            agents, _ = _start_nodes(plane, 2)
            try:
                # Same announced id -> coordinator must distinguish them.
                clash = NodeAgent(plane.host, plane.port, n_workers=1,
                                  node_id="t-node-0")
                thread = threading.Thread(target=clash.run, daemon=True)
                thread.start()
                assert plane.wait_for_nodes(3, timeout=30.0)
                ids = {n.node_id for n in plane.live_nodes()}
                assert len(ids) == 3
            finally:
                for a in agents:
                    a.stop()

    def test_shutdown_terminates_nodes(self):
        plane = DistPlane(DistConfig())
        _, threads = _start_nodes(plane, 2)
        plane.close()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()


class TestParity:
    """The distributed plane is bit-identical to a serial run."""

    def test_exhaustive_matches_serial(self, cg_tiny, cg_tiny_golden):
        with DistPlane(DistConfig()) as plane:
            _start_nodes(plane, 2)
            result = core.run_campaign(cg_tiny, core.CampaignConfig(
                mode="exhaustive", dist=plane,
                batch_budget=1 << 20))
        np.testing.assert_array_equal(result.exhaustive.outcomes,
                                      cg_tiny_golden.outcomes)
        np.testing.assert_array_equal(result.exhaustive.injected_errors,
                                      cg_tiny_golden.injected_errors)
        assert result.health is not None and result.health.clean

    def test_monte_carlo_boundary_matches_serial(self, fft_tiny):
        config = dict(mode="monte_carlo", sampling_rate=0.3, seed=11)
        serial = core.run_campaign(fft_tiny, core.CampaignConfig(**config))
        with DistPlane(DistConfig()) as plane:
            _start_nodes(plane, 2)
            dist = core.run_campaign(fft_tiny, core.CampaignConfig(
                dist=plane, batch_budget=1 << 20,
                **config))
        np.testing.assert_array_equal(dist.boundary.thresholds,
                                      serial.boundary.thresholds)
        np.testing.assert_array_equal(dist.boundary.exact,
                                      serial.boundary.exact)
        np.testing.assert_array_equal(dist.sampled.outcomes,
                                      serial.sampled.outcomes)

    @pytest.mark.parametrize("kernel", ["fft", "cg"])
    def test_adaptive_matches_serial(self, fft_tiny, cg_tiny, kernel):
        """Rounds run as ``round`` leases: outcomes, guide partials and
        the boundary derived from the guide equal a serial run's."""
        wl = {"fft": fft_tiny, "cg": cg_tiny}[kernel]
        config = dict(mode="adaptive", seed=4)
        serial = core.run_campaign(wl, core.CampaignConfig(**config))
        with DistPlane(DistConfig()) as plane:
            _start_nodes(plane, 2)
            dist = core.run_campaign(wl, core.CampaignConfig(
                dist=plane, **config))
        assert dist.health is not None and dist.health.clean
        assert_same_adaptive(dist, serial)

    def test_plane_survives_across_campaigns(self, cg_tiny, lu_tiny,
                                             cg_tiny_golden,
                                             lu_tiny_golden):
        # One plane, several campaigns over different workloads: the
        # welcome/epoch machinery re-primes nodes between phases.
        with DistPlane(DistConfig()) as plane:
            _start_nodes(plane, 2)
            for wl, golden in ((cg_tiny, cg_tiny_golden),
                               (lu_tiny, lu_tiny_golden),
                               (cg_tiny, cg_tiny_golden)):
                result = core.run_campaign(wl, core.CampaignConfig(
                    mode="exhaustive", dist=plane,
                    batch_budget=1 << 20))
                np.testing.assert_array_equal(result.exhaustive.outcomes,
                                              golden.outcomes)


class TestFailureRecovery:
    def test_node_death_mid_campaign_recovers(self, cg_tiny,
                                              cg_tiny_golden):
        # Fine-grained chunks so the node dies mid-campaign; it stops
        # inside its fifth lease, before answering it, so the death
        # always lands while the node holds a lease (a timer could land
        # between leases, when it holds none and nothing is retried).
        with DistPlane(DistConfig(heartbeat_s=0.1)) as plane:
            agents, _ = _start_nodes(plane, 2, n_workers=1)
            victim = agents[0]
            serve, seen = victim._serve_lease, []

            def serve_or_die(msg):
                seen.append(msg)
                if len(seen) == 5:
                    victim.stop()
                else:
                    serve(msg)

            victim._serve_lease = serve_or_die
            result = core.run_campaign(cg_tiny, core.CampaignConfig(
                mode="exhaustive", dist=plane,
                batch_budget=1 << 18,
                retry_policy=RetryPolicy(max_retries=4,
                                         backoff_base=0.01)))
        health = result.health
        assert health is not None
        assert health.node_deaths == 1
        assert health.retries >= 1
        assert "node_deaths" in health.summary()
        np.testing.assert_array_equal(result.exhaustive.outcomes,
                                      cg_tiny_golden.outcomes)

    def test_node_killed_while_lease_is_sent_requeues_at_once(
            self, cg_tiny, cg_tiny_golden):
        # The node dies between the lease frame leaving and the grant
        # returning.  Its death event must name the lease, so the chunk
        # is requeued at once rather than after the TTL on a dead node.
        with DistPlane(DistConfig(lease_ttl_s=2.0, node_wait_s=0.1)) as plane:
            _start_nodes(plane, 1, n_workers=1)
            node, = plane.live_nodes()
            send = node.send

            def send_then_die(msg):
                send(msg)
                if msg.get("type") == "lease":
                    plane._kill_node(node.node_id, "killed mid-grant")

            node.send = send_then_die
            result = core.run_campaign(cg_tiny, core.CampaignConfig(
                mode="exhaustive", dist=plane, batch_budget=1 << 20))
        assert result.health.node_deaths == 1
        assert result.health.lease_expiries == 0
        assert result.health.degraded_to_serial
        np.testing.assert_array_equal(result.exhaustive.outcomes,
                                      cg_tiny_golden.outcomes)
        np.testing.assert_array_equal(result.exhaustive.injected_errors,
                                      cg_tiny_golden.injected_errors)

    def test_node_error_kills_a_node_that_stays_connected(
            self, cg_tiny, cg_tiny_golden):
        # A node that cannot take the welcome reports ``node_error`` (a
        # frame without an epoch) and, unlike the bundled agent, keeps
        # its connection and its heartbeat.  It must be dropped at once:
        # a lease granted to it would otherwise wait out the TTL.
        with DistPlane(DistConfig(lease_ttl_s=30.0)) as plane:
            broken = _ErrorNode(plane)
            broken.start()
            assert plane.wait_for_nodes(1, timeout=30.0)
            agent = NodeAgent(plane.host, plane.port, n_workers=2,
                              node_id="healthy")
            threading.Thread(target=agent.run, daemon=True).start()
            assert plane.wait_for_nodes(2, timeout=30.0)
            t0 = time.monotonic()
            result = core.run_campaign(cg_tiny, core.CampaignConfig(
                mode="exhaustive", dist=plane, batch_budget=1 << 18))
            elapsed = time.monotonic() - t0
            broken.close()
        assert broken.welcomed
        assert result.health.node_deaths == 1
        assert result.health.lease_expiries == 0
        assert elapsed < 10.0
        np.testing.assert_array_equal(result.exhaustive.outcomes,
                                      cg_tiny_golden.outcomes)
        np.testing.assert_array_equal(result.exhaustive.injected_errors,
                                      cg_tiny_golden.injected_errors)

    def test_no_nodes_degrades_to_local(self, cg_tiny, cg_tiny_golden):
        with DistPlane(DistConfig(node_wait_s=0.1)) as plane:
            result = core.run_campaign(cg_tiny, core.CampaignConfig(
                mode="exhaustive", dist=plane))
        assert result.health is not None
        assert result.health.degraded_to_serial
        np.testing.assert_array_equal(result.exhaustive.outcomes,
                                      cg_tiny_golden.outcomes)

    def test_no_nodes_without_fallback_raises(self, cg_tiny):
        with DistPlane(DistConfig(node_wait_s=0.1,
                                  local_fallback=False)) as plane:
            with pytest.raises(NodeDeath):
                core.run_campaign(cg_tiny, core.CampaignConfig(
                    mode="exhaustive", dist=plane))

    def test_late_joining_node_is_used(self, cg_tiny, cg_tiny_golden):
        # Nobody is attached when the campaign starts; a node joins
        # within the grace period and serves the whole campaign.
        with DistPlane(DistConfig(node_wait_s=30.0)) as plane:
            agent = NodeAgent(plane.host, plane.port, n_workers=2,
                              node_id="late")

            def join_late():
                time.sleep(0.2)
                agent.run()

            thread = threading.Thread(target=join_late, daemon=True)
            thread.start()
            result = core.run_campaign(cg_tiny, core.CampaignConfig(
                mode="exhaustive", dist=plane,
                batch_budget=1 << 20))
        assert agent.leases_served > 0
        assert not result.health.degraded_to_serial
        np.testing.assert_array_equal(result.exhaustive.outcomes,
                                      cg_tiny_golden.outcomes)


class TestCancelledPhase:
    def test_cancelled_phase_frees_its_nodes(self, cg_tiny, cg_tiny_golden):
        """A phase abandoned at a ``yield`` (a cancelled job) gives its
        lease slots back: once the node has answered, it holds none, and
        the next phase leases it ``n_workers`` chunks at once."""
        with DistPlane(DistConfig()) as plane:
            (agent,), _ = _start_nodes(plane, 1, n_workers=2)
            node, = plane.live_nodes()
            send, granted, held = node.send, {}, []

            def recording(msg):
                if msg.get("type") == "lease":
                    granted[msg["lease_id"]] = msg["epoch"]
                    held.append(sum(granted.get(lease) == msg["epoch"]
                                    for lease in node.inflight))
                send(msg)

            node.send = recording

            def cancel(done, total, phase):
                raise RuntimeError("cancelled")

            config = core.CampaignConfig(mode="exhaustive", dist=plane,
                                         batch_budget=1 << 14)
            with pytest.raises(RuntimeError, match="cancelled"):
                core.run_campaign(cg_tiny, config, progress=cancel)
            deadline = time.monotonic() + 30
            while agent.leases_served < len(granted):
                assert time.monotonic() < deadline, "node never answered"
                time.sleep(0.01)
            assert all(not n.inflight for n in plane.live_nodes())

            held.clear()
            result = core.run_campaign(cg_tiny, config)
            assert max(held) == node.n_workers
        np.testing.assert_array_equal(result.exhaustive.outcomes,
                                      cg_tiny_golden.outcomes)

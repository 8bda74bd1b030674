"""HTTP API surface: routes, error mapping, events, metrics, queries."""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

import repro
from repro.obs.metrics import METRICS
from repro.serve import ServiceClient, ServiceError, create_server

from .conftest import CG_SAMPLE


def submit_and_wait(client, **overrides):
    spec = {**CG_SAMPLE, **overrides}
    job = client.submit(spec["kernel"], spec["params"], mode=spec["mode"],
                        options=spec["options"])
    return client.wait(job["id"], timeout=120)


class TestServiceBasics:
    def test_healthz_reports_version_and_replica_identity(self, client):
        doc = client.health()
        assert doc["ok"] is True
        assert doc["version"] == repro.__version__
        # Per-replica honesty: this process's identity and claim load.
        assert doc["pid"] > 0
        assert isinstance(doc["replica"], str) and doc["replica"]
        assert doc["claimed_jobs"] == 0
        assert doc["claimed_job_ids"] == []
        assert doc["finish_errors"] == 0

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._json("GET", "/v1/nothing/here")
        assert err.value.status == 404
        assert err.value.kind == "not_found"

    def test_wrong_method_is_405(self, client):
        with pytest.raises(ServiceError) as err:
            client._json("DELETE", "/v1/boundary")
        assert err.value.status == 405

    def test_invalid_json_body_is_400(self, service, client):
        req = urllib.request.Request(
            f"{client.base_url}/v1/jobs", data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 400

    def test_metrics_exposition(self, client):
        client.health()
        text = client.metrics_text()
        assert "# TYPE repro_serve_http_requests counter" in text
        assert "repro_serve_http_requests " in text


class TestServerLifecycle:
    """A server that never ran its accept loop still closes, and every
    server hands the process-global metrics switch back as it found it."""

    @pytest.mark.parametrize("stop", ["close", "drain"])
    def test_stop_without_serve_forever_returns(self, tmp_path, stop):
        server = create_server(tmp_path / "svc")
        thread = threading.Thread(target=getattr(server, stop), daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    @pytest.mark.parametrize("stop", ["close", "drain"])
    def test_stop_restores_metrics_switch(self, tmp_path, monkeypatch,
                                          stop):
        monkeypatch.setattr(METRICS, "enabled", False)
        server = create_server(tmp_path / "svc")
        assert METRICS.enabled
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        getattr(server, stop)()
        thread.join(timeout=10)
        assert METRICS.enabled is False


class TestJobRoutes:
    def test_submit_get_list_round_trip(self, client):
        final = submit_and_wait(client)
        assert final["state"] == "done"
        assert client.job(final["id"])["state"] == "done"
        assert final["id"] in [m["id"] for m in client.jobs()]

    def test_submit_validation_maps_to_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("cg", {"n": 8}, mode="sample", options={})
        assert err.value.status == 400
        assert "sampling_rate" in err.value.message
        with pytest.raises(ServiceError) as err:
            client.submit("not-a-kernel", mode="exhaustive")
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.submit("cg", {"n": 8}, mode="exhaustive",
                          options={"executor": "threads"})
        assert err.value.status == 400
        assert "unknown executor" in err.value.message

    def test_dist_for_compositional_modes_is_400(self, tmp_path):
        """A service holding a plane still refuses dist for the modes
        whose section tasks its nodes cannot run."""
        server = create_server(tmp_path / "svc", dist_port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            for mode, extra in (("compose", {}),
                                ("optimize", {"target_sdc": 0.4})):
                with pytest.raises(ServiceError) as err:
                    client.submit("cg", {"n": 8}, mode=mode,
                                  options={"executor": "dist", **extra})
                assert err.value.status == 400
                assert "dist" in err.value.message
            assert client.jobs() == []
        finally:
            server.close()
            thread.join(timeout=10)

    def test_unknown_job_maps_to_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("jmissing")
        assert err.value.status == 404
        assert err.value.kind == "job_not_found"
        with pytest.raises(ServiceError) as err:
            list(client.events("jmissing"))
        assert err.value.status == 404

    def test_events_end_with_terminal_state(self, client):
        final = submit_and_wait(client)
        events = list(client.events(final["id"]))
        assert events[0]["event"] == "state" and events[0]["state"] == "queued"
        # State events carry the replica that drove the transition.
        assert events[-1] == {"t": events[-1]["t"], "event": "state",
                              "state": "done",
                              "replica": events[-1]["replica"]}
        assert events[-1]["replica"]

    def test_cancel_terminal_job_round_trips(self, client):
        final = submit_and_wait(client)
        assert client.cancel(final["id"])["state"] == "done"


class TestBoundaryRoutes:
    def test_published_keys_listed(self, client):
        final = submit_and_wait(client)
        assert final["workload_key"] in client.boundary_keys()

    def test_stats_and_point_query(self, client):
        final = submit_and_wait(client)
        key = final["workload_key"]
        stats = client.boundary_stats(key)
        assert stats["n_sites"] > 0
        assert 0 <= stats["stats"]["covered_fraction"] <= 1

        verdict = client.query_boundary(key, site=0, eps=1e300)
        assert verdict["masked"] is False  # a huge error is never masked
        threshold = verdict["threshold"]
        if threshold > 0:
            below = client.query_boundary(key, site=0, eps=threshold / 2)
            assert below["masked"] is True

    def test_unpublished_key_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.query_boundary("cg-0000000000000000", 0, 1.0)
        assert err.value.status == 404
        assert err.value.kind == "boundary_not_found"

    def test_corrupt_published_artifact_is_409(self, service, client):
        path = service.cache.path_for("cg-deadbeefdeadbeef")
        path.write_bytes(b"garbage, not an npz")
        with pytest.raises(ServiceError) as err:
            client.query_boundary("cg-deadbeefdeadbeef", 0, 1.0)
        assert err.value.status == 409
        assert err.value.kind == "artifact_corrupt"

    def test_query_parameter_validation(self, client):
        final = submit_and_wait(client)
        key = final["workload_key"]
        with pytest.raises(ServiceError) as err:
            client._json("GET", f"/v1/boundary/{key}?eps=1.0")
        assert err.value.status == 400  # eps without site
        with pytest.raises(ServiceError) as err:
            client.query_boundary(key, site=10**9, eps=1.0)
        assert err.value.status == 400  # site out of range
        with pytest.raises(ServiceError) as err:
            client._json("GET", f"/v1/boundary/{key}?site=abc")
        assert err.value.status == 400

    def test_cache_stats_track_queries(self, client):
        final = submit_and_wait(client)
        key = final["workload_key"]
        client.query_boundary(key, 0, 1.0)
        client.query_boundary(key, 1, 1.0)
        stats = client.cache_stats()
        assert stats["hits"] >= 1
        assert stats["misses"] >= 1
        assert stats["cached"] == 1


class TestCliClients:
    """The `submit` / `jobs` / `query` CLI commands against a live server."""

    def test_submit_wait_jobs_query(self, client, tmp_path):
        import io

        from repro.cli import main

        def run(argv):
            out = io.StringIO()
            code = main(argv, out=out)
            return code, out.getvalue()

        url = client.base_url
        code, text = run([
            "submit", "--url", url, "--kernel", "cg",
            "--param", "n=8", "--param", "iters=8", "--mode", "sample",
            "--option", "sampling_rate=0.05", "--option", "seed=1",
            "--wait"])
        assert code == 0
        job_id = text.split()[1]
        assert job_id.startswith("j")

        code, text = run(["jobs", "--url", url])
        assert code == 0 and job_id in text

        code, text = run(["jobs", "--url", url, "--job", job_id,
                          "--events"])
        assert code == 0
        assert '"state": "done"' in text

        manifest = client.job(job_id)
        key = manifest["workload_key"]
        code, text = run(["query", "--url", url])
        assert code == 0 and key in text
        code, text = run(["query", "--url", url, "--key", key,
                          "--site", "0", "--eps", "1e300"])
        assert code == 0 and "predicted SDC" in text
        code, text = run(["query", "--url", url, "--kernel", "cg",
                          "--param", "n=8", "--param", "iters=8",
                          "--site", "0", "--eps", "1e300", "--json"])
        assert code == 0
        assert json.loads(text)["masked"] is False

    def test_query_unknown_key_exits_with_error(self, client):
        import io

        from repro.cli import main

        with pytest.raises(SystemExit, match="404"):
            main(["query", "--url", client.base_url,
                  "--key", "cg-0000000000000000", "--site", "0"],
                 out=io.StringIO())

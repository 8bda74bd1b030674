"""Graceful drain (SIGTERM path) and client transport retries."""

from __future__ import annotations

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import ServiceClient, ServiceError, create_server
from repro.serve.jobs import JobManager

from .conftest import CG_SAMPLE


class TestServerDrain:
    def test_drain_finishes_inflight_and_refuses_new(self, tmp_path):
        server = create_server(tmp_path / "svc")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               retries=0)
        try:
            job = client.submit(CG_SAMPLE["kernel"], CG_SAMPLE["params"],
                                mode=CG_SAMPLE["mode"],
                                options=CG_SAMPLE["options"])
            server.drain()
            thread.join(timeout=10)
            assert not thread.is_alive()
            # The submitted job ran to completion during the drain.
            manager = JobManager(tmp_path / "svc", recover=False)
            try:
                assert manager.get(job["id"])["state"] == "done"
            finally:
                manager.close()
            # The socket is closed: new requests are refused.
            with pytest.raises((urllib.error.URLError,
                                ConnectionError, OSError)):
                client.health()
        finally:
            server.close()

    def test_drain_is_idempotent(self, tmp_path):
        server = create_server(tmp_path / "svc")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        server.drain()
        server.drain()
        server.close()
        thread.join(timeout=10)


class TestJobManagerDrain:
    def test_drain_records_event_on_unfinished_jobs(self, tmp_path):
        from repro.serve.jobs import JobRequest

        stranded = JobManager(tmp_path, recover=False)
        # Stop the worker loop first so a submitted job can never start
        # -- the simplest deterministic way to hold a job in 'queued' --
        # then re-arm the closed flag so submit()/drain() proceed.
        stranded.close(wait=True)
        stranded._closed = False
        manifest = stranded.submit(JobRequest(
            kernel="cg", params={"n": 8, "iters": 8}, mode="sample",
            options={"sampling_rate": 0.01}))
        stranded.drain()

        events_file = stranded.events_path(manifest["id"])
        events = [json.loads(line)
                  for line in events_file.read_text().splitlines()]
        assert any(e.get("event") == "draining" for e in events)
        assert stranded.get(manifest["id"])["state"] == "queued"


class _FakeResponse(io.BytesIO):
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class TestClientTransportRetry:
    def _client(self, monkeypatch, failures, exc_factory, retries=3):
        """A client whose urlopen fails ``failures`` times, then succeeds."""
        calls = {"n": 0}

        def fake_urlopen(req, timeout=None):
            calls["n"] += 1
            if calls["n"] <= failures:
                raise exc_factory()
            return _FakeResponse(b'{"ok": true}')

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        monkeypatch.setattr("time.sleep", lambda s: None)
        client = ServiceClient("http://127.0.0.1:1", retries=retries,
                               retry_backoff_s=0.001)
        return client, calls

    def test_get_retries_connection_reset(self, monkeypatch):
        client, calls = self._client(monkeypatch, 2, ConnectionResetError)
        assert client.health() == {"ok": True}
        assert calls["n"] == 3

    def test_get_retries_urlerror(self, monkeypatch):
        client, calls = self._client(
            monkeypatch, 1,
            lambda: urllib.error.URLError(ConnectionRefusedError()))
        assert client.health() == {"ok": True}
        assert calls["n"] == 2

    def test_get_gives_up_after_budget(self, monkeypatch):
        client, calls = self._client(monkeypatch, 10, ConnectionResetError,
                                     retries=2)
        with pytest.raises(ConnectionResetError):
            client.health()
        assert calls["n"] == 3  # first try + 2 retries

    def test_post_never_retries(self, monkeypatch):
        # A timed-out submit may have been accepted server-side;
        # re-POSTing would double-run the campaign.
        client, calls = self._client(monkeypatch, 1, ConnectionResetError)
        with pytest.raises(ConnectionResetError):
            client.submit("cg", {"n": 8})
        assert calls["n"] == 1

    def test_http_error_response_never_retries(self, monkeypatch):
        def make_http_error():
            return urllib.error.HTTPError(
                "http://x", 503, "busy", {},
                io.BytesIO(b'{"error": {"type": "busy", '
                           b'"message": "later"}}'))

        client, calls = self._client(monkeypatch, 10, make_http_error)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 503
        assert calls["n"] == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:1", retries=-1)


class TestDrainSignal:
    def test_drain_request_escapes_request_dispatch(self, tmp_path,
                                                    monkeypatch):
        """A SIGTERM landing while the accept loop starts a request must
        unwind the loop, not be logged by ``handle_error`` and dropped."""
        import signal
        import socket

        from repro.cli import _DrainRequested

        server = create_server(tmp_path / "svc")

        def signal_lands_here(request, client_address):
            raise _DrainRequested(signal.SIGTERM)

        monkeypatch.setattr(server, "process_request", signal_lands_here)
        handled = []
        monkeypatch.setattr(server, "handle_error",
                            lambda *args: handled.append(args))
        conn = socket.create_connection(("127.0.0.1", server.port),
                                        timeout=5)
        try:
            with pytest.raises(_DrainRequested):
                server._handle_request_noblock()
            assert handled == []
            assert conn.recv(1) == b""  # the accepted request was closed
        finally:
            conn.close()
            # serve_forever never ran, so skip shutdown() (it would wait
            # for the loop to acknowledge)
            server.server_close()
            server.manager.close(wait=False)

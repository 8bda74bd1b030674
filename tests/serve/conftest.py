"""Shared fixtures for the query-service tests: a live in-process server."""

from __future__ import annotations

import threading

import pytest

from repro.serve import ServiceClient, create_server

#: A fast sample campaign request (~1k experiments, well under a second).
CG_SAMPLE = {
    "kernel": "cg",
    "params": {"n": 8, "iters": 8},
    "mode": "sample",
    "options": {"sampling_rate": 0.05, "seed": 1},
}


@pytest.fixture()
def service(tmp_path):
    """A running service on an ephemeral port, torn down after the test."""
    server = create_server(tmp_path / "svc")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.close()
        thread.join(timeout=10)


@pytest.fixture()
def client(service):
    return ServiceClient(f"http://127.0.0.1:{service.port}")

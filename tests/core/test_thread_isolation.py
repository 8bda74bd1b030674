"""Campaigns on several threads of one process stay independent.

Every worker's state (its workload and replayer) is per thread, so two
serial campaigns on two threads, or two job threads of one service,
never replay against each other's workload.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import core

#: Small batches, so every campaign runs many chunks while the other
#: thread's campaigns start and finish around them.
BUDGET = 1 << 20


@pytest.fixture()
def tiny_switch_interval():
    """Make the interpreter switch threads more often than by default."""
    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        yield
    finally:
        sys.setswitchinterval(before)


def _run_concurrently(jobs):
    """Run each zero-argument callable on its own thread; re-raise the
    first failure."""
    errors = []

    def guard(fn):
        try:
            fn()
        except Exception as exc:  # re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=guard, args=(fn,)) for fn in jobs]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
        assert not t.is_alive()
    if errors:
        raise errors[0]


class TestConcurrentSerialCampaigns:
    def test_two_threads_match_serial_references(
            self, cg_tiny, cg_tiny_golden, fft_tiny, fft_tiny_golden,
            tiny_switch_interval):
        results = {"cg": [], "fft": []}

        def campaigns(name, wl):
            def run():
                for _ in range(6):
                    results[name].append(core.run_campaign(
                        wl, mode="exhaustive",
                        batch_budget=BUDGET).exhaustive)
            return run

        _run_concurrently([campaigns("cg", cg_tiny),
                           campaigns("fft", fft_tiny)])
        for name, golden in (("cg", cg_tiny_golden),
                             ("fft", fft_tiny_golden)):
            assert len(results[name]) == 6
            for res in results[name]:
                np.testing.assert_array_equal(res.outcomes, golden.outcomes)
                np.testing.assert_array_equal(res.injected_errors,
                                              golden.injected_errors)


class TestConcurrentServiceJobs:
    def test_job_workers_2_grids_match_offline_serial(
            self, tmp_path, tiny_switch_interval):
        from repro import kernels
        from repro.io import load_exhaustive
        from repro.serve import ServiceClient, create_server

        specs = [("cg", {"n": 8, "iters": 8}), ("fft", {"n": 16})] * 2
        server = create_server(tmp_path / "svc", job_workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            ids = [client.submit(kernel, params, mode="exhaustive",
                                 options={"batch_budget": BUDGET})["id"]
                   for kernel, params in specs]
            manifests = [client.wait(job_id, timeout=120) for job_id in ids]
        finally:
            server.close()
            thread.join(timeout=10)

        references = {}
        for (kernel, params), job_id, manifest in zip(specs, ids,
                                                      manifests):
            assert manifest["state"] == "done", manifest
            if kernel not in references:
                references[kernel] = core.run_campaign(
                    kernels.build(kernel, **params),
                    mode="exhaustive").exhaustive
            grids = load_exhaustive(
                tmp_path / "svc" / "jobs" / job_id / "exhaustive.npz")
            np.testing.assert_array_equal(grids.outcomes,
                                          references[kernel].outcomes)
            np.testing.assert_array_equal(grids.injected_errors,
                                          references[kernel].injected_errors)

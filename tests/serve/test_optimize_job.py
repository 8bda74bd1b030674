"""The async ``optimize`` job: validation, lifecycle, HTTP front queries,
and SIGKILL-resume of the search under the claim-lease plane."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import core, kernels
from repro.io.store import load_front
from repro.optimize import (
    EnvelopeEvaluator,
    SearchConfig,
    build_cost_model,
    synthesize,
)
from repro.serve import ServiceClient, ServiceError
from repro.serve import jobs as jobs_mod
from repro.serve.jobs import JobManager, JobRequest

CG_PARAMS = {"n": 8, "iters": 8}


def optimize_request(**options):
    options = {"target_sdc": 0.4, **options}
    return JobRequest(kernel="cg", params=CG_PARAMS, mode="optimize",
                      options=options)


class TestOptimizeRequest:
    def test_needs_exactly_one_goal(self):
        with pytest.raises(ValueError, match="exactly one"):
            JobRequest(kernel="cg", params=CG_PARAMS, mode="optimize")
        with pytest.raises(ValueError, match="exactly one"):
            JobRequest(kernel="cg", params=CG_PARAMS, mode="optimize",
                       options={"target_sdc": 0.4, "budget": 0.25})
        optimize_request()  # one goal is fine
        JobRequest(kernel="cg", params=CG_PARAMS, mode="optimize",
                   options={"budget": 0.25})

    def test_unknown_protection_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown protection mode"):
            optimize_request(modes="duplicate,tmr")

    def test_modes_accept_list_or_comma_string(self):
        optimize_request(modes="duplicate,detector")
        optimize_request(modes=["duplicate", "detector"])

    def test_search_knobs_validated(self):
        with pytest.raises(ValueError):
            optimize_request(population=0)
        with pytest.raises(ValueError):
            optimize_request(generations=-1)


@pytest.fixture()
def manager(tmp_path):
    m = JobManager(tmp_path / "svc", job_workers=1)
    yield m
    m.close(wait=False)


class TestOptimizeLifecycle:
    def test_job_publishes_dominating_front(self, manager):
        job = manager.submit(optimize_request())
        final = manager.wait(job["id"], timeout=300)
        assert final["state"] == "done"
        summary = final["summary"]
        assert summary["n_candidates"] > 0
        assert summary["front_size"] > 0
        assert "front" in final["artifacts"]

        front, meta = load_front(
            manager.front_path(final["workload_key"]))
        assert meta["workload_key"] == final["workload_key"]
        assert meta["target_sdc"] == 0.4
        greedy = summary["greedy"]
        assert front.dominates(greedy["cost"], greedy["residual_sdc"])
        chosen = summary["chosen"]
        assert chosen["residual_sdc"] <= 0.4
        assert chosen["cost"] <= greedy["cost"] + 1e-12

    def test_common_options_reach_the_campaign(self, manager, monkeypatch):
        """``batch_budget``, ``max_retries`` and ``task_timeout`` govern an
        optimize job's compositional campaign, as on every other mode."""
        seen = []

        def capture(workload, config):
            seen.append(config)
            return core.run_campaign(workload, config)

        monkeypatch.setattr(jobs_mod, "run_campaign", capture)
        job = manager.submit(optimize_request(
            batch_budget=1 << 20, max_retries=3, task_timeout=60.0,
            generations=2))
        final = manager.wait(job["id"], timeout=300)
        assert final["state"] == "done", final.get("error")
        (config,) = seen
        assert config.mode == "compositional"
        assert config.batch_budget == 1 << 20
        assert config.retry_policy.max_retries == 3
        assert config.retry_policy.task_timeout == 60.0

    def test_search_checkpoint_written(self, manager):
        job = manager.submit(optimize_request())
        final = manager.wait(job["id"], timeout=300)
        assert final["state"] == "done"
        ckpt = manager.jobs_dir / job["id"] / "search-checkpoint.npz"
        assert ckpt.exists()

    def test_front_keys_listed(self, manager):
        job = manager.submit(optimize_request())
        final = manager.wait(job["id"], timeout=300)
        assert final["workload_key"] in manager.front_keys()


class TestOptimizeHttp:
    def test_submit_query_front(self, client):
        job = client.submit("cg", CG_PARAMS, mode="optimize",
                            options={"target_sdc": 0.4})
        final = client.wait(job["id"], timeout=300)
        assert final["state"] == "done"
        key = final["workload_key"]
        assert key in client.front_keys()

        doc = client.front(key, target=0.4, placements=True)
        assert doc["workload_key"] == key
        assert doc["n_points"] == final["summary"]["front_size"]
        chosen = doc["chosen"]
        assert chosen["residual_sdc"] <= 0.4
        assert len(chosen["placement"]) == len(
            kernels.build("cg", **CG_PARAMS).trace.site_values)
        # the budget view picks along the other axis of the same front
        by_budget = client.front(key, budget=chosen["cost"])
        assert by_budget["chosen"]["residual_sdc"] <= \
            chosen["residual_sdc"] + 1e-12

    def test_unknown_front_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.front("cg-ffffffffffffffff")
        assert exc.value.status == 404
        assert exc.value.kind == "front_not_found"

    def test_target_and_budget_together_400(self, client):
        job = client.submit("cg", CG_PARAMS, mode="optimize",
                            options={"budget": 0.25})
        final = client.wait(job["id"], timeout=300)
        with pytest.raises(ServiceError) as exc:
            client.front(final["workload_key"], target=0.4, budget=0.25)
        assert exc.value.status == 400

    def test_submit_validation_maps_to_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit("cg", CG_PARAMS, mode="optimize", options={})
        assert exc.value.status == 400


#: Enough generations that a kill lands mid-search, with one checkpoint
#: per generation banked for the resuming replica.
RESUME_OPTIONS = {"target_sdc": 0.4, "generations": 400, "population": 32,
                  "seed": 5}


class TestOptimizeSigkillResume:
    def _spawn(self, root: Path):
        env = {**os.environ,
               "PYTHONPATH": str(Path(__file__).resolve().parents[2]
                                 / "src")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root)],
            stdout=subprocess.PIPE, text=True, env=env)
        line = proc.stdout.readline()
        match = re.search(r"http://[\d.]+:(\d+)", line)
        assert match, f"serve did not announce a port: {line!r}"
        return proc, ServiceClient(match.group(0))

    def _checkpoint_generation(self, path: Path) -> int:
        try:
            with np.load(path, allow_pickle=False) as npz:
                return int(npz["generation"])
        except Exception:
            return -1

    def test_killed_optimize_job_resumes_bit_identically(self, tmp_path):
        root = tmp_path / "svc"
        proc, client = self._spawn(root)
        try:
            job = client.submit("cg", CG_PARAMS, mode="optimize",
                                options=RESUME_OPTIONS)
            job_id = job["id"]
            ckpt = root / "jobs" / job_id / "search-checkpoint.npz"

            deadline = time.monotonic() + 120
            while self._checkpoint_generation(ckpt) < 5:
                assert time.monotonic() < deadline, \
                    "no mid-search checkpoint appeared"
                assert proc.poll() is None
                time.sleep(0.01)
        finally:
            proc.kill()  # SIGKILL: no cleanup, the claim file stays
            proc.wait(timeout=30)

        killed_at = self._checkpoint_generation(ckpt)
        assert 0 < killed_at < RESUME_OPTIONS["generations"], \
            "search finished before the kill; nothing was interrupted"

        proc, client = self._spawn(root)
        try:
            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done"
            front, _ = load_front(root / "fronts"
                                  / f"front-{final['workload_key']}.npz")
        finally:
            proc.kill()
            proc.wait(timeout=30)

        # Bit-identical resume: the published front equals the one an
        # uninterrupted run produces (same RNG stream, continued).
        wl = kernels.build("cg", **CG_PARAMS)
        result = core.run_campaign(wl, mode="compositional")
        model = build_cost_model(wl)
        evaluator = EnvelopeEvaluator.from_summaries(
            model, result.summaries, result.boundary.space, wl.tolerance)
        config = SearchConfig(target_sdc=0.4,
                              generations=RESUME_OPTIONS["generations"],
                              population=RESUME_OPTIONS["population"],
                              seed=RESUME_OPTIONS["seed"])
        expected = synthesize(evaluator, config,
                              predictor=core.BoundaryPredictor(wl.trace),
                              boundary=result.boundary)
        np.testing.assert_array_equal(front.placements,
                                      expected.front.placements)
        np.testing.assert_array_equal(front.costs, expected.front.costs)
        np.testing.assert_array_equal(front.residuals,
                                      expected.front.residuals)

"""Executor planes must be invisible in the numbers.

Process pools are pure transport: every campaign result must be
bit-identical to the serial run, on every paper kernel.  These tests
enforce the invariant the whole plane design leans on (chunk layout never
affects results; merges are commutative).  Each start method of the pool
is pinned down in test_start_methods.py.
"""

import numpy as np
import pytest

from repro.core import (CampaignConfig, infer_boundary, run_campaign,
                        run_combined)
from repro.core.campaign import _campaign_executor, _plane
from repro.parallel.executor import ProcessPoolCampaignExecutor
from repro.parallel.resilience import RetryPolicy

from tests.helpers import assert_same_adaptive

#: pooled planes by test id -> the config that selects them
PLANES = {"processes": {"n_workers": 2}}


class TestExhaustiveParity:
    @pytest.fixture(scope="class")
    def workloads(self, cg_tiny, lu_tiny, fft_tiny):
        return {"cg": cg_tiny, "lu": lu_tiny, "fft": fft_tiny}

    @pytest.mark.parametrize("kernel", ["cg", "lu", "fft"])
    @pytest.mark.parametrize("plane", PLANES)
    def test_bit_identical_to_serial(self, workloads, kernel, plane):
        wl = workloads[kernel]
        serial = run_campaign(wl, CampaignConfig(mode="exhaustive")).exhaustive
        parallel = run_campaign(wl, CampaignConfig(
            mode="exhaustive", **PLANES[plane])).exhaustive
        np.testing.assert_array_equal(parallel.outcomes, serial.outcomes)
        np.testing.assert_array_equal(parallel.injected_errors,
                                      serial.injected_errors)


class TestInferenceParity:
    @pytest.mark.parametrize("plane", PLANES)
    def test_boundary_bit_identical_to_serial(self, cg_tiny, plane):
        serial = run_campaign(cg_tiny, CampaignConfig(
            mode="monte_carlo", sampling_rate=0.05, seed=3))
        parallel = run_campaign(cg_tiny, CampaignConfig(
            mode="monte_carlo", sampling_rate=0.05, seed=3,
            **PLANES[plane]))
        np.testing.assert_array_equal(parallel.sampled.outcomes,
                                      serial.sampled.outcomes)
        np.testing.assert_array_equal(parallel.boundary.thresholds,
                                      serial.boundary.thresholds)

class TestAdaptiveParity:
    """Rounds classify and feed the guide in pool workers; the guide and
    the boundary derived from it must not notice."""

    @pytest.mark.parametrize("kernel", ["fft", "cg"])
    @pytest.mark.parametrize("plane", PLANES)
    def test_bit_identical_to_serial(self, fft_tiny, cg_tiny, kernel,
                                     plane):
        wl = {"fft": fft_tiny, "cg": cg_tiny}[kernel]
        serial = run_campaign(wl, CampaignConfig(mode="adaptive", seed=4))
        parallel = run_campaign(wl, CampaignConfig(
            mode="adaptive", seed=4, **PLANES[plane]))
        assert serial.rounds > 1
        assert_same_adaptive(parallel, serial)

    def test_combined_bit_identical_to_serial(self, cg_tiny):
        serial = run_combined(cg_tiny, np.random.default_rng(8))
        parallel = run_combined(cg_tiny, np.random.default_rng(8),
                                n_workers=2)
        assert_same_adaptive(parallel, serial)
        assert parallel.n_seed_samples == serial.n_seed_samples


class TestExecutorResolution:
    """The plane follows from ``dist`` and ``n_workers``; there is no
    ``executor`` knob."""

    def test_serial_fallbacks(self):
        for workers in (None, 0, 1):
            assert _plane(workers) == "serial"

    def test_auto_picks_processes(self):
        assert _plane(2) == "processes"
        assert _plane(8) == "processes"

    def test_dist_plane_wins(self):
        plane = object()  # any plane; only its presence is read
        for workers in (None, 1, 4):
            assert _plane(workers, plane) == "dist"

    def test_auto_needs_processes_for_retry_isolation(self, cg_tiny):
        policy = RetryPolicy(max_retries=1)
        with _campaign_executor(cg_tiny, 2, policy) as pool:
            assert isinstance(pool, ProcessPoolCampaignExecutor)
            assert pool.policy is policy

    def test_threads_with_retry_policy_rejected(self):
        """There is no thread plane, and no knob to ask for one."""
        with pytest.raises(TypeError, match="executor"):
            CampaignConfig(mode="exhaustive", executor="threads",
                           n_workers=2, retry_policy=RetryPolicy())

    def test_unknown_kind_rejected(self, cg_tiny):
        """``run_campaign`` passes ``executor=`` on as an unknown field."""
        with pytest.raises(TypeError, match="executor"):
            run_campaign(cg_tiny, mode="exhaustive", executor="serial")

    def test_config_validates_executor(self):
        with pytest.raises(TypeError, match="executor"):
            CampaignConfig(mode="exhaustive", executor="auto")

    def test_processes_is_not_an_executor(self):
        """``n_workers`` alone selects the pool."""
        with pytest.raises(TypeError, match="executor"):
            CampaignConfig(mode="exhaustive", executor="processes",
                           n_workers=2)

    def test_compositional_rejected_with_a_plane(self, cg_tiny):
        """Dist nodes run only phase-A, phase-B and round tasks, so a
        compositional campaign fails before it starts, not on its first
        lease."""
        plane = object()  # never reached: the check runs first
        with pytest.raises(ValueError, match="compositional"):
            run_campaign(cg_tiny, mode="compositional", dist=plane)

    def test_infer_boundary_has_no_executor(self, cg_tiny):
        sampled = run_campaign(cg_tiny, mode="sample",
                               experiments=np.arange(64)).sampled
        with pytest.raises(TypeError, match="executor"):
            infer_boundary(cg_tiny, sampled, executor="serial")

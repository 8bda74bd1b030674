"""Executor planes must be invisible in the numbers.

Process pools are pure transport: every campaign result must be
bit-identical to the serial run, on every paper kernel.  These tests
enforce the invariant the whole plane design leans on (chunk layout never
affects results; merges are commutative).  Each start method of the pool
is pinned down in test_start_methods.py.
"""

import numpy as np
import pytest

from repro.core import CampaignConfig, run_campaign
from repro.core.campaign import _campaign_executor, _resolve_executor_kind
from repro.parallel.resilience import ResilientExecutor, RetryPolicy
from repro.parallel.shm import owned_segment_names

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
        assert owned_segment_names() == []  # plane fully torn down


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

class TestExecutorResolution:
    def test_serial_fallbacks(self):
        for workers in (None, 0, 1):
            assert _resolve_executor_kind("auto", workers) == "serial"
        assert _resolve_executor_kind("serial", 8) == "serial"

    def test_auto_picks_processes(self):
        assert _resolve_executor_kind("auto", 2) == "processes"

    def test_auto_needs_processes_for_retry_isolation(self, cg_tiny):
        policy = RetryPolicy(max_retries=1)
        with _campaign_executor(cg_tiny, 2, policy) as pool:
            assert isinstance(pool, ResilientExecutor)

    def test_threads_with_retry_policy_rejected(self):
        """There is no thread plane: ``threads`` is an unknown executor."""
        with pytest.raises(ValueError, match="unknown executor 'threads'"):
            CampaignConfig(mode="exhaustive", executor="threads",
                           n_workers=2, retry_policy=RetryPolicy())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            _resolve_executor_kind("gpu", 2)

    def test_config_validates_executor(self, cg_tiny):
        with pytest.raises(ValueError, match="unknown executor"):
            CampaignConfig(mode="exhaustive", executor="gpu")

    def test_processes_is_not_an_executor(self):
        """``n_workers`` alone selects the pool."""
        with pytest.raises(ValueError, match="unknown executor 'processes'"):
            CampaignConfig(mode="exhaustive", executor="processes",
                           n_workers=2)

"""Tests for the unified run_campaign() API (repro.core.campaign)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AdaptiveResult,
    CampaignConfig,
    CampaignResult,
    ExhaustiveCampaignResult,
    MonteCarloCampaignResult,
    SampleCampaignResult,
    run_campaign,
)
from repro.core.checkpoint import CampaignCheckpoint
from repro.obs import RecordingSink
from repro.obs.trace import rss_peak_kb


class TestConfigValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign mode"):
            CampaignConfig(mode="turbo")

    def test_nonpositive_batch_budget_rejected(self):
        with pytest.raises(ValueError, match="batch_budget"):
            CampaignConfig(batch_budget=0)

    def test_unknown_backend_rejected(self):
        """There is one replay engine, so no backend field to set."""
        with pytest.raises(TypeError, match="backend"):
            CampaignConfig(backend="llvm")

    def test_sample_mode_needs_experiments(self, cg_tiny):
        with pytest.raises(ValueError, match="experiments"):
            run_campaign(cg_tiny, mode="sample")

    def test_monte_carlo_needs_rate(self, cg_tiny):
        with pytest.raises(ValueError, match="sampling_rate"):
            run_campaign(cg_tiny, mode="monte_carlo")

    def test_overrides_on_top_of_config(self, cg_tiny):
        config = CampaignConfig(mode="sample")
        result = run_campaign(cg_tiny, config,
                              experiments=np.arange(32))
        assert result.sampled.n_samples == 32
        assert config.experiments is None  # original config untouched

    def test_explicit_rng_wins_over_seed(self):
        rng = np.random.default_rng(7)
        config = CampaignConfig(rng=rng, seed=999)
        assert config.resolve_rng() is rng


class TestDispatch:
    def test_sample_mode(self, cg_tiny):
        result = run_campaign(cg_tiny, mode="sample",
                              experiments=np.arange(64))
        assert isinstance(result, SampleCampaignResult)
        assert isinstance(result, CampaignResult)
        assert result.sampled.n_samples == 64
        assert result.boundary is None
        assert result.metrics is None

    def test_monte_carlo_mode(self, cg_tiny):
        result = run_campaign(cg_tiny, mode="monte_carlo",
                              sampling_rate=0.02, seed=5)
        assert isinstance(result, MonteCarloCampaignResult)
        assert result.sampled is not None
        assert result.boundary is not None

    def test_exhaustive_mode(self, cg_tiny, cg_tiny_golden):
        result = run_campaign(cg_tiny, mode="exhaustive")
        assert isinstance(result, ExhaustiveCampaignResult)
        assert np.array_equal(result.exhaustive.outcomes,
                              cg_tiny_golden.outcomes)

    def test_adaptive_mode(self, cg_tiny):
        result = run_campaign(cg_tiny, mode="adaptive", seed=2)
        assert isinstance(result, AdaptiveResult)
        assert isinstance(result, CampaignResult)
        assert result.rounds >= 1
        assert result.boundary is not None


class TestLegacyWrappersRetired:
    """PR-2's deprecated drivers are gone; run_campaign is the surface."""

    @pytest.mark.parametrize("name", ["run_exhaustive", "run_experiments",
                                      "run_monte_carlo", "run_adaptive"])
    def test_wrappers_removed(self, name):
        import repro
        import repro.core
        from repro.core import campaign

        assert not hasattr(campaign, name)
        assert not hasattr(repro.core, name)
        assert not hasattr(repro, name)
        assert name not in repro.core.__all__

    def test_supported_surface_reexported(self):
        import repro

        assert repro.run_campaign is run_campaign
        assert repro.CampaignConfig is CampaignConfig
        from repro import make_replayer
        from repro.engine.batch import make_replayer as engine_make

        assert make_replayer is engine_make


class TestUnifiedResultShape:
    def test_health_surfaces_on_pool_runs(self, cg_tiny):
        from repro.parallel.resilience import RetryPolicy

        result = run_campaign(cg_tiny, mode="sample",
                              experiments=np.arange(64), n_workers=2,
                              retry_policy=RetryPolicy(max_retries=1))
        assert result.health is not None
        assert result.health.clean

    def test_checkpoint_path_set(self, cg_tiny, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "ckpt", cg_tiny)
        result = run_campaign(cg_tiny, mode="sample",
                              experiments=np.arange(32),
                              checkpoint=checkpoint)
        assert result.checkpoint_path == tmp_path / "ckpt"

    def test_checkpoint_path_none_without_checkpoint(self, cg_tiny):
        result = run_campaign(cg_tiny, mode="sample",
                              experiments=np.arange(32))
        assert result.checkpoint_path is None


class TestObservabilityHooks:
    def test_metrics_attach_and_disable_after(self, cg_tiny):
        from repro.obs import METRICS

        assert not METRICS.enabled
        result = run_campaign(cg_tiny, mode="sample",
                              experiments=np.arange(64), metrics=True)
        assert not METRICS.enabled  # restored
        counters = result.metrics["counters"]
        assert counters["experiments.completed"] == 64
        assert "phase_a.chunk_seconds" in result.metrics["histograms"]

    def test_peak_rss_gauge_recorded(self, cg_tiny):
        result = run_campaign(cg_tiny, mode="sample",
                              experiments=np.arange(32), metrics=True)
        if rss_peak_kb() is not None:
            assert result.metrics["gauges"]["rss.peak_kb"] > 0

    def test_metrics_do_not_change_numerics(self, cg_tiny):
        flat = np.arange(150, dtype=np.int64)
        plain = run_campaign(cg_tiny, mode="sample", experiments=flat)
        metered = run_campaign(cg_tiny, mode="sample", experiments=flat,
                               metrics=True)
        assert np.array_equal(plain.sampled.outcomes,
                              metered.sampled.outcomes)
        assert np.array_equal(plain.sampled.injected_errors,
                              metered.sampled.injected_errors)

    def test_trace_sink_sees_phases(self, cg_tiny):
        from repro.obs import TRACER

        sink = RecordingSink()
        result = run_campaign(cg_tiny, mode="monte_carlo",
                              sampling_rate=0.02, seed=4, trace_sink=sink)
        assert result.boundary is not None
        names = [r["name"] for r in sink.records]
        assert "campaign.monte_carlo" in names
        assert "campaign.phase_a" in names
        assert "campaign.phase_b" in names
        root = next(r for r in sink.records
                    if r["name"] == "campaign.monte_carlo")
        assert root["kernel"] == "cg"
        assert root["executor"] == "serial"  # the plane that was picked
        assert not TRACER.enabled  # detached + restored
        assert sink not in TRACER._sinks

    def test_compose_spans_recorded(self, cg_tiny):
        from repro.obs import TRACER

        sink = RecordingSink()
        result = run_campaign(cg_tiny, mode="compositional", trace_sink=sink)
        assert result.boundary is not None
        names = {r["name"] for r in sink.records}
        assert {"campaign.compositional", "compose.section",
                "compose.merge"} <= names
        root = next(r for r in sink.records
                    if r["name"] == "campaign.compositional")
        assert root["kernel"] == "cg"
        assert not TRACER.enabled
        assert sink not in TRACER._sinks

    def test_trace_sink_detached_on_error(self, cg_tiny):
        from repro.obs import TRACER

        sink = RecordingSink()
        with pytest.raises(ValueError):
            run_campaign(cg_tiny, mode="sample", experiments=np.array([]),
                         trace_sink=sink)
        assert not TRACER.enabled
        assert sink not in TRACER._sinks

    def test_metrics_disabled_after_error(self, cg_tiny):
        from repro.obs import METRICS

        with pytest.raises(ValueError):
            run_campaign(cg_tiny, mode="sample", experiments=np.array([]),
                         metrics=True)
        assert not METRICS.enabled
        METRICS.reset()

    def test_adaptive_rounds_counted(self, cg_tiny):
        result = run_campaign(cg_tiny, mode="adaptive", seed=6,
                              metrics=True)
        counters = result.metrics["counters"]
        assert counters["adaptive.rounds"] == result.rounds

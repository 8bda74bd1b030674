"""Tests for campaign metrics (repro.obs.metrics)."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.obs import metrics as m
from repro.obs.metrics import (
    METRICS,
    Histogram,
    MetricsRegistry,
    merge_snapshot,
    snapshot_delta,
)


@pytest.fixture()
def registry():
    return MetricsRegistry(enabled=True)


class TestHistogram:
    def test_count_sum_min_max(self):
        h = Histogram()
        for v in (0.5, 1.0, 2.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(7.5)
        assert h.min == 0.5
        assert h.max == 4.0

    def test_quantiles_bracket_the_distribution(self):
        h = Histogram()
        values = [0.001 * i for i in range(1, 1001)]  # 1ms .. 1s
        for v in values:
            h.observe(v)
        p50 = h.quantile(0.5)
        p99 = h.quantile(0.99)
        # log2 buckets: estimates are coarse but ordered and in-range
        assert h.min <= p50 <= p99 <= h.max
        assert p50 == pytest.approx(0.5, rel=1.0)

    def test_single_observation_quantile_is_exact(self):
        h = Histogram()
        h.observe(0.125)
        assert h.quantile(0.5) == pytest.approx(0.125)
        assert h.quantile(0.99) == pytest.approx(0.125)

    def test_empty_quantile_is_nan(self):
        assert math.isnan(Histogram().quantile(0.5))

    def test_nonpositive_values_survive(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-1.0)
        assert h.count == 2
        assert h.min == -1.0

    def test_round_trip_and_merge(self):
        a, b = Histogram(), Histogram()
        for v in (0.1, 0.2):
            a.observe(v)
        for v in (0.4, 0.8):
            b.observe(v)
        restored = Histogram.from_dict(a.to_dict())
        restored.merge(b)
        assert restored.count == 4
        assert restored.min == pytest.approx(0.1)
        assert restored.max == pytest.approx(0.8)
        assert restored.sum == pytest.approx(1.5)


class TestRegistry:
    def test_counters_gauges_histograms(self, registry):
        registry.inc("a")
        registry.inc("a", 4)
        registry.set_gauge("g", 7.0)
        registry.observe("h", 0.25)
        snap = registry.snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 7.0
        assert snap["histograms"]["h"]["count"] == 1

    def test_disabled_registry_drops_writes(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set_gauge("g", 1)
        registry.observe("h", 1)
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_merge_algebra(self, registry):
        registry.inc("n", 2)
        registry.set_gauge("rss", 100)
        registry.observe("lat", 0.1)
        other = MetricsRegistry(enabled=True)
        other.inc("n", 3)
        other.set_gauge("rss", 50)
        other.observe("lat", 0.4)
        registry.merge(other.snapshot())
        snap = registry.snapshot()
        assert snap["counters"]["n"] == 5           # counters add
        assert snap["gauges"]["rss"] == 100         # gauges take max
        assert snap["histograms"]["lat"]["count"] == 2

    def test_merge_snapshot_is_pure(self):
        a = {"counters": {"x": 1}, "gauges": {}, "histograms": {}}
        b = {"counters": {"x": 2}, "gauges": {}, "histograms": {}}
        merged = merge_snapshot(a, b)
        assert merged["counters"]["x"] == 3
        assert a["counters"]["x"] == 1

    def test_snapshot_delta(self, registry):
        registry.inc("n", 2)
        registry.observe("lat", 0.1)
        before = registry.snapshot()
        registry.inc("n", 3)
        registry.observe("lat", 0.4)
        registry.set_gauge("rss", 10)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"] == {"n": 3}
        assert delta["gauges"] == {"rss": 10.0}
        assert delta["histograms"]["lat"]["count"] == 1

    def test_snapshot_delta_drops_unchanged(self, registry):
        registry.inc("n", 2)
        registry.observe("lat", 0.1)
        before = registry.snapshot()
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"] == {}
        assert delta["histograms"] == {}


class TestGlobalHelpers:
    def test_helpers_write_only_when_enabled(self):
        assert not METRICS.enabled
        m.inc("x")
        m.set_gauge("g", 1)
        m.observe("h", 1)
        assert "x" not in METRICS.counters
        METRICS.enabled = True
        try:
            m.inc("x")
            assert METRICS.counters["x"] == 1
        finally:
            METRICS.enabled = False
            METRICS.reset()


class TestCrossProcessMerge:
    def test_pool_campaign_ships_worker_metrics(self, cg_tiny):
        """Worker-side counters reach the driver's registry via the pool."""
        from repro.core import CampaignConfig, run_campaign

        flat = np.arange(200, dtype=np.int64)
        result = run_campaign(cg_tiny, CampaignConfig(
            mode="sample", experiments=flat, n_workers=2,
            batch_budget=1 << 12,  # force several chunks across workers
            metrics=True))
        counters = result.metrics["counters"]
        # experiments.completed is recorded inside worker processes only
        assert counters["experiments.completed"] == 200
        assert counters["replay.batches"] >= 2
        assert result.metrics["histograms"]["phase_a.chunk_seconds"][
            "count"] == counters["replay.batches"]

    def test_serial_and_pool_agree_on_totals(self, cg_tiny):
        from repro.core import CampaignConfig, run_campaign

        flat = np.arange(128, dtype=np.int64)
        serial = run_campaign(cg_tiny, CampaignConfig(
            mode="sample", experiments=flat, metrics=True))
        pool = run_campaign(cg_tiny, CampaignConfig(
            mode="sample", experiments=flat, n_workers=2, metrics=True))
        assert (serial.metrics["counters"]["experiments.completed"]
                == pool.metrics["counters"]["experiments.completed"] == 128)
        assert np.array_equal(serial.sampled.outcomes, pool.sampled.outcomes)


def _noop_inc(name: str, value: float = 1) -> None:
    """A call with ``m.inc``'s signature that does nothing."""


class TestNoOpOverhead:
    def test_disabled_inc_is_cheap(self):
        """A disabled ``m.inc`` costs little more than a no-op call.

        The call itself is the floor no instrumentation can get under, so
        the baseline loop makes the same call to a no-op and the bound
        applies to what the metrics check adds on top of it.
        """
        assert not METRICS.enabled
        n = 200_000

        def baseline():
            total = 0
            for i in range(n):
                _noop_inc("hot.counter")
                total += i
            return total

        def instrumented():
            total = 0
            for i in range(n):
                m.inc("hot.counter")
                total += i
            return total

        # warm up, then take the best of 5 to shed scheduler noise
        baseline(), instrumented()
        t_base = min(_timed(baseline) for _ in range(5))
        t_inst = min(_timed(instrumented) for _ in range(5))
        assert t_inst <= 1.5 * t_base + 1e-3, (
            f"disabled metrics overhead too high: "
            f"{t_inst:.4f}s vs {t_base:.4f}s for a no-op call")


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0

"""Tests for Algorithm 1 streaming aggregation and the filter operation."""

import numpy as np
import pytest

from repro.core.experiment import SampledResult, SampleSpace
from repro.core.inference import ThresholdAggregator, exact_site_thresholds
from repro.engine import BatchReplayer, TraceBuilder, golden_run
from repro.engine.batch import _block_rows
from repro.engine.classify import Outcome

from ..engine.test_compile import random_tape
from ..helpers import SinkStream, scalar_injected_run

M, S = int(Outcome.MASKED), int(Outcome.SDC)


@pytest.fixture()
def tiny_trace():
    b = TraceBuilder(np.float64)
    x = b.feed("x", 1.0)
    y = x * 2.0
    z = y + 1.0
    b.mark_output(z)
    return golden_run(b.build())


def feed(agg, first, diff, valid=None, sites=None, bits=None):
    diff = np.asarray(diff, dtype=np.float64)
    if valid is None:
        valid = np.ones_like(diff, dtype=bool)
    lanes = diff.shape[1]
    if sites is None:
        sites = np.full(lanes, first)
    if bits is None:
        bits = np.zeros(lanes, dtype=np.int64)
    agg.consume(first, diff, valid, sites, bits)


class TestThresholdAggregator:
    def test_max_aggregation(self, tiny_trace):
        agg = ThresholdAggregator(tiny_trace)
        feed(agg, 0, [[1.0, 3.0], [2.0, 0.5], [0.0, 0.0], [1.0, 1.0],
                      [4.0, 2.0]][:len(tiny_trace.program)])
        # delta_e[j] = max over lanes
        assert agg.delta_e[0] == 3.0
        assert agg.delta_e[1] == 2.0

    def test_algorithm1_is_order_independent(self, tiny_trace):
        n = len(tiny_trace.program)
        rng = np.random.default_rng(0)
        batches = [rng.uniform(0, 10, (n, 3)) for _ in range(4)]
        a1 = ThresholdAggregator(tiny_trace)
        a2 = ThresholdAggregator(tiny_trace)
        for batch in batches:
            feed(a1, 0, batch)
        for batch in reversed(batches):
            feed(a2, 0, batch)
        assert np.array_equal(a1.delta_e, a2.delta_e)
        assert np.array_equal(a1.info, a2.info)

    def test_partial_tape_offset(self, tiny_trace):
        agg = ThresholdAggregator(tiny_trace)
        n = len(tiny_trace.program)
        feed(agg, 2, np.full((n - 2, 1), 5.0))
        assert np.array_equal(agg.delta_e[:2], [0.0, 0.0])
        assert np.all(agg.delta_e[2:] == 5.0)

    def test_valid_mask_excludes_diverged(self, tiny_trace):
        agg = ThresholdAggregator(tiny_trace)
        n = len(tiny_trace.program)
        diff = np.full((n, 1), 7.0)
        valid = np.ones((n, 1), dtype=bool)
        valid[2:, 0] = False
        feed(agg, 0, diff, valid=valid)
        assert agg.delta_e[1] == 7.0
        assert agg.delta_e[2] == 0.0

    def test_filter_caps_discard_contradictory_values(self, tiny_trace):
        n = len(tiny_trace.program)
        caps = np.full(n, np.inf)
        caps[1] = 2.0  # SDC observed at error 2.0 on instruction 1
        agg = ThresholdAggregator(tiny_trace, caps=caps)
        feed(agg, 0, np.full((n, 1), 5.0))  # 5.0 > cap at instr 1
        assert agg.delta_e[0] == 5.0
        assert agg.delta_e[1] == 0.0  # discarded, not clamped
        assert agg.delta_e[2] == 5.0

    def test_value_at_cap_allowed(self, tiny_trace):
        n = len(tiny_trace.program)
        caps = np.full(n, 5.0)
        agg = ThresholdAggregator(tiny_trace, caps=caps)
        feed(agg, 0, np.full((n, 1), 5.0))
        assert np.all(agg.delta_e == 5.0)

    def test_caps_wrong_shape_rejected(self, tiny_trace):
        with pytest.raises(ValueError):
            ThresholdAggregator(tiny_trace, caps=np.ones(2))

    def test_info_counts_significant_only(self, tiny_trace):
        agg = ThresholdAggregator(tiny_trace, rel_info_threshold=1e-8)
        n = len(tiny_trace.program)
        diff = np.zeros((n, 2))
        diff[0, 0] = 1.0      # significant on lane 0
        diff[1, 1] = 1e-12    # below threshold relative to golden ~2.0
        feed(agg, 0, diff)
        assert agg.info[0] == 1
        assert agg.info[1] == 0

    def test_info_counts_filtered_values_too(self, tiny_trace):
        """The filter governs threshold construction, not the S_i counts:
        a site that received (even contradictory) propagation has been
        exercised and should not attract extra adaptive samples."""
        n = len(tiny_trace.program)
        caps = np.zeros(n)
        agg = ThresholdAggregator(tiny_trace, caps=caps)
        feed(agg, 0, np.full((n, 1), 9.0))
        assert np.all(agg.delta_e == 0.0)
        assert np.all(agg.info == 1)

    def test_merge(self, tiny_trace):
        n = len(tiny_trace.program)
        a1 = ThresholdAggregator(tiny_trace)
        a2 = ThresholdAggregator(tiny_trace)
        feed(a1, 0, np.full((n, 1), 1.0))
        feed(a2, 0, np.full((n, 1), 3.0))
        a1.merge(a2)
        assert np.all(a1.delta_e == 3.0)
        assert np.all(a1.info == 2)
        assert a1.n_experiments == 2

    def test_boundary_extraction_site_indexed(self):
        b = TraceBuilder(np.float64)
        x = b.feed("x", 1.0)
        y = b.feed("y", 2.0)
        b.guard_gt(x, y)  # not a site
        z = x + y
        b.mark_output(z)
        trace = golden_run(b.build())
        agg = ThresholdAggregator(trace)
        feed(agg, 0, np.array([[1.0], [2.0], [0.0], [4.0]]))
        space = SampleSpace.of_program(trace.program)
        boundary = agg.boundary(space)
        assert boundary.thresholds.shape == (3,)
        assert np.array_equal(boundary.thresholds, [1.0, 2.0, 4.0])


def whole_batch_state(trace, replays, caps, rel_info_threshold=1e-8):
    """Algorithm 1 over whole-batch deviation matrices, one consume per
    batch: the aggregation as it ran before replays streamed row blocks."""
    n = len(trace.program)
    delta_e = np.zeros(n)
    info = np.zeros(n, dtype=np.int64)
    scale = np.maximum(np.abs(trace.values.astype(np.float64)), 1e-300)
    n_experiments = 0
    for first, abs_diff, valid, sites, _ in replays:
        n_experiments += len(sites)
        sl = slice(first, first + abs_diff.shape[0])
        allowed = valid
        if caps is not None:
            allowed = allowed & (abs_diff <= caps[sl, None])
        contribution = np.where(allowed, abs_diff, 0.0)
        np.maximum(delta_e[sl], contribution.max(axis=1), out=delta_e[sl])
        with np.errstate(over="ignore"):
            rel = abs_diff / scale[sl, None]
        info[sl] += (valid & (rel > rel_info_threshold)).sum(axis=1)
    return delta_e, info, n_experiments


class Tee:
    """Hands every streamed block to several sinks."""

    def __init__(self, *sinks):
        self.sinks = sinks

    def consume(self, *block):
        for sink in self.sinks:
            sink.consume(*block)


class TestStreamedAggregation:
    """Sink replays stream row blocks; the aggregate must not notice."""

    HEIGHT = 16  # rows per block at LANES lanes
    LANES = 2048

    def batch(self, prog, rng):
        """``LANES`` experiments whose blocks start on the first site, on
        an injected row and on a guard row."""
        h = self.HEIGHT
        sites = np.flatnonzero(prog.is_site)
        guards = np.flatnonzero(~prog.is_site)
        guard = int(guards[-1])
        first = int(sites[(sites <= guard - 2 * h)
                          & ((guard - sites) % h == 0)][0])
        starts = np.arange(first, len(prog), h)
        on_start = sites[np.isin(sites, starts[1:])]
        picked = np.concatenate([
            [first], on_start,
            rng.choice(sites[sites >= first],
                       size=self.LANES - 1 - on_start.size)])
        bits_per = prog.dtype.itemsize * 8
        bits = rng.integers(0, bits_per, size=picked.size)
        bits[::5] = bits_per - 2  # top exponent bit: inf and NaN
        bits[1::5] = bits_per - 1  # sign: -0.0 from a zero golden value
        return picked, bits, starts, guard, int(on_start[0])

    @pytest.mark.parametrize("caps_on", [False, True], ids=["no-caps", "caps"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["fp32", "fp64"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_streamed_state_equals_whole_batch_formula(self, seed, dtype,
                                                       caps_on):
        assert _block_rows(self.LANES) == self.HEIGHT
        trace = golden_run(random_tape(seed, guards=True, dtype=dtype))
        prog = trace.program
        n = len(prog)
        rng = np.random.default_rng(seed)
        caps = None
        if caps_on:
            caps = np.abs(trace.values.astype(np.float64)) * rng.uniform(
                0.0, 2.0, size=n)
            caps[rng.random(n) < 0.2] = np.inf
        rep = BatchReplayer(trace)
        agg = ThresholdAggregator(trace, caps=caps)
        stream = SinkStream()
        sites, bits, starts, guard, injected = self.batch(prog, rng)
        batch = rep.replay(sites, bits, sink=Tee(agg, stream))
        # explicit NaN / inf / -0.0 corruptions as a second batch
        values = np.resize(np.array([np.nan, np.inf, -np.inf, -0.0, 1e30],
                                    dtype=dtype), sites.size)
        rep.replay_values(sites, values, sink=Tee(agg, stream))

        block_starts = [b[0] for b in stream.blocks[:len(starts)]]
        assert block_starts == starts.tolist()
        assert {int(sites.min()), guard, injected} <= set(block_starts)
        assert np.any(batch.diverged_at == guard)
        replays = stream.replays(n)
        want = whole_batch_state(trace, replays, caps)
        assert np.array_equal(agg.delta_e, want[0])
        assert np.array_equal(agg.info, want[1])
        assert agg.n_experiments == want[2] == 2 * sites.size

        # the assembled stream itself, against the scalar reference
        first, dev, valid, _, _ = replays[0]
        rows = np.arange(first, n)
        assert np.array_equal(valid, rows[:, None] < batch.diverged_at)
        gold = trace.values.astype(np.float64)
        diverged = np.flatnonzero(batch.diverged)
        # lanes 0 and 1 inject on block starts
        for lane in np.concatenate([[0, 1], diverged[:6], rng.choice(
                sites.size, size=6, replace=False)]):
            vals, _, div = scalar_injected_run(prog, int(sites[lane]),
                                               int(bits[lane]))
            with np.errstate(invalid="ignore", over="ignore"):
                d = np.abs(vals[first:].astype(np.float64) - gold[first:])
            d[np.isnan(d)] = np.inf
            assert np.array_equal(dev[:, lane], d)
            assert np.array_equal(valid[:, lane],
                                  rows < (n if div is None else div))


class TestExactSiteThresholds:
    def make_sampled(self, flat, outcomes, errors, n_sites=3, bits=2):
        space = SampleSpace(site_indices=np.arange(n_sites), bits=bits)
        return SampledResult(space=space,
                             flat=np.asarray(flat, dtype=np.int64),
                             outcomes=np.asarray(outcomes, dtype=np.uint8),
                             injected_errors=np.asarray(errors, np.float64))

    def test_fully_sampled_site_found(self):
        # site 0 fully sampled (bits 0,1); site 1 partially
        res = self.make_sampled([0, 1, 2], [M, S, M], [1.0, 2.0, 3.0])
        pos, th = exact_site_thresholds(res)
        assert np.array_equal(pos, [0])
        assert th[0] == 1.0  # masked at 1.0, SDC at 2.0

    def test_no_fully_sampled_sites(self):
        res = self.make_sampled([0, 2], [M, M], [1.0, 2.0])
        pos, th = exact_site_thresholds(res)
        assert pos.size == 0 and th.size == 0

    def test_all_masked_full_site(self):
        res = self.make_sampled([0, 1], [M, M], [1.0, 5.0])
        pos, th = exact_site_thresholds(res)
        assert th[0] == 5.0

    def test_non_monotonic_full_site(self):
        res = self.make_sampled([0, 1], [S, M], [1.0, 5.0])
        pos, th = exact_site_thresholds(res)
        assert th[0] == 0.0  # masked value above SDC evidence discarded

    def test_matches_exhaustive_rule_on_real_kernel(self, cg_tiny_golden):
        from repro.core.boundary import exhaustive_boundary
        full = cg_tiny_golden.as_sampled(
            np.arange(cg_tiny_golden.space.size))
        pos, th = exact_site_thresholds(full)
        assert pos.size == cg_tiny_golden.space.n_sites
        b = exhaustive_boundary(cg_tiny_golden)
        assert np.array_equal(th, b.thresholds)

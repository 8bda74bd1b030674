"""Tests for the vectorised batch replayer, cross-checked against a scalar
reference injector (tests/helpers.py) and the golden interpreter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    BatchReplayer,
    TraceBuilder,
    golden_run,
    lanes_for_budget,
)

from ..helpers import SinkStream, scalar_injected_run


@pytest.fixture()
def toy_replayer(toy_program):
    return BatchReplayer(golden_run(toy_program))


class TestLanesForBudget:
    def test_respects_budget(self):
        lanes = lanes_for_budget(n_rows=1000, itemsize=4,
                                 budget_bytes=1 << 20, minimum=1)
        assert lanes * 1000 * 12 <= (1 << 20) + 1000 * 12

    def test_budget_is_a_hard_cap_for_long_tapes(self):
        # A tape too long for even `minimum` lanes must NOT get `minimum`
        # lanes anyway: that would blow the byte budget ~1000x for a 1e9-row
        # tape.  It gets as many as fit (at least one).
        assert lanes_for_budget(10**9, 8, budget_bytes=1024) == 1
        lanes = lanes_for_budget(10**6, 8, budget_bytes=1 << 26)
        assert 1 <= lanes * 10**6 * 16 <= (1 << 26)

    def test_zero_rows_does_not_explode(self):
        # n_rows=0 used to yield budget//12 ~ 5.6M lanes at the default
        # budget; a zero-row matrix costs nothing, so width is `minimum`.
        assert lanes_for_budget(0, 8, budget_bytes=1 << 26) == 64
        assert lanes_for_budget(0, 8, budget_bytes=1 << 26,
                                n_experiments=10) == 10

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            lanes_for_budget(-1, 8)

    def test_experiment_count_caps_width(self):
        assert lanes_for_budget(100, 8, budget_bytes=1 << 26,
                                n_experiments=7) == 7
        # ... but never below one lane
        assert lanes_for_budget(100, 8, budget_bytes=1, n_experiments=7) == 1

    def test_scales_with_budget(self):
        small = lanes_for_budget(1000, 8, budget_bytes=1 << 20, minimum=1)
        big = lanes_for_budget(1000, 8, budget_bytes=1 << 24, minimum=1)
        assert big > small


class TestInputValidation:
    def test_empty_batch_rejected(self, toy_replayer):
        with pytest.raises(ValueError):
            toy_replayer.replay(np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64))

    def test_mismatched_lengths_rejected(self, toy_replayer):
        with pytest.raises(ValueError):
            toy_replayer.replay(np.array([0, 1]), np.array([0]))

    def test_out_of_range_site_rejected(self, toy_replayer, toy_program):
        with pytest.raises(ValueError):
            toy_replayer.replay(np.array([len(toy_program)]), np.array([0]))

    def test_guard_injection_rejected(self):
        b = TraceBuilder(np.float64)
        x = b.feed("x", 1.0)
        y = b.feed("y", 2.0)
        g = b.guard_gt(x, y)
        b.mark_output(x)
        rep = BatchReplayer(golden_run(b.build()))
        with pytest.raises(ValueError, match="non-site"):
            rep.replay(np.array([g.index]), np.array([0]))


class TestAgainstScalarReference:
    def test_every_site_and_several_bits(self, toy_program):
        """Batch replay must match one-at-a-time scalar injection exactly."""
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        sites = toy_program.site_indices
        bits = [0, 7, 23, 30, 31]
        all_sites = np.repeat(sites, len(bits))
        all_bits = np.tile(bits, len(sites))
        batch = rep.replay(all_sites, all_bits)
        for lane in range(batch.n_lanes):
            _, out_ref, _ = scalar_injected_run(
                toy_program, int(all_sites[lane]), int(all_bits[lane]))
            got = batch.outputs[:, lane]
            assert np.array_equal(
                np.isnan(got), np.isnan(out_ref)), (lane,)
            ok = ~np.isnan(out_ref)
            assert np.array_equal(got[ok], out_ref[ok]), (
                all_sites[lane], all_bits[lane])

    def test_cg_random_experiments(self, cg_tiny):
        prog = cg_tiny.program
        rep = BatchReplayer(cg_tiny.trace)
        rng = np.random.default_rng(7)
        sites = rng.choice(prog.site_indices, size=24)
        bits = rng.integers(0, 32, size=24)
        batch = rep.replay(sites, bits)
        for lane in range(24):
            _, out_ref, _ = scalar_injected_run(prog, int(sites[lane]),
                                                int(bits[lane]))
            got = batch.outputs[:, lane]
            both_nan = np.isnan(got) & np.isnan(out_ref)
            assert np.array_equal(got[~both_nan], out_ref[~both_nan])


class TestInjectionSemantics:
    def test_injected_value_is_flip_of_golden(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        site = int(toy_program.site_indices[3])
        batch = rep.replay(np.array([site]), np.array([31]))
        assert batch.injected_values[0] == -trace.values[site]

    def test_injected_error_magnitude(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        site = int(toy_program.site_indices[2])
        batch = rep.replay(np.array([site]), np.array([31]))
        assert batch.injected_errors[0] == pytest.approx(
            2 * abs(float(trace.values[site])))

    def test_lanes_before_injection_match_golden(self, cg_tiny):
        """A lane injecting late must reproduce golden values early —
        verified indirectly: flipping the sign of an exact-zero site changes
        nothing, so the output equals the golden output bit-for-bit."""
        prog = cg_tiny.program
        trace = cg_tiny.trace
        zero_sites = prog.site_indices[trace.site_values == 0.0]
        assert zero_sites.size > 0, "CG zero-init region expected"
        rep = BatchReplayer(trace)
        sign_bit = prog.bits_per_site - 1
        batch = rep.replay(zero_sites[:4],
                           np.full(4, sign_bit))
        golden_out = trace.output.astype(np.float64)
        for lane in range(batch.n_lanes):
            assert np.array_equal(batch.outputs[:, lane], golden_out)

    def test_multiple_lanes_same_site_different_bits(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        site = int(toy_program.site_indices[4])
        batch = rep.replay(np.array([site, site, site]),
                           np.array([0, 15, 31]))
        # three distinct corruptions -> three distinct injected values
        assert len(np.unique(batch.injected_values)) == 3


class TestPropagationSink:
    def test_sink_receives_deviations(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        sink = SinkStream()
        site = int(toy_program.site_indices[3])
        batch = rep.replay(np.array([site]), np.array([31]), sink=sink)
        first, diff, valid, sites, bits = sink.assemble(len(toy_program))
        assert first == site
        assert diff.shape == (len(toy_program) - site, 1)
        assert valid.all()  # no guards -> no divergence
        # deviation at the injection row equals the injected error
        assert diff[0, 0] == batch.injected_errors[0]

    def test_sink_deviations_match_scalar_reference(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        sink = SinkStream()
        site = int(toy_program.site_indices[2])
        rep.replay(np.array([site]), np.array([24]), sink=sink)
        _, diff, _, _, _ = sink.assemble(len(toy_program))
        vals_ref, _, _ = scalar_injected_run(toy_program, site, 24)
        expect = np.abs(vals_ref.astype(np.float64)
                        - trace.values.astype(np.float64))[site:]
        assert np.allclose(diff[:, 0], expect, rtol=0, atol=0)

    def test_no_sink_no_overhead_path(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        site = int(toy_program.site_indices[0])
        batch = rep.replay(np.array([site]), np.array([1]))  # must not raise
        assert batch.n_lanes == 1


class TestDivergence:
    @pytest.fixture()
    def guarded_setup(self):
        b = TraceBuilder(np.float64)
        x = b.feed("x", 1.0)
        thresh = b.const(10.0)
        doubled = x * 2.0
        g = b.guard_gt(doubled, thresh)  # golden: 2 > 10 is False
        out = doubled + 1.0
        b.mark_output(out)
        return b.build(), doubled.index, g.index

    def test_flipped_branch_flags_divergence(self, guarded_setup):
        prog, site, guard_idx = guarded_setup
        trace = golden_run(prog)
        rep = BatchReplayer(trace)
        # Flip bits of `doubled`; some corruption exceeds the threshold.
        bits = np.arange(prog.bits_per_site)
        batch = rep.replay(np.full_like(bits, site), bits)
        assert batch.diverged.any()
        assert not batch.diverged.all()
        assert np.all(batch.diverged_at[batch.diverged] == guard_idx)

    def test_sink_valid_mask_stops_at_divergence(self, guarded_setup):
        prog, site, guard_idx = guarded_setup
        trace = golden_run(prog)
        rep = BatchReplayer(trace)
        sink = SinkStream()
        bits = np.arange(prog.bits_per_site)
        batch = rep.replay(np.full_like(bits, site), bits, sink=sink)
        first, _, valid, _, _ = sink.assemble(len(prog))
        guard_row = guard_idx - first
        for lane in range(batch.n_lanes):
            if batch.diverged[lane]:
                assert not valid[guard_row:, lane].any()
                assert valid[:guard_row, lane].all()
            else:
                assert valid[:, lane].all()


class TestUncorruptedLaneBitExactness:
    @given(st.integers(min_value=0, max_value=9))
    @settings(max_examples=10, deadline=None)
    def test_flip_and_flip_back_semantics(self, site_pos):
        """Flipping bit b of a site and comparing against the scalar oracle
        across several random tapes (property over site choice)."""
        rng = np.random.default_rng(site_pos)
        b = TraceBuilder(np.float32)
        vals = [b.feed(f"i{k}", float(rng.uniform(0.5, 2.0)))
                for k in range(4)]
        for _ in range(8):
            op = rng.integers(0, 3)
            a_v, b_v = rng.choice(len(vals), 2)
            if op == 0:
                vals.append(vals[a_v] + vals[b_v])
            elif op == 1:
                vals.append(vals[a_v] * vals[b_v])
            else:
                vals.append(vals[a_v] - vals[b_v])
        b.mark_output(vals[-1])
        prog = b.build()
        trace = golden_run(prog)
        rep = BatchReplayer(trace)
        site = int(prog.site_indices[site_pos])
        batch = rep.replay(np.array([site]), np.array([20]))
        _, out_ref, _ = scalar_injected_run(prog, site, 20)
        assert np.array_equal(batch.outputs[:, 0], out_ref)

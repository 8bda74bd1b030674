"""Integration tests for the campaign drivers."""

import numpy as np
import pytest

from repro.core import (
    BoundaryPredictor,
    ProgressiveConfig,
    SampleSpace,
    infer_boundary,
    run_campaign,
    uniform_sample,
)
from repro.engine.classify import Outcome
from repro.kernels import build

M = int(Outcome.MASKED)


class TestRunExperiments:
    def test_subset_matches_exhaustive(self, cg_tiny, cg_tiny_golden, rng):
        flat = uniform_sample(cg_tiny_golden.space, 300, rng)
        sampled = run_campaign(cg_tiny, mode="sample", experiments=flat).sampled
        reference = cg_tiny_golden.as_sampled(flat)
        assert np.array_equal(sampled.outcomes, reference.outcomes)
        assert np.array_equal(sampled.injected_errors,
                              reference.injected_errors)

    def test_empty_request_rejected(self, cg_tiny):
        with pytest.raises(ValueError):
            run_campaign(cg_tiny, mode="sample", experiments=np.array([], dtype=np.int64)).sampled

    def test_small_batch_budget_same_result(self, cg_tiny, rng):
        """Chunking must not change outcomes."""
        flat = uniform_sample(SampleSpace.of_program(cg_tiny.program),
                              200, rng)
        a = run_campaign(cg_tiny, mode="sample", experiments=flat).sampled
        b = run_campaign(cg_tiny, mode="sample", experiments=flat, batch_budget=1 << 18).sampled
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_parallel_equals_serial(self, cg_tiny, rng):
        flat = uniform_sample(SampleSpace.of_program(cg_tiny.program),
                              200, rng)
        a = run_campaign(cg_tiny, mode="sample", experiments=flat).sampled
        b = run_campaign(cg_tiny, mode="sample", experiments=flat, n_workers=2).sampled
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.injected_errors, b.injected_errors)


class TestRunExhaustive:
    def test_grid_covers_space(self, cg_tiny_golden):
        space = cg_tiny_golden.space
        assert cg_tiny_golden.outcomes.shape == (space.n_sites, space.bits)
        # every experiment classified into a valid outcome
        assert cg_tiny_golden.outcomes.max() <= int(Outcome.DIVERGED)

    def test_sign_flip_of_zero_sites_masked(self, cg_tiny, cg_tiny_golden):
        """CG's zero-init stores: flipping the sign of 0.0 is a no-op."""
        prog = cg_tiny.program
        zero_positions = np.flatnonzero(cg_tiny.trace.site_values == 0.0)
        sign_bit = prog.bits_per_site - 1
        assert np.all(cg_tiny_golden.outcomes[zero_positions, sign_bit] == M)


class TestInferBoundary:
    def test_unfiltered_thresholds_cover_masked_injections(
            self, cg_tiny, cg_tiny_golden, rng):
        """Algorithm 1 invariant: each masked sample's own injected error
        is part of the aggregation, so without the filter the threshold at
        its site is at least that error."""
        flat = uniform_sample(cg_tiny_golden.space, 400, rng)
        sampled = run_campaign(cg_tiny, mode="sample", experiments=flat).sampled
        boundary = infer_boundary(cg_tiny, sampled, use_filter=False,
                                  exact_rule=False)
        pos, _ = sampled.space.decode(sampled.flat)
        masked = sampled.masked_mask
        finite = np.isfinite(sampled.injected_errors)
        sel = masked & finite
        assert np.all(boundary.thresholds[pos[sel]]
                      >= sampled.injected_errors[sel])

    def test_filtered_thresholds_below_sdc_evidence(
            self, cg_tiny, cg_tiny_golden, rng):
        """§3.5 invariant: with the filter, no threshold exceeds the
        smallest non-masked injected error observed at its site."""
        flat = uniform_sample(cg_tiny_golden.space, 600, rng)
        sampled = run_campaign(cg_tiny, mode="sample", experiments=flat).sampled
        boundary = infer_boundary(cg_tiny, sampled, use_filter=True,
                                  exact_rule=False)
        caps = sampled.min_sdc_error_per_site()
        assert np.all(boundary.thresholds <= caps)

    def test_filter_never_raises_thresholds(self, cg_tiny, rng):
        flat = uniform_sample(SampleSpace.of_program(cg_tiny.program),
                              400, rng)
        sampled = run_campaign(cg_tiny, mode="sample", experiments=flat).sampled
        b_plain = infer_boundary(cg_tiny, sampled, use_filter=False,
                                 exact_rule=False)
        b_filt = infer_boundary(cg_tiny, sampled, use_filter=True,
                                exact_rule=False)
        assert np.all(b_filt.thresholds <= b_plain.thresholds)

    def test_exact_rule_marks_fully_sampled_sites(self, cg_tiny,
                                                  cg_tiny_golden):
        space = cg_tiny_golden.space
        # sample every bit of sites 0..4 plus a few loose experiments
        full = np.concatenate([np.arange(5 * space.bits),
                               np.array([7 * space.bits + 3])])
        sampled = run_campaign(cg_tiny, mode="sample", experiments=full).sampled
        boundary = infer_boundary(cg_tiny, sampled, exact_rule=True)
        assert boundary.exact[:5].all()
        assert not boundary.exact[5:].any()

    def test_info_counts_present(self, cg_tiny, rng):
        flat = uniform_sample(SampleSpace.of_program(cg_tiny.program),
                              300, rng)
        sampled = run_campaign(cg_tiny, mode="sample", experiments=flat).sampled
        boundary = infer_boundary(cg_tiny, sampled)
        assert boundary.info is not None
        assert boundary.info.sum() > 0

    def test_no_masked_samples_gives_zero_boundary(self, cg_tiny,
                                                   cg_tiny_golden):
        # pick only known-SDC experiments
        sdc_flat = np.flatnonzero(
            (cg_tiny_golden.outcomes == int(Outcome.SDC)).ravel())[:50]
        sampled = run_campaign(cg_tiny, mode="sample", experiments=sdc_flat).sampled
        boundary = infer_boundary(cg_tiny, sampled, exact_rule=False)
        assert np.all(boundary.thresholds == 0.0)

    def test_parallel_equals_serial(self, cg_tiny, rng):
        flat = uniform_sample(SampleSpace.of_program(cg_tiny.program),
                              300, rng)
        sampled = run_campaign(cg_tiny, mode="sample", experiments=flat).sampled
        b1 = infer_boundary(cg_tiny, sampled)
        b2 = infer_boundary(cg_tiny, sampled, n_workers=2)
        assert np.array_equal(b1.thresholds, b2.thresholds)
        assert np.array_equal(b1.info, b2.info)


class TestSpeclessWorkloadsRunParallel:
    def test_specless_workload_runs_on_every_plane(self, cg_tiny, rng):
        """Forked workers inherit the tape and forkserver workers unpickle
        it, so a workload without (kernel, params) provenance runs on
        process workers, bit-identically to serial (the forkserver case is
        in test_start_methods.py)."""
        import copy

        bare = copy.copy(cg_tiny)
        bare.program = copy.copy(cg_tiny.program)
        bare.program.spec = None
        flat = uniform_sample(SampleSpace.of_program(bare.program), 50, rng)
        serial = run_campaign(bare, mode="sample", experiments=flat).sampled
        result = run_campaign(bare, mode="sample", experiments=flat,
                              n_workers=2).sampled
        assert np.array_equal(result.outcomes, serial.outcomes)
        assert np.array_equal(result.injected_errors,
                              serial.injected_errors)


class TestWorkerToleranceConsistency:
    def test_overridden_tolerance_reaches_workers(self, rng):
        """Workers receive the workload itself; a tolerance overridden
        after construction must still govern their classification."""
        wl = build("cg", n=8, iters=8)
        wl.tolerance = wl.tolerance * 10  # domain user relaxes T
        flat = uniform_sample(SampleSpace.of_program(wl.program), 300, rng)
        serial = run_campaign(wl, mode="sample", experiments=flat).sampled
        parallel = run_campaign(wl, mode="sample", experiments=flat, n_workers=2).sampled
        assert np.array_equal(serial.outcomes, parallel.outcomes)

    def test_looser_tolerance_masks_more(self, rng):
        tight = build("cg", n=8, iters=8, rel_tolerance=0.001)
        loose = build("cg", n=8, iters=8, rel_tolerance=0.5)
        flat = uniform_sample(SampleSpace.of_program(tight.program),
                              400, rng)
        st = run_campaign(tight, mode="sample", experiments=flat).sampled
        sl = run_campaign(loose, mode="sample", experiments=flat).sampled
        assert sl.masked_mask.sum() > st.masked_mask.sum()


class TestRunMonteCarlo:
    def test_reproducible_with_seed(self, cg_tiny):
        _mc = run_campaign(cg_tiny, mode="monte_carlo", sampling_rate=0.02, rng=np.random.default_rng(9))
        s1, b1 = _mc.sampled, _mc.boundary
        _mc = run_campaign(cg_tiny, mode="monte_carlo", sampling_rate=0.02, rng=np.random.default_rng(9))
        s2, b2 = _mc.sampled, _mc.boundary
        assert np.array_equal(s1.flat, s2.flat)
        assert np.array_equal(b1.thresholds, b2.thresholds)

    def test_sampling_rate_respected(self, cg_tiny, rng):
        sampled = run_campaign(cg_tiny, mode="monte_carlo", sampling_rate=0.05, rng=rng).sampled
        space = SampleSpace.of_program(cg_tiny.program)
        assert sampled.n_samples == int(round(0.05 * space.size))

    def test_invalid_rate_rejected(self, cg_tiny, rng):
        with pytest.raises(ValueError):
            run_campaign(cg_tiny, mode="monte_carlo", sampling_rate=0.0, rng=rng)
        with pytest.raises(ValueError):
            run_campaign(cg_tiny, mode="monte_carlo", sampling_rate=1.5, rng=rng)

    def test_quality_reasonable_at_moderate_rate(self, cg_tiny,
                                                 cg_tiny_golden, rng):
        from repro.core import evaluate_boundary, run_campaign
        _mc = run_campaign(cg_tiny, mode="monte_carlo", sampling_rate=0.05, rng=rng)
        sampled, boundary = _mc.sampled, _mc.boundary
        predictor = BoundaryPredictor(cg_tiny.trace)
        q = evaluate_boundary(predictor, boundary, cg_tiny_golden, sampled)
        assert q.precision > 0.9
        assert q.recall > 0.7


class RecordingProgress:
    def __init__(self):
        self.updates = []
        self.finished = False

    def update(self, done, total):
        self.updates.append((done, total))

    def finish(self):
        self.finished = True


class TestStreamingProgress:
    def test_pool_progress_advances_per_chunk(self, cg_tiny, rng):
        """Pool campaigns must stream progress chunk by chunk, not jump
        from zero to everything at the end."""
        from repro.core.campaign import _chunk_flats

        flat = uniform_sample(SampleSpace.of_program(cg_tiny.program),
                              400, rng)
        n_chunks = len(_chunk_flats(cg_tiny, flat, 1 << 14))
        assert n_chunks > 2

        progress = RecordingProgress()
        run_campaign(cg_tiny, mode="sample", experiments=flat, n_workers=2, batch_budget=1 << 14, progress=progress).sampled
        assert len(progress.updates) == n_chunks
        dones = [d for d, _ in progress.updates]
        assert dones == sorted(dones)
        assert dones[0] < len(flat)  # intermediate updates, not one jump
        assert progress.updates[-1] == (len(flat), len(flat))
        assert progress.finished

    def test_serial_progress_unchanged(self, cg_tiny, rng):
        flat = uniform_sample(SampleSpace.of_program(cg_tiny.program),
                              200, rng)
        progress = RecordingProgress()
        run_campaign(cg_tiny, mode="sample", experiments=flat, batch_budget=1 << 14, progress=progress).sampled
        assert progress.updates[-1] == (len(flat), len(flat))
        assert len(progress.updates) > 1


class TestRunAdaptive:
    def test_terminates_and_returns_history(self, cg_tiny):
        result = run_campaign(cg_tiny, mode="adaptive", rng=np.random.default_rng(3))
        assert result.rounds >= 1
        assert len(result.round_history) == result.rounds
        assert result.sampled.n_samples == sum(
            h["n_samples"] for h in result.round_history)

    def test_uses_fraction_of_space(self, cg_tiny):
        result = run_campaign(cg_tiny, mode="adaptive", rng=np.random.default_rng(4))
        assert 0 < result.sampling_rate < 0.5

    def test_boundary_filtered(self, cg_tiny):
        result = run_campaign(cg_tiny, mode="adaptive", rng=np.random.default_rng(5))
        caps = result.sampled.min_sdc_error_per_site()
        # exact-rule sites may exceed inference caps only when fully sampled
        free = ~result.boundary.exact
        assert np.all(result.boundary.thresholds[free] <= caps[free])

    def test_respects_max_rounds(self, cg_tiny):
        cfg = ProgressiveConfig(max_rounds=2)
        result = run_campaign(cg_tiny, mode="adaptive", rng=np.random.default_rng(6), progressive=cfg)
        assert result.rounds <= 2

"""CFG workloads through ``run_campaign``: taxonomy, executors, config."""

from __future__ import annotations

import numpy as np
import pytest

from repro import core
from repro.cfg.workload import CfgWorkload
from repro.core.checkpoint import CampaignCheckpoint
from repro.parallel.executor import pool_start_method

from tests.helpers import assert_same_adaptive, extra_thread, run_fresh

from .conftest import build_countdown

SPECLESS_FORK = """
import threading
import numpy as np
from repro import core
from repro.cfg.workload import CfgWorkload
from tests.cfg.conftest import build_countdown
assert threading.active_count() == 1
bare = CfgWorkload(program=build_countdown(), tolerance=0.5,
                   description="spec-less countdown")
serial = core.run_campaign(bare, mode="exhaustive").exhaustive
pooled = core.run_campaign(bare, mode="exhaustive", n_workers=2).exhaustive
np.testing.assert_array_equal(pooled.outcomes, serial.outcomes)
np.testing.assert_array_equal(pooled.injected_errors, serial.injected_errors)
"""


class TestDynamicCgTaxonomy:
    def test_all_five_outcomes_present(self, cg_dyn_tiny_golden):
        counts = cg_dyn_tiny_golden.outcome_counts()
        for name in ("MASKED", "SDC", "CRASH", "DIVERGED", "HANG"):
            assert counts[name] > 0, f"missing outcome class {name}"

    def test_counts_cover_the_space(self, cg_dyn_tiny_golden):
        counts = cg_dyn_tiny_golden.outcome_counts()
        assert sum(counts.values()) == cg_dyn_tiny_golden.space.size

    def test_ratios_sum_to_one(self, cg_dyn_tiny_golden):
        g = cg_dyn_tiny_golden
        total = (g.masked_ratio() + g.sdc_ratio() + g.crash_ratio()
                 + g.diverged_ratio() + g.hang_ratio())
        assert total == pytest.approx(1.0)

    def test_fixed_iteration_cg_never_hangs(self, cg_tiny_golden):
        assert cg_tiny_golden.outcome_counts()["HANG"] == 0


class TestLuPivot:
    def test_swaps_diverge_but_never_hang(self, lu_pivot_tiny):
        golden = core.run_campaign(lu_pivot_tiny, mode="exhaustive").exhaustive
        counts = golden.outcome_counts()
        assert counts["DIVERGED"] > 0  # pivot choice flipped
        assert counts["HANG"] == 0  # acyclic CFG: hang unreachable
        assert counts["MASKED"] > 0


class TestExecutorParity:
    @pytest.mark.parametrize("n_workers", [2], ids=["processes"])
    def test_exhaustive_bit_identical(self, cg_dyn_tiny, cg_dyn_tiny_golden,
                                      n_workers):
        result = core.run_campaign(
            cg_dyn_tiny, mode="exhaustive", n_workers=n_workers).exhaustive
        np.testing.assert_array_equal(result.outcomes,
                                      cg_dyn_tiny_golden.outcomes)
        np.testing.assert_array_equal(result.injected_errors,
                                      cg_dyn_tiny_golden.injected_errors)

    def test_specless_runs_under_forkserver(self):
        """Workers the forkserver starts unpickle the workload itself, so a
        spec-less CFG workload runs on them, bit-identically to serial."""
        def bare():
            return CfgWorkload(program=build_countdown(), tolerance=0.5,
                               description="spec-less countdown")

        serial = core.run_campaign(bare(), mode="exhaustive").exhaustive
        with extra_thread():
            assert pool_start_method() == "forkserver"
            pooled = core.run_campaign(bare(), mode="exhaustive",
                                       n_workers=2).exhaustive
        np.testing.assert_array_equal(pooled.outcomes, serial.outcomes)
        np.testing.assert_array_equal(pooled.injected_errors,
                                      serial.injected_errors)

    def test_specless_runs_on_forked_workers(self):
        """Forked workers inherit the workload itself: no spec needed."""
        run_fresh(SPECLESS_FORK)


class TestBackendValidation:
    def test_compiled_backend_fails_fast(self, cg_dyn_tiny):
        """There is one replay engine: the old selector is rejected."""
        with pytest.raises(TypeError, match="backend"):
            core.run_campaign(cg_dyn_tiny, mode="exhaustive",
                              backend="compiled")

    def test_compositional_mode_rejected(self, cg_dyn_tiny):
        with pytest.raises(ValueError, match="compositional"):
            core.run_campaign(cg_dyn_tiny, mode="compositional")


class TestSampledAndAdaptive:
    def test_monte_carlo_subset_matches_ground_truth(self, cg_dyn_tiny,
                                                     cg_dyn_tiny_golden):
        rng = np.random.default_rng(7)
        flat = np.sort(rng.choice(cg_dyn_tiny_golden.space.size, size=512,
                                  replace=False))
        sampled = core.run_campaign(cg_dyn_tiny, mode="sample",
                                    experiments=flat).sampled
        pos, bit = cg_dyn_tiny_golden.space.decode(flat)
        np.testing.assert_array_equal(
            sampled.outcomes, cg_dyn_tiny_golden.outcomes[pos, bit])

    def test_sampled_outcome_counts(self, cg_dyn_tiny):
        result = core.run_campaign(cg_dyn_tiny, mode="monte_carlo",
                                   sampling_rate=0.05, seed=3)
        counts = result.sampled.outcome_counts()
        assert sum(counts.values()) == result.sampled.n_samples

    def test_adaptive_runs_on_cfg(self, cg_dyn_tiny):
        result = core.run_campaign(cg_dyn_tiny, mode="adaptive",
                                   sampling_rate=0.02, seed=5)
        assert result.boundary is not None
        assert len(result.boundary.thresholds) == cg_dyn_tiny.program.n_sites

    def test_combined_runs_on_cfg(self, cg_dyn_tiny):
        """The §6 hybrid groups sites by dynamic opcode and region, and its
        rounds run on the CFG replayer, bit-identically on a pool."""
        serial = core.run_combined(cg_dyn_tiny, np.random.default_rng(1))
        assert len(serial.boundary.thresholds) == cg_dyn_tiny.program.n_sites
        assert serial.n_seed_samples > 0 and serial.rounds > 0
        pooled = core.run_combined(cg_dyn_tiny, np.random.default_rng(1),
                                   n_workers=2)
        assert_same_adaptive(pooled, serial)


class TestCheckpointing:
    def test_checkpoint_and_resume_bit_identical(self, tmp_path, cg_dyn_tiny,
                                                 cg_dyn_tiny_golden):
        cp = CampaignCheckpoint(tmp_path / "cp", cg_dyn_tiny)
        first = core.run_campaign(cg_dyn_tiny, mode="exhaustive",
                                  checkpoint=cp).exhaustive
        np.testing.assert_array_equal(first.outcomes,
                                      cg_dyn_tiny_golden.outcomes)
        # resuming a finished campaign replays nothing and agrees
        cp2 = CampaignCheckpoint(tmp_path / "cp", cg_dyn_tiny, resume=True)
        second = core.run_campaign(cg_dyn_tiny, mode="exhaustive",
                                   checkpoint=cp2).exhaustive
        np.testing.assert_array_equal(second.outcomes, first.outcomes)
        np.testing.assert_array_equal(second.injected_errors,
                                      first.injected_errors)

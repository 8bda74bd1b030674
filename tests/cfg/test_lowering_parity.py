"""Property: a lowered straight-line Program is bit-identical through the
CFG path — outcomes, boundaries and checkpoints match the tape engine on
every executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro import core, kernels
from repro.core.checkpoint import CampaignCheckpoint

PARAMS = {"n": 4, "iters": 3}


@pytest.fixture(scope="module")
def tape_wl():
    return kernels.build("cg", **PARAMS)


@pytest.fixture(scope="module")
def lowered_wl():
    return kernels.build("cfg-lowered", kernel="cg", params=dict(PARAMS))


@pytest.fixture(scope="module")
def tape_golden(tape_wl):
    return core.run_campaign(tape_wl, mode="exhaustive").exhaustive


class TestExhaustiveParity:
    @pytest.mark.parametrize("n_workers", [None, 2],
                             ids=["serial", "processes"])
    def test_outcomes_bit_identical(self, lowered_wl, tape_golden,
                                    n_workers):
        result = core.run_campaign(
            lowered_wl, mode="exhaustive", n_workers=n_workers).exhaustive
        np.testing.assert_array_equal(result.outcomes, tape_golden.outcomes)
        np.testing.assert_array_equal(result.injected_errors,
                                      tape_golden.injected_errors)

    def test_same_sample_space(self, tape_wl, lowered_wl):
        assert (lowered_wl.program.sample_space_size
                == tape_wl.program.sample_space_size)
        np.testing.assert_array_equal(lowered_wl.program.site_indices,
                                      tape_wl.program.site_indices)
        assert lowered_wl.tolerance == tape_wl.tolerance


class TestBoundaryParity:
    def test_monte_carlo_boundary_bit_identical(self, tape_wl, lowered_wl):
        kwargs = dict(mode="monte_carlo", sampling_rate=0.2, seed=11)
        tape = core.run_campaign(tape_wl, **kwargs)
        cfg = core.run_campaign(lowered_wl, **kwargs)
        np.testing.assert_array_equal(cfg.sampled.flat, tape.sampled.flat)
        np.testing.assert_array_equal(cfg.sampled.outcomes,
                                      tape.sampled.outcomes)
        np.testing.assert_array_equal(cfg.boundary.thresholds,
                                      tape.boundary.thresholds)

    def test_adaptive_boundary_bit_identical(self, tape_wl, lowered_wl):
        kwargs = dict(mode="adaptive", sampling_rate=0.05, seed=13)
        tape = core.run_campaign(tape_wl, **kwargs)
        cfg = core.run_campaign(lowered_wl, **kwargs)
        np.testing.assert_array_equal(cfg.boundary.thresholds,
                                      tape.boundary.thresholds)


class TestCheckpointParity:
    def test_checkpointed_run_matches_tape(self, tmp_path, lowered_wl,
                                           tape_golden):
        cp = CampaignCheckpoint(tmp_path / "cp", lowered_wl)
        result = core.run_campaign(lowered_wl, mode="exhaustive",
                                   checkpoint=cp).exhaustive
        np.testing.assert_array_equal(result.outcomes, tape_golden.outcomes)
        cp2 = CampaignCheckpoint(tmp_path / "cp", lowered_wl, resume=True)
        resumed = core.run_campaign(lowered_wl, mode="exhaustive",
                                    checkpoint=cp2).exhaustive
        np.testing.assert_array_equal(resumed.outcomes, tape_golden.outcomes)

    def test_checkpoint_rejects_other_workload(self, tmp_path, lowered_wl,
                                               tape_wl):
        CampaignCheckpoint(tmp_path / "cp", lowered_wl)
        with pytest.raises(ValueError):
            CampaignCheckpoint(tmp_path / "cp", tape_wl, resume=True)

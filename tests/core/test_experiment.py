"""Tests for SampleSpace and campaign result containers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import ExhaustiveResult, SampledResult, SampleSpace
from repro.engine.classify import Outcome


def small_space(n_sites=5, bits=32):
    return SampleSpace(site_indices=np.arange(10, 10 + 2 * n_sites, 2),
                       bits=bits)


class TestSampleSpace:
    def test_of_program(self, toy_program):
        space = SampleSpace.of_program(toy_program)
        assert space.n_sites == toy_program.n_sites
        assert space.bits == 32
        assert space.size == toy_program.sample_space_size

    def test_encode_decode_roundtrip_manual(self):
        space = small_space()
        flat = space.encode(np.array([0, 2, 4]), np.array([0, 5, 31]))
        pos, bit = space.decode(flat)
        assert np.array_equal(pos, [0, 2, 4])
        assert np.array_equal(bit, [0, 5, 31])

    @given(st.integers(min_value=1, max_value=50),
           st.sampled_from([32, 64]),
           st.data())
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_roundtrip_property(self, n_sites, bits, data):
        space = SampleSpace(site_indices=np.arange(n_sites), bits=bits)
        flat = data.draw(st.lists(
            st.integers(min_value=0, max_value=space.size - 1),
            min_size=1, max_size=20))
        flat = np.array(flat, dtype=np.int64)
        pos, bit = space.decode(flat)
        assert np.array_equal(space.encode(pos, bit), flat)

    def test_instructions_of(self):
        space = small_space()
        instr, bit = space.instructions_of(np.array([0, 33]))
        assert instr[0] == 10  # site 0 lives at tape index 10
        assert bit[0] == 0
        assert instr[1] == 12  # flat 33 -> site 1, bit 1
        assert bit[1] == 1

    def test_out_of_range_rejected(self):
        space = small_space()
        with pytest.raises(ValueError):
            space.decode(np.array([space.size]))
        with pytest.raises(ValueError):
            space.encode(np.array([5]), np.array([0]))
        with pytest.raises(ValueError):
            space.encode(np.array([0]), np.array([32]))


def make_exhaustive(outcome_grid, inj=None):
    grid = np.asarray(outcome_grid, dtype=np.uint8)
    n_sites, bits = grid.shape
    space = SampleSpace(site_indices=np.arange(n_sites), bits=bits)
    if inj is None:
        inj = np.arange(grid.size, dtype=np.float64).reshape(grid.shape)
    return ExhaustiveResult(space=space, outcomes=grid,
                            injected_errors=np.asarray(inj, dtype=np.float64))


class TestExhaustiveResult:
    M, S, C = int(Outcome.MASKED), int(Outcome.SDC), int(Outcome.CRASH)

    def test_ratios(self):
        res = make_exhaustive([[self.M, self.S], [self.C, self.M]])
        assert res.sdc_ratio() == 0.25
        assert res.crash_ratio() == 0.25
        assert res.masked_ratio() == 0.5

    def test_per_site_ratio(self):
        res = make_exhaustive([[self.S, self.S], [self.M, self.S]])
        assert np.array_equal(res.sdc_ratio_per_site(), [1.0, 0.5])

    def test_shape_mismatch_rejected(self):
        space = SampleSpace(site_indices=np.arange(2), bits=2)
        with pytest.raises(ValueError):
            ExhaustiveResult(space=space,
                             outcomes=np.zeros((3, 2), np.uint8),
                             injected_errors=np.zeros((3, 2)))

    def test_as_sampled_view(self):
        res = make_exhaustive([[self.M, self.S], [self.C, self.M]])
        sub = res.as_sampled(np.array([1, 2]))
        assert np.array_equal(sub.outcomes, [self.S, self.C])
        assert np.array_equal(sub.injected_errors, [1.0, 2.0])
        assert sub.sampling_rate == 0.5


class TestSampledResult:
    M, S = int(Outcome.MASKED), int(Outcome.SDC)

    def make(self, flat, outcomes, errors, n_sites=4, bits=2):
        space = SampleSpace(site_indices=np.arange(n_sites), bits=bits)
        return SampledResult(space=space,
                             flat=np.asarray(flat, dtype=np.int64),
                             outcomes=np.asarray(outcomes, dtype=np.uint8),
                             injected_errors=np.asarray(errors, dtype=np.float64))

    def test_duplicate_flat_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            self.make([0, 0], [self.M, self.M], [1.0, 1.0])
        # unsorted, with the duplicates apart
        with pytest.raises(ValueError, match="duplicate"):
            self.make([5, 1, 3, 1], [self.M] * 4, [1.0] * 4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.make([0, 1], [self.M], [1.0, 1.0])

    def test_min_sdc_error_per_site(self):
        # site 0: SDC at errors 3.0 and 1.5 -> cap 1.5; site 1: none -> inf
        res = self.make([0, 1, 2], [self.S, self.S, self.M], [3.0, 1.5, 9.0])
        caps = res.min_sdc_error_per_site()
        assert caps[0] == 1.5
        assert np.isinf(caps[1])

    def test_crash_counts_as_cap_evidence(self):
        res = self.make([0], [int(Outcome.CRASH)], [2.0])
        assert res.min_sdc_error_per_site()[0] == 2.0

    def test_merged_with(self):
        a = self.make([0, 1], [self.M, self.S], [1.0, 2.0])
        b = self.make([4, 5], [self.S, self.M], [3.0, 4.0])
        m = a.merged_with(b)
        assert m.n_samples == 4
        assert m.sdc_ratio() == 0.5

    def test_samples_per_site(self):
        res = self.make([0, 1, 2], [self.M] * 3, [1.0] * 3)
        assert np.array_equal(res.samples_per_site(), [2, 1, 0, 0])

    def test_sampling_rate(self):
        res = self.make([0], [self.M], [1.0])
        assert res.sampling_rate == 1 / 8

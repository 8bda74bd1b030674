"""Tests for work partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.partition import (
    MIN_POOL_CHUNK,
    chunk_balanced_by_cost,
    chunk_by_size,
    chunk_evenly,
    chunk_for_workers,
)


def assert_covers_range(chunks, n):
    """Chunks must be a contiguous, complete, disjoint cover of range(n)."""
    flat = np.concatenate(chunks) if chunks else np.array([], dtype=np.int64)
    assert np.array_equal(flat, np.arange(n))


class TestChunkEvenly:
    @given(st.integers(min_value=0, max_value=500),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_cover_property(self, n, k):
        assert_covers_range(chunk_evenly(n, k), n)

    def test_balance(self):
        chunks = chunk_evenly(100, 7)
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_more_chunks_than_items(self):
        chunks = chunk_evenly(3, 10)
        assert len(chunks) == 3

    def test_empty(self):
        assert chunk_evenly(0, 4) == []

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            chunk_evenly(-1, 2)
        with pytest.raises(ValueError):
            chunk_evenly(5, 0)


class TestChunkBySize:
    def test_sizes(self):
        chunks = chunk_by_size(np.arange(10), 4)
        assert [len(c) for c in chunks] == [4, 4, 2]

    def test_preserves_values(self):
        idx = np.array([5, 7, 9, 11])
        chunks = chunk_by_size(idx, 3)
        assert np.array_equal(np.concatenate(chunks), idx)

    def test_empty(self):
        assert chunk_by_size(np.array([], dtype=np.int64), 4) == []

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            chunk_by_size(np.arange(3), 0)


class TestChunkBalancedByCost:
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=0,
                    max_size=200),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_cover_property(self, costs, k):
        chunks = chunk_balanced_by_cost(np.array(costs), k)
        assert_covers_range(chunks, len(costs))

    def test_balances_decreasing_costs(self):
        """Exhaustive replay costs decrease along the tape; balanced chunks
        must give later workers more sites."""
        costs = np.arange(1000, 0, -1).astype(float)
        chunks = chunk_balanced_by_cost(costs, 4)
        totals = [costs[c].sum() for c in chunks]
        assert max(totals) / min(totals) < 1.5
        sizes = [len(c) for c in chunks]
        assert sizes[-1] > sizes[0]

    def test_zero_costs_fall_back_to_even(self):
        chunks = chunk_balanced_by_cost(np.zeros(10), 2)
        assert [len(c) for c in chunks] == [5, 5]

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            chunk_balanced_by_cost(np.array([-1.0]), 2)

    def test_invalid_chunks_rejected(self):
        with pytest.raises(ValueError):
            chunk_balanced_by_cost(np.ones(3), 0)


class TestChunkForWorkers:
    def test_serial_matches_chunk_by_size(self):
        idx = np.arange(37)
        got = chunk_for_workers(idx, 10, None)
        want = chunk_by_size(idx, 10)
        assert [c.tolist() for c in got] == [c.tolist() for c in want]

    def test_pool_gets_enough_chunks_to_balance(self):
        idx = np.arange(100_000)
        chunks = chunk_for_workers(idx, 100_000, n_workers=4)
        assert len(chunks) >= 4 * 4  # min_chunks_per_worker chunks each
        np.testing.assert_array_equal(np.concatenate(chunks), idx)

    def test_never_cut_below_the_floor(self):
        """A 229-experiment adaptive round stays one chunk instead of
        eight 29-lane ones; a budget narrower than the floor still
        rules."""
        chunks = chunk_for_workers(np.arange(229), 1170, n_workers=2)
        assert [c.size for c in chunks] == [229]
        chunks = chunk_for_workers(np.arange(5000), 1170, n_workers=2)
        assert min(c.size for c in chunks[:-1]) == MIN_POOL_CHUNK
        chunks = chunk_for_workers(np.arange(5000), 500, n_workers=2)
        assert max(c.size for c in chunks) == 500

    def test_budget_ceiling_never_exceeded(self):
        chunks = chunk_for_workers(np.arange(100), 8, n_workers=2)
        assert max(c.size for c in chunks) <= 8

    def test_tiny_inputs_stay_single_chunks(self):
        chunks = chunk_for_workers(np.arange(3), 100, n_workers=8)
        assert all(c.size >= 1 for c in chunks)
        assert sum(c.size for c in chunks) == 3

    def test_empty(self):
        assert chunk_for_workers(np.array([], dtype=np.int64), 5, 4) == []

    def test_invalid_min_chunks_rejected(self):
        with pytest.raises(ValueError):
            chunk_for_workers(np.arange(5), 5, 2, min_chunks_per_worker=0)

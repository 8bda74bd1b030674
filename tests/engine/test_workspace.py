"""Replays in per-thread workspaces.

:meth:`BatchReplayer.replay_outcomes` sweeps, gathers outputs and
classifies in buffers each thread allocates once and reuses; it must
equal ``classify_batch(replay(...))`` bit for bit.  Sink replays stream
their deviation blocks through the same workspace.  Threads sharing one
replayer must not see each other's buffers, and no array a replay
returns may be a workspace view.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro import kernels
from repro.core.experiment import SampleSpace
from repro.core.inference import ThresholdAggregator
from repro.engine.batch import BatchReplayer, lanes_for_budget, make_replayer
from repro.engine.classify import OutputComparator, classify_batch


def _experiments(wl, n, seed):
    space = SampleSpace.of_program(wl.program)
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(space.size, size=min(n, space.size),
                              replace=False))
    return space.instructions_of(flat)


@pytest.fixture(scope="module")
def cg32():
    return kernels.build("cg", n=8, iters=8)  # float32 program


@pytest.fixture(scope="module")
def fft64():
    return kernels.build("fft", n=16)  # float64 program


class TestReplayOutcomes:
    @pytest.mark.parametrize("norm", ["linf", "l2", "rel_linf"])
    @pytest.mark.parametrize("name", ["cg32", "fft64"])
    def test_equals_classify_of_replay(self, name, norm, request):
        wl = request.getfixturevalue(name)
        rep = BatchReplayer(wl.trace)
        comparator = OutputComparator(wl.trace.output, wl.tolerance, norm)
        # Widths that grow, shrink and grow again through one workspace.
        for n, seed in ((300, 0), (40, 1), (900, 2), (7, 3)):
            sites, bits = _experiments(wl, n, seed)
            outcomes, injected = rep.replay_outcomes(sites, bits,
                                                     comparator)
            batch = rep.replay(sites, bits)
            np.testing.assert_array_equal(
                outcomes, classify_batch(batch, comparator))
            np.testing.assert_array_equal(injected, batch.injected_errors)
            assert outcomes.dtype == np.uint8

    def test_cfg_replayer_implements_it(self):
        wl = kernels.build("cg-dyn", n=6)
        rep = make_replayer(wl.trace)
        sites, bits = _experiments(wl, 200, 4)
        outcomes, injected = rep.replay_outcomes(sites, bits,
                                                 wl.comparator)
        batch = rep.replay(sites, bits)
        np.testing.assert_array_equal(
            outcomes, classify_batch(batch, wl.comparator))
        np.testing.assert_array_equal(injected, batch.injected_errors)


class TestOwnership:
    def test_replay_arrays_survive_later_calls(self, cg32):
        rep = BatchReplayer(cg32.trace)
        sites, bits = _experiments(cg32, 500, 5)
        batch = rep.replay(sites, bits)
        kept = {f: np.copy(getattr(batch, f)) for f in (
            "outputs", "injected_errors", "diverged_at", "injected_values")}
        outcomes, injected = rep.replay_outcomes(sites, bits,
                                                 cg32.comparator)
        kept_outcomes = (outcomes.copy(), injected.copy())
        other_sites, other_bits = _experiments(cg32, 500, 6)
        rep.replay(other_sites, other_bits)
        rep.replay_outcomes(other_sites, other_bits, cg32.comparator)
        for field, before in kept.items():
            np.testing.assert_array_equal(getattr(batch, field), before)
        np.testing.assert_array_equal(outcomes, kept_outcomes[0])
        np.testing.assert_array_equal(injected, kept_outcomes[1])

    def test_returned_arrays_own_their_memory(self, fft64):
        rep = BatchReplayer(fft64.trace)
        sites, bits = _experiments(fft64, 300, 7)
        outcomes, injected = rep.replay_outcomes(sites, bits,
                                                 fft64.comparator)
        batch = rep.replay(sites, bits)
        for arr in (outcomes, injected, batch.outputs):
            assert arr.base is None


class TestThreads:
    @staticmethod
    def _aggregate(rep, sites, bits):
        agg = ThresholdAggregator(rep.trace)
        rep.replay(sites, bits, sink=agg)
        return agg.delta_e, agg.info

    def test_two_threads_on_one_replayer_match_serial(self, cg32, fft64):
        before = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for wl in (cg32, fft64):
                rep = BatchReplayer(wl.trace)
                work = [_experiments(wl, n, seed) for n, seed in
                        ((600, 10), (250, 11), (900, 12), (80, 13))]
                serial = [rep.replay_outcomes(s, b, wl.comparator)
                          for s, b in work]
                serial_out = [rep.replay(s, b).outputs for s, b in work]
                serial_agg = [self._aggregate(rep, s, b) for s, b in work]
                checked, errors = [], []

                def worker(order):
                    try:
                        for _ in range(3):
                            for i in order:
                                s, b = work[i]
                                outcomes, injected = rep.replay_outcomes(
                                    s, b, wl.comparator)
                                outputs = rep.replay(s, b).outputs
                                np.testing.assert_array_equal(outcomes,
                                                              serial[i][0])
                                np.testing.assert_array_equal(injected,
                                                              serial[i][1])
                                np.testing.assert_array_equal(outputs,
                                                              serial_out[i])
                                for got, want in zip(
                                        self._aggregate(rep, s, b),
                                        serial_agg[i]):
                                    np.testing.assert_array_equal(got, want)
                                checked.append(i)
                    except Exception as exc:  # re-raised on the main thread
                        errors.append(exc)

                threads = [threading.Thread(target=worker, args=(order,))
                           for order in ([0, 1, 2, 3], [3, 2, 1, 0])]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
                if errors:
                    raise errors[0]
                assert len(checked) == 24
        finally:
            sys.setswitchinterval(before)


class TestSinkReplayMemory:
    def test_budget_width_sink_replay_peaks_near_its_value_matrix(self):
        """Beyond the value matrix, a sink replay holds only block-sized
        deviation buffers (whole-batch deviation matrices and their
        temporaries peaked at 4.4x the value matrix)."""
        wl = kernels.build("fft", n=64)
        prog = wl.program
        lanes = lanes_for_budget(len(prog), prog.dtype.itemsize)
        sites, bits = _experiments(wl, lanes, 8)
        caps = np.abs(wl.trace.values.astype(np.float64))
        rep = BatchReplayer(wl.trace)
        rep.replay(sites[:8], bits[:8], sink=ThresholdAggregator(wl.trace))
        agg = ThresholdAggregator(wl.trace, caps=caps)
        tracemalloc.start()
        try:
            rep.replay(sites, bits, sink=agg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        value_matrix = len(prog) * lanes * prog.dtype.itemsize
        assert lanes == 1170
        assert peak <= 1.25 * value_matrix, peak / value_matrix

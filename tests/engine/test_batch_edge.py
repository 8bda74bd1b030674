"""Edge-case tests for the batch replayer."""

import numpy as np

from repro.engine import (
    BatchReplayer,
    Outcome,
    OutputComparator,
    TraceBuilder,
    classify_batch,
    golden_run,
)

from ..helpers import SinkStream


class TestDuplicateLanes:
    def test_identical_experiments_identical_lanes(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        site = int(toy_program.site_indices[3])
        batch = rep.replay(np.array([site, site, site]),
                           np.array([17, 17, 17]))
        assert np.array_equal(batch.outputs[:, 0], batch.outputs[:, 1])
        assert np.array_equal(batch.outputs[:, 0], batch.outputs[:, 2])


class TestBoundarySites:
    def test_injection_at_first_instruction(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        first_site = int(toy_program.site_indices[0])
        batch = rep.replay(np.array([first_site]), np.array([5]))
        assert batch.n_lanes == 1

    def test_injection_at_last_instruction(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        last_site = int(toy_program.site_indices[-1])
        batch = rep.replay(np.array([last_site]), np.array([5]))
        # only the final value changed; if it is an output, the diff is
        # exactly the injected error, else nothing changed
        assert batch.n_lanes == 1

    def test_corrupting_output_instruction_directly(self):
        b = TraceBuilder(np.float64)
        x = b.feed("x", 4.0)
        y = x * 2.0
        b.mark_output(y)
        prog = b.build()
        trace = golden_run(prog)
        rep = BatchReplayer(trace)
        batch = rep.replay(np.array([y.index]), np.array([63]))  # sign
        assert batch.outputs[0, 0] == -8.0
        comp = OutputComparator(trace.output, tolerance=1.0)
        assert classify_batch(batch, comp)[0] == Outcome.SDC


class TestMixedSiteBatches:
    def test_unsorted_sites_allowed(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        sites = toy_program.site_indices[[5, 1, 3]]
        bits = np.array([2, 9, 30])
        batch = rep.replay(sites, bits)
        # each lane must equal the same experiment run alone
        for lane in range(3):
            solo = rep.replay(sites[lane:lane + 1], bits[lane:lane + 1])
            assert np.array_equal(batch.outputs[:, lane],
                                  solo.outputs[:, 0], equal_nan=True)

    def test_full_space_single_batch_vs_per_site(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        sites = np.repeat(toy_program.site_indices, 32)
        bits = np.tile(np.arange(32), toy_program.n_sites)
        big = rep.replay(sites, bits)
        for k, s in enumerate(toy_program.site_indices[:4]):
            solo = rep.replay(np.full(32, s), np.arange(32))
            assert np.array_equal(big.outputs[:, k * 32:(k + 1) * 32],
                                  solo.outputs, equal_nan=True)


class TestSinkInvocation:
    def test_one_stream_per_replay(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        sink = SinkStream()
        sites = toy_program.site_indices[:3]
        rep.replay(sites, np.array([1, 2, 3]), sink=sink)
        (first, dev, valid, got_sites, bits), = sink.replays(
            len(toy_program))
        assert first == sites.min()
        assert dev.shape == valid.shape == (len(toy_program) - first, 3)
        assert np.array_equal(got_sites, sites)
        assert np.array_equal(bits, [1, 2, 3])

    def test_sink_reusable_across_replays(self, toy_program):
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        sink = SinkStream()
        site = toy_program.site_indices[:1]
        rep.replay(site, np.array([0]), sink=sink)
        rep.replay(site, np.array([1]), sink=sink)
        streams = sink.replays(len(toy_program))
        assert [s[1].shape[1] for s in streams] == [1, 1]
        assert [int(s[4][0]) for s in streams] == [0, 1]


class TestCopySemantics:
    def test_copy_propagates_corruption(self):
        """A COPY of a corrupted value carries the corruption; corrupting
        the copy leaves the original untouched."""
        b = TraceBuilder(np.float64)
        x = b.feed("x", 3.0)
        c = b.copy(x)
        out = c * 1.0
        b.mark_output(out, x)
        prog = b.build()
        trace = golden_run(prog)
        rep = BatchReplayer(trace)
        # corrupt the copy: first output changes, second (x) does not
        batch = rep.replay(np.array([c.index]), np.array([63]))
        assert batch.outputs[0, 0] == -3.0
        assert batch.outputs[1, 0] == 3.0
        # corrupt the original: both change
        batch = rep.replay(np.array([x.index]), np.array([63]))
        assert batch.outputs[0, 0] == -3.0
        assert batch.outputs[1, 0] == -3.0

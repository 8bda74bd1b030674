"""``replay_round``: one sweep that classifies a chunk and streams its
MASKED lanes into a sink.

It must equal ``replay_outcomes`` followed by ``replay(masked, sink=...)``
bit for bit: the outcomes, the injected errors and every block the sink
sees, on the tape replayer and on the CFG replayer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.experiment import SampleSpace
from repro.engine import BatchReplayer, golden_run, make_replayer
from repro.engine.classify import Outcome, OutputComparator

from ..helpers import SinkStream
from .test_compile import experiment_grid, random_tape


def _two_pass(rep, sites, bits, comparator):
    """``replay_outcomes`` and the MASKED lanes' sink replay."""
    outcomes, injected = rep.replay_outcomes(sites, bits, comparator)
    masked = outcomes == int(Outcome.MASKED)
    sink = SinkStream()
    if masked.any():
        rep.replay(sites[masked], bits[masked], sink=sink)
    return outcomes, injected, sink


def assert_round_matches(rep, sites, bits, comparator):
    """``replay_round`` against the two-pass reference; returns the
    outcomes."""
    want_out, want_inj, want = _two_pass(rep, sites, bits, comparator)
    got = SinkStream()
    outcomes, injected = rep.replay_round(sites, bits, comparator, got)
    np.testing.assert_array_equal(outcomes, want_out)
    np.testing.assert_array_equal(injected, want_inj)
    assert outcomes.dtype == np.uint8 and outcomes.base is None
    assert len(got.blocks) == len(want.blocks)
    for a, b in zip(got.blocks, want.blocks):
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])
        if a[2] is None or b[2] is None:
            assert a[2] is None and b[2] is None
        else:
            np.testing.assert_array_equal(a[2], b[2])
        np.testing.assert_array_equal(a[3], b[3])
        np.testing.assert_array_equal(a[4], b[4])
    return outcomes


def _mixed_comparator(rep, sites, bits):
    """A comparator whose tolerance splits the lanes into MASKED and not."""
    golden = rep.trace.output
    outputs = rep.replay(sites, bits).outputs
    err = OutputComparator(golden, 0.0).error(outputs)
    finite = err[np.isfinite(err)]
    return OutputComparator(golden, float(np.median(finite)))


class TestTapeReplayer:
    @pytest.mark.parametrize("dtype,guards,seed", [
        (np.float32, False, 0), (np.float32, True, 5),
        (np.float64, False, 9), (np.float64, True, 6)])
    def test_random_tapes(self, dtype, guards, seed):
        trace = golden_run(random_tape(seed, dtype=dtype, guards=guards))
        rep = BatchReplayer(trace)
        sites, bits = experiment_grid(trace.program,
                                      np.random.default_rng(seed + 100))
        comparator = _mixed_comparator(rep, sites, bits)
        outcomes = assert_round_matches(rep, sites, bits, comparator)
        masked = outcomes == int(Outcome.MASKED)
        assert masked.any() and not masked.all()
        if guards:
            assert np.any(outcomes == int(Outcome.DIVERGED))
        # every lane masked, and none
        for keep in (masked, ~masked):
            out = assert_round_matches(rep, sites[keep], bits[keep],
                                       comparator)
            assert np.all((out == int(Outcome.MASKED)) == masked[keep])

    @pytest.mark.parametrize("name", ["cg_tiny", "fft_tiny"])
    def test_kernels_at_several_widths(self, name, request):
        """Widths that grow and shrink through one workspace, so the
        gathered blocks change height between calls."""
        wl = request.getfixturevalue(name)
        rep = BatchReplayer(wl.trace)
        space = SampleSpace.of_program(wl.program)
        rng = np.random.default_rng(3)
        for n in (200, 17, 900, 1):
            flat = np.sort(rng.choice(space.size, size=n, replace=False))
            sites, bits = space.instructions_of(flat)
            assert_round_matches(rep, sites, bits, wl.comparator)

    def test_sink_sees_nothing_without_a_masked_lane(self, cg_tiny):
        rep = BatchReplayer(cg_tiny.trace)
        space = SampleSpace.of_program(cg_tiny.program)
        sites, bits = space.instructions_of(np.arange(space.size))
        outcomes, _ = rep.replay_outcomes(sites, bits, cg_tiny.comparator)
        bad = outcomes != int(Outcome.MASKED)
        sink = SinkStream()
        rep.replay_round(sites[bad], bits[bad], cg_tiny.comparator, sink)
        assert sink.blocks == []


class TestCfgReplayer:
    @pytest.mark.parametrize("name,params", [("cg-dyn", {"n": 6}),
                                             ("lu-pivot", {"n": 4})])
    def test_matches_two_passes(self, name, params):
        wl = kernels.build(name, **params)
        rep = make_replayer(wl.trace)
        space = SampleSpace.of_program(wl.program)
        rng = np.random.default_rng(4)
        flat = np.sort(rng.choice(space.size, size=min(400, space.size),
                                  replace=False))
        sites, bits = space.instructions_of(flat)
        outcomes = assert_round_matches(rep, sites, bits, wl.comparator)
        masked = outcomes == int(Outcome.MASKED)
        assert masked.any() and not masked.all()
        for keep in (masked, ~masked):
            assert_round_matches(rep, sites[keep], bits[keep],
                                 wl.comparator)

"""Batched CFG lane replay: path masking, taxonomy, hang budget."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cfg.replay import CfgLaneReplayer
from repro.engine.classify import Outcome, OutputComparator, classify_batch
from repro.engine.batch import make_replayer

from .conftest import build_countdown


@pytest.fixture(scope="module")
def countdown_replayer(countdown):
    return CfgLaneReplayer(countdown.trace)


def _exhaustive(program, replayer):
    sites = np.repeat(program.site_indices, program.bits_per_site)
    bits = np.tile(np.arange(program.bits_per_site),
                   program.n_sites).astype(np.int64)
    return replayer.replay(sites, bits), sites, bits


class TestReplayMechanics:
    def test_make_replayer_dispatches_on_cfg_trace(self, countdown):
        rep = make_replayer(countdown.trace)
        assert isinstance(rep, CfgLaneReplayer)

    def test_compiled_backend_rejected(self, countdown):
        """There is one replay engine; the old selector is an error."""
        with pytest.raises(TypeError, match="backend"):
            make_replayer(countdown.trace, backend="compiled")

    def test_empty_batch_rejected(self, countdown_replayer):
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError):
            countdown_replayer.replay(empty, empty)

    def test_non_site_rejected(self, countdown, countdown_replayer):
        guard_free = countdown.site_indices
        bad = np.setdiff1d(np.arange(len(countdown)), guard_free)
        if len(bad) == 0:
            pytest.skip("all rows are sites")
        with pytest.raises(ValueError):
            countdown_replayer.replay(bad[:1], np.array([0]))

    def test_out_of_range_site_rejected(self, countdown, countdown_replayer):
        with pytest.raises(ValueError):
            countdown_replayer.replay(np.array([len(countdown)]),
                                      np.array([0]))

    def test_sweep_section_unsupported(self, countdown_replayer):
        with pytest.raises(NotImplementedError):
            countdown_replayer.sweep_section(0, 1, np.array([0]), 0)

    def test_deterministic(self, countdown, countdown_replayer):
        a, sites, bits = _exhaustive(countdown, countdown_replayer)
        b = countdown_replayer.replay(sites, bits)
        np.testing.assert_array_equal(a.outputs, b.outputs)
        np.testing.assert_array_equal(a.hung, b.hung)
        np.testing.assert_array_equal(a.path_diverged, b.path_diverged)
        np.testing.assert_array_equal(a.diverged_at, b.diverged_at)


class TestCountdownTaxonomy:
    def test_all_loop_classes_reachable(self, countdown, countdown_replayer):
        batch, _, _ = _exhaustive(countdown, countdown_replayer)
        comparator = OutputComparator(
            countdown.trace.output.astype(np.float64), tolerance=0.5)
        outcomes = classify_batch(batch, comparator)
        present = {Outcome(int(o)) for o in np.unique(outcomes)}
        assert {Outcome.MASKED, Outcome.SDC, Outcome.DIVERGED,
                Outcome.HANG} <= present

    def test_hang_lanes_charged_by_steps_not_wall_clock(self, countdown,
                                                        countdown_replayer):
        batch, _, _ = _exhaustive(countdown, countdown_replayer)
        assert batch.hung.any()
        # hung lanes never produce an output
        assert not np.isfinite(batch.outputs[:, batch.hung]).any()

    def test_tighter_budget_hangs_more(self, countdown):
        wide = CfgLaneReplayer(countdown.trace)
        narrow = CfgLaneReplayer(countdown.trace,
                                 max_steps=countdown.trace.n_steps
                                 + len(countdown))
        a, _, _ = _exhaustive(countdown, wide)
        b, _, _ = _exhaustive(countdown, narrow)
        assert b.hung.sum() >= a.hung.sum()

    def test_path_divergence_is_an_observed_fact(self, countdown,
                                                 countdown_replayer):
        """Lanes flagged path_diverged really took another branch."""
        batch, sites, bits = _exhaustive(countdown, countdown_replayer)
        assert batch.path_diverged.any()
        # path-diverged lanes either completed (finite output) or hung
        done = np.isfinite(batch.outputs).all(axis=0)
        assert np.all(done[batch.path_diverged] | batch.hung[batch.path_diverged])

    def test_injected_error_magnitudes(self, countdown, countdown_replayer):
        batch, sites, _ = _exhaustive(countdown, countdown_replayer)
        gold = countdown.trace.values[sites].astype(np.float64)
        finite = np.isfinite(batch.injected_values)
        np.testing.assert_allclose(
            batch.injected_errors[finite],
            np.abs(batch.injected_values[finite] - gold[finite]))
        assert np.all(np.isinf(batch.injected_errors[~finite]))


class TestMultiBlockStateThreading:
    def test_late_site_uses_entry_snapshot(self, countdown):
        """Corrupting a last-iteration row only perturbs the suffix."""
        trace = countdown.trace
        rep = CfgLaneReplayer(trace)
        # last body step's ADD row (writes acc); flip the sign bit
        body_steps = np.flatnonzero(trace.block_path == 2)
        row = int(trace.step_starts[body_steps[-1]])
        batch = rep.replay(np.array([row]), np.array([31]))
        gold_out = float(trace.output[0])
        # acc at the last iteration is 77 + 12 -> corrupted to -(78 - 12) + 12
        assert batch.outputs[0, 0] != pytest.approx(gold_out)
        assert np.isfinite(batch.outputs[0, 0])
        assert not batch.path_diverged[0] and not batch.hung[0]


def _build_fma_accumulator(w: float = 1.25):
    """``acc = fma(k, w, acc)`` in a 3-trip loop: the FMA writes its own
    addend register (``dst == c``)."""
    from repro.cfg.builder import CfgBuilder

    b = CfgBuilder(np.float32, name="fma-alias")
    b.block("init")
    head = b.block("head")
    body = b.block("body")
    exit_ = b.block("exit")
    k = b.feed("k", 3.0)
    acc = b.const(0.5)
    w_val = b.feed("w", w)
    one = b.const(1.0)
    zero = b.const(0.0)
    b.jmp(head)
    b.switch_to(head)
    b.br_gt(k, zero, body, exit_)
    b.switch_to(body)
    b.fma(k, w_val, acc, out=acc)
    b.sub(k, one, out=k)
    b.jmp(head)
    b.switch_to(exit_)
    b.mark_output(acc)
    b.ret()
    return b.build()


class TestRegisterAliasing:
    """A CFG FMA whose destination is its addend must read the addend
    before it writes the destination."""

    def test_fma_dst_is_addend(self):
        from repro.cfg.interpreter import cfg_golden_run
        from repro.engine.program import Opcode

        prog = _build_fma_accumulator()
        body = prog.blocks[2]
        j = int(np.flatnonzero(body.ops == int(Opcode.FMA))[0])
        assert body.dst[j] == body.operands[j][2]

        trace = cfg_golden_run(prog)
        rep = CfgLaneReplayer(trace)
        w_row = 2  # init rows: k, acc, w, one, zero
        fma_rows = [int(trace.step_starts[t]) + j
                    for t in np.flatnonzero(trace.block_path == 2)]
        sites = np.array([w_row, w_row, fma_rows[0], fma_rows[1]])
        values = np.array([1.25, 2.0, 100.0, -4.0], dtype=np.float32)
        f32 = np.float32
        want = [
            trace.output[0],  # a no-op corruption replays golden
            cfg_golden_run(_build_fma_accumulator(w=2.0)).output[0],
            f32(100.0) + f32(2.0) * f32(1.25) + f32(1.0) * f32(1.25),
            f32(-4.0) + f32(1.0) * f32(1.25),
        ]
        for sink in (None, _NullSink()):
            batch = rep.replay_values(sites, values, sink=sink)
            assert np.array_equal(batch.outputs[0], np.array(want, float))
        assert want[0] == np.float32(8.0)


class _NullSink:
    def consume(self, first_instr, abs_diff, valid, sites, bits):
        pass

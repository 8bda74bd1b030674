"""Structure, validation and dynamic facade of :class:`CfgProgram`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cfg.builder import CfgBuilder
from repro.cfg.lower import lower_program
from repro.cfg.program import TermKind
from repro.kernels import build

from .conftest import build_countdown


class TestStructure:
    def test_blocks_and_edges(self, countdown):
        assert countdown.n_blocks == 4
        assert set(countdown.edges()) == {(0, 1), (1, 2), (1, 3), (2, 1)}
        assert countdown.back_edges() == [(2, 1)]
        assert countdown.n_backedges == 1
        # one conditional terminator, no in-block guard rows
        assert countdown.n_guards == 1

    def test_static_vs_dynamic_counts(self, countdown):
        # 4 rows in init, 2 in body; the golden loop runs 12 times
        assert countdown.n_static_instructions == 6
        assert len(countdown) == 4 + 2 * 12
        assert countdown.n_instructions == len(countdown)

    def test_entry_is_first_block(self, countdown):
        assert countdown.blocks[0].name == "init"

    def test_acyclic_kernel_has_no_backedges(self, lu_pivot_tiny):
        assert lu_pivot_tiny.program.n_backedges == 0

    def test_resolved_max_steps_default_scales_with_golden(self, countdown):
        trace = countdown.trace
        expect = 4 * (len(countdown) + trace.n_steps) + 64
        assert countdown.resolved_max_steps() == expect

    def test_resolved_max_steps_explicit(self):
        prog = build_countdown(max_steps=999)
        assert prog.resolved_max_steps() == 999


class TestFacade:
    """CfgProgram exposes the tape Program surface over dynamic rows."""

    def test_site_indices_match_dyn_mask(self, countdown):
        trace = countdown.trace
        np.testing.assert_array_equal(
            countdown.site_indices, np.flatnonzero(trace.dyn_is_site))
        assert countdown.n_sites == int(trace.dyn_is_site.sum())

    def test_sample_space(self, countdown):
        assert countdown.bits_per_site == 32
        assert (countdown.sample_space_size
                == countdown.n_sites * countdown.bits_per_site)

    def test_region_ids_follow_block_path(self, countdown):
        trace = countdown.trace
        # rows of each golden step carry that block's region id
        for s in range(trace.n_steps):
            blk = int(trace.block_path[s])
            rows = slice(int(trace.step_starts[s]),
                         int(trace.step_starts[s + 1]))
            assert np.all(countdown.region_ids[rows] == blk)

    def test_ops_follow_block_path(self, countdown):
        """``ops`` gives the static site grouping of §6's hybrid one
        opcode per dynamic row, cached on the trace like region ids."""
        trace = countdown.trace
        assert countdown.ops.shape == (len(countdown),)
        assert countdown.ops is countdown.ops
        for s in range(trace.n_steps):
            blk = countdown.blocks[int(trace.block_path[s])]
            rows = slice(int(trace.step_starts[s]),
                         int(trace.step_starts[s + 1]))
            np.testing.assert_array_equal(countdown.ops[rows], blk.ops)


class TestBuilderValidation:
    def test_unterminated_block_rejected(self):
        b = CfgBuilder(np.float32)
        b.block("entry")
        b.mark_output(b.const(1.0))
        with pytest.raises(ValueError, match="no terminator"):
            b.build()

    def test_switch_to_terminated_block_rejected(self):
        b = CfgBuilder(np.float32)
        entry = b.block("entry")
        b.mark_output(b.const(1.0))
        b.ret()
        with pytest.raises(ValueError, match="already terminated"):
            b.switch_to(entry)

    def test_branch_to_unknown_block_rejected(self):
        b = CfgBuilder(np.float32)
        b.block("entry")
        with pytest.raises(ValueError, match="unknown block"):
            b.jmp(7)

    def test_no_outputs_rejected(self):
        b = CfgBuilder(np.float32)
        b.block("entry")
        b.const(1.0)
        b.ret()
        with pytest.raises(ValueError, match="no outputs"):
            b.build()

    def test_cross_builder_values_rejected(self):
        b1, b2 = CfgBuilder(np.float32), CfgBuilder(np.float32)
        b1.block("e1")
        b2.block("e2")
        x, y = b1.const(1.0), b2.const(2.0)
        with pytest.raises(ValueError, match="different builders"):
            x + y  # noqa: B018 - the operator itself performs the check

    def test_guards_are_not_sites(self):
        b = CfgBuilder(np.float32)
        b.block("entry")
        x, y = b.const(1.0), b.const(2.0)
        b.guard_gt(x, y)
        b.mark_output(x)
        b.ret()
        prog = b.build()
        assert not prog.blocks[0].is_site[2]


class TestLowering:
    def test_straight_line_lowers_to_one_block(self):
        wl = build("cg", n=4, iters=2)
        low = lower_program(wl.program)
        assert low.n_blocks == 1
        assert low.blocks[0].term.kind is TermKind.RET
        assert low.n_backedges == 0
        assert len(low) == len(wl.program)

    def test_lowered_trace_bit_identical(self):
        wl = build("cg", n=4, iters=2)
        low = lower_program(wl.program)
        np.testing.assert_array_equal(low.trace.values, wl.trace.values)
        np.testing.assert_array_equal(low.site_indices,
                                      wl.program.site_indices)
        np.testing.assert_array_equal(
            low.trace.output,
            wl.trace.values[wl.program.outputs])

    def test_lowering_cfg_rejected(self, countdown):
        with pytest.raises(TypeError):
            lower_program(countdown)

    def test_cfg_lowered_kernel_registered(self):
        wl = build("cfg-lowered", kernel="cg", params={"n": 4, "iters": 2})
        assert wl.spec[0] == "cfg-lowered"
        assert "(cfg-lowered)" in wl.description

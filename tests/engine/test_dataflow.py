"""Tests for static dataflow analysis, cross-checked against dynamic
propagation observed by the batch replayer."""

import numpy as np
import pytest

from repro.engine import (
    BatchReplayer,
    TraceBuilder,
    consumers_of,
    dataflow_info,
    forward_slice,
    forward_slice_sizes,
    golden_run,
)

from ..helpers import SinkStream


@pytest.fixture()
def diamond_program():
    """x -> (a, b) -> out, plus one dead value."""
    bld = TraceBuilder(np.float64)
    x = bld.feed("x", 2.0)
    a = x * 3.0            # consts interleave; compute indices from Vals
    b = x + 1.0
    dead = bld.mul(a, b)   # noqa: F841 - intentionally unused
    out = a + b
    bld.mark_output(out)
    prog = bld.build()
    return prog, x, a, b, dead, out


class TestConsumers:
    def test_direct_consumers(self, diamond_program):
        prog, x, a, b, dead, out = diamond_program
        cons = consumers_of(prog)
        assert set(cons[x.index]) == {a.index, b.index}
        assert set(cons[a.index]) == {dead.index, out.index}
        assert len(cons[out.index]) == 0

    def test_every_operand_is_an_edge(self, toy_program):
        cons = consumers_of(toy_program)
        total_edges = sum(len(c) for c in cons)
        # count operand uses directly
        from repro.engine.program import ARITY, Opcode
        uses = 0
        for i, op in enumerate(toy_program.ops):
            code = Opcode(op)
            if code is not Opcode.INPUT:
                uses += ARITY[code]
        assert total_edges == uses


class TestForwardSlice:
    def test_diamond_slice(self, diamond_program):
        prog, x, a, b, dead, out = diamond_program
        sl = set(forward_slice(prog, x.index))
        assert {a.index, b.index, dead.index, out.index} <= sl
        assert x.index not in sl

    def test_terminal_instruction_empty_slice(self, diamond_program):
        prog, *_, out = diamond_program
        assert forward_slice(prog, out.index).size == 0

    def test_out_of_range_rejected(self, toy_program):
        with pytest.raises(ValueError):
            forward_slice(toy_program, len(toy_program))

    def test_sizes_match_explicit_slices(self, toy_program):
        sizes = forward_slice_sizes(toy_program)
        for i in range(len(toy_program)):
            assert sizes[i] == forward_slice(toy_program, i).size

    def test_sizes_match_on_cg(self, cg_tiny):
        prog = cg_tiny.program
        sizes = forward_slice_sizes(prog)
        rng = np.random.default_rng(0)
        for i in rng.choice(len(prog), size=10, replace=False):
            assert sizes[i] == forward_slice(prog, int(i)).size


class TestDataflowInfo:
    def test_dead_detection(self, diamond_program):
        prog, x, a, b, dead, out = diamond_program
        info = dataflow_info(prog)
        assert info.dead[dead.index]
        assert not info.dead[out.index]
        assert not info.dead[x.index]

    def test_cg_dead_values_confined_to_final_iteration(self, cg_tiny):
        """CG's only dead values are the last iteration's residual/search
        updates (computed but never consumed — exactly as in real CG
        loops, where the final direction update is wasted work)."""
        prog = cg_tiny.program
        info = dataflow_info(prog)
        assert info.n_dead > 0
        last_iter = max(n for n in prog.region_names if n.startswith("iter"))
        rid = prog.region_names.index(last_iter)
        assert np.all(prog.region_ids[info.dead] == rid)

    def test_depth_monotone_along_chains(self, toy_program):
        info = dataflow_info(toy_program)
        cons = consumers_of(toy_program)
        for i, cs in enumerate(cons):
            for c in cs:
                assert info.depth[c] > info.depth[i]

    def test_fan_out_matches_consumers(self, toy_program):
        info = dataflow_info(toy_program)
        cons = consumers_of(toy_program)
        assert np.array_equal(info.fan_out, [len(c) for c in cons])


class TestStaticBoundsDynamic:
    def test_propagation_confined_to_forward_slice(self, cg_tiny):
        """Dynamic deviation can only appear inside the static forward
        slice of the injection site — the core consistency property
        between the replayer and the dependency structure."""
        prog = cg_tiny.program
        trace = cg_tiny.trace
        rep = BatchReplayer(trace)

        rng = np.random.default_rng(1)
        for site in rng.choice(prog.site_indices, size=5, replace=False):
            cap = SinkStream()
            rep.replay(np.array([site]), np.array([28]), sink=cap)
            first, diff, *_ = cap.assemble(len(prog))
            touched = np.flatnonzero(diff[:, 0] > 0) + first
            allowed = set(forward_slice(prog, int(site))) | {int(site)}
            assert set(touched.tolist()) <= allowed

    def test_dead_value_corruption_always_masked(self, diamond_program):
        """Flipping bits of a dead value can never change the output."""
        prog, x, a, b, dead, out = diamond_program
        trace = golden_run(prog)
        rep = BatchReplayer(trace)
        bits = np.arange(prog.bits_per_site)
        batch = rep.replay(np.full_like(bits, dead.index), bits)
        golden_out = trace.output.astype(np.float64)
        assert np.array_equal(batch.outputs,
                              np.repeat(golden_out[:, None], len(bits), 1))

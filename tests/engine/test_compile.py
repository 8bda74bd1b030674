"""Differential tests of the replay plan against the scalar reference.

``BatchReplayer`` executes every replay through one per-trace
:class:`~repro.engine.plan.ReplayPlan`: the slot map for outcome-only
replays, the identity map when a sink is attached and for
``sweep_section``.  Every test here asserts *bit-identical* agreement —
outputs, injected values, guard-divergence indices and streamed sink
matrices — with ``scalar_injected_run``, which re-executes one experiment
one instruction at a time, including NaN/inf/-0.0 corruptions, fp64
tapes, guard-divergent lanes and repeated subexpressions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.engine import (
    BatchReplayer,
    TraceBuilder,
    golden_run,
    make_replayer,
)
from repro.engine.bitflip import flip_bits
from repro.engine.plan import plan_for

from ..helpers import SinkStream, scalar_injected_run


def random_tape(seed: int, n_rows: int = 120, dtype=np.float32,
                guards: bool = False):
    """A seeded random straight-line tape with duplicated subexpressions.

    Repeated identical (op, operands) rows give the slot allocator values
    that are equal but live in different rows; optional guards exercise
    divergence tracking.
    """
    rng = np.random.default_rng(seed)
    b = TraceBuilder(dtype, name=f"rand{seed}")
    vals = [b.feed(f"x{i}", float(v))
            for i, v in enumerate(rng.normal(size=4))]
    vals.append(b.const(float(rng.normal())))
    for i in range(n_rows):
        pick = lambda: vals[int(rng.integers(len(vals)))]
        op = int(rng.integers(9))
        a, c = pick(), pick()
        if op == 0:
            v = a + c
        elif op == 1:
            v = a - c
        elif op == 2:
            v = a * c
        elif op == 3:
            v = a / (abs(c) + 1.0)
        elif op == 4:
            v = -a
        elif op == 5:
            v = abs(a).sqrt()
        elif op == 6:
            v = b.fma(a, c, pick())
        elif op == 7:
            v = b.maximum(a, c)
        else:
            # duplicate an earlier subexpression verbatim
            v = a * c
            vals.append(a * c)
        vals.append(v)
        if guards and i % 17 == 11:
            b.guard_gt(v * v, b.const(-1.0))
    b.mark_output(vals[-1], vals[-2], vals[len(vals) // 2])
    return b.build()


def reference(prog, sites, bits=None, values=None):
    """Scalar reference per lane: ``(values, outputs, diverged_at)``."""
    n = len(prog)
    runs = [scalar_injected_run(
        prog, int(site), 0 if bits is None else int(bits[lane]),
        value=None if values is None else values[lane])
        for lane, site in enumerate(sites)]
    return (np.stack([r[0] for r in runs], axis=1),
            np.stack([r[1] for r in runs], axis=1),
            np.array([n if r[2] is None else r[2] for r in runs]))


def assert_matches(batch, ref, sink=None, gold=None):
    """``batch`` (and what ``sink`` recorded) agree with ``reference``."""
    ref_vals, ref_out, ref_div = ref
    assert np.array_equal(batch.outputs, ref_out, equal_nan=True)
    assert np.array_equal(batch.diverged_at, ref_div)
    if sink is not None:
        first, dev, valid, sites, bits = sink.assemble(len(gold))
        assert first == int(batch.sites.min())
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.abs(ref_vals[first:].astype(np.float64)
                          - gold[first:, None].astype(np.float64))
        want[~np.isfinite(want)] = np.inf
        assert np.array_equal(dev, want)
        rows = np.arange(first, len(gold))[:, None]
        assert np.array_equal(valid, rows < ref_div[None, :])
        assert np.array_equal(sites, batch.sites)
        assert np.array_equal(bits, batch.bits)


def experiment_grid(prog, rng, n=None):
    """(sites, bits) covering every site at random bits, plus extremes."""
    sites = np.flatnonzero(prog.is_site)
    if n is not None and sites.size > n:
        sites = rng.choice(sites, size=n, replace=False)
    bits_per = prog.dtype.itemsize * 8
    bits = rng.integers(0, bits_per, size=sites.size)
    # the sign and top-exponent bits force -0.0 / inf / NaN corruptions
    extreme = np.tile(sites[: max(1, sites.size // 8)], 3)
    extreme_bits = np.repeat([bits_per - 1, bits_per - 2, 0],
                             max(1, sites.size // 8))
    return (np.concatenate([sites, extreme]),
            np.concatenate([bits, extreme_bits]))


def check_trace(trace, rng, n_sites=None):
    rep = BatchReplayer(trace)
    prog = trace.program
    gold = trace.values
    sites, bits = experiment_grid(prog, rng, n=n_sites)
    ref = reference(prog, sites, bits)

    batch = rep.replay(sites, bits)
    assert_matches(batch, ref)
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.array_equal(batch.injected_values,
                              flip_bits(gold[sites], bits), equal_nan=True)
    sink = SinkStream()
    assert_matches(rep.replay(sites, bits, sink=sink), ref, sink, gold)

    # narrow single-site batches start late: only live-ins are golden
    for site in sites[:: max(1, sites.size // 5)]:
        s = np.full(7, site)
        bt = rng.integers(0, prog.dtype.itemsize * 8, size=7)
        assert_matches(rep.replay(s, bt), reference(prog, s, bt))

    # replay_values with explicit NaN / inf / -0.0 corruptions
    some = sites[:6]
    vals = np.array([np.nan, np.inf, -np.inf, -0.0, 1e30, -1e-30],
                    dtype=prog.dtype)[:some.size]
    assert_matches(rep.replay_values(some, vals),
                   reference(prog, some, values=vals))
    return rep


class TestDifferentialRandomTapes:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_tape_parity(self, seed):
        trace = golden_run(random_tape(seed))
        check_trace(trace, np.random.default_rng(seed + 100))

    @pytest.mark.parametrize("seed", [5, 6])
    def test_random_guarded_tape_parity(self, seed):
        trace = golden_run(random_tape(seed, guards=True))
        check_trace(trace, np.random.default_rng(seed + 100))

    def test_random_tape_float64(self):
        trace = golden_run(random_tape(9, dtype=np.float64))
        check_trace(trace, np.random.default_rng(42))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_sink_and_outcome_replays_agree(self, seed):
        """A sink switches the replay from the slot map to the identity
        map; outputs and divergence must not notice, at every start."""
        trace = golden_run(random_tape(seed, guards=seed == 5))
        rep = BatchReplayer(trace)
        prog = trace.program
        rng = np.random.default_rng(seed)
        for site in np.flatnonzero(prog.is_site):
            s = np.full(9, site)
            bt = rng.integers(0, prog.dtype.itemsize * 8, size=9)
            a = rep.replay(s, bt)
            b = rep.replay(s, bt, sink=SinkStream())
            assert np.array_equal(a.outputs, b.outputs, equal_nan=True)
            assert np.array_equal(a.diverged_at, b.diverged_at)


class TestDifferentialKernels:
    def test_cg(self, cg_tiny):
        check_trace(cg_tiny.trace, np.random.default_rng(0), n_sites=48)

    def test_lu(self, lu_tiny):
        check_trace(lu_tiny.trace, np.random.default_rng(1), n_sites=48)

    def test_fft(self, fft_tiny):
        check_trace(fft_tiny.trace, np.random.default_rng(2), n_sites=48)

    def test_guarded_jacobi_divergence(self):
        """Guard-divergent lanes must agree on diverged_at and sinks."""
        wl = kernels.build("jacobi", n=8, sweeps=8, stop_residual=1e-3)
        rep = check_trace(wl.trace, np.random.default_rng(3), n_sites=32)
        # force high-exponent flips near the first guard: these corrupt the
        # residual and flip guard decisions
        prog = wl.program
        guards = np.flatnonzero(~prog.is_site[: len(prog)])
        assert guards.size > 0
        sites = np.flatnonzero(prog.is_site)[:40]
        bits = np.full(sites.size, prog.dtype.itemsize * 8 - 2)
        sink = SinkStream()
        batch = rep.replay(sites, bits, sink=sink)
        assert_matches(batch, reference(prog, sites, bits), sink,
                       wl.trace.values)
        assert np.any(batch.diverged_at < batch.n_instructions)


class TestSweepSectionParity:
    def test_plain_and_injected_sections(self, toy_program):
        """A section reproduces the reference's rows; an override of a
        live-in acts like corrupting that row on every lane."""
        trace = golden_run(toy_program)
        rep = BatchReplayer(trace)
        n = len(toy_program)
        rng = np.random.default_rng(7)
        start, stop = 2, n - 1
        lanes = 9
        site = next(int(i) for i in range(start, stop)
                    if toy_program.is_site[i])
        hit = np.array([0, 3, 5])
        corrupt = np.array([np.nan, np.inf, 2.5], dtype=toy_program.dtype)
        vals, div = rep.sweep_section(start, stop, lanes,
                                      inject={site: (hit, corrupt)})
        per_lane = np.full(lanes, trace.values[site])
        per_lane[hit] = corrupt
        ref_vals, _, _ = reference(toy_program, np.full(lanes, site),
                                   values=per_lane)
        assert np.array_equal(vals, ref_vals[start:stop], equal_nan=True)
        assert np.all(div == n)

        ov = rng.normal(size=lanes).astype(toy_program.dtype)
        vals, _ = rep.sweep_section(start, stop, lanes, overrides={0: ov})
        ref_vals, _, _ = reference(toy_program, np.zeros(lanes, int),
                                   values=ov)
        assert np.array_equal(vals, ref_vals[start:stop], equal_nan=True)

    def test_guarded_section(self):
        wl = kernels.build("jacobi", n=8, sweeps=8, stop_residual=1e-3)
        rep = BatchReplayer(wl.trace)
        prog = wl.program
        start, stop = 100, 700
        site = next(int(i) for i in range(start, stop) if prog.is_site[i])
        values = np.array([1e8, -1e8, np.inf, 0.0], dtype=prog.dtype)
        vals, div = rep.sweep_section(start, stop, 4,
                                      inject={site: (np.arange(4), values)})
        ref_vals, _, ref_div = reference(prog, np.full(4, site),
                                         values=values)
        assert np.array_equal(vals, ref_vals[start:stop], equal_nan=True)
        # the section only sees the guards inside it
        assert np.array_equal(div, np.where(ref_div < stop, ref_div,
                                            len(prog)))


class TestSectionValidation:
    """sweep_section rejects out-of-range inject / override keys."""

    # one engine; the parameter keeps the cases' ids
    @pytest.fixture(params=["interp"])
    def replayer(self, request, toy_program):
        return make_replayer(golden_run(toy_program))

    def test_inject_key_below_start_rejected(self, replayer):
        lanes = np.array([0])
        vals = np.array([1.0], dtype=replayer.program.dtype)
        with pytest.raises(ValueError, match="inject keys"):
            replayer.sweep_section(5, 10, 2, inject={3: (lanes, vals)})

    def test_inject_key_at_stop_rejected(self, replayer):
        lanes = np.array([0])
        vals = np.array([1.0], dtype=replayer.program.dtype)
        with pytest.raises(ValueError, match="inject keys"):
            replayer.sweep_section(2, 6, 2, inject={6: (lanes, vals)})

    def test_override_key_at_start_rejected(self, replayer):
        ov = np.zeros(2, dtype=replayer.program.dtype)
        with pytest.raises(ValueError, match="override keys"):
            replayer.sweep_section(4, 8, 2, overrides={4: ov})

    def test_override_key_after_start_rejected(self, replayer):
        ov = np.zeros(2, dtype=replayer.program.dtype)
        with pytest.raises(ValueError, match="override keys"):
            replayer.sweep_section(4, 8, 2, overrides={6: ov})

    def test_range_and_lanes_still_validated(self, replayer):
        with pytest.raises(ValueError, match="section range"):
            replayer.sweep_section(3, 2, 1)
        with pytest.raises(ValueError, match="at least one lane"):
            replayer.sweep_section(0, 2, 0)

    def test_valid_edges_accepted(self, replayer):
        lanes = np.array([0])
        vals = np.array([1.0], dtype=replayer.program.dtype)
        site = next(int(i) for i in range(2, len(replayer.program))
                    if replayer.program.is_site[i])
        ov = np.zeros(1, dtype=replayer.program.dtype)
        replayer.sweep_section(2, len(replayer.program), 1,
                               inject={site: (lanes, vals)},
                               overrides={1: ov})


class TestKernelCache:
    """The replay plan is built once per trace and shared."""

    def test_cache_hits_within_process(self, toy_program):
        trace = golden_run(toy_program)
        r1 = BatchReplayer(trace)
        r2 = make_replayer(trace)
        assert r1._plan is r2._plan is plan_for(trace)
        # another trace of the same program gets its own plan
        assert plan_for(golden_run(toy_program)) is not r1._plan


    def test_threads_share_one_build(self):
        """Racing first uses of a trace's plan build it exactly once."""
        import sys
        import threading

        from repro.obs import metrics

        trace = golden_run(random_tape(11))
        barrier = threading.Barrier(8)
        plans = []

        def first_use():
            barrier.wait(timeout=10)
            plans.append(plan_for(trace))

        was_enabled = metrics.METRICS.enabled
        interval = sys.getswitchinterval()
        metrics.METRICS.enabled = True
        before = metrics.METRICS.snapshot()["counters"].get("replay.plans", 0)
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            built = (metrics.METRICS.snapshot()["counters"]["replay.plans"]
                     - before)
        finally:
            sys.setswitchinterval(interval)
            metrics.METRICS.enabled = was_enabled
        assert len(plans) == 8 and all(p is plans[0] for p in plans)
        assert built == 1


class TestMakeReplayer:
    def test_interp_returns_reference(self, toy_program):
        assert type(make_replayer(golden_run(toy_program))) is BatchReplayer

    def test_unknown_backend_rejected(self, toy_program):
        """There is one replay engine; the old selector is an error."""
        with pytest.raises(TypeError):
            make_replayer(golden_run(toy_program), "jit")


class TestCampaignParity:
    """Whole campaigns: phase A runs the slot map; replaying the same
    experiments with a sink runs the identity map.  Their grids agree
    bit-for-bit on every executor."""

    @staticmethod
    def _identity_map_outcomes(wl):
        from repro.core.experiment import SampleSpace
        from repro.engine.classify import classify_batch

        class NullSink:
            def consume(self, *args):
                pass

        space = SampleSpace.of_program(wl.program)
        rep = BatchReplayer(wl.trace)
        outcomes, inj = [], []
        for chunk in np.array_split(np.arange(space.size), 8):
            batch = rep.replay(*space.instructions_of(chunk),
                               sink=NullSink())
            outcomes.append(classify_batch(batch, wl.comparator))
            inj.append(batch.injected_errors)
        return (np.concatenate(outcomes).reshape(space.n_sites, space.bits),
                np.concatenate(inj).reshape(space.n_sites, space.bits))

    @pytest.mark.parametrize("n_workers", [None, 2],
                             ids=["serial", "processes"])
    def test_exhaustive_backend_parity(self, cg_tiny, n_workers):
        from repro.core import run_campaign

        got = run_campaign(cg_tiny, mode="exhaustive",
                           n_workers=n_workers).exhaustive
        outcomes, inj = self._identity_map_outcomes(cg_tiny)
        assert np.array_equal(got.outcomes, outcomes)
        assert np.array_equal(got.injected_errors, inj, equal_nan=True)

    def test_monte_carlo_backend_parity(self, cg_tiny):
        """Tiny batch budgets move every chunk's start, and so every
        call's live-in set; the campaign must not notice."""
        from repro.core import run_campaign

        a = run_campaign(cg_tiny, mode="monte_carlo", sampling_rate=0.05,
                         seed=3)
        b = run_campaign(cg_tiny, mode="monte_carlo", sampling_rate=0.05,
                         seed=3, batch_budget=1 << 12)
        assert np.array_equal(a.sampled.outcomes, b.sampled.outcomes)
        assert np.array_equal(a.boundary.thresholds, b.boundary.thresholds)
        assert np.array_equal(a.boundary.exact, b.boundary.exact)


def _tape_with_dead_row():
    b = TraceBuilder(np.float32, name="dead")
    x = b.feed("x", 1.25)
    y = b.feed("y", -0.5)
    dead = x * y  # consumed by nothing, not an output
    s = x + y
    out = s * s
    b.mark_output(out, s)
    return b.build(), dead.index, out.index, s.index


class TestSlotPlan:
    """Cases a wrong slot plan or live-in fill would get wrong."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_slot_rule_invariants(self, seed):
        """A row never takes the slot of a value still live at it (its
        operands included), and outputs keep their slots to the end."""
        trace = golden_run(random_tape(seed, guards=seed == 5))
        plan = plan_for(trace)
        outputs = set(trace.program.outputs.tolist())
        owner: dict[int, int] = {}  # slot -> last row assigned to it
        for i in plan.slot_rows:
            held = owner.get(int(plan.slot[i]))
            assert held is None or (held not in outputs
                                    and plan.slot_last[held] < i), (i, held)
            owner[int(plan.slot[i])] = i
        assert plan.n_slots < len(plan.slot_rows)

    def test_kernel_tapes_fit_in_few_slots(self, fft_tiny, lu_tiny,
                                           cg_tiny):
        for wl in (fft_tiny, lu_tiny, cg_tiny):
            plan = plan_for(wl.trace)
            assert len(wl.program.outputs) <= plan.n_slots
            assert plan.n_slots < len(wl.program) // 2

    def test_injection_into_output_row(self):
        prog, _, out, s = _tape_with_dead_row()
        rep = BatchReplayer(golden_run(prog))
        for site in (out, s):
            sites = np.full(4, site)
            vals = np.array([np.nan, -0.0, 7.0, np.inf], dtype=np.float32)
            for sink in (None, SinkStream()):
                batch = rep.replay_values(sites, vals, sink=sink)
                assert_matches(batch, reference(prog, sites, values=vals),
                               sink, rep.trace.values)

    def test_injection_into_dead_row(self):
        """The slot map skips a row nothing observable reads; injecting
        there changes nothing, while the sink still sees its deviation."""
        prog, dead, _, _ = _tape_with_dead_row()
        trace = golden_run(prog)
        rep = BatchReplayer(trace)
        assert plan_for(trace).slot_pos[dead] == -1
        sites = np.full(3, dead)
        bits = np.array([31, 30, 3])
        ref = reference(prog, sites, bits)
        assert_matches(rep.replay(sites, bits), ref)
        sink = SinkStream()
        assert_matches(rep.replay(sites, bits, sink=sink), ref, sink,
                       trace.values)
        assert np.all(sink.assemble(len(prog))[1][0] > 0)

    def test_section_override_read_again_late(self):
        """A live-in read at the start of a section and again at its end
        must still hold the override when the late row reads it."""
        b = TraceBuilder(np.float32, name="late-live-in")
        x = b.feed("x", 0.75)
        y = b.feed("y", 2.0)
        head = x * y  # section starts here
        acc = head
        for _ in range(12):
            acc = acc * 1.5 + head
        tail = acc - x  # x is read again at the very end
        b.mark_output(tail)
        prog = b.build()
        rep = BatchReplayer(golden_run(prog))
        start = head.index
        ov = np.array([0.75, -3.0, np.inf, 0.0], dtype=np.float32)
        vals, _ = rep.sweep_section(start, len(prog), 4,
                                    overrides={x.index: ov})
        ref_vals, _, _ = reference(prog, np.full(4, x.index), values=ov)
        assert np.array_equal(vals, ref_vals[start:], equal_nan=True)

    def test_one_plan_build_per_adaptive_campaign(self):
        from repro.core import run_campaign

        for n_workers in (None, 2):
            wl = kernels.build("cg", n=8, iters=8)
            result = run_campaign(wl, mode="adaptive", seed=1,
                                  n_workers=n_workers, metrics=True)
            assert result.rounds > 1
            assert result.metrics["counters"]["replay.plans"] == 1

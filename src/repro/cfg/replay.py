"""Batched lane replay of fault injections through a CFG.

The straight-line :class:`~repro.engine.batch.BatchReplayer` sweeps one tape
and treats guard disagreement as the end of tracking.  CFG replay instead
lets every corrupted lane follow its **own** control path:

* each lane starts at the golden step containing its injection site, with
  the register file restored from that step's golden entry snapshot (the
  uncorrupted prefix is identical to the golden run, so nothing before the
  injection needs re-executing);
* per wave, live lanes are grouped by ``(current block, golden-path
  alignment)`` and each group's block is executed vectorised across its
  lanes — the per-block analogue of the tape sweep, with lanes masked into
  and out of blocks as their paths fork;
* conditional terminators evaluate per lane; a lane whose branch direction
  disagrees with the golden run leaves the golden path (``path_diverged``)
  and keeps executing down its own path until ``ret``;
* every block execution charges ``rows + 1`` dynamic steps against a
  ``max_steps`` budget.  Lanes exceeding it stop *deterministically* —
  HANG is a counted-step fact, never a wall-clock timeout.

While a lane is aligned with the golden path its per-row deviations stream
into the :class:`~repro.engine.batch.PropagationSink` exactly like tape
replay (so threshold aggregation and boundary inference are unchanged);
after path divergence the dynamic rows no longer correspond and tracking
stops, which is the §2.2 semantics — now observed rather than imposed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..engine.batch import PropagationSink, ReplayBatch
from ..engine.bitflip import flip_bits
from ..engine.classify import Outcome, OutputComparator, classify_batch
from ..engine.plan import make_step, operand_rows, run_steps
from ..engine.program import Opcode
from ..obs import metrics as _metrics
from .interpreter import CfgGoldenTrace
from .program import TermKind

__all__ = ["CfgLaneReplayer", "CfgReplayBatch"]

_CONST, _INPUT = int(Opcode.CONST), int(Opcode.INPUT)


@dataclass(frozen=True)
class CfgReplayBatch(ReplayBatch):
    """Replay result with the CFG-only outcome facts attached.

    ``diverged_at`` keeps its tape meaning (first *in-block* guard
    disagreement, dynamic row index); ``path_diverged`` marks lanes whose
    branch direction left the golden block path; ``hung`` marks lanes that
    exhausted ``max_steps``.
    """

    hung: np.ndarray  #: (lanes,) bool — lane exceeded the max_steps budget
    path_diverged: np.ndarray  #: (lanes,) bool — lane left the golden path


class _BlockExec:
    """One block's steps for the shared replay loop, in two maps.

    ``steps`` run over the register file: row ``j`` writes register
    ``dst[j]``, which may also be one of its operands (an FMA whose
    destination is its addend reads the addend first, see
    :func:`~repro.engine.plan.make_step`).  ``tracked_steps`` rename
    every row into its own slot ``n_registers + j`` so a tracked (sink)
    execution leaves each row's value in place; the registers a block
    writes are copied back from their last writer's slot afterwards.
    """

    def __init__(self, blk, n_regs: int, dtype: np.dtype,
                 inputs: np.ndarray):
        self.n_rows = blk.n_rows
        self.term = blk.term
        self.dst = blk.dst.tolist()
        consts = blk.consts.astype(dtype)
        self.steps: list[tuple] = []
        self.tracked_steps: list[tuple] = []
        holder = list(range(n_regs))  # register -> V index of its value
        for j, (op, opnd, dst) in enumerate(zip(blk.ops.tolist(),
                                                blk.operands.tolist(),
                                                self.dst)):
            a, b, c = (operand_rows(op, opnd) + (0, 0, 0))[:3]
            load = None
            if op == _INPUT:
                load = inputs[opnd[0]]
            elif op == _CONST:
                load = consts[j]
            self.steps.append(make_step(op, dst, a, b, c, load, key=j))
            self.tracked_steps.append(make_step(
                op, n_regs + j, holder[a], holder[b], holder[c], load,
                key=j))
            holder[dst] = n_regs + j
        self.written = [r for r in range(n_regs) if holder[r] >= n_regs]
        self.last_writer = [holder[r] - n_regs for r in self.written]


class CfgLaneReplayer:
    """Replays batches of single-bit-flip experiments over a CFG golden trace.

    Blocks execute through the tape replayer's opcode table and loop
    (:mod:`repro.engine.plan`).  Exposes the tape replayer's ``replay`` /
    ``replay_values`` contract so campaign drivers, sinks and classifiers
    are shared; ``sweep_section`` (compositional analysis) is
    straight-line-only and raises.
    """

    def __init__(self, trace: CfgGoldenTrace, max_steps: int | None = None):
        self.trace = trace
        self.program = trace.program
        prog = self.program
        self._n = int(len(trace.values))
        self._gold = trace.values
        self._gold64 = trace.values.astype(np.float64)
        self._site_ok = trace.dyn_is_site
        self._out_regs = prog.outputs
        inputs = prog.inputs.astype(prog.dtype)
        self._blocks = [_BlockExec(b, prog.n_registers, prog.dtype, inputs)
                        for b in prog.blocks]
        self.max_steps = (int(max_steps) if max_steps is not None
                          else prog.resolved_max_steps())
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")

    # ------------------------------------------------------------------ entry

    def replay(
        self,
        sites: np.ndarray,
        bits: np.ndarray,
        sink: PropagationSink | None = None,
    ) -> CfgReplayBatch:
        """Replay one single-bit-flip experiment per lane (dynamic-row sites)."""
        return self._replay_corrupted(*self._flip(sites, bits), sink)

    def replay_outcomes(
        self,
        sites: np.ndarray,
        bits: np.ndarray,
        comparator: OutputComparator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Phase A: ``(outcomes, injected_errors)`` of :meth:`replay`, the
        entry point the tape replayer runs in its workspace."""
        batch = self.replay(sites, bits)
        return classify_batch(batch, comparator), batch.injected_errors

    def replay_round(
        self,
        sites: np.ndarray,
        bits: np.ndarray,
        comparator: OutputComparator,
        sink: PropagationSink,
    ) -> tuple[np.ndarray, np.ndarray]:
        """An adaptive round's chunk: :meth:`replay_outcomes`, and the
        MASKED lanes' deviations streamed into ``sink``, from one replay.

        The replay tracks every lane; the sink then gets the MASKED
        lanes' columns in the one full-height call that ``replay(sites[m],
        bits[m], sink=sink)`` would make, bit for bit, since every column
        of the tracked matrices is its own lane's.  With no MASKED lane it
        sees nothing.
        """
        sites, bits, corrupted = self._flip(sites, bits)
        batch, dev, valid = self._run(sites, bits, corrupted, track=True)
        outcomes = classify_batch(batch, comparator)
        masked = np.flatnonzero(outcomes == Outcome.MASKED)
        if masked.size:
            sink.consume(0, dev[:, masked], valid[:, masked], sites[masked],
                         bits[masked])
        return outcomes, batch.injected_errors

    def replay_values(
        self,
        sites: np.ndarray,
        values: np.ndarray,
        sink: PropagationSink | None = None,
    ) -> CfgReplayBatch:
        """Replay with explicit corrupted values (``bits`` all ``-1``)."""
        sites = np.asarray(sites, dtype=np.int64)
        values = np.asarray(values, dtype=self.program.dtype)
        if sites.shape != values.shape or sites.ndim != 1:
            raise ValueError("sites and values must be equal-length 1-D "
                             "arrays")
        self._check_sites(sites)
        bits = np.full(sites.shape, -1, dtype=np.int64)
        return self._replay_corrupted(sites, bits, values, sink)

    def sweep_section(self, *args, **kwargs):
        raise NotImplementedError(
            "sectioned (compositional) replay is straight-line-only; CFG "
            "workloads cannot use mode='compositional'")

    def _flip(self, sites, bits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated ``(sites, bits, corrupted values)`` of a bit-flip batch."""
        sites = np.asarray(sites, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int64)
        if sites.shape != bits.shape or sites.ndim != 1:
            raise ValueError("sites and bits must be equal-length 1-D arrays")
        self._check_sites(sites)
        with np.errstate(invalid="ignore", over="ignore"):
            corrupted = flip_bits(self._gold[sites], bits)
        return sites, bits, corrupted

    def _check_sites(self, sites: np.ndarray) -> None:
        if sites.size == 0:
            raise ValueError("empty experiment batch")
        if np.any(sites < 0) or np.any(sites >= self._n):
            raise ValueError("injection site out of range")
        if not np.all(self._site_ok[sites]):
            raise ValueError("injection into a non-site instruction (guard)")

    # ------------------------------------------------------------- wave loop

    def _replay_corrupted(
        self,
        sites: np.ndarray,
        bits: np.ndarray,
        corrupted: np.ndarray,
        sink: PropagationSink | None,
    ) -> CfgReplayBatch:
        batch, dev, valid = self._run(sites, bits, corrupted,
                                      track=sink is not None)
        if sink is not None:
            sink.consume(0, dev, valid, sites, bits)
        return batch

    def _run(
        self,
        sites: np.ndarray,
        bits: np.ndarray,
        corrupted: np.ndarray,
        track: bool,
    ) -> tuple[CfgReplayBatch, np.ndarray | None, np.ndarray | None]:
        """The wave loop: the batch, plus with ``track`` its full-height
        ``(n, lanes)`` deviation matrix and ``valid`` mask."""
        k = sites.size
        n = self._n
        tr = self.trace
        dtype = self.program.dtype
        n_steps = tr.n_steps
        metered = _metrics.METRICS.enabled
        if metered:
            t_replay = time.perf_counter()
            rows_executed = 0

        with np.errstate(invalid="ignore", over="ignore"):
            inj_err = np.abs(corrupted.astype(np.float64) - self._gold64[sites])
            inj_err[~np.isfinite(inj_err)] = np.inf

        # Lane start coordinates: the golden step containing the site, the
        # in-block row of the site, and the golden register file at the
        # step's entry (the uncorrupted prefix is bit-identical to golden).
        start_steps = tr.step_of_row(sites).astype(np.int64)
        prefix_rows = tr.step_starts[start_steps]
        inj_rows = sites - prefix_rows

        regs = np.ascontiguousarray(tr.entry_regs[start_steps].T)  # (R, k)
        cur_block = tr.block_path[start_steps].astype(np.int64)
        astep = start_steps.copy()  # golden-path alignment; -1 once diverged
        alive = np.ones(k, dtype=bool)
        pending = np.ones(k, dtype=bool)  # injection not yet applied
        hung = np.zeros(k, dtype=bool)
        path_div = np.zeros(k, dtype=bool)
        guard_div_at = np.full(k, n, dtype=np.int64)
        # Charge the skipped prefix (rows + one terminator per step) so the
        # budget means the same thing regardless of where a lane starts.
        steps_used = (prefix_rows + start_steps).astype(np.int64)
        out = np.full((len(self._out_regs), k), np.nan, dtype=np.float64)

        dev = valid = None
        if track:
            dev = np.zeros((n, k), dtype=np.float64)
            # The skipped prefix is tracked-and-zero by construction.
            valid = np.arange(n, dtype=np.int64)[:, None] < prefix_rows[None, :]

        while alive.any():
            live = np.flatnonzero(alive)
            # Group lanes by (block, alignment step): one vectorised block
            # execution per group.  astep >= -1, so +1 keeps keys unique.
            key = cur_block[live] * (n_steps + 2) + (astep[live] + 1)
            order = np.argsort(key, kind="stable")
            live = live[order]
            cuts = np.flatnonzero(np.diff(key[order])) + 1
            for sel in np.split(live, cuts):
                bid = int(cur_block[sel[0]])
                step = int(astep[sel[0]])
                blk = self._blocks[bid]
                cost = blk.n_rows + 1

                # Hang guard, mirroring the golden run: the budget is
                # charged before the block runs, so a lane stops the moment
                # its counted steps would exceed max_steps.
                over = steps_used[sel] + cost > self.max_steps
                if over.any():
                    stopped = sel[over]
                    hung[stopped] = True
                    alive[stopped] = False
                    sel = sel[~over]
                    if sel.size == 0:
                        continue
                steps_used[sel] += cost

                aligned = step >= 0
                g0 = int(tr.step_starts[step]) if aligned else -1
                track_rows = track and aligned and blk.n_rows > 0
                if track_rows:
                    blkvals = np.empty((blk.n_rows, sel.size), dtype=dtype)

                grp_pend = pending[sel]
                has_inj = bool(grp_pend.any())
                if has_inj:
                    grp_rows = inj_rows[sel]

                sub = regs[:, sel]
                self._run_block(blk, sub, sel, step, g0,
                                grp_pend if has_inj else None,
                                grp_rows if has_inj else None,
                                corrupted, guard_div_at,
                                blkvals if track_rows else None)
                regs[:, sel] = sub
                if has_inj:
                    pending[sel] = False
                if metered:
                    rows_executed += blk.n_rows * sel.size

                if track_rows:
                    g1 = g0 + blk.n_rows
                    with np.errstate(invalid="ignore", over="ignore"):
                        d = np.abs(blkvals.astype(np.float64)
                                   - self._gold64[g0:g1, None])
                        d[~np.isfinite(d)] = np.inf
                    dev[g0:g1, sel] = d
                    valid[g0:g1, sel] = True

                term = blk.term
                if term.kind is TermKind.RET:
                    out[:, sel] = regs[self._out_regs][:, sel].astype(np.float64)
                    alive[sel] = False
                    continue
                if term.kind is TermKind.JMP:
                    cur_block[sel] = term.target
                    if aligned:
                        astep[sel] = step + 1  # same block => same jmp as golden
                    continue
                with np.errstate(invalid="ignore"):
                    lhs = regs[term.a, sel]
                    rhs = regs[term.b, sel]
                    pred = (lhs > rhs if term.kind is TermKind.BR_GT
                            else lhs <= rhs)
                cur_block[sel] = np.where(pred, term.target, term.target_else)
                if aligned:
                    mism = pred != tr.branch_taken[step]
                    if mism.any():
                        forked = sel[mism]
                        path_div[forked] = True
                        astep[forked] = -1
                    astep[sel[~mism]] = step + 1

        if track:
            valid &= (np.arange(n, dtype=np.int64)[:, None]
                      < guard_div_at[None, :])

        if metered:
            _metrics.inc("replay.batches")
            _metrics.inc("replay.lanes", k)
            _metrics.inc("replay.instruction_rows", rows_executed)
            _metrics.observe("replay.batch_seconds",
                             time.perf_counter() - t_replay)

        batch = CfgReplayBatch(
            sites=sites,
            bits=bits,
            injected_values=corrupted,
            injected_errors=inj_err,
            outputs=out,
            diverged_at=guard_div_at,
            n_instructions=n,
            hung=hung,
            path_diverged=path_div,
        )
        return batch, dev, valid

    # ------------------------------------------------------------ block body

    def _run_block(self, blk, sub, sel, step, g0, grp_pend, grp_rows,
                   corrupted, guard_div_at, blkvals):
        """Execute one block vectorised over the group's lanes.

        ``sub`` is the ``(n_registers, group)`` register slab (written in
        place); lanes with a pending injection have their site row's value
        overwritten as soon as it is produced, exactly like tape injection.
        Aligned groups compare guard rows against the recorded golden
        direction; when ``blkvals`` is given (tracked groups), every row's
        value is left in it for deviation streaming.
        """
        n_regs = sub.shape[0]
        if blkvals is None:
            # blocks are short: index the slab's rows directly
            V, steps, dst = sub, blk.steps, blk.dst
        else:
            V = list(sub) + list(blkvals)
            steps = blk.tracked_steps
            dst = range(n_regs, n_regs + blk.n_rows)

        inject = []
        if grp_pend is not None:
            lanes = np.flatnonzero(grp_pend)
            rows = grp_rows[lanes]
            for j in np.unique(rows).tolist():
                hit = lanes[rows == j]
                inject.append((j, dst[j], hit, corrupted[sel[hit]]))

        if step >= 0:
            tr, n = self.trace, self._n

            def on_guard(j, pred):
                row = g0 + j
                mism = pred != tr.guard_taken[row]
                if mism.any():
                    guard_div_at[sel] = np.minimum(
                        guard_div_at[sel], np.where(mism, row, n))
        else:
            def on_guard(j, pred):
                pass

        run_steps(steps, V, 0, blk.n_rows, on_guard, inject)
        if blkvals is not None and blk.written:
            sub[blk.written] = blkvals[blk.last_writer]

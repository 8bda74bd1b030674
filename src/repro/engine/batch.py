"""Vectorised batched fault-injection replay.

A fault-injection *experiment* is one (site, bit) pair: the golden value of
dynamic instruction ``site`` has ``bit`` flipped, and the rest of the program
re-executes from there.  An exhaustive campaign needs |sites| x |bits|
experiments — billions for real benchmarks (§1) and still O(n^2 * bits)
instruction evaluations at our scale if run one at a time.

This module replays *many experiments simultaneously*: each experiment is one
lane of a NumPy batch axis, and the tape is swept once from the earliest
injection site to the end with every opcode applied to whole lane-vectors.
Grouping the 32/64 bit flips of a block of adjacent sites into one batch
turns the exhaustive campaign into roughly ``n^2 / block`` Python-level steps
over wide arrays — the vectorise-the-inner-loop discipline of NumPy HPC code.

Memory is kept bounded by sizing batches against a byte budget
(:func:`lanes_for_budget`) and by *streaming* per-instruction deviations, one
cache-sized block of rows at a time, into an aggregation sink instead of
materialising the sites-by-sites propagation matrix (the paper's §5
'Overhead' concern).

Un-corrupted lanes recompute exactly the golden values (same dtype, same
operation order), which is property-tested against the scalar interpreter.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..obs import metrics as _metrics
from .bitflip import flip_bits
from .classify import Outcome, OutputComparator, classify_outputs
from .interpreter import GoldenTrace
from .plan import plan_for, run_steps

__all__ = ["BatchReplayer", "ReplayBatch", "PropagationSink",
           "lanes_for_budget", "make_replayer"]


class PropagationSink(Protocol):
    """Consumer of streamed per-instruction deviation data.

    A tape replay calls :meth:`consume` once per contiguous block of rows,
    in row order: the blocks tile ``[min(sites), n)`` and every call
    carries every lane of the batch.  The CFG replayer makes one
    full-height call starting at row 0.  Implementations (threshold
    aggregation, impact counting, ...) must reduce each block on the fly:
    ``abs_diff`` and ``valid`` are views of the replayer's workspace that
    the next block overwrites, so a sink must not keep them (copy what it
    needs) and must not write to them.
    """

    def consume(
        self,
        first_instr: int,
        abs_diff: np.ndarray,
        valid: np.ndarray | None,
        sites: np.ndarray,
        bits: np.ndarray,
    ) -> None:
        """Absorb one block of propagation data.

        Parameters
        ----------
        first_instr:
            Tape index of ``abs_diff`` row 0.
        abs_diff:
            ``(rows, lanes)`` float64 array; ``abs_diff[j - first_instr, l]``
            is ``|x_j - x'_j|`` for lane ``l``.  Non-finite deviations are
            reported as ``+inf``.
        valid:
            ``(rows, lanes)`` boolean mask; ``False`` where propagation is no
            longer tracked (at and after control divergence, §2.2).
            ``None`` when every entry would be ``True``: no lane has
            diverged by the block's last row.
        sites, bits:
            Per-lane injection coordinates, the same arrays in every block
            of a batch.
        """


#: Deviation bytes a sink replay streams per :meth:`PropagationSink.consume`
#: call (near L2 size), and the fewest rows a block may hold: very wide
#: batches would otherwise pay one call per row.
_BLOCK_BYTES = 1 << 18
_MIN_BLOCK_ROWS = 8


def _block_rows(lanes: int) -> int:
    """Rows per streamed deviation block of a ``lanes``-wide batch."""
    return max(_MIN_BLOCK_ROWS, _BLOCK_BYTES // (8 * lanes))


def lanes_for_budget(n_rows: int, itemsize: int, budget_bytes: int = 1 << 26,
                     minimum: int = 64,
                     n_experiments: int | None = None) -> int:
    """Largest lane count whose value matrix fits in ``budget_bytes``.

    The budget counts ``n_rows * (itemsize + 8)`` bytes per lane: the
    ``(n_rows, lanes)`` value matrix plus a float64 deviation matrix of
    the same shape.  Sink replays hold deviations only one cache-sized
    block of rows at a time (:class:`PropagationSink`), so the float64
    share over-counts; it stays so that chunk layout, and with it
    checkpoint tags, does not change.  Widening chunks is an open item of
    its own.

    The budget is a hard cap for ``n_rows > 0``: a tape too long for even
    ``minimum`` lanes gets as many lanes as fit (at least one — a single
    lane cannot be split), never ``minimum`` regardless of memory.
    ``n_experiments``, when given, additionally caps the width at the
    experiment count actually requested, so degenerate inputs (an empty
    tape, a handful of experiments) cannot ask for budget-sized batches.
    ``minimum`` only applies where the matrix costs nothing (``n_rows == 0``).
    """
    if n_rows < 0:
        raise ValueError("n_rows must be non-negative")
    if budget_bytes <= 0:
        raise ValueError("budget_bytes must be positive")
    if minimum < 1:
        raise ValueError("minimum must be at least 1")
    if n_experiments is not None and n_experiments < 0:
        raise ValueError("n_experiments must be non-negative")
    per_lane = n_rows * (itemsize + 8)
    if per_lane == 0:
        lanes = minimum  # zero rows cost nothing; width is arbitrary
    else:
        lanes = max(1, int(budget_bytes // per_lane))
    if n_experiments:
        lanes = min(lanes, int(n_experiments))
    return max(lanes, 1)


@dataclass(frozen=True)
class ReplayBatch:
    """Raw result of one batched replay (before outcome classification)."""

    sites: np.ndarray  #: (lanes,) injection instruction index per lane
    bits: np.ndarray  #: (lanes,) flipped bit per lane
    injected_values: np.ndarray  #: (lanes,) corrupted value placed at the site
    injected_errors: np.ndarray  #: (lanes,) float64 |corrupted - golden|
    outputs: np.ndarray  #: (n_outputs, lanes) program output per lane
    diverged_at: np.ndarray  #: (lanes,) first guard divergence index, or n
    n_instructions: int  #: tape length n (the non-diverged sentinel)

    @property
    def n_lanes(self) -> int:
        return len(self.sites)

    @property
    def diverged(self) -> np.ndarray:
        """Boolean per-lane mask of control-flow divergence."""
        return self.diverged_at < self.n_instructions


class _Workspace:
    """Scratch matrices of one thread, reused across its replays.

    :meth:`matrix` hands out a C-contiguous ``(rows, lanes)`` view of a
    flat buffer that grows to the widest request seen, so a thread
    replaying chunk after chunk allocates (and page-faults) its buffers
    once instead of once per chunk.  Nothing a replay entry point returns
    may be such a view: the next call overwrites it.  A sink is handed its
    deviation blocks as such views, and must not keep them.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def matrix(self, name: str, rows: int, lanes: int,
               dtype) -> np.ndarray:
        size = rows * lanes
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(rows, lanes)


class BatchReplayer:
    """Replays batches of single-bit-flip experiments over one golden trace.

    Every call executes the trace's shared
    :class:`~repro.engine.plan.ReplayPlan` with the one interpreter loop
    (:func:`~repro.engine.plan.run_steps`): outcome-only replays run the
    slot map in a cache-sized ``(n_slots, lanes)`` buffer; sink replays,
    :meth:`replay_round` and :meth:`sweep_section` run the identity map
    into the full ``(rows, lanes)`` value matrix.  Un-corrupted lanes
    recompute the golden values exactly (same ufuncs, same operand
    precision).

    One replayer may serve several threads at once.  Outcome-only sweeps
    and the deviation blocks of sink replays live in a per-thread
    workspace (:class:`_Workspace`); every array a public method returns
    is a fresh one the caller owns.
    """

    def __init__(self, trace: GoldenTrace):
        self.trace = trace
        self.program = trace.program
        prog = self.program
        self._n = len(prog)
        self._gold = trace.values  # program precision
        self._gold64 = trace.values.astype(np.float64)
        self._guard_taken = trace.guard_taken
        self._outputs = prog.outputs
        self._site_ok = prog.is_site
        self._plan = plan_for(trace)
        self._out_slots = self._plan.slot[prog.outputs]
        self._local = threading.local()

    def _workspace(self) -> _Workspace:
        ws = getattr(self._local, "workspace", None)
        if ws is None:
            ws = self._local.workspace = _Workspace()
        return ws

    # ------------------------------------------------------------------ entry

    def replay(
        self,
        sites: np.ndarray,
        bits: np.ndarray,
        sink: PropagationSink | None = None,
    ) -> ReplayBatch:
        """Replay one single-bit-flip experiment per lane.

        ``sites`` and ``bits`` are equal-length integer arrays.  All sites
        must be fault sites of the program.  When ``sink`` is given, the
        per-instruction absolute deviations of the batch are streamed into
        it block by block (used for Algorithm 1 aggregation and impact
        counting).
        """
        sites, bits, corrupted = self._flip(sites, bits)
        return self._replay_corrupted(sites, bits, corrupted, sink)

    def replay_outcomes(
        self,
        sites: np.ndarray,
        bits: np.ndarray,
        comparator: OutputComparator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Phase A: replay and classify, keeping only what phase A keeps.

        Equals ``classify_batch(replay(sites, bits), comparator)`` plus
        the batch's ``injected_errors``, bit for bit.  The sweep, its
        outputs and the classifier's temporaries live in this thread's
        workspace; the returned ``(outcomes, injected_errors)`` arrays are
        fresh.
        """
        sites, bits, corrupted = self._flip(sites, bits)
        k = sites.size
        start = int(sites.min())
        t0 = time.perf_counter() if _metrics.METRICS.enabled else None
        inj_err, inject = self._prepare_injection(sites, corrupted)
        diverged_at = np.full(k, self._n, dtype=np.int64)
        buf = self._sweep_slots(start, k, inject, diverged_at)
        outcomes = self._classify(buf, start, self._out_slots, diverged_at,
                                  comparator)
        if t0 is not None:
            self._count(k, self._n - start, t0)
        return outcomes, inj_err

    def replay_round(
        self,
        sites: np.ndarray,
        bits: np.ndarray,
        comparator: OutputComparator,
        sink: PropagationSink,
    ) -> tuple[np.ndarray, np.ndarray]:
        """An adaptive round's chunk: classify every lane and stream the
        MASKED lanes' deviations into ``sink``, from one sweep.

        Equals :meth:`replay_outcomes` followed by ``replay(sites[m],
        bits[m], sink=sink)`` for the MASKED lanes ``m``, bit for bit:
        lanes are independent, so the masked columns of the identity-map
        sweep are the values that replay computes.  The sink sees the
        blocks that replay would stream, ``_block_rows(m.size)`` rows
        each tiling ``[min(sites[m]), n)``; with no MASKED lane it sees
        nothing.
        """
        sites, bits, corrupted = self._flip(sites, bits)
        k = sites.size
        start = int(sites.min())
        t0 = time.perf_counter() if _metrics.METRICS.enabled else None
        inj_err, inject = self._prepare_injection(sites, corrupted)
        diverged_at = np.full(k, self._n, dtype=np.int64)
        vals = self._sweep_rows(start, self._n, k, inject, None, diverged_at)
        outcomes = self._classify(vals, start, self._outputs - start,
                                  diverged_at, comparator)
        masked = np.flatnonzero(outcomes == Outcome.MASKED)
        if masked.size:
            m_sites, m_bits = sites[masked], bits[masked]
            m_div = diverged_at[masked]
            height = _block_rows(masked.size)
            for r0 in range(int(m_sites.min()), self._n, height):
                r1 = min(r0 + height, self._n)
                self._stream_block(sink, r0, vals[r0 - start:r1 - start],
                                   m_sites, m_bits, m_div, lanes=masked)
        if t0 is not None:
            self._count(k, self._n - start, t0)
        return outcomes, inj_err

    def _classify(self, buf: np.ndarray, start: int, index: np.ndarray,
                  diverged_at: np.ndarray,
                  comparator: OutputComparator) -> np.ndarray:
        """Outcome codes of a sweep whose outputs sit at rows ``index`` of
        ``buf`` (see :meth:`_outputs_of`), gathered and classified in this
        thread's workspace; the returned codes are fresh."""
        ws = self._workspace()
        n_out, k = len(self._outputs), diverged_at.size
        staged = (None if buf.dtype == np.float64
                  else ws.matrix("staged", n_out, k, buf.dtype))
        out = self._outputs_of(buf, start, index,
                               ws.matrix("outputs", n_out, k, np.float64),
                               staged)
        return classify_outputs(
            out, comparator, diverged_at < self._n,
            scratch=(ws.matrix("diff", n_out, k, np.float64),
                     ws.matrix("flags", n_out, k, bool)))

    def _stream_block(self, sink: PropagationSink, r0: int,
                      rows: np.ndarray, sites: np.ndarray, bits: np.ndarray,
                      diverged_at: np.ndarray,
                      lanes: np.ndarray | None = None) -> None:
        """Stream the deviations of value ``rows`` (row ``r0`` first) into
        ``sink``.  ``lanes`` picks the columns of ``rows`` that ``sites``,
        ``bits`` and ``diverged_at`` describe; they are gathered in program
        precision and widen in the subtraction, as whole rows do."""
        ws = self._workspace()
        r1 = r0 + len(rows)
        dev = ws.matrix("deviation", len(rows), sites.size, np.float64)
        if lanes is not None:
            rows = np.take(rows, lanes, axis=1, mode="clip",
                           out=dev if rows.dtype == np.float64 else
                           ws.matrix("gathered", len(rows), sites.size,
                                     rows.dtype))
        with np.errstate(invalid="ignore", over="ignore"):
            np.subtract(rows, self._gold64[r0:r1, None], out=dev)
        np.abs(dev, out=dev)
        np.fmin(dev, np.inf, out=dev)  # NaN -> inf
        valid = None
        if diverged_at.min() < r1:
            valid = ws.matrix("valid", len(rows), sites.size, bool)
            np.less(np.arange(r0, r1)[:, None], diverged_at, out=valid)
        sink.consume(r0, dev, valid, sites, bits)

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

    def replay_values(
        self,
        sites: np.ndarray,
        values: np.ndarray,
        sink: PropagationSink | None = None,
    ) -> ReplayBatch:
        """Replay with *explicit* corrupted values instead of bit flips.

        This realises the paper's continuous error function ``f_i(ε)``
        (§3.2): place ``golden ± ε`` (or any value) at a site and measure
        the output error.  The returned batch's ``bits`` are all ``-1``
        since no bit flip is involved.
        """
        sites = np.asarray(sites, dtype=np.int64)
        values = np.asarray(values, dtype=self.program.dtype)
        if sites.shape != values.shape or sites.ndim != 1:
            raise ValueError("sites and values must be equal-length 1-D "
                             "arrays")
        self._check_sites(sites)
        bits = np.full(sites.shape, -1, dtype=np.int64)
        return self._replay_corrupted(sites, bits, values, sink)

    def _check_sites(self, sites: np.ndarray) -> None:
        if sites.size == 0:
            raise ValueError("empty experiment batch")
        if np.any(sites < 0) or np.any(sites >= self._n):
            raise ValueError("injection site out of range")
        if not np.all(self._site_ok[sites]):
            raise ValueError("injection into a non-site instruction (guard)")

    def _prepare_injection(
        self, sites: np.ndarray, corrupted: np.ndarray,
    ) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
        """Injected-error magnitudes plus the site -> (lanes, values) map."""
        with np.errstate(invalid="ignore", over="ignore"):
            inj_err = np.abs(corrupted.astype(np.float64) - self._gold64[sites])
            inj_err[~np.isfinite(inj_err)] = np.inf

        order = np.argsort(sites, kind="stable")
        sorted_sites = sites[order]
        sorted_values = corrupted[order]
        cuts = [0, *(np.flatnonzero(np.diff(sorted_sites)) + 1).tolist(),
                sites.size]
        inject = {site: (order[a:b], sorted_values[a:b])
                  for site, a, b in zip(sorted_sites[cuts[:-1]].tolist(),
                                        cuts[:-1], cuts[1:])}
        return inj_err, inject

    def _replay_corrupted(
        self,
        sites: np.ndarray,
        bits: np.ndarray,
        corrupted: np.ndarray,
        sink: PropagationSink | None,
    ) -> ReplayBatch:
        k = sites.size
        start = int(sites.min())
        t0 = time.perf_counter() if _metrics.METRICS.enabled else None

        inj_err, inject = self._prepare_injection(sites, corrupted)
        diverged_at = np.full(k, self._n, dtype=np.int64)
        n_out = len(self._outputs)
        if sink is None:
            buf = self._sweep_slots(start, k, inject, diverged_at)
            out = self._outputs_of(buf, start, self._out_slots,
                                   np.empty((n_out, k)))
        else:
            def stream(r0: int, rows: np.ndarray) -> None:
                self._stream_block(sink, r0, rows, sites, bits, diverged_at)

            vals = self._sweep_rows(start, self._n, k, inject, None,
                                    diverged_at, stream)
            out = self._outputs_of(vals, start, self._outputs - start,
                                   np.empty((n_out, k)))
        if t0 is not None:
            self._count(k, self._n - start, t0)

        return ReplayBatch(
            sites=sites,
            bits=bits,
            injected_values=corrupted,
            injected_errors=inj_err,
            outputs=out,
            diverged_at=diverged_at,
            n_instructions=self._n,
        )

    @staticmethod
    def _count(k: int, rows: int, t0: float) -> None:
        _metrics.inc("replay.batches")
        _metrics.inc("replay.lanes", k)
        _metrics.inc("replay.instruction_rows", rows * k)
        _metrics.observe("replay.batch_seconds", time.perf_counter() - t0)

    # ------------------------------------------------------------ sectioned

    def sweep_section(
        self,
        start: int,
        stop: int,
        n_lanes: int,
        inject: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
        overrides: dict[int, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate only rows ``[start, stop)`` across ``n_lanes`` lanes.

        The truncated sweep underlying section-local (compositional)
        analysis: operands produced before ``start`` read the golden trace
        unless ``overrides`` supplies a per-lane vector for them, so a
        section replays against exact golden live-in values — bit-identical
        to the corresponding rows of a full replay — while live-in
        perturbation probes and in-section injections perturb lanes
        independently.

        Parameters
        ----------
        inject:
            ``{instr: (lane_indices, corrupted_values)}`` applied after the
            row is computed, exactly like experiment injection in
            :meth:`replay` (``instr`` must lie in ``[start, stop)``).
        overrides:
            ``{instr: lane_vector}`` for instructions *before* ``start``:
            the ``(n_lanes,)`` vector (program dtype) replaces the golden
            value of that live-in.

        Returns
        -------
        ``(vals, diverged_at)``: the ``(stop - start, n_lanes)`` value
        matrix and the per-lane first guard-divergence index (``n`` when no
        guard in the section diverged).
        """
        self._check_section_args(start, stop, n_lanes, inject, overrides)
        diverged_at = np.full(n_lanes, self._n, dtype=np.int64)
        vals = self._sweep_rows(start, stop, n_lanes, inject or {},
                                overrides, diverged_at)
        return vals, diverged_at

    def _check_section_args(
        self,
        start: int,
        stop: int,
        n_lanes: int,
        inject: dict[int, tuple[np.ndarray, np.ndarray]] | None,
        overrides: dict[int, np.ndarray] | None,
    ) -> None:
        """Validate one :meth:`sweep_section` call.

        ``inject`` keys must lie inside ``[start, stop)`` and ``overrides``
        keys strictly before ``start`` — out-of-range keys used to be
        silently ignored, masking caller bugs.
        """
        if not 0 <= start < stop <= self._n:
            raise ValueError("section range out of bounds")
        if n_lanes <= 0:
            raise ValueError("need at least one lane")
        if inject:
            bad = sorted(i for i in inject if not start <= i < stop)
            if bad:
                raise ValueError(
                    f"inject keys {bad} outside section [{start}, {stop})")
        if overrides:
            bad = sorted(i for i in overrides if not 0 <= i < start)
            if bad:
                raise ValueError(
                    f"override keys {bad} must precede section start "
                    f"{start}")

    # --------------------------------------------------------- plan sweeps

    def _on_guard(self, diverged_at: np.ndarray):
        """Guard hook: record the first row whose direction left golden."""
        taken, n = self._guard_taken, self._n

        def on_guard(i: int, pred: np.ndarray) -> None:
            np.minimum(diverged_at, np.where(pred != taken[i], i, n),
                       out=diverged_at)
        return on_guard

    def _sweep_slots(
        self,
        start: int,
        k: int,
        inject: dict[int, tuple[np.ndarray, np.ndarray]],
        diverged_at: np.ndarray,
    ) -> np.ndarray:
        """Outcome-only sweep over the slot map, in this thread's workspace.

        Returns the ``(n_slots, k)`` slot buffer, a workspace view the
        next sweep on this thread overwrites.  Injections into rows the
        map skips are dropped: such a row reaches no output and no guard,
        so it cannot change the outcome.
        """
        plan = self._plan
        buf = self._workspace().matrix("slots", plan.n_slots, k,
                                       self.program.dtype)
        live = plan.live_ins(start, slot_map=True)
        buf[plan.slot[live]] = self._gold[live, None]
        hits = [(int(plan.slot_pos[r]), int(plan.slot[r]), *inject[r])
                for r in sorted(inject) if plan.slot_pos[r] >= 0]
        run_steps(plan.slot_steps, list(buf), plan.first_slot_pos(start),
                  len(plan.slot_steps), self._on_guard(diverged_at), hits)
        return buf

    def _sweep_rows(
        self,
        start: int,
        stop: int,
        n_lanes: int,
        inject: dict[int, tuple[np.ndarray, np.ndarray]],
        overrides: dict[int, np.ndarray] | None,
        diverged_at: np.ndarray,
        on_block=None,
    ) -> np.ndarray:
        """Identity-map sweep of rows ``[start, stop)``; returns the matrix.

        With ``on_block``, the rows run in blocks of :func:`_block_rows`
        rows, and ``on_block(r0, rows)`` sees each block's value rows
        right after they are computed.
        """
        plan = self._plan
        dtype = self.program.dtype
        vals = np.empty((stop - start, n_lanes), dtype=dtype)
        live = plan.live_ins(start, slot_map=False)
        fill = np.empty((live.size, n_lanes), dtype=dtype)
        fill[:] = self._gold[live, None]
        V = [None] * start + list(vals)
        for r, row in zip(live.tolist(), fill):
            V[r] = row
        for r, vec in (overrides or {}).items():
            if V[r] is not None:  # rows nothing in the section reads stay out
                V[r][:] = vec
        hit_rows = sorted(inject)
        hits = [(r, r, *inject[r]) for r in hit_rows]
        on_guard = self._on_guard(diverged_at)
        height = stop - start if on_block is None else _block_rows(n_lanes)
        h0 = 0
        for r0 in range(start, stop, height):
            r1 = min(r0 + height, stop)
            h1 = bisect_left(hit_rows, r1, h0)
            run_steps(plan.steps, V, r0, r1, on_guard, hits[h0:h1])
            h0 = h1
            if on_block is not None:
                on_block(r0, vals[r0 - start:r1 - start])
        return vals

    def _outputs_of(self, buf: np.ndarray, start: int, index: np.ndarray,
                    out: np.ndarray,
                    staged: np.ndarray | None = None) -> np.ndarray:
        """Fill ``out``, the ``(n_outputs, lanes)`` float64 outputs of a sweep.

        ``index`` is each output's row of ``buf``: its slot for the slot
        map, ``row - start`` for the identity map.  Output rows below
        ``start`` are golden; their indices may be out of range, which
        ``mode="clip"`` tolerates (it also spares ``np.take`` the buffered
        copy of its default mode) before the golden values replace them.
        A narrower program dtype is gathered into ``staged`` (same shape,
        ``buf``'s dtype; fresh when omitted) and widened from there.
        """
        if buf.dtype == out.dtype:
            np.take(buf, index, axis=0, out=out, mode="clip")
        else:
            staged = np.take(buf, index, axis=0, out=staged, mode="clip")
            with np.errstate(invalid="ignore"):  # signalling NaNs widen
                np.copyto(out, staged)
        early = self._outputs < start
        if early.any():
            out[early] = self._gold64[self._outputs[early], None]
        return out


def make_replayer(trace: GoldenTrace):
    """The replayer for ``trace``: :class:`BatchReplayer` for a tape, the
    CFG lane replayer for a :class:`~repro.cfg.interpreter.CfgGoldenTrace`.

    Both share the ``replay`` / ``replay_values`` contract, so campaign
    drivers, sinks and classifiers never ask which one they hold.
    """
    if hasattr(trace, "block_path"):  # CFG golden trace
        from ..cfg.replay import CfgLaneReplayer
        return CfgLaneReplayer(trace)
    return BatchReplayer(trace)

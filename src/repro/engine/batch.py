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
(:func:`lanes_for_budget`) and by *streaming* per-instruction deviations into
an aggregation sink instead of materialising the sites-by-sites propagation
matrix (the paper's §5 'Overhead' concern).

Un-corrupted lanes recompute exactly the golden values (same dtype, same
operation order), which is property-tested against the scalar interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import time

import numpy as np

from ..obs import metrics as _metrics
from .bitflip import flip_bits
from .interpreter import GoldenTrace
from .plan import plan_for, run_steps

__all__ = ["BatchReplayer", "ReplayBatch", "PropagationSink",
           "lanes_for_budget", "make_replayer"]


class PropagationSink(Protocol):
    """Consumer of streamed per-instruction deviation data.

    :meth:`consume` is invoked once per replayed batch with the absolute
    deviation of every tracked instruction of every lane; implementations
    (threshold aggregation, impact counting, ...) must reduce it on the fly.
    """

    def consume(
        self,
        first_instr: int,
        abs_diff: np.ndarray,
        valid: np.ndarray,
        sites: np.ndarray,
        bits: np.ndarray,
    ) -> None:
        """Absorb one batch of propagation data.

        Parameters
        ----------
        first_instr:
            Tape index of ``abs_diff`` row 0 (the earliest injection site in
            the batch).
        abs_diff:
            ``(rows, lanes)`` float64 array; ``abs_diff[j - first_instr, l]``
            is ``|x_j - x'_j|`` for lane ``l``.  Non-finite deviations are
            reported as ``+inf``.
        valid:
            ``(rows, lanes)`` boolean mask; ``False`` where propagation is no
            longer tracked (at and after control divergence, §2.2).
        sites, bits:
            Per-lane injection coordinates.
        """


def lanes_for_budget(n_rows: int, itemsize: int, budget_bytes: int = 1 << 26,
                     minimum: int = 64,
                     n_experiments: int | None = None) -> int:
    """Largest lane count whose value matrix fits in ``budget_bytes``.

    The replayer materialises one ``(n_rows, lanes)`` value matrix plus a
    float64 deviation matrix of the same shape when a sink is attached; the
    budget accounts for both.

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


class BatchReplayer:
    """Replays batches of single-bit-flip experiments over one golden trace.

    Every call executes the trace's shared
    :class:`~repro.engine.plan.ReplayPlan` with the one interpreter loop
    (:func:`~repro.engine.plan.run_steps`): outcome-only replays run the
    slot map in a cache-sized ``(n_slots, lanes)`` buffer; sink replays
    and :meth:`sweep_section` run the identity map into the full
    ``(rows, lanes)`` value matrix.  Un-corrupted lanes recompute the
    golden values exactly (same ufuncs, same operand precision).
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
        per-instruction absolute deviations of the whole batch are streamed
        into it (used for Algorithm 1 aggregation and impact counting).
        """
        sites = np.asarray(sites, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int64)
        if sites.shape != bits.shape or sites.ndim != 1:
            raise ValueError("sites and bits must be equal-length 1-D arrays")
        self._check_sites(sites)
        with np.errstate(invalid="ignore", over="ignore"):
            corrupted = flip_bits(self._gold[sites], bits)
        return self._replay_corrupted(sites, bits, corrupted, sink)

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

        inject: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        order = np.argsort(sites, kind="stable")
        sorted_sites = sites[order]
        cut = np.flatnonzero(np.diff(sorted_sites)) + 1
        for grp in np.split(order, cut):
            inject[int(sites[grp[0]])] = (grp, corrupted[grp])
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
        rows = self._n - start
        metered = _metrics.METRICS.enabled
        if metered:
            t_replay = time.perf_counter()

        inj_err, inject = self._prepare_injection(sites, corrupted)
        diverged_at = np.full(k, self._n, dtype=np.int64)
        if sink is None:
            out = self._sweep_slots(start, k, inject, diverged_at)
        else:
            vals = self._sweep_rows(start, self._n, k, inject, None,
                                    diverged_at)
            with np.errstate(invalid="ignore", over="ignore"):
                abs_diff = vals.astype(np.float64)
                np.subtract(abs_diff, self._gold64[start:, None],
                            out=abs_diff)
                np.abs(abs_diff, out=abs_diff)
                abs_diff[~np.isfinite(abs_diff)] = np.inf
            valid = (np.arange(start, self._n, dtype=np.int64)[:, None]
                     < diverged_at[None, :])
            sink.consume(start, abs_diff, valid, sites, bits)
            out = self._outputs_of(vals, start)

        if metered:
            _metrics.inc("replay.batches")
            _metrics.inc("replay.lanes", k)
            _metrics.inc("replay.instruction_rows", rows * k)
            _metrics.observe("replay.batch_seconds",
                             time.perf_counter() - t_replay)

        return ReplayBatch(
            sites=sites,
            bits=bits,
            injected_values=corrupted,
            injected_errors=inj_err,
            outputs=out,
            diverged_at=diverged_at,
            n_instructions=self._n,
        )

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
        """Outcome-only sweep over the slot map; returns the outputs.

        Injections into rows the map skips are dropped: such a row reaches
        no output and no guard, so it cannot change the outcome.
        """
        plan = self._plan
        buf = np.empty((plan.n_slots, k), dtype=self.program.dtype)
        live = plan.live_ins(start, slot_map=True)
        buf[plan.slot[live]] = self._gold[live, None]
        hits = [(int(plan.slot_pos[r]), int(plan.slot[r]), *inject[r])
                for r in sorted(inject) if plan.slot_pos[r] >= 0]
        run_steps(plan.slot_steps, list(buf), plan.first_slot_pos(start),
                  len(plan.slot_steps), self._on_guard(diverged_at), hits)
        return self._outputs_of(buf, start, plan.slot)

    def _sweep_rows(
        self,
        start: int,
        stop: int,
        n_lanes: int,
        inject: dict[int, tuple[np.ndarray, np.ndarray]],
        overrides: dict[int, np.ndarray] | None,
        diverged_at: np.ndarray,
    ) -> np.ndarray:
        """Identity-map sweep of rows ``[start, stop)``; returns the matrix."""
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
        hits = [(r, r, *inject[r]) for r in sorted(inject)]
        run_steps(plan.steps, V, start, stop, self._on_guard(diverged_at),
                  hits)
        return vals

    def _outputs_of(self, buf: np.ndarray, start: int,
                    slot: np.ndarray | None = None) -> np.ndarray:
        """``(n_outputs, lanes)`` float64 outputs of one sweep.

        Output rows below ``start`` are golden; the rest are read from
        ``buf`` at their slot, or at ``row - start`` for the identity map.
        """
        outs = self._outputs
        out = np.empty((len(outs), buf.shape[1]), dtype=np.float64)
        late = outs >= start
        index = outs[late] - start if slot is None else slot[outs[late]]
        with np.errstate(invalid="ignore"):
            out[late] = buf[index]
        out[~late] = self._gold64[outs[~late], None]
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

"""Fault-injection campaign drivers behind one ``run_campaign`` entry point.

Five campaign styles, all dispatched through :func:`run_campaign` with a
:class:`CampaignConfig`:

* ``mode="exhaustive"`` — every bit of every fault site (§4.1 ground
  truth).  Feasible here because the batched replayer evaluates whole site
  blocks at once; the real-benchmark equivalent is the "billions or
  trillions of runs" the paper rules out.
* ``mode="sample"`` — run an arbitrary experiment subset (phase A,
  outcomes only); pair with :func:`infer_boundary` to stream the *masked*
  subset into Algorithm 1 (phase B).  The two-phase split makes the §3.5
  filter order-independent: caps come from all of phase A's SDC evidence
  before any aggregation happens.
* ``mode="monte_carlo"`` — the sampled pipeline of §4.2: uniform draw at a
  ``sampling_rate``, phase A, then phase B inference.
* ``mode="adaptive"`` — the §3.4 progressive loop: biased rounds of
  0.1 %-sized experiment batches, candidate space shrunk by the current
  boundary's masked predictions, stopping once ≥95 % of a round is SDC.
* ``mode="compositional"`` — FastFlip-style sectioned analysis
  (:mod:`repro.compose`): per-section exhaustive campaigns distilled
  into cacheable summaries and composed into a conservative
  whole-program boundary, making re-analysis after an edit incremental.

Every mode returns a subclass of :class:`CampaignResult` carrying the
resilience ``health`` record, the ``checkpoint_path`` (when checkpointed)
and a ``metrics`` snapshot (when ``CampaignConfig.metrics`` is on), so
callers stop pattern-matching on per-driver shapes.

Two fault-tolerance hooks thread through every mode:

* ``retry_policy`` — the :class:`~repro.parallel.resilience.RetryPolicy`
  of the pooled planes' task loop (bounded per-task retries, wall-clock
  timeouts, worker-crash recovery, serial degradation); ``None`` means
  ``RetryPolicy()``.  The resulting
  :class:`~repro.parallel.resilience.CampaignHealth` record is surfaced on
  campaign results.  The serial plane, the reference, recovers nothing
  and reports no health.
* ``checkpoint`` — a :class:`~repro.core.checkpoint.CampaignCheckpoint`
  appends one record per completed phase-A chunk, phase-B aggregator
  partial and adaptive round as they complete, so an interrupted
  campaign resumes bit-identically instead of restarting.  Partial-result
  merges are commutative (outcomes concatenate by chunk index, Algorithm 1
  partials merge by per-site max / sum), which is also why drivers consume
  executor streams in completion order with accurate progress.

Observability (:mod:`repro.obs`) hooks into the same seams: phases run
under tracing spans (``campaign.<mode>``, ``campaign.phase_a``,
``campaign.phase_b``, ``campaign.adaptive.round``) and the worker tasks
record chunk latencies and experiment counters that merge fleet-wide
across pool workers.  All of it is no-op while disabled.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from ..engine.batch import BatchReplayer, lanes_for_budget, make_replayer
from ..engine.classify import Outcome
from ..kernels.workload import Workload
from ..obs import metrics as _metrics
from ..obs.trace import TRACER, rss_peak_kb, span
from ..parallel.executor import (
    ProcessPoolCampaignExecutor,
    SerialExecutor,
    pool_start_method,
    process_pool,
)
from ..parallel.partition import chunk_for_workers
from ..parallel.progress import as_progress
from ..parallel.resilience import CampaignHealth, RetryPolicy
from .boundary import FaultToleranceBoundary
from .checkpoint import CampaignCheckpoint
from .experiment import ExhaustiveResult, SampledResult, SampleSpace
from .inference import ThresholdAggregator, exact_site_thresholds
from .prediction import BoundaryPredictor
from .sampling import ProgressiveConfig, ProgressiveSampler, uniform_sample

__all__ = [
    "AdaptiveResult",
    "CampaignConfig",
    "CampaignResult",
    "ExhaustiveCampaignResult",
    "MonteCarloCampaignResult",
    "SampleCampaignResult",
    "infer_boundary",
    "make_replayer",
    "run_campaign",
]

#: Default byte budget that sizes replay batches: lanes_for_budget charges
#: each lane its value-matrix column plus 8 bytes per row.  Sink replays
#: stream deviations in 256 KiB blocks, so the 8 bytes over-count; they
#: stay so that chunk layouts, and with them checkpoint tags, do not move.
DEFAULT_BATCH_BUDGET = 1 << 26

#: Valid :attr:`CampaignConfig.mode` values.
CAMPAIGN_MODES = ("exhaustive", "sample", "monte_carlo", "adaptive",
                  "compositional")

# --------------------------------------------------------------------------
# Worker-side state.  Every worker points this thread's state at its
# campaign's workload through _init_worker_direct: the serial plane on
# the campaign's own thread, forked pool workers on the workload they
# inherit, forkserver workers on the workload unpickled from the pool's
# initargs, and each lease thread of a dist node on the workload it was
# welcomed with.  The state is per thread, so campaigns on several
# threads of one process (serve job threads) never see each other's.
# --------------------------------------------------------------------------

_WORKER = threading.local()


def _init_worker_direct(workload: Workload) -> None:
    """Initializer of every local worker and of dist node lease threads:
    use the workload in this process's memory."""
    _WORKER.workload = workload
    _WORKER.replayer = make_replayer(workload.trace)


def _worker_state() -> tuple[Workload, BatchReplayer]:
    """This thread's ``(workload, replayer)`` (see _init_worker_direct)."""
    return _WORKER.workload, _WORKER.replayer


def _is_cfg_workload(workload: Workload) -> bool:
    from ..cfg.workload import is_cfg_workload
    return is_cfg_workload(workload)


def _plane(n_workers: int | None, dist=None) -> str:
    """The execution plane a campaign's arguments select: ``dist`` when a
    distributed plane is given, else ``processes`` when ``n_workers`` is
    more than one, else ``serial``."""
    if dist is not None:
        return "dist"
    if not n_workers or n_workers == 1:
        return "serial"
    return "processes"


def _process_pool(workload: Workload, n_workers: int):
    """Build one process pool of a campaign (see DESIGN §6).

    The campaign's
    :class:`~repro.parallel.executor.ProcessPoolCampaignExecutor` calls
    this on its first submit and on every rebuild, so a campaign
    with nothing left to run (a fully resumed checkpoint, a warm compose
    cache) builds neither a pool nor a replay plan.  The golden run
    happens here, once: forked workers inherit the trace and forkserver
    workers unpickle it.  Under ``fork`` the replay plan is built here
    too (it is memoized on the trace, so every worker inherits the
    parent's copy); forkserver workers build their own, which is cheaper
    than pickling it.
    """
    trace = workload.trace
    if pool_start_method() == "fork":
        make_replayer(trace)
    return process_pool(n_workers, _init_worker_direct, (workload,))


@contextmanager
def _campaign_executor(workload: Workload, n_workers: int | None,
                       retry_policy: RetryPolicy | None = None, dist=None):
    """The executor of one campaign, shared by all of its phases.

    The plane follows from the arguments (:func:`_plane`): ``dist``'s
    lease executor, else a process pool, else the serial plane.  Both
    pooled planes run under ``retry_policy`` (``None`` means
    ``RetryPolicy()``); the serial plane ignores it.  The executor is
    shut down on normal exit, on error and on ``KeyboardInterrupt``
    alike.
    """
    kind = _plane(n_workers, dist)
    if kind == "dist":
        # worker count is per-node (each node announces its own)
        pool = dist.executor(workload, retry_policy)
    elif kind == "serial":
        pool = SerialExecutor(initializer=_init_worker_direct,
                              initargs=(workload,))
    else:
        pool = ProcessPoolCampaignExecutor(
            _init_worker_direct, (workload,), n_workers, retry_policy,
            pool_factory=partial(_process_pool, workload, n_workers))
    try:
        yield pool
    finally:
        pool.shutdown()


def _metered(histogram: str, t0: float, counts: dict[str, int]) -> None:
    """Record one task's latency, counters and the process's peak RSS."""
    _metrics.observe(histogram, time.perf_counter() - t0)
    for name, value in counts.items():
        _metrics.inc(name, value)
    peak = rss_peak_kb()
    if peak is not None:
        _metrics.set_gauge("rss.peak_kb", peak)


def _task_outcomes(flat_chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase A task: outcomes + injected errors of one experiment chunk."""
    wl, rep = _worker_state()
    t0 = time.perf_counter()
    space = SampleSpace.of_program(wl.program)
    instrs, bits = space.instructions_of(flat_chunk)
    outcomes, injected = rep.replay_outcomes(instrs, bits, wl.comparator)
    if _metrics.METRICS.enabled:
        _metered("phase_a.chunk_seconds", t0,
                 {"experiments.completed": len(flat_chunk)})
    return outcomes, injected


def _task_aggregate(
    args: tuple[np.ndarray, np.ndarray | None, float],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Phase B task: stream one masked-experiment chunk into Algorithm 1."""
    flat_chunk, caps, rel_info_threshold = args
    wl, rep = _worker_state()
    t0 = time.perf_counter()
    space = SampleSpace.of_program(wl.program)
    agg = ThresholdAggregator(wl.trace, caps=caps,
                              rel_info_threshold=rel_info_threshold)
    instrs, bits = space.instructions_of(flat_chunk)
    rep.replay(instrs, bits, sink=agg)
    if _metrics.METRICS.enabled:
        _metered("phase_b.chunk_seconds", t0,
                 {"experiments.aggregated": len(flat_chunk)})
    return agg.delta_e, agg.info, len(flat_chunk)


def _task_round(
    args: tuple[np.ndarray, float],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
    """Adaptive round task: phase A of one experiment chunk, and its
    masked experiments streamed into an unfiltered Algorithm 1 partial,
    from one replay per experiment (``replay_round``).

    Returns ``(outcomes, injected_errors, delta_e, info, n_masked)``.
    """
    flat_chunk, rel_info_threshold = args
    wl, rep = _worker_state()
    t0 = time.perf_counter()
    space = SampleSpace.of_program(wl.program)
    guide = ThresholdAggregator(wl.trace,
                                rel_info_threshold=rel_info_threshold)
    instrs, bits = space.instructions_of(flat_chunk)
    outcomes, injected = rep.replay_round(instrs, bits, wl.comparator,
                                          guide)
    n_masked = int(np.count_nonzero(outcomes == int(Outcome.MASKED)))
    if _metrics.METRICS.enabled:
        _metered("phase_a.chunk_seconds", t0,
                 {"experiments.completed": len(flat_chunk),
                  "experiments.aggregated": n_masked})
    return outcomes, injected, guide.delta_e, guide.info, n_masked


def _chunk_flats(workload: Workload, flat: np.ndarray,
                 batch_budget: int,
                 n_workers: int | None = None) -> list[np.ndarray]:
    """Sort experiments by site and cut into replayer-sized chunks.

    Sorting groups adjacent sites so each chunk's replay sweep starts as
    late as possible; the chunk size respects the batch memory budget.
    ``n_workers`` additionally shrinks chunks so a pool can load-balance
    (:func:`~repro.parallel.partition.chunk_for_workers`).  Chunk layout
    never affects campaign results (merges are commutative over the
    sorted order), but callers resuming from a checkpoint must not pass
    it — checkpoints pin the layout they were written with.
    """
    flat = np.sort(np.asarray(flat, dtype=np.int64))
    n_rows = len(workload.program)
    lanes = lanes_for_budget(n_rows, workload.program.dtype.itemsize,
                             batch_budget, n_experiments=int(flat.size))
    return chunk_for_workers(flat, lanes, n_workers)


# --------------------------------------------------------------------------
# Unified result hierarchy
# --------------------------------------------------------------------------


@dataclass
class CampaignResult:
    """Common shape of every campaign outcome.

    Mode-specific subclasses add their payload (sampled outcomes, inferred
    boundary, exhaustive grids); this base carries what every campaign
    shares, so callers can stop pattern-matching on per-driver shapes.
    """

    #: resilience record of the run (None for failure-free serial runs)
    health: CampaignHealth | None = field(default=None, kw_only=True,
                                          repr=False, compare=False)
    #: checkpoint directory the campaign persisted into, when checkpointed
    checkpoint_path: Path | None = field(default=None, kw_only=True,
                                         compare=False)
    #: metrics snapshot of the run (``CampaignConfig.metrics``), fleet-wide
    #: for pool campaigns; None while metrics are disabled
    metrics: dict | None = field(default=None, kw_only=True, repr=False,
                                 compare=False)

    # Uniform accessors; subclasses override the ones they carry.
    sampled: SampledResult | None = None
    boundary: FaultToleranceBoundary | None = None
    exhaustive: ExhaustiveResult | None = None


@dataclass
class ExhaustiveCampaignResult(CampaignResult):
    """``mode="exhaustive"``: full ground-truth grids."""

    exhaustive: ExhaustiveResult | None = None


@dataclass
class SampleCampaignResult(CampaignResult):
    """``mode="sample"``: phase-A outcomes of an explicit experiment set."""

    sampled: SampledResult | None = None


@dataclass
class MonteCarloCampaignResult(CampaignResult):
    """``mode="monte_carlo"``: uniform sample plus inferred boundary."""

    sampled: SampledResult | None = None
    boundary: FaultToleranceBoundary | None = None


@dataclass
class AdaptiveResult(CampaignResult):
    """Outcome of a §3.4 progressive campaign (``mode="adaptive"``)."""

    sampled: SampledResult | None = None  #: union of all rounds' experiments
    boundary: FaultToleranceBoundary | None = None  #: final filtered boundary
    rounds: int = 0
    round_history: list[dict] = field(default_factory=list)

    @property
    def sampling_rate(self) -> float:
        return self.sampled.sampling_rate


# --------------------------------------------------------------------------
# Campaign configuration
# --------------------------------------------------------------------------


@dataclass
class CampaignConfig:
    """Everything :func:`run_campaign` needs beyond the workload.

    Attributes
    ----------
    mode:
        One of ``exhaustive`` / ``sample`` / ``monte_carlo`` / ``adaptive``.
    n_workers:
        Worker count; ``None``/``0``/``1`` runs serially.  More than one
        runs one process pool for the whole campaign, whose workers
        start by ``fork`` and inherit the workload when this process
        runs one thread, and otherwise start from a ``forkserver`` and
        unpickle it.
    dist:
        A :class:`~repro.dist.DistPlane`: the campaign leases its chunks
        to the plane's worker nodes instead (``n_workers`` then only
        sizes the chunks).  Owned by the caller (CLI / job service),
        which also closes it.  The plane never affects results — every
        plane is bit-identical to serial.
    batch_budget:
        Byte budget that sizes replay batches: each lane costs its
        value-matrix column plus 8 bytes per row (deviations stream in
        256 KiB blocks, so the 8 bytes over-count; see
        :func:`~repro.engine.batch.lanes_for_budget`).
    progress:
        Object with ``update(done, total)`` / ``finish()``, or a bare
        callable ``fn(done, total, phase)`` (wrapped in
        :class:`~repro.parallel.progress.CallbackProgress`); ``None`` is
        silent.  Every mode reports through it — sampling modes stream
        phase A then phase B, adaptive streams each round.  An exception
        raised from the hook aborts the campaign (the job service's
        cancellation seam).
    retry_policy / checkpoint:
        Fault-tolerance hooks (see the module docstring).
    experiments:
        Flat experiment indices, required for ``mode="sample"``.
    sampling_rate:
        Fraction of the (site, bit) space, required for
        ``mode="monte_carlo"``.
    rng / seed:
        Random source for the sampling modes; an explicit ``rng`` wins,
        else ``default_rng(seed)``.
    progressive:
        :class:`~repro.core.sampling.ProgressiveConfig` for
        ``mode="adaptive"`` (defaults apply when ``None``).
    use_filter / exact_rule / rel_info_threshold:
        Phase-B inference settings (§3.5 filter, §4.4 exact rule).
    metrics:
        Enable the metrics registry for the duration of the campaign and
        attach the run's fleet-wide snapshot to the result.
    trace_sink:
        Optional span sink (``emit(record)`` or callable) attached to the
        global tracer for the duration of the campaign.
    """

    mode: str = "monte_carlo"
    # execution
    n_workers: int | None = None
    dist: Any = None
    batch_budget: int = DEFAULT_BATCH_BUDGET
    progress: Any = None
    retry_policy: RetryPolicy | None = None
    checkpoint: CampaignCheckpoint | None = None
    # experiment selection
    experiments: np.ndarray | None = None
    sampling_rate: float | None = None
    rng: np.random.Generator | None = None
    seed: int = 0
    progressive: ProgressiveConfig | None = None
    #: :class:`~repro.compose.ComposeConfig` (or kwargs dict) for
    #: ``mode="compositional"`` (defaults apply when ``None``)
    compose: Any = None
    # phase-B inference
    use_filter: bool = True
    exact_rule: bool = True
    rel_info_threshold: float = 1e-8
    # observability
    metrics: bool = False
    trace_sink: Any = None

    def __post_init__(self) -> None:
        if self.mode not in CAMPAIGN_MODES:
            raise ValueError(
                f"unknown campaign mode {self.mode!r}; "
                f"expected one of {CAMPAIGN_MODES}")
        if self.batch_budget <= 0:
            raise ValueError("batch_budget must be positive")

    def resolve_rng(self) -> np.random.Generator:
        """The campaign's random source (explicit ``rng`` wins over seed)."""
        return self.rng if self.rng is not None \
            else np.random.default_rng(self.seed)


# --------------------------------------------------------------------------
# Campaign implementations (private; dispatched by run_campaign, which
# opens the campaign's executor once and hands it to every phase)
# --------------------------------------------------------------------------


def _experiments_impl(
    workload: Workload,
    flat: np.ndarray,
    pool,
    n_workers: int | None = None,
    batch_budget: int = DEFAULT_BATCH_BUDGET,
    progress=None,
    checkpoint: CampaignCheckpoint | None = None,
    guide: ThresholdAggregator | None = None,
) -> SampledResult:
    """Phase A: classify an arbitrary set of experiments.

    Results stream from ``pool`` in completion order (chunk merges are
    commutative and phase-A chunks re-sort by index afterwards), so
    ``progress`` advances chunk by chunk for pool runs too.  With a
    ``checkpoint``, completed chunks persist as they finish and a resumed
    call re-runs only the missing ones; checkpoints also pin the chunk
    layout, so worker-aware chunking is disabled for checkpointed runs.

    With a ``guide`` the call is a §3.4 round: its chunks run as
    :func:`_task_round`, whose one replay per experiment also streams
    the chunk's masked experiments into an unfiltered Algorithm 1
    partial, merged into ``guide`` by max and sum.  Rounds checkpoint
    whole, so a guided call takes no ``checkpoint``.
    """
    space = SampleSpace.of_program(workload.program)
    flat = np.asarray(flat, dtype=np.int64)
    if flat.size == 0:
        raise ValueError("no experiments requested")
    progress = as_progress(progress)

    pinned = checkpoint is not None
    chunks = _chunk_flats(workload, flat, batch_budget,
                          n_workers=None if pinned else n_workers)
    results: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    phase = None
    if checkpoint is not None:
        phase = checkpoint.phase_a(chunks)
        results.update(phase.completed())

    pending = [i for i in range(len(chunks)) if i not in results]
    done = sum(len(res[0]) for res in results.values())
    with span("campaign.phase_a", n_experiments=int(flat.size),
              n_chunks=len(chunks), n_resumed_chunks=len(results)):
        try:
            if done:
                progress.update(done, flat.size)
            if pending:
                if guide is None:
                    stream = pool.run_stream(_task_outcomes,
                                             [chunks[i] for i in pending])
                else:
                    stream = pool.run_stream(_task_round, [
                        (chunks[i], guide.rel_info_threshold)
                        for i in pending])
                for j, (outcomes, injected, *partial) in stream:
                    index = pending[j]
                    results[index] = outcomes, injected
                    if partial:
                        guide.merge_partial(*partial)
                    if phase is not None:
                        phase.record(index, outcomes, injected)
                    done += len(outcomes)
                    progress.update(done, flat.size)
        finally:
            progress.finish()

    ordered = [results[i] for i in range(len(chunks))]
    sorted_flat = np.sort(flat)
    outcomes = np.concatenate([r[0] for r in ordered])
    inj = np.concatenate([r[1] for r in ordered])
    return SampledResult(space=space, flat=sorted_flat, outcomes=outcomes,
                         injected_errors=inj,
                         health=getattr(pool, "health", None))


def infer_boundary(
    workload: Workload,
    sampled: SampledResult,
    use_filter: bool = True,
    exact_rule: bool = True,
    rel_info_threshold: float = 1e-8,
    n_workers: int | None = None,
    batch_budget: int = DEFAULT_BATCH_BUDGET,
    progress=None,
    retry_policy: RetryPolicy | None = None,
    checkpoint: CampaignCheckpoint | None = None,
    pool=None,
) -> FaultToleranceBoundary:
    """Phase B: build the Algorithm 1 boundary from a sampled campaign.

    Masked experiments are replayed with the deviation stream feeding
    :class:`~repro.core.inference.ThresholdAggregator`; SDC/crash evidence
    from phase A supplies the §3.5 filter caps when ``use_filter`` is on;
    fully sampled sites take their exact §4.1 thresholds when
    ``exact_rule`` is on (§4.4).

    The replays run on ``pool`` when given (a campaign's executor), else
    on an executor opened from ``n_workers`` / ``retry_policy`` for this
    call.  Aggregator partials merge by per-instruction max (``delta_e``)
    and sum (``info``) — commutative and associative — so results stream
    in completion order and, with a ``checkpoint``, each absorbed chunk
    appends its own partial to the phase's ``b-<tag>.log``; a resumed call
    merges those records and replays only the chunks they lack.
    """
    progress = as_progress(progress)
    caps_instr = _filter_caps(workload, sampled) if use_filter else None

    masked_flat = sampled.flat[sampled.masked_mask]
    delta_e = np.zeros(len(workload.program))
    info = np.zeros(len(workload.program), dtype=np.int64)
    health: CampaignHealth | None = None

    with span("campaign.phase_b", n_masked=int(masked_flat.size),
              use_filter=use_filter, exact_rule=exact_rule):
        if masked_flat.size:
            pinned = checkpoint is not None
            chunks = _chunk_flats(workload, masked_flat, batch_budget,
                                  n_workers=None if pinned else n_workers)
            phase = None
            done = 0
            pending = list(range(len(chunks)))
            if checkpoint is not None:
                phase = checkpoint.phase_b(chunks, caps_instr,
                                           rel_info_threshold,
                                           len(workload.program))
                delta_e, info = phase.delta_e, phase.info
                done = phase.n_done
                pending = [i for i in range(len(chunks)) if not phase.done[i]]
            tasks = [(chunks[i], caps_instr, rel_info_threshold)
                     for i in pending]
            try:
                if done:
                    progress.update(done, masked_flat.size)
                if pending:
                    with (nullcontext(pool) if pool is not None else
                          _campaign_executor(workload, n_workers,
                                             retry_policy)
                          ) as run_on:
                        try:
                            for j, (d, i, k) in run_on.run_stream(
                                    _task_aggregate, tasks):
                                if phase is not None:
                                    phase.record(pending[j], d, i, k)
                                else:
                                    np.maximum(delta_e, d, out=delta_e)
                                    info += i
                                done += k
                                progress.update(done, masked_flat.size)
                        finally:
                            health = getattr(run_on, "health", None)
            finally:
                progress.finish()
    return _site_boundary(sampled, delta_e, info, exact_rule, health)


def _filter_caps(workload: Workload, sampled: SampledResult) -> np.ndarray:
    """The §3.5 filter's per-instruction caps: each site's smallest
    non-masked injected error in ``sampled``, ``+inf`` on every other row."""
    caps = np.full(len(workload.program), np.inf)
    caps[sampled.space.site_indices] = sampled.min_sdc_error_per_site()
    return caps


def _site_boundary(sampled: SampledResult, delta_e: np.ndarray,
                   info: np.ndarray, exact_rule: bool,
                   health: CampaignHealth | None) -> FaultToleranceBoundary:
    """The boundary of per-instruction Algorithm 1 results at the sites,
    with the §4.4 exact rule applied when ``exact_rule`` is on."""
    space = sampled.space
    boundary = FaultToleranceBoundary(
        space=space,
        thresholds=delta_e[space.site_indices],
        info=info[space.site_indices],
        health=health,
    )
    if exact_rule:
        full_pos, exact_thresholds = exact_site_thresholds(sampled)
        boundary.thresholds[full_pos] = exact_thresholds
        boundary.exact[full_pos] = True
    return boundary


def _infer(workload: Workload, sampled: SampledResult, cfg: CampaignConfig,
           pool) -> FaultToleranceBoundary:
    """Phase B of a sampling campaign, on the campaign's executor."""
    return infer_boundary(workload, sampled, use_filter=cfg.use_filter,
                          exact_rule=cfg.exact_rule,
                          rel_info_threshold=cfg.rel_info_threshold,
                          n_workers=cfg.n_workers,
                          batch_budget=cfg.batch_budget,
                          progress=cfg.progress, checkpoint=cfg.checkpoint,
                          pool=pool)


def _run_exhaustive(workload: Workload, cfg: CampaignConfig,
                    pool) -> CampaignResult:
    """Run every (site, bit) experiment — the §4.1 ground-truth campaign."""
    space = SampleSpace.of_program(workload.program)
    sampled = _experiments_impl(workload,
                                np.arange(space.size, dtype=np.int64), pool,
                                n_workers=cfg.n_workers,
                                batch_budget=cfg.batch_budget,
                                progress=cfg.progress,
                                checkpoint=cfg.checkpoint)
    pos, bit = space.decode(sampled.flat)
    outcomes = np.empty((space.n_sites, space.bits), dtype=np.uint8)
    inj = np.empty((space.n_sites, space.bits), dtype=np.float64)
    outcomes[pos, bit] = sampled.outcomes
    inj[pos, bit] = sampled.injected_errors
    return ExhaustiveCampaignResult(exhaustive=ExhaustiveResult(
        space=space, outcomes=outcomes, injected_errors=inj,
        health=sampled.health))


def _run_sample(workload: Workload, cfg: CampaignConfig,
                pool) -> CampaignResult:
    if cfg.experiments is None:
        raise ValueError('mode="sample" needs CampaignConfig.experiments '
                         "(flat indices of the experiments to run)")
    return SampleCampaignResult(sampled=_experiments_impl(
        workload, cfg.experiments, pool, n_workers=cfg.n_workers,
        batch_budget=cfg.batch_budget, progress=cfg.progress,
        checkpoint=cfg.checkpoint))


def _run_monte_carlo(workload: Workload, cfg: CampaignConfig,
                     pool) -> CampaignResult:
    """Uniform-sampling campaign (§4.2): sample, run, infer.

    ``sampling_rate`` is the fraction of the full (site, bit) space.  The
    draw is a pure function of the rng's state, so re-running with the
    same seed and a ``checkpoint`` resumes both phases exactly.
    ``progress`` sees phase A first, then (after a ``finish``) phase B.
    """
    rate = cfg.sampling_rate
    if rate is None or not 0 < rate <= 1:
        raise ValueError('mode="monte_carlo" needs '
                         "CampaignConfig.sampling_rate in (0, 1]")
    space = SampleSpace.of_program(workload.program)
    n_samples = max(1, int(round(rate * space.size)))
    flat = uniform_sample(space, n_samples, cfg.resolve_rng())
    sampled = _experiments_impl(workload, flat, pool,
                                n_workers=cfg.n_workers,
                                batch_budget=cfg.batch_budget,
                                progress=cfg.progress,
                                checkpoint=cfg.checkpoint)
    return MonteCarloCampaignResult(
        sampled=sampled, boundary=_infer(workload, sampled, cfg, pool))


def _progressive_rounds(workload: Workload, cfg: CampaignConfig, pool,
                        sampler: ProgressiveSampler,
                        guide: ThresholdAggregator,
                        total: SampledResult | None, history: list[dict],
                        on_round=None) -> SampledResult | None:
    """The §3.4 round loop of the adaptive and combined drivers.

    Until ``sampler`` stops, each round draws its experiments, biased by
    the guide's information counts and, once the guide has seen
    experiments (``total``), minus its predicted-masked ones; runs them,
    extending the guide from the same replays (:func:`_experiments_impl`
    with ``guide``); and appends its entry to ``history``.
    ``on_round(round_res)`` sees every completed round.  Returns
    ``total`` grown by the rounds.
    """
    space = sampler.space
    predictor = BoundaryPredictor(workload.trace)
    while not sampler.should_stop():
        with span("campaign.adaptive.round", round=sampler.rounds_run + 1):
            guide_boundary = guide.boundary(space)
            pred_flat = (None if total is None else
                         predictor.predict_masked(guide_boundary).ravel())
            chosen = sampler.select_round(guide_boundary.info, pred_flat)
            if chosen.size == 0:
                break
            round_res = _experiments_impl(
                workload, chosen, pool, n_workers=cfg.n_workers,
                batch_budget=cfg.batch_budget, progress=cfg.progress,
                guide=guide)
            sampler.record_round(round_res.outcomes)
            total = (round_res if total is None
                     else total.merged_with(round_res))
            history.append({
                "round": sampler.rounds_run,
                "n_samples": int(chosen.size),
                "masked_fraction": float(np.mean(
                    round_res.outcomes == int(Outcome.MASKED))),
                "total_samples": sampler.n_sampled,
            })
            if on_round is not None:
                on_round(round_res)
    return total


def _final_boundary(workload: Workload, sampled: SampledResult,
                    guide: ThresholdAggregator, cfg: CampaignConfig,
                    pool) -> FaultToleranceBoundary:
    """The boundary of a §3.4 campaign: its guide's, unless the §3.5
    filter contests a row.

    The guide merged every masked experiment of ``sampled``, by max and
    sum, from the per-lane deviations phase B would replay; ``info``
    never reads the caps; and where the guide's ``delta_e`` is at most
    its cap, so is every deviation, and the filter drops nothing.  So
    with the filter off, or no row with ``guide.delta_e > caps``, the
    guide is phase B's aggregate and nothing is replayed.  Otherwise
    :func:`infer_boundary` replays the masked set under the caps
    (checkpointed like any phase B).  Either way progress sees one
    finished phase and tracing one ``campaign.phase_b`` span.
    """
    caps = _filter_caps(workload, sampled) if cfg.use_filter else None
    if caps is not None and np.any(guide.delta_e > caps):
        return _infer(workload, sampled, cfg, pool)
    n_masked = int(np.count_nonzero(sampled.masked_mask))
    progress = as_progress(cfg.progress)
    with span("campaign.phase_b", n_masked=n_masked,
              use_filter=cfg.use_filter, exact_rule=cfg.exact_rule,
              from_guide=True):
        if n_masked:
            try:
                progress.update(n_masked, n_masked)
            finally:
                progress.finish()
    return _site_boundary(sampled, guide.delta_e, guide.info,
                          cfg.exact_rule, getattr(pool, "health", None))


def _rebuild_guide(workload: Workload, sampled: SampledResult,
                   cfg: CampaignConfig, pool,
                   guide: ThresholdAggregator) -> None:
    """Merge the masked experiments of restored rounds into ``guide``:
    unfiltered phase-B tasks on the campaign's executor."""
    masked = sampled.flat[sampled.masked_mask]
    if not masked.size:
        return
    chunks = _chunk_flats(workload, masked, cfg.batch_budget, cfg.n_workers)
    tasks = [(chunk, None, guide.rel_info_threshold) for chunk in chunks]
    with span("campaign.adaptive.rebuild", n_masked=int(masked.size)):
        for _, partial in pool.run_stream(_task_aggregate, tasks):
            guide.merge_partial(*partial)


def _run_adaptive(workload: Workload, cfg: CampaignConfig,
                  pool) -> CampaignResult:
    """Progressive adaptive-sampling campaign (§3.4).

    Each round draws biased samples (``p_i ∝ 1/S_i``) from the candidate
    space minus the current guide's predicted-masked experiments, and
    runs them with one replay per experiment that both classifies them
    and extends the guide, an *incremental, unfiltered* Algorithm 1
    aggregate (:func:`_progressive_rounds`).  The returned boundary is
    the guide's unless the §3.5 filter, whose caps need all of the
    sample's SDC evidence at once, contests a row; then phase B replays
    the masked sample under the caps (:func:`_final_boundary`).

    With a ``checkpoint``, every round appends one record: its new samples,
    its history entry and the generator state after its draw.  A resumed
    call rebuilds the sample and the sampler mask from the recorded rounds,
    restores the generator (the rng's state is overwritten by the stored
    one) and rebuilds the guide on the campaign's executor by replaying
    the recorded masked samples — exact, since the guide merges by max and
    sum — so it continues with exactly the rounds the uninterrupted run
    would have drawn, and ends with the same boundary.  A contested final
    inference also checkpoints per chunk.
    """
    rng = cfg.resolve_rng()
    checkpoint = cfg.checkpoint
    space = SampleSpace.of_program(workload.program)
    sampler = ProgressiveSampler(space, cfg.progressive or ProgressiveConfig(),
                                 rng)
    guide = ThresholdAggregator(workload.trace,
                                rel_info_threshold=cfg.rel_info_threshold)
    total: SampledResult | None = None
    history: list[dict] = []

    rounds = (checkpoint.load_adaptive_round() if checkpoint is not None
              else [])
    if rounds:
        total = SampledResult(space=space, **{
            key: np.concatenate([arrays[key] for _, arrays in rounds])
            for key in ("flat", "outcomes", "injected_errors")})
        sampler.sampled[total.flat] = True
        sampler.rounds_run = len(rounds)
        last = rounds[-1][0]
        sampler._last_round_masked_fraction = last["last_masked_fraction"]
        rng.bit_generator.state = last["rng_state"]
        history = [state["history"] for state, _ in rounds]
        _rebuild_guide(workload, total, cfg, pool, guide)

    def save(round_res: SampledResult) -> None:
        checkpoint.save_adaptive_round(
            {"round": sampler.rounds_run,
             "history": history[-1],
             "last_masked_fraction": sampler._last_round_masked_fraction,
             "rng_state": rng.bit_generator.state},
            flat=round_res.flat,
            outcomes=round_res.outcomes,
            injected_errors=round_res.injected_errors)

    total = _progressive_rounds(workload, cfg, pool, sampler, guide, total,
                                history,
                                on_round=None if checkpoint is None else save)
    if total is None:
        raise RuntimeError("adaptive campaign selected no experiments")
    return AdaptiveResult(
        sampled=total, boundary=_final_boundary(workload, total, guide, cfg,
                                                pool),
        rounds=sampler.rounds_run, round_history=history)


def _run_compositional(workload: Workload, cfg: CampaignConfig,
                       pool) -> CampaignResult:
    # Imported lazily: repro.compose builds on this module.
    from ..compose.run import run_compositional
    return run_compositional(workload, cfg, pool)


_DISPATCH = {
    "exhaustive": _run_exhaustive,
    "sample": _run_sample,
    "monte_carlo": _run_monte_carlo,
    "adaptive": _run_adaptive,
    "compositional": _run_compositional,
}


def _check_cfg_config(workload: Workload, config: CampaignConfig) -> None:
    """Reject ``mode="compositional"`` for CFG workloads (fail fast).

    Sectioned replay is straight-line-only, so this raises before any
    pool or checkpoint is set up.
    """
    if _is_cfg_workload(workload) and config.mode == "compositional":
        raise ValueError(
            'mode="compositional" requires sectioned straight-line replay; '
            "CFG workloads cannot be sectioned (run another mode, or "
            "compose on the straight-line program before lowering)")


def _check_dist_config(config: CampaignConfig) -> None:
    """Reject ``mode="compositional"`` on a distributed plane (fail fast).

    Nodes run only phase-A, phase-B and round tasks, so a section task would
    fail after the campaign had started.
    """
    if config.dist is not None and config.mode == "compositional":
        raise ValueError(
            'mode="compositional" cannot run on the distributed plane, '
            "whose nodes run only phase-A, phase-B and round tasks (run it "
            "without CampaignConfig.dist)")


def run_campaign(workload: Workload,
                 config: CampaignConfig | None = None,
                 **overrides) -> CampaignResult:
    """Run one fault-injection campaign described by a config.

    The single entry point for all campaign styles; see
    :class:`CampaignConfig` for the knobs and the module docstring for the
    modes.  Keyword overrides are applied on top of ``config`` (or build a
    fresh config when none is given)::

        result = run_campaign(wl, mode="monte_carlo", sampling_rate=0.01)
        result.boundary        # same fields on every mode's result
        result.health
        result.metrics         # populated when metrics=True

    The campaign's executor is opened once, here: every phase, adaptive
    round and compositional section runs on it, and ``result.health`` is
    its record.

    With ``config.metrics`` on, the global metrics registry is enabled for
    the duration of the run and the campaign's own contribution (fleet-wide
    across pool workers) is attached as ``result.metrics``; with a
    ``config.trace_sink``, tracing spans of the run stream into it.
    Neither alters campaign numerics.
    """
    if config is None:
        config = CampaignConfig(**overrides)
    elif overrides:
        config = replace(config, **overrides)
    # one progress object for all phases: a callback's phase counter
    # advances across them
    config = replace(config, progress=as_progress(config.progress))

    metrics_before = None
    metrics_was_enabled = False
    if config.metrics:
        metrics_was_enabled = _metrics.METRICS.enabled
        _metrics.METRICS.enabled = True
        metrics_before = _metrics.METRICS.snapshot()
    tracer_was_enabled = TRACER.enabled
    if config.trace_sink is not None:
        TRACER.add_sink(config.trace_sink)
        TRACER.enabled = True

    try:
        _check_cfg_config(workload, config)
        _check_dist_config(config)
        with span(f"campaign.{config.mode}", mode=config.mode,
                  kernel=workload.name or "unnamed",
                  n_workers=config.n_workers or 1,
                  executor=_plane(config.n_workers, config.dist)), \
                _campaign_executor(workload, config.n_workers,
                                   config.retry_policy,
                                   config.dist) as pool:
            result = _DISPATCH[config.mode](workload, config, pool)
            result.health = getattr(pool, "health", None)
    finally:
        if config.trace_sink is not None:
            TRACER.remove_sink(config.trace_sink)
            TRACER.enabled = tracer_was_enabled
        if config.metrics:
            peak = rss_peak_kb()
            if peak is not None:
                _metrics.set_gauge("rss.peak_kb", peak)
            metrics_after = _metrics.METRICS.snapshot()
            _metrics.METRICS.enabled = metrics_was_enabled

    if config.metrics:
        result.metrics = _metrics.snapshot_delta(metrics_before,
                                                 metrics_after)
    if config.checkpoint is not None:
        result.checkpoint_path = Path(config.checkpoint.directory)
    return result

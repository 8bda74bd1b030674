"""The compositional campaign driver (``run_campaign(mode="compositional")``).

Sections the workload's tape, campaigns each section in isolation (the
tasks fan out across the campaign's executor, as in every other
campaign mode), distills each into a
:class:`~repro.compose.summary.SectionSummary`, and composes the
summaries back-to-front into a whole-program boundary.

With a cache directory, summaries persist content-addressed: a re-run
after editing one section re-campaigns *only* that section (and any
section whose golden live-in values the edit changed — the content key
notices), everything else is a ``compose.cache.hit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import campaign as _campaign
from ..core.boundary import FaultToleranceBoundary
from ..core.campaign import CampaignConfig, CampaignResult
from ..core.experiment import SampleSpace
from ..kernels.workload import Workload
from ..obs.trace import span
from ..parallel.progress import as_progress
from .cache import SummaryCache
from .compose import compose_summaries
from .sections import (
    DEFAULT_MAX_SECTIONS,
    Section,
    default_cuts,
    partition,
)
from .summary import (
    SectionSummary,
    probe_grid,
    section_key,
    summarize_section,
    summary_arrays,
    summary_from_arrays,
)

__all__ = ["ComposeConfig", "CompositionalCampaignResult",
           "run_compositional"]


@dataclass
class ComposeConfig:
    """Sectioning / probing / caching knobs of a compositional campaign.

    Attributes
    ----------
    cuts:
        Explicit interior cut indices; overrides automatic sectioning.
    n_sections:
        Ask for this many live-width-guided sections (ignored when
        ``cuts`` is given).
    max_sections:
        Cap for the default region-based sectioning.
    cache_dir:
        Directory of the content-addressed summary store; ``None``
        disables persistence (every run is cold).
    use_cache:
        ``False`` ignores ``cache_dir`` entirely (the CLI's
        ``--no-cache``).
    probes_per_decade / probe_decades:
        The log-spaced ε grid of the boundary transfer profiles.
    slack:
        ≥ 1 safety factor on boundary error magnitudes before consulting
        the downstream envelope (see :func:`compose_summaries`).
    """

    cuts: list[int] | None = None
    n_sections: int | None = None
    max_sections: int = DEFAULT_MAX_SECTIONS
    cache_dir: str | None = None
    use_cache: bool = True
    probes_per_decade: int = 2
    probe_decades: tuple[int, int] = (-12, 12)
    slack: float = 1.0

    def __post_init__(self) -> None:
        if self.slack < 1.0:
            raise ValueError("slack must be >= 1.0")


@dataclass
class CompositionalCampaignResult(CampaignResult):
    """``mode="compositional"``: composed boundary + per-section record."""

    boundary: FaultToleranceBoundary | None = None
    summaries: list[SectionSummary] = field(default_factory=list)
    sections: list[Section] = field(default_factory=list)
    #: per-section prediction stats (front-to-back), see compose_summaries
    section_stats: list[dict] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    #: sections whose campaign actually ran this invocation
    n_recomputed: int = 0

    @property
    def n_sections(self) -> int:
        return len(self.sections)

    @property
    def n_experiments(self) -> int:
        return sum(s.n_experiments for s in self.summaries)


def _task_section(args: tuple) -> dict:
    """Pool task: campaign + probe one section, return its summary arrays.

    Reads the worker-side workload/replayer state the campaign
    executors initialize (:mod:`repro.core.campaign`); returns the
    flattened-array form so the payload pickles cheaply.
    """
    index, start, end, name, key, probe_eps, batch_budget = args
    wl, rep = _campaign._worker_state()
    section = Section(index=index, start=start, end=end, name=name)
    with span("compose.section", section=name, start=start, end=end):
        summary = summarize_section(wl, rep, section, probe_eps,
                                    batch_budget=batch_budget, key=key)
    return summary_arrays(summary)


def run_compositional(workload: Workload, cfg: CampaignConfig,
                      pool) -> CompositionalCampaignResult:
    """Drive one compositional campaign (see the module docstring) on
    ``pool``, the executor :func:`~repro.core.campaign.run_campaign`
    opened for it."""
    ccfg = cfg.compose
    if ccfg is None:
        ccfg = ComposeConfig()
    elif isinstance(ccfg, dict):
        ccfg = ComposeConfig(**ccfg)
    if cfg.checkpoint is not None:
        raise ValueError(
            'mode="compositional" does not take a checkpoint: the '
            "summary cache (ComposeConfig.cache_dir) is its persistence "
            "and resume mechanism")
    if cfg.sampling_rate is not None or cfg.experiments is not None:
        raise ValueError(
            'mode="compositional" campaigns each section exhaustively; '
            "sampling_rate / experiments do not apply")

    prog = workload.program
    if ccfg.cuts is not None:
        cuts = ccfg.cuts
    else:
        cuts = default_cuts(prog, n_sections=ccfg.n_sections,
                            max_sections=ccfg.max_sections)
    sections = partition(prog, cuts)
    eps = probe_grid(ccfg.probe_decades, ccfg.probes_per_decade)
    keys = [section_key(workload, s, eps, ccfg.slack) for s in sections]

    cache = None
    if ccfg.use_cache and ccfg.cache_dir is not None:
        cache = SummaryCache(ccfg.cache_dir)

    summaries: list[SectionSummary | None] = [None] * len(sections)
    pending: list[int] = []
    for i, key in enumerate(keys):
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            summaries[i] = hit
        else:
            pending.append(i)

    progress = as_progress(cfg.progress)
    done = len(sections) - len(pending)
    health = None
    try:
        if done:
            progress.update(done, len(sections))
        if pending:
            tasks = [(sections[i].index, sections[i].start, sections[i].end,
                      sections[i].name, keys[i], eps, cfg.batch_budget)
                     for i in pending]
            try:
                for j, arrays in pool.run_stream(_task_section, tasks):
                    i = pending[j]
                    summaries[i] = summary_from_arrays(arrays)
                    if cache is not None:
                        cache.put(summaries[i])
                    done += 1
                    progress.update(done, len(sections))
            finally:
                health = getattr(pool, "health", None)
    finally:
        progress.finish()

    space = SampleSpace.of_program(prog)
    with span("compose.merge", n_sections=len(sections),
              n_recomputed=len(pending)):
        boundary, section_stats = compose_summaries(
            summaries, space, workload.tolerance, slack=ccfg.slack)
    boundary.health = health
    return CompositionalCampaignResult(
        boundary=boundary,
        summaries=summaries,
        sections=sections,
        section_stats=section_stats,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else len(pending),
        n_recomputed=len(pending),
        health=health,
    )

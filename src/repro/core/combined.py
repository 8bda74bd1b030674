"""Hybrid campaign: pilot grouping seeding + adaptive boundary refinement.

Section 6 points out that the boundary method "does not conflict with the
previous heuristic approach, and the two approaches can be combined to
further reduce the number of samples".  This module implements that
combination:

1. **Seed** — run one fully-injected pilot site per static group (the
   Relyzer-like heuristic).  Pilots are cheap (few groups) and their
   masked experiments immediately contribute propagation data covering
   each group's dataflow neighbourhood.
2. **Refine** — continue with the §3.4 progressive sampler, whose
   information counts start from the seeded aggregate, so early rounds are
   biased away from everything the pilots already exercised.

The result carries the same artifacts as a ``mode="adaptive"``
:func:`repro.core.run_campaign` plus seeding bookkeeping; ``bench_combined.py`` compares it against the
plain adaptive campaign at equal stopping criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.workload import Workload
from .baselines import site_groups
from .boundary import FaultToleranceBoundary
from .campaign import (
    DEFAULT_BATCH_BUDGET,
    CampaignConfig,
    _campaign_executor,
    _experiments_impl,
    _final_boundary,
    _progressive_rounds,
)
from .experiment import SampledResult, SampleSpace
from .inference import ThresholdAggregator
from .sampling import ProgressiveConfig, ProgressiveSampler

__all__ = ["CombinedResult", "run_combined"]


@dataclass
class CombinedResult:
    """Outcome of the seeded hybrid campaign."""

    sampled: SampledResult  #: pilots + all refinement rounds
    boundary: FaultToleranceBoundary  #: final filtered boundary
    n_seed_samples: int
    n_groups: int
    rounds: int
    round_history: list[dict] = field(default_factory=list)

    @property
    def sampling_rate(self) -> float:
        return self.sampled.sampling_rate


def run_combined(
    workload: Workload,
    rng: np.random.Generator,
    config: ProgressiveConfig | None = None,
    pilots_per_group: int = 1,
    use_filter: bool = True,
    exact_rule: bool = True,
    n_workers: int | None = None,
    batch_budget: int = DEFAULT_BATCH_BUDGET,
) -> CombinedResult:
    """Run the §6 hybrid: static pilot seeding, then adaptive refinement.

    The pilots run as one round on a fixed experiment set, which seeds
    the guide; the refinement rounds and the final boundary are those of
    a ``mode="adaptive"`` campaign, on one executor for the whole run.
    """
    if pilots_per_group < 1:
        raise ValueError("need at least one pilot per group")
    cfg = CampaignConfig(mode="adaptive", n_workers=n_workers,
                         batch_budget=batch_budget, use_filter=use_filter,
                         exact_rule=exact_rule, progressive=config)
    space = SampleSpace.of_program(workload.program)
    groups = site_groups(workload)
    n_groups = int(groups.max()) + 1

    # ---- seed phase: one (or more) fully-injected pilots per group
    seed_flats = []
    for g in range(n_groups):
        members = np.flatnonzero(groups == g)
        take = min(pilots_per_group, members.size)
        for site_pos in rng.choice(members, size=take, replace=False):
            seed_flats.append(space.encode(np.full(space.bits, site_pos),
                                           np.arange(space.bits)))
    seed_flat = np.unique(np.concatenate(seed_flats))
    guide = ThresholdAggregator(workload.trace,
                                rel_info_threshold=cfg.rel_info_threshold)
    sampler = ProgressiveSampler(space, config or ProgressiveConfig(), rng)
    history: list[dict] = []
    with _campaign_executor(workload, n_workers) as pool:
        total = _experiments_impl(workload, seed_flat, pool,
                                  n_workers=n_workers,
                                  batch_budget=batch_budget, guide=guide)
        sampler.sampled[total.flat] = True
        # ---- refinement phase: §3.4 rounds starting from the seeded guide
        total = _progressive_rounds(workload, cfg, pool, sampler, guide,
                                    total, history)
        boundary = _final_boundary(workload, total, guide, cfg, pool)
    return CombinedResult(
        sampled=total,
        boundary=boundary,
        n_seed_samples=int(seed_flat.size),
        n_groups=n_groups,
        rounds=sampler.rounds_run,
        round_history=history,
    )

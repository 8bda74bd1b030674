"""Fixed-budget scaling experiments (§4.6, Table 4).

The paper's scalability claim: as the input grows, a *fixed* number of
sampled experiments (1000) still yields a high-precision boundary, because
a larger fraction of the execution consists of instructions that errors
propagate through frequently.  These helpers run the fixed-budget campaign
against ground truth for a set of workload sizes and collect the Table 4
columns (SDC ratio, predicted SDC, precision, uncertainty, recall, space
size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.campaign import (
    _campaign_executor,
    _experiments_impl,
    infer_boundary,
)
from ..core.experiment import ExhaustiveResult, SampleSpace
from ..core.metrics import PredictionQuality, evaluate_boundary
from ..core.prediction import BoundaryPredictor
from ..core.sampling import uniform_sample
from ..kernels.workload import Workload

__all__ = ["FixedBudgetTrial", "fixed_budget_trial", "fixed_budget_trials"]


@dataclass(frozen=True)
class FixedBudgetTrial:
    """One fixed-budget campaign's scorecard (one Table 4 cell set)."""

    quality: PredictionQuality
    n_samples: int
    space_size: int

    @property
    def sampling_rate(self) -> float:
        return self.n_samples / self.space_size


def fixed_budget_trial(
    workload: Workload,
    golden: ExhaustiveResult,
    n_samples: int,
    rng: np.random.Generator,
    use_filter: bool = True,
    n_workers: int | None = None,
) -> FixedBudgetTrial:
    """Run one ``n_samples``-budget campaign and score it against truth."""
    space = SampleSpace.of_program(workload.program)
    if n_samples > space.size:
        raise ValueError("budget exceeds the sample space")
    flat = uniform_sample(space, n_samples, rng)
    with _campaign_executor(workload, n_workers) as pool:
        sampled = _experiments_impl(workload, flat, pool,
                                    n_workers=n_workers)
        boundary = infer_boundary(workload, sampled, use_filter=use_filter,
                                  n_workers=n_workers, pool=pool)
    predictor = BoundaryPredictor(workload.trace)
    quality = evaluate_boundary(predictor, boundary, golden, sampled)
    return FixedBudgetTrial(quality=quality, n_samples=n_samples,
                            space_size=space.size)


def fixed_budget_trials(
    workload: Workload,
    golden: ExhaustiveResult,
    n_samples: int,
    rngs: list[np.random.Generator],
    use_filter: bool = True,
    n_workers: int | None = None,
) -> list[FixedBudgetTrial]:
    """Repeated fixed-budget trials (Table 4 reports mean ± std over 10)."""
    return [
        fixed_budget_trial(workload, golden, n_samples, rng,
                           use_filter=use_filter, n_workers=n_workers)
        for rng in rngs
    ]

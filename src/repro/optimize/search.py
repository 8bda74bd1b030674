"""Search-driven protection synthesis: beam + evolutionary placement search.

Given a :class:`~repro.optimize.costmodel.CostModel` and an
:class:`~repro.optimize.evaluate.EnvelopeEvaluator`, this module searches
the space of *placement vectors* (one protection mode per fault site) for
the cost/residual-SDC Pareto front.  The pipeline:

1. **Seeds** — the greedy :func:`~repro.core.protection.plan_by_target` /
   :func:`~repro.core.protection.plan_by_budget` plans (duplication-only,
   per-site-contribution ranked) re-expressed in every available mode,
   plus the empty and all-protected corners.  The greedy baseline is
   always a member of the evaluated archive, so the returned front
   dominates it by construction.
2. **Beam search** — each beam member expands into its most
   cost-efficient single-site upgrades (residual reduction per unit
   cost), plus one aggressive child applying all of them; the best
   ``beam_width`` candidates under the config's scalarized objective
   survive.  Deterministic, derivative-free local improvement.
3. **Evolutionary loop** — tournament selection under randomly weighted
   cost/residual scalarizations (the classic multi-objective trick),
   site-set splice crossover (a contiguous slice of one parent's
   placement grafted onto the other), and flip/mode-swap mutation.
   Elites are drawn from the running Pareto front each generation.

Every candidate is scored by the evaluator's O(n_sites) gather — never
by re-campaigning — so populations of thousands are cheap.  The loop
checkpoints per generation (:class:`SearchCheckpoint`, atomic, content
keyed, RNG state included) so a SIGKILLed ``optimize`` job resumes
bit-identically under the serve plane's claim leases.

Spans: ``optimize.search`` wraps the run, with ``optimize.search.seed``,
``optimize.search.beam`` and ``optimize.search.evolve`` stages.
Metrics: ``optimize.candidates`` (counter), ``optimize.front_size``
(gauge).
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core.protection import ProtectionPlan, plan_by_budget, plan_by_target
from ..io.store import atomic_savez
from ..obs.metrics import inc, set_gauge
from ..obs.trace import span
from ..parallel.progress import as_progress
from .evaluate import EnvelopeEvaluator

__all__ = [
    "ParetoFront",
    "SearchCheckpoint",
    "SearchConfig",
    "SynthesisResult",
    "pareto_filter",
    "synthesize",
]

#: Errors that mean "checkpoint unusable, restart the search" rather
#: than "fail the job" — mirrors the campaign-cache miss policy.
_MISS_ERRORS = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)

_CHECKPOINT_KIND = "optimize-search-checkpoint"
_CHECKPOINT_VERSION = 1


def pareto_filter(costs: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated (cost, residual) points.

    Returned in ascending-cost order with strictly decreasing residual;
    duplicates and dominated points are dropped (ties keep the first
    point in ``lexsort`` order, which is deterministic).
    """
    costs = np.asarray(costs, dtype=np.float64)
    residuals = np.asarray(residuals, dtype=np.float64)
    if costs.size == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((residuals, costs))
    keep: list[int] = []
    best = np.inf
    for i in order:
        if residuals[i] < best:
            keep.append(int(i))
            best = residuals[i]
    return np.asarray(keep, dtype=np.int64)


@dataclass(frozen=True)
class ParetoFront:
    """Non-dominated placements, ascending cost / descending residual."""

    placements: np.ndarray  #: (k, n_sites) int8
    costs: np.ndarray  #: (k,) float64
    residuals: np.ndarray  #: (k,) float64
    modes: tuple[str, ...]  #: placement-value vocabulary (index = mode id)

    @classmethod
    def from_points(cls, placements: np.ndarray, costs: np.ndarray,
                    residuals: np.ndarray,
                    modes: tuple[str, ...]) -> "ParetoFront":
        placements = np.asarray(placements, dtype=np.int8)
        if placements.ndim != 2:
            placements = placements.reshape(len(placements), -1)
        idx = pareto_filter(costs, residuals)
        return cls(placements=placements[idx],
                   costs=np.asarray(costs, dtype=np.float64)[idx],
                   residuals=np.asarray(residuals, dtype=np.float64)[idx],
                   modes=tuple(modes))

    @property
    def n_points(self) -> int:
        return len(self.costs)

    def __len__(self) -> int:
        return self.n_points

    def best_for_target(self, target_sdc: float) -> int | None:
        """Index of the cheapest point meeting a residual-SDC target."""
        ok = np.flatnonzero(self.residuals <= target_sdc)
        return int(ok[0]) if ok.size else None

    def best_for_budget(self, budget: float) -> int | None:
        """Index of the lowest-residual point within a cost budget."""
        ok = np.flatnonzero(self.costs <= budget)
        return int(ok[-1]) if ok.size else None

    def dominates(self, cost: float, residual: float) -> bool:
        """Does some front point have ``<= cost`` and ``<= residual``?"""
        ok = self.costs <= cost
        return bool(np.any(self.residuals[ok] <= residual))

    def plan_for(self, index: int, evaluator) -> "ProtectionPlan":
        """One front point as a :class:`ProtectionPlan` (for persistence).

        ``protected`` holds every site with *any* mode assigned;
        ``overhead`` is the point's normalised modeled cost rather than
        the duplication-only site fraction.
        """
        placement = self.placements[index]
        return ProtectionPlan(
            protected=np.flatnonzero(placement != 0).astype(np.int64),
            predicted_residual_sdc=float(self.residuals[index]),
            predicted_unprotected_sdc=float(evaluator.unprotected_sdc),
            overhead=float(self.costs[index]),
        )

    def mode_counts(self, index: int) -> dict[str, int]:
        """Per-mode protected-site counts of one front point."""
        placement = self.placements[index]
        return {name: int(np.count_nonzero(placement == m))
                for m, name in enumerate(self.modes) if m > 0}

    def as_dict(self, include_placements: bool = False) -> dict:
        doc: dict = {
            "n_points": self.n_points,
            "modes": list(self.modes),
            "points": [
                {"cost": float(c), "residual_sdc": float(r),
                 "n_protected": int(np.count_nonzero(p)),
                 "mode_counts": self.mode_counts(i)}
                for i, (c, r, p) in enumerate(
                    zip(self.costs, self.residuals, self.placements))
            ],
        }
        if include_placements:
            for i, point in enumerate(doc["points"]):
                point["placement"] = self.placements[i].tolist()
        return doc


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one synthesis run.

    ``target_sdc`` and ``budget`` are mutually exclusive steering goals;
    with neither, the search optimizes the whole front evenly.
    """

    modes: tuple[str, ...] = ("duplicate", "detector", "precision")
    target_sdc: float | None = None
    budget: float | None = None
    beam_width: int = 8
    beam_steps: int = 96
    generations: int = 12
    population: int = 32
    mutation_rate: float = 0.02
    crossover_rate: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.target_sdc is not None and self.budget is not None:
            raise ValueError("set at most one of target_sdc / budget")
        if self.target_sdc is not None and self.target_sdc < 0:
            raise ValueError("target_sdc must be non-negative")
        if self.budget is not None and not 0 <= self.budget <= 1:
            raise ValueError("budget must be in [0, 1]")
        if self.beam_width < 0 or self.beam_steps < 0:
            raise ValueError("beam_width/beam_steps must be non-negative")
        if self.generations < 0:
            raise ValueError("generations must be non-negative")
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if not 0 < self.mutation_rate <= 1:
            raise ValueError("mutation_rate must be in (0, 1]")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must be in [0, 1]")

    def content_key(self) -> str:
        """Stable digest of everything that steers the search."""
        payload = json.dumps({
            "modes": list(self.modes), "target_sdc": self.target_sdc,
            "budget": self.budget, "beam_width": self.beam_width,
            "beam_steps": self.beam_steps, "generations": self.generations,
            "population": self.population,
            "mutation_rate": self.mutation_rate,
            "crossover_rate": self.crossover_rate, "seed": self.seed,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class SynthesisResult:
    """Outcome of :func:`synthesize`."""

    front: ParetoFront
    n_candidates: int  #: placements scored (including re-scored duplicates)
    generations: int  #: evolutionary generations configured
    greedy: dict | None  #: greedy plan_by_* baseline scored on the same
    #: evaluator (``cost`` / ``residual_sdc`` / ``n_protected``), when a
    #: predictor+boundary were available to build it

    def chosen_index(self, config: SearchConfig) -> int | None:
        """Front point selected by the config's goal (None = whole front)."""
        if config.target_sdc is not None:
            return self.front.best_for_target(config.target_sdc)
        if config.budget is not None:
            return self.front.best_for_budget(config.budget)
        return None


class SearchCheckpoint:
    """Per-generation durable state of one synthesis run.

    One atomic npz holding the generation counter, population, running
    Pareto front, serialized RNG state and candidate count, content-keyed
    so a resumed job refuses state from a different workload or search
    config.  Resume is bit-identical: the RNG stream continues exactly
    where the killed run left it.  The npz is stored uncompressed: it is
    rewritten whole every generation and read only on resume, so zlib
    would cost more time than the bytes it saves.
    """

    def __init__(self, path: str | Path, content_key: str = ""):
        self.path = Path(path)
        self.content_key = str(content_key)

    def save(self, generation: int, population: np.ndarray,
             front: ParetoFront, rng: np.random.Generator,
             n_candidates: int) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_savez(
            self.path,
            compress=False,
            kind=np.asarray(_CHECKPOINT_KIND),
            format_version=np.asarray(_CHECKPOINT_VERSION),
            schema_version=np.asarray(_CHECKPOINT_VERSION),
            content_key=np.asarray(self.content_key),
            generation=np.asarray(int(generation)),
            n_candidates=np.asarray(int(n_candidates)),
            population=np.asarray(population, dtype=np.int8),
            front_placements=front.placements,
            front_costs=front.costs,
            front_residuals=front.residuals,
            modes=np.asarray(list(front.modes)),
            rng_state=np.asarray(json.dumps(rng.bit_generator.state)),
        )

    def load(self) -> dict | None:
        """Saved state, or ``None`` when absent/corrupt/mismatched."""
        try:
            with np.load(self.path, allow_pickle=False) as npz:
                if str(npz["kind"]) != _CHECKPOINT_KIND:
                    return None
                if int(npz["format_version"]) != _CHECKPOINT_VERSION:
                    return None
                if str(npz["content_key"]) != self.content_key:
                    return None
                return {
                    "generation": int(npz["generation"]),
                    "n_candidates": int(npz["n_candidates"]),
                    "population": npz["population"].astype(np.int8),
                    "front_placements": npz["front_placements"].astype(
                        np.int8),
                    "front_costs": npz["front_costs"].astype(np.float64),
                    "front_residuals": npz["front_residuals"].astype(
                        np.float64),
                    "modes": tuple(str(m) for m in npz["modes"]),
                    "rng_state": json.loads(str(npz["rng_state"])),
                }
        except _MISS_ERRORS:
            return None


# --------------------------------------------------------------- internals


class _Archive:
    """Every placement scored so far, deduplicated, plus its front."""

    def __init__(self, evaluator: EnvelopeEvaluator):
        self.evaluator = evaluator
        self._seen: set[bytes] = set()
        self._placements: list[np.ndarray] = []
        self._costs: list[float] = []
        self._residuals: list[float] = []
        self.n_evaluated = 0

    def add(self, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Score a ``(B, n_sites)`` batch, archiving unseen placements."""
        batch = np.asarray(batch, dtype=np.int8)
        if batch.ndim == 1:
            batch = batch[None, :]
        if len(batch) == 0:
            return np.empty(0), np.empty(0)
        costs, residuals = self.evaluator.evaluate(batch)
        for i in range(len(batch)):
            key = batch[i].tobytes()
            if key not in self._seen:
                self._seen.add(key)
                self._placements.append(batch[i])
                self._costs.append(float(costs[i]))
                self._residuals.append(float(residuals[i]))
        self.n_evaluated += len(batch)
        inc("optimize.candidates", len(batch))
        return costs, residuals

    def front(self) -> ParetoFront:
        return ParetoFront.from_points(
            np.asarray(self._placements, dtype=np.int8),
            np.asarray(self._costs),
            np.asarray(self._residuals),
            self.evaluator.model.modes)


def _objective(config: SearchConfig, scale: float):
    """Scalarized objective matching the config's steering goal."""
    if config.target_sdc is not None:
        target = config.target_sdc
        penalty = 2.0 / max(scale, 1e-12)

        def obj(cost, residual):
            return cost + np.maximum(residual - target, 0.0) * penalty
    elif config.budget is not None:
        budget = config.budget
        penalty = 2.0 * max(scale, 1e-12)

        def obj(cost, residual):
            return residual + np.maximum(cost - budget, 0.0) * penalty
    else:
        def obj(cost, residual):
            return residual + scale * cost
    return obj


def _greedy_baseline(evaluator: EnvelopeEvaluator, config: SearchConfig,
                     predictor, boundary) -> dict | None:
    """The duplication-only greedy plan, scored on the search's evaluator."""
    if predictor is None or boundary is None:
        return None
    if config.target_sdc is not None:
        plan = plan_by_target(predictor, boundary, config.target_sdc)
    elif config.budget is not None:
        plan = plan_by_budget(predictor, boundary, config.budget)
    else:
        plan = plan_by_budget(predictor, boundary, 0.25)
    model = evaluator.model
    placement = np.zeros(model.n_sites, dtype=np.int8)
    placement[plan.protected] = model.mode_id("duplicate")
    return {
        "plan": plan,
        "placement": placement,
        "cost": float(model.placement_cost(placement)),
        "residual_sdc": float(evaluator.residual_sdc(placement)),
        "n_protected": int(plan.protected.size),
        "predicted_residual_sdc": float(plan.predicted_residual_sdc),
    }


def _seed_placements(evaluator: EnvelopeEvaluator, config: SearchConfig,
                     predictor, boundary,
                     greedy: dict | None) -> np.ndarray:
    """Greedy-plan seeds plus the corners, deduplicated."""
    model = evaluator.model
    n = model.n_sites
    seeds: list[np.ndarray] = [np.zeros(n, dtype=np.int8)]
    for m in range(1, model.n_modes):
        seeds.append(np.full(n, m, dtype=np.int8))

    plans = []
    if greedy is not None:
        plans.append(greedy["plan"])
    if predictor is not None and boundary is not None:
        for fraction in (0.05, 0.1, 0.25, 0.5):
            plans.append(plan_by_budget(predictor, boundary, fraction))
    for plan in plans:
        for m in range(1, model.n_modes):
            placement = np.zeros(n, dtype=np.int8)
            placement[plan.protected] = m
            seeds.append(placement)

    unique: list[np.ndarray] = []
    seen: set[bytes] = set()
    for placement in seeds:
        key = placement.tobytes()
        if key not in seen:
            seen.add(key)
            unique.append(placement)
    return np.asarray(unique, dtype=np.int8)


def _rank_moves(score: np.ndarray, k: int, n: int) -> list[tuple[int, int]]:
    flat = score.ravel()
    useful = np.flatnonzero(flat > 0)
    if useful.size == 0:
        return []
    if useful.size > k:
        top = useful[np.argpartition(-flat[useful], k - 1)[:k]]
    else:
        top = useful
    top = top[np.argsort(-flat[top], kind="stable")]
    return [(int(i // n), int(i % n)) for i in top]


def _top_moves(evaluator: EnvelopeEvaluator, placement: np.ndarray,
               k: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Two families of top-``k`` single-site (mode, site) moves.

    *Upgrades* reduce residual, ranked by residual reduction per unit
    cost; free upgrades (no dearer, strictly better — e.g. swapping a
    duplicate for a detector that catches everything the site can lose)
    rank above every paid one.  *Downgrades* save cost, ranked by cost
    saved per unit residual given up — the moves that cash in residual
    headroom below a target (greedy duplication never considers them).
    """
    model = evaluator.model
    n = model.n_sites
    ar = np.arange(n)
    cur_r = evaluator.residual_bits[placement, ar]
    cur_c = model.site_cost[placement, ar]
    gain = (cur_r[None, :] - evaluator.residual_bits).astype(np.float64)
    dcost = model.site_cost - cur_c[None, :]

    up = np.full(gain.shape, -np.inf)
    paid = (gain > 0) & (dcost > 0)
    up[paid] = gain[paid] / dcost[paid]
    free = ((dcost < 0) & (gain >= 0)) | ((dcost <= 0) & (gain > 0))
    up[free] = np.inf

    down = np.full(gain.shape, -np.inf)
    saving = (dcost < 0) & (gain < 0)
    down[saving] = -dcost[saving] / -gain[saving]

    return _rank_moves(up, k, n), _rank_moves(down, k, n)


def _beam_stage(evaluator: EnvelopeEvaluator, config: SearchConfig,
                seeds: np.ndarray, seed_scores: tuple[np.ndarray, np.ndarray],
                archive: _Archive, obj) -> np.ndarray:
    """Deterministic beam search from the seeds; returns the final beam."""
    costs, residuals = seed_scores
    scores = obj(costs, residuals)
    order = np.argsort(scores, kind="stable")[:max(config.beam_width, 1)]
    beam = [seeds[i].copy() for i in order]
    best = float(scores[order[0]]) if len(order) else np.inf

    for _ in range(config.beam_steps):
        children: list[np.ndarray] = []
        for placement in beam:
            width = max(config.beam_width, 1)
            upgrades, downgrades = _top_moves(evaluator, placement, width)
            for family in (upgrades, downgrades):
                if not family:
                    continue
                for m, s in family:
                    child = placement.copy()
                    child[s] = m
                    children.append(child)
                aggressive = placement.copy()
                taken: set[int] = set()
                for m, s in family:
                    if s not in taken:
                        aggressive[s] = m
                        taken.add(s)
                children.append(aggressive)
        if not children:
            break
        batch = np.asarray(children, dtype=np.int8)
        child_costs, child_residuals = archive.add(batch)
        pool = beam + children
        pool_scores = np.concatenate([
            obj(*evaluator.evaluate(np.asarray(beam, dtype=np.int8))),
            obj(child_costs, child_residuals)])
        order = np.argsort(pool_scores, kind="stable")
        next_beam: list[np.ndarray] = []
        seen: set[bytes] = set()
        for i in order:
            key = pool[i].tobytes()
            if key not in seen:
                seen.add(key)
                next_beam.append(pool[i])
            if len(next_beam) >= max(config.beam_width, 1):
                break
        beam = next_beam
        new_best = float(pool_scores[order[0]])
        if not new_best < best - 1e-15:
            break
        best = new_best
    return np.asarray(beam, dtype=np.int8)


def _evolve_stage(evaluator: EnvelopeEvaluator, config: SearchConfig,
                  population: np.ndarray, archive: _Archive,
                  rng: np.random.Generator, scale: float, obj,
                  checkpoint: SearchCheckpoint | None, progress,
                  start_generation: int) -> np.ndarray:
    """Seeded evolutionary loop; checkpoints after every generation."""
    model = evaluator.model
    n = model.n_sites
    population = np.asarray(population, dtype=np.int8)

    for generation in range(start_generation, config.generations):
        pop_costs, pop_residuals = evaluator.evaluate(population)

        def _pick_parent() -> np.ndarray:
            i, j = rng.integers(0, len(population), size=2)
            lam = scale * rng.uniform(0.0, 2.0)
            ji = pop_residuals[i] + lam * pop_costs[i]
            jj = pop_residuals[j] + lam * pop_costs[j]
            return population[i if ji <= jj else j]

        offspring = np.empty((config.population, n), dtype=np.int8)
        for c in range(config.population):
            parent_a = _pick_parent()
            if rng.random() < config.crossover_rate:
                parent_b = _pick_parent()
                lo, hi = np.sort(rng.integers(0, n + 1, size=2))
                child = parent_a.copy()
                child[lo:hi] = parent_b[lo:hi]
            else:
                child = parent_a.copy()
            n_mut = max(1, int(rng.binomial(n, config.mutation_rate)))
            sites = rng.integers(0, n, size=n_mut)
            child[sites] = rng.integers(0, model.n_modes, size=n_mut)
            offspring[c] = child
        child_costs, child_residuals = archive.add(offspring)

        front = archive.front()
        n_elite = min(front.n_points, max(2, config.population // 2))
        elite_idx = np.linspace(0, front.n_points - 1, n_elite).astype(int)
        elite = front.placements[np.unique(elite_idx)]
        n_rest = max(config.population - len(elite), 0)
        rest_order = np.argsort(obj(child_costs, child_residuals),
                                kind="stable")[:n_rest]
        population = np.concatenate(
            [elite, offspring[rest_order]], axis=0).astype(np.int8)

        set_gauge("optimize.front_size", front.n_points)
        if checkpoint is not None:
            checkpoint.save(generation + 1, population, front, rng,
                            archive.n_evaluated)
        progress.update(generation + 1, config.generations)
    return population


def synthesize(evaluator: EnvelopeEvaluator,
               config: SearchConfig | None = None,
               predictor=None, boundary=None,
               checkpoint: SearchCheckpoint | None = None,
               progress=None) -> SynthesisResult:
    """Run the full seeded beam + evolutionary synthesis.

    ``predictor``/``boundary`` (optional) enable the greedy
    ``plan_by_*`` seeds and the greedy-baseline comparison.  With a
    ``checkpoint`` holding a matching content key, the run resumes
    bit-identically from its last completed generation — exceptions
    raised by ``progress`` (the job service's cancellation seam)
    propagate with the checkpoint intact.
    """
    config = config or SearchConfig()
    progress = as_progress(progress)
    archive = _Archive(evaluator)
    scale = max(evaluator.unprotected_sdc, 1e-12)
    obj = _objective(config, scale)
    greedy = _greedy_baseline(evaluator, config, predictor, boundary)

    resumed = checkpoint.load() if checkpoint is not None else None
    with span("optimize.search", n_sites=evaluator.n_sites,
              modes=",".join(evaluator.model.modes[1:]),
              resumed=bool(resumed)):
        rng = np.random.default_rng(config.seed)
        if resumed is None:
            seeds = _seed_placements(evaluator, config, predictor, boundary,
                                     greedy)
            with span("optimize.search.seed", n_seeds=len(seeds)):
                seed_scores = archive.add(seeds)
            with span("optimize.search.beam", beam_width=config.beam_width,
                      beam_steps=config.beam_steps):
                beam = _beam_stage(evaluator, config, seeds, seed_scores,
                                   archive, obj)
            front = archive.front()
            base = [front.placements, beam, seeds]
            population = np.concatenate(base, axis=0)[:config.population]
            if len(population) < config.population:
                extra = population[
                    rng.integers(0, len(population),
                                 size=config.population - len(population))]
                population = np.concatenate([population, extra], axis=0)
            start_generation = 0
            if checkpoint is not None:
                checkpoint.save(0, population, front, rng,
                                archive.n_evaluated)
        else:
            population = resumed["population"]
            archive.add(resumed["front_placements"])
            archive.add(population)
            archive.n_evaluated = resumed["n_candidates"]
            rng.bit_generator.state = resumed["rng_state"]
            start_generation = resumed["generation"]
            progress.update(start_generation, config.generations)

        with span("optimize.search.evolve", generations=config.generations,
                  population=config.population,
                  start_generation=start_generation):
            _evolve_stage(evaluator, config, population, archive, rng,
                          scale, obj, checkpoint, progress,
                          start_generation)

    front = archive.front()
    set_gauge("optimize.front_size", front.n_points)
    greedy_doc = None
    if greedy is not None:
        greedy_doc = {k: v for k, v in greedy.items()
                      if k not in ("plan", "placement")}
    return SynthesisResult(front=front, n_candidates=archive.n_evaluated,
                           generations=config.generations,
                           greedy=greedy_doc)

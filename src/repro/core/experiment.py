"""Experiment data model: sample spaces and campaign results.

A fault-injection *sample space* (§3.2) is the discrete set of all
(dynamic-instruction, bit) pairs of a program: ``n_sites * bits_per_site``
experiments in total (e.g. 47 360 for the paper's CG, Table 1).  Experiments
are addressed by *flat index* ``site_position * bits + bit`` where
``site_position`` is the site's rank among the program's fault sites; this
gives campaigns a dense integer keyspace to sample from.

Two result containers cover the paper's campaign styles:

* :class:`ExhaustiveResult` — full outcome/injected-error grids, the ground
  truth used in §4.1 and as the evaluation reference everywhere else;
* :class:`SampledResult` — outcomes of an arbitrary subset of flat indices,
  produced by Monte-Carlo (§4.2) and adaptive (§3.4) campaigns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..engine.bitflip import bits_for_dtype
from ..engine.classify import Outcome
from ..engine.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.resilience import CampaignHealth

__all__ = ["SampleSpace", "ExhaustiveResult", "SampledResult"]


@dataclass(frozen=True)
class SampleSpace:
    """The discrete fault-injection sample space of one program."""

    site_indices: np.ndarray  #: instruction index of each fault site
    bits: int  #: single-bit experiments per site (32 / 64)

    @classmethod
    def of_program(cls, program: Program) -> "SampleSpace":
        return cls(site_indices=program.site_indices,
                   bits=bits_for_dtype(program.dtype))

    @property
    def n_sites(self) -> int:
        return len(self.site_indices)

    @property
    def size(self) -> int:
        """Total number of possible experiments |S|."""
        return self.n_sites * self.bits

    # ------------------------------------------------------------- addressing

    def encode(self, site_pos: np.ndarray, bit: np.ndarray) -> np.ndarray:
        """Flat index of (site-position, bit) pairs."""
        site_pos = np.asarray(site_pos, dtype=np.int64)
        bit = np.asarray(bit, dtype=np.int64)
        if np.any(site_pos < 0) or np.any(site_pos >= self.n_sites):
            raise ValueError("site position out of range")
        if np.any(bit < 0) or np.any(bit >= self.bits):
            raise ValueError("bit index out of range")
        return site_pos * self.bits + bit

    def decode(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(site-position, bit) of flat indices."""
        flat = np.asarray(flat, dtype=np.int64)
        if np.any(flat < 0) or np.any(flat >= self.size):
            raise ValueError("flat experiment index out of range")
        return flat // self.bits, flat % self.bits

    def instructions_of(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tape instruction index, bit) of flat indices — replayer inputs."""
        pos, bit = self.decode(flat)
        return self.site_indices[pos], bit


def _outcome_fraction(outcomes: np.ndarray, which: Outcome) -> float:
    if outcomes.size == 0:
        return float("nan")
    return float(np.count_nonzero(outcomes == int(which)) / outcomes.size)


def _outcome_counts(outcomes: np.ndarray) -> dict[str, int]:
    """Per-class experiment counts over the five-way taxonomy."""
    return {o.name: int(np.count_nonzero(outcomes == int(o)))
            for o in Outcome}


@dataclass(frozen=True)
class ExhaustiveResult:
    """Ground-truth grids of an exhaustive fault-injection campaign.

    Grids are indexed ``[site_position, bit]``.
    """

    space: SampleSpace
    outcomes: np.ndarray  #: uint8 Outcome codes, shape (n_sites, bits)
    injected_errors: np.ndarray  #: float64 |corrupted - golden|, same shape
    #: resilience record of the campaign that produced this result (None
    #: for serial runs and results loaded from disk)
    health: "CampaignHealth | None" = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        expect = (self.space.n_sites, self.space.bits)
        if self.outcomes.shape != expect or self.injected_errors.shape != expect:
            raise ValueError("result grids do not match the sample space shape")

    @property
    def masked_grid(self) -> np.ndarray:
        """Boolean grid of MASKED outcomes."""
        return self.outcomes == int(Outcome.MASKED)

    @property
    def sdc_grid(self) -> np.ndarray:
        return self.outcomes == int(Outcome.SDC)

    def sdc_ratio(self) -> float:
        """Overall SDC ratio ``n_sdc / N`` over the whole space (§2.1)."""
        return _outcome_fraction(self.outcomes, Outcome.SDC)

    def crash_ratio(self) -> float:
        return _outcome_fraction(self.outcomes, Outcome.CRASH)

    def masked_ratio(self) -> float:
        return _outcome_fraction(self.outcomes, Outcome.MASKED)

    def diverged_ratio(self) -> float:
        """Fraction of lanes that left the golden control path."""
        return _outcome_fraction(self.outcomes, Outcome.DIVERGED)

    def hang_ratio(self) -> float:
        """Fraction of lanes that exhausted the CFG ``max_steps`` budget."""
        return _outcome_fraction(self.outcomes, Outcome.HANG)

    def outcome_counts(self) -> dict[str, int]:
        """Experiment counts per outcome class (five-way taxonomy)."""
        return _outcome_counts(self.outcomes)

    def sdc_ratio_per_site(self) -> np.ndarray:
        """Per-dynamic-instruction SDC ratio — the paper's ground truth curve."""
        return self.sdc_grid.mean(axis=1)

    def as_sampled(self, flat: np.ndarray) -> "SampledResult":
        """View a subset of this ground truth as a sampled campaign result.

        Benches use this to evaluate sampling strategies against the same
        grids without re-running experiments.
        """
        pos, bit = self.space.decode(flat)
        return SampledResult(
            space=self.space,
            flat=np.asarray(flat, dtype=np.int64),
            outcomes=self.outcomes[pos, bit],
            injected_errors=self.injected_errors[pos, bit],
        )


@dataclass(frozen=True)
class SampledResult:
    """Outcomes of a sampled subset of the space."""

    space: SampleSpace
    flat: np.ndarray  #: flat experiment indices, shape (k,)
    outcomes: np.ndarray  #: uint8 Outcome codes, shape (k,)
    injected_errors: np.ndarray  #: float64, shape (k,)
    #: resilience record of the campaign that produced this result (None
    #: for serial runs and results reassembled from disk)
    health: "CampaignHealth | None" = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self) -> None:
        if not (len(self.flat) == len(self.outcomes) == len(self.injected_errors)):
            raise ValueError("sampled arrays have inconsistent lengths")
        if len(np.unique(self.flat)) != len(self.flat):
            raise ValueError("duplicate experiments in sampled result")

    @property
    def n_samples(self) -> int:
        return len(self.flat)

    @property
    def sampling_rate(self) -> float:
        """Fraction of the full space covered by this sample."""
        return self.n_samples / self.space.size

    @property
    def masked_mask(self) -> np.ndarray:
        return self.outcomes == int(Outcome.MASKED)

    def sdc_ratio(self) -> float:
        """SDC ratio over the sampled experiments (the Monte-Carlo estimate)."""
        return _outcome_fraction(self.outcomes, Outcome.SDC)

    def crash_ratio(self) -> float:
        return _outcome_fraction(self.outcomes, Outcome.CRASH)

    def masked_ratio(self) -> float:
        return _outcome_fraction(self.outcomes, Outcome.MASKED)

    def diverged_ratio(self) -> float:
        """Fraction of sampled lanes that left the golden control path."""
        return _outcome_fraction(self.outcomes, Outcome.DIVERGED)

    def hang_ratio(self) -> float:
        """Fraction of sampled lanes exceeding the CFG ``max_steps`` budget."""
        return _outcome_fraction(self.outcomes, Outcome.HANG)

    def outcome_counts(self) -> dict[str, int]:
        """Experiment counts per outcome class (five-way taxonomy)."""
        return _outcome_counts(self.outcomes)

    def min_sdc_error_per_site(self) -> np.ndarray:
        """Per-site minimum injected error among non-masked samples.

        This is the filter operation's evidence (§3.5): any propagation value
        above it is inconsistent with known SDC behaviour at that site.
        Sites without a non-masked sample get ``+inf`` (no evidence).
        Indexed by site position.
        """
        caps = np.full(self.space.n_sites, np.inf)
        pos, _ = self.space.decode(self.flat)
        bad = ~self.masked_mask
        if bad.any():
            np.minimum.at(caps, pos[bad], self.injected_errors[bad])
        return caps

    def merged_with(self, other: "SampledResult") -> "SampledResult":
        """Union of two disjoint sampled results (adaptive-round accumulation)."""
        if other.space.size != self.space.size or other.space.bits != self.space.bits:
            raise ValueError("cannot merge results from different spaces")
        flat = np.concatenate([self.flat, other.flat])
        # rounds run on one executor share its (cumulative) record
        health = (other.health
                  if self.health is None or self.health is other.health
                  else self.health.merged_with(other.health))
        return SampledResult(
            space=self.space,
            flat=flat,
            outcomes=np.concatenate([self.outcomes, other.outcomes]),
            injected_errors=np.concatenate([self.injected_errors,
                                            other.injected_errors]),
            health=health,
        )

    def samples_per_site(self) -> np.ndarray:
        """Number of sampled experiments at each site (site-position indexed)."""
        counts = np.zeros(self.space.n_sites, dtype=np.int64)
        pos, _ = self.space.decode(self.flat)
        np.add.at(counts, pos, 1)
        return counts

"""Fault-tolerance-threshold inference (§3.3, Algorithm 1) and the filter (§3.5).

The inference principle: if injecting an error at instruction ``i`` produced a
MASKED outcome and the corruption propagated a deviation ``Δe`` to a later
instruction ``k``, then ``k`` can, with high probability, tolerate an
*injected* error of ``Δe`` too — experiment "B" (inject ``Δe`` at ``k``) is
strictly milder than the observed experiment "A".  Algorithm 1 therefore
aggregates, over all masked sampled experiments, the per-instruction maximum
of observed deviations:

    for each masked sample s:   Δe_j = max(Δe_j, s[j])   for all j

:class:`ThresholdAggregator` implements this as a streaming
:class:`~repro.engine.batch.PropagationSink`: batches of deviation data are
reduced on the fly, so memory stays O(sites) no matter how many experiments
contribute (the §5 "Overhead" mitigation).

The §3.5 *filter operation* is a per-site cap: a masked propagation value
larger than the smallest injected error known to cause SDC at that site is
contradictory evidence (non-monotonic behaviour) and is discarded rather
than allowed to raise the threshold.

The aggregator also counts per-site *information*: how often a site was
injected or received a significant propagated deviation (relative error
above ``rel_info_threshold``, Fig. 4 row 2's "potential impact").  These
counts are the ``S_i`` of the adaptive sampler's bias term (§3.4).
"""

from __future__ import annotations

import numpy as np

from ..engine.classify import Outcome
from ..engine.interpreter import GoldenTrace
from .boundary import FaultToleranceBoundary
from .experiment import SampledResult, SampleSpace

__all__ = ["ThresholdAggregator", "exact_site_thresholds"]


class ThresholdAggregator:
    """Streaming Algorithm 1 aggregation over masked-experiment batches.

    Parameters
    ----------
    trace:
        Golden trace of the program (provides instruction count and the
        golden magnitudes used for relative-significance tests).
    caps:
        Optional per-*instruction* float64 array of filter caps: deviation
        values strictly greater than ``caps[j]`` are discarded at
        instruction ``j`` (§3.5).  ``None`` disables the filter.
    rel_info_threshold:
        Relative-deviation significance cutoff for information counting;
        the paper uses ``1e-8`` (Fig. 4 row 2).
    """

    def __init__(
        self,
        trace: GoldenTrace,
        caps: np.ndarray | None = None,
        rel_info_threshold: float = 1e-8,
    ):
        n = len(trace.program)
        self.trace = trace
        if caps is not None:
            caps = np.asarray(caps, dtype=np.float64)
            if caps.shape != (n,):
                raise ValueError("caps must have one entry per instruction")
        self.caps = caps
        self.rel_info_threshold = float(rel_info_threshold)
        self.delta_e = np.zeros(n, dtype=np.float64)
        self.info = np.zeros(n, dtype=np.int64)
        self.n_experiments = 0
        # Golden magnitude floor for relative significance; zero-valued
        # golden entries use an absolute floor so a deviation on an
        # initialised-to-zero variable still registers as information.
        self._scale = np.maximum(np.abs(trace.values.astype(np.float64)), 1e-300)

    # ------------------------------------------------------ PropagationSink

    def consume(
        self,
        first_instr: int,
        abs_diff: np.ndarray,
        valid: np.ndarray | None,
        sites: np.ndarray,
        bits: np.ndarray,
    ) -> None:
        """Absorb one row block of masked-experiment deviation data.

        The block that reaches the end of the tape counts the batch's
        experiments, so a batch streamed in several blocks counts once.
        """
        sl = slice(first_instr, first_instr + abs_diff.shape[0])
        if sl.stop == self.delta_e.size:
            self.n_experiments += len(sites)

        with np.errstate(invalid="ignore", over="ignore"):
            allowed = valid
            if self.caps is not None:
                allowed = np.less_equal(abs_diff, self.caps[sl, None])
                if valid is not None:
                    allowed &= valid
            # Sinks see no NaN (non-finite deviations arrive as +inf), so
            # the only NaNs are the inf * False of masked-out entries,
            # which fmax skips: a masked max without np.max's where=.
            masked = abs_diff if allowed is None else abs_diff * allowed
            np.maximum(self.delta_e[sl],
                       np.fmax.reduce(masked, axis=1, initial=0.0),
                       out=self.delta_e[sl])

            rel = np.divide(abs_diff, self._scale[sl, None])
            significant = np.greater(rel, self.rel_info_threshold)
        if valid is not None:
            significant &= valid
        self.info[sl] += np.count_nonzero(significant, axis=1)

    # -------------------------------------------------------------- results

    def boundary(self, space: SampleSpace) -> FaultToleranceBoundary:
        """Extract the site-indexed boundary accumulated so far."""
        return FaultToleranceBoundary(
            space=space,
            thresholds=self.delta_e[space.site_indices].copy(),
            info=self.info[space.site_indices].copy(),
        )

    def merge(self, other: "ThresholdAggregator") -> None:
        """Absorb a peer aggregator (parallel-worker reduction)."""
        if other.delta_e.shape != self.delta_e.shape:
            raise ValueError("aggregators cover different programs")
        self.merge_partial(other.delta_e, other.info, other.n_experiments)

    def merge_partial(self, delta_e: np.ndarray, info: np.ndarray,
                      n_experiments: int) -> None:
        """Absorb a peer's ``(delta_e, info, n_experiments)``, the partial
        a campaign worker task returns: per-instruction max and sums."""
        np.maximum(self.delta_e, delta_e, out=self.delta_e)
        self.info += info
        self.n_experiments += int(n_experiments)


def exact_site_thresholds(sampled: SampledResult) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive-rule thresholds for fully sampled sites (§4.4).

    "During the prediction, if all possible error conditions are injected
    into a dynamic instruction, we simply use the correct boundary value for
    the instruction instead of prediction."

    Returns
    -------
    (site_positions, thresholds):
        Positions of sites whose every bit was sampled, and their exact
        §4.1-rule threshold values.
    """
    space = sampled.space
    counts = sampled.samples_per_site()
    full = np.flatnonzero(counts == space.bits)
    if full.size == 0:
        return full, np.empty(0)

    pos, bit = space.decode(sampled.flat)
    keep = np.isin(pos, full)
    pos_k, bit_k = pos[keep], bit[keep]
    remap = np.full(space.n_sites, -1, dtype=np.int64)
    remap[full] = np.arange(full.size)

    inj = np.empty((full.size, space.bits), dtype=np.float64)
    masked = np.empty((full.size, space.bits), dtype=bool)
    inj[remap[pos_k], bit_k] = sampled.injected_errors[keep]
    masked[remap[pos_k], bit_k] = sampled.outcomes[keep] == int(Outcome.MASKED)

    bad_errors = np.where(~masked, inj, np.inf)
    min_bad = bad_errors.min(axis=1)
    usable = masked & (inj < min_bad[:, None])
    good = np.where(usable, inj, -np.inf)
    thresholds = good.max(axis=1)
    thresholds[~usable.any(axis=1)] = 0.0
    all_masked = masked.all(axis=1)
    thresholds[all_masked] = inj[all_masked].max(axis=1)
    return full, thresholds

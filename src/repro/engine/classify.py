"""Outcome classification of fault-injection experiments.

The paper classifies every corrupted run into three outcomes (§2.1):

* **MASKED** — the program completes and its output is within the domain
  user's tolerance ``T`` of the golden output (not necessarily bitwise equal);
* **SDC** — the program completes with no visible symptom but the output
  error exceeds ``T``;
* **CRASH** — abnormal termination; in floating-point kernels this is a
  non-finite (NaN/Inf) result surfacing in the output.

Our tape substrate adds a fourth bookkeeping state, **DIVERGED**, for lanes
whose control guard took a different branch than the golden run.  The paper
stops tracking error propagation at divergence (§2.2); we additionally stop
trusting the straight-line replay there, so diverged lanes are classified
separately and treated as non-masked (conservative) by every consumer.

With the CFG engine (:mod:`repro.cfg`) the taxonomy completes to five
classes.  CFG lanes execute down their *own* control paths to termination,
so DIVERGED becomes an observed path fact rather than a simulation cutoff:
a lane that left the golden block path but still produced an output is
MASKED if that output is within tolerance (the kernel's own convergence
test absorbed the fault), DIVERGED if it completed off-path with an
out-of-tolerance output, CRASH if non-finite.  **HANG** — the fifth class —
marks lanes that exhausted the deterministic ``max_steps`` replay budget
(e.g. a corrupted convergence threshold that can never be met).

Output error is measured with the L-infinity norm by default, as in §2.1
("we use the L∞ norm between outputs, although any other metric could be
used"); L2 and relative-L-infinity comparators are provided as the paper's
"any other metric" hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .batch import ReplayBatch

__all__ = ["Outcome", "OutputComparator", "classify_batch",
           "classify_outputs", "output_error"]


class Outcome(IntEnum):
    """Classification of one fault-injection experiment (§2.1).

    MASKED/SDC/CRASH follow the paper; DIVERGED marks control-path
    departure from the golden run (a cutoff for straight-line tapes, an
    observed completion fact for CFG replay); HANG marks CFG lanes that
    exceeded the ``max_steps`` step budget.
    """

    MASKED = 0
    SDC = 1
    CRASH = 2
    DIVERGED = 3
    HANG = 4


@dataclass(frozen=True)
class OutputComparator:
    """Measures the output error of corrupted runs against the golden output.

    Parameters
    ----------
    golden_output:
        Golden output vector (any float dtype; compared in float64).
    tolerance:
        The domain tolerance ``T``: outputs with error ``<= tolerance`` are
        acceptable (MASKED).
    norm:
        ``"linf"`` (default, paper §2.1), ``"l2"``, or ``"rel_linf"``
        (element-wise relative L-infinity).
    """

    golden_output: np.ndarray
    tolerance: float
    norm: str = "linf"

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        if self.norm not in ("linf", "l2", "rel_linf"):
            raise ValueError(f"unknown norm {self.norm!r}")
        object.__setattr__(
            self, "golden_output", np.asarray(self.golden_output, dtype=np.float64)
        )

    def error(self, outputs: np.ndarray) -> np.ndarray:
        """Output-error of each lane; ``outputs`` is ``(n_out, lanes)``.

        Non-finite lanes report ``+inf`` error.
        """
        outputs = np.asarray(outputs, dtype=np.float64)
        if outputs.ndim == 1:
            outputs = outputs[:, None]
        return self.error_into(outputs, np.empty(outputs.shape),
                               np.empty(outputs.shape, dtype=bool))[0]

    def error_into(self, outputs: np.ndarray, diff: np.ndarray,
                   flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(error, finite)`` per lane of ``(n_out, lanes)`` float64 outputs.

        ``diff`` (float64) and ``flags`` (bool), both shaped like
        ``outputs``, are overwritten as scratch, so a caller that replays
        many batches can reuse them; the two returned ``(lanes,)`` arrays
        are fresh.  ``finite`` is False for lanes with a non-finite output.
        """
        with np.errstate(invalid="ignore", over="ignore"):
            np.subtract(outputs, self.golden_output[:, None], out=diff)
            np.abs(diff, out=diff)
            if self.norm == "rel_linf":
                scale = np.maximum(np.abs(self.golden_output), 1e-30)
                np.divide(diff, scale[:, None], out=diff)
            if self.norm == "l2":
                np.multiply(diff, diff, out=diff)
                err = np.sqrt(np.sum(diff, axis=0))
            else:
                err = diff.max(axis=0)
            err[~np.isfinite(err)] = np.inf
            # A lane containing NaN output must not slip through as finite.
            finite = np.all(np.isfinite(outputs, out=flags), axis=0)
            err[~finite] = np.inf
        return err, finite

    def acceptable(self, outputs: np.ndarray) -> np.ndarray:
        """Boolean per-lane mask of outputs within tolerance."""
        return self.error(outputs) <= self.tolerance


def output_error(golden_output: np.ndarray, outputs: np.ndarray,
                 norm: str = "linf") -> np.ndarray:
    """Convenience: per-lane output error without constructing a comparator."""
    return OutputComparator(golden_output, 0.0, norm).error(outputs)


def classify_batch(batch: ReplayBatch, comparator: OutputComparator) -> np.ndarray:
    """Classify every lane of a replayed batch.

    Returns a ``(lanes,)`` uint8 array of :class:`Outcome` codes.

    For straight-line batches the precedence is DIVERGED > CRASH >
    SDC/MASKED: a diverged lane's straight-line output is not meaningful,
    and a crashed run never reaches output comparison.  CFG batches
    (:class:`repro.cfg.replay.CfgReplayBatch`) add two per-lane facts:

    * ``path_diverged`` lanes *completed* down their own path, so a
      within-tolerance output stays MASKED (natural resilience through the
      kernel's real convergence test) and only out-of-tolerance completions
      become DIVERGED; CRASH still outranks both.
    * ``hung`` lanes never produced an output at all; HANG outranks
      everything.
    """
    return classify_outputs(np.asarray(batch.outputs, dtype=np.float64),
                            comparator, batch.diverged,
                            path_diverged=getattr(batch, "path_diverged",
                                                  None),
                            hung=getattr(batch, "hung", None))


def classify_outputs(
    outputs: np.ndarray,
    comparator: OutputComparator,
    diverged: np.ndarray,
    path_diverged: np.ndarray | None = None,
    hung: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """:func:`classify_batch` on bare arrays: ``(n_out, lanes)`` float64
    ``outputs`` plus the per-lane ``diverged`` mask (and the CFG facts).

    ``scratch`` is the ``(diff, flags)`` pair of
    :meth:`OutputComparator.error_into`, allocated here when omitted.
    The returned codes are always a fresh array.
    """
    if scratch is None:
        scratch = (np.empty(outputs.shape),
                   np.empty(outputs.shape, dtype=bool))
    err, finite = comparator.error_into(outputs, *scratch)
    outcomes = np.empty(err.size, dtype=np.uint8)
    outcomes[:] = np.where(err <= comparator.tolerance, Outcome.MASKED,
                           Outcome.SDC)
    if path_diverged is not None:
        outcomes[path_diverged & (outcomes == Outcome.SDC)] = Outcome.DIVERGED
    outcomes[~finite] = Outcome.CRASH
    outcomes[diverged] = Outcome.DIVERGED
    if hung is not None:
        outcomes[hung] = Outcome.HANG
    return outcomes

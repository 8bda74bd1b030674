"""Propagation heat maps — a SpotSDC-style view of error flow.

The paper builds on SpotSDC [20], a visualisation of "how an error
propagates through a program's computation".  This module produces the
text equivalent: for a set of injection experiments, a matrix of
``injection region x receiving region`` propagation intensity — how much
deviation experiments injected in region ``r`` caused in region ``c`` —
plus per-experiment propagation profiles.

Intensities aggregate the same deviation stream Algorithm 1 consumes, so
the heat map is a free by-product of boundary construction and explains
*why* some regions' thresholds are well supported (hot columns) while
others stay at the assumed-SDC default (cold columns, Fig. 4's gaps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine.batch import BatchReplayer
from ..kernels.workload import Workload
from ..core.experiment import SampleSpace

__all__ = ["PropagationMatrix", "propagation_matrix", "render_heatmap"]


@dataclass(frozen=True)
class PropagationMatrix:
    """Region-by-region propagation intensities.

    ``counts[r, c]`` is the number of (experiment, instruction) pairs where
    an experiment injected in region ``r`` caused a significant relative
    deviation at an instruction of region ``c``; ``max_dev[r, c]`` the
    largest absolute deviation observed for the pair.
    """

    region_names: list[str]
    counts: np.ndarray
    max_dev: np.ndarray
    n_experiments: int

    def reach(self, region: int) -> np.ndarray:
        """Fraction of receiving regions touched by injections in ``region``."""
        return self.counts[region] > 0


class _MatrixSink:
    def __init__(self, region_of_instr: np.ndarray, scale: np.ndarray,
                 n_regions: int, rel_threshold: float):
        self.region_of_instr = region_of_instr
        self.scale = scale
        self.rel_threshold = rel_threshold
        self.counts = np.zeros((n_regions, n_regions), dtype=np.int64)
        self.max_dev = np.zeros((n_regions, n_regions))

    def consume(self, first, abs_diff, valid, sites, bits):
        block = slice(first, first + abs_diff.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):
            significant = (abs_diff / self.scale[block, None]
                           > self.rel_threshold)
        if valid is not None:
            significant &= valid
        row, lane = np.nonzero(significant)
        pair = (self.region_of_instr[sites][lane],
                self.region_of_instr[block][row])
        np.add.at(self.counts, pair, 1)
        np.maximum.at(self.max_dev, pair, abs_diff[row, lane])


def propagation_matrix(
    workload: Workload,
    flat: np.ndarray,
    rel_threshold: float = 1e-8,
    batch_lanes: int = 512,
) -> PropagationMatrix:
    """Measure the region-to-region propagation matrix for an experiment set.

    All experiments are replayed (masked or not — the matrix describes
    propagation structure, not boundary evidence).
    """
    prog = workload.program
    space = SampleSpace.of_program(prog)
    flat = np.sort(np.asarray(flat, dtype=np.int64))
    if flat.size == 0:
        raise ValueError("no experiments given")
    scale = np.maximum(
        np.abs(workload.trace.values.astype(np.float64)), 1e-300)
    sink = _MatrixSink(prog.region_ids, scale, len(prog.region_names),
                       rel_threshold)
    replayer = BatchReplayer(workload.trace)
    for i in range(0, flat.size, batch_lanes):
        chunk = flat[i:i + batch_lanes]
        instrs, bits = space.instructions_of(chunk)
        replayer.replay(instrs, bits, sink=sink)
    return PropagationMatrix(
        region_names=list(prog.region_names),
        counts=sink.counts,
        max_dev=sink.max_dev,
        n_experiments=int(flat.size),
    )


_HEAT = " .:-=+*#%@"


def render_heatmap(matrix: PropagationMatrix,
                   max_regions: int = 20) -> str:
    """Render the matrix as a text heat map (rows inject, columns receive).

    Regions with no activity in either direction are dropped; intensity is
    log-scaled counts.
    """
    active = np.flatnonzero(matrix.counts.sum(axis=1)
                            + matrix.counts.sum(axis=0))
    active = active[:max_regions]
    if active.size == 0:
        return "(no significant propagation recorded)"
    sub = matrix.counts[np.ix_(active, active)].astype(np.float64)
    logged = np.log1p(sub)
    peak = logged.max() or 1.0
    levels = (logged / peak * (len(_HEAT) - 1)).astype(int)

    names = [matrix.region_names[a] for a in active]
    width = max(len(n) for n in names)
    lines = [f"propagation heat map ({matrix.n_experiments} experiments; "
             "rows inject, columns receive)"]
    header = " " * (width + 2) + " ".join(f"{i:>2d}" for i in
                                          range(len(active)))
    lines.append(header)
    for i, name in enumerate(names):
        cells = "  ".join(_HEAT[levels[i, j]] for j in range(len(active)))
        lines.append(f"{name:<{width}}  {cells}")
    lines.append("legend: " + " ".join(
        f"{i}={n}" for i, n in enumerate(names)))
    return "\n".join(lines)

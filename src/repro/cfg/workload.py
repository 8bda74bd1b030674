"""CFG workloads: the campaign-facing bundle for CFG programs.

A :class:`CfgWorkload` is a drop-in :class:`~repro.kernels.workload.Workload`
whose ``program`` is a :class:`~repro.cfg.program.CfgProgram`.  Everything
downstream — comparator, spec-keyed checkpoints, registry rebuild on dist
nodes — is inherited unchanged; only golden-trace construction differs
(the CFG interpreter instead of the tape interpreter).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..kernels.workload import Workload
from .interpreter import CfgGoldenTrace
from .program import CfgProgram

__all__ = ["CfgWorkload", "is_cfg_workload"]


@dataclass
class CfgWorkload(Workload):
    """A CFG benchmark instance ready for fault injection."""

    @property
    def trace(self) -> CfgGoldenTrace:
        """Golden CFG trace (computed lazily, cached on the program)."""
        return self.program.trace


def is_cfg_workload(workload: Workload) -> bool:
    """True when ``workload`` carries a CFG program (by shape, not type,
    so spec-rebuilt instances from any module qualify)."""
    return isinstance(workload.program, CfgProgram)

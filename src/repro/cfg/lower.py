"""Lossless lowering of straight-line tapes into one-block CFG programs.

An SSA tape is the degenerate CFG: one basic block whose row ``i`` writes
register ``i``, closed by ``ret``.  Lowering therefore copies the tape's
row arrays verbatim (operand indices double as register indices), keeps
golden-direction guard rows in place, and reuses the tape's outputs as
output registers.  Dynamic and static structure coincide — ``len``,
``site_indices``, ``region_ids`` and the sample space are unchanged — so a
campaign run through the CFG engine on a lowered program must be
bit-identical to the tape engine, which the test suite asserts for
outcomes, boundaries and checkpoints.

Lowered workloads re-register under the ``cfg-lowered`` kernel name so
dist nodes can rebuild them from the spec
``("cfg-lowered", {"kernel": ..., "params": ...})`` alone.
"""

from __future__ import annotations

import numpy as np

from ..engine.program import Program
from ..kernels.workload import Workload, from_spec, register
from .program import CfgBlock, CfgProgram, TermKind, Terminator

__all__ = ["lower_program", "lower_workload"]


def lower_program(program: Program, max_steps: int | None = None) -> CfgProgram:
    """Lower a straight-line tape into an equivalent one-block CFG."""
    if isinstance(program, CfgProgram):
        raise TypeError("program is already a CFG program")
    n = len(program)
    block = CfgBlock(
        name="entry",
        ops=program.ops.copy(),
        dst=np.arange(n, dtype=np.int32),
        operands=program.operands.copy(),
        consts=program.consts.copy(),
        is_site=program.is_site.copy(),
        region_ids=program.region_ids.copy(),
        term=Terminator(TermKind.RET),
    )
    lowered = CfgProgram(
        name=program.name,
        dtype=program.dtype,
        n_registers=max(1, n),
        blocks=[block],
        outputs=program.outputs.copy(),
        inputs=program.inputs.copy(),
        region_names=list(program.region_names),
        spec=None,
        max_steps=max_steps,
    )
    lowered.validate()
    return lowered


def lower_workload(workload: Workload, max_steps: int | None = None):
    """Wrap a tape workload as a :class:`~repro.cfg.workload.CfgWorkload`.

    The lowered program carries a ``cfg-lowered`` spec wrapping the
    original kernel's provenance, so checkpoint keys distinguish the two
    engines and workers can rebuild the CFG form directly.
    """
    from .workload import CfgWorkload

    lowered = lower_program(workload.program, max_steps=max_steps)
    if workload.spec is not None:
        kernel, params = workload.spec
        lowered.spec = ("cfg-lowered", {"kernel": kernel,
                                        "params": dict(params)})
    return CfgWorkload(
        program=lowered,
        tolerance=workload.tolerance,
        norm=workload.norm,
        description=(workload.description + " (cfg-lowered)").strip(),
    )


@register("cfg-lowered")
def _build_cfg_lowered(kernel: str, params: dict | None = None) -> Workload:
    """Rebuild a lowered workload from its wrapped provenance."""
    inner = from_spec((kernel, dict(params or {})))
    return lower_workload(inner)

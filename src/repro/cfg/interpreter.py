"""Golden (fault-free) execution of CFG programs.

``cfg_golden_run`` walks the CFG scalar-style from the entry block,
recording everything corrupted replay needs:

* the **block path** — the sequence of block ids executed (one *step* per
  block execution), and for each step the register file **at block entry**
  (so a replay lane injecting at dynamic row ``i`` can start from the
  enclosing step's snapshot instead of re-executing the prefix);
* the **dynamic tape** — the value every executed row produced, in path
  order, which defines the fault-site space exactly as a straight-line
  trace does;
* the **branch directions** taken by conditional terminators, so replay
  can detect the first step at which a corrupted lane leaves the golden
  path.

The snapshots cost ``n_steps * n_registers`` values.  Loop-heavy kernels
keep register files small (tens of registers for the kernels shipped here),
so this stays far below the dynamic tape itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..engine.program import Opcode
from .program import CfgProgram, TermKind

__all__ = ["CfgGoldenTrace", "cfg_golden_run"]

# Absolute backstop for golden execution when the program declares no
# max_steps: a golden run that executes this many dynamic rows without
# returning is treated as non-terminating rather than left to spin.
_GOLDEN_STEP_CEILING = 1 << 22


@dataclass(frozen=True)
class CfgGoldenTrace:
    """Golden execution record of a :class:`CfgProgram`.

    ``block_path[t]`` is the block executed at step ``t``; rows of that
    block occupy dynamic indices ``step_starts[t]:step_starts[t+1]`` in
    ``values`` / ``guard_taken``.  ``entry_regs[t]`` snapshots the register
    file on entry to step ``t``; ``branch_taken[t]`` is the predicate of
    step ``t``'s terminator (False for ``jmp`` / ``ret``).
    """

    program: CfgProgram
    block_path: np.ndarray  #: (n_steps,) int32 block id per step
    step_starts: np.ndarray  #: (n_steps + 1,) int64 dynamic-row offsets
    values: np.ndarray  #: (n_dynamic_rows,) dtype — per-row produced values
    guard_taken: np.ndarray  #: (n_dynamic_rows,) bool — guard predicates
    branch_taken: np.ndarray  #: (n_steps,) bool — conditional-branch predicates
    entry_regs: np.ndarray  #: (n_steps, n_registers) dtype — entry snapshots
    final_regs: np.ndarray  #: (n_registers,) dtype — register file at ret

    @property
    def n_steps(self) -> int:
        return len(self.block_path)

    @property
    def output(self) -> np.ndarray:
        return self.final_regs[self.program.outputs]

    @cached_property
    def dyn_is_site(self) -> np.ndarray:
        """Fault-site mask over dynamic rows (per-block masks along the path)."""
        blocks = self.program.blocks
        if self.n_steps == 0:
            return np.zeros(0, dtype=bool)
        return np.concatenate(
            [blocks[b].is_site for b in self.block_path])

    @cached_property
    def dyn_region_ids(self) -> np.ndarray:
        """Region id of every dynamic row (per-block ids along the path)."""
        blocks = self.program.blocks
        if self.n_steps == 0:
            return np.zeros(0, dtype=np.int32)
        return np.concatenate(
            [blocks[b].region_ids for b in self.block_path])

    @cached_property
    def dyn_ops(self) -> np.ndarray:
        """Opcode of every dynamic row (per-block opcodes along the path)."""
        blocks = self.program.blocks
        if self.n_steps == 0:
            return np.zeros(0, dtype=np.uint8)
        return np.concatenate([blocks[b].ops for b in self.block_path])

    @property
    def site_values(self) -> np.ndarray:
        """Golden values at fault sites, in dynamic order."""
        return self.values[self.dyn_is_site]

    def step_of_row(self, rows: np.ndarray) -> np.ndarray:
        """Map dynamic row indices to the step containing them."""
        return np.searchsorted(self.step_starts, np.asarray(rows),
                               side="right") - 1

    def memory_bytes(self) -> int:
        return (self.values.nbytes + self.guard_taken.nbytes
                + self.block_path.nbytes + self.step_starts.nbytes
                + self.branch_taken.nbytes + self.entry_regs.nbytes
                + self.final_regs.nbytes)


def _row_value(op: Opcode, opnd, const: float, regs: np.ndarray,
               inputs: np.ndarray, dtype: np.dtype):
    a = opnd[0]
    if op is Opcode.CONST:
        return dtype.type(const)
    if op is Opcode.INPUT:
        return dtype.type(inputs[a])
    if op is Opcode.COPY:
        return regs[a]
    if op is Opcode.ADD:
        return regs[a] + regs[opnd[1]]
    if op is Opcode.SUB:
        return regs[a] - regs[opnd[1]]
    if op is Opcode.MUL:
        return regs[a] * regs[opnd[1]]
    if op is Opcode.DIV:
        return regs[a] / regs[opnd[1]]
    if op is Opcode.NEG:
        return -regs[a]
    if op is Opcode.ABS:
        return np.abs(regs[a])
    if op is Opcode.SQRT:
        return np.sqrt(regs[a])
    if op is Opcode.FMA:
        return regs[a] * regs[opnd[1]] + regs[opnd[2]]
    if op is Opcode.MAX:
        return np.maximum(regs[a], regs[opnd[1]])
    if op is Opcode.MIN:
        return np.minimum(regs[a], regs[opnd[1]])
    raise AssertionError(f"unhandled opcode {op!r}")


def cfg_golden_run(program: CfgProgram,
                   max_steps: int | None = None) -> CfgGoldenTrace:
    """Execute ``program`` fault-free and record the golden trace.

    ``max_steps`` (dynamic rows + one per executed terminator, matching the
    replay hang bound) defaults to the program's own ``max_steps``, else an
    absolute ceiling; exceeding it raises ``RuntimeError`` because a
    non-terminating *golden* run is a kernel bug, not a fault outcome.
    Mirrors ``golden_run``: a non-finite golden output raises
    ``FloatingPointError``.
    """
    dtype = program.dtype
    inputs = program.inputs
    if max_steps is None:
        max_steps = (int(program.max_steps) if program.max_steps is not None
                     else _GOLDEN_STEP_CEILING)

    regs = np.zeros(program.n_registers, dtype=dtype)
    block_path: list[int] = []
    step_starts: list[int] = [0]
    values: list[np.ndarray] = []
    guard_taken: list[np.ndarray] = []
    branch_taken: list[bool] = []
    entry_snapshots: list[np.ndarray] = []

    cur = 0
    budget = max_steps
    with np.errstate(all="ignore"):
        while True:
            blk = program.blocks[cur]
            budget -= blk.n_rows + 1
            if budget < 0:
                raise RuntimeError(
                    f"golden run of {program.name!r} exceeded max_steps="
                    f"{max_steps}; raise CfgProgram.max_steps or fix the "
                    "kernel's termination condition")
            block_path.append(cur)
            entry_snapshots.append(regs.copy())

            vals = np.empty(blk.n_rows, dtype=dtype)
            guards = np.zeros(blk.n_rows, dtype=bool)
            for j in range(blk.n_rows):
                op = Opcode(blk.ops[j])
                opnd = blk.operands[j]
                if op is Opcode.GUARD_GT:
                    taken = bool(regs[opnd[0]] > regs[opnd[1]])
                    guards[j] = taken
                    v = dtype.type(1.0 if taken else 0.0)
                elif op is Opcode.GUARD_LE:
                    taken = bool(regs[opnd[0]] <= regs[opnd[1]])
                    guards[j] = taken
                    v = dtype.type(1.0 if taken else 0.0)
                else:
                    v = _row_value(op, opnd, blk.consts[j], regs,
                                   inputs, dtype)
                vals[j] = v
                regs[blk.dst[j]] = v
            values.append(vals)
            guard_taken.append(guards)
            step_starts.append(step_starts[-1] + blk.n_rows)

            term = blk.term
            if term.kind is TermKind.RET:
                branch_taken.append(False)
                break
            if term.kind is TermKind.JMP:
                branch_taken.append(False)
                cur = term.target
            else:
                pred = (bool(regs[term.a] > regs[term.b])
                        if term.kind is TermKind.BR_GT
                        else bool(regs[term.a] <= regs[term.b]))
                branch_taken.append(pred)
                cur = term.target if pred else term.target_else

    trace = CfgGoldenTrace(
        program=program,
        block_path=np.asarray(block_path, dtype=np.int32),
        step_starts=np.asarray(step_starts, dtype=np.int64),
        values=(np.concatenate(values) if values
                else np.zeros(0, dtype=dtype)),
        guard_taken=(np.concatenate(guard_taken) if guard_taken
                     else np.zeros(0, dtype=bool)),
        branch_taken=np.asarray(branch_taken, dtype=bool),
        entry_regs=np.stack(entry_snapshots),
        final_regs=regs,
    )
    if not np.all(np.isfinite(trace.output.astype(np.float64))):
        raise FloatingPointError(
            f"golden run of {program.name!r} produced non-finite output")
    return trace

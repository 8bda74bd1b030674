"""Control-flow-general programs: basic blocks, branches, loop back-edges.

The straight-line tape VM (:mod:`repro.engine.program`) models data-dependent
control flow only as *guards* that record the golden branch direction; a
corrupted replay stops being tracked at the first disagreement (§2.2).  That
rules out the paper's crash/detection outcome class and any kernel whose
iteration count is data-dependent — exactly where FlipTracker locates natural
resilience and natural detection, and where Elliott et al. argue iterative
methods must be measured (through their real convergence tests).

This module adds a Bril-style CFG representation on top of the same opcode
set:

* a :class:`CfgProgram` is a list of :class:`CfgBlock` basic blocks, each a
  straight-line tape of rows writing a *register file* (registers are
  mutable across blocks — the loop-carried state the SSA tape cannot
  express), closed by a :class:`Terminator` (``jmp``, conditional
  ``br_gt`` / ``br_le``, or ``ret``);
* execution starts at block 0 with all registers zero and follows
  terminators until ``ret``; the dynamic instruction sequence of the golden
  run (the *golden path*) defines the fault-site space, so a ``CfgProgram``
  exposes the same dynamic facade (``__len__``, ``site_indices``,
  ``region_ids``...) campaign drivers already consume for tapes;
* every straight-line :class:`~repro.engine.program.Program` lowers
  losslessly into a one-block ``CfgProgram`` (:mod:`repro.cfg.lower`), with
  in-block guard rows preserved, so existing campaigns run bit-identically
  through the CFG engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from ..engine.bitflip import bits_for_dtype
from ..engine.program import ARITY, Opcode

__all__ = ["CfgBlock", "CfgProgram", "TermKind", "Terminator"]

_GUARD_CODES = (int(Opcode.GUARD_GT), int(Opcode.GUARD_LE))


class TermKind(IntEnum):
    """Block terminator kinds."""

    JMP = 0  #: unconditional jump to ``target``
    BR_GT = 1  #: branch to ``target`` iff ``reg[a] > reg[b]``, else ``target_else``
    BR_LE = 2  #: branch to ``target`` iff ``reg[a] <= reg[b]``, else ``target_else``
    RET = 3  #: terminate; the output registers are read here


@dataclass(frozen=True)
class Terminator:
    """Control transfer closing a basic block.

    ``a`` / ``b`` are register indices read by conditional branches (-1 for
    ``jmp`` / ``ret``); ``target`` is the taken successor, ``target_else``
    the fall-through successor (-1 unless conditional).  Terminators are not
    fault sites — like tape guards, they only *read* corrupted registers.
    """

    kind: TermKind
    a: int = -1
    b: int = -1
    target: int = -1
    target_else: int = -1

    def successors(self) -> tuple[int, ...]:
        if self.kind is TermKind.RET:
            return ()
        if self.kind is TermKind.JMP:
            return (self.target,)
        return (self.target, self.target_else)

    @property
    def is_conditional(self) -> bool:
        return self.kind in (TermKind.BR_GT, TermKind.BR_LE)


@dataclass
class CfgBlock:
    """One basic block: a straight-line run of register-writing rows.

    Rows reuse the tape :class:`~repro.engine.program.Opcode` set, stored as
    structure-of-arrays exactly like a tape, except that ``dst[j]`` names
    the register row ``j`` writes and ``operands[j]`` hold register indices
    (the input-vector slot for ``INPUT``).  Guard opcodes are legal inside
    blocks — straight-line programs lower with their guards intact — and
    remain non-sites.
    """

    name: str
    ops: np.ndarray  #: (rows,) uint8 opcodes
    dst: np.ndarray  #: (rows,) int32 destination register per row
    operands: np.ndarray  #: (rows, 3) int32 register/slot operands (-1 unused)
    consts: np.ndarray  #: (rows,) float64 immediates for CONST
    is_site: np.ndarray  #: (rows,) bool fault-site mask (guards are False)
    region_ids: np.ndarray  #: (rows,) int32 into ``CfgProgram.region_names``
    term: Terminator

    @property
    def n_rows(self) -> int:
        return len(self.ops)


@dataclass
class CfgProgram:
    """A control-flow graph of basic blocks over one register file.

    Attributes
    ----------
    name / dtype / inputs / spec:
        As on the straight-line :class:`~repro.engine.program.Program`.
    n_registers:
        Size of the register file.  Registers initialise to ``0.0`` at
        entry; blocks read and overwrite them (loop-carried state).
    blocks:
        Basic blocks; block 0 is the entry.
    outputs:
        Register indices read at ``ret`` — the program output vector.
    region_names:
        Labels indexed by every block's per-row ``region_ids``.
    max_steps:
        Optional per-execution cap on dynamic instructions (rows plus one
        per executed terminator).  The golden run must finish within it;
        corrupted replay lanes exceeding it are classified HANG.  ``None``
        derives a default from the golden path length.

    Static structure (blocks, edges, back-edges) is available without
    executing; the *dynamic* facade used by campaign drivers — ``len()``,
    ``site_indices``, ``region_ids``, ``ops``, ``sample_space_size`` — is
    defined by the golden path and computed from the cached golden trace on
    first use.
    """

    name: str
    dtype: np.dtype
    n_registers: int
    blocks: list[CfgBlock]
    outputs: np.ndarray
    inputs: np.ndarray
    region_names: list[str]
    spec: tuple[str, dict] | None = None
    max_steps: int | None = None
    _trace: object = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------ static structure

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n_static_instructions(self) -> int:
        """Total rows across all blocks (terminators excluded)."""
        return sum(b.n_rows for b in self.blocks)

    @property
    def n_guards(self) -> int:
        """Static count of in-block guard rows plus conditional terminators."""
        in_block = sum(int(np.isin(b.ops, _GUARD_CODES).sum())
                       for b in self.blocks)
        branches = sum(1 for b in self.blocks if b.term.is_conditional)
        return in_block + branches

    def edges(self) -> list[tuple[int, int]]:
        """All CFG edges ``(src_block, dst_block)`` in block order."""
        out = []
        for i, blk in enumerate(self.blocks):
            seen = set()
            for succ in blk.term.successors():
                if succ not in seen:  # br with both targets equal: one edge
                    seen.add(succ)
                    out.append((i, succ))
        return out

    def back_edges(self) -> list[tuple[int, int]]:
        """Edges closing a loop: DFS from the entry, edge into an ancestor."""
        back: list[tuple[int, int]] = []
        state = np.zeros(self.n_blocks, dtype=np.uint8)  # 0 new 1 open 2 done
        stack: list[tuple[int, int]] = [(0, 0)]
        state[0] = 1
        while stack:
            node, child = stack[-1]
            succs = self.blocks[node].term.successors()
            if child < len(succs):
                stack[-1] = (node, child + 1)
                nxt = succs[child]
                if state[nxt] == 1:
                    back.append((node, nxt))
                elif state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, 0))
            else:
                state[node] = 2
                stack.pop()
        return back

    @property
    def n_backedges(self) -> int:
        return len(self.back_edges())

    def validate(self) -> None:
        """Check structural well-formedness; raises ``ValueError``."""
        if not self.blocks:
            raise ValueError("CFG program has no blocks")
        if self.n_registers < 1:
            raise ValueError("CFG program needs at least one register")
        if len(self.outputs) == 0:
            raise ValueError("CFG program declares no outputs")
        if np.any(self.outputs < 0) or np.any(self.outputs >= self.n_registers):
            raise ValueError("output register out of range")
        n_blocks = self.n_blocks
        for bi, blk in enumerate(self.blocks):
            rows = blk.n_rows
            if not (len(blk.dst) == len(blk.consts) == len(blk.is_site)
                    == len(blk.region_ids) == rows
                    and blk.operands.shape == (rows, 3)):
                raise ValueError(
                    f"block {bi} ({blk.name!r}) has inconsistent row arrays")
            if rows:
                if np.any(blk.dst < 0) or np.any(blk.dst >= self.n_registers):
                    raise ValueError(f"block {bi} writes an out-of-range register")
                if np.any(blk.region_ids < 0) or \
                        np.any(blk.region_ids >= len(self.region_names)):
                    raise ValueError(f"block {bi} has an unknown region id")
            for j in range(rows):
                op = Opcode(blk.ops[j])
                arity = ARITY[op]
                opnd = blk.operands[j]
                if op is Opcode.INPUT:
                    if not 0 <= opnd[0] < len(self.inputs):
                        raise ValueError(
                            f"block {bi} row {j}: INPUT slot out of range")
                    arity = 1  # operand 0 is the input slot, not a register
                elif arity:
                    used = opnd[:arity]
                    if np.any(used < 0) or np.any(used >= self.n_registers):
                        raise ValueError(
                            f"block {bi} row {j}: operand register out of range")
                if np.any(opnd[arity:] != -1):
                    raise ValueError(f"block {bi} row {j}: stray operands")
                if int(blk.ops[j]) in _GUARD_CODES and blk.is_site[j]:
                    raise ValueError("guard rows cannot be fault sites")
            term = blk.term
            for succ in term.successors():
                if not 0 <= succ < n_blocks:
                    raise ValueError(
                        f"block {bi} terminator targets unknown block {succ}")
            if term.is_conditional:
                for reg in (term.a, term.b):
                    if not 0 <= reg < self.n_registers:
                        raise ValueError(
                            f"block {bi} branch reads an out-of-range register")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be positive")

    # ------------------------------------------------------- dynamic facade
    #
    # Campaign drivers address experiments by dynamic instruction index of
    # the *golden path*; these properties give a CfgProgram the same shape
    # a straight-line Program has, backed by the cached golden trace.

    @property
    def trace(self):
        """Golden CFG trace, computed lazily and cached on the program."""
        if self._trace is None:
            from .interpreter import cfg_golden_run
            self._trace = cfg_golden_run(self)
        return self._trace

    def __len__(self) -> int:
        """Number of dynamic instruction rows along the golden path."""
        return int(len(self.trace.values))

    @property
    def n_instructions(self) -> int:
        return len(self)

    @property
    def is_site(self) -> np.ndarray:
        """Fault-site mask over the golden path's dynamic rows."""
        return self.trace.dyn_is_site

    @property
    def site_indices(self) -> np.ndarray:
        return np.flatnonzero(self.is_site)

    @property
    def n_sites(self) -> int:
        return int(self.is_site.sum())

    @property
    def bits_per_site(self) -> int:
        return bits_for_dtype(self.dtype)

    @property
    def sample_space_size(self) -> int:
        return self.n_sites * self.bits_per_site

    @property
    def region_ids(self) -> np.ndarray:
        """Region id of every dynamic row along the golden path."""
        return self.trace.dyn_region_ids

    @property
    def ops(self) -> np.ndarray:
        """Opcode of every dynamic row along the golden path."""
        return self.trace.dyn_ops

    def region_of(self, instr):
        return self.region_ids[instr]

    def resolved_max_steps(self) -> int:
        """The replay hang bound: explicit ``max_steps`` or a golden-derived
        default (a corrupted lane may legitimately run somewhat longer than
        the golden path — e.g. extra solver iterations — so the default
        leaves 4x headroom before declaring HANG).  Counted in dynamic
        rows plus one per executed terminator, like the golden budget."""
        if self.max_steps is not None:
            return int(self.max_steps)
        golden_total = len(self) + self.trace.n_steps
        return 4 * golden_total + 64

"""Scalar golden-run evaluation of tape programs.

The *golden run* (§2.2) executes the program without any injected fault and
records the value of every dynamic instruction.  That trace is:

* the source of per-site golden values from which all possible injected
  errors are computed analytically (:func:`repro.engine.bitflip.injected_errors`),
* the reference against which corrupted replays measure per-instruction
  deviation ``|x_j - x'_j|``,
* the reference output for outcome classification under tolerance ``T``.

The interpreter here is a deliberately simple, obviously-correct scalar
evaluator; the vectorised replayer in :mod:`repro.engine.batch` must agree
with it bit-for-bit on un-corrupted lanes (a property-tested invariant).

All arithmetic is performed in the program's declared precision (fp32 tapes
round every intermediate to single precision), because the fault model's
discrete sample space and error magnitudes are precision-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .program import Opcode, Program

__all__ = ["GoldenTrace", "golden_run"]


@dataclass(frozen=True)
class GoldenTrace:
    """The recorded fault-free execution of a program.

    Attributes
    ----------
    program:
        The tape that was executed.
    values:
        Per-instruction results in program precision, shape ``(n,)``.
    guard_taken:
        Golden branch direction for each instruction; only meaningful at
        guard opcodes (``False`` elsewhere).
    """

    program: Program
    values: np.ndarray
    guard_taken: np.ndarray

    @property
    def output(self) -> np.ndarray:
        """Golden program output vector (program precision)."""
        return self.values[self.program.outputs]

    @property
    def site_values(self) -> np.ndarray:
        """Golden values at fault sites only, aligned with ``site_indices``."""
        return self.values[self.program.is_site]

    def memory_bytes(self) -> int:
        """Storage footprint of the trace — the paper's §5 'overhead' cost."""
        return self.values.nbytes + self.guard_taken.nbytes

    def __getstate__(self) -> dict:
        # Private memos (the replay plan, see repro.engine.plan.plan_for)
        # stay out of the pickle: an unpickled trace rebuilds its plan on
        # first use, which is cheaper than shipping it to every worker.
        return {k: v for k, v in self.__dict__.items()
                if not k.startswith("_")}


def golden_run(program: Program) -> GoldenTrace:
    """Execute ``program`` fault-free and record every dynamic value."""
    n = len(program)
    dtype = program.dtype
    values = np.zeros(n, dtype=dtype)
    guard_taken = np.zeros(n, dtype=bool)
    inputs = program.inputs.astype(dtype)
    ops = program.ops
    opnd = program.operands
    consts = program.consts.astype(dtype)

    # Local bindings for speed in the hot scalar loop.
    CONST, INPUT, COPY = int(Opcode.CONST), int(Opcode.INPUT), int(Opcode.COPY)
    ADD, SUB, MUL, DIV = int(Opcode.ADD), int(Opcode.SUB), int(Opcode.MUL), int(Opcode.DIV)
    NEG, ABS, SQRT, FMA = int(Opcode.NEG), int(Opcode.ABS), int(Opcode.SQRT), int(Opcode.FMA)
    MAX, MIN = int(Opcode.MAX), int(Opcode.MIN)
    GGT, GLE = int(Opcode.GUARD_GT), int(Opcode.GUARD_LE)

    with np.errstate(all="ignore"):
        for i in range(n):
            op = ops[i]
            a, b, c = opnd[i]
            if op == CONST:
                v = consts[i]
            elif op == INPUT:
                v = inputs[a]
            elif op == COPY:
                v = values[a]
            elif op == ADD:
                v = values[a] + values[b]
            elif op == SUB:
                v = values[a] - values[b]
            elif op == MUL:
                v = values[a] * values[b]
            elif op == DIV:
                v = values[a] / values[b]
            elif op == NEG:
                v = -values[a]
            elif op == ABS:
                v = np.abs(values[a])
            elif op == SQRT:
                v = np.sqrt(values[a])
            elif op == FMA:
                v = values[a] * values[b] + values[c]
            elif op == MAX:
                v = np.maximum(values[a], values[b])
            elif op == MIN:
                v = np.minimum(values[a], values[b])
            elif op == GGT:
                taken = bool(values[a] > values[b])
                guard_taken[i] = taken
                v = dtype.type(1.0 if taken else 0.0)
            elif op == GLE:
                taken = bool(values[a] <= values[b])
                guard_taken[i] = taken
                v = dtype.type(1.0 if taken else 0.0)
            else:  # pragma: no cover - builder cannot emit unknown opcodes
                raise ValueError(f"unknown opcode {op} at instruction {i}")
            values[i] = v

    if not np.all(np.isfinite(values[program.outputs])):
        raise FloatingPointError(
            f"golden run of {program.name!r} produced non-finite output; "
            "the fault-free program must be numerically healthy"
        )
    return GoldenTrace(program=program, values=values, guard_taken=guard_taken)

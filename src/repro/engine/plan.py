"""Per-trace replay plans: one opcode table and one interpreter loop.

Every replay in the package — a phase-A outcome sweep, an Algorithm 1
sink sweep, a compositional ``sweep_section`` and a CFG basic block —
executes a list of *steps* with :func:`run_steps`.  A step is one row of
the program resolved against a *register file* ``V``, anything whose
``V[i]`` is a ``(lanes,)`` vector (a list of row views, a 2-D array)::

    (kind, ufunc, dst, a, b, c)

``kind`` and ``ufunc`` come from :data:`OPCODES`; ``dst``/``a``/``b``/``c``
index ``V``.  The mapping from rows to ``V`` indices is the plan's only
degree of freedom:

* the **slot map** (:attr:`ReplayPlan.slot_steps`) runs outcome-only
  replays.  It executes the rows that reach an output or a guard, and a
  linear scan over their live ranges packs them into a few reusable
  slots, so a sweep runs in a cache-sized ``(n_slots, lanes)`` buffer
  instead of the ``(rows, lanes)`` value matrix;
* the **identity map** (:attr:`ReplayPlan.steps`) runs every row into its
  own row of the value matrix, for consumers that read every row (sink
  replays, ``sweep_section``).

Neither map branches on where an operand comes from: a call fills the
live-ins of its start row (rows below it that a later row still reads)
with golden lane vectors before the loop runs.  CFG blocks
(:mod:`repro.cfg.replay`) build their steps from the same table over
register indices.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left

import numpy as np

from ..obs import metrics as _metrics
from .program import ARITY, Opcode

__all__ = ["OPCODES", "ReplayPlan", "make_step", "operand_rows", "plan_for",
           "run_steps"]

# Step kinds, in the order the loop tests them (most frequent first).
BINARY, FMA, UNARY, COPY, LOAD, GUARD, FMA_ALIASED = range(7)


# np.maximum/np.minimum deprecate a positional ``out``.
def _maximum(x, y, out):
    return np.maximum(x, y, out=out)


def _minimum(x, y, out):
    return np.minimum(x, y, out=out)


#: opcode -> (step kind, ufunc).  FMA is multiply-then-add with two
#: roundings; LOAD rows (CONST/INPUT) fill their value.
OPCODES = {
    int(Opcode.ADD): (BINARY, np.add),
    int(Opcode.SUB): (BINARY, np.subtract),
    int(Opcode.MUL): (BINARY, np.multiply),
    int(Opcode.DIV): (BINARY, np.divide),
    int(Opcode.MAX): (BINARY, _maximum),
    int(Opcode.MIN): (BINARY, _minimum),
    int(Opcode.FMA): (FMA, None),
    int(Opcode.NEG): (UNARY, np.negative),
    int(Opcode.ABS): (UNARY, np.absolute),
    int(Opcode.SQRT): (UNARY, np.sqrt),
    int(Opcode.COPY): (COPY, None),
    int(Opcode.CONST): (LOAD, None),
    int(Opcode.INPUT): (LOAD, None),
    int(Opcode.GUARD_GT): (GUARD, np.greater),
    int(Opcode.GUARD_LE): (GUARD, np.less_equal),
}

_CONST, _INPUT = int(Opcode.CONST), int(Opcode.INPUT)
_GUARDS = [int(Opcode.GUARD_GT), int(Opcode.GUARD_LE)]
_ARITY = {int(op): (0 if op is Opcode.INPUT else k) for op, k in ARITY.items()}


def operand_rows(op: int, operands) -> tuple[int, ...]:
    """The value operands of one row (INPUT's operand is an input index)."""
    return tuple(operands[:_ARITY[op]])


def make_step(op: int, dst: int, a: int = 0, b: int = 0, c: int = 0,
              load=None, key: int = 0) -> tuple:
    """One step of opcode ``op`` writing ``V[dst]`` from ``V[a, b, c]``.

    ``load`` is the filled value of a CONST/INPUT row and ``key`` the
    index a guard reports to the loop's ``on_guard`` callback.  An FMA
    whose destination is its addend (CFG registers can alias) becomes
    :data:`FMA_ALIASED`, which reads ``c`` before it writes ``dst``.
    """
    kind, fn = OPCODES[op]
    if kind == LOAD:
        return (LOAD, None, dst, 0, 0, load)
    if kind == GUARD:
        return (GUARD, fn, dst, a, b, key)
    if kind == FMA and dst == c:
        return (FMA_ALIASED, None, dst, a, b, c)
    return (kind, fn, dst, a, b, c)


def _sweep(steps, V, on_guard) -> None:
    mul, add, copyto = np.multiply, np.add, np.copyto
    for kind, fn, d, a, b, c in steps:
        if kind == BINARY:
            fn(V[a], V[b], V[d])
        elif kind == FMA:
            x = V[d]
            mul(V[a], V[b], x)
            add(x, V[c], x)
        elif kind == UNARY:
            fn(V[a], V[d])
        elif kind == COPY:
            copyto(V[d], V[a])
        elif kind == LOAD:
            V[d].fill(c)
        elif kind == GUARD:
            pred = fn(V[a], V[b])
            copyto(V[d], pred)
            on_guard(c, pred)
        else:  # FMA_ALIASED
            add(mul(V[a], V[b]), V[c], V[d])


def run_steps(steps: list, V: list, lo: int, hi: int, on_guard,
              inject=()) -> None:
    """Execute ``steps[lo:hi]`` over the register file ``V`` in place.

    ``inject`` is a position-sorted sequence of ``(pos, dst, lanes,
    values)``: right after step ``pos`` runs, ``V[dst][lanes] = values``
    (``lo <= pos < hi``).  ``on_guard(key, pred)`` sees every guard's
    per-lane predicate.
    """
    with np.errstate(all="ignore"):
        for pos, dst, lanes, values in inject:
            _sweep(steps[lo:pos + 1], V, on_guard)
            V[dst][lanes] = values
            lo = pos + 1
        _sweep(steps[lo:hi], V, on_guard)


class ReplayPlan:
    """Both step maps of one golden trace, built once (see :func:`plan_for`).

    Attributes
    ----------
    steps, last_use:
        Identity map: step ``i`` computes row ``i`` into ``V[i]``;
        ``last_use[r]`` is the last row reading ``r`` (``-1`` if none).
    slot_steps, slot_rows, slot_pos, slot, slot_last, n_slots:
        Slot map over the rows reaching an output or a guard:
        ``slot_steps[p]`` computes row ``slot_rows[p]`` into
        ``V[slot[row]]``; ``slot_pos[row]`` is its position (``-1`` for
        rows the map skips) and ``slot_last`` its last use among mapped
        rows.
    """

    def __init__(self, trace):
        prog = trace.program
        n = len(prog)
        dtype = prog.dtype
        ops = prog.ops.tolist()
        opnd = prog.operands.tolist()
        consts = prog.consts.astype(dtype)
        inputs = prog.inputs.astype(dtype)
        deps = [operand_rows(op, o) for op, o in zip(ops, opnd)]
        loads = {i: inputs[opnd[i][0]] if ops[i] == _INPUT else consts[i]
                 for i in range(n) if ops[i] in (_CONST, _INPUT)}

        def step(i, m):
            a, b, c = (deps[i] + (0, 0, 0))[:3]
            return make_step(ops[i], m[i], m[a], m[b], m[c], loads.get(i),
                             key=i)

        self.last_use = self._last_use(deps, range(n), n)
        self.steps = [step(i, range(n)) for i in range(n)]

        # Rows reaching an output or a guard: everything an outcome-only
        # replay can observe.
        live = np.zeros(n, dtype=bool)
        live[prog.outputs] = True
        live[np.isin(prog.ops, _GUARDS)] = True
        for i in range(n - 1, -1, -1):
            if live[i]:
                for a in deps[i]:
                    live[a] = True
        rows = np.flatnonzero(live).tolist()
        self.slot_last = self._last_use(deps, rows, n)
        self.slot, self.n_slots = self._allocate(deps, rows,
                                                 self.slot_last, prog.outputs)
        self.slot_rows = rows
        self.slot_pos = np.full(n, -1, dtype=np.int64)
        self.slot_pos[rows] = np.arange(len(rows))
        slot = self.slot.tolist()
        self.slot_steps = [step(i, slot) for i in rows]

    @staticmethod
    def _last_use(deps, rows, n: int) -> np.ndarray:
        last = np.full(n, -1, dtype=np.int64)
        for i in rows:
            for a in deps[i]:
                last[a] = i
        return last

    @staticmethod
    def _allocate(deps, rows, last, outputs) -> tuple[np.ndarray, int]:
        """Linear-scan slot allocation over ``rows`` in tape order.

        Output rows keep their slot to the end (they are read after the
        sweep).  An operand's slot is released only after its last
        consumer's slot is assigned, so a row never overwrites its own
        operands.
        """
        slot = np.full(len(last), -1, dtype=np.int64)
        pinned = set(np.asarray(outputs).tolist())
        last = last.tolist()
        free: list[int] = []
        n_slots = 0
        for i in rows:
            if free:
                s = free.pop()
            else:
                s, n_slots = n_slots, n_slots + 1
            slot[i] = s
            for a in set(deps[i]):
                if last[a] == i and a not in pinned:
                    free.append(int(slot[a]))
            if last[i] < 0 and i not in pinned:
                free.append(s)
        return slot, n_slots

    def live_ins(self, start: int, slot_map: bool) -> np.ndarray:
        """Rows below ``start`` that a row at or after ``start`` reads."""
        last = self.slot_last if slot_map else self.last_use
        return np.flatnonzero(last[:start] >= start)

    def first_slot_pos(self, row: int) -> int:
        """Position of the first slot-map step at or after ``row``."""
        return bisect_left(self.slot_rows, row)


_PLAN_LOCK = threading.Lock()


def plan_for(trace) -> ReplayPlan:
    """The trace's :class:`ReplayPlan`, built on first use.

    The plan is memoized on the trace object, so every replayer of one
    trace in a process (campaign phases, adaptive rounds, pool threads)
    shares a single build.
    """
    plan = trace.__dict__.get("_replay_plan")
    if plan is None:
        with _PLAN_LOCK:
            plan = trace.__dict__.get("_replay_plan")
            if plan is None:
                t0 = time.perf_counter()
                plan = ReplayPlan(trace)
                # GoldenTrace is a frozen dataclass; the memo is not a field.
                trace.__dict__["_replay_plan"] = plan
                if _metrics.METRICS.enabled:
                    _metrics.inc("replay.plans")
                    _metrics.observe("replay.plan_seconds",
                                     time.perf_counter() - t0)
    return plan

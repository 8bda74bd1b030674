"""Test-only reference implementations and process set-ups.

``scalar_injected_run`` re-executes a tape one instruction at a time with a
single bit flip applied — an independent oracle for the vectorised batch
replayer (different code path, same required semantics).

Pool workers start by ``fork`` only in a process that runs one thread
(:func:`repro.parallel.executor.pool_start_method`), and pytest may keep
threads of earlier tests alive.  :func:`run_fresh` runs code in a new
interpreter, where pools fork; :func:`extra_thread` keeps a second thread
alive, so pools start from the forkserver.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.engine.bitflip import flip_bits
from repro.engine.program import Opcode, Program


def scalar_injected_run(
    program: Program, site: int, bit: int, value=None,
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """Scalar re-execution with one injected bit flip.

    Returns ``(values, outputs, diverged_at)`` where ``values`` holds every
    dynamic value (program precision) after injection and ``diverged_at`` is
    the first guard whose branch direction differs from the golden run, or
    ``None``.  An explicit ``value`` replaces the flipped bit as the
    corrupted value of ``site`` (``bit`` is then ignored).
    """
    dtype = program.dtype
    n = len(program)
    inputs = program.inputs.astype(dtype)
    consts = program.consts.astype(dtype)

    # Golden pass to learn guard directions.
    golden = _evaluate(program, inputs, consts, None, None, None)[0]
    golden_guards = {}
    for i in range(n):
        if program.ops[i] in (int(Opcode.GUARD_GT), int(Opcode.GUARD_LE)):
            golden_guards[i] = bool(golden[i] != 0)

    values, diverged_at = _evaluate(program, inputs, consts, site, bit,
                                    golden_guards, value)
    outputs = values[program.outputs].astype(np.float64)
    return values, outputs, diverged_at


def _evaluate(program, inputs, consts, site, bit, golden_guards,
              value=None):
    dtype = program.dtype
    n = len(program)
    values = np.zeros(n, dtype=dtype)
    diverged_at = None
    with np.errstate(all="ignore"):
        for i in range(n):
            op = program.ops[i]
            a, b, c = program.operands[i]
            if op == int(Opcode.CONST):
                v = consts[i]
            elif op == int(Opcode.INPUT):
                v = inputs[a]
            elif op == int(Opcode.COPY):
                v = values[a]
            elif op == int(Opcode.ADD):
                v = values[a] + values[b]
            elif op == int(Opcode.SUB):
                v = values[a] - values[b]
            elif op == int(Opcode.MUL):
                v = values[a] * values[b]
            elif op == int(Opcode.DIV):
                v = values[a] / values[b]
            elif op == int(Opcode.NEG):
                v = -values[a]
            elif op == int(Opcode.ABS):
                v = np.abs(values[a])
            elif op == int(Opcode.SQRT):
                v = np.sqrt(values[a])
            elif op == int(Opcode.FMA):
                v = values[a] * values[b] + values[c]
            elif op == int(Opcode.MAX):
                v = np.maximum(values[a], values[b])
            elif op == int(Opcode.MIN):
                v = np.minimum(values[a], values[b])
            elif op in (int(Opcode.GUARD_GT), int(Opcode.GUARD_LE)):
                if op == int(Opcode.GUARD_GT):
                    taken = bool(values[a] > values[b])
                else:
                    taken = bool(values[a] <= values[b])
                v = dtype.type(1.0 if taken else 0.0)
                if (golden_guards is not None and diverged_at is None
                        and taken != golden_guards[i]):
                    diverged_at = i
            else:  # pragma: no cover
                raise AssertionError(f"unknown opcode {op}")
            values[i] = v
            if site is not None and i == site:
                values[i] = (flip_bits(values[i:i + 1], bit)[0]
                             if value is None else value)
    return values, diverged_at


ROOT = Path(__file__).resolve().parents[1]


def run_fresh(code: str, *args: str,
              timeout: float = 300) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with ``src`` and the repository
    root importable; raises if it exits non-zero."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc


@contextmanager
def extra_thread():
    """Keep a second thread alive for the duration of the block."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, name="test-extra-thread")
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join(timeout=10)

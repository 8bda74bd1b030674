"""Test-only reference implementations and process set-ups.

``scalar_injected_run`` re-executes a tape one instruction at a time with a
single bit flip applied — an independent oracle for the vectorised batch
replayer (different code path, same required semantics).

Pool workers start by ``fork`` only in a process that runs one thread
(:func:`repro.parallel.executor.pool_start_method`), and pytest may keep
threads of earlier tests alive.  :func:`run_fresh` runs code in a new
interpreter, where pools fork; :func:`extra_thread` keeps a second thread
alive, so pools start from the forkserver.

Kill-and-resume tests watch a campaign's checkpoint logs through
:func:`whole_records` and prove completed work was adopted with
:class:`LogSnapshot`.  :func:`assert_same_adaptive` compares two §3.4
campaign results on every array they carry.
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
from repro.io.recordlog import read_records


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


class SinkStream:
    """A propagation sink that records its block stream.

    A tape replay streams its deviations in row blocks; :meth:`replays`
    reassembles each recorded replay into the whole-batch matrices and
    checks the stream's contract on the way.
    """

    def __init__(self):
        self.blocks = []

    def consume(self, first_instr, abs_diff, valid, sites, bits):
        self.blocks.append((first_instr, abs_diff.copy(),
                            None if valid is None else valid.copy(),
                            sites.copy(), bits.copy()))

    def replays(self, n: int) -> list[tuple]:
        """Every recorded replay of an ``n``-row tape, in order, as
        ``(first, abs_diff, valid, sites, bits)`` over rows ``[first, n)``.

        Asserts that each replay's blocks tile ``[min(sites), n)`` in row
        order, each with every lane and the batch's ``sites``/``bits``,
        and that a block leaves out ``valid`` only while no lane has
        diverged by its last row.
        """
        out = []
        blocks = iter(self.blocks)
        for first, dev, valid, sites, bits in blocks:
            assert first == sites.min()
            devs, valids = [], []
            row = first
            while True:
                assert dev.dtype == np.float64
                assert dev.shape[0] > 0 and dev.shape[1] == sites.size
                if valid is None:
                    valid = np.ones(dev.shape, dtype=bool)
                else:
                    assert valid.shape == dev.shape and valid.dtype == bool
                    assert not valid[-1].all()
                devs.append(dev)
                valids.append(valid)
                row += dev.shape[0]
                if row == n:
                    break
                assert row < n
                block = next(blocks, None)
                assert block is not None, f"stream stops at row {row} of {n}"
                r0, dev, valid, s, b = block
                assert r0 == row
                assert np.array_equal(s, sites) and np.array_equal(b, bits)
            out.append((first, np.concatenate(devs), np.concatenate(valids),
                        sites, bits))
        return out

    def assemble(self, n: int) -> tuple:
        """The one recorded replay of an ``n``-row tape (:meth:`replays`)."""
        (replay,) = self.replays(n)
        return replay


def assert_same_adaptive(got, want) -> None:
    """Two §3.4 campaign results (adaptive or combined) agree bit for bit:
    their samples, boundaries and round histories."""
    for key in ("flat", "outcomes", "injected_errors"):
        np.testing.assert_array_equal(getattr(got.sampled, key),
                                      getattr(want.sampled, key), key)
    for key in ("thresholds", "info", "exact"):
        np.testing.assert_array_equal(getattr(got.boundary, key),
                                      getattr(want.boundary, key), key)
    assert got.rounds == want.rounds
    assert got.round_history == want.round_history


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


def whole_records(directory: Path, pattern: str = "a-*.log") -> int:
    """Whole records in the checkpoint logs of ``directory`` matching
    ``pattern``: how much completed work a running campaign has banked."""
    return sum(len(read_records(log)) for log in Path(directory).glob(pattern))


class LogSnapshot:
    """A checkpoint log's whole records at one moment.

    A resumed campaign must adopt them, not redo them.
    :meth:`assert_adopted` checks both halves of that: the log's bytes up
    to the end of its last whole record are unchanged, and no chunk index
    among those records was appended again.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        records = read_records(self.path)
        self.chunks = {record.meta["chunk"] for record in records}
        # The log only grows past a whole record, so a second read still
        # holds the first read's records as its prefix.
        self.prefix = (self.path.read_bytes()[:records[-1].end]
                       if records else b"")

    def assert_adopted(self) -> None:
        assert self.path.read_bytes()[:len(self.prefix)] == self.prefix, \
            f"completed records of {self.path.name} were rewritten"
        again = sorted(record.meta["chunk"]
                       for record in read_records(self.path)
                       if record.end > len(self.prefix)
                       and record.meta["chunk"] in self.chunks)
        assert not again, f"completed chunks {again} were run again"

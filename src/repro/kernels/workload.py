"""Workload abstraction and kernel registry.

A *workload* bundles everything a fault-injection campaign needs: the tape
program, the domain tolerance ``T`` (§2.1 — "an acceptable tolerance level
defined by the domain user"), and the output-error norm.  Kernels register
builder functions under short names so that

* benches and examples construct workloads uniformly (``build("cg", n=16)``),
* dist nodes rebuild the tape from its ``(name, params)`` spec, which is
  all the coordinator ships them over TCP.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from ..engine.classify import OutputComparator
from ..engine.interpreter import GoldenTrace, golden_run
from ..engine.program import Program

__all__ = [
    "Workload",
    "available_kernels",
    "build",
    "from_spec",
    "register",
    "workload_key",
]


def workload_key(spec: tuple[str, dict], tolerance: float, norm: str) -> str:
    """Stable content key of a spec-built workload.

    Disk artifacts (campaign caches, checkpoints) are keyed by everything
    that determines campaign outcomes: the ``(kernel, params)`` provenance
    plus the tolerance and norm that govern classification.
    """
    name, params = spec
    payload = json.dumps(
        {"name": name, "params": params, "tolerance": tolerance,
         "norm": norm},
        sort_keys=True, default=str,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    return f"{name}-{digest}"


@dataclass
class Workload:
    """A benchmark instance ready for fault injection.

    Attributes
    ----------
    program:
        The tape with bound inputs.
    tolerance:
        The acceptance threshold ``T`` on output error.
    norm:
        Output-error norm (see :class:`repro.engine.OutputComparator`).
    description:
        Human-readable provenance for reports.
    """

    program: Program
    tolerance: float
    norm: str = "linf"
    description: str = ""
    _trace: GoldenTrace | None = field(default=None, repr=False, compare=False)

    @property
    def trace(self) -> GoldenTrace:
        """Golden trace, computed lazily and cached."""
        if self._trace is None:
            self._trace = golden_run(self.program)
        return self._trace

    @property
    def comparator(self) -> OutputComparator:
        """Outcome comparator bound to this workload's tolerance and norm."""
        return OutputComparator(self.trace.output, self.tolerance, self.norm)

    @property
    def name(self) -> str:
        return self.program.name

    @property
    def spec(self) -> tuple[str, dict] | None:
        return self.program.spec


_REGISTRY: dict[str, Callable[..., Workload]] = {}


def register(name: str) -> Callable[[Callable[..., Workload]], Callable[..., Workload]]:
    """Decorator registering a kernel builder under ``name``.

    The wrapped builder must accept keyword parameters only and return a
    :class:`Workload` whose program carries ``spec=(name, params)``.
    """

    def deco(fn: Callable[..., Workload]) -> Callable[..., Workload]:
        if name in _REGISTRY:
            raise ValueError(f"kernel {name!r} registered twice")
        _REGISTRY[name] = fn
        return fn

    return deco


def build(name: str, **params) -> Workload:
    """Construct a registered workload by name."""
    try:
        fn = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return fn(**params)


def from_spec(spec: tuple[str, dict]) -> Workload:
    """Rebuild a workload from a program's ``(name, params)`` provenance.

    Used by dist nodes: the spec is a few bytes and the rebuilt tape is
    deterministic, so no trace data crosses the network.  Local pool
    workers receive the workload itself instead.
    """
    name, params = spec
    return build(name, **params)


def available_kernels() -> list[str]:
    """Sorted names of all registered kernels."""
    return sorted(_REGISTRY)

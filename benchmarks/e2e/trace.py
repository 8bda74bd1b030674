"""Outside-in tracer for the end-to-end benchmark.

The benchmark measures ``repro`` without editing it: this module wraps
functions of ``repro.*`` modules at run time, from the benchmark's own
files, and records one span per call.  One table, :data:`TARGETS`, maps
``(module, qualname)`` to a span name ``<layer>.<op>``; everything else
(per-layer tables, self times) is derived from the recorded spans.

Rules the wrapper follows:

* every ``repro.*`` module attribute bound to a wrapped function is
  rebound, so ``from x import f`` call sites are traced too;
* methods are wrapped on the class that defines them, so subclasses that
  inherit the method are traced as well;
* properties are never wrapped, and a target that no longer exists is
  reported as ``absent`` instead of failing, so the benchmark keeps
  running after the code it names is deleted or renamed;
* generator functions are timed only while they run (inside ``next``),
  not while their caller consumes the items.

Spans live in memory and are written out once, as JSON lines, when the
traced process ends (:meth:`Tracer.dump`).  A span's parent is the span
open on the same thread; a span opened on a campaign pool thread with
nothing open takes the innermost running campaign as its parent.  A trace
is one tree: one CLI invocation, one service job or one HTTP request.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Span name of a campaign; pool-thread spans are parented under it.
CAMPAIGN = "core.campaign"

#: Thread-name prefix of ``ThreadPoolCampaignExecutor`` workers.
POOL_THREAD_PREFIX = "repro-campaign"

MAIN_THREAD = "MainThread"


# ------------------------------------------------------------ span attrs
# Each takes (args, kwargs, result) of the wrapped call and returns the
# counters recorded on its span.


def _lanes(args, kwargs, result):
    return {"lanes": len(args[1])}


def _section_lanes(args, kwargs, result):
    return {"lanes": int(args[3] if len(args) > 3 else kwargs["n_lanes"])}


def _experiments(args, kwargs, result):
    return {"experiments": len(result)}


def _round(args, kwargs, result):
    return {"rounds": 1}


def _bytes_written(args, kwargs, result):
    try:
        return {"bytes": os.stat(args[0]).st_size}
    except OSError:
        return {"bytes": 0}


def _cache_lookup(args, kwargs, result):
    return {"hits": int(result is not None), "misses": int(result is None)}


def _candidates(args, kwargs, result):
    return {"candidates": int(result.n_candidates)}


def _request_path(args, kwargs, result):
    return {"path": args[0].path}


def _job_id(args, kwargs, result):
    return {"job": args[1]}


def _lease_sent(args, kwargs, result):
    return {"leases": int(args[1].get("type") == "lease")}


def _lease_result(args, kwargs, result):
    return {"results": 1}


def _pool_width(args, kwargs, result):
    return {"workers": int(getattr(args[0], "n_workers", 1))}


@dataclass(frozen=True)
class Target:
    """One wrapped function: ``module``'s ``qualname`` records ``span``."""

    module: str
    qualname: str
    span: str
    attrs: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.module}:{self.qualname}"


def _targets(module: str, span: str, *qualnames: str,
             attrs: Callable | None = None) -> tuple[Target, ...]:
    return tuple(Target(module, q, span, attrs) for q in qualnames)


#: Every function the benchmark wraps.  Private names appear only where
#: the layer has no public seam (kernel codegen, the job runner, the
#: dist lease executor).
TARGETS: tuple[Target, ...] = (
    *_targets("repro.engine.batch", "engine.replay",
              "BatchReplayer.replay", "BatchReplayer.replay_values",
              attrs=_lanes),
    *_targets("repro.engine.batch", "engine.replay",
              "BatchReplayer.sweep_section", attrs=_section_lanes),
    *_targets("repro.engine.compile", "engine.replay",
              "CompiledReplayer.sweep_section", attrs=_section_lanes),
    *_targets("repro.engine.compile", "engine.codegen",
              "CompiledReplayer._gen_replay", "CompiledReplayer._gen_matrix"),
    *_targets("repro.engine.classify", "engine.classify", "classify_batch",
              attrs=_experiments),
    *_targets("repro.cfg.replay", "cfg.replay",
              "CfgLaneReplayer.replay", "CfgLaneReplayer.replay_values",
              attrs=_lanes),
    *_targets("repro.cfg.interpreter", "cfg.golden", "cfg_golden_run"),
    *_targets("repro.kernels.workload", "kernels.build", "build"),
    *_targets("repro.engine.interpreter", "kernels.golden", "golden_run"),
    *_targets("repro.core.campaign", CAMPAIGN, "run_campaign"),
    *_targets("repro.core.inference", "core.aggregate",
              "ThresholdAggregator.consume", "ThresholdAggregator.boundary",
              "ThresholdAggregator.merge", "exact_site_thresholds"),
    *_targets("repro.core.prediction", "core.predict",
              "BoundaryPredictor.predict_masked",
              "BoundaryPredictor.predict_masked_flat",
              "BoundaryPredictor.predicted_sdc_ratio_per_site",
              "BoundaryPredictor.predicted_sdc_ratio"),
    *_targets("repro.core.sampling", "core.sample",
              "uniform_sample", "ProgressiveSampler.select_round"),
    *_targets("repro.core.sampling", "core.sample",
              "ProgressiveSampler.record_round", attrs=_round),
    *_targets("repro.core.checkpoint", "core.checkpoint",
              "CampaignCheckpoint.phase_a", "CampaignCheckpoint.phase_b",
              "CampaignCheckpoint.save_adaptive_round",
              "CampaignCheckpoint.load_adaptive_round",
              "PhaseACheckpoint.completed", "PhaseACheckpoint.record",
              "PhaseBCheckpoint.record"),
    *_targets("repro.io.store", "io.save",
              "atomic_savez", "atomic_write_json", attrs=_bytes_written),
    *_targets("repro.io.store", "io.load",
              "load_exhaustive", "load_sampled", "load_boundary",
              "load_front", "load_plan"),
    *_targets("repro.parallel.executor", "parallel.wait",
              "SerialExecutor.run_stream",
              "ThreadPoolCampaignExecutor.run_stream",
              "ProcessPoolCampaignExecutor.run_stream", attrs=_pool_width),
    *_targets("repro.compose.summary", "compose.summarize",
              "summarize_section"),
    *_targets("repro.compose.cache", "compose.cache", "SummaryCache.get",
              attrs=_cache_lookup),
    *_targets("repro.compose.cache", "compose.cache", "SummaryCache.put"),
    *_targets("repro.compose.compose", "compose.compose",
              "compose_summaries"),
    *_targets("repro.optimize.search", "optimize.search", "synthesize",
              attrs=_candidates),
    *_targets("repro.serve.server", "serve.handler",
              "_Handler.do_GET", "_Handler.do_POST", "_Handler.do_DELETE",
              attrs=_request_path),
    *_targets("repro.serve.jobs", "serve.job", "JobManager._run_job",
              attrs=_job_id),
    *_targets("repro.serve.jobs", "serve.events",
              "JobManager._append_event"),
    *_targets("repro.serve.jobs", "serve.publish",
              "JobManager._publish_artifact"),
    *_targets("repro.dist.coordinator", "dist.phase",
              "DistExecutor.run_stream"),
    *_targets("repro.dist.coordinator", "dist.send", "NodeHandle.send",
              attrs=_lease_sent),
    *_targets("repro.dist.node", "dist.lease", "NodeAgent._serve_lease",
              attrs=_lease_result),
)


# ---------------------------------------------------------------- tracer


class Tracer:
    """In-memory span recorder shared by every wrapper of one process.

    A span is the list ``[id, parent, trace, name, thread, t0, t1,
    attrs]`` with ``time.monotonic()`` timestamps, which are comparable
    across processes of one host.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._campaigns: list[list] = []

    def open(self, name: str, t0: float | None = None) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        thread = threading.current_thread().name
        if stack:
            parent = stack[-1]
        elif self._campaigns and thread.startswith(POOL_THREAD_PREFIX):
            parent = self._campaigns[-1]
        else:
            parent = None
        sid = next(self._ids)
        rec = [sid, parent[0] if parent else None,
               parent[2] if parent else sid, name, thread,
               time.monotonic() if t0 is None else t0, None, None]
        stack.append(rec)
        if name == CAMPAIGN:
            self._campaigns.append(rec)
        return rec

    def close(self, rec: list, attrs: dict | None = None) -> None:
        rec[6] = time.monotonic()
        rec[7] = attrs
        stack = self._local.stack
        if stack and stack[-1] is rec:
            stack.pop()
        elif rec in stack:
            stack.remove(rec)
        if rec[3] == CAMPAIGN and rec in self._campaigns:
            self._campaigns.remove(rec)
        self.spans.append(rec)

    def record(self, name: str, t0: float, t1: float) -> None:
        """Record a span measured elsewhere, under the open span."""
        rec = self.open(name, t0=t0)
        self.close(rec)
        rec[6] = t1

    def dump(self, path: str | Path, meta: dict) -> None:
        """Write ``meta`` and every closed span as JSON lines."""
        meta = dict(meta, pid=os.getpid())
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for sid, parent, trace, name, thread, t0, t1, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "trace": trace,
                    "name": name, "thread": thread, "t0": t0, "t1": t1,
                    **(attrs or {})}) + "\n")


def _wrap(tracer: Tracer, fn: Callable, target: Target) -> Callable:
    name, attrs = target.span, target.attrs
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span_attrs = attrs(args, kwargs, None) if attrs else None
            try:
                while True:
                    rec = tracer.open(name)
                    try:
                        item = next(gen)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer.close(rec, span_attrs)
                    yield item
            finally:
                gen.close()
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = tracer.open(name)
        span_attrs = None
        try:
            result = fn(*args, **kwargs)
            if attrs:
                span_attrs = attrs(args, kwargs, result)
            return result
        finally:
            tracer.close(rec, span_attrs)
    return wrapper


def _patch(target: Target, tracer: Tracer, swaps: dict) -> str:
    """Wrap one target in place; returns its status.

    Methods are replaced on their class.  A module-level function is
    replaced on its module and recorded in ``swaps`` (``id(original) ->
    (original, wrapper)``) so :func:`install` can rebind every other
    module attribute bound to it.
    """
    try:
        module = importlib.import_module(target.module)
    except ImportError as exc:
        return f"absent: {exc}"
    *path, attr = target.qualname.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return f"absent: no {part} in {target.module}"
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
        if raw is None:
            return f"absent: {target.qualname} not defined"
        if isinstance(raw, property):
            return "skipped: property"
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(owner, attr,
                    type(raw)(_wrap(tracer, raw.__func__, target)))
        else:
            setattr(owner, attr, _wrap(tracer, raw, target))
        return "wrapped"
    original = getattr(owner, attr, None)
    if not callable(original):
        return f"absent: {target.qualname} not defined"
    wrapper = _wrap(tracer, original, target)
    setattr(owner, attr, wrapper)
    swaps[id(original)] = (original, wrapper)
    return "wrapped"


def install(tracer: Tracer,
            targets: tuple[Target, ...] = TARGETS) -> dict[str, str]:
    """Wrap every target; returns ``{label: status}``.

    Status is ``wrapped``, ``skipped: property`` or ``absent: <why>``.
    """
    swaps: dict[int, tuple] = {}
    status = {t.label: _patch(t, tracer, swaps) for t in targets}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            swap = swaps.get(id(value))
            if swap is not None and swap[0] is value:
                setattr(module, key, swap[1])
    return status


def layer_status(status: dict[str, str],
                 targets: tuple[Target, ...] = TARGETS) -> dict[str, str]:
    """Per span name: ``ok`` when any of its targets is wrapped, else
    ``absent``."""
    out: dict[str, str] = {}
    for t in targets:
        ok = status.get(t.label) == "wrapped"
        out[t.span] = "ok" if ok or out.get(t.span) == "ok" else "absent"
    return out


# -------------------------------------------------------------- analysis


@dataclass
class Span:
    id: int
    parent: int | None
    trace: int
    name: str
    thread: str
    t0: float
    t1: float
    pid: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def load_spans(path: str | Path) -> tuple[dict, list[Span]]:
    """Read one dump: ``(meta, spans)``.  Span ids are made unique per
    process by pairing them with the pid."""
    with open(path) as fh:
        meta = json.loads(fh.readline())
        spans = []
        pid = meta["pid"]
        for line in fh:
            doc = json.loads(line)
            spans.append(Span(
                id=doc.pop("id"), parent=doc.pop("parent"),
                trace=doc.pop("trace"), name=doc.pop("name"),
                thread=doc.pop("thread"), t0=doc.pop("t0"),
                t1=doc.pop("t1"), pid=pid, attrs=doc))
    return meta, spans


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Each span's duration minus what its same-thread children cover.

    Children on other threads (pool work under a campaign) overlap the
    parent's wait instead of nesting inside it, so they are not
    subtracted.
    """
    by_key = {(s.pid, s.id): s for s in spans}
    out = {(s.pid, s.id): s.duration for s in spans}
    for s in spans:
        parent = by_key.get((s.pid, s.parent)) if s.parent else None
        if parent is not None and parent.thread == s.thread:
            out[(parent.pid, parent.id)] -= s.duration
    return out


def aggregate(spans: list[Span],
              main_thread: str = MAIN_THREAD) -> dict[str, dict]:
    """Per span name: calls, self time on ``main_thread`` (``main_s``),
    self time on every other thread (``busy_s``) and summed counters."""
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "main_s": 0.0, "busy_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        key = "main_s" if s.thread == main_thread else "busy_s"
        row[key] += selfs[(s.pid, s.id)]
        for k, v in s.attrs.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                row[k] = row.get(k, 0) + v
    return dict(out)

"""Process-local campaign metrics: counters, gauges, histograms.

The registry is deliberately tiny and dependency-free:

* **counters** — monotonically increasing numbers (experiments completed,
  lanes replayed, retries, checkpoint bytes);
* **gauges** — last-written values that merge by ``max`` across processes
  (RSS high-water marks, last masked fraction);
* **histograms** — log2-bucketed latency distributions with exact
  count/sum/min/max, good for p50/p99 estimates without storing samples.

The module-level helpers (:func:`inc`, :func:`observe`,
:func:`set_gauge`) write to the global :data:`METRICS` registry and cost
one attribute check while metrics are disabled, so they are safe in hot
loops.

**Cross-process merging.**  A snapshot (:meth:`MetricsRegistry.snapshot`)
is a plain JSON-serialisable dict; snapshots merge additively (counters
and histogram buckets add, gauges take the max), so process-pool campaigns
ship per-task snapshots from workers back to the driver and report
fleet-wide totals.  The pool executor does this transparently through
:func:`wrap_task` / :func:`absorb_result` whenever the driver's registry
is enabled.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

__all__ = [
    "METRICS",
    "Histogram",
    "MetricsRegistry",
    "absorb_result",
    "inc",
    "merge_snapshot",
    "observe",
    "render_exposition",
    "set_gauge",
    "snapshot_delta",
    "wrap_task",
]

#: Bucket-index clamp: 2**-40 s (~1 ns) .. 2**40 (~34 000 years / 1 TiB).
_MIN_EXP, _MAX_EXP = -40, 40


@dataclass
class Histogram:
    """Log2-bucketed distribution with exact count/sum/min/max.

    Bucket ``e`` counts observations in ``[2**e, 2**(e+1))``; non-positive
    and non-finite observations land in the lowest bucket.
    """

    buckets: dict[int, int] = field(default_factory=dict)
    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        if value > 0 and math.isfinite(value):
            exp = min(max(int(math.floor(math.log2(value))), _MIN_EXP),
                      _MAX_EXP)
        else:
            exp = _MIN_EXP
        self.buckets[exp] = self.buckets.get(exp, 0) + 1
        self.count += 1
        if math.isfinite(value):
            self.sum += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (geometric bucket midpoint).

        Exact ``min``/``max`` clamp the estimate, so single-observation
        histograms report the true value.  ``nan`` when empty.
        """
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return math.nan
        rank = q * self.count
        seen = 0
        estimate = math.nan
        for exp in sorted(self.buckets):
            seen += self.buckets[exp]
            if seen >= rank:
                estimate = math.sqrt(2.0 ** exp * 2.0 ** (exp + 1))
                break
        if math.isfinite(self.min):
            estimate = min(max(estimate, self.min), self.max)
        return estimate

    # ------------------------------------------------------ serialisation

    def to_dict(self) -> dict:
        return {"buckets": {str(e): c for e, c in sorted(self.buckets.items())},
                "count": self.count, "sum": self.sum,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None}

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        hist = cls()
        hist.buckets = {int(e): int(c)
                        for e, c in payload.get("buckets", {}).items()}
        hist.count = int(payload.get("count", 0))
        hist.sum = float(payload.get("sum", 0.0))
        hist.min = (math.inf if payload.get("min") is None
                    else float(payload["min"]))
        hist.max = (-math.inf if payload.get("max") is None
                    else float(payload["max"]))
        return hist

    def merge(self, other: "Histogram") -> None:
        for exp, count in other.buckets.items():
            self.buckets[exp] = self.buckets.get(exp, 0) + count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


class MetricsRegistry:
    """Named counters, gauges and histograms for one process.

    Disabled registries drop writes at the cost of one ``if``; reads
    (:meth:`snapshot`) always work.  Writes are guarded by a lock so the
    thread-pool campaign executor's workers can share the process-global
    registry without losing read-modify-write updates (the lock is
    uncontended and cheap next to a replay batch).
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- writes

    def inc(self, name: str, value: float = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    def reset(self) -> None:
        """Drop all recorded values (enabled state is untouched)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()

    # -------------------------------------------------------------- reads

    def snapshot(self) -> dict:
        """JSON-serialisable copy of everything recorded so far."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {name: h.to_dict()
                               for name, h in self.histograms.items()},
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another process's snapshot into this registry.

        Counters and histogram buckets add; gauges take the maximum (they
        record high-water values such as peak RSS).  Merging ignores the
        enabled flag: results shipped from workers must not be dropped.
        """
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                current = self.gauges.get(name)
                self.gauges[name] = (value if current is None
                                     else max(current, value))
            for name, payload in snapshot.get("histograms", {}).items():
                hist = self.histograms.get(name)
                if hist is None:
                    hist = self.histograms[name] = Histogram()
                hist.merge(Histogram.from_dict(payload))

    def histogram(self, name: str) -> Histogram | None:
        return self.histograms.get(name)


#: Process-global registry used by all built-in instrumentation.
METRICS = MetricsRegistry()


def inc(name: str, value: float = 1) -> None:
    """Increment a counter on the global registry (no-op when disabled)."""
    if METRICS.enabled:
        METRICS.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the global registry (no-op when disabled)."""
    if METRICS.enabled:
        METRICS.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the global registry."""
    if METRICS.enabled:
        METRICS.observe(name, value)


# ----------------------------------------------------------- snapshot algebra


def merge_snapshot(base: dict, extra: dict) -> dict:
    """Pure merge of two snapshots (same algebra as ``METRICS.merge``)."""
    registry = MetricsRegistry()
    registry.merge(base)
    registry.merge(extra)
    return registry.snapshot()


def snapshot_delta(before: dict, after: dict) -> dict:
    """What ``after`` added on top of ``before``.

    Counters and histogram buckets/count/sum subtract; gauges keep the
    ``after`` value (last write wins); histogram min/max keep the
    ``after`` bounds — a high-water delta cannot be recovered exactly and
    the bounds stay correct clamps for quantile estimates.
    """
    out: dict[str, Any] = {"counters": {}, "gauges": dict(after.get("gauges", {})),
                           "histograms": {}}
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        delta = value - before_counters.get(name, 0)
        if delta:
            out["counters"][name] = delta
    before_hists = before.get("histograms", {})
    for name, payload in after.get("histograms", {}).items():
        prior = before_hists.get(name)
        if prior is None:
            out["histograms"][name] = payload
            continue
        buckets = dict(payload.get("buckets", {}))
        for exp, count in prior.get("buckets", {}).items():
            remaining = buckets.get(exp, 0) - count
            if remaining:
                buckets[exp] = remaining
            else:
                buckets.pop(exp, None)
        count = payload.get("count", 0) - prior.get("count", 0)
        if count <= 0:
            continue
        out["histograms"][name] = {
            "buckets": buckets,
            "count": count,
            "sum": payload.get("sum", 0.0) - prior.get("sum", 0.0),
            "min": payload.get("min"),
            "max": payload.get("max"),
        }
    return out


# -------------------------------------------------------- text exposition


def _metric_name(name: str, prefix: str) -> str:
    """Exposition-safe metric name: dots/dashes become underscores."""
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"{prefix}_{safe}" if prefix else safe


def render_exposition(snapshot: dict, prefix: str = "repro") -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    Counters and gauges map directly; histograms expose ``_count``,
    ``_sum`` and quantile gauges (p50/p99, bucket-resolution estimates)
    rather than raw log2 buckets — scrape targets want latency summaries,
    not the bucketing scheme.  Used by the query service's ``/metrics``
    endpoint; pure function of the snapshot, so it works on live, merged
    and delta snapshots alike.
    """
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {value:g}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value:g}")
    for name, payload in sorted(snapshot.get("histograms", {}).items()):
        hist = Histogram.from_dict(payload)
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        for q in (0.5, 0.99):
            estimate = hist.quantile(q)
            if math.isfinite(estimate):
                lines.append(f'{metric}{{quantile="{q:g}"}} {estimate:g}')
        lines.append(f"{metric}_sum {hist.sum:g}")
        lines.append(f"{metric}_count {hist.count}")
    return "\n".join(lines) + "\n" if lines else ""


# ------------------------------------------------- worker metric shipping


class MeteredResult:
    """A worker task result bundled with the metrics it recorded."""

    __slots__ = ("result", "metrics")

    def __init__(self, result: Any, metrics: dict):
        self.result = result
        self.metrics = metrics


def _metered_call(fn: Callable[[Any], Any], task: Any) -> MeteredResult:
    """Run one task in a worker with metrics enabled and ship the delta.

    The worker registry is reset per task, so the shipped snapshot is
    exactly this task's contribution; the driver folds it into its own
    registry in :func:`absorb_result`.
    """
    METRICS.enabled = True
    METRICS.reset()
    result = fn(task)
    return MeteredResult(result, METRICS.snapshot())


def wrap_task(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """Wrap a picklable task function for worker-side metric capture.

    Returns ``fn`` unchanged while the driver's registry is disabled, so
    the pool path is metric-free by default.
    """
    if not METRICS.enabled:
        return fn
    return partial(_metered_call, fn)


def absorb_result(result: Any) -> Any:
    """Unwrap a :class:`MeteredResult`, folding its metrics into METRICS."""
    if isinstance(result, MeteredResult):
        METRICS.merge(result.metrics)
        return result.result
    return result

"""Campaign observability: tracing spans and metrics.

Zero hard dependencies beyond the standard library; everything is a no-op
until explicitly enabled, so instrumented hot paths cost one attribute
check when observability is off.

* :mod:`repro.obs.trace` — nestable wall-clock/CPU/RSS spans emitting
  structured JSONL through pluggable sinks;
* :mod:`repro.obs.metrics` — process-local counters, gauges and
  log-bucketed histograms, mergeable across worker processes.

Speed is measured from outside the package, by the end-to-end benchmark
under ``benchmarks/e2e/``.
"""

from .metrics import (
    METRICS,
    Histogram,
    MetricsRegistry,
    inc,
    merge_snapshot,
    observe,
    render_exposition,
    set_gauge,
    snapshot_delta,
)
from .trace import (
    TRACER,
    JsonlSink,
    RecordingSink,
    Tracer,
    span,
)

__all__ = [
    "METRICS",
    "TRACER",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "RecordingSink",
    "Tracer",
    "inc",
    "merge_snapshot",
    "observe",
    "render_exposition",
    "set_gauge",
    "snapshot_delta",
    "span",
]

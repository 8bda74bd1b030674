"""Benchmark harness: a fixed campaign matrix with a comparable JSON report.

``repro bench`` (or :mod:`benchmarks.run_bench`) runs a fixed matrix of
Monte-Carlo campaigns — cg / lu / fft at two sizes, serial and pooled —
with tracing and metrics enabled, and writes one ``BENCH_<rev>.json``
per revision.  Because the matrix, seeds and sampling rates are pinned,
two such files (say from two commits) are directly comparable: same
experiments, same chunking, only the implementation changed.

Report schema (``schema = "repro-bench"``, version 1)::

    {
      "schema": "repro-bench",
      "schema_version": 1,
      "rev": "<git short rev, $REPRO_BENCH_REV, or 'local'>",
      "created_unix": <float>,
      "host": {"platform": ..., "python": ..., "numpy": ...},
      "quick": <bool>,
      "cases": [
        {
          "name": "cg-n8-serial", "kernel": "cg", "params": {...},
          "n_workers": 1, "sampling_rate": 0.05, "seed": 0,
          "n_experiments": <int>,          # phase-A experiments run
          "wall_s": <float>,               # whole-campaign wall clock
          "throughput_exps_per_s": <float>,
          "chunk_latency_s": {             # per phase, from the log2
            "phase_a": {"p50": ..., "p99": ..., "mean": ..., "count": ...},
            "phase_b": {...}               # histogram quantile estimates
          },
          "peak_rss_kb": <float|null>,
          "spans": [                       # per-phase span aggregate
            {"name": "campaign.monte_carlo", "count": 1,
             "wall_s": ..., "cpu_s": ...},
            {"name": "campaign.phase_a", ...}, ...
          ],
          "compose": {                     # mode="compose" cases only
            "n_sections": ..., "monolithic_wall_s": ...,
            "cold_wall_s": ..., "warm_wall_s": ...,
            "warm_speedup": ..., "cache_hits_warm": ...,
            "cache_misses_warm": ...
          },
          "serve": {                       # mode="serve" cases only
            "qps_warm": ..., "p50_us": ..., "p99_us": ...,
            "cache_hits": ..., "cache_misses": ...
          },
          "serve_replicas": {              # mode="serve_replicas" only
            "replicas": ..., "client_threads": ...,
            "qps_warm": ..., "qps_single": ..., "speedup": ...,
            "p50_us": ..., "p99_us": ...
          },
          "dist": {                        # mode="dist" cases only
            "n_nodes": ..., "leases_granted": ...,
            "results_streamed": ..., "leases_served": ...,
            "node_deaths": ...
          }
        }, ...
      ]
    }

:func:`validate_bench` checks this shape and is shared by the tests and
the CI bench job, so a schema drift fails loudly instead of producing
uncomparable artifacts.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .metrics import Histogram
from .trace import RecordingSink

__all__ = [
    "BenchCase",
    "bench_matrix",
    "compare_bench",
    "detect_rev",
    "run_bench",
    "run_case",
    "validate_bench",
    "write_bench",
]

BENCH_SCHEMA = "repro-bench"
BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchCase:
    """One pinned campaign of the bench matrix."""

    name: str
    kernel: str
    params: dict = field(default_factory=dict)
    n_workers: int | None = None  #: None = serial
    sampling_rate: float = 0.05
    seed: int = 0
    #: "monte_carlo" (the classic matrix), "exhaustive" (full-space
    #: throughput, the executor-comparison rows), "compose"
    #: (monolithic exhaustive vs cold/warm compositional, tracking cache
    #: speedup), "optimize" (protection-synthesis search throughput in
    #: candidates/s plus best-found residual at a pinned budget vs the
    #: greedy baseline), "serve" (boundary point-query throughput over HTTP
    #: against a warm artifact cache), "serve_replicas" (the same query
    #: load driven concurrently against an SO_REUSEPORT replica fleet
    #: vs a single replica) or "dist" (exhaustive throughput
    #: through the lease-based multi-node campaign plane over localhost
    #: TCP)
    mode: str = "monte_carlo"
    #: execution plane (CampaignConfig.executor); the paired
    #: ``*-procs2``/``*-threads2`` rows measure plane throughput per
    #: kernel at equal worker count
    executor: str = "auto"


#: Smallest configuration per kernel, serial, plus one executor pair —
#: the CI / --quick matrix.
QUICK_MATRIX = (
    BenchCase("cg-n8-serial", "cg", {"n": 8, "iters": 8}),
    BenchCase("lu-n8-serial", "lu", {"n": 8, "block": 4}),
    BenchCase("fft-n16-serial", "fft", {"n": 16}),
    BenchCase("cg-n8-compose", "cg", {"n": 8, "iters": 8}, mode="compose"),
    BenchCase("cg-n8-optimize", "cg", {"n": 8, "iters": 8},
              mode="optimize"),
    BenchCase("cg-n8-serve", "cg", {"n": 8, "iters": 8}, mode="serve"),
    BenchCase("cg-n8-serve-replicas", "cg", {"n": 8, "iters": 8},
              mode="serve_replicas"),
    BenchCase("fft-n16-exh-procs2", "fft", {"n": 16}, n_workers=2,
              mode="exhaustive", executor="processes"),
    BenchCase("fft-n16-exh-threads2", "fft", {"n": 16}, n_workers=2,
              mode="exhaustive", executor="threads"),
    BenchCase("cg-n8-dist2", "cg", {"n": 8, "iters": 8}, n_workers=2,
              mode="dist", executor="dist"),
    # CFG lane replay: a loop kernel (back-edge, hang budget) and a
    # branchy acyclic kernel (pivot diamonds)
    BenchCase("cg-dyn-n8-exh", "cg-dyn", {"n": 8}, mode="exhaustive"),
    BenchCase("lu-pivot-n4-exh", "lu-pivot", {"n": 4}, mode="exhaustive"),
)

#: Two sizes per kernel, serial and pooled, plus per-kernel executor pairs.
FULL_MATRIX = QUICK_MATRIX + (
    BenchCase("cg-n16-serial", "cg", {"n": 16, "iters": 12},
              sampling_rate=0.02),
    BenchCase("lu-n12-serial", "lu", {"n": 12, "block": 4},
              sampling_rate=0.02),
    BenchCase("fft-n32-serial", "fft", {"n": 32}, sampling_rate=0.02),
    BenchCase("cg-n16-pool2", "cg", {"n": 16, "iters": 12},
              n_workers=2, sampling_rate=0.02),
    BenchCase("lu-n12-pool2", "lu", {"n": 12, "block": 4},
              n_workers=2, sampling_rate=0.02),
    BenchCase("fft-n32-pool2", "fft", {"n": 32},
              n_workers=2, sampling_rate=0.02),
    BenchCase("cg-n16-compose", "cg", {"n": 16, "iters": 12},
              mode="compose"),
    BenchCase("cg-n8-exh-procs2", "cg", {"n": 8, "iters": 8}, n_workers=2,
              mode="exhaustive", executor="processes"),
    BenchCase("cg-n8-exh-threads2", "cg", {"n": 8, "iters": 8}, n_workers=2,
              mode="exhaustive", executor="threads"),
    BenchCase("lu-n8-exh-procs2", "lu", {"n": 8, "block": 4}, n_workers=2,
              mode="exhaustive", executor="processes"),
    BenchCase("lu-n8-exh-threads2", "lu", {"n": 8, "block": 4}, n_workers=2,
              mode="exhaustive", executor="threads"),
)


def bench_matrix(quick: bool = False) -> tuple[BenchCase, ...]:
    """The pinned case matrix (``quick`` = smallest sizes, serial only)."""
    return QUICK_MATRIX if quick else FULL_MATRIX


def detect_rev() -> str:
    """Revision label for the report file name.

    ``$REPRO_BENCH_REV`` wins (CI sets it to the commit under test), then
    the git short rev of the working tree, then ``"local"``.
    """
    env = os.environ.get("REPRO_BENCH_REV")
    if env:
        return env
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "local"


def _latency_summary(metrics: dict, name: str) -> dict | None:
    hist = metrics.get("histograms", {}).get(name)
    if hist is None:
        return None
    h = Histogram.from_dict(hist)
    return {
        "p50": h.quantile(0.5),
        "p99": h.quantile(0.99),
        "mean": h.mean,
        "count": h.count,
    }


def _span_summary(records: list[dict]) -> list[dict]:
    """Aggregate raw span records by name: count + total wall/cpu."""
    agg: dict[str, dict] = {}
    for rec in records:
        if rec.get("type") != "span":
            continue
        entry = agg.setdefault(rec["name"], {
            "name": rec["name"], "count": 0, "wall_s": 0.0, "cpu_s": 0.0})
        entry["count"] += 1
        entry["wall_s"] += rec["wall_s"]
        entry["cpu_s"] += rec["cpu_s"]
    return sorted(agg.values(), key=lambda e: -e["wall_s"])


def _run_compose_case(case: BenchCase) -> dict:
    """The ``mode="compose"`` bench: monolithic vs cold/warm compositional.

    Runs the monolithic exhaustive campaign, then a cold compositional
    run into a fresh cache and a warm re-run against it, and reports the
    three wall clocks plus the warm-over-cold speedup — the number the
    bench artifact tracks per revision.
    """
    import tempfile

    from .. import kernels
    from ..core.campaign import CampaignConfig, run_campaign

    wl = kernels.build(case.kernel, **case.params)
    sink = RecordingSink()

    t0 = time.perf_counter()
    run_campaign(wl, CampaignConfig(mode="exhaustive",
                                    n_workers=case.n_workers,
                                    executor=case.executor))
    mono_wall = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="repro-bench-compose-") as d:
        config = CampaignConfig(mode="compositional",
                                compose={"cache_dir": d},
                                n_workers=case.n_workers,
                                executor=case.executor,
                                metrics=True, trace_sink=sink)
        t0 = time.perf_counter()
        cold = run_campaign(wl, config)
        cold_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = run_campaign(wl, config)
        warm_wall = time.perf_counter() - t0

    metrics = warm.metrics or {}
    n_experiments = cold.n_experiments
    return {
        "name": case.name,
        "kernel": case.kernel,
        "params": dict(case.params),
        "n_workers": case.n_workers or 1,
        "executor": case.executor,
        "sampling_rate": case.sampling_rate,
        "seed": case.seed,
        "n_experiments": int(n_experiments),
        "wall_s": cold_wall,
        "throughput_exps_per_s": (n_experiments / cold_wall
                                  if cold_wall > 0 else 0.0),
        "chunk_latency_s": {},
        "peak_rss_kb": metrics.get("gauges", {}).get("rss.peak_kb"),
        "spans": _span_summary(sink.records),
        "compose": {
            "n_sections": cold.n_sections,
            "monolithic_wall_s": mono_wall,
            "cold_wall_s": cold_wall,
            "warm_wall_s": warm_wall,
            "warm_speedup": cold_wall / warm_wall if warm_wall > 0 else 0.0,
            "cache_hits_warm": warm.cache_hits,
            "cache_misses_warm": warm.cache_misses,
        },
    }


#: Pinned cost budget for the ``mode="optimize"`` bench row.
OPTIMIZE_BENCH_BUDGET = 0.25


def _run_optimize_case(case: BenchCase) -> dict:
    """The ``mode="optimize"`` bench: protection-search throughput.

    Runs the compositional campaign once, then the full synthesis loop
    (seeds, beam, evolutionary generations) under a pinned cost budget.
    ``throughput_exps_per_s`` is search *candidates* per second — the
    rate the envelope-scored evaluator sustains — and the ``optimize``
    sub-document tracks solution quality (best residual found at the
    budget vs the greedy baseline), gating both speed and search
    effectiveness per revision.
    """
    import tempfile

    from .. import kernels
    from ..core.campaign import CampaignConfig, run_campaign
    from ..core.protection import BoundaryPredictor
    from ..optimize import (EnvelopeEvaluator, SearchConfig,
                            build_cost_model, synthesize)
    from .trace import TRACER

    wl = kernels.build(case.kernel, **case.params)
    sink = RecordingSink()
    with tempfile.TemporaryDirectory(prefix="repro-bench-optimize-") as d:
        config = CampaignConfig(mode="compositional",
                                compose={"cache_dir": d},
                                n_workers=case.n_workers,
                                executor=case.executor,
                                metrics=True, trace_sink=sink)
        t0 = time.perf_counter()
        result = run_campaign(wl, config)
        campaign_wall = time.perf_counter() - t0

    model = build_cost_model(wl)
    evaluator = EnvelopeEvaluator.from_summaries(
        model, result.summaries, result.boundary.space, wl.tolerance)
    search_cfg = SearchConfig(budget=OPTIMIZE_BENCH_BUDGET, seed=case.seed)
    TRACER.add_sink(sink)
    was_enabled, TRACER.enabled = TRACER.enabled, True
    try:
        t0 = time.perf_counter()
        synth = synthesize(evaluator, search_cfg,
                           predictor=BoundaryPredictor(wl.trace),
                           boundary=result.boundary)
        search_wall = time.perf_counter() - t0
    finally:
        TRACER.enabled = was_enabled
        TRACER.remove_sink(sink)

    chosen = synth.front.best_for_budget(OPTIMIZE_BENCH_BUDGET)
    best_residual = (float(synth.front.residuals[chosen])
                     if chosen is not None else 1.0)
    metrics = result.metrics or {}
    return {
        "name": case.name,
        "kernel": case.kernel,
        "params": dict(case.params),
        "n_workers": case.n_workers or 1,
        "executor": case.executor,
        "sampling_rate": case.sampling_rate,
        "seed": case.seed,
        "n_experiments": int(synth.n_candidates),
        "wall_s": search_wall,
        "throughput_exps_per_s": (synth.n_candidates / search_wall
                                  if search_wall > 0 else 0.0),
        "chunk_latency_s": {},
        "peak_rss_kb": metrics.get("gauges", {}).get("rss.peak_kb"),
        "spans": _span_summary(sink.records),
        "optimize": {
            "budget": OPTIMIZE_BENCH_BUDGET,
            "n_sites": model.n_sites,
            "n_candidates": int(synth.n_candidates),
            "candidates_per_s": (synth.n_candidates / search_wall
                                 if search_wall > 0 else 0.0),
            "front_size": synth.front.n_points,
            "campaign_wall_s": campaign_wall,
            "search_wall_s": search_wall,
            "best_residual_at_budget": best_residual,
            "greedy_cost": (synth.greedy or {}).get("cost"),
            "greedy_residual": (synth.greedy or {}).get("residual_sdc"),
            "unprotected_sdc": float(evaluator.unprotected_sdc),
        },
    }


#: Point queries issued per ``mode="serve"`` bench case.
SERVE_BENCH_QUERIES = 200


def _run_serve_case(case: BenchCase) -> dict:
    """The ``mode="serve"`` bench: boundary query throughput over HTTP.

    Publishes a boundary for the case's workload, starts the service on
    an ephemeral port, and issues :data:`SERVE_BENCH_QUERIES` point
    queries (pinned pseudo-random sites and magnitudes) against the warm
    artifact cache.  Reported ``throughput_exps_per_s`` is queries/sec —
    the number the regression gate tracks for this row — with p50/p99
    per-query wall latency alongside.
    """
    import tempfile
    import threading

    from .. import kernels
    from ..core.campaign import CampaignConfig, run_campaign
    from ..io.store import save_boundary
    from ..kernels.workload import workload_key

    wl = kernels.build(case.kernel, **case.params)
    key = workload_key(wl.spec, wl.tolerance, wl.norm)
    result = run_campaign(wl, CampaignConfig(
        mode="monte_carlo", sampling_rate=case.sampling_rate,
        rng=np.random.default_rng(case.seed)))

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as d:
        from ..serve.client import ServiceClient
        from ..serve.server import create_server

        server = create_server(d, metrics=False)
        boundaries = Path(d) / "boundaries"
        save_boundary(boundaries / f"boundary-{key}.npz", result.boundary)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
            rng = np.random.default_rng(case.seed)
            sites = rng.integers(0, wl.program.n_sites,
                                 size=SERVE_BENCH_QUERIES)
            epsilons = 10.0 ** rng.uniform(-12, 3,
                                           size=SERVE_BENCH_QUERIES)
            client.query_boundary(key, 0, 1.0)  # warm the artifact cache
            latencies = np.empty(SERVE_BENCH_QUERIES)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            for i in range(SERVE_BENCH_QUERIES):
                tq = time.perf_counter()
                client.query_boundary(key, int(sites[i]),
                                      float(epsilons[i]))
                latencies[i] = time.perf_counter() - tq
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
            cache_stats = client.cache_stats()
        finally:
            server.close()
            thread.join(timeout=10)

    qps = SERVE_BENCH_QUERIES / wall if wall > 0 else 0.0
    return {
        "name": case.name,
        "kernel": case.kernel,
        "params": dict(case.params),
        "n_workers": case.n_workers or 1,
        "executor": case.executor,
        "sampling_rate": case.sampling_rate,
        "seed": case.seed,
        "n_experiments": SERVE_BENCH_QUERIES,
        "wall_s": wall,
        "throughput_exps_per_s": qps,
        "chunk_latency_s": {
            "query": {
                "p50": float(np.percentile(latencies, 50)),
                "p99": float(np.percentile(latencies, 99)),
                "mean": float(latencies.mean()),
                "count": SERVE_BENCH_QUERIES,
            },
        },
        "peak_rss_kb": None,
        "spans": [{"name": "serve.query_loop", "count": SERVE_BENCH_QUERIES,
                   "wall_s": wall, "cpu_s": cpu}],
        "serve": {
            "qps_warm": qps,
            "p50_us": float(np.percentile(latencies, 50) * 1e6),
            "p99_us": float(np.percentile(latencies, 99) * 1e6),
            "cache_hits": int(cache_stats.get("hits", 0)),
            "cache_misses": int(cache_stats.get("misses", 0)),
        },
    }


#: Replica processes in a ``mode="serve_replicas"`` bench case.
SERVE_BENCH_REPLICAS = 2
#: Concurrent client *processes* driving the replica fleet (also used
#: for the single-replica reference measurement inside the same case).
#: Threads would not do: four GIL-bound client threads saturate their
#: own process long before two server replicas do, and the row would
#: measure the load generator.
SERVE_BENCH_CLIENTS = 4
#: Point queries issued per client process.
SERVE_BENCH_QUERIES_PER_CLIENT = 75


#: Queries issued per keep-alive connection before reconnecting.  The
#: kernel balances SO_REUSEPORT *connections*, not requests, so a
#: client that never reconnects pins to one replica for its whole run;
#: re-rolling the hash every so often spreads the load while still
#: amortising the TCP handshake.
SERVE_BENCH_KEEPALIVE_QUERIES = 25


def _replica_bench_client(url: str, key: str, sites: list[int],
                          epsilons: list[float]) -> list[float]:
    """One load-generator process: issue the queries, return latencies."""
    import http.client
    import urllib.parse

    parsed = urllib.parse.urlsplit(url)
    conn = None
    latencies = []
    try:
        for i, (site, eps) in enumerate(zip(sites, epsilons)):
            if conn is None or i % SERVE_BENCH_KEEPALIVE_QUERIES == 0:
                if conn is not None:
                    conn.close()
                conn = http.client.HTTPConnection(parsed.hostname,
                                                 parsed.port, timeout=10)
            qs = urllib.parse.urlencode(
                {"site": int(site), "eps": repr(float(eps))})
            t0 = time.perf_counter()
            conn.request("GET", f"/v1/boundary/{key}?{qs}")
            resp = conn.getresponse()
            body = resp.read()
            latencies.append(time.perf_counter() - t0)
            if resp.status != 200:
                raise RuntimeError(f"query failed: {resp.status} "
                                   f"{body[:200]!r}")
    finally:
        if conn is not None:
            conn.close()
    return latencies


def _replica_bench_client_warm(_slot: int) -> bool:
    """Pool warm-up task: pay the worker spawn + import cost up front."""
    from ..serve import client  # noqa: F401 — import cost is the point

    time.sleep(0.2)  # park so every pool worker actually spawns
    return True


def _run_serve_replicas_case(case: BenchCase) -> dict:
    """The ``mode="serve_replicas"`` bench: fleet vs single-process qps.

    Publishes a boundary, then measures the same concurrent query load
    (:data:`SERVE_BENCH_CLIENTS` client processes, each issuing
    :data:`SERVE_BENCH_QUERIES_PER_CLIENT` warm-cache point queries)
    against a :data:`SERVE_BENCH_REPLICAS`-replica SO_REUSEPORT fleet
    and against a single-replica fleet of the same construction.  The
    headline ``throughput_exps_per_s`` is the fleet's aggregate qps —
    what the regression gate tracks — and the ``serve_replicas`` section
    carries the single-process reference and the speedup, so the
    multi-replica claim (replicas beat one process under concurrent
    load) is re-proven by every bench run.
    """
    import tempfile
    from concurrent.futures import ProcessPoolExecutor

    from .. import kernels
    from ..core.campaign import CampaignConfig, run_campaign
    from ..io.store import save_boundary
    from ..kernels.workload import workload_key
    from ..serve.client import ServiceClient
    from ..serve.fleet import Fleet

    wl = kernels.build(case.kernel, **case.params)
    key = workload_key(wl.spec, wl.tolerance, wl.norm)
    result = run_campaign(wl, CampaignConfig(
        mode="monte_carlo", sampling_rate=case.sampling_rate,
        rng=np.random.default_rng(case.seed)))

    rng = np.random.default_rng(case.seed)
    n_total = SERVE_BENCH_CLIENTS * SERVE_BENCH_QUERIES_PER_CLIENT
    sites = rng.integers(0, wl.program.n_sites, size=n_total)
    epsilons = 10.0 ** rng.uniform(-12, 3, size=n_total)
    slices = np.array_split(np.arange(n_total), SERVE_BENCH_CLIENTS)

    def measure(replicas: int, pool) -> tuple[float, np.ndarray]:
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-replicas-") as d, \
                open(os.devnull, "w") as devnull:
            boundaries = Path(d) / "boundaries"
            boundaries.mkdir()
            save_boundary(boundaries / f"boundary-{key}.npz",
                          result.boundary)
            fleet = Fleet(d, replicas, port=0, out=devnull)
            fleet.start()
            try:
                url = f"http://127.0.0.1:{fleet.port}"
                probe = ServiceClient(url, timeout=10, retries=4)
                # Ready when every replica has answered /healthz (the
                # kernel balances per connection, so keep probing).
                seen: set[str] = set()
                deadline = time.monotonic() + 120
                while len(seen) < replicas:
                    if time.monotonic() > deadline:
                        raise RuntimeError(
                            f"only {len(seen)} of {replicas} bench "
                            "replicas became ready")
                    try:
                        seen.add(probe.health()["replica"])
                    except (OSError, RuntimeError):
                        time.sleep(0.05)
                for _ in range(8 * replicas):  # warm every replica's cache
                    probe.query_boundary(key, 0, 1.0)

                t0 = time.perf_counter()
                futures = [
                    pool.submit(_replica_bench_client, url, key,
                                sites[idx].tolist(),
                                epsilons[idx].tolist())
                    for idx in slices
                ]
                latencies = np.concatenate(
                    [np.asarray(f.result(timeout=300)) for f in futures])
                wall = time.perf_counter() - t0
                return wall, latencies
            finally:
                fleet.stop()

    with ProcessPoolExecutor(max_workers=SERVE_BENCH_CLIENTS) as pool:
        # Spawn and import in every worker before anything is timed.
        for done in pool.map(_replica_bench_client_warm,
                             range(SERVE_BENCH_CLIENTS)):
            assert done
        single_wall, _ = measure(1, pool)
        fleet_wall, latencies = measure(SERVE_BENCH_REPLICAS, pool)

    qps = n_total / fleet_wall if fleet_wall > 0 else 0.0
    qps_single = n_total / single_wall if single_wall > 0 else 0.0
    return {
        "name": case.name,
        "kernel": case.kernel,
        "params": dict(case.params),
        "n_workers": case.n_workers or 1,
        "executor": case.executor,
        "sampling_rate": case.sampling_rate,
        "seed": case.seed,
        "n_experiments": n_total,
        "wall_s": fleet_wall,
        "throughput_exps_per_s": qps,
        "chunk_latency_s": {
            "query": {
                "p50": float(np.percentile(latencies, 50)),
                "p99": float(np.percentile(latencies, 99)),
                "mean": float(latencies.mean()),
                "count": n_total,
            },
        },
        "peak_rss_kb": None,
        "spans": [{"name": "serve.replica_query_loop", "count": n_total,
                   "wall_s": fleet_wall, "cpu_s": 0.0}],
        "serve_replicas": {
            "replicas": SERVE_BENCH_REPLICAS,
            "client_threads": SERVE_BENCH_CLIENTS,
            "qps_warm": qps,
            "qps_single": qps_single,
            "speedup": qps / qps_single if qps_single > 0 else 0.0,
            "p50_us": float(np.percentile(latencies, 50) * 1e6),
            "p99_us": float(np.percentile(latencies, 99) * 1e6),
        },
    }


#: Node processes attached per ``mode="dist"`` bench case.
DIST_BENCH_NODES = 2


def _run_dist_case(case: BenchCase) -> dict:
    """The ``mode="dist"`` bench: exhaustive throughput through the plane.

    Opens a coordinator plane on an ephemeral localhost port, attaches
    :data:`DIST_BENCH_NODES` in-process node agents (each as wide as the
    case's ``n_workers``), and runs the exhaustive campaign with
    ``executor="dist"`` — so the row prices the lease/heartbeat/JSON
    framing overhead against the plain executor-pair rows on the same
    kernel.  The ``dist`` section carries the lease accounting.
    """
    import threading

    from .. import kernels
    from ..core.campaign import CampaignConfig, run_campaign
    from ..dist import DistConfig, DistPlane, NodeAgent

    wl = kernels.build(case.kernel, **case.params)
    sink = RecordingSink()
    with DistPlane(DistConfig()) as plane:
        agents = [NodeAgent(plane.host, plane.port,
                            n_workers=case.n_workers or 1,
                            node_id=f"bench-node-{i}")
                  for i in range(DIST_BENCH_NODES)]
        threads = [threading.Thread(target=agent.run, daemon=True)
                   for agent in agents]
        for thread in threads:
            thread.start()
        if not plane.wait_for_nodes(DIST_BENCH_NODES, timeout=30.0):
            raise RuntimeError(
                f"only {plane.n_nodes} of {DIST_BENCH_NODES} bench nodes "
                "attached")
        config = CampaignConfig(mode="exhaustive", executor="dist",
                                dist=plane, n_workers=case.n_workers,
                                metrics=True, trace_sink=sink)
        t0 = time.perf_counter()
        result = run_campaign(wl, config)
        wall = time.perf_counter() - t0
    for thread in threads:
        thread.join(timeout=10)

    metrics = result.metrics or {}
    counters = metrics.get("counters", {})
    n_experiments = result.exhaustive.outcomes.size
    return {
        "name": case.name,
        "kernel": case.kernel,
        "params": dict(case.params),
        "n_workers": case.n_workers or 1,
        "executor": case.executor,
        "sampling_rate": case.sampling_rate,
        "seed": case.seed,
        "n_experiments": int(n_experiments),
        "wall_s": wall,
        "throughput_exps_per_s": n_experiments / wall if wall > 0 else 0.0,
        "chunk_latency_s": {},
        "peak_rss_kb": metrics.get("gauges", {}).get("rss.peak_kb"),
        "spans": _span_summary(sink.records),
        "dist": {
            "n_nodes": DIST_BENCH_NODES,
            "leases_granted": int(counters.get("dist.leases_granted", 0)),
            "results_streamed": int(counters.get("dist.results", 0)),
            "leases_served": int(sum(a.leases_served for a in agents)),
            "node_deaths": int(result.health.node_deaths
                               if result.health is not None else 0),
        },
    }


def run_case(case: BenchCase) -> dict:
    """Run one bench campaign and summarise it as a report entry."""
    from .. import kernels
    from ..core.campaign import CampaignConfig, run_campaign

    if case.mode == "compose":
        return _run_compose_case(case)
    if case.mode == "optimize":
        return _run_optimize_case(case)
    if case.mode == "serve":
        return _run_serve_case(case)
    if case.mode == "serve_replicas":
        return _run_serve_replicas_case(case)
    if case.mode == "dist":
        return _run_dist_case(case)
    wl = kernels.build(case.kernel, **case.params)
    sink = RecordingSink()
    if case.mode == "exhaustive":
        config = CampaignConfig(
            mode="exhaustive",
            n_workers=case.n_workers,
            executor=case.executor,
            metrics=True,
            trace_sink=sink,
        )
    else:
        config = CampaignConfig(
            mode="monte_carlo",
            sampling_rate=case.sampling_rate,
            rng=np.random.default_rng(case.seed),
            n_workers=case.n_workers,
            executor=case.executor,
            metrics=True,
            trace_sink=sink,
        )
    t0 = time.perf_counter()
    result = run_campaign(wl, config)
    wall = time.perf_counter() - t0

    metrics = result.metrics or {}
    if case.mode == "exhaustive":
        n_experiments = result.exhaustive.outcomes.size
    else:
        n_experiments = result.sampled.n_samples
    latency = {}
    for phase in ("phase_a", "phase_b"):
        summary = _latency_summary(metrics, f"{phase}.chunk_seconds")
        if summary is not None:
            latency[phase] = summary
    return {
        "name": case.name,
        "kernel": case.kernel,
        "params": dict(case.params),
        "n_workers": case.n_workers or 1,
        "executor": case.executor,
        "sampling_rate": case.sampling_rate,
        "seed": case.seed,
        "n_experiments": int(n_experiments),
        "wall_s": wall,
        "throughput_exps_per_s": n_experiments / wall if wall > 0 else 0.0,
        "chunk_latency_s": latency,
        "peak_rss_kb": metrics.get("gauges", {}).get("rss.peak_kb"),
        "spans": _span_summary(sink.records),
    }


def run_bench(quick: bool = False,
              cases: tuple[BenchCase, ...] | None = None,
              progress=None) -> dict:
    """Run the bench matrix and return the (unwritten) report document."""
    cases = bench_matrix(quick) if cases is None else cases
    entries = []
    for i, case in enumerate(cases):
        entries.append(run_case(case))
        if progress is not None:
            progress(i + 1, len(cases), entries[-1])
    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "rev": detect_rev(),
        "created_unix": time.time(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "quick": bool(quick),
        "cases": entries,
    }


def write_bench(doc: dict, out_dir: str | Path = ".") -> Path:
    """Write the report as ``BENCH_<rev>.json`` and return the path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{doc['rev']}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


def validate_bench(doc: dict) -> list[str]:
    """Schema check of a bench report; returns problems (empty = valid)."""
    problems: list[str] = []

    def need(mapping, key, types, where):
        value = mapping.get(key)
        if not isinstance(value, types):
            problems.append(f"{where}: {key!r} missing or not "
                            f"{types!r} (got {type(value).__name__})")
            return None
        return value

    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, "
                        f"expected {BENCH_SCHEMA!r}")
    if doc.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(f"unsupported schema_version "
                        f"{doc.get('schema_version')!r}")
    need(doc, "rev", str, "report")
    need(doc, "created_unix", (int, float), "report")
    host = need(doc, "host", dict, "report")
    if host is not None:
        for key in ("platform", "python", "numpy"):
            need(host, key, str, "host")
    cases = need(doc, "cases", list, "report")
    if cases is None:
        return problems
    if not cases:
        problems.append("report holds no cases")
    for entry in cases:
        if not isinstance(entry, dict):
            problems.append(f"case is not an object: {entry!r}")
            continue
        where = f"case {entry.get('name', '?')!r}"
        need(entry, "name", str, where)
        need(entry, "kernel", str, where)
        need(entry, "params", dict, where)
        need(entry, "n_workers", int, where)
        need(entry, "executor", str, where)
        need(entry, "n_experiments", int, where)
        need(entry, "wall_s", (int, float), where)
        need(entry, "throughput_exps_per_s", (int, float), where)
        latency = need(entry, "chunk_latency_s", dict, where)
        if latency is not None:
            for phase, summary in latency.items():
                for key in ("p50", "p99", "mean", "count"):
                    need(summary, key, (int, float),
                         f"{where} chunk_latency_s[{phase!r}]")
        spans = need(entry, "spans", list, where)
        if spans is not None:
            if not spans:
                problems.append(f"{where}: no spans recorded")
            for span in spans:
                for key in ("name", "count", "wall_s", "cpu_s"):
                    if key not in span:
                        problems.append(f"{where}: span missing {key!r}")
        if "compose" in entry:
            compose = need(entry, "compose", dict, where)
            if compose is not None:
                need(compose, "n_sections", int, f"{where} compose")
                need(compose, "cache_hits_warm", int, f"{where} compose")
                for key in ("monolithic_wall_s", "cold_wall_s",
                            "warm_wall_s", "warm_speedup"):
                    need(compose, key, (int, float), f"{where} compose")
        if "optimize" in entry:
            optimize = need(entry, "optimize", dict, where)
            if optimize is not None:
                for key in ("n_sites", "n_candidates", "front_size"):
                    need(optimize, key, int, f"{where} optimize")
                for key in ("budget", "candidates_per_s",
                            "campaign_wall_s", "search_wall_s",
                            "best_residual_at_budget", "greedy_cost",
                            "greedy_residual", "unprotected_sdc"):
                    need(optimize, key, (int, float), f"{where} optimize")
        if "serve" in entry:
            serve = need(entry, "serve", dict, where)
            if serve is not None:
                for key in ("qps_warm", "p50_us", "p99_us"):
                    need(serve, key, (int, float), f"{where} serve")
                for key in ("cache_hits", "cache_misses"):
                    need(serve, key, int, f"{where} serve")
        if "serve_replicas" in entry:
            replicas = need(entry, "serve_replicas", dict, where)
            if replicas is not None:
                for key in ("replicas", "client_threads"):
                    need(replicas, key, int, f"{where} serve_replicas")
                for key in ("qps_warm", "qps_single", "speedup",
                            "p50_us", "p99_us"):
                    need(replicas, key, (int, float),
                         f"{where} serve_replicas")
        if "dist" in entry:
            dist = need(entry, "dist", dict, where)
            if dist is not None:
                for key in ("n_nodes", "leases_granted",
                            "results_streamed", "leases_served",
                            "node_deaths"):
                    need(dist, key, int, f"{where} dist")
    return problems


def compare_bench(baseline: dict, current: dict,
                  threshold: float = 0.2) -> list[str]:
    """Kernel-throughput regression gate between two bench reports.

    Cases are matched by name; a matched case regresses when its
    ``throughput_exps_per_s`` drops more than ``threshold`` (fraction)
    below the baseline.  Cases present only in the baseline are reported
    too — silently dropping a row would hide exactly the regressions the
    gate exists for.  New cases in ``current`` are allowed (the matrix
    grows over time).  Returns human-readable problems; empty = pass.
    """
    if not 0 <= threshold < 1:
        raise ValueError("threshold must be in [0, 1)")
    problems: list[str] = []
    base_cases = {c.get("name"): c for c in baseline.get("cases", [])
                  if isinstance(c, dict)}
    cur_cases = {c.get("name"): c for c in current.get("cases", [])
                 if isinstance(c, dict)}
    for name in sorted(base_cases):
        if name not in cur_cases:
            problems.append(f"case {name!r} present in baseline "
                            f"{baseline.get('rev', '?')!r} but missing from "
                            f"{current.get('rev', '?')!r}")
            continue
        base_tp = base_cases[name].get("throughput_exps_per_s")
        cur_tp = cur_cases[name].get("throughput_exps_per_s")
        if not isinstance(base_tp, (int, float)) or base_tp <= 0:
            continue  # nothing meaningful to compare against
        if not isinstance(cur_tp, (int, float)):
            problems.append(f"case {name!r}: current report lacks "
                            "throughput_exps_per_s")
            continue
        if cur_tp < base_tp * (1.0 - threshold):
            problems.append(
                f"case {name!r}: throughput regressed "
                f"{base_tp:.1f} -> {cur_tp:.1f} exps/s "
                f"({100.0 * (1.0 - cur_tp / base_tp):.1f}% drop, "
                f"threshold {100.0 * threshold:.0f}%)")
    return problems

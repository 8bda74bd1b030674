"""Command-line interface: ``python -m repro <command> ...``.

The CLI covers the full workflow an application team would run:

* ``kernels`` — list registered benchmark kernels,
* ``inspect`` — tape statistics of a workload (sites, regions, space),
* ``exhaustive`` — ground-truth campaign, saved to ``.npz``,
* ``sample`` — Monte-Carlo campaign + boundary inference,
* ``adaptive`` — §3.4 progressive campaign + boundary inference,
* ``report`` — per-region vulnerability report from a boundary, with
  precision/recall scoring when ground truth is supplied,
* ``protect`` — §1-style selective-protection plan from a boundary,
* ``compose`` — compositional (sectioned) campaign with content-hash
  summary caching; re-runs after an edit re-campaign only the changed
  sections,
* ``serve`` — the resiliency query service: an HTTP job server running
  campaigns asynchronously (checkpointed, resumed across restarts) and
  answering boundary point queries from published artifacts; with
  ``--dist-port`` it also opens a distributed campaign plane so jobs can
  request ``executor=dist``.  ``SIGTERM``/``SIGINT`` drain gracefully:
  stop accepting, finish in-flight requests and running jobs, flush
  event logs,
* ``dist-coordinator`` / ``dist-node`` — the multi-node campaign plane:
  the coordinator shards a campaign's chunks into leases served by any
  number of node processes (which survive node loss: dead nodes'
  leases are reassigned and the merged boundary stays bit-identical to
  a serial run),
* ``submit`` / ``jobs`` / ``query`` — clients of a running service:
  submit a campaign job, list/inspect/cancel jobs, and ask "is error ε
  at site i predicted masked?".

Workload parameters are passed as repeated ``--param key=value`` options
(values parsed as int, float, bool or string, in that order).

The campaign commands (``exhaustive``, ``sample``, ``adaptive``) accept
``--workers N`` (one process pool for the whole campaign; its workers
fork from the CLI and inherit the workload; without it the campaign runs
serially) and fault-tolerance options:
``--max-retries`` / ``--task-timeout`` build a
:class:`~repro.parallel.resilience.RetryPolicy` for pool runs, and
``--checkpoint DIR`` (with ``--resume`` to continue an interrupted
campaign) persists partial results through
:class:`~repro.core.checkpoint.CampaignCheckpoint`.  They also accept
observability options: ``--trace-out FILE`` streams tracing spans as
JSONL and ``--metrics-out FILE`` writes the campaign's metrics snapshot
as JSON.  All three route through :func:`repro.core.run_campaign`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# ``core`` and ``io`` resolve their names on first use (PEP 562), so the
# module level imports no layer: each command imports only what it runs
# and ``repro <command> --help`` never loads NumPy.
from . import __version__, core, io as rio

__all__ = ["main", "build_parser"]


def _parse_value(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        params[key] = _parse_value(raw)
    return params


def _workload(args):
    from .kernels import build

    return build(args.kernel, **_parse_params(args.param))


def _check_resume(args) -> None:
    """Reject ``--resume`` without ``--checkpoint`` before any work runs."""
    if getattr(args, "resume", False) and not args.checkpoint:
        raise SystemExit(
            "--resume requires --checkpoint DIR: --resume continues the "
            "partial state a checkpointed campaign wrote, so pass the "
            "same --checkpoint directory as the interrupted run "
            "(e.g. `repro sample ... --checkpoint ckpt/ --resume`)")


def _retry_policy(args):
    """A RetryPolicy from ``--max-retries`` / ``--task-timeout`` (or None)."""
    from .parallel.resilience import RetryPolicy

    if args.max_retries is None and args.task_timeout is None:
        return None
    try:
        return RetryPolicy(
            max_retries=(2 if args.max_retries is None
                         else args.max_retries),
            task_timeout=args.task_timeout,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _resilience(args, wl):
    """(retry_policy, checkpoint) from the campaign fault-tolerance flags."""
    from .core.checkpoint import CampaignCheckpoint

    _check_resume(args)
    policy = _retry_policy(args)
    checkpoint = None
    if args.checkpoint:
        try:
            checkpoint = CampaignCheckpoint(args.checkpoint, wl,
                                            resume=args.resume)
        except ValueError as exc:  # includes CheckpointMismatchError
            raise SystemExit(str(exc)) from exc
    return policy, checkpoint


def _campaign_config(**kwargs) -> "core.CampaignConfig":
    """CampaignConfig with config mistakes surfaced as CLI errors."""
    try:
        return core.CampaignConfig(**kwargs)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _obs_options(args):
    """(config kwargs, jsonl sink) from the observability flags."""
    from .obs.trace import JsonlSink

    kwargs = {}
    sink = None
    if getattr(args, "trace_out", None):
        sink = JsonlSink(args.trace_out)
        kwargs["trace_sink"] = sink
    if getattr(args, "metrics_out", None):
        kwargs["metrics"] = True
    return kwargs, sink


def _finish_obs(args, result, sink, out) -> None:
    """Close the trace sink and write the metrics snapshot, if requested."""
    if sink is not None:
        sink.close()
        print(f"trace -> {args.trace_out}", file=out)
    if getattr(args, "metrics_out", None):
        Path(args.metrics_out).write_text(
            json.dumps(result.metrics, indent=2, sort_keys=True))
        print(f"metrics -> {args.metrics_out}", file=out)


def _print_health(health, out) -> None:
    """One status line for campaigns that recovered from faults."""
    if health is not None and not health.clean:
        print(f"resilience: {health.summary()}", file=out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault tolerance boundary analysis through error "
                    "propagation (PPoPP'21 reproduction).",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p):
        p.add_argument("--kernel", required=True,
                       help="registered kernel name (see `repro kernels`)")
        p.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="workload parameter (repeatable)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes of the campaign's one pool; "
                            "they fork from this process and inherit the "
                            "workload (default: serial)")

    def add_resilience_args(p):
        p.add_argument("--checkpoint", default=None, metavar="DIR",
                       help="persist partial results to DIR as they "
                            "complete")
        p.add_argument("--resume", action="store_true",
                       help="continue a checkpointed campaign instead of "
                            "rejecting the existing state")
        p.add_argument("--max-retries", type=int, default=None,
                       help="re-run a failed/crashed/timed-out task up to "
                            "N times (pool runs; default 2 when any "
                            "resilience flag is set)")
        p.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-task wall-clock deadline; expired tasks "
                            "are presumed hung and retried on a fresh "
                            "pool")

    def add_obs_args(p):
        p.add_argument("--trace-out", default=None, metavar="FILE",
                       help="stream tracing spans (campaign phases, "
                            "latencies, RSS deltas) to FILE as JSONL")
        p.add_argument("--metrics-out", default=None, metavar="FILE",
                       help="write the campaign's metrics snapshot "
                            "(counters/gauges/histograms) to FILE as JSON")

    sub.add_parser("kernels", help="list registered kernels")

    p = sub.add_parser("inspect", help="tape statistics of a workload")
    add_workload_args(p)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON (tape stats, regions, "
                        "default section cuts and their live widths)")

    p = sub.add_parser("disasm", help="disassemble a workload's tape")
    add_workload_args(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--stop", type=int, default=None)
    p.add_argument("--values", action="store_true",
                   help="annotate with golden-run values")
    p.add_argument("--boundary", default=None,
                   help="annotate with thresholds from a boundary .npz")
    p.add_argument("--json", action="store_true",
                   help="emit one JSON object per instruction instead of "
                        "the text listing")

    p = sub.add_parser("exhaustive", help="run the exhaustive campaign")
    add_workload_args(p)
    add_resilience_args(p)
    add_obs_args(p)
    p.add_argument("--out", required=True, help="output .npz path")

    p = sub.add_parser("sample", help="Monte-Carlo campaign + inference")
    add_workload_args(p)
    add_resilience_args(p)
    add_obs_args(p)
    p.add_argument("--rate", type=float, required=True,
                   help="sampling rate over the (site, bit) space")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-filter", action="store_true",
                   help="disable the §3.5 SDC filter")
    p.add_argument("--boundary-out", required=True,
                   help="boundary output .npz path")
    p.add_argument("--sampled-out", default=None,
                   help="optional sampled-result output .npz path")

    p = sub.add_parser("adaptive", help="progressive adaptive campaign")
    add_workload_args(p)
    add_resilience_args(p)
    add_obs_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--round-fraction", type=float, default=0.001)
    p.add_argument("--stop-masked-fraction", type=float, default=0.05)
    p.add_argument("--boundary-out", required=True)
    p.add_argument("--sampled-out", default=None)

    p = sub.add_parser("combined",
                       help="pilot-seeded hybrid campaign (§6 combination)")
    add_workload_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pilots-per-group", type=int, default=1)
    p.add_argument("--boundary-out", required=True)
    p.add_argument("--sampled-out", default=None)

    p = sub.add_parser("report", help="vulnerability report from a boundary")
    add_workload_args(p)
    p.add_argument("--boundary", required=True, help="boundary .npz path")
    p.add_argument("--golden", default=None,
                   help="optional exhaustive-result .npz for scoring")
    p.add_argument("--top", type=int, default=10,
                   help="number of regions to list")

    p = sub.add_parser("validate",
                       help="holdout validation of a boundary "
                            "(unbiased precision/recall estimates)")
    add_workload_args(p)
    p.add_argument("--boundary", required=True)
    p.add_argument("--sampled", required=True,
                   help="the campaign that built the boundary (its "
                        "experiments are excluded from the holdout)")
    p.add_argument("--holdout", type=int, default=500,
                   help="number of fresh holdout experiments")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--confidence", type=float, default=0.95)

    p = sub.add_parser("fullreport",
                       help="comprehensive resiliency report")
    add_workload_args(p)
    p.add_argument("--boundary", required=True)
    p.add_argument("--sampled", default=None,
                   help="sampled-result .npz (enables self-verification)")
    p.add_argument("--golden", default=None,
                   help="exhaustive-result .npz (enables validation + "
                        "bit-field sections)")
    p.add_argument("--budget", type=float, default=0.2,
                   help="protection budget for the suggestion section")

    p = sub.add_parser("protect", help="selective protection plan")
    add_workload_args(p)
    p.add_argument("--boundary", required=True)
    p.add_argument("--budget", type=float, default=None,
                   help="fraction of sites to protect")
    p.add_argument("--target", type=float, default=None,
                   help="target residual SDC ratio")

    p = sub.add_parser("compose",
                       help="compositional campaign: per-section summaries "
                            "with content-hash caching")
    add_workload_args(p)
    add_obs_args(p)
    p.add_argument("--max-retries", type=int, default=None,
                   help="re-run a failed/crashed/timed-out section task up "
                        "to N times (pool runs)")
    p.add_argument("--task-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-section wall-clock deadline for pool runs")
    p.add_argument("--sections", default="regions", metavar="SPEC",
                   help="'regions' (default: cut at top-level region "
                        "changes), 'auto[:N]' (live-width-guided cuts, "
                        "optionally N sections), or explicit comma-"
                        "separated cut indices like '40,90,130'")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed summary store; warm re-runs "
                        "re-campaign only changed sections")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore --cache-dir (force a cold run)")
    p.add_argument("--slack", type=float, default=1.0,
                   help="safety factor (>= 1) on boundary error "
                        "magnitudes during composition")
    p.add_argument("--boundary-out", default=None,
                   help="save the composed boundary to this .npz path")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON report (sections, "
                        "cache hits/misses, boundary stats)")

    p = sub.add_parser("optimize",
                       help="search-driven protection placement: beam + "
                            "evolutionary search over per-site modes, "
                            "scored by envelope composition")
    add_workload_args(p)
    add_obs_args(p)
    p.add_argument("--target-sdc", type=float, default=None,
                   help="meet this residual SDC ratio at minimum cost")
    p.add_argument("--budget", type=float, default=None,
                   help="minimise residual SDC at (normalised) cost "
                        "<= this budget")
    p.add_argument("--modes", default="duplicate,detector,precision",
                   metavar="LIST",
                   help="comma-separated protection modes to place "
                        "(duplicate, detector, precision)")
    p.add_argument("--margin", type=float, default=0.5,
                   help="range-detector margin around observed values")
    p.add_argument("--beam", type=int, default=8, dest="beam_width",
                   help="beam width for the local-search stage")
    p.add_argument("--beam-steps", type=int, default=96,
                   help="max beam-search improvement steps")
    p.add_argument("--generations", type=int, default=12,
                   help="evolutionary generations after the beam stage")
    p.add_argument("--population", type=int, default=32,
                   help="evolutionary population size")
    p.add_argument("--seed", type=int, default=0,
                   help="search RNG seed (deterministic per seed)")
    p.add_argument("--sections", default="regions", metavar="SPEC",
                   help="sectioning spec for the compositional campaign "
                        "(see `repro compose --sections`)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed summary store for the "
                        "compositional campaign")
    p.add_argument("--slack", type=float, default=1.0,
                   help="safety factor (>= 1) on boundary error "
                        "magnitudes during composition")
    p.add_argument("--front-out", default=None, metavar="FILE",
                   help="save the Pareto front to this .npz path")
    p.add_argument("--plan-out", default=None, metavar="FILE",
                   help="save the chosen point as a ProtectionPlan .npz")
    p.add_argument("--golden", default=None, metavar="FILE",
                   help="exhaustive-result .npz: validate the chosen "
                        "placement against ground truth")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON report (front, "
                        "greedy baseline, chosen point)")

    p = sub.add_parser("serve", help="run the resiliency query service")
    p.add_argument("--root", required=True, metavar="DIR",
                   help="service state directory (job manifests, "
                        "checkpoints, published boundaries); jobs left "
                        "unfinished by a previous process are resumed "
                        "from their checkpoints")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default 0: pick an ephemeral port "
                        "and print it)")
    p.add_argument("--job-workers", type=int, default=1,
                   help="campaign jobs run concurrently")
    p.add_argument("--campaign-workers", type=int, default=None,
                   help="cap on each campaign's own worker count")
    p.add_argument("--cache-capacity", type=int, default=None,
                   help="boundaries pinned in the artifact cache")
    p.add_argument("--no-recover", action="store_true",
                   help="do not re-enqueue jobs left unfinished by a "
                        "previous process")
    p.add_argument("--verbose", action="store_true",
                   help="log HTTP requests to stderr")
    p.add_argument("--dist-port", type=int, default=None, metavar="PORT",
                   help="also open a distributed campaign plane on PORT "
                        "(0: ephemeral, printed at startup); jobs may "
                        "then request executor=dist and `repro dist-node`"
                        " processes can attach")
    p.add_argument("--replicas", type=int, default=1, metavar="N",
                   help="run N replica processes sharing this port via "
                        "SO_REUSEPORT and this root via the claim-based "
                        "job store; the supervisor restarts crashed "
                        "replicas and propagates drain on SIGTERM")
    p.add_argument("--reuse-port", action="store_true",
                   help="bind with SO_REUSEPORT so other replicas can "
                        "join this host:port (implied by --replicas > 1)")
    p.add_argument("--replica-id", default=None, metavar="NAME",
                   help="name this process claims jobs under (shown in "
                        "/healthz and job manifests; default: r<pid>)")
    p.add_argument("--claim-ttl", type=float, default=None, metavar="SEC",
                   help="seconds of heartbeat silence before a replica's "
                        "job claims go stale and siblings take them over "
                        "(default 10)")

    p = sub.add_parser("dist-coordinator",
                       help="run a campaign coordinated across dist-node "
                            "processes")
    add_workload_args(p)
    add_resilience_args(p)
    add_obs_args(p)
    p.add_argument("--host", default="127.0.0.1",
                   help="address the coordinator listens on")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (default 0: pick an ephemeral port "
                        "and print it)")
    p.add_argument("--mode", default="exhaustive",
                   choices=["exhaustive", "sample"])
    p.add_argument("--rate", type=float, default=None,
                   help="sampling rate for --mode sample")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-budget", type=int, default=None,
                   help="byte budget per replay batch (smaller budgets "
                        "cut the space into more, finer-grained leases)")
    p.add_argument("--wait-nodes", type=int, default=0, metavar="N",
                   help="wait for N nodes to attach before starting "
                        "(default 0: start at once; with no nodes the "
                        "campaign degrades to local execution after a "
                        "grace period)")
    p.add_argument("--wait-timeout", type=float, default=60.0,
                   help="seconds to wait for --wait-nodes")
    p.add_argument("--out", default=None,
                   help="exhaustive-result output .npz path "
                        "(--mode exhaustive)")
    p.add_argument("--boundary-out", default=None,
                   help="boundary output .npz path (--mode sample)")

    p = sub.add_parser("dist-node",
                       help="serve campaign leases for a dist-coordinator")
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="coordinator address, e.g. 127.0.0.1:8653")
    p.add_argument("--workers", type=int, default=None,
                   help="lease concurrency of this node (default: CPU "
                        "count derived)")
    p.add_argument("--node-id", default=None,
                   help="node name announced to the coordinator "
                        "(default: hostname-pid)")

    p = sub.add_parser("submit",
                       help="submit a campaign job to a running service")
    p.add_argument("--url", required=True, metavar="URL",
                   help="service base URL, e.g. http://127.0.0.1:8642")
    p.add_argument("--kernel", required=True,
                   help="registered kernel name (see `repro kernels`)")
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="workload parameter (repeatable)")
    p.add_argument("--mode", default="sample",
                   choices=["exhaustive", "sample", "adaptive", "compose",
                            "optimize"])
    p.add_argument("--option", action="append", default=[],
                   metavar="KEY=VALUE",
                   help="campaign option (repeatable), e.g. "
                        "sampling_rate=0.05 seed=0 n_workers=4 "
                        "max_retries=2")
    p.add_argument("--wait", action="store_true",
                   help="block until the job is terminal and print the "
                        "final manifest")
    p.add_argument("--follow", action="store_true",
                   help="stream the job's NDJSON events until it "
                        "finishes (implies --wait)")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="--wait/--follow deadline in seconds")

    p = sub.add_parser("jobs", help="list/inspect/cancel service jobs")
    p.add_argument("--url", required=True, metavar="URL")
    p.add_argument("--job", default=None, metavar="ID",
                   help="show one job's manifest instead of the list")
    p.add_argument("--events", action="store_true",
                   help="with --job: print its event log")
    p.add_argument("--cancel", action="store_true",
                   help="with --job: request cancellation")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")

    p = sub.add_parser("query",
                       help="boundary point query against a service: is "
                            "error EPS at SITE predicted masked?")
    p.add_argument("--url", required=True, metavar="URL")
    p.add_argument("--key", default=None, metavar="WORKLOAD_KEY",
                   help="published workload key; omit with --kernel to "
                        "derive it from the workload content hash, or "
                        "omit both to list published keys")
    p.add_argument("--kernel", default=None,
                   help="derive the workload key locally from this "
                        "kernel (+ --param)")
    p.add_argument("--param", action="append", default=[],
                   metavar="KEY=VALUE")
    p.add_argument("--site", type=int, default=None,
                   help="fault-site index")
    p.add_argument("--eps", type=float, default=None,
                   help="injected error magnitude (requires --site)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    return parser


# ------------------------------------------------------------ subcommands


def _cmd_kernels(args, out) -> int:
    from .kernels import available_kernels

    for name in available_kernels():
        print(name, file=out)
    return 0


def _cmd_inspect(args, out) -> int:
    import numpy as np

    from .cfg.workload import is_cfg_workload

    wl = _workload(args)
    prog = wl.program
    is_cfg = is_cfg_workload(wl)
    if args.json:
        counts = np.bincount(prog.region_ids,
                             minlength=len(prog.region_names))
        doc = {
            "version": __version__,
            "workload": wl.description,
            "kernel": wl.name,
            "instructions": len(prog),
            "fault_sites": prog.n_sites,
            "bits_per_site": prog.bits_per_site,
            "sample_space": prog.sample_space_size,
            "tolerance": wl.tolerance,
            "norm": wl.norm,
            "trace_memory_bytes": wl.trace.memory_bytes(),
            "regions": [
                {"name": name, "instructions": int(counts[rid])}
                for rid, name in enumerate(prog.region_names) if counts[rid]
            ],
        }
        if is_cfg:
            # CFG structure; section cuts are straight-line-only, so the
            # compose fields are replaced by block/edge statistics.
            back = set(prog.back_edges())
            doc.update({
                "program_kind": "cfg",
                "static_instructions": prog.n_static_instructions,
                "n_blocks": prog.n_blocks,
                "n_backedges": prog.n_backedges,
                "n_guards": prog.n_guards,
                "max_steps": prog.resolved_max_steps(),
                "golden_path_steps": wl.trace.n_steps,
                "edges": [
                    {"src": prog.blocks[s].name, "dst": prog.blocks[d].name,
                     "back_edge": (s, d) in back}
                    for s, d in prog.edges()
                ],
            })
        else:
            from .compose.sections import default_cuts, live_widths, partition

            cuts = default_cuts(prog)
            widths = live_widths(prog)
            doc.update({
                "program_kind": "tape",
                "section_cuts": [int(c) for c in cuts],
                "cut_live_widths": [int(widths[c]) for c in cuts],
                "sections": [
                    {"name": s.name, "start": s.start, "end": s.end}
                    for s in partition(prog, cuts)
                ],
            })
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
        return 0
    print(f"workload:     {wl.description}", file=out)
    print(f"instructions: {len(prog)}", file=out)
    if is_cfg:
        print(f"static rows:  {prog.n_static_instructions} in "
              f"{prog.n_blocks} blocks "
              f"({prog.n_backedges} back-edges, {prog.n_guards} guards)",
              file=out)
        print(f"golden path:  {wl.trace.n_steps} block steps", file=out)
        print(f"hang budget:  {prog.resolved_max_steps()} steps", file=out)
    print(f"fault sites:  {prog.n_sites}", file=out)
    print(f"bits/site:    {prog.bits_per_site}", file=out)
    print(f"sample space: {prog.sample_space_size}", file=out)
    print(f"tolerance T:  {wl.tolerance:.6g}", file=out)
    print(f"trace memory: {wl.trace.memory_bytes()} bytes", file=out)
    print("regions:", file=out)
    counts = np.bincount(prog.region_ids, minlength=len(prog.region_names))
    for rid, name in enumerate(prog.region_names):
        if counts[rid]:
            print(f"  {name:24s} {counts[rid]:6d} instructions", file=out)
    return 0


def _cmd_disasm(args, out) -> int:
    import numpy as np

    from .cfg.workload import is_cfg_workload
    from .engine import disassemble
    from .engine.disasm import format_instruction
    from .engine.program import Opcode

    wl = _workload(args)
    prog = wl.program
    if is_cfg_workload(wl):
        return _disasm_cfg(args, wl, out)
    thresholds = None
    if args.boundary:
        boundary = rio.load_boundary(args.boundary)
        thresholds = np.full(len(prog), np.nan)
        thresholds[prog.site_indices] = boundary.thresholds
    stop = args.stop if args.stop is not None else min(
        len(prog), args.start + 200)
    if args.json:
        if not 0 <= args.start <= stop <= len(prog):
            raise SystemExit("invalid disassembly range")
        rows = []
        for i in range(args.start, stop):
            row = {
                "index": i,
                "op": Opcode(prog.ops[i]).name,
                "operands": [int(o) for o in prog.operands[i]],
                "text": format_instruction(prog, i),
                "region": prog.region_names[int(prog.region_ids[i])],
                "site": bool(prog.is_site[i]),
            }
            if args.values:
                row["value"] = float(wl.trace.values[i])
            if thresholds is not None and not np.isnan(thresholds[i]):
                t = thresholds[i]
                row["threshold"] = float(t) if np.isfinite(t) else "inf"
            rows.append(row)
        print(json.dumps(rows, indent=2), file=out)
        return 0
    annotations = {"Δe": thresholds} if thresholds is not None else None
    text = disassemble(prog, start=args.start, stop=stop,
                       trace=wl.trace if args.values else None,
                       annotations=annotations)
    print(text, file=out)
    return 0


def _disasm_cfg(args, wl, out) -> int:
    """CFG branch of ``disasm``: whole-program block listing.

    ``--start/--stop`` windows and ``--boundary`` thresholds are dynamic-row
    concepts (a static CFG row executes many times), so they do not apply.
    """
    import numpy as np

    from .cfg.program import TermKind
    from .engine.disasm import (disassemble_cfg, format_cfg_row,
                                format_cfg_terminator)
    from .engine.program import Opcode

    if args.boundary:
        raise SystemExit(
            "--boundary annotates dynamic tape rows; CFG programs are "
            "disassembled statically (use 'report' for boundary views)")
    prog = wl.program
    trace = wl.trace
    if args.json:
        back = set(prog.back_edges())
        exec_counts = np.bincount(trace.block_path, minlength=prog.n_blocks)
        blocks = []
        for bid, blk in enumerate(prog.blocks):
            rows = []
            for j in range(blk.n_rows):
                rows.append({
                    "row": j,
                    "op": Opcode(blk.ops[j]).name,
                    "dst": int(blk.dst[j]),
                    "operands": [int(o) for o in blk.operands[j]],
                    "text": format_cfg_row(prog, bid, j),
                    "site": bool(blk.is_site[j]),
                })
            term = blk.term
            targets = [prog.blocks[t].name for t in term.successors()]
            blocks.append({
                "index": bid,
                "name": blk.name,
                "rows": rows,
                "terminator": {
                    "kind": TermKind(term.kind).name,
                    "text": format_cfg_terminator(prog, bid),
                    "targets": targets,
                },
                "golden_executions": int(exec_counts[bid]),
            })
        doc = {
            "program_kind": "cfg",
            "blocks": blocks,
            "edges": [
                {"src": prog.blocks[s].name, "dst": prog.blocks[d].name,
                 "back_edge": (s, d) in back}
                for s, d in prog.edges()
            ],
            "golden_path": [prog.blocks[int(b)].name
                            for b in trace.block_path],
        }
        print(json.dumps(doc, indent=2), file=out)
        return 0
    print(disassemble_cfg(prog, trace=trace if args.values else None),
          file=out)
    return 0


def _cmd_exhaustive(args, out) -> int:
    _check_resume(args)
    wl = _workload(args)
    policy, checkpoint = _resilience(args, wl)
    obs_kwargs, sink = _obs_options(args)
    result = core.run_campaign(wl, _campaign_config(
        mode="exhaustive", n_workers=args.workers, retry_policy=policy,
        checkpoint=checkpoint, **obs_kwargs))
    golden = result.exhaustive
    rio.save_exhaustive(args.out, golden)
    _finish_obs(args, result, sink, out)
    _print_health(result.health, out)
    print(f"ran {golden.space.size} experiments", file=out)
    print(f"SDC ratio:    {golden.sdc_ratio():.4%}", file=out)
    print(f"crash ratio:  {golden.crash_ratio():.4%}", file=out)
    print(f"masked ratio: {golden.masked_ratio():.4%}", file=out)
    print(f"saved -> {args.out}", file=out)
    return 0


def _cmd_sample(args, out) -> int:
    _check_resume(args)
    wl = _workload(args)
    policy, checkpoint = _resilience(args, wl)
    obs_kwargs, sink = _obs_options(args)
    result = core.run_campaign(wl, _campaign_config(
        mode="monte_carlo", sampling_rate=args.rate, seed=args.seed,
        use_filter=not args.no_filter, n_workers=args.workers,
        retry_policy=policy, checkpoint=checkpoint, **obs_kwargs))
    sampled, boundary = result.sampled, result.boundary
    rio.save_boundary(args.boundary_out, boundary)
    if args.sampled_out:
        rio.save_sampled(args.sampled_out, sampled)
    _finish_obs(args, result, sink, out)
    _print_health(result.health, out)
    predictor = core.BoundaryPredictor(wl.trace)
    unc = core.uncertainty(
        predictor.predict_masked_flat(boundary, sampled.flat),
        sampled.outcomes)
    print(f"ran {sampled.n_samples} experiments "
          f"({sampled.sampling_rate:.4%} of the space)", file=out)
    print(f"sampled SDC ratio:   {sampled.sdc_ratio():.4%}", file=out)
    print(f"predicted SDC ratio: "
          f"{predictor.predicted_sdc_ratio(boundary):.4%}", file=out)
    print(f"uncertainty:         {unc:.4%}", file=out)
    print(f"boundary -> {args.boundary_out}", file=out)
    return 0


def _cmd_adaptive(args, out) -> int:
    _check_resume(args)
    wl = _workload(args)
    config = core.ProgressiveConfig(
        round_fraction=args.round_fraction,
        stop_masked_fraction=args.stop_masked_fraction)
    policy, checkpoint = _resilience(args, wl)
    obs_kwargs, sink = _obs_options(args)
    result = core.run_campaign(wl, _campaign_config(
        mode="adaptive", seed=args.seed, progressive=config,
        n_workers=args.workers, retry_policy=policy,
        checkpoint=checkpoint, **obs_kwargs))
    rio.save_boundary(args.boundary_out, result.boundary)
    if args.sampled_out:
        rio.save_sampled(args.sampled_out, result.sampled)
    _finish_obs(args, result, sink, out)
    _print_health(result.health, out)
    predictor = core.BoundaryPredictor(wl.trace)
    print(f"rounds: {result.rounds}", file=out)
    print(f"samples: {result.sampled.n_samples} "
          f"({result.sampling_rate:.4%} of the space)", file=out)
    print(f"predicted SDC ratio: "
          f"{predictor.predicted_sdc_ratio(result.boundary):.4%}", file=out)
    print(f"boundary -> {args.boundary_out}", file=out)
    return 0


def _cmd_combined(args, out) -> int:
    import numpy as np

    wl = _workload(args)
    result = core.run_combined(
        wl, np.random.default_rng(args.seed),
        pilots_per_group=args.pilots_per_group, n_workers=args.workers)
    rio.save_boundary(args.boundary_out, result.boundary)
    if args.sampled_out:
        rio.save_sampled(args.sampled_out, result.sampled)
    predictor = core.BoundaryPredictor(wl.trace)
    print(f"groups: {result.n_groups} "
          f"(seed samples: {result.n_seed_samples})", file=out)
    print(f"refinement rounds: {result.rounds}", file=out)
    print(f"samples: {result.sampled.n_samples} "
          f"({result.sampling_rate:.4%} of the space)", file=out)
    print(f"predicted SDC ratio: "
          f"{predictor.predicted_sdc_ratio(result.boundary):.4%}", file=out)
    print(f"boundary -> {args.boundary_out}", file=out)
    return 0


def _cmd_report(args, out) -> int:
    from .analysis import region_means

    wl = _workload(args)
    boundary = rio.load_boundary(args.boundary)
    predictor = core.BoundaryPredictor(wl.trace)
    per_site = predictor.predicted_sdc_ratio_per_site(boundary)
    print(f"predicted overall SDC ratio: "
          f"{predictor.predicted_sdc_ratio(boundary):.4%}", file=out)
    stats = boundary.stats()
    print(f"boundary coverage: {stats['covered_fraction']:.2%} of sites "
          f"({stats['exact_fraction']:.2%} exact)", file=out)
    print(f"\ntop {args.top} regions by predicted SDC ratio:", file=out)
    rows = region_means(wl.program, per_site)
    for name, mean, count in sorted(rows, key=lambda r: -r[1])[:args.top]:
        print(f"  {name:24s} {mean:8.2%}  ({count} sites)", file=out)
    if args.golden:
        golden = rio.load_exhaustive(args.golden)
        quality = core.evaluate_boundary(predictor, boundary, golden)
        print(f"\nscored against ground truth:", file=out)
        print(f"  precision: {quality.precision:.4%}", file=out)
        print(f"  recall:    {quality.recall:.4%}", file=out)
        print(f"  golden SDC ratio: {quality.golden_sdc:.4%}", file=out)
    return 0


def _cmd_validate(args, out) -> int:
    import numpy as np

    wl = _workload(args)
    boundary = rio.load_boundary(args.boundary)
    train = rio.load_sampled(args.sampled)
    space = core.SampleSpace.of_program(wl.program)
    exclude = np.zeros(space.size, dtype=bool)
    exclude[train.flat] = True
    holdout_flat = core.uniform_sample(
        space, args.holdout, np.random.default_rng(args.seed),
        exclude=exclude)
    holdout = core.run_campaign(wl, core.CampaignConfig(
        mode="sample", experiments=holdout_flat,
        n_workers=args.workers)).sampled
    predictor = core.BoundaryPredictor(wl.trace)
    est = core.holdout_validation(predictor, boundary, holdout,
                                  confidence=args.confidence)
    print(est.summary(), file=out)
    return 0


def _cmd_fullreport(args, out) -> int:
    from .analysis import resiliency_report

    wl = _workload(args)
    boundary = rio.load_boundary(args.boundary)
    sampled = rio.load_sampled(args.sampled) if args.sampled else None
    golden = rio.load_exhaustive(args.golden) if args.golden else None
    print(resiliency_report(wl, boundary, sampled=sampled, golden=golden,
                            protection_budget=args.budget), file=out)
    return 0


def _cmd_protect(args, out) -> int:
    import numpy as np

    if (args.budget is None) == (args.target is None):
        raise SystemExit("specify exactly one of --budget or --target")
    wl = _workload(args)
    boundary = rio.load_boundary(args.boundary)
    predictor = core.BoundaryPredictor(wl.trace)
    if args.budget is not None:
        plan = core.plan_by_budget(predictor, boundary, args.budget)
    else:
        plan = core.plan_by_target(predictor, boundary, args.target)
    print(f"protected sites: {plan.protected.size} "
          f"({plan.overhead:.2%} overhead)", file=out)
    print(f"predicted SDC: {plan.predicted_unprotected_sdc:.4%} -> "
          f"{plan.predicted_residual_sdc:.4%} "
          f"(coverage {plan.predicted_coverage:.2%})", file=out)
    regions = wl.program.region_ids[
        wl.program.site_indices[plan.protected]]
    print("protected instructions per region:", file=out)
    counts = np.bincount(regions, minlength=len(wl.program.region_names))
    for rid, name in enumerate(wl.program.region_names):
        if counts[rid]:
            print(f"  {name:24s} {counts[rid]:6d}", file=out)
    return 0


def _parse_sections(spec: str) -> dict:
    """ComposeConfig sectioning kwargs from the ``--sections`` spec."""
    spec = spec.strip()
    if spec == "regions":
        return {}
    if spec == "auto":
        return {"n_sections": None, "cuts": None}
    if spec.startswith("auto:"):
        try:
            return {"n_sections": int(spec.split(":", 1)[1])}
        except ValueError:
            raise SystemExit(f"--sections auto:N needs an integer, "
                             f"got {spec!r}") from None
    try:
        cuts = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise SystemExit(
            f"--sections expects 'regions', 'auto[:N]' or comma-separated "
            f"cut indices, got {spec!r}") from None
    return {"cuts": cuts}


def _cmd_compose(args, out) -> int:
    from .compose import ComposeConfig

    wl = _workload(args)
    policy = _retry_policy(args)
    obs_kwargs, sink = _obs_options(args)
    try:
        compose_cfg = ComposeConfig(
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            slack=args.slack,
            **_parse_sections(args.sections),
        )
        result = core.run_campaign(wl, core.CampaignConfig(
            mode="compositional", compose=compose_cfg,
            n_workers=args.workers, retry_policy=policy, **obs_kwargs))
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    if args.boundary_out:
        rio.save_boundary(args.boundary_out, result.boundary)
    _finish_obs(args, result, sink, out)
    _print_health(result.health, out)
    stats = result.boundary.stats()
    if args.json:
        doc = {
            "kernel": wl.name,
            "tolerance": wl.tolerance,
            "norm": wl.norm,
            "n_sections": result.n_sections,
            "n_experiments": result.n_experiments,
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
            "n_recomputed": result.n_recomputed,
            "sections": result.section_stats,
            "boundary": stats,
        }
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
        return 0
    print(f"sections: {result.n_sections} "
          f"({result.n_recomputed} campaigned, "
          f"{result.cache_hits} cache hits)", file=out)
    print(f"experiments: {result.n_experiments}", file=out)
    for s in result.section_stats:
        tag = "exact" if s["exact"] else "conservative"
        print(f"  {s['section']:24s} [{s['start']:5d},{s['end']:5d}) "
              f"{s['n_sites']:5d} sites  "
              f"{s['predicted_masked']:6d} masked  {tag}", file=out)
    print(f"boundary coverage: {stats['covered_fraction']:.2%} of sites "
          f"({stats['exact_fraction']:.2%} exact)", file=out)
    if args.boundary_out:
        print(f"boundary -> {args.boundary_out}", file=out)
    return 0


def _cmd_optimize(args, out) -> int:
    from .compose import ComposeConfig
    from .optimize import (
        EnvelopeEvaluator,
        SearchConfig,
        build_cost_model,
        synthesize,
        validate_placement,
    )

    if (args.budget is None) == (args.target_sdc is None):
        raise SystemExit("specify exactly one of --budget or --target-sdc")
    wl = _workload(args)
    obs_kwargs, sink = _obs_options(args)
    modes = tuple(tok.strip() for tok in args.modes.split(",")
                  if tok.strip())
    try:
        search_cfg = SearchConfig(
            modes=modes, target_sdc=args.target_sdc, budget=args.budget,
            beam_width=args.beam_width, beam_steps=args.beam_steps,
            generations=args.generations, population=args.population,
            seed=args.seed)
        compose_cfg = ComposeConfig(
            cache_dir=args.cache_dir, slack=args.slack,
            **_parse_sections(args.sections))
        result = core.run_campaign(wl, core.CampaignConfig(
            mode="compositional", compose=compose_cfg,
            n_workers=args.workers, **obs_kwargs))
        model = build_cost_model(wl, modes=search_cfg.modes,
                                 margin=args.margin)
        evaluator = EnvelopeEvaluator.from_summaries(
            model, result.summaries, result.boundary.space, wl.tolerance,
            slack=args.slack)
        synth = synthesize(evaluator, search_cfg,
                           predictor=core.BoundaryPredictor(wl.trace),
                           boundary=result.boundary)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    front = synth.front
    chosen = synth.chosen_index(search_cfg)
    validation = None
    if args.golden is not None and chosen is not None:
        golden = rio.load_exhaustive(args.golden)
        validation = validate_placement(front.placements[chosen], model,
                                        golden)
    if args.front_out:
        rio.save_front(args.front_out, front, meta={
            "kernel": wl.name, "search": search_cfg.content_key()})
    if args.plan_out and chosen is not None:
        rio.save_plan(args.plan_out, front.plan_for(chosen, evaluator))
    _finish_obs(args, result, sink, out)
    _print_health(result.health, out)
    if args.json:
        doc = {
            "kernel": wl.name,
            "tolerance": wl.tolerance,
            "n_sites": model.n_sites,
            "modes": list(front.modes),
            "unprotected_sdc": evaluator.unprotected_sdc,
            "n_candidates": synth.n_candidates,
            "generations": synth.generations,
            "front": front.as_dict(),
            "greedy": synth.greedy,
            "chosen": None if chosen is None else {
                "index": chosen,
                "cost": float(front.costs[chosen]),
                "residual_sdc": float(front.residuals[chosen]),
                "mode_counts": front.mode_counts(chosen),
            },
            "validation": validation,
        }
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
        return 0
    print(f"sites: {model.n_sites}  modes: {', '.join(front.modes[1:])}",
          file=out)
    print(f"unprotected predicted SDC: {evaluator.unprotected_sdc:.4%}",
          file=out)
    print(f"searched {synth.n_candidates} candidates "
          f"({synth.generations} generations); "
          f"front has {front.n_points} points", file=out)
    if synth.greedy is not None:
        print(f"greedy baseline: cost {synth.greedy['cost']:.4f}  "
              f"residual {synth.greedy['residual_sdc']:.4%}", file=out)
    if chosen is not None:
        counts = ", ".join(f"{name}={n}" for name, n
                           in front.mode_counts(chosen).items() if n)
        print(f"chosen: cost {front.costs[chosen]:.4f}  "
              f"residual {front.residuals[chosen]:.4%}  [{counts}]",
              file=out)
    elif args.target_sdc is not None:
        print(f"no searched placement met residual target "
              f"{args.target_sdc:.4%}", file=out)
    else:
        print(f"no searched placement fit budget {args.budget:.4f}",
              file=out)
    if validation is not None:
        print(f"ground truth: residual "
              f"{validation['true_residual_sdc']:.4%} "
              f"(unprotected {validation['true_unprotected_sdc']:.4%}, "
              f"coverage {validation['true_coverage']:.2%})", file=out)
    if args.front_out:
        print(f"front -> {args.front_out}", file=out)
    if args.plan_out and chosen is not None:
        print(f"plan -> {args.plan_out}", file=out)
    return 0


class _DrainRequested(BaseException):
    """Raised by the serve signal handlers to unwind ``serve_forever``.

    A ``BaseException``, like ``KeyboardInterrupt``: socketserver hands
    every ``Exception`` raised while it starts a request to
    ``handle_error`` and keeps serving, which would lose a signal that
    lands there.
    """


def _install_drain_signals():
    """Route SIGTERM/SIGINT to a graceful drain; returns an undo thunk.

    The handler only raises — it must not call ``server.shutdown()``
    itself, which would deadlock the main thread inside
    ``serve_forever``.  Signal handlers can only be installed from the
    main thread; embedded callers (tests driving ``main()`` from a
    worker thread) just keep the default KeyboardInterrupt path.
    """
    import signal

    def _on_signal(signum, frame):
        raise _DrainRequested(signum)

    installed = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            installed.append((sig, signal.signal(sig, _on_signal)))
        except ValueError:  # not the main thread
            break

    def _undo():
        for sig, previous in installed:
            signal.signal(sig, previous)

    return _undo


def _cmd_serve(args, out) -> int:
    if args.replicas > 1:
        return _cmd_serve_fleet(args, out)
    from .serve import create_server

    server = create_server(
        args.root, host=args.host, port=args.port,
        job_workers=args.job_workers,
        campaign_workers=args.campaign_workers,
        cache_capacity=args.cache_capacity,
        recover=not args.no_recover, quiet=not args.verbose,
        dist_port=args.dist_port, reuse_port=args.reuse_port,
        replica_id=args.replica_id, claim_ttl_s=args.claim_ttl)
    # Flushed before serving so wrappers (tests, scripts) can scrape the
    # ephemeral port from the first line of output.
    print(f"serving on http://{args.host}:{server.port} "
          f"(root {args.root})", file=out, flush=True)
    if server.dist_plane is not None:
        print(f"dist plane on {server.dist_plane.host}:"
              f"{server.dist_plane.port}", file=out, flush=True)
    undo_signals = _install_drain_signals()
    try:
        server.serve_forever()
    except (_DrainRequested, KeyboardInterrupt):
        print("draining: finishing in-flight requests and running jobs",
              file=out, flush=True)
        server.drain()
        print("drained", file=out, flush=True)
    finally:
        undo_signals()
        server.close()
    return 0


def _cmd_serve_fleet(args, out) -> int:
    from .serve import Fleet

    if args.dist_port is not None:
        print("error: --dist-port cannot be combined with --replicas "
              "(each replica would need its own plane port)",
              file=sys.stderr)
        return 2
    fleet = Fleet(args.root, args.replicas, host=args.host, port=args.port,
                  job_workers=args.job_workers,
                  campaign_workers=args.campaign_workers,
                  cache_capacity=args.cache_capacity,
                  claim_ttl_s=args.claim_ttl,
                  recover=not args.no_recover, verbose=args.verbose,
                  out=out)
    fleet.start()
    # Same scrapable first line as the single-process path: wrappers read
    # the shared port from here no matter how many replicas back it.
    print(f"serving on http://{args.host}:{fleet.port} "
          f"(root {args.root}, replicas {args.replicas})", file=out,
          flush=True)
    undo_signals = _install_drain_signals()
    try:
        fleet.run_forever()
    except (_DrainRequested, KeyboardInterrupt):
        print("draining: signalling replicas and waiting for them",
              file=out, flush=True)
        fleet.drain()
        print("drained", file=out, flush=True)
    finally:
        undo_signals()
        fleet.stop()
    return 0


def _cmd_dist_coordinator(args, out) -> int:
    from .dist import DistConfig, DistPlane

    if args.mode == "sample":
        if args.rate is None or args.boundary_out is None:
            raise SystemExit("--mode sample requires --rate and "
                             "--boundary-out")
    elif args.out is None:
        raise SystemExit("--mode exhaustive requires --out")
    wl = _workload(args)
    policy, checkpoint = _resilience(args, wl)
    obs_kwargs, sink = _obs_options(args)
    with DistPlane(DistConfig(host=args.host, port=args.port)) as plane:
        # Flushed before the campaign so node wrappers can scrape the
        # ephemeral port from the first line of output.
        print(f"coordinating on {plane.host}:{plane.port}", file=out,
              flush=True)
        if args.wait_nodes:
            if not plane.wait_for_nodes(args.wait_nodes,
                                        timeout=args.wait_timeout):
                raise SystemExit(
                    f"only {plane.n_nodes} of --wait-nodes "
                    f"{args.wait_nodes} nodes attached within "
                    f"{args.wait_timeout}s")
            print(f"{plane.n_nodes} nodes attached", file=out, flush=True)
        common = dict(dist=plane,
                      n_workers=args.workers, retry_policy=policy,
                      checkpoint=checkpoint, **obs_kwargs)
        if args.batch_budget is not None:
            common["batch_budget"] = args.batch_budget
        if args.mode == "exhaustive":
            result = core.run_campaign(wl, _campaign_config(
                mode="exhaustive", **common))
            golden = result.exhaustive
            rio.save_exhaustive(args.out, golden)
            _finish_obs(args, result, sink, out)
            _print_health(result.health, out)
            print(f"ran {golden.space.size} experiments", file=out)
            print(f"SDC ratio: {golden.sdc_ratio():.4%}", file=out)
            print(f"saved -> {args.out}", file=out)
        else:
            result = core.run_campaign(wl, _campaign_config(
                mode="monte_carlo", sampling_rate=args.rate,
                seed=args.seed, **common))
            rio.save_boundary(args.boundary_out, result.boundary)
            _finish_obs(args, result, sink, out)
            _print_health(result.health, out)
            print(f"ran {result.sampled.n_samples} experiments",
                  file=out)
            print(f"boundary -> {args.boundary_out}", file=out)
    return 0


def _cmd_dist_node(args, out) -> int:
    from .dist import NodeAgent

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--connect must be HOST:PORT, got "
                         f"{args.connect!r}")
    agent = NodeAgent(host, int(port), n_workers=args.workers,
                      node_id=args.node_id)
    # Flushed immediately so chaos harnesses can scrape the pid/id.
    print(f"node {agent.node_id} pid={os.getpid()} connecting to "
          f"{host}:{port}", file=out, flush=True)
    try:
        agent.run()
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        raise SystemExit(f"node lost coordinator: {exc}") from exc
    print(f"node {agent.node_id} served {agent.leases_served} leases",
          file=out)
    return 0


def _service_client(args):
    from .serve import ServiceClient

    return ServiceClient(args.url)


def _cmd_submit(args, out) -> int:
    from .serve import ServiceError

    client = _service_client(args)
    try:
        manifest = client.submit(args.kernel, _parse_params(args.param),
                                 mode=args.mode,
                                 options=_parse_params(args.option))
    except ServiceError as exc:
        raise SystemExit(str(exc)) from exc
    job_id = manifest["id"]
    print(f"job {job_id} {manifest['state']}", file=out, flush=True)
    if args.follow:
        for event in client.events(job_id, follow=True,
                                   timeout=args.timeout):
            print(json.dumps(event, sort_keys=True), file=out, flush=True)
    if args.wait or args.follow:
        manifest = client.wait(job_id, timeout=args.timeout)
        print(json.dumps(manifest, indent=2, sort_keys=True), file=out)
        return 0 if manifest["state"] == "done" else 1
    return 0


def _cmd_jobs(args, out) -> int:
    from .serve import ServiceError

    client = _service_client(args)
    try:
        if args.job is None:
            if args.events or args.cancel:
                raise SystemExit("--events/--cancel require --job ID")
            jobs = client.jobs()
            if args.json:
                print(json.dumps(jobs, indent=2, sort_keys=True), file=out)
                return 0
            for m in jobs:
                req = m["request"]
                print(f"{m['id']}  {m['state']:9s}  {req['mode']:10s} "
                      f"{req['kernel']}", file=out)
            return 0
        if args.cancel:
            manifest = client.cancel(args.job)
        else:
            manifest = client.job(args.job)
        if args.events:
            for event in client.events(args.job):
                print(json.dumps(event, sort_keys=True), file=out)
            return 0
        print(json.dumps(manifest, indent=2, sort_keys=True), file=out)
        return 0
    except ServiceError as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_query(args, out) -> int:
    from .kernels.workload import workload_key
    from .serve import ServiceError

    client = _service_client(args)
    key = args.key
    if key is None and args.kernel is not None:
        wl = _workload(args)
        key = workload_key(wl.spec, wl.tolerance, wl.norm)
    try:
        if key is None:
            keys = client.boundary_keys()
            if args.json:
                print(json.dumps({"workload_keys": keys}, indent=2),
                      file=out)
            else:
                for k in keys:
                    print(k, file=out)
            return 0
        if args.site is None:
            doc = client.boundary_stats(key)
        else:
            doc = client.query_boundary(key, args.site, args.eps)
    except ServiceError as exc:
        raise SystemExit(str(exc)) from exc
    if args.json or args.site is None:
        print(json.dumps(doc, indent=2, sort_keys=True), file=out)
        return 0
    if args.eps is None:
        print(f"site {doc['site']}: threshold Δe = {doc['threshold']:.6g}",
              file=out)
    else:
        verdict = "MASKED" if doc["masked"] else "SDC"
        print(f"site {doc['site']}, eps {doc['eps']:.6g}: predicted "
              f"{verdict} (threshold {doc['threshold']:.6g})", file=out)
    return 0


_COMMANDS = {
    "kernels": _cmd_kernels,
    "inspect": _cmd_inspect,
    "disasm": _cmd_disasm,
    "exhaustive": _cmd_exhaustive,
    "sample": _cmd_sample,
    "adaptive": _cmd_adaptive,
    "combined": _cmd_combined,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "fullreport": _cmd_fullreport,
    "protect": _cmd_protect,
    "compose": _cmd_compose,
    "optimize": _cmd_optimize,
    "serve": _cmd_serve,
    "dist-coordinator": _cmd_dist_coordinator,
    "dist-node": _cmd_dist_node,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "query": _cmd_query,
}


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out or sys.stdout)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

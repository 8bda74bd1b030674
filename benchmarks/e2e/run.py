"""End-to-end benchmark of the exhaustive, adaptive and service paths.

Run from the root of a checkout (``src/`` must hold the program)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S]
        [--trace 0|1] [--seconds N] [--smoke] [--out FILE]
    python3 benchmarks/e2e/run.py compare PARENT.json CHANGE.json
    python3 benchmarks/e2e/run.py record [--seeds 0-4] [--smoke]

A run prints ``workload metric value unit`` for every end-to-end metric
(or, with ``--trace 1``, every per-layer metric and the per-layer
table), a verification line, and as its last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without ``--workload`` every workload runs, each in a fresh process.
``--out`` appends the run, with provenance, to a JSON report that
``compare`` reads.  Metric names, units and bounds come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = HERE / ".work"


def provenance() -> dict:
    import numpy

    rev = "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"rev": rev, "nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def append_report(path: Path, runs: list[dict]) -> None:
    doc = {"provenance": provenance(), "runs": []}
    if path.exists():
        doc = json.loads(path.read_text())
    doc["runs"].extend(runs)
    path.write_text(json.dumps(doc, indent=1) + "\n")


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_run(run: dict, spec: dict, traced: bool) -> dict:
    """Print one workload's lines; returns the contract's metric dict."""
    name = run["workload"]
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    source = run["per_layer"] if traced else run["metrics"]
    metrics = {}
    for m in listed:
        value = source[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{name} {m['name']} {fmt(value)} {m['unit']}")
    for key, value in run["diagnostics"].items():
        print(f"{name} {key} {fmt(value)} (diagnostic)")
    if traced:
        print(f"{name} layers over {run['cycles']} traced pass(es), "
              f"wall {run['traced_wall_s']:.3f} s")
        print(f"  {'span':22s} {'status':8s} {'calls':>7s} {'main_s':>9s} "
              f"{'busy_s':>9s} {'share':>7s}")
        for row in run["table"]:
            share = "-" if row["share"] is None else f"{row['share']:.1%}"
            print(f"  {row['span']:22s} {row['status']:8s} "
                  f"{row['calls']:7d} {row['main_s']:9.3f} "
                  f"{row['busy_s']:9.3f} {share:>7s}")
        print(f"  {'unattributed':22s} {'':8s} {'':7s} "
              f"{run['per_layer']['unattributed_s']:9.3f}")
        print(f"  tracing overhead {run['per_layer']['tracing_overhead_s']:.3f}"
              f" s over the untraced pass")
    print(f"{name} verification {run['verification']} "
          f"{run['verification_counts']} attempted {run['attempted']} "
          f"failed {run['failed']}")
    for failure in run["failures"]:
        print(f"{name} FAILED {failure}")
    return metrics


def run_one(args, spec: dict) -> int:
    import oracle
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    traced = args.trace == 1
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        measure = workloads.measure_traced if traced else workloads.measure
        run = measure(workload, args.seed, args.smoke, work,
                      oracle.References())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is using it
    run.update(traced=traced, smoke=args.smoke)
    metrics = print_run(run, spec, traced)
    if args.out:
        append_report(Path(args.out), [run])
    print(json.dumps({"correct": run["failed"] == 0
                      and run["verification"] != "failed",
                      "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload, each in a fresh process of this script."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"][name] = result["metrics"]
    print(json.dumps(merged))
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(parent_path: str, change_path: str, spec: dict) -> int:
    """The choosing-metrics §8 verdict per (metric, workload).

    * failed: a change run failed an operation or its verification;
    * worse: the change's median is beyond the metric's bound;
    * unresolved: fewer than 10 pairs were run, a pair's two runs differ
      in seed, cycles or ``--smoke``, a parent run failed, or a side's
      spread (IQR over median) is wider than the bound and not every
      change run beats every parent run;
    * improved: the change wins at least 90% of the pairs (ties count
      for neither) and the medians differ by more than the parent's IQR;
    * same: none of the above.

    Returns 1 when any verdict is ``failed`` or ``worse``.
    """
    def runs_by_workload(path):
        out: dict[str, list[dict]] = {}
        for run in json.loads(Path(path).read_text())["runs"]:
            if not run.get("traced"):
                out.setdefault(run["workload"], []).append(run)
        return out

    def failed(run):
        return run["failed"] > 0 or run["verification"] == "failed"

    def shape(run):
        return run["seed"], run.get("cycles"), run.get("smoke")

    parent, change = runs_by_workload(parent_path), runs_by_workload(
        change_path)
    worse = False
    print(f"{'workload':11s} {'metric':14s} {'pairs':>5s} {'parent p50':>11s} "
          f"{'[q1, q3]':>21s} {'change p50':>11s} {'[q1, q3]':>21s} "
          f"{'wins':>5s} verdict")
    for workload in sorted(set(parent) & set(change)):
        n = min(len(parent[workload]), len(change[workload]))
        p_runs, c_runs = parent[workload][:n], change[workload][:n]
        if any(failed(r) for r in c_runs):
            forced = "failed (a change run failed)"
            worse = True
        elif any(shape(a) != shape(b) for a, b in zip(p_runs, c_runs)):
            forced = "unresolved (pairs differ in seed, cycles or smoke)"
        elif any(failed(r) for r in p_runs):
            forced = "unresolved (a parent run failed)"
        else:
            forced = None
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            pv = [r["metrics"][name] for r in p_runs]
            cv = [r["metrics"][name] for r in c_runs]
            pq, cq = quartiles(pv), quartiles(cv)
            p_med, c_med = pq[1], cq[1]
            sign = 1.0 if lower else -1.0
            wins = sum(1 for a, b in zip(pv, cv) if sign * (a - b) > 0)
            change_rel = sign * (c_med - p_med) / p_med if p_med else 0.0
            spread = max((pq[2] - pq[0]) / p_med if p_med else 0.0,
                         (cq[2] - cq[0]) / c_med if c_med else 0.0)
            all_better = (max(cv) < min(pv)) if lower else (min(cv) > max(pv))
            if forced:
                verdict = forced
            elif change_rel > bound:
                verdict = "worse"
                worse = True
            elif n < 10:
                verdict = "unresolved (fewer than 10 pairs)"
            elif wins >= 0.9 * n and sign * (p_med - c_med) > pq[2] - pq[0]:
                verdict = "improved"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{workload:11s} {name:14s} {n:5d} {p_med:11.5g} "
                  f"[{pq[0]:9.5g}, {pq[2]:9.5g}] {c_med:11.5g} "
                  f"[{cq[0]:9.5g}, {cq[2]:9.5g}] {wins:5d} {verdict}")
    return 1 if worse else 0


def record(seeds: range, smoke: bool) -> int:
    """Record reference digests of every output for ``seeds``."""
    import oracle
    import workloads

    refs = oracle.References(record=True)
    WORK.mkdir(exist_ok=True)
    for seed in seeds:
        for workload in workloads.WORKLOADS.values():
            work = Path(tempfile.mkdtemp(prefix="record-", dir=WORK))
            try:
                run = workloads.Run(workload, seed, work, smoke, refs)
                if workload.service:
                    svc = workloads.Service(run, "svc")
                    try:
                        svc.start()
                        workloads.service_session(run, svc,
                                                  range(run.cycles), 0.0)
                    finally:
                        svc.stop()
                else:
                    workloads.cli_cycles(run, run.cycles)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(f"seed {seed} {workload.name}: {run.attempted} outputs, "
                  f"{len(run.failures)} failures", flush=True)
            if run.failures:
                print("\n".join(run.failures))
                return 1
    refs.save()
    WORK.rmdir()
    return 0


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not BENCHMARK.is_file():
        print(f"error: {ROOT} holds no src/repro to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("parent")
        p.add_argument("change")
        args = p.parse_args(argv[1:])
        return compare(args.parent, args.change, spec)
    if argv[:1] == ["record"]:
        p = argparse.ArgumentParser(prog="run.py record")
        p.add_argument("--seeds", default="0-4", type=parse_seeds)
        p.add_argument("--smoke", action="store_true")
        args = p.parse_args(argv[1:])
        return record(range(0, 1) if args.smoke else args.seeds, args.smoke)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: the traced run, which prints per-layer metrics")
    # Part of the command line every BENCHMARK.json benchmark accepts.  A
    # run's work is fixed by its workload, sized to about run_seconds.
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="accepted and ignored: a run's work is fixed")
    p.add_argument("--smoke", action="store_true",
                   help="smallest sizes, for the self-test")
    p.add_argument("--out", default=None,
                   help="append the run(s) to this JSON report")
    args = p.parse_args(argv)
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())

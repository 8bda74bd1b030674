"""The workloads of the end-to-end benchmark and how each one is driven.

Every workload is a fixed list of *items* run a fixed number of
*cycles*: one cycle runs each item once, in order.  Cycle ``c`` of a run
with seed ``S`` feeds its items the input seed ``S * 100 + c`` (kernel
``seed=`` params, campaign and job seeds), so a run covers several
inputs, the same seed always gives the same inputs, and every run of a
seed does the same work whatever the speed of the machine.

* ``exhaustive`` — one fresh ``python -m repro exhaustive --workers 2``
  process per item: straight-line tapes, then CFG kernels.
* ``adaptive`` — one fresh, serial ``python -m repro adaptive`` process
  per item.
* ``service`` — one ``repro serve --dist-port 0`` process with one
  ``repro dist-node`` attached.  A closed loop submits the items as jobs
  and polls each to completion while an open loop sends boundary point
  queries over every key published so far; an idle phase of queries
  alone follows.

Per-item samples reduce to per-pass metrics as the sum over items of
each item's median, so a stall hits one sample, not the result.
"""

from __future__ import annotations

import json
import os
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle
import trace as e2e_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
LAUNCH = HERE / "traced_launch.py"

#: Cycles of each pass of a traced run.
TRACED_CYCLES = 2
#: Deadline for any single child process step.
CHILD_TIMEOUT_S = 120.0
#: Length of the service's idle query phase (``--smoke``: SMOKE_IDLE_S).
IDLE_S = 5.0
SMOKE_IDLE_S = 0.25
#: ``repro serve`` must print "draining" this soon after a SIGTERM, or
#: the signal is sent again (at most DRAIN_SIGNALS times).
DRAIN_ANNOUNCE_S = 2.0
DRAIN_SIGNALS = 5

CLI_WORKERS = 2
JOB_POLL_S = 0.02
QUERY_RATE_LOADED = 100.0
QUERY_RATE_IDLE = 500.0
#: Latency limit of a point query, measured from its due time.
QUERY_SLO_S = 0.050
#: log10 range of the injected error ``eps`` a query asks about.
EPS_DECADES = (-12.0, 3.0)


@dataclass
class Item:
    kernel: str
    params: dict
    mode: str
    #: job options; a ``seed`` entry is replaced by the cycle's seed
    options: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return "-".join([self.mode, self.kernel,
                         *(f"{k}{v}" for k, v in sorted(self.params.items()))])

    def params_at(self, seed: int) -> dict:
        return {**self.params, "seed": seed}

    def options_at(self, seed: int) -> dict:
        return {k: seed if k == "seed" else v
                for k, v in self.options.items()}


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in ``BENCHMARK.json``."""

    name: str
    items: tuple[Item, ...]
    smoke_items: tuple[Item, ...]
    #: cycles of an untraced run (``--smoke``: one)
    cycles: int
    service: bool = False


def _cli(mode: str, *specs: tuple[str, int]) -> tuple[Item, ...]:
    return tuple(Item(k, {"n": n}, mode) for k, n in specs)


# cg in the service uses the seeded random SPD problem: with the default
# poisson1d matrix every cycle would have the same input and the compose
# job would hit the previous cycle's summary cache.
_SPD = {"problem": "spd"}
# The service's adaptive job runs fft: the cost of an adaptive campaign
# on cg at n=8-12 swings with the campaign seed (cv 0.3-0.5 over seeds),
# fft n=16 much less (cv 0.18), and that one job would set the service's
# run-to-run spread.
_ADAPTIVE_JOB = Item("fft", {"n": 16}, "adaptive", {"seed": 0})

# Four cycles make an untraced run of 28-36 s on a 2-vCPU host (set-up
# probes and the service's fixed phases included).
WORKLOADS = {w.name: w for w in (
    Workload(
        "exhaustive",
        _cli("exhaustive", ("fft", 64), ("cg", 16), ("lu", 16),
             ("cg-dyn", 8), ("lu-pivot", 6)),
        _cli("exhaustive", ("fft", 16), ("cg", 8), ("lu", 8),
             ("cg-dyn", 4), ("lu-pivot", 4)),
        cycles=4),
    Workload(
        "adaptive",
        _cli("adaptive", ("cg", 16), ("lu", 8), ("fft", 64)),
        _cli("adaptive", ("cg", 8), ("lu", 8), ("fft", 16)),
        cycles=4),
    Workload(
        "service",
        (Item("cg", {"n": 12, **_SPD}, "exhaustive"),
         Item("fft", {"n": 16}, "exhaustive", {"executor": "dist"}),
         Item("fft", {"n": 64}, "sample",
              {"sampling_rate": 0.05, "seed": 0}),
         _ADAPTIVE_JOB,
         Item("cg", {"n": 10, **_SPD}, "compose"),
         Item("cg", {"n": 10, **_SPD}, "optimize",
              {"budget": 0.25, "seed": 0})),
        (Item("cg", {"n": 8, **_SPD}, "exhaustive"),
         Item("fft", {"n": 16}, "exhaustive", {"executor": "dist"}),
         Item("fft", {"n": 16}, "sample",
              {"sampling_rate": 0.05, "seed": 0}),
         _ADAPTIVE_JOB,
         Item("cg", {"n": 8, **_SPD}, "compose"),
         Item("cg", {"n": 8, **_SPD}, "optimize",
              {"budget": 0.25, "seed": 0})),
        cycles=4, service=True),
)}


def item_seed(seed: int, cycle: int) -> int:
    return seed * 100 + cycle


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]); 0 when empty."""
    values = sorted(values)
    return float(np.quantile(values, q)) if values else 0.0


# ------------------------------------------------------------------- runs


class Run:
    """Bookkeeping of one run of one workload."""

    def __init__(self, workload: Workload, seed: int, work: Path,
                 smoke: bool, refs: oracle.References):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.items = workload.smoke_items if smoke else workload.items
        self.cycles = 1 if smoke else workload.cycles
        self.idle_s = SMOKE_IDLE_S if smoke else IDLE_S
        self.refs = refs
        self.env = child_env()
        self.attempted = 0
        self.failures: list[str] = []
        self.verification: Counter = Counter()
        #: SIGTERMs ``repro serve`` lost and had to be sent again
        self.sigterm_resent = 0
        self._lock = threading.Lock()

    def attempt(self, n: int = 1) -> None:
        with self._lock:
            self.attempted += n

    def fail(self, message: str) -> None:
        with self._lock:
            self.failures.append(message)

    def verify(self, item: Item, seed: int, value: str) -> str:
        key = f"{self.workload.name}/{item.label}/s{seed}"
        status = self.refs.check(key, value)
        if status == "mismatch":
            self.fail(f"{key}: digest differs from the reference")
        with self._lock:
            self.verification[status] += 1
        return status

    def spot_failed(self, item: Item, seed: int) -> None:
        self.fail(f"{item.label} seed {seed}: spot check disagrees")
        with self._lock:
            self.verification["partial"] -= 1
            self.verification["mismatch"] += 1

    @property
    def verified(self) -> str:
        if self.verification["mismatch"] or not self.verification:
            return "failed"
        return "partial" if self.verification["partial"] else "verified"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def repro_cmd(argv: list[str], spans: Path | None = None) -> list[str]:
    """``python -m repro argv``, or the traced launcher when ``spans``."""
    if spans is None:
        return [sys.executable, "-m", "repro", *argv]
    return [sys.executable, str(LAUNCH), str(spans), "--", *argv]


def spawn_env(env: dict) -> dict:
    """Stamp the spawn time that ``traced_launch.py`` reads."""
    return dict(env, E2E_SPAWN_MONOTONIC=repr(time.monotonic()))


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def children_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def readline(proc: subprocess.Popen, timeout: float) -> str:
    """One stdout line of ``proc``, or '' on EOF or timeout.

    ``proc.stdout`` must be unbuffered (``bufsize=0``): a buffered reader
    could hold the next line where ``select`` cannot see it.
    """
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline().decode() if ready else ""


def stop_process(proc: subprocess.Popen | None, timeout: float) -> None:
    """SIGTERM ``proc`` and reap it."""
    if proc is None:
        return
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    reap(proc, timeout)


def reap(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for ``proc``; kill it if it does not end within ``timeout``."""
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"warning: killed {' '.join(map(str, proc.args[-8:]))}: "
              f"no exit {timeout:.0f} s after it was told to stop",
              file=sys.stderr)
        proc.kill()
        proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def tail(text: str, n: int = 300) -> str:
    return " ".join(text.strip().split())[-n:]


def pass_metrics(records: list[dict]) -> dict[str, float]:
    """Per-pass sums of per-item medians: wall, CPU and experiments."""
    by_item: dict[str, list[dict]] = {}
    for rec in records:
        by_item.setdefault(rec["item"], []).append(rec)
    out = {"wall_s": 0.0, "cpu_s": 0.0, "exps": 0.0}
    for recs in by_item.values():
        for key in out:
            out[key] += median(r.get(key, 0.0) for r in recs)
    return out


# -------------------------------------------------------- CLI workloads


PROBE = """\
import json, sys
import repro.cli
from repro import kernels
for name, params in json.loads(sys.argv[1]):
    kernels.build(name, **params).trace
print("ready", flush=True)
"""


def cli_setup(run: Run) -> float:
    """Seconds from spawn until ``repro`` is imported and every item's
    workload is built and golden-run."""
    spec = json.dumps([[it.kernel, it.params_at(item_seed(run.seed, 0))]
                       for it in run.items])
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", PROBE, spec],
                            env=run.env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, bufsize=0)
    try:
        line = readline(proc, CHILD_TIMEOUT_S)
        elapsed = time.monotonic() - t0
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode:
        raise RuntimeError(f"set-up probe failed: {tail(err.decode())}")
    return elapsed


def cli_argv(item: Item, seed: int, out: Path,
             workers: int = CLI_WORKERS) -> list[str]:
    params = [arg for k, v in sorted(item.params_at(seed).items())
              for arg in ("--param", f"{k}={v}")]
    head = [item.mode, "--kernel", item.kernel, *params]
    if item.mode == "exhaustive":
        pool = ["--workers", str(workers)] if workers > 1 else []
        return [*head, *pool, "--out", f"{out}.npz"]
    return [*head, "--seed", str(seed), "--boundary-out",
            f"{out}-boundary.npz", "--sampled-out", f"{out}-sampled.npz"]


def run_cli_item(run: Run, item: Item, cycle: int,
                 spans: Path | None = None,
                 workers: int = CLI_WORKERS) -> dict:
    """Run one CLI invocation and check its output."""
    seed = item_seed(run.seed, cycle)
    out = run.work / f"{item.label}-c{cycle}"
    cmd = repro_cmd(cli_argv(item, seed, out, workers), spans)
    run.attempt()
    cpu0 = children_cpu_s()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=spawn_env(run.env),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    rec = {"item": item.label, "cycle": cycle, "seed": seed,
           "wall_s": time.monotonic() - t0,
           "cpu_s": children_cpu_s() - cpu0}
    if proc is None or proc.returncode != 0:
        why = "timed out" if proc is None else \
            f"exit {proc.returncode}: {tail(proc.stderr)}"
        run.fail(f"{item.label} seed {seed}: {why}")
    else:
        rec["exps"] = check_cli_output(run, item, seed, out,
                                       spot=cycle == 0)
    for path in run.work.glob(f"{out.name}*.npz"):
        path.unlink()
    return rec


def check_cli_output(run: Run, item: Item, seed: int, out: Path,
                     spot: bool) -> int:
    params = item.params_at(seed)
    if item.mode == "exhaustive":
        n, value, result = oracle.exhaustive_output(Path(f"{out}.npz"))
        spot_ok = lambda: oracle.spot_check_exhaustive(  # noqa: E731
            item.kernel, params, result, seed)
    else:
        n, value, sampled = oracle.adaptive_output(
            Path(f"{out}-boundary.npz"), Path(f"{out}-sampled.npz"))
        spot_ok = lambda: oracle.spot_check_sampled(  # noqa: E731
            item.kernel, params, sampled, seed)
    if run.verify(item, seed, value) == "partial" and spot \
            and not spot_ok():
        run.spot_failed(item, seed)
    return n


def cli_cycle(run: Run, cycle: int, traced: bool = False) -> list[dict]:
    """Run every item once."""
    return [run_cli_item(run, item, cycle,
                         run.work / f"spans-{item.label}-c{cycle}.jsonl"
                         if traced else None)
            for item in run.items]


def cli_cycles(run: Run, cycles: int, traced: bool = False) -> list[dict]:
    return [rec for cycle in range(cycles)
            for rec in cli_cycle(run, cycle, traced)]


# ------------------------------------------------------------- service


class Service:
    """``repro serve --dist-port 0`` with one ``repro dist-node`` attached."""

    def __init__(self, run: Run, name: str, traced: bool = False):
        self.run = run
        self.root = run.work / name
        self.spans = ((run.work / f"spans-{name}-serve.jsonl",
                       run.work / f"spans-{name}-node.jsonl")
                      if traced else (None, None))
        self.server: subprocess.Popen | None = None
        self.node: subprocess.Popen | None = None
        self.client = None
        self.url = ""
        self.dist_port = 0
        self._logs: list = []

    def _spawn(self, argv: list[str], spans: Path | None,
               log: str) -> subprocess.Popen:
        fh = open(self.run.work / log, "w")
        self._logs.append(fh)
        return subprocess.Popen(repro_cmd(argv, spans),
                                env=spawn_env(self.run.env),
                                stdout=subprocess.PIPE, stderr=fh,
                                bufsize=0)

    def start(self) -> float:
        """Start both processes; returns seconds until ``/healthz``
        answers with a dist node attached."""
        from repro.serve import ServiceClient

        t0 = time.monotonic()
        self.server = self._spawn(
            ["serve", "--root", str(self.root), "--port", "0",
             "--dist-port", "0"], self.spans[0], f"{self.root.name}.log")
        http = re.search(r"http://[\d.]+:\d+",
                         readline(self.server, CHILD_TIMEOUT_S))
        plane = re.search(r"dist plane on [\d.]+:(\d+)",
                          readline(self.server, CHILD_TIMEOUT_S))
        if not (http and plane):
            raise RuntimeError("repro serve did not announce its ports")
        self.url = http.group(0)
        self.dist_port = int(plane.group(1))
        self.node = self._spawn(
            ["dist-node", "--connect", f"127.0.0.1:{plane.group(1)}",
             "--workers", "1"], self.spans[1], f"{self.root.name}-node.log")
        self.client = ServiceClient(self.url, timeout=30.0)
        deadline = t0 + CHILD_TIMEOUT_S
        while self.client.health().get("dist_nodes", 0) < 1:
            if time.monotonic() > deadline or self.node.poll() is not None:
                raise RuntimeError("dist node did not attach")
            time.sleep(0.005)
        return time.monotonic() - t0

    def cpu_s(self) -> float:
        return sum(proc_cpu_s(p.pid) for p in (self.server, self.node) if p)

    def _drain(self) -> None:
        """SIGTERM the server until it says it is draining.

        ``repro serve`` loses a SIGTERM that lands while its accept loop
        is starting a request thread: socketserver's per-request error
        handler catches the drain exception, logs it and keeps serving.
        """
        for attempt in range(DRAIN_SIGNALS):
            if self.server is None or self.server.poll() is not None:
                return
            if attempt:
                self.run.sigterm_resent += 1
            self.server.send_signal(signal.SIGTERM)
            if "draining" in readline(self.server, DRAIN_ANNOUNCE_S):
                return

    def stop(self) -> None:
        """SIGTERM drains the server, which releases the node."""
        try:
            self._drain()
            if self.server is not None:
                reap(self.server, 60.0)
            stop_process(self.node, timeout=30.0)
        finally:
            for fh in self._logs:
                fh.close()
                if any(p is not None and p.returncode == -signal.SIGKILL
                       for p in (self.server, self.node)):
                    print(f"{fh.name}: {tail(Path(fh.name).read_text())}",
                          file=sys.stderr)


def service_setup(run: Run) -> float:
    svc = Service(run, f"setup-{time.monotonic_ns()}")
    try:
        return svc.start()
    finally:
        svc.stop()


class Published:
    """Boundaries published so far: key -> every threshold vector seen."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.versions: dict[str, list[np.ndarray]] = {}

    def add(self, key: str, thresholds: np.ndarray) -> None:
        with self._lock:
            self.versions.setdefault(key, []).append(thresholds)

    def snapshot(self) -> list[tuple[str, int]]:
        with self._lock:
            return [(k, len(v[0])) for k, v in self.versions.items()]


def run_job(run: Run, svc: Service, item: Item, cycle: int,
            published: Published, spot: list) -> dict:
    """Submit one job, poll it to a terminal state, check its boundary."""
    from repro.serve.jobs import TERMINAL_STATES

    seed = item_seed(run.seed, cycle)
    run.attempt()
    cpu0 = svc.cpu_s()
    t0 = time.monotonic()
    polls = 0
    try:
        manifest = svc.client.submit(item.kernel, item.params_at(seed),
                                     mode=item.mode,
                                     options=item.options_at(seed))
        while manifest["state"] not in TERMINAL_STATES:
            if time.monotonic() - t0 > CHILD_TIMEOUT_S:
                raise TimeoutError("job did not finish")
            time.sleep(JOB_POLL_S)
            manifest = svc.client.job(manifest["id"])
            polls += 1
    except Exception as exc:  # noqa: BLE001 — a failed job is a result
        run.fail(f"{item.label} seed {seed}: {type(exc).__name__}: {exc}")
        return {"item": item.label, "cycle": cycle, "seed": seed,
                "wall_s": time.monotonic() - t0, "cpu_s": 0.0}
    t_seen = time.time()
    rec = {"item": item.label, "cycle": cycle, "seed": seed,
           "wall_s": time.monotonic() - t0, "cpu_s": svc.cpu_s() - cpu0,
           "job": manifest["id"], "polls": polls,
           "exps": int(manifest["summary"].get("n_experiments", 0))}
    if manifest["state"] != "done":
        run.fail(f"{item.label} seed {seed}: job {manifest['state']}: "
                 f"{manifest.get('error')}")
        return rec
    rec.update(queue_s=manifest["started_unix"] - manifest["created_unix"],
               run_s=manifest["finished_unix"] - manifest["started_unix"],
               finish_s=t_seen - manifest["finished_unix"])
    job_dir = svc.root / "jobs" / manifest["id"]
    thresholds = oracle.boundary_thresholds(job_dir / "boundary.npz")
    status = run.verify(item, seed, oracle.digest(thresholds))
    if status == "partial" and cycle == 0 and item.mode == "exhaustive":
        spot.append((item, seed, job_dir / "exhaustive.npz"))
    published.add(manifest["workload_key"], thresholds)
    return rec


def query_loop(client, rate: float, rng: np.random.Generator,
               published: Published, stop: threading.Event,
               t_end: float | None = None) -> list[dict]:
    """Open loop: one point query due every ``1/rate`` seconds over the
    keys published so far, until ``stop`` is set or ``t_end``."""
    out = []
    interval = 1.0 / rate
    t0 = time.monotonic()
    k = 0
    while True:
        due = t0 + k * interval
        k += 1
        if t_end is not None and due >= t_end:
            break
        delay = due - time.monotonic()
        if stop.wait(delay) if delay > 0 else stop.is_set():
            break
        keys = published.snapshot()
        if not keys:
            continue
        key, n_sites = keys[int(rng.integers(len(keys)))]
        site = int(rng.integers(n_sites))
        eps = float(10.0 ** rng.uniform(*EPS_DECADES))
        rec = {"key": key, "site": site, "eps": eps, "due": due,
               "sent": time.monotonic()}
        try:
            rec["resp"] = client.query_boundary(key, site, eps)
        except Exception as exc:  # noqa: BLE001 — counted as failed
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["done"] = time.monotonic()
        out.append(rec)
    return out


def service_session(run: Run, svc: Service, cycles,
                    idle_s: float) -> dict:
    """Loaded phase (the jobs of each cycle in ``cycles``, beside queries
    at 100/s), then idle queries at 500/s.  Returns the job records and
    both phases' query records."""
    from repro.serve import ServiceClient

    published = Published()
    records: list[dict] = []
    spot: list = []
    stop = threading.Event()
    query_client = ServiceClient(svc.url, timeout=10.0, retries=0)
    rng = np.random.default_rng(run.seed)
    loaded: list[dict] = []

    def queries():
        loaded.extend(query_loop(query_client, QUERY_RATE_LOADED, rng,
                                 published, stop))

    thread = threading.Thread(target=queries, name="e2e-queries")
    thread.start()
    try:
        for cycle in cycles:
            for item in run.items:
                records.append(run_job(run, svc, item, cycle, published,
                                       spot))
    finally:
        stop.set()
        thread.join()
    idle = query_loop(query_client, QUERY_RATE_IDLE, rng, published,
                      threading.Event(), t_end=time.monotonic() + idle_s)
    cache = svc.client.cache_stats()
    for item, seed, path in spot:
        result = oracle.exhaustive_output(path)[2]
        if not oracle.spot_check_exhaustive(item.kernel,
                                            item.params_at(seed), result,
                                            seed):
            run.spot_failed(item, seed)
    for rec in loaded + idle:
        versions = published.versions.get(rec["key"], [])
        rec["ok"] = "resp" in rec and oracle.query_ok(
            rec["resp"], rec["site"], rec["eps"], versions)
        if not rec["ok"]:
            run.fail(f"query {rec['key']} site {rec['site']}: "
                     f"{rec.get('error') or 'wrong verdict'}")
    run.attempt(len(loaded) + len(idle))
    return {"records": records, "loaded": loaded, "idle": idle,
            "cache": cache, "endpoints": [svc.url, svc.dist_port]}


def query_diagnostics(session: dict) -> dict[str, float]:
    loaded, idle = session["loaded"], session["idle"]
    lat = [(q["done"] - q["due"]) * 1e3 for q in loaded]
    slo = sum(1 for q in loaded
              if q["ok"] and q["done"] - q["due"] <= QUERY_SLO_S)
    idle_lat = [(q["done"] - q["due"]) * 1e3 for q in idle]
    jobs = [r for r in session["records"] if "queue_s" in r]
    turnaround = [r["wall_s"] for r in session["records"]]
    return {
        "job_turnaround_s.p50": quantile(turnaround, 0.5),
        "job_turnaround_s.p75": quantile(turnaround, 0.75),
        "query_ms.p50": quantile(lat, 0.5),
        "query_ms.p99": quantile(lat, 0.99),
        "query_slo_frac": slo / len(loaded) if loaded else 0.0,
        "query_late_ms.p99": quantile(
            [(q["sent"] - q["due"]) * 1e3 for q in loaded], 0.99),
        "query_idle_ms.p50": quantile(idle_lat, 0.5),
        "query_idle_ms.p99": quantile(idle_lat, 0.99),
        "queries_loaded": len(loaded),
        "queries_idle": len(idle),
        "serve.job_queue_s.p50": quantile([r["queue_s"] for r in jobs], .5),
        "serve.job_run_s.p50": quantile([r["run_s"] for r in jobs], .5),
        "serve.job_finish_s.p50": quantile([r["finish_s"] for r in jobs],
                                           .5),
        "serve.polls_per_job": (sum(r.get("polls", 0) for r in jobs)
                                / len(jobs) if jobs else 0.0),
        "serve.artifact_hits": session["cache"].get("hits", 0),
        "serve.artifact_misses": session["cache"].get("misses", 0),
    }


# ---------------------------------------------------------- measurement


def measure(workload: Workload, seed: int, smoke: bool, work: Path,
            refs: oracle.References) -> dict:
    """An untraced run of the workload's cycles.

    Set-up is measured several times, spread over the run (before each
    CLI cycle; before, at the start of and after the service session),
    after one discarded warm-up: the first start after idle pays the OS
    file cache.
    """
    run = Run(workload, seed, work, smoke, refs)
    extra: dict = {}
    fields: dict = {"cycles": run.cycles}
    t0 = time.monotonic()
    if not smoke:
        (service_setup if workload.service else cli_setup)(run)
    if workload.service:
        setups = [service_setup(run)]
        svc = Service(run, "svc")
        try:
            setups.append(svc.start())
            session = service_session(run, svc, range(run.cycles),
                                      run.idle_s)
        finally:
            svc.stop()
        setups.append(service_setup(run))
        records = session["records"]
        extra = query_diagnostics(session)
        extra["serve.sigterm_resent"] = run.sigterm_resent
        fields["endpoints"] = session["endpoints"]
    else:
        setups, records = [], []
        for cycle in range(run.cycles):
            setups.append(cli_setup(run))
            records += cli_cycle(run, cycle)
    fields["run_s"] = time.monotonic() - t0
    per_pass = pass_metrics(records)
    metrics = {
        "setup_s": median(setups),
        "wall_s": per_pass["wall_s"],
        "exps_per_s": per_pass["exps"] / per_pass["wall_s"],
        "cpu_s": per_pass["cpu_s"],
        "peak_rss_mb": children_peak_rss_mb(),
    }
    return report(run, records, metrics, extra, setups=setups, **fields)


def measure_traced(workload: Workload, seed: int, smoke: bool, work: Path,
                   refs: oracle.References) -> dict:
    """A traced run: an untraced pass, then the same cycles traced.

    Per-layer values are totals over the traced pass; the tracing
    overhead is the traced pass's wall minus the untraced pass's.
    """
    run = Run(workload, seed, work, smoke, refs)
    cycles = 1 if smoke else TRACED_CYCLES
    if workload.service:
        return _traced_service(run, cycles, run.idle_s)
    plain = cli_cycles(run, cycles)
    scaling = 0.0
    first = run.items[0]
    if first.mode == "exhaustive":
        serial = median(run_cli_item(run, first, c, workers=1)["wall_s"]
                        for c in range(cycles))
        parallel = median(r["wall_s"] for r in plain
                          if r["item"] == first.label)
        scaling = serial / (CLI_WORKERS * parallel)
    traced = cli_cycles(run, cycles, traced=True)
    wall = sum(r["wall_s"] for r in traced)
    spans, status = _load_dumps(run.work.glob("spans-*.jsonl"))
    agg = e2e_trace.aggregate(spans)
    attributed = sum(row["main_s"] for row in agg.values())
    values = layer_values(
        agg, spans, unattributed=wall - attributed,
        overhead=wall - sum(r["wall_s"] for r in plain), scaling=scaling)
    # The main thread is the critical path of a CLI invocation: its self
    # times plus the unattributed remainder make up the wall.
    table = layer_table(agg, status, {name: row["main_s"] / wall
                                      for name, row in agg.items()
                                      if row["main_s"]})
    return report(run, traced, {}, {}, per_layer=values, table=table,
                  traced_wall_s=wall, cycles=cycles)


def _traced_service(run: Run, cycles: int, idle_s: float) -> dict:
    walls = {}
    sessions = {}
    for traced in (False, True):
        svc = Service(run, "svc-traced" if traced else "svc", traced)
        try:
            svc.start()
            sessions[traced] = service_session(run, svc, range(cycles),
                                               idle_s)
        finally:
            svc.stop()
        walls[traced] = sum(r["wall_s"] for r in sessions[traced]["records"])
    session = sessions[True]
    spans, status = _load_dumps(run.work.glob("spans-svc-traced-*.jsonl"))
    agg = e2e_trace.aggregate(spans)
    jobs = {s.attrs.get("job"): s.duration for s in spans
            if s.name == "serve.job"}
    records = session["records"]
    gaps = [r["wall_s"] - jobs.get(r.get("job"), 0.0) for r in records]
    extra = query_diagnostics(session)
    extra["serve.sigterm_resent"] = run.sigterm_resent
    extra.update(_query_attribution(spans, session["loaded"]))
    extra["serve.job_attributed_frac"] = (
        1.0 - sum(gaps) / walls[True] if walls[True] else 0.0)
    dist_jobs = {}
    for s in spans:
        if s.name == "dist.phase":
            dist_jobs[s.trace] = dist_jobs.get(s.trace, 0.0) + s.duration
    extra["dist.job_s.p50"] = quantile(list(dist_jobs.values()), 0.5)
    values = layer_values(agg, spans, unattributed=sum(gaps),
                          overhead=walls[True] - walls[False], scaling=0.0,
                          service=extra)
    # Shares are of the server's job time: the spans of each job's trace
    # nest on its worker thread, so their self times add up to it.
    job_traces = {(s.pid, s.trace) for s in spans if s.name == "serve.job"}
    in_jobs = e2e_trace.aggregate(
        [s for s in spans if (s.pid, s.trace) in job_traces])
    job_time = sum(jobs.values())
    table = layer_table(agg, status, {
        name: (row["main_s"] + row["busy_s"]) / job_time
        for name, row in in_jobs.items()} if job_time else {})
    return report(run, records, {}, extra, per_layer=values, table=table,
                  traced_wall_s=walls[True], cycles=cycles,
                  endpoints=sessions[False]["endpoints"]
                  + sessions[True]["endpoints"])


def _query_attribution(spans: list, loaded: list[dict]) -> dict:
    """Match each loaded-phase query to its handler span by time."""
    handlers = sorted((s for s in spans if s.name == "serve.handler"
                       and "site=" in s.attrs.get("path", "")),
                      key=lambda s: s.t0)
    starts = [s.t0 for s in handlers]
    handler_ms, wait_ms = [], []
    for q in loaded:
        i = int(np.searchsorted(starts, q["sent"]))
        if i < len(handlers) and handlers[i].t1 <= q["done"]:
            h = handlers[i].duration
            handler_ms.append(h * 1e3)
            wait_ms.append((q["done"] - q["sent"] - h) * 1e3)
    return {"serve.handler_ms.p50": quantile(handler_ms, 0.5),
            "serve.accept_wait_ms.p50": quantile(wait_ms, 0.5),
            "serve.accept_wait_ms.p99": quantile(wait_ms, 0.99),
            "serve.queries_matched": len(handler_ms)}


def _load_dumps(paths) -> tuple[list, dict[str, str]]:
    spans, status = [], {}
    for path in sorted(paths):
        meta, got = e2e_trace.load_spans(path)
        spans.extend(got)
        for span, state in e2e_trace.layer_status(meta["targets"]).items():
            if state == "ok" or span not in status:
                status[span] = state
    return spans, status


def layer_values(agg: dict, spans: list, unattributed: float,
                 overhead: float, scaling: float,
                 service: dict | None = None) -> dict[str, float]:
    """The per-layer metrics named in ``BENCHMARK.json``."""
    def self_s(name):
        row = agg.get(name)
        return row["main_s"] + row["busy_s"] if row else 0.0

    def count(name, key="calls"):
        return agg.get(name, {}).get(key, 0)

    def per_call(name, key):
        return count(name, key) / count(name) if count(name) else 0.0

    # Pool utilization: busy time on pool threads over the pool width
    # times the main thread's wait for them.
    waits = [s for s in spans
             if s.name == "parallel.wait" and s.attrs.get("workers", 1) > 1]
    capacity = sum(s.duration * s.attrs["workers"] for s in waits)
    busy = sum(row["busy_s"] for name, row in agg.items()
               if not name.startswith(("serve.", "dist.")))
    service = service or {}
    return {
        "engine.replay_s": self_s("engine.replay"),
        "engine.replay_calls": count("engine.replay"),
        "engine.lanes": per_call("engine.replay", "lanes"),
        "engine.codegen_s": self_s("engine.codegen"),
        "engine.codegen_calls": count("engine.codegen"),
        "engine.classify_s": self_s("engine.classify"),
        "cfg.replay_calls": count("cfg.replay"),
        "cfg.lanes": per_call("cfg.replay", "lanes"),
        "kernels.build_s": self_s("kernels.build"),
        "kernels.golden_s": self_s("kernels.golden"),
        "core.campaign_self_s": self_s(e2e_trace.CAMPAIGN),
        "core.rounds": count("core.sample", "rounds"),
        "core.experiments": count("engine.classify", "experiments"),
        "io.save_s": self_s("io.save"),
        "io.bytes_written": count("io.save", "bytes"),
        "parallel.wait_s": self_s("parallel.wait"),
        "parallel.utilization": busy / capacity if capacity else 0.0,
        "parallel.scaling_eff": scaling,
        "compose.cache_hits": count("compose.cache", "hits"),
        "compose.cache_misses": count("compose.cache", "misses"),
        "optimize.candidates": count("optimize.search", "candidates"),
        "serve.artifact_hits": service.get("serve.artifact_hits", 0),
        "serve.artifact_misses": service.get("serve.artifact_misses", 0),
        "serve.polls_per_job": service.get("serve.polls_per_job", 0.0),
        "dist.leases_granted": count("dist.send", "leases"),
        "dist.results": count("dist.lease", "results"),
        "proc.startup_s": self_s("proc.startup"),
        "proc.import_s": self_s("proc.import"),
        "unattributed_s": unattributed,
        "tracing_overhead_s": overhead,
    }


def layer_table(agg: dict, status: dict[str, str],
                shares: dict[str, float]) -> list[dict]:
    """One row per span name (absent layers included), largest first;
    ``share`` is taken from ``shares`` (None where it does not apply)."""
    rows = []
    for name in sorted(set(agg) | set(status)):
        row = agg.get(name, {"calls": 0, "main_s": 0.0, "busy_s": 0.0})
        rows.append({"span": name, "status": status.get(name, "ok"),
                     "calls": row["calls"], "main_s": row["main_s"],
                     "busy_s": row["busy_s"], "share": shares.get(name)})
    rows.sort(key=lambda r: -(r["main_s"] + r["busy_s"]))
    return rows


def report(run: Run, records: list[dict], metrics: dict, extra: dict,
           **fields) -> dict:
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "metrics": metrics,
        "diagnostics": extra,
        "verification": run.verified,
        "verification_counts": dict(run.verification),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures[:20],
        "samples": records,
        **fields,
    }

"""Self-test of the end-to-end benchmark at ``--smoke`` sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (about 40 s):
one untraced and one traced run of every workload, then checks on what
they printed and left behind.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """``(runs, stdout)`` of an untraced and a traced smoke run."""
    out = tmp_path_factory.mktemp("e2e") / "report.json"
    stdout = []
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
             trace, "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
        stdout.append(proc.stdout)
    return json.loads(out.read_text())["runs"], stdout


def test_every_metric_is_printed_with_its_unit(smoke):
    runs, stdout = smoke
    workloads = [w["name"] for w in SPEC["workloads"]]
    for text, listed in zip(stdout, ("end_to_end", "per_layer")):
        result = json.loads(text.strip().splitlines()[-1])
        lines = set(text.splitlines())
        for workload in workloads:
            got = result["metrics"][workload]
            assert sorted(got) == sorted(m["name"] for m in SPEC[listed])
            for m in SPEC[listed]:
                value = got[m["name"]]["value"]
                assert got[m["name"]]["unit"] == m["unit"]
                assert isinstance(value, (int, float))
                printed = f"{workload} {m['name']} "
                assert any(line.startswith(printed)
                           and line.endswith(f" {m['unit']}")
                           for line in lines), printed
    assert len(runs) == 2 * len(workloads)


def test_no_errors_and_seed0_digests_verify(smoke):
    runs, _ = smoke
    for run in runs:
        assert run["failed"] == 0, run["failures"]
        assert run["attempted"] >= 1
        assert run["verification"] == "verified", run["verification_counts"]


def test_layer_tables_sum_to_wall(smoke):
    runs, _ = smoke
    for run in runs:
        if "table" not in run:
            continue
        rows = run["table"]
        assert all(r["main_s"] >= 0 and r["busy_s"] >= 0 for r in rows)
        unattributed = run["per_layer"]["unattributed_s"]
        assert unattributed >= 0
        if run["workload"] == "service":
            assert run["diagnostics"]["serve.job_attributed_frac"] >= 0.9
            continue
        # Unattributed is interpreter teardown after the traced main
        # returns, about 50 ms per process: 3-4% of wall at full sizes,
        # but near 10% of a smoke run's short processes.  So the bound is
        # 5% of wall plus 100 ms per traced process.
        wall = run["traced_wall_s"]
        processes = len(run["samples"])
        assert unattributed <= 0.05 * wall + 0.1 * processes, (
            unattributed, wall, processes)
        assert sum(r["share"] or 0.0 for r in rows) <= 1.0 + 1e-9


def test_missing_target_degrades_to_absent():
    code = """
import json, sys
sys.path.insert(0, sys.argv[1])
import trace as t
targets = (
    t.Target("repro.no_such_module", "f", "gone.module"),
    t.Target("repro.engine.batch", "NoSuchClass.replay", "gone.attr"),
    t.Target("repro.core.prediction",
             "BoundaryPredictor.injected_error_grid", "kept.property"),
    t.Target("repro.kernels.workload", "available_kernels", "kept.fn"),
)
tracer = t.Tracer()
status = t.install(tracer, targets)
import repro.kernels
repro.kernels.available_kernels()
print(json.dumps({"status": list(status.values()),
                  "layers": t.layer_status(status, targets),
                  "spans": [s[3] for s in tracer.spans]}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code, str(HERE)], capture_output=True,
        text=True, timeout=60,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert [s.split(":")[0] for s in doc["status"]] == [
        "absent", "absent", "skipped", "wrapped"]
    assert doc["layers"] == {"gone.module": "absent", "gone.attr": "absent",
                             "kept.property": "absent", "kept.fn": "ok"}
    # the re-exported name in repro.kernels was rebound too
    assert doc["spans"] == ["kept.fn"]


def test_nothing_outlives_the_run(smoke):
    runs, _ = smoke
    assert not (HERE / ".work").exists()
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            args = cmdline.read_bytes().decode(errors="replace")
        except OSError:
            continue
        assert str(HERE / ".work") not in args, args
    for run in runs:
        if run["workload"] != "service":
            continue
        endpoints = run["endpoints"]
        for url, dist_port in zip(endpoints[::2], endpoints[1::2]):
            for port in (int(url.rsplit(":", 1)[1]), dist_port):
                with socket.socket() as sock:
                    assert sock.connect_ex(("127.0.0.1", port)) != 0

"""Tests for the command-line interface."""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.io.store import load_boundary, load_exhaustive, load_sampled

CG = ["--kernel", "cg", "--param", "n=8", "--param", "iters=8"]


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestKernels:
    def test_lists_builtins(self):
        code, text = run_cli(["kernels"])
        assert code == 0
        for name in ["cg", "lu", "fft", "stencil", "matvec", "matmul"]:
            assert name in text.splitlines()


class TestInspect:
    def test_tape_statistics(self):
        code, text = run_cli(["inspect", *CG])
        assert code == 0
        assert "fault sites:" in text
        assert "sample space:" in text
        assert "zero_init" in text

    def test_param_parsing_types(self):
        code, text = run_cli([
            "inspect", "--kernel", "cg", "--param", "n=8",
            "--param", "rel_tolerance=0.5",
            "--param", "convergence_guards=true",
        ])
        assert code == 0
        # guards present -> fewer sites than instructions
        lines = dict(l.split(":", 1) for l in text.splitlines()
                     if ":" in l and not l.startswith(" "))
        assert int(lines["fault sites"]) < int(lines["instructions"])

    def test_bad_param_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["inspect", "--kernel", "cg", "--param", "n16"])

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            run_cli(["inspect", "--kernel", "nope"])


class TestDisasm:
    def test_plain_listing(self):
        code, text = run_cli(["disasm", *CG, "--stop", "20"])
        assert code == 0
        assert "; region zero_init" in text
        assert "v0 = 0" in text

    def test_values_annotation(self):
        code, text = run_cli(["disasm", *CG, "--stop", "5", "--values"])
        assert code == 0
        assert "; =" in text.replace(";  =", "; =") or "= 0" in text

    def test_boundary_annotation(self, tmp_path):
        b_path = tmp_path / "b.npz"
        run_cli(["sample", *CG, "--rate", "0.05", "--seed", "1",
                 "--boundary-out", str(b_path)])
        code, text = run_cli(["disasm", *CG, "--stop", "10",
                              "--boundary", str(b_path)])
        assert code == 0
        assert "Δe=" in text


class TestExhaustive:
    def test_runs_and_saves(self, tmp_path):
        out_path = tmp_path / "golden.npz"
        code, text = run_cli(["exhaustive", *CG, "--out", str(out_path)])
        assert code == 0
        assert "SDC ratio" in text
        golden = load_exhaustive(out_path)
        assert golden.space.size > 0


class TestSample:
    def test_runs_saves_boundary_and_sampled(self, tmp_path):
        b_path = tmp_path / "b.npz"
        s_path = tmp_path / "s.npz"
        code, text = run_cli([
            "sample", *CG, "--rate", "0.02", "--seed", "7",
            "--boundary-out", str(b_path), "--sampled-out", str(s_path),
        ])
        assert code == 0
        assert "uncertainty" in text
        boundary = load_boundary(b_path)
        sampled = load_sampled(s_path)
        assert boundary.thresholds.shape == (boundary.space.n_sites,)
        assert sampled.n_samples == int(round(0.02 * sampled.space.size))

    def test_no_filter_flag(self, tmp_path):
        b1, b2 = tmp_path / "b1.npz", tmp_path / "b2.npz"
        run_cli(["sample", *CG, "--rate", "0.05", "--seed", "1",
                 "--boundary-out", str(b1)])
        run_cli(["sample", *CG, "--rate", "0.05", "--seed", "1",
                 "--no-filter", "--boundary-out", str(b2)])
        filt = load_boundary(b1)
        plain = load_boundary(b2)
        assert np.all(filt.thresholds <= plain.thresholds)


class TestResilienceFlags:
    def test_checkpoint_roundtrip_identical_boundary(self, tmp_path):
        b1, b2 = tmp_path / "b1.npz", tmp_path / "b2.npz"
        args = ["sample", *CG, "--rate", "0.03", "--seed", "5"]
        code, _ = run_cli([*args, "--boundary-out", str(b1),
                           "--checkpoint", str(tmp_path / "ck")])
        assert code == 0
        code, _ = run_cli([*args, "--boundary-out", str(b2),
                           "--checkpoint", str(tmp_path / "ck"),
                           "--resume"])
        assert code == 0
        assert np.array_equal(load_boundary(b1).thresholds,
                              load_boundary(b2).thresholds)

    def test_existing_checkpoint_needs_resume(self, tmp_path):
        args = ["sample", *CG, "--rate", "0.03", "--seed", "5",
                "--boundary-out", str(tmp_path / "b.npz"),
                "--checkpoint", str(tmp_path / "ck")]
        run_cli(args)
        with pytest.raises(SystemExit, match="--resume"):
            run_cli(args)

    def test_workload_mismatch_rejected(self, tmp_path):
        run_cli(["sample", *CG, "--rate", "0.03", "--seed", "5",
                 "--boundary-out", str(tmp_path / "b.npz"),
                 "--checkpoint", str(tmp_path / "ck")])
        with pytest.raises(SystemExit, match="from_spec"):
            run_cli(["sample", "--kernel", "cg", "--param", "n=8",
                     "--param", "iters=4", "--rate", "0.03", "--seed", "5",
                     "--boundary-out", str(tmp_path / "b2.npz"),
                     "--checkpoint", str(tmp_path / "ck"), "--resume"])

    def test_resume_without_checkpoint_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--checkpoint"):
            run_cli(["sample", *CG, "--rate", "0.03", "--seed", "5",
                     "--boundary-out", str(tmp_path / "b.npz"),
                     "--resume"])

    def test_retry_flags_accepted(self, tmp_path):
        code, text = run_cli(["sample", *CG, "--rate", "0.02", "--seed", "5",
                              "--boundary-out", str(tmp_path / "b.npz"),
                              "--max-retries", "1",
                              "--task-timeout", "30"])
        assert code == 0
        # clean serial run: no resilience line in the report
        assert "resilience:" not in text

    def test_adaptive_checkpoint_resume(self, tmp_path):
        b1, b2 = tmp_path / "b1.npz", tmp_path / "b2.npz"
        args = ["adaptive", *CG, "--seed", "3", "--round-fraction", "0.01"]
        run_cli([*args, "--boundary-out", str(b1)])
        run_cli([*args, "--boundary-out", str(b2),
                 "--checkpoint", str(tmp_path / "ck")])
        assert np.array_equal(load_boundary(b1).thresholds,
                              load_boundary(b2).thresholds)
        code, _ = run_cli([*args, "--boundary-out", str(b2),
                           "--checkpoint", str(tmp_path / "ck"),
                           "--resume"])
        assert code == 0


class TestAdaptive:
    def test_runs_and_reports(self, tmp_path):
        b_path = tmp_path / "b.npz"
        code, text = run_cli([
            "adaptive", *CG, "--seed", "3",
            "--boundary-out", str(b_path),
        ])
        assert code == 0
        assert "rounds:" in text
        assert b_path.exists()


class TestCombined:
    def test_runs_and_reports(self, tmp_path):
        b_path = tmp_path / "b.npz"
        code, text = run_cli([
            "combined", *CG, "--seed", "1",
            "--boundary-out", str(b_path),
        ])
        assert code == 0
        assert "groups:" in text and "refinement rounds:" in text
        assert b_path.exists()

    @pytest.mark.parametrize("kernel,param", [("cg-dyn", "n=4"),
                                              ("lu-pivot", "n=3")])
    def test_runs_on_cfg_kernels(self, tmp_path, kernel, param):
        b_path = tmp_path / "b.npz"
        code, text = run_cli([
            "combined", "--kernel", kernel, "--param", param,
            "--seed", "1", "--boundary-out", str(b_path),
        ])
        assert code == 0, text
        assert "refinement rounds:" in text
        assert b_path.exists()


class TestReport:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        b_path = tmp_path / "b.npz"
        g_path = tmp_path / "g.npz"
        run_cli(["sample", *CG, "--rate", "0.05", "--seed", "2",
                 "--boundary-out", str(b_path)])
        run_cli(["exhaustive", *CG, "--out", str(g_path)])
        return b_path, g_path

    def test_region_report(self, artifacts):
        b_path, _ = artifacts
        code, text = run_cli(["report", *CG, "--boundary", str(b_path)])
        assert code == 0
        assert "top 10 regions" in text
        assert "zero_init" in text or "iter" in text

    def test_scoring_against_golden(self, artifacts):
        b_path, g_path = artifacts
        code, text = run_cli(["report", *CG, "--boundary", str(b_path),
                              "--golden", str(g_path)])
        assert code == 0
        assert "precision" in text and "recall" in text


class TestValidate:
    def test_holdout_validation_flow(self, tmp_path):
        b_path = tmp_path / "b.npz"
        s_path = tmp_path / "s.npz"
        run_cli(["sample", *CG, "--rate", "0.05", "--seed", "6",
                 "--boundary-out", str(b_path),
                 "--sampled-out", str(s_path)])
        code, text = run_cli([
            "validate", *CG, "--boundary", str(b_path),
            "--sampled", str(s_path), "--holdout", "300",
        ])
        assert code == 0
        assert "holdout (n=300" in text
        assert "precision" in text and "recall" in text


class TestFullReport:
    def test_end_to_end(self, tmp_path):
        b_path = tmp_path / "b.npz"
        s_path = tmp_path / "s.npz"
        g_path = tmp_path / "g.npz"
        run_cli(["sample", *CG, "--rate", "0.05", "--seed", "4",
                 "--boundary-out", str(b_path),
                 "--sampled-out", str(s_path)])
        run_cli(["exhaustive", *CG, "--out", str(g_path)])
        code, text = run_cli([
            "fullreport", *CG, "--boundary", str(b_path),
            "--sampled", str(s_path), "--golden", str(g_path),
            "--budget", "0.3",
        ])
        assert code == 0
        for section in ["Predicted vulnerability", "Boundary provenance",
                        "Validation against ground truth",
                        "Bit-field structure", "Protection suggestion"]:
            assert section in text, section
        assert "top 30%" in text


class TestProtect:
    @pytest.fixture()
    def boundary_path(self, tmp_path):
        b_path = tmp_path / "b.npz"
        run_cli(["sample", *CG, "--rate", "0.05", "--seed", "2",
                 "--boundary-out", str(b_path)])
        return b_path

    def test_budget_plan(self, boundary_path):
        code, text = run_cli(["protect", *CG, "--boundary",
                              str(boundary_path), "--budget", "0.2"])
        assert code == 0
        assert "protected sites" in text
        assert "coverage" in text

    def test_target_plan(self, boundary_path):
        code, text = run_cli(["protect", *CG, "--boundary",
                              str(boundary_path), "--target", "0.05"])
        assert code == 0

    def test_budget_and_target_mutually_exclusive(self, boundary_path):
        with pytest.raises(SystemExit):
            run_cli(["protect", *CG, "--boundary", str(boundary_path),
                     "--budget", "0.2", "--target", "0.05"])
        with pytest.raises(SystemExit):
            run_cli(["protect", *CG, "--boundary", str(boundary_path)])


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "kernels"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert "cg" in proc.stdout


class TestObservabilityFlags:
    def test_trace_out_writes_jsonl_spans(self, tmp_path):
        import json
        trace = tmp_path / "trace.jsonl"
        code, text = run_cli(["sample", *CG, "--rate", "0.02", "--seed", "2",
                              "--boundary-out", str(tmp_path / "b.npz"),
                              "--trace-out", str(trace)])
        assert code == 0
        assert f"trace -> {trace}" in text
        records = [json.loads(line)
                   for line in trace.read_text().splitlines()]
        names = {r["name"] for r in records}
        assert {"campaign.monte_carlo", "campaign.phase_a",
                "campaign.phase_b"} <= names
        assert all(r["type"] == "span" for r in records)

    def test_metrics_out_writes_snapshot(self, tmp_path):
        import json
        metrics = tmp_path / "metrics.json"
        code, text = run_cli(["sample", *CG, "--rate", "0.02", "--seed", "2",
                              "--boundary-out", str(tmp_path / "b.npz"),
                              "--metrics-out", str(metrics)])
        assert code == 0
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["experiments.completed"] > 0
        assert "phase_a.chunk_seconds" in snap["histograms"]

    def test_observability_flags_do_not_change_results(self, tmp_path):
        b1, b2 = tmp_path / "b1.npz", tmp_path / "b2.npz"
        run_cli(["sample", *CG, "--rate", "0.03", "--seed", "9",
                 "--boundary-out", str(b1)])
        run_cli(["sample", *CG, "--rate", "0.03", "--seed", "9",
                 "--boundary-out", str(b2),
                 "--trace-out", str(tmp_path / "t.jsonl"),
                 "--metrics-out", str(tmp_path / "m.json")])
        assert np.array_equal(load_boundary(b1).thresholds,
                              load_boundary(b2).thresholds)

    def test_adaptive_accepts_observability_flags(self, tmp_path):
        code, _ = run_cli(["adaptive", *CG, "--seed", "3",
                           "--boundary-out", str(tmp_path / "b.npz"),
                           "--metrics-out", str(tmp_path / "m.json")])
        assert code == 0
        assert (tmp_path / "m.json").exists()


class TestResumeErrorMessage:
    def test_error_carries_a_hint(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["sample", *CG, "--rate", "0.02",
                     "--boundary-out", str(tmp_path / "b.npz"),
                     "--resume"])
        message = str(excinfo.value)
        assert "--checkpoint DIR" in message
        assert "--checkpoint ckpt/ --resume" in message  # example usage

    def test_error_fires_before_the_workload_is_built(self, tmp_path):
        # an unknown kernel would raise KeyError from the registry; the
        # flag validation must win, proving no work happens first
        with pytest.raises(SystemExit, match="--checkpoint"):
            run_cli(["exhaustive", "--kernel", "nope",
                     "--out", str(tmp_path / "g.npz"), "--resume"])

    def test_exhaustive_and_adaptive_also_reject(self, tmp_path):
        with pytest.raises(SystemExit, match="--checkpoint"):
            run_cli(["exhaustive", *CG, "--out", str(tmp_path / "g.npz"),
                     "--resume"])
        with pytest.raises(SystemExit, match="--checkpoint"):
            run_cli(["adaptive", *CG,
                     "--boundary-out", str(tmp_path / "b.npz"), "--resume"])


class TestJsonOutput:
    def test_inspect_json(self):
        import json
        code, text = run_cli(["inspect", *CG, "--json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["kernel"] == "cg"
        assert doc["fault_sites"] * doc["bits_per_site"] == doc["sample_space"]
        assert len(doc["sections"]) == len(doc["section_cuts"]) + 1
        assert len(doc["cut_live_widths"]) == len(doc["section_cuts"])
        assert any(r["name"] == "zero_init" for r in doc["regions"])

    def test_disasm_json(self):
        import json
        code, text = run_cli(["disasm", *CG, "--stop", "20", "--json",
                              "--values"])
        assert code == 0
        rows = json.loads(text)
        assert len(rows) == 20
        assert rows[0]["index"] == 0
        for row in rows:
            assert {"index", "op", "operands", "text", "region",
                    "site"} <= set(row)
            assert isinstance(row["value"], float)

    def test_disasm_json_with_boundary(self, tmp_path):
        import json
        b_path = tmp_path / "b.npz"
        run_cli(["sample", *CG, "--rate", "0.05", "--seed", "1",
                 "--boundary-out", str(b_path)])
        code, text = run_cli(["disasm", *CG, "--json",
                              "--boundary", str(b_path)])
        assert code == 0
        rows = json.loads(text)
        sites = [r for r in rows if r["site"]]
        assert sites and all("threshold" in r for r in sites)
        assert all("threshold" not in r for r in rows if not r["site"])


class TestCompose:
    def test_cold_then_warm_cache(self, tmp_path):
        import json
        args = ["compose", *CG, "--cache-dir", str(tmp_path / "cc"),
                "--json"]
        code, text = run_cli(args)
        assert code == 0
        cold = json.loads(text)
        assert cold["cache_hits"] == 0
        assert cold["n_recomputed"] == cold["n_sections"] > 1
        code, text = run_cli(args)
        assert code == 0
        warm = json.loads(text)
        assert warm["cache_hits"] == warm["n_sections"]
        assert warm["n_recomputed"] == 0
        assert warm["boundary"] == cold["boundary"]

    def test_no_cache_flag(self, tmp_path):
        code, text = run_cli(["compose", *CG,
                              "--cache-dir", str(tmp_path / "cc"),
                              "--no-cache"])
        assert code == 0
        assert not (tmp_path / "cc").exists() or \
            not list((tmp_path / "cc").glob("*.npz"))

    def test_human_report_and_boundary_out(self, tmp_path):
        b_path = tmp_path / "b.npz"
        code, text = run_cli(["compose", *CG,
                              "--boundary-out", str(b_path)])
        assert code == 0
        assert "sections:" in text
        assert "exact" in text
        assert "boundary coverage:" in text
        boundary = load_boundary(b_path)
        assert boundary.thresholds.shape == (boundary.space.n_sites,)

    def test_explicit_cut_spec(self):
        import json
        code, text = run_cli(["compose", *CG, "--sections", "200,400",
                              "--json"])
        assert code == 0
        assert json.loads(text)["n_sections"] == 3

    def test_auto_section_spec(self):
        import json
        code, text = run_cli(["compose", *CG, "--sections", "auto:4",
                              "--json"])
        assert code == 0
        assert json.loads(text)["n_sections"] <= 4

    def test_bad_section_spec_rejected(self):
        with pytest.raises(SystemExit, match="--sections"):
            run_cli(["compose", *CG, "--sections", "iter,wise"])

    def test_bad_slack_rejected(self):
        with pytest.raises(SystemExit, match="slack"):
            run_cli(["compose", *CG, "--slack", "0.1"])


class TestExecutorFlags:
    def test_exhaustive_with_workers(self, tmp_path):
        """``--workers`` alone runs the pool, bit-identical to serial."""
        pooled, serial = tmp_path / "pooled.npz", tmp_path / "serial.npz"
        code, _ = run_cli(["exhaustive", *CG, "--workers", "2",
                           "--out", str(pooled)])
        assert code == 0
        code, _ = run_cli(["exhaustive", *CG, "--out", str(serial)])
        assert code == 0
        with np.load(pooled) as got, np.load(serial) as want:
            assert sorted(got.files) == sorted(want.files)
            for key in want.files:
                np.testing.assert_array_equal(got[key], want[key])

    def test_threads_with_retry_policy_rejected(self, tmp_path):
        """There is no ``--executor`` flag: argparse rejects it."""
        with pytest.raises(SystemExit) as err:
            run_cli(["exhaustive", *CG, "--workers", "2",
                     "--executor", "threads", "--max-retries", "1",
                     "--out", str(tmp_path / "x.npz")])
        assert err.value.code == 2

    def test_autotune_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["exhaustive", *CG, "--autotune",
                     "--out", str(tmp_path / "x.npz")])
        assert err.value.code == 2


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as err:
            run_cli(["--version"])
        assert err.value.code == 0
        assert f"repro {repro.__version__}" in capsys.readouterr().out

    def test_inspect_json_reports_version(self):
        import json

        import repro

        code, text = run_cli(["inspect", *CG, "--json"])
        assert code == 0
        assert json.loads(text)["version"] == repro.__version__

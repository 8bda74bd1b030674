"""CLI coverage for CFG workloads: inspect, disasm, campaigns."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.io.store import load_exhaustive

CG_DYN = ["--kernel", "cg-dyn", "--param", "n=4"]
LU_PIVOT = ["--kernel", "lu-pivot", "--param", "n=3"]


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestInspect:
    def test_text_reports_cfg_structure(self):
        code, text = run_cli(["inspect", *CG_DYN])
        assert code == 0
        assert "static rows:" in text
        assert "back-edges" in text
        assert "hang budget:" in text
        assert "golden path:" in text

    def test_json_reports_cfg_counts(self):
        code, text = run_cli(["inspect", *CG_DYN, "--json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["program_kind"] == "cfg"
        assert doc["n_blocks"] == 4
        assert doc["n_backedges"] == 1
        assert doc["n_guards"] == 1
        assert {"src", "dst", "back_edge"} <= set(doc["edges"][0])
        assert any(e["back_edge"] for e in doc["edges"])
        assert "section_cuts" not in doc  # straight-line-only fields

    def test_tape_json_still_has_sections(self):
        code, text = run_cli(["inspect", "--kernel", "cg", "--param", "n=8",
                              "--param", "iters=4", "--json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["program_kind"] == "tape"
        assert "section_cuts" in doc and "sections" in doc


class TestDisasm:
    def test_text_listing_shows_blocks_and_edges(self):
        code, text = run_cli(["disasm", *CG_DYN])
        assert code == 0
        assert "block head:" in text
        assert "br r" in text
        assert "jmp -> head" in text
        assert "(back-edge)" in text

    def test_values_annotate_golden_path(self):
        code, text = run_cli(["disasm", *CG_DYN, "--values"])
        assert code == 0
        assert "executed" in text
        assert "; golden path:" in text

    def test_json_blocks_and_terminators(self):
        code, text = run_cli(["disasm", *LU_PIVOT, "--json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["program_kind"] == "cfg"
        names = [b["name"] for b in doc["blocks"]]
        assert "init" in names and "back_sub" in names
        kinds = {b["terminator"]["kind"] for b in doc["blocks"]}
        assert {"JMP", "BR_GT", "RET"} <= kinds
        assert doc["golden_path"][0] == "init"
        assert sum(b["golden_executions"] for b in doc["blocks"]) == len(
            doc["golden_path"])

    def test_boundary_option_rejected_for_cfg(self, tmp_path):
        path = tmp_path / "b.npz"
        path.write_bytes(b"")
        with pytest.raises(SystemExit, match="boundary"):
            run_cli(["disasm", *CG_DYN, "--boundary", str(path)])


class TestCampaignCommands:
    def test_exhaustive_roundtrip(self, tmp_path):
        out_path = tmp_path / "golden.npz"
        code, text = run_cli(["exhaustive", *CG_DYN, "--out", str(out_path)])
        assert code == 0
        golden = load_exhaustive(out_path)
        counts = golden.outcome_counts()
        assert sum(counts.values()) == golden.space.size
        assert counts["DIVERGED"] > 0

    def test_compiled_backend_rejected(self, tmp_path):
        """``--backend`` is gone; argparse rejects it as unknown."""
        with pytest.raises(SystemExit) as exc:
            run_cli(["exhaustive", *CG_DYN, "--backend", "compiled",
                     "--out", str(tmp_path / "x.npz")])
        assert exc.value.code == 2
        assert not (tmp_path / "x.npz").exists()

    def test_sample_runs_on_cfg(self, tmp_path):
        code, text = run_cli([
            "sample", *LU_PIVOT, "--rate", "0.1", "--seed", "2",
            "--boundary-out", str(tmp_path / "b.npz")])
        assert code == 0
        assert (tmp_path / "b.npz").exists()

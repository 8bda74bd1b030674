"""Shared bench fixtures: calibrated workloads + cached ground truth."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.append(str(Path(__file__).parent.parent))  # tests.helpers

from paperconfig import build_paper_workload, golden_of  # noqa: E402


@pytest.fixture(scope="session")
def paper_workloads():
    """The three calibrated paper benchmarks, keyed CG / LU / FFT."""
    return {name: build_paper_workload(name) for name in ["CG", "LU", "FFT"]}


@pytest.fixture(scope="session")
def paper_goldens(paper_workloads):
    """Exhaustive ground truth per benchmark (disk-cached)."""
    return {name: golden_of(wl) for name, wl in paper_workloads.items()}

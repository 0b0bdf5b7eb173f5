"""Shared fixtures and helpers for the paper-reproduction benchmarks.

The full suite analysis is expensive relative to the assembly of any one
table, so it is computed once per benchmark session and shared.  Every
benchmark writes its rendered artifact to ``benchmarks/results/`` so the
numbers behind EXPERIMENTS.md are regenerable with one command:

    pytest benchmarks/ --benchmark-only

Performance is measured by the layered pipeline benchmark in
``benchmarks/pipeline/`` (see its README), not by the scripts here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_suite
from repro.workloads import paper_suite

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def suite_analysis():
    """The analysed paper suite (the input to most benchmarks)."""
    return analyze_suite(paper_suite())


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_artifact(results_dir: Path, name: str, text: str) -> None:
    """Persist one experiment's rendered output."""
    (results_dir / name).write_text(text + "\n")

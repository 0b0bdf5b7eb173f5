"""Shared fixtures and helpers for the paper-reproduction benchmarks.

The full suite analysis is expensive relative to the assembly of any one
table, so it is computed once per benchmark session and shared.  Every
benchmark writes its rendered artifact to ``benchmarks/results/`` so the
numbers behind EXPERIMENTS.md are regenerable with one command:

    pytest benchmarks/ --benchmark-only

The scaling benchmarks (``bench_detect_parallel``, ``bench_fleet_absorb``)
additionally share the recording seed, the min-of-repeats timer, the JSON
artifact writer and the ``--quick``/``--output`` CLI scaffolding from
here, so a new scaling benchmark only supplies its workload and its gate.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import pytest

from repro.analysis import analyze_suite
from repro.workloads import paper_suite

RESULTS_DIR = Path(__file__).parent / "results"

# --- the shared scaling ladders --------------------------------------
#: Seed every scaling benchmark records with (one seed, comparable runs).
SCALING_SEED = 15


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


def write_result(result: dict, output: Path) -> None:
    """Persist one benchmark's JSON result (canonical key order)."""
    output.parent.mkdir(exist_ok=True)
    output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def min_wall(repeats: int, run, prepare=None):
    """Minimum wall time of ``run()`` over ``repeats`` calls.

    Min-of-repeats is the usual way to suppress scheduler noise; the
    value of the *last* run rides along for equality assertions.
    ``prepare()`` (cache invalidation, GC) runs before each repeat,
    outside the timed window.
    """
    best = None
    value = None
    for _ in range(repeats):
        if prepare is not None:
            prepare()
        start = time.perf_counter()
        value = run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, value


def scaling_main(
    stem: str,
    run_benchmark,
    *,
    sizes,
    quick_sizes,
    repeats: int,
    summary,
    description: str,
) -> int:
    """The ``--quick``/``--output`` CLI every scaling benchmark shares.

    ``run_benchmark(sizes=..., repeats=...)`` produces the result dict,
    which lands in ``results/BENCH_<stem>.json`` (``_quick`` suffixed
    under ``--quick``, marking CI-noise numbers as non-authoritative)
    and is printed with ``summary(result)`` appended.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller sizes, single repeat: equivalence check, not a timing gate",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON result (default: results/BENCH_%s.json,"
        " or results/BENCH_%s_quick.json under --quick)" % (stem, stem),
    )
    args = parser.parse_args()
    result = run_benchmark(
        sizes=quick_sizes if args.quick else sizes,
        repeats=1 if args.quick else repeats,
    )
    output = args.output
    if output is None:
        name = "BENCH_%s_quick.json" % stem if args.quick else "BENCH_%s.json" % stem
        output = RESULTS_DIR / name
    write_result(result, output)
    print(json.dumps(result, indent=2, sort_keys=True))
    print(summary(result))
    return 0

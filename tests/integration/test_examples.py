"""Integration tests: every example script runs green.

The examples are the library's front door; they must keep working as the
implementation evolves.  Each is imported and its ``main()`` executed with
stdout captured (no subprocesses — failures give real tracebacks).
"""

import importlib.util
import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent.parent / "examples"


def run_example(name, argv=()):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    captured = io.StringIO()
    old_argv = sys.argv
    sys.argv = [str(path), *argv]
    try:
        with redirect_stdout(captured):
            module.main()
    finally:
        sys.argv = old_argv
    return captured.getvalue()


class TestExamples:
    def test_quickstart(self):
        text = run_example("quickstart.py")
        assert "potentially harmful (triage these)" in text
        assert "jobs=10" in text

    def test_refcount_bug(self):
        text = run_example("refcount_bug.py")
        assert "potentially-harmful" in text
        assert "double-free" in text or "use-after-free" in text

    def test_triage_workflow(self):
        text = run_example("triage_workflow.py")
        assert "NIGHT 1" in text and "NIGHT 2" in text
        assert "suppressed" in text

    def test_detector_comparison(self):
        text = run_example("detector_comparison.py")
        assert "region-HB" in text
        # The lockset column shows the false positive on the handoff row.
        handoff_row = next(
            line for line in text.splitlines() if "atomic-flag handoff" in line
        )
        columns = handoff_row.split()
        assert columns[-1] == "1" and columns[-2] == "0" and columns[-3] == "0"

    def test_time_travel(self):
        text = run_example("time_travel.py")
        assert "investigating" in text
        assert ">>" in text  # the focused racing step marker
        assert "full recorded history" in text

    def test_coverage_study(self):
        text = run_example("coverage_study.py")
        assert "how many recordings" in text
        assert "Triage priority" in text
        # The closing claim agrees with the ranking printed above it.
        ranking = re.findall(r"^\s+(\d+)\. (\S+)\s+score", text, re.MULTILINE)
        best = {}
        for position, race in ranking:
            family = re.search(r"_(lu|st|rc)\d+:", race).group(1)
            best.setdefault(family, int(position))
        claim = re.search(r"^Best rank per bug family: (.*)\.$", text, re.MULTILINE)
        claimed = re.findall(r"(\S+) races \(#(\d+)\)", claim.group(1))
        names = {"lost-update": "lu", "statistics": "st", "refcount": "rc"}
        assert [(names[f], int(p)) for f, p in claimed] == sorted(
            best.items(), key=lambda item: item[1]
        )

    def test_paper_tables_single_artifact(self):
        text = run_example("paper_tables.py", argv=["table1"])
        assert "TABLE 1" in text
        assert "harmful races" in text

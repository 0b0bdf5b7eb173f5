"""Integration tests for the CLI's suite-level commands (slower)."""

import io

import pytest

from repro.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestSuiteCommand:
    def test_suite_prints_corpus_and_tables(self):
        code, text = run_cli(["suite"])
        assert code == 0
        assert "Corpus:" in text
        assert "Per-execution breakdown" in text
        assert "Potentially Benign" in text  # Table 1
        assert "Benign reason" in text  # Table 2

    def test_suite_cache_dir_second_run_is_identical_and_all_hits(self, tmp_path):
        cache = ["--cache-dir", str(tmp_path / "record-cache")]
        code, first = run_cli(["suite"] + cache)
        assert code == 0
        code, second = run_cli(["suite"] + cache)
        assert code == 0
        assert second == first
        code, third = run_cli(["suite", "--perf"] + cache)
        assert code == 0
        assert "record cache: 26 hits / 0 misses" in third
        assert third.startswith(first)


class TestExperimentCommand:
    def test_table1(self):
        code, text = run_cli(["experiment", "table1"])
        assert code == 0
        assert "No State Change" in text

    def test_figure3(self):
        code, text = run_cli(["experiment", "figure3"])
        assert code == 0
        assert "Figure 3" in text

    def test_ablation_instances(self):
        code, text = run_cli(["experiment", "ablation_instances"])
        assert code == 0
        assert "recall" in text
        assert "executions analysed" in text


class TestReportCommand:
    def test_report_writes_document(self, tmp_path):
        destination = tmp_path / "RESULTS.md"
        code, text = run_cli(
            ["report", "-o", str(destination), "--skip-overheads"]
        )
        assert code == 0
        document = destination.read_text()
        assert "## Table 1" in document
        assert "## Detector ablation" in document
        assert "Section 5.1" not in document  # skipped

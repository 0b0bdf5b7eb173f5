"""Experiment harness: pipeline, tables, figures, overheads, registry."""

from .access_index import AccessIndex, build_access_index
from .experiments import (
    EXPERIMENTS,
    ContinueAblation,
    DetectorComparison,
    ExperimentSpec,
    InstanceSweep,
    run_ablation_continue,
    run_ablation_detectors,
    run_ablation_instances,
    run_figure3,
    run_figure4,
    run_figure5,
    run_sec51,
    run_suite,
    run_table1,
    run_table2,
)
from .engine import (
    ClassificationEngine,
    EngineConfig,
    VerdictCache,
)
from .figures import FigurePoint, FigureSeries, build_figure3, build_figure4, build_figure5
from .overheads import OverheadReport, measure_overheads
from .perf import PerfStats
from .compare import Drift, DriftReport, compare_documents, compare_files
from .report_writer import write_report
from .statistics import CorpusStats, ExecutionStats, corpus_statistics, execution_statistics
from .sweep import SeedCoveragePoint, SeedSweep, seed_coverage
from .pipeline import (
    ExecutionAnalysis,
    SuiteAnalysis,
    analyze_execution,
    analyze_suite,
)
from .tables import Table1, Table1Row, Table2, build_table1, build_table2

__all__ = [
    "AccessIndex",
    "build_access_index",
    "ClassificationEngine",
    "EngineConfig",
    "PerfStats",
    "VerdictCache",
    "EXPERIMENTS",
    "ContinueAblation",
    "DetectorComparison",
    "ExperimentSpec",
    "InstanceSweep",
    "run_ablation_continue",
    "run_ablation_detectors",
    "run_ablation_instances",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_sec51",
    "run_suite",
    "run_table1",
    "run_table2",
    "FigurePoint",
    "FigureSeries",
    "build_figure3",
    "build_figure4",
    "build_figure5",
    "OverheadReport",
    "measure_overheads",
    "ExecutionAnalysis",
    "SuiteAnalysis",
    "analyze_execution",
    "analyze_suite",
    "SeedCoveragePoint",
    "SeedSweep",
    "seed_coverage",
    "write_report",
    "Drift",
    "DriftReport",
    "compare_documents",
    "compare_files",
    "CorpusStats",
    "ExecutionStats",
    "corpus_statistics",
    "execution_statistics",
    "Table1",
    "Table1Row",
    "Table2",
    "build_table1",
    "build_table2",
]

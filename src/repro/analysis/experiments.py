"""Experiment registry: one entry per paper table/figure plus ablations.

Each experiment is a named callable returning a renderable result; the
benchmark harness and the examples both go through this registry, so
``EXPERIMENTS.md`` and ``pytest benchmarks/`` always agree on what each
experiment id means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..race.classifier import ClassifierConfig
from ..race.lockset import lockset_warnings
from ..race.vector_clock import VectorClockDetector
from ..workloads.suite import clean_suite, overhead_workload, paper_suite
from .figures import FigureSeries, build_figure3, build_figure4, build_figure5
from .overheads import OverheadReport, measure_overheads
from .pipeline import SuiteAnalysis, analyze_suite
from .tables import Table1, Table2, build_table1, build_table2


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata for one experiment."""

    experiment_id: str
    paper_artifact: str
    description: str


EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in [
        ExperimentSpec(
            "table1",
            "Table 1",
            "Classification of unique races: replay outcome × manual triage.",
        ),
        ExperimentSpec(
            "table2",
            "Table 2",
            "Benign races by reason category (ground truth + heuristic).",
        ),
        ExperimentSpec(
            "figure3",
            "Figure 3",
            "Instances per Potentially-Benign race.",
        ),
        ExperimentSpec(
            "figure4",
            "Figure 4",
            "Instances per Real-Harmful race, with flagged counts.",
        ),
        ExperimentSpec(
            "figure5",
            "Figure 5",
            "Instances per misclassified Real-Benign race.",
        ),
        ExperimentSpec(
            "sec51",
            "Section 5.1",
            "Log sizes and record/replay/analysis overheads.",
        ),
        ExperimentSpec(
            "ablation_detectors",
            "Sections 2-3 discussion",
            "Region-HB vs precise vector-clock vs Eraser lockset coverage.",
        ),
        ExperimentSpec(
            "ablation_continue",
            "Section 4.2.1 future work",
            "Effect of continuing through unrecorded control flow.",
        ),
        ExperimentSpec(
            "ablation_instances",
            "Section 4.3 discussion",
            "Classification confidence versus number of instances analysed.",
        ),
    ]
}


def run_suite(
    classifier_config: Optional[ClassifierConfig] = None,
    memoize: bool = False,
    cache_dir=None,
) -> SuiteAnalysis:
    """Analyse the full paper suite (the input to most experiments).

    ``memoize`` classifies through the engine's verdict cache;
    ``cache_dir`` enables the content-addressed record cache.  Verdicts
    are identical either way.
    """
    return analyze_suite(
        paper_suite(),
        classifier_config=classifier_config,
        memoize=memoize,
        cache_dir=cache_dir,
    )


def run_table1(suite: Optional[SuiteAnalysis] = None) -> Table1:
    return build_table1(suite or run_suite())


def run_table2(suite: Optional[SuiteAnalysis] = None) -> Table2:
    return build_table2(suite or run_suite())


def run_figure3(suite: Optional[SuiteAnalysis] = None) -> FigureSeries:
    return build_figure3(suite or run_suite())


def run_figure4(suite: Optional[SuiteAnalysis] = None) -> FigureSeries:
    return build_figure4(suite or run_suite())


def run_figure5(suite: Optional[SuiteAnalysis] = None) -> FigureSeries:
    return build_figure5(suite or run_suite())


def run_sec51(repeats: int = 3) -> OverheadReport:
    return measure_overheads(overhead_workload(), repeats=repeats)


@dataclass
class DetectorComparison:
    """Ablation A1: three detectors over the same executions."""

    region_hb_unique: int
    vector_clock_unique: int
    lockset_warnings: int
    lockset_false_positive_addresses: int

    def render(self) -> str:
        return "\n".join(
            [
                "Detector comparison over the paper suite:",
                "  region-overlap happens-before: %d unique races (0 false positives"
                " by construction)" % self.region_hb_unique,
                "  precise vector-clock HB:       %d unique races"
                % self.vector_clock_unique,
                "  Eraser lockset:                %d warnings, %d on addresses no"
                " HB analysis races on (false positives)"
                % (self.lockset_warnings, self.lockset_false_positive_addresses),
            ]
        )


def run_ablation_detectors(suite: Optional[SuiteAnalysis] = None) -> DetectorComparison:
    """Compare the three detectors' coverage.

    Runs over the racy paper suite *plus* the correctly synchronized
    controls: the controls carry the lockset algorithm's false positives
    (e.g. the atomic-flag handoff, which is happens-before ordered without
    any lock ever being held).
    """
    suite = suite or run_suite()
    region_keys = set(suite.results)
    vc_keys = set()
    warnings_total = 0
    false_positive_addresses = 0
    analyses = list(suite.executions) + [
        analyze_suite([execution]).executions[0] for execution in clean_suite()
    ]
    for analysis in analyses:
        detector = VectorClockDetector(analysis.ordered)
        detector.detect()
        vc_keys |= detector.unique_static_races()
        warnings = lockset_warnings(analysis.ordered)
        warnings_total += len(warnings)
        raced_addresses = {
            instance.address for instance in analysis.instances
        }
        for warning in warnings:
            if warning.address not in raced_addresses:
                false_positive_addresses += 1
    return DetectorComparison(
        region_hb_unique=len(region_keys),
        vector_clock_unique=len(vc_keys),
        lockset_warnings=warnings_total,
        lockset_false_positive_addresses=false_positive_addresses,
    )


@dataclass
class ContinueAblation:
    """Ablation A2: the §4.2.1 continue-through-control-flow extension."""

    baseline: Table1
    extended: Table1

    def render(self) -> str:
        return "\n".join(
            [
                "Baseline (replay failures on unrecorded control flow):",
                self.baseline.render(),
                "",
                "Extended (continue through unrecorded control flow):",
                self.extended.render(),
            ]
        )


def _rows_failure_total(table: Table1) -> int:
    from ..race.outcomes import InstanceOutcome

    return table.rows[InstanceOutcome.REPLAY_FAILURE].total


# Attach a tiny helper so ContinueAblation can compute its delta without
# importing outcome enums at call sites.
Table1.rows_failure_total = _rows_failure_total  # type: ignore[attr-defined]


def run_ablation_continue() -> ContinueAblation:
    baseline = build_table1(run_suite())
    extended = build_table1(
        run_suite(ClassifierConfig(allow_unrecorded_control_flow=True))
    )
    return ContinueAblation(baseline=baseline, extended=extended)


@dataclass
class InstanceSweepPoint:
    instances_analysed: int
    harmful_races_caught: int
    harmful_races_total: int

    @property
    def recall(self) -> float:
        if not self.harmful_races_total:
            return 0.0
        return self.harmful_races_caught / self.harmful_races_total


@dataclass
class CoveragePoint:
    """Harmful-race discovery after analysing an execution prefix."""

    executions_analysed: int
    harmful_races_observed: int
    harmful_races_flagged: int
    harmful_races_total: int


@dataclass
class InstanceSweep:
    """Ablation A3: confidence/coverage vs analysis effort.

    ``points`` re-aggregate each harmful race from only its first N
    instances (§4.3's confidence argument); ``coverage`` replays the
    suite's executions in order and tracks how many harmful races have
    been observed and flagged so far ("the more the number of test cases
    analyzed, the more likely harmful data races will be discovered").
    """

    points: List[InstanceSweepPoint]
    coverage: List[CoveragePoint]

    def render(self) -> str:
        lines = ["Harmful-race recall vs instances analysed per race:"]
        for point in self.points:
            lines.append(
                "  first %4d instance(s): %d/%d harmful races caught (%.0f%%)"
                % (
                    point.instances_analysed,
                    point.harmful_races_caught,
                    point.harmful_races_total,
                    100 * point.recall,
                )
            )
        lines.append("")
        lines.append("Harmful-race discovery vs executions analysed:")
        for cov in self.coverage:
            lines.append(
                "  after %2d execution(s): %d/%d observed, %d flagged"
                % (
                    cov.executions_analysed,
                    cov.harmful_races_observed,
                    cov.harmful_races_total,
                    cov.harmful_races_flagged,
                )
            )
        return "\n".join(lines)


def run_ablation_instances(
    suite: Optional[SuiteAnalysis] = None,
    budgets: tuple = (1, 2, 4, 16, 64),
) -> InstanceSweep:
    """Confidence vs instances per race, and coverage vs executions."""
    from ..race.aggregate import StaticRaceResult
    from ..race.outcomes import Classification
    from ..workloads.base import GroundTruth

    suite = suite or run_suite()
    harmful_keys = [
        key for key, truth in suite.truths.items() if truth is GroundTruth.HARMFUL
    ]

    points = []
    for budget in budgets:
        caught = 0
        for key in harmful_keys:
            limited = StaticRaceResult(key=key)
            for entry in suite.results[key].instances[:budget]:
                limited.add(entry)
            if limited.classification is Classification.POTENTIALLY_HARMFUL:
                caught += 1
        points.append(
            InstanceSweepPoint(
                instances_analysed=budget,
                harmful_races_caught=caught,
                harmful_races_total=len(harmful_keys),
            )
        )

    coverage = []
    observed: set = set()
    flagged: set = set()
    for position, analysis in enumerate(suite.executions, start=1):
        for entry in analysis.classified:
            key = entry.instance.static_key
            if key in harmful_keys:
                observed.add(key)
                if not entry.is_benign_evidence:
                    flagged.add(key)
        coverage.append(
            CoveragePoint(
                executions_analysed=position,
                harmful_races_observed=len(observed),
                harmful_races_flagged=len(flagged),
                harmful_races_total=len(harmful_keys),
            )
        )
    return InstanceSweep(points=points, coverage=coverage)

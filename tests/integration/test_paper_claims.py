"""Integration tests: the paper's headline claims over the full suite.

These are the claims of the abstract and Section 5, checked end-to-end on
our corpus:

1. The happens-before detector reports no false positives (clean suite is
   silent; racy-suite instances validated at unit level).
2. Every real-harmful race is classified potentially harmful ("all of the
   harmful data races were correctly classified as potentially harmful").
3. A large share of the real-benign races is auto-filtered ("over half"
   in the paper; we assert a healthy fraction).
4. Races classified potentially benign are all really benign (the
   Potentially-Benign/Real-Harmful cell is zero).
5. Many instances map to few unique races.
6. The round-0 per-instance verdict counts behind Table 1 stay fixed.
"""

from collections import Counter

import pytest

from repro.analysis import analyze_suite, build_table1, build_table2, run_suite
from repro.analysis.figures import build_figure3, build_figure4, build_figure5
from repro.race.classifier import ClassifierConfig
from repro.race.outcomes import Classification, InstanceOutcome
from repro.workloads import GroundTruth, clean_suite, paper_suite


@pytest.fixture(scope="module")
def suite():
    return analyze_suite(paper_suite())


@pytest.fixture(scope="module")
def table1(suite):
    return build_table1(suite)


class TestDetectorClaims:
    def test_clean_suite_has_zero_races(self):
        clean = analyze_suite(clean_suite())
        assert clean.total_instances == 0
        assert clean.unique_race_count == 0

    def test_racy_suite_finds_races(self, suite):
        assert suite.unique_race_count >= 40
        assert suite.total_instances > suite.unique_race_count * 5

    def test_every_race_is_labeled(self, suite):
        assert all(truth is not None for truth in suite.truths.values())


class TestClassifierClaims:
    def test_no_harmful_race_filtered_out(self, table1):
        """The paper's safety headline: zero Real-Harmful races among the
        Potentially-Benign."""
        assert table1.harmful_filtered_out == 0

    def test_all_real_harmful_classified_harmful(self, suite):
        for key, truth in suite.truths.items():
            if truth is GroundTruth.HARMFUL:
                assert (
                    suite.results[key].classification
                    is Classification.POTENTIALLY_HARMFUL
                ), "harmful race %s|%s filtered out" % key

    def test_substantial_benign_filtering(self, table1):
        """Paper: 'over half of the real benign data races' filtered.  Our
        corpus is misclassification-heavy by design (approximate
        computation); assert at least 40%."""
        assert table1.benign_filter_rate >= 0.40

    def test_harmful_precision_in_paper_ballpark(self, table1):
        """Paper: ~20% of potentially-harmful races are real bugs.  Accept
        a broad band around that."""
        assert 0.10 <= table1.harmful_precision <= 0.60

    def test_misclassified_benign_exist(self, suite):
        """The paper's central caveat: state-changing-but-intended races
        (approximate computation) are flagged harmful."""
        misclassified = [
            key
            for key, result in suite.results.items()
            if result.classification is Classification.POTENTIALLY_HARMFUL
            and suite.truths[key] is GroundTruth.BENIGN
        ]
        assert misclassified

    def test_replay_failures_present(self, suite):
        """Some alternative-order replays must fail (§4.2.1), including on
        real-benign races (the paper's replayer-limitation bucket)."""
        failure_groups = [
            key
            for key, result in suite.results.items()
            if result.group is InstanceOutcome.REPLAY_FAILURE
        ]
        assert failure_groups
        assert any(
            suite.truths[key] is GroundTruth.BENIGN for key in failure_groups
        )


class TestTableShapes:
    def test_table1_row_structure(self, table1):
        rows = table1.rows
        nsc = rows[InstanceOutcome.NO_STATE_CHANGE]
        assert nsc.benign_real_benign > 0
        assert nsc.benign_real_harmful == 0
        assert rows[InstanceOutcome.STATE_CHANGE].harmful_real_harmful > 0
        assert rows[InstanceOutcome.REPLAY_FAILURE].harmful_real_harmful > 0

    def test_table2_covers_all_categories(self, suite):
        from repro.race.heuristics import BenignCategory

        table2 = build_table2(suite)
        for category in BenignCategory:
            assert table2.ground_truth.get(category, 0) >= 1, category

    def test_approximate_dominates_misclassifications(self, suite):
        """Paper §5.2.4: 23 of the 29 misclassified benign races were
        approximate computation."""
        from repro.race.heuristics import BenignCategory

        misclassified = [
            key
            for key, result in suite.results.items()
            if result.classification is Classification.POTENTIALLY_HARMFUL
            and suite.truths[key] is GroundTruth.BENIGN
        ]
        approx = [
            key
            for key in misclassified
            if suite.categories[key] is BenignCategory.APPROXIMATE
        ]
        assert len(approx) >= len(misclassified) // 4


class TestFigureShapes:
    def test_figure3_instance_range(self, suite):
        figure = build_figure3(suite)
        assert figure.points
        assert figure.min_instances >= 1
        assert figure.max_instances > figure.min_instances  # varied, like Fig 3

    def test_figure4_flagged_fraction_below_one(self, suite):
        """Paper: 'only one in ten of those instances caused a replay
        failure or a state change' — not every instance flags."""
        figure = build_figure4(suite)
        assert figure.points
        assert any(point.flagged_fraction < 1.0 for point in figure.points)

    def test_figure5_nonempty(self, suite):
        assert build_figure5(suite).points

    def test_figures_partition_the_races(self, suite):
        three = {p.race for p in build_figure3(suite).points}
        four = {p.race for p in build_figure4(suite).points}
        five = {p.race for p in build_figure5(suite).points}
        assert not (three & four)
        assert not (three & five)
        assert not (four & five)
        assert len(three | four | five) == suite.unique_race_count


def _verdict_structure(suite):
    entries = [entry for analysis in suite.executions for entry in analysis.classified]
    outcomes = Counter(entry.outcome.name for entry in entries)
    failures = Counter(
        entry.failure_kind.name for entry in entries if entry.failure_kind is not None
    )
    return dict(outcomes), dict(failures)


class TestVerdictStructure:
    """The round-0 per-instance verdict counts behind Table 1, pinned: a
    change to replay or classification that moves any of them is a change
    to the paper's result, not an optimisation."""

    def test_default_config(self, suite):
        assert _verdict_structure(suite) == (
            {"NO_STATE_CHANGE": 524, "STATE_CHANGE": 406, "REPLAY_FAILURE": 100},
            {
                "UNRECORDED_CONTROL_FLOW": 87,
                "STEP_LIMIT": 8,
                "DIVERGENCE": 4,
                "MEMORY_FAULT": 1,
            },
        )

    def test_continuing_through_unrecorded_control_flow(self):
        suite = analyze_suite(
            paper_suite(),
            classifier_config=ClassifierConfig(allow_unrecorded_control_flow=True),
        )
        assert _verdict_structure(suite) == (
            {"NO_STATE_CHANGE": 548, "STATE_CHANGE": 469, "REPLAY_FAILURE": 13},
            {"STEP_LIMIT": 8, "DIVERGENCE": 4, "MEMORY_FAULT": 1},
        )

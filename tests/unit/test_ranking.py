"""Unit tests for the triage priority ranking (:mod:`repro.fleet.ranking`)."""

import pytest

from repro.fleet import Contribution, FleetRecord
from repro.fleet.ranking import (
    priority_score,
    rank_records,
    render_ranking,
    report_records,
)
from repro.race.outcomes import InstanceOutcome
from repro.replay.errors import ReplayFailureKind

_COUNT_FIELD = {
    InstanceOutcome.NO_STATE_CHANGE: "no_state_change",
    InstanceOutcome.STATE_CHANGE: "state_change",
    InstanceOutcome.REPLAY_FAILURE: "replay_failure",
}


def record_from(outcomes, execution_ids=("e1",), failure=None, race="a:0|b:1"):
    """A one-job record with these instance outcomes; every replay
    failure has kind ``failure``."""
    cell = Contribution(executions=list(execution_ids))
    for outcome in outcomes:
        name = _COUNT_FIELD[outcome]
        setattr(cell, name, getattr(cell, name) + 1)
    if failure is not None and cell.replay_failure:
        cell.failure_kinds = {str(failure): cell.replay_failure}
    return FleetRecord(race=race, digest="", program="p", contributions={"j": cell})


class TestPriorityScore:
    def test_all_state_change_scores_high(self):
        hot = record_from([InstanceOutcome.STATE_CHANGE] * 8)
        cold = record_from([InstanceOutcome.NO_STATE_CHANGE] * 8)
        assert priority_score(hot).total > priority_score(cold).total

    def test_memory_fault_beats_step_limit(self):
        crash = record_from(
            [InstanceOutcome.REPLAY_FAILURE], failure=ReplayFailureKind.MEMORY_FAULT
        )
        wedge = record_from(
            [InstanceOutcome.REPLAY_FAILURE], failure=ReplayFailureKind.STEP_LIMIT
        )
        assert priority_score(crash).total > priority_score(wedge).total

    def test_breadth_rewards_multiple_executions(self):
        wide = record_from(
            [InstanceOutcome.STATE_CHANGE] * 4, execution_ids=("a", "b", "c", "d")
        )
        narrow = record_from([InstanceOutcome.STATE_CHANGE] * 4)
        assert priority_score(wide).total > priority_score(narrow).total

    def test_volume_saturates(self):
        some = record_from([InstanceOutcome.STATE_CHANGE] * 32)
        many = record_from([InstanceOutcome.STATE_CHANGE] * 200)
        assert priority_score(many).volume == priority_score(some).volume

    def test_components_sum_to_total(self):
        score = priority_score(record_from([InstanceOutcome.STATE_CHANGE] * 3))
        assert score.total == pytest.approx(
            score.state_change_strength
            + score.failure_strength
            + score.breadth
            + score.volume
        )

    def test_explain_renders_components(self):
        score = priority_score(record_from([InstanceOutcome.STATE_CHANGE]))
        assert "state-change" in score.explain()
        assert score.to_json()["total"] == round(score.total, 4)


class TestRankResults:
    def test_harmful_only_filter(self):
        benign = record_from([InstanceOutcome.NO_STATE_CHANGE] * 8, race="a:0|b:2")
        harmful = record_from([InstanceOutcome.STATE_CHANGE], race="a:0|b:3")
        assert rank_records([benign, harmful]) == [harmful, benign]

    def test_descending_order(self):
        from repro.analysis import analyze_execution
        from repro.analysis.pipeline import execution_report
        from repro.workloads import Execution, lost_update

        analysis = analyze_execution(Execution("r", lost_update(14, iters=4), 15))
        records = [
            record
            for record in report_records(execution_report(analysis))
            if record.classification == "potentially-harmful"
        ]
        totals = [priority_score(record).total for record in rank_records(records)]
        assert totals == sorted(totals, reverse=True)
        assert records  # the lost-update races are all harmful

    def test_render(self):
        hot = record_from([InstanceOutcome.STATE_CHANGE] * 4)
        text = render_ranking([hot])
        assert "Triage priority" in text and "score" in text
        assert hot.race in text

    def test_render_empty(self):
        assert "nothing to triage" in render_ranking([])

"""Unit tests for the race model and per-static-race aggregation."""

from repro.isa.program import StaticInstructionId
from repro.race.aggregate import aggregate_instances
from repro.race.model import RaceAccess, RaceInstance, static_race_key
from repro.race.outcomes import (
    Classification,
    ClassifiedInstance,
    InstanceOutcome,
)
from repro.replay.errors import ReplayFailureKind
from repro.replay.regions import SequencingRegion


def make_access(tid=0, step=0, block="blk", index=0, address=100, is_write=False):
    return RaceAccess(
        thread_name="t%d" % tid,
        tid=tid,
        thread_step=step,
        static_id=StaticInstructionId(block, index),
        address=address,
        value=0,
        is_write=is_write,
    )


def make_region(tid, start_ts=1, end_ts=5):
    return SequencingRegion(
        thread_name="t%d" % tid,
        tid=tid,
        index=0,
        start_step=0,
        end_step=10,
        start_ts=start_ts,
        end_ts=end_ts,
        start_kind="thread_start",
        end_kind="thread_end",
    )


def make_instance(index_a=0, index_b=1, address=100):
    return RaceInstance(
        access_a=make_access(tid=0, index=index_a, address=address, is_write=True),
        access_b=make_access(tid=1, index=index_b, address=address),
        region_a=make_region(0),
        region_b=make_region(1, start_ts=2),
    )


def classified(instance, outcome, execution_id="e1", failure=None):
    return ClassifiedInstance(
        instance=instance,
        outcome=outcome,
        original_first="t0",
        pre_value=0,
        failure_kind=failure,
        execution_id=execution_id,
    )


class TestStaticRaceKey:
    def test_canonical_order(self):
        a = StaticInstructionId("a", 5)
        b = StaticInstructionId("b", 1)
        assert static_race_key(a, b) == static_race_key(b, a) == (a, b)

    def test_same_instruction_pair(self):
        a = StaticInstructionId("a", 5)
        assert static_race_key(a, a) == (a, a)

    def test_instance_key(self):
        instance = make_instance(index_a=3, index_b=1)
        assert instance.static_key[0].index == 1
        assert instance.static_key[1].index == 3


class TestAggregation:
    def test_all_no_change_is_benign(self):
        instance = make_instance()
        results = aggregate_instances(
            [classified(instance, InstanceOutcome.NO_STATE_CHANGE)] * 3
        )
        result = results[instance.static_key]
        assert result.group is InstanceOutcome.NO_STATE_CHANGE
        assert result.classification is Classification.POTENTIALLY_BENIGN
        assert result.instance_count == 3
        assert result.flagged_instance_count == 0

    def test_any_state_change_dominates(self):
        instance = make_instance()
        results = aggregate_instances(
            [
                classified(instance, InstanceOutcome.NO_STATE_CHANGE),
                classified(instance, InstanceOutcome.REPLAY_FAILURE,
                           failure=ReplayFailureKind.STEP_LIMIT),
                classified(instance, InstanceOutcome.STATE_CHANGE),
            ]
        )
        result = results[instance.static_key]
        assert result.group is InstanceOutcome.STATE_CHANGE
        assert result.classification is Classification.POTENTIALLY_HARMFUL
        assert result.flagged_instance_count == 2

    def test_failure_without_state_change(self):
        instance = make_instance()
        results = aggregate_instances(
            [
                classified(instance, InstanceOutcome.NO_STATE_CHANGE),
                classified(
                    instance,
                    InstanceOutcome.REPLAY_FAILURE,
                    failure=ReplayFailureKind.UNKNOWN_ADDRESS,
                ),
            ]
        )
        assert results[instance.static_key].group is InstanceOutcome.REPLAY_FAILURE

    def test_distinct_static_races_kept_apart(self):
        one = make_instance(index_a=0, index_b=1)
        two = make_instance(index_a=0, index_b=2)
        results = aggregate_instances(
            [
                classified(one, InstanceOutcome.NO_STATE_CHANGE),
                classified(two, InstanceOutcome.STATE_CHANGE),
            ]
        )
        assert len(results) == 2

    def test_accumulate_into_existing(self):
        instance = make_instance()
        results = aggregate_instances(
            [classified(instance, InstanceOutcome.NO_STATE_CHANGE, "e1")]
        )
        aggregate_instances(
            [classified(instance, InstanceOutcome.STATE_CHANGE, "e2")], into=results
        )
        result = results[instance.static_key]
        assert result.instance_count == 2
        assert result.executions == {"e1", "e2"}
        assert result.classification is Classification.POTENTIALLY_HARMFUL

    def test_merge_results(self):
        """Two independently computed per-execution maps merge by feeding
        the second's instances into the first."""
        shared = make_instance()
        only_second = make_instance(index_a=0, index_b=2)
        first = aggregate_instances(
            [classified(shared, InstanceOutcome.NO_STATE_CHANGE, "e1")]
        )
        second = aggregate_instances(
            [
                classified(shared, InstanceOutcome.NO_STATE_CHANGE, "e2"),
                classified(only_second, InstanceOutcome.STATE_CHANGE, "e2"),
            ]
        )
        merged = aggregate_instances(
            (entry for result in second.values() for entry in result.instances),
            into=first,
        )
        assert merged[shared.static_key].instance_count == 2
        assert merged[shared.static_key].executions == {"e1", "e2"}
        assert merged[only_second.static_key].instance_count == 1

    def test_describe_mentions_counts(self):
        instance = make_instance()
        results = aggregate_instances(
            [classified(instance, InstanceOutcome.NO_STATE_CHANGE)]
        )
        text = results[instance.static_key].describe()
        assert "1 instances" in text and "potentially-benign" in text


class TestReclassification:
    def test_later_execution_reclassifies(self):
        """The paper's coverage story: a race seen as benign in one test
        scenario is re-classified when another scenario exposes harm."""
        instance = make_instance()
        results = aggregate_instances(
            [classified(instance, InstanceOutcome.NO_STATE_CHANGE, "scenario1")]
        )
        key = instance.static_key
        assert results[key].classification is Classification.POTENTIALLY_BENIGN
        aggregate_instances(
            [classified(instance, InstanceOutcome.STATE_CHANGE, "scenario2")],
            into=results,
        )
        assert results[key].classification is Classification.POTENTIALLY_HARMFUL

"""Aggregation of instance outcomes into per-static-race verdicts (§4.3).

"After all of the instances for a data race have been examined, we classify
the data race as potentially benign only if all of its instances are
classified as potentially benign.  Otherwise the data race is classified as
potentially harmful."

The three-way grouping for Table 1 follows §5.2.1: a static race is
``No-State-Change`` when every instance is, ``State-Change`` when *any*
instance changed state, and ``Replay-Failure`` otherwise (no state changes,
at least one replay failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..isa.program import Program
from .model import StaticRaceKey, describe_static_race
from .outcomes import Classification, ClassifiedInstance, InstanceOutcome


@dataclass
class StaticRaceResult:
    """Accumulated analysis state for one unique static race."""

    key: StaticRaceKey
    instances: List[ClassifiedInstance] = field(default_factory=list)
    executions: Set[str] = field(default_factory=set)

    def add(self, classified: ClassifiedInstance) -> None:
        self.instances.append(classified)
        if classified.execution_id:
            self.executions.add(classified.execution_id)

    # ------------------------------------------------------------------
    # Derived verdicts.
    # ------------------------------------------------------------------

    @property
    def instance_count(self) -> int:
        return len(self.instances)

    def outcome_count(self, outcome: InstanceOutcome) -> int:
        return sum(1 for entry in self.instances if entry.outcome is outcome)

    @property
    def flagged_instance_count(self) -> int:
        """Instances that caused a state change or a replay failure (Fig 4)."""
        return self.instance_count - self.outcome_count(
            InstanceOutcome.NO_STATE_CHANGE
        )

    @property
    def group(self) -> InstanceOutcome:
        """The Table 1 row this static race falls into."""
        if self.outcome_count(InstanceOutcome.STATE_CHANGE):
            return InstanceOutcome.STATE_CHANGE
        if self.outcome_count(InstanceOutcome.REPLAY_FAILURE):
            return InstanceOutcome.REPLAY_FAILURE
        return InstanceOutcome.NO_STATE_CHANGE

    @property
    def classification(self) -> Classification:
        if self.group is InstanceOutcome.NO_STATE_CHANGE:
            return Classification.POTENTIALLY_BENIGN
        return Classification.POTENTIALLY_HARMFUL

    def describe(self, program: Optional[Program] = None) -> str:
        name = (
            describe_static_race(self.key, program)
            if program is not None
            else "%s <-> %s" % self.key
        )
        return "%s: %s (%d instances: %d no-change, %d state-change, %d failure)" % (
            name,
            self.classification,
            self.instance_count,
            self.outcome_count(InstanceOutcome.NO_STATE_CHANGE),
            self.outcome_count(InstanceOutcome.STATE_CHANGE),
            self.outcome_count(InstanceOutcome.REPLAY_FAILURE),
        )


def aggregate_instances(
    classified: Iterable[ClassifiedInstance],
    into: Optional[Dict[StaticRaceKey, StaticRaceResult]] = None,
) -> Dict[StaticRaceKey, StaticRaceResult]:
    """Group classified instances by unique static race.

    Pass ``into`` to accumulate across multiple executions — the paper's
    "the more test cases analyzed, the more likely harmful data races will
    be discovered" usage model.
    """
    results = into if into is not None else {}
    for entry in classified:
        key = entry.instance.static_key
        if key not in results:
            results[key] = StaticRaceResult(key=key)
        results[key].add(entry)
    return results

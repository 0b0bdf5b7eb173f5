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

from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..isa.program import Program
from .model import StaticRaceKey, describe_static_race, static_race_key
from .outcomes import (
    Classification,
    ClassifiedInstance,
    InstanceOutcome,
    classified_from_template,
)


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

    @property
    def redundant_write(self) -> bool:
        """Every racing write wrote the value the location already held."""
        return tally_result(self).redundant_write

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


class RaceTally:
    """What a report reads about one static race, without its instances.

    Outcome counts, instances per failure kind, the executions it was
    seen in, the redundant-write evidence (did every racing write store
    the value the location already held?) and up to ``max_scenarios``
    exemplars: the first flagged instances, or the first instances when
    none is flagged.  :func:`tally_result` fills one from a
    :class:`StaticRaceResult`'s instance list and :func:`tally_groups`
    from the detector's race groups and their verdicts; the report
    renders either the same way.
    """

    __slots__ = (
        "key",
        "no_change",
        "changed",
        "failed",
        "failure_kinds",
        "executions",
        "saw_write",
        "rewrites_only",
        "_first",
        "_flagged",
    )

    def __init__(self, key: StaticRaceKey) -> None:
        self.key = key
        self.no_change = self.changed = self.failed = 0
        #: failure kind value -> instances that failed that way.
        self.failure_kinds: Dict[str, int] = {}
        self.executions: Set[str] = set()
        self.saw_write = False
        #: No racing write stored a value other than the live-in one.
        self.rewrites_only = True
        #: Exemplar candidates, ``(order key, entry)`` sorted by key: the
        #: first unflagged instances and the first flagged ones.  When
        #: nothing is flagged, the first unflagged are the first overall.
        self._first: List[tuple] = []
        self._flagged: List[tuple] = []

    def _count(self, outcome: InstanceOutcome, failure_kind) -> None:
        # Outcomes compare by identity: hashing an enum member costs a
        # Python-level call.
        if outcome is InstanceOutcome.NO_STATE_CHANGE:
            self.no_change += 1
        elif outcome is InstanceOutcome.STATE_CHANGE:
            self.changed += 1
        else:
            self.failed += 1
            if failure_kind is not None:
                kind = failure_kind.value
                self.failure_kinds[kind] = self.failure_kinds.get(kind, 0) + 1

    @property
    def instance_count(self) -> int:
        return self.no_change + self.changed + self.failed

    @property
    def group(self) -> InstanceOutcome:
        """The Table 1 row this static race falls into."""
        if self.changed:
            return InstanceOutcome.STATE_CHANGE
        if self.failed:
            return InstanceOutcome.REPLAY_FAILURE
        return InstanceOutcome.NO_STATE_CHANGE

    @property
    def classification(self) -> Classification:
        if self.group is InstanceOutcome.NO_STATE_CHANGE:
            return Classification.POTENTIALLY_BENIGN
        return Classification.POTENTIALLY_HARMFUL

    @property
    def redundant_write(self) -> bool:
        """Every racing write wrote the value the location already held."""
        return self.saw_write and self.rewrites_only

    @property
    def exemplars(self) -> List[ClassifiedInstance]:
        """The scenarios a report shows, in instance order."""
        return [
            entry if isinstance(entry, ClassifiedInstance) else entry()
            for _, entry in (self._flagged or self._first)
        ]


def _offer(candidates: List[tuple], cap: int, key: tuple, entry) -> None:
    """Keep ``(key, entry)`` among the ``cap`` smallest keys."""
    if len(candidates) >= cap:
        candidates.pop()
    insort(candidates, (key, entry))


def tally_result(result: StaticRaceResult, max_scenarios: int = 2) -> RaceTally:
    """One :class:`StaticRaceResult` as a tally; its list order is the
    instance order exemplars are chosen in."""
    tally = RaceTally(result.key)
    tally.executions = set(result.executions)
    first, flagged = tally._first, tally._flagged
    for position, entry in enumerate(result.instances):
        outcome = entry.outcome
        tally._count(outcome, entry.failure_kind)
        pre_value = entry.pre_value
        for access in (entry.instance.access_a, entry.instance.access_b):
            if access.is_write:
                tally.saw_write = True
                if access.value != pre_value:
                    tally.rewrites_only = False
        if outcome is not InstanceOutcome.NO_STATE_CHANGE:
            if len(flagged) < max_scenarios:
                flagged.append((position, entry))
        elif len(first) < max_scenarios:
            first.append((position, entry))
    return tally


def _exemplar(group, row_a, row_b, verdict, execution_id: str) -> ClassifiedInstance:
    """The :class:`ClassifiedInstance` of one pair of a race group."""
    if isinstance(verdict, ClassifiedInstance):
        return verdict
    return classified_from_template(group.instance(row_a, row_b), verdict, execution_id)


def tally_groups(
    groups: Sequence,
    verdicts: Sequence[Sequence],
    execution_id: str,
    max_scenarios: int = 2,
) -> Dict[StaticRaceKey, RaceTally]:
    """Tally the detector's race groups (:class:`~repro.race.happens_before.RaceGroup`).

    ``verdicts[g][p]`` is the verdict of group ``g``'s ``p``-th pair: a
    verdict template (:data:`~repro.race.outcomes.VerdictTemplate`) or
    a :class:`ClassifiedInstance`.  Only the exemplars' instances are
    built, on :attr:`RaceTally.exemplars`' read.  A static race is keyed once per pair of
    static instructions, by object identity, not once per instance.

    Exemplars follow the canonical instance order, ``(region_a.start_ts,
    region_b.start_ts, step_a, step_b, address)`` with ties in emission
    order.  Groups are visited in region-pair order, so once a race
    holds ``max_scenarios`` candidates from an earlier region pair, no
    later pair can displace them.
    """
    tallies: Dict[StaticRaceKey, RaceTally] = {}
    #: (id(static_a), id(static_b)) -> (static_a, static_b, tally).
    by_ids: Dict[tuple, tuple] = {}
    no_change = InstanceOutcome.NO_STATE_CHANGE
    cap = max_scenarios
    order = sorted(
        range(len(groups)),
        key=lambda index: (groups[index].region_a.start_ts, groups[index].region_b.start_ts),
    )
    for group_index in order:
        group = groups[group_index]
        run = (group.region_a.start_ts, group.region_b.start_ts)
        address = group.address
        group_verdicts = verdicts[group_index]
        for pair_index, (row_a, row_b) in enumerate(group.pairs()):
            static_a, static_b = row_a[3], row_b[3]
            known = by_ids.get((id(static_a), id(static_b)))
            if known is None or known[0] is not static_a or known[1] is not static_b:
                key = static_race_key(static_a, static_b)
                tally = tallies.get(key)
                if tally is None:
                    tally = tallies[key] = RaceTally(key)
                known = by_ids[(id(static_a), id(static_b))] = (static_a, static_b, tally)
            tally = known[2]
            verdict = group_verdicts[pair_index]
            if type(verdict) is tuple:
                outcome, _, pre_value, failure_kind, _ = verdict
            else:
                outcome = verdict.outcome
                pre_value = verdict.pre_value
                failure_kind = verdict.failure_kind
            tally._count(outcome, failure_kind)
            if tally.rewrites_only:
                if row_a[1]:
                    tally.saw_write = True
                    if row_a[2] != pre_value:
                        tally.rewrites_only = False
                if row_b[1]:
                    tally.saw_write = True
                    if row_b[2] != pre_value:
                        tally.rewrites_only = False
            candidates = tally._first if outcome is no_change else tally._flagged
            if len(candidates) < cap or candidates[-1][0][0] == run:
                key = (run, row_a[0], row_b[0], address, group_index, pair_index)
                if len(candidates) < cap or key < candidates[-1][0]:
                    _offer(
                        candidates,
                        cap,
                        key,
                        partial(_exemplar, group, row_a, row_b, verdict, execution_id),
                    )
    if execution_id:
        for _, _, tally in by_ids.values():
            tally.executions.add(execution_id)
    return tallies

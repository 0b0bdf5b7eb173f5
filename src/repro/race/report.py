"""Race reports: what the developer receives (Section 1, "Data Race Report").

For every data race the report carries the pair of static instructions
(with assembly source), the classification verdict, per-outcome instance
counts, and — for potentially harmful races — a *reproducible scenario*:
the recorded execution's identity (program, seed, scheduler), the two
racing dynamic operations, and the live-out difference between the two
replayed orders when available.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Tuple

from ..isa.program import Program
from ..record.log import ReplayLog
from .aggregate import StaticRaceResult
from .heuristics import categorize
from .model import StaticRaceKey
from .outcomes import Classification, ClassifiedInstance, InstanceOutcome
from .ranking import render_ranking


@dataclass
class ReplayScenario:
    """Enough information to reproduce one race instance both ways."""

    execution_id: str
    program_name: str
    seed: int
    scheduler: str
    access_a: str
    access_b: str
    original_first: str
    outcome: str
    failure: str = ""
    live_out_difference: List[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            "execution %s (program %s, seed %d, scheduler %s)"
            % (self.execution_id or "?", self.program_name, self.seed, self.scheduler),
            "  racing ops: %s  ||  %s" % (self.access_a, self.access_b),
            "  original order: %s first; replaying both orders -> %s"
            % (self.original_first, self.outcome),
        ]
        if self.failure:
            lines.append("  alternative replay failed: %s" % self.failure)
        for difference in self.live_out_difference:
            lines.append("  diff: %s" % difference)
        return "\n".join(lines)


@dataclass
class RaceReport:
    """The per-unique-race report handed to a developer."""

    key: StaticRaceKey
    classification: Classification
    group: InstanceOutcome
    instruction_a: str
    instruction_b: str
    instance_count: int
    outcome_counts: Dict[str, int]
    executions: List[str]
    scenarios: List[ReplayScenario] = field(default_factory=list)
    suggested_reason: Optional[str] = None
    suppressed: bool = False

    def render(self) -> str:
        lines = [
            "=" * 72,
            "DATA RACE [%s]%s" % (
                self.classification,
                "  (suppressed: previously triaged benign)" if self.suppressed else "",
            ),
            "  %s" % self.instruction_a,
            "  %s" % self.instruction_b,
            "  %d instance(s): %s"
            % (
                self.instance_count,
                ", ".join(
                    "%s=%d" % (name, count)
                    for name, count in sorted(self.outcome_counts.items())
                ),
            ),
            "  seen in execution(s): %s" % (", ".join(sorted(self.executions)) or "-"),
        ]
        if self.suggested_reason:
            lines.append("  suggested benign reason: %s" % self.suggested_reason)
        for scenario in self.scenarios:
            lines.append("  reproducible scenario:")
            for text in scenario.render().splitlines():
                lines.append("    " + text)
        return "\n".join(lines)


def _live_out_difference(entry: ClassifiedInstance) -> List[str]:
    """Summarise how the two replays diverged (when outcomes were stored)."""
    from ..replay.differ import diff_outcomes

    original = entry.original_replay
    alternative = entry.alternative_replay
    if original is None or alternative is None:
        return []
    return diff_outcomes(original, alternative).render()


def _scenario_for(
    entry: ClassifiedInstance, log: Optional[ReplayLog]
) -> ReplayScenario:
    return ReplayScenario(
        execution_id=entry.execution_id,
        program_name=log.program_name if log else "?",
        seed=log.seed if log else 0,
        scheduler=log.scheduler if log else "?",
        access_a=str(entry.instance.access_a),
        access_b=str(entry.instance.access_b),
        original_first=entry.original_first,
        outcome=str(entry.outcome),
        failure=(
            "%s%s"
            % (
                entry.failure_kind,
                ": " + entry.failure_detail if entry.failure_detail else "",
            )
            if entry.failure_kind is not None
            else ""
        ),
        live_out_difference=_live_out_difference(entry),
    )


def build_report(
    result: StaticRaceResult,
    program: Program,
    log: Optional[ReplayLog] = None,
    suggested_reason: Optional[str] = None,
    max_scenarios: int = 2,
    suppressed: bool = False,
) -> RaceReport:
    """Build the developer-facing report for one unique static race.

    Scenarios prefer flagged instances (state change / replay failure) —
    those are the replays that *show* the harmful effect; a benign example
    is included when nothing flagged.
    """
    flagged = [
        entry
        for entry in result.instances
        if entry.outcome is not InstanceOutcome.NO_STATE_CHANGE
    ]
    exemplars = (flagged or result.instances)[:max_scenarios]
    return RaceReport(
        key=result.key,
        classification=result.classification,
        group=result.group,
        instruction_a=program.describe_instruction(result.key[0]),
        instruction_b=program.describe_instruction(result.key[1]),
        instance_count=result.instance_count,
        outcome_counts={
            str(outcome): result.outcome_count(outcome)
            for outcome in InstanceOutcome
            if result.outcome_count(outcome)
        },
        executions=sorted(result.executions),
        scenarios=[_scenario_for(entry, log) for entry in exemplars],
        suggested_reason=suggested_reason,
        suppressed=suppressed,
    )


def render_triage_list(reports: List[RaceReport]) -> str:
    """The prioritised triage view: harmful races first, suppressed last."""

    def priority(report: RaceReport) -> Tuple[int, int]:
        if report.suppressed:
            return (2, -report.instance_count)
        if report.classification is Classification.POTENTIALLY_HARMFUL:
            return (0, -report.instance_count)
        return (1, -report.instance_count)

    ordered = sorted(reports, key=priority)
    harmful = sum(
        1
        for report in ordered
        if report.classification is Classification.POTENTIALLY_HARMFUL
        and not report.suppressed
    )
    header = (
        "%d unique data race(s): %d potentially harmful (triage these), "
        "%d potentially benign, %d suppressed"
        % (
            len(ordered),
            harmful,
            sum(
                1
                for report in ordered
                if report.classification is Classification.POTENTIALLY_BENIGN
                and not report.suppressed
            ),
            sum(1 for report in ordered if report.suppressed),
        )
    )
    return "\n".join([header] + [report.render() for report in ordered])


def render_triage(
    results: Dict[StaticRaceKey, StaticRaceResult],
    program: Program,
    log: ReplayLog,
    suppressed: Collection[StaticRaceKey] = (),
) -> str:
    """``repro classify``'s report: the triage list with suggested benign
    reasons, then the unsuppressed harmful races ranked by evidence."""
    reports = []
    for key, result in results.items():
        reason = categorize(result, program)
        reports.append(
            build_report(
                result,
                program,
                log,
                suggested_reason=str(reason) if reason else None,
                suppressed=key in suppressed,
            )
        )
    actionable = {
        key: result
        for key, result in results.items()
        if key not in suppressed
        and result.classification is Classification.POTENTIALLY_HARMFUL
    }
    text = render_triage_list(reports)
    return text + "\n\n" + render_ranking(actionable) if actionable else text

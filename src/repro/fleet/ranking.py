"""Triage priority of fleet records: one score, one harmful-first order.

The paper's goal is *prioritization*: "this classification is needed to
focus the triaging effort".  Within the potentially-harmful bucket, not
all races deserve equal attention — a race whose every instance changes
state across several executions is stronger evidence than a single
replay-failure sighting.  This module scores that evidence from a
record's outcome counts, so the fleet's ranked view (``GET /races``,
``repro fleet report``) and ``repro classify``'s "Triage priority"
section — which ranks the records its own report would absorb — score a
race the same by construction.

The score is a heuristic composed of interpretable components, each
returned alongside the total so a developer can see *why* a race ranks
where it does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..analysis.fleet_adapter import report_deltas
from ..replay.errors import ReplayFailureKind
from .records import BENIGN, DETECTED, HARMFUL, Contribution, FleetRecord

#: Report ordering: harmful races first, then detected-but-unreplayed
#: (unknown is riskier than known-benign), then benign.
GROUP_ORDER = {HARMFUL: 0, DETECTED: 1, BENIGN: 2}

#: Replay-failure kinds ordered by how strongly they suggest a real bug:
#: a memory fault during reordering is a crash waiting to happen; a step
#: limit is usually a replay artifact around hand-rolled synchronization.
#: Keyed by kind text, the spelling reports and fleet records carry.
FAILURE_KIND_WEIGHT: Dict[str, float] = {
    ReplayFailureKind.MEMORY_FAULT.value: 1.0,
    ReplayFailureKind.UNKNOWN_ADDRESS.value: 0.8,
    ReplayFailureKind.UNRECORDED_CONTROL_FLOW.value: 0.6,
    ReplayFailureKind.DIVERGENCE.value: 0.4,
    ReplayFailureKind.STEP_LIMIT.value: 0.3,
}
#: The weight of a kind not in the table, and of a cell that counts
#: replay failures but carries no kinds (written before kinds were kept).
UNKNOWN_FAILURE_WEIGHT = 0.5

STATE_CHANGE_WEIGHT = 3.0
FAILURE_WEIGHT_SCALE = 2.0
BREADTH_SATURATION = 4
VOLUME_SATURATION = 32


@dataclass(frozen=True)
class PriorityScore:
    """A race's triage priority, decomposed into its evidence components."""

    total: float
    state_change_strength: float
    failure_strength: float
    breadth: float
    volume: float

    def explain(self) -> str:
        return (
            "score %.2f = state-change %.2f + failures %.2f + breadth %.2f "
            "+ volume %.2f"
            % (
                self.total,
                self.state_change_strength,
                self.failure_strength,
                self.breadth,
                self.volume,
            )
        )

    def to_json(self) -> Dict:
        return {
            "total": round(self.total, 4),
            "state_change_strength": round(self.state_change_strength, 4),
            "failure_strength": round(self.failure_strength, 4),
            "breadth": round(self.breadth, 4),
            "volume": round(self.volume, 4),
        }


def _strongest_failure(record: FleetRecord) -> float:
    strongest = 0.0
    for cell in record.contributions.values():
        if not cell.replay_failure:
            continue
        if not cell.failure_kinds:
            strongest = max(strongest, UNKNOWN_FAILURE_WEIGHT)
        for kind, count in cell.failure_kinds.items():
            if count:
                strongest = max(
                    strongest, FAILURE_KIND_WEIGHT.get(kind, UNKNOWN_FAILURE_WEIGHT)
                )
    return strongest


def priority_score(record: FleetRecord) -> PriorityScore:
    """Score one record's evidence of harm (higher = triage sooner).

    Components:

    * **state-change strength** — fraction of replayed instances whose
      reordered replay produced different state (weight 3);
    * **failure strength** — strongest replay-failure kind observed,
      crash-like failures weighing most (weight 2);
    * **breadth** — how many distinct executions sighted the race
      (saturating at 4, weight 1);
    * **volume** — how many instances were seen (saturating at 32,
      weight 1): many consistent sightings beat a single one.
    """
    counts = record.counts()
    replayed = (
        counts["no_state_change"] + counts["state_change"] + counts["replay_failure"]
    )
    state_fraction = counts["state_change"] / replayed if replayed else 0.0
    executions = len(record.executions()) or 1
    breadth = min(executions, BREADTH_SATURATION) / float(BREADTH_SATURATION)
    volume = min(counts["total"], VOLUME_SATURATION) / float(VOLUME_SATURATION)

    state_component = STATE_CHANGE_WEIGHT * state_fraction
    failure_component = FAILURE_WEIGHT_SCALE * _strongest_failure(record)
    return PriorityScore(
        total=state_component + failure_component + breadth + volume,
        state_change_strength=state_component,
        failure_strength=failure_component,
        breadth=breadth,
        volume=volume,
    )


def report_records(report: Dict) -> List[FleetRecord]:
    """The records one report document becomes in an empty store: one
    per race, holding the report's counts as a single cell."""
    return [
        FleetRecord(
            race=delta["race"],
            digest=delta["digest"],
            program=delta["program"],
            contributions={"report": Contribution.from_json(delta)},
        )
        for delta in report_deltas(report)
    ]


def rank_records(records: Iterable[FleetRecord]) -> List[FleetRecord]:
    """Harmful first, then by descending score, stable on identity."""
    return sorted(
        records,
        key=lambda record: (
            GROUP_ORDER.get(record.classification, len(GROUP_ORDER)),
            -priority_score(record).total,
            record.program,
            record.race,
            record.digest,
        ),
    )


def render_ranking(records: Iterable[FleetRecord]) -> str:
    """A compact priority-ordered triage queue."""
    lines = ["Triage priority (highest first):"]
    for position, record in enumerate(rank_records(records), start=1):
        lines.append(
            "  %2d. %-44s %s"
            % (position, record.race, priority_score(record).explain())
        )
    if len(lines) == 1:
        lines.append("  (nothing to triage)")
    return "\n".join(lines)

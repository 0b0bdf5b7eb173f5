"""Per-race fleet aggregates.

A fleet record is one unique race as the whole fleet has seen it:
keyed by ``(program, static race key text, region-content digest)``,
carrying one :class:`Contribution` cell per absorbed job.  Keeping the
per-job cells (rather than folding them into running totals) is what
makes absorption commutative and idempotent — any two stores that have
absorbed the same set of jobs hold byte-identical records, regardless
of arrival order, duplicates, or which service instance did the work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

FLEET_SCHEMA_VERSION = 1

#: Classification labels shared with :mod:`repro.race.outcomes` — spelled
#: as strings here because fleet records round-trip through JSON.
HARMFUL = "potentially-harmful"
BENIGN = "potentially-benign"
#: A race sighted by detect-only jobs: no replay verdicts yet.
DETECTED = "detected"


def record_id_for(program: str, race: str, digest: str) -> str:
    """Stable short id for one fleet record, used in URLs and the CLI."""
    body = "repro-fleet|%s|%s|%s" % (program, race, digest)
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


@dataclass
class Contribution:
    """One job's evidence about one race."""

    no_state_change: int = 0
    state_change: int = 0
    replay_failure: int = 0
    #: Detection-only sightings (no replay verdict).
    detected: int = 0
    executions: List[str] = field(default_factory=list)
    classification: str = DETECTED
    #: Wall-clock time the fleet first saw this job (journaled once, so
    #: every instance sharing the store agrees on it).
    observed_at: Optional[float] = None
    #: Replay-failure instances per failure kind.  Empty for cells
    #: written before kinds were kept; they score with the unknown-kind
    #: weight (see :mod:`repro.fleet.ranking`).
    failure_kinds: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict:
        document = {
            "no_state_change": self.no_state_change,
            "state_change": self.state_change,
            "replay_failure": self.replay_failure,
            "detected": self.detected,
            "executions": sorted(self.executions),
            "classification": self.classification,
            "observed_at": self.observed_at,
        }
        if self.failure_kinds:
            document["failure_kinds"] = dict(sorted(self.failure_kinds.items()))
        return document

    @classmethod
    def from_json(cls, payload: Dict) -> "Contribution":
        """A cell from its JSON form; also reads a fleet absorb delta,
        whose keys are a superset of a cell's."""
        return cls(
            no_state_change=int(payload.get("no_state_change", 0)),
            state_change=int(payload.get("state_change", 0)),
            replay_failure=int(payload.get("replay_failure", 0)),
            detected=int(payload.get("detected", 0)),
            executions=sorted(payload.get("executions", [])),
            classification=payload.get("classification", DETECTED),
            observed_at=payload.get("observed_at"),
            failure_kinds={
                str(kind): int(count)
                for kind, count in payload.get("failure_kinds", {}).items()
            },
        )


@dataclass
class FleetRecord:
    """Everything the fleet knows about one unique race."""

    race: str
    digest: str
    program: str
    #: Per-job evidence cells, keyed by the job's content key.
    contributions: Dict[str, Contribution] = field(default_factory=dict)

    @property
    def record_id(self) -> str:
        return record_id_for(self.program, self.race, self.digest)

    def counts(self) -> Dict[str, int]:
        """Outcome totals summed over every contributing job."""
        totals = {
            "no_state_change": 0,
            "state_change": 0,
            "replay_failure": 0,
            "detected": 0,
        }
        for cell in self.contributions.values():
            totals["no_state_change"] += cell.no_state_change
            totals["state_change"] += cell.state_change
            totals["replay_failure"] += cell.replay_failure
            totals["detected"] += cell.detected
        totals["total"] = sum(totals.values())
        return totals

    @property
    def classification(self) -> str:
        """The paper's rule over fleet-wide evidence.

        Any state change or replay failure anywhere in the fleet makes
        the race potentially harmful; otherwise replayed-but-unchanged
        evidence makes it potentially benign; a race only ever sighted
        by detection is merely detected.
        """
        counts = self.counts()
        if counts["state_change"] or counts["replay_failure"]:
            return HARMFUL
        if counts["no_state_change"]:
            return BENIGN
        return DETECTED

    def executions(self) -> List[str]:
        merged = set()
        for cell in self.contributions.values():
            merged.update(cell.executions)
        return sorted(merged)

    @property
    def first_seen(self) -> Optional[float]:
        stamps = [
            cell.observed_at
            for cell in self.contributions.values()
            if cell.observed_at is not None
        ]
        return min(stamps) if stamps else None

    @property
    def last_seen(self) -> Optional[float]:
        stamps = [
            cell.observed_at
            for cell in self.contributions.values()
            if cell.observed_at is not None
        ]
        return max(stamps) if stamps else None

    def to_json(self) -> Dict:
        return {
            "race": self.race,
            "digest": self.digest,
            "program": self.program,
            "contributions": {
                job_key: self.contributions[job_key].to_json()
                for job_key in sorted(self.contributions)
            },
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "FleetRecord":
        return cls(
            race=payload["race"],
            digest=payload.get("digest", ""),
            program=payload.get("program", ""),
            contributions={
                job_key: Contribution.from_json(cell)
                for job_key, cell in payload.get("contributions", {}).items()
            },
        )

    def merged_with(self, other: "FleetRecord") -> "FleetRecord":
        """Union of two stores' knowledge of the same race.

        Cells are merged per job key.  When both sides hold a cell for
        the same job (e.g. two hosts independently absorbed it with
        different clocks), the lexicographically smaller canonical JSON
        wins — an arbitrary but commutative pick, so cross-host merge
        order never matters.
        """
        merged = FleetRecord(race=self.race, digest=self.digest, program=self.program)
        merged.contributions = dict(self.contributions)
        for job_key, cell in other.contributions.items():
            mine = merged.contributions.get(job_key)
            if mine is None:
                merged.contributions[job_key] = cell
            else:
                merged.contributions[job_key] = min(
                    (mine, cell),
                    key=lambda c: json.dumps(c.to_json(), sort_keys=True),
                )
        return merged

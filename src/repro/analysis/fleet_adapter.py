"""Adapter from analysis report documents to fleet-store deltas.

Every job kind the service runs ends in a JSON report: full/batch and
stream jobs produce classification exports (``export_version``),
detect-only jobs produce detection reports (``detect_version``).  The
fleet store doesn't want to know those schemas — this adapter flattens
either into a list of per-race *delta* dicts the store folds into its
aggregates:

``{race, digest, program, no_state_change, state_change,
replay_failure, detected, executions, classification}``, plus
``failure_kinds`` (replay failures per kind) when the race has any.

The ``digest`` is the region-content digest pair from the report's
harmful-scenario batch keys (PR 7's content-dedup identity), joined with
``+``; races without one (benign races, detection-only sightings) use
the empty digest, so the fleet key degrades gracefully to the static
race id alone.
"""

from __future__ import annotations

from typing import Dict, List


def _digest_for(race: Dict) -> str:
    for scenario in race.get("scenarios", []):
        batch_key = scenario.get("batch_key")
        if batch_key and batch_key.get("region_content"):
            return "+".join(batch_key["region_content"])
    return ""


def _export_deltas(report: Dict) -> List[Dict]:
    program = report.get("program", "")
    deltas = []
    for race in report.get("races", []):
        instances = race.get("instances", {})
        delta = {
            "race": race["race"],
            "digest": _digest_for(race),
            "program": program,
            "no_state_change": int(instances.get("no_state_change", 0)),
            "state_change": int(instances.get("state_change", 0)),
            "replay_failure": int(instances.get("replay_failure", 0)),
            "detected": 0,
            "executions": sorted(race.get("executions", [])),
            "classification": race.get("classification", ""),
        }
        if race.get("failure_kinds"):
            # Converted here, before the store journals the delta: a
            # malformed count must fail the absorb, not every replay.
            delta["failure_kinds"] = {
                str(kind): int(count) for kind, count in race["failure_kinds"].items()
            }
        deltas.append(delta)
    return deltas


def _detect_deltas(report: Dict) -> List[Dict]:
    program = report.get("program", "")
    execution = report.get("execution")
    deltas = []
    for race in report.get("unique_races", []):
        deltas.append(
            {
                "race": race["race"],
                "digest": "",
                "program": program,
                "no_state_change": 0,
                "state_change": 0,
                "replay_failure": 0,
                "detected": int(race.get("instances", 0)),
                "executions": [execution] if execution else [],
                "classification": "detected",
            }
        )
    return deltas


def report_deltas(report: Dict) -> List[Dict]:
    """Flatten one job's report document into fleet absorb deltas."""
    if "export_version" in report:
        return _export_deltas(report)
    if "detect_version" in report:
        return _detect_deltas(report)
    raise ValueError(
        "not an analysis report document (no export_version/detect_version key)"
    )

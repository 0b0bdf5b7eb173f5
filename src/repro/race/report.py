"""Race reports: what the developer receives (Section 1, "Data Race Report").

``repro classify`` prints one text rendering of the report document
:func:`repro.race.exporter.results_to_json` builds — the same document
``classify --json`` writes and the fleet store absorbs.  For every data
race it shows the pair of static instructions (with assembly source),
the classification verdict, per-outcome instance counts and, for each
exemplar instance, a *reproducible scenario*: the recorded execution's
identity (program, seed, scheduler), the two racing dynamic operations,
and the live-out difference between the two replayed orders when the
classifier stored them.  The unsuppressed harmful races then follow in
triage priority, scored by :mod:`repro.fleet.ranking` over the fleet
records the document would become, so a race scores the same here and
in the fleet's ranked view.
"""

from __future__ import annotations

from typing import Dict, List

from ..fleet.ranking import render_ranking, report_records
from ..fleet.records import HARMFUL

#: Outcome count keys of a report race, in the order their text sorts.
_OUTCOMES = (
    ("no_state_change", "no-state-change"),
    ("replay_failure", "replay-failure"),
    ("state_change", "state-change"),
)


def _render_scenario(scenario: Dict, document: Dict) -> List[str]:
    recording = document["recording"]
    seed = recording["seed"]
    lines = [
        "execution %s (program %s, seed %s, scheduler %s)"
        % (
            scenario["execution"] or "?",
            document["program"],
            "?" if seed is None else seed,
            recording["scheduler"] or "?",
        ),
        "  racing ops: %s  ||  %s" % (scenario["access_a"], scenario["access_b"]),
        "  original order: %s first; replaying both orders -> %s"
        % (scenario["original_first"], scenario["outcome"]),
    ]
    if scenario["failure"]:
        lines.append(
            "  alternative replay failed: %s%s"
            % (
                scenario["failure"],
                ": " + scenario["failure_detail"] if scenario["failure_detail"] else "",
            )
        )
    for difference in scenario.get("live_out_difference", ()):
        lines.append("  diff: %s" % difference)
    return lines


def _render_race(race: Dict, document: Dict) -> str:
    instances = race["instances"]
    lines = [
        "=" * 72,
        "DATA RACE [%s]%s"
        % (
            race["classification"],
            "  (suppressed: previously triaged benign)" if race["suppressed"] else "",
        ),
        "  %s" % race["instructions"][0],
        "  %s" % race["instructions"][1],
        "  %d instance(s): %s"
        % (
            instances["total"],
            ", ".join(
                "%s=%d" % (name, instances[key])
                for key, name in _OUTCOMES
                if instances[key]
            ),
        ),
        "  seen in execution(s): %s" % (", ".join(race["executions"]) or "-"),
    ]
    if race["suggested_reason"]:
        lines.append("  suggested benign reason: %s" % race["suggested_reason"])
    for scenario in race["scenarios"]:
        lines.append("  reproducible scenario:")
        lines.extend("    " + text for text in _render_scenario(scenario, document))
    return "\n".join(lines)


def render_triage(document: Dict) -> str:
    """The triage list of a report document — harmful races first,
    suppressed last, larger races first within each — then the
    unsuppressed harmful races ranked by evidence."""

    def priority(race: Dict):
        if race["suppressed"]:
            bucket = 2
        elif race["classification"] == HARMFUL:
            bucket = 0
        else:
            bucket = 1
        return (bucket, -race["instances"]["total"])

    races = sorted(document["races"], key=priority)
    actionable = {
        race["race"]
        for race in races
        if race["classification"] == HARMFUL and not race["suppressed"]
    }
    suppressed = sum(1 for race in races if race["suppressed"])
    header = (
        "%d unique data race(s): %d potentially harmful (triage these), "
        "%d potentially benign, %d suppressed"
        % (
            len(races),
            len(actionable),
            len(races) - len(actionable) - suppressed,
            suppressed,
        )
    )
    text = "\n".join([header] + [_render_race(race, document) for race in races])
    if not actionable:
        return text
    records = [
        record for record in report_records(document) if record.race in actionable
    ]
    return text + "\n\n" + render_ranking(records)

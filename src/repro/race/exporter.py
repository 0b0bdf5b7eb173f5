"""Machine-readable export of classification results.

Race reports ultimately feed other tooling — bug trackers, dashboards,
the paper's triage queues.  This module serialises a full analysis round
(per-race verdicts, outcome counts, scenarios, suggested reasons,
suppression state) to a stable JSON schema, and the CLI exposes it via
``classify --json``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Collection, Dict, List, Optional, Union

from ..isa.program import Program
from ..record.log import ReplayLog
from ..replay.differ import diff_outcomes
from .aggregate import RaceTally, StaticRaceResult, tally_result
from .heuristics import categorize
from .model import StaticRaceKey, static_key_to_text as _key_text
from .outcomes import Classification, InstanceOutcome

EXPORT_VERSION = 1


def result_to_json(
    result: StaticRaceResult,
    program: Program,
    suppressed: bool = False,
    max_scenarios: int = 2,
    batch_key_for=None,
) -> Dict:
    """One unique race's verdict as a JSON-compatible dict
    (:func:`tally_to_json` of the result's tally)."""
    return tally_to_json(
        tally_result(result, max_scenarios),
        program,
        suppressed=suppressed,
        batch_key_for=batch_key_for,
    )


def tally_to_json(
    tally: RaceTally,
    program: Program,
    suppressed: bool = False,
    batch_key_for=None,
) -> Dict:
    """One unique race's verdict, from its :class:`RaceTally`.

    ``batch_key_for(entry)``, when given, computes a harmful scenario's
    content-dedup batch key — static race id plus the two enclosing
    regions' content digests (see
    :func:`repro.analysis.batching.instance_batch_key`).  Fleet triage
    dedupes harmful reports across executions by this key; benign races
    don't feed triage, so their scenarios carry no key.  The callable
    derives the key from the recording alone, keeping reports
    byte-identical whichever classifier produced the verdicts.

    A race with replay-failure instances carries ``failure_kinds``
    (instances per failure kind), which the fleet scores by; a scenario
    carries ``live_out_difference`` only when the classifier stored its
    replay outcomes (``ClassifierConfig.store_replay_outcomes``).
    """
    reason = categorize(tally, program)
    group = tally.group
    harmful = group is not InstanceOutcome.NO_STATE_CHANGE
    scenarios: List[Dict] = []
    for entry in tally.exemplars:
        scenario = {
            "execution": entry.execution_id,
            "access_a": str(entry.instance.access_a),
            "access_b": str(entry.instance.access_b),
            "address": entry.instance.address,
            "original_first": entry.original_first,
            "outcome": str(entry.outcome),
            "failure": str(entry.failure_kind) if entry.failure_kind else None,
            "failure_detail": entry.failure_detail or None,
        }
        if entry.original_replay is not None and entry.alternative_replay is not None:
            scenario["live_out_difference"] = diff_outcomes(
                entry.original_replay, entry.alternative_replay
            ).render()
        if harmful and batch_key_for is not None:
            batch_key = batch_key_for(entry)
            if batch_key is not None:
                scenario["batch_key"] = batch_key
        scenarios.append(scenario)
    document = {
        "race": _key_text(tally.key),
        "instructions": [
            program.describe_instruction(tally.key[0]),
            program.describe_instruction(tally.key[1]),
        ],
        "classification": str(
            Classification.POTENTIALLY_HARMFUL
            if harmful
            else Classification.POTENTIALLY_BENIGN
        ),
        "group": str(group),
        "suppressed": suppressed,
        "suggested_reason": str(reason) if reason else None,
        "instances": {
            "total": tally.instance_count,
            "no_state_change": tally.no_change,
            "state_change": tally.changed,
            "replay_failure": tally.failed,
        },
    }
    if tally.failure_kinds:
        document["failure_kinds"] = dict(sorted(tally.failure_kinds.items()))
    document["executions"] = sorted(tally.executions)
    document["scenarios"] = scenarios
    return document


def results_to_json(
    results: Dict[StaticRaceKey, StaticRaceResult],
    program: Program,
    log: Optional[ReplayLog] = None,
    suppressed: Collection[StaticRaceKey] = (),
    batch_key_for=None,
) -> Dict:
    """A whole analysis round as a JSON-compatible document; races in
    ``suppressed`` (marked benign) are listed but not actionable."""
    return tallies_to_json(
        {key: tally_result(result) for key, result in results.items()},
        program,
        log=log,
        suppressed=suppressed,
        batch_key_for=batch_key_for,
    )


def tallies_to_json(
    tallies: Dict[StaticRaceKey, RaceTally],
    program: Program,
    log: Optional[ReplayLog] = None,
    suppressed: Collection[StaticRaceKey] = (),
    batch_key_for=None,
) -> Dict:
    """:func:`results_to_json` of per-race tallies."""
    races: List[Dict] = [
        tally_to_json(
            tally,
            program,
            suppressed=key in suppressed,
            batch_key_for=batch_key_for,
        )
        for key, tally in sorted(tallies.items(), key=lambda item: _key_text(item[0]))
    ]
    harmful = [race for race in races if race["classification"] == "potentially-harmful"]
    return {
        "export_version": EXPORT_VERSION,
        "program": program.name,
        "recording": {
            "seed": log.seed if log else None,
            "scheduler": log.scheduler if log else None,
            "instructions": log.total_instructions if log else None,
        },
        "summary": {
            "unique_races": len(races),
            "potentially_harmful": len(harmful),
            "potentially_benign": len(races) - len(harmful),
            "actionable": sum(1 for race in harmful if not race["suppressed"]),
        },
        "races": races,
    }


def export_results(
    path: Union[str, Path],
    results: Dict[StaticRaceKey, StaticRaceResult],
    program: Program,
    log: Optional[ReplayLog] = None,
    suppressed: Collection[StaticRaceKey] = (),
) -> None:
    """Write :func:`results_to_json` output to ``path``."""
    document = results_to_json(results, program, log=log, suppressed=suppressed)
    Path(path).write_text(json.dumps(document, indent=2))

"""``repro fleet import``'s converter for the two pre-fleet race files.

Older versions of ``repro classify`` kept a race database
(``{"format_version": 1, "records": [...]}``) and a suppression file (a
JSON list).  Each old record becomes one contribution keyed
``legacy:<sha256 of the file>``, so a second import is a no-op; each
suppression becomes a program-scoped ``race`` rule.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

from ..race.model import static_key_from_text
from .records import BENIGN, HARMFUL, Contribution, FleetRecord
from .store import FLEET_VERSION
from .suppression import SuppressionRule


def _race(entry: Dict) -> str:
    if not isinstance(entry["program"], str):
        raise TypeError("program must be a string")
    static_key_from_text(entry["key"])
    return entry["key"]


def _record(entry: Dict, job_key: str) -> Dict:
    counts = [entry[f] for f in ("no_state_change", "state_change", "replay_failure")]
    executions = entry["executions"]
    if not all(type(count) is int and count >= 0 for count in counts) or not (
        isinstance(executions, list) and all(isinstance(e, str) for e in executions)
    ):
        raise TypeError("counts must be non-negative integers, executions strings")
    record = FleetRecord(race=_race(entry), digest="", program=entry["program"])
    record.contributions[job_key] = Contribution(
        *counts,
        executions=sorted(set(executions)),
        classification=HARMFUL if counts[1] or counts[2] else BENIGN,
    )
    return record.to_json()


def import_file_document(data: bytes) -> Dict:
    """The export document an import file holds: a fleet export as it is,
    or an old race-database or suppression file converted;
    :class:`ValueError` for anything else."""
    payload = json.loads(data)
    if isinstance(payload, dict) and "fleet_version" in payload:
        return payload
    job_key = "legacy:" + hashlib.sha256(data).hexdigest()
    records, rules = {}, []
    try:
        if isinstance(payload, list):
            rules = [
                SuppressionRule(
                    scope="race",
                    race=_race(entry),
                    program=entry["program"],
                    reason=str(entry.get("reason", "")),
                    created_by=str(entry.get("triaged_by", "")),
                ).to_json()
                for entry in payload
            ]
        elif payload["format_version"] != 1:
            raise ValueError("unsupported race-database version")
        else:
            for entry in payload["records"]:  # a later duplicate replaces
                records[(entry["program"], entry["key"])] = _record(entry, job_key)
    except (KeyError, TypeError, AttributeError) as error:
        raise ValueError("not a race database or suppression file: %r" % error)
    return {
        "fleet_version": FLEET_VERSION,
        "absorbed": [job_key] if records else [],
        "records": [records[key] for key in sorted(records)],
        "suppressions": rules,
    }

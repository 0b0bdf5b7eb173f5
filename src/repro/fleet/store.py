"""The fleet triage store: absorb, compact, report, merge.

Persistence is an append-only journal of events replayed over a
compacted snapshot (the same recipe as the service's job store, promoted
to a multi-instance contract).  Every mutation — absorbing a job's
report, adding or removing a suppression rule, importing another host's
export — is journaled *first*, then applied to the in-memory view; every
entry point re-reads whatever other instances journaled since the last
look.  Because per-job evidence is stored as cells keyed by the job's
content key (see :mod:`repro.fleet.records`) and absorption is gated on
the absorbed-set, replaying any interleaving of the same events produces
the same state — which is what lets N service instances share one store
directory and serve byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from ..analysis.fleet_adapter import report_deltas
from .backend import FileLockBackend, MemoryBackend, StoreBackend
from .ranking import priority_score, rank_records
from .records import Contribution, FleetRecord
from .suppression import SuppressionRule, SuppressionSet

FLEET_VERSION = 1

#: "Never loaded" sentinel, distinct from a missing snapshot (None).
_UNLOADED = object()


def _canonical_bytes(document: Dict) -> bytes:
    """The repo-wide canonical JSON rendering (byte-comparable)."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")


@dataclass(frozen=True)
class AbsorbOutcome:
    """What one absorb call did."""

    absorbed: bool
    new_records: int = 0
    updated_records: int = 0
    #: Ids of existing records this absorb moved from potentially-benign
    #: to potentially-harmful — the paper's re-classification events.
    reclassified: Tuple[str, ...] = ()


def _is_benign(record: FleetRecord) -> bool:
    """``record.classification == BENIGN`` without summing every cell:
    the scan stops at the first harmful one."""
    benign = False
    for cell in record.contributions.values():
        if cell.state_change or cell.replay_failure:
            return False
        benign = benign or bool(cell.no_state_change)
    return benign


class FleetStore:
    """Cross-execution race database behind a :class:`StoreBackend`."""

    def __init__(self, backend: Optional[StoreBackend] = None) -> None:
        self._backend = backend if backend is not None else MemoryBackend()
        self._records: Dict[Tuple[str, str, str], FleetRecord] = {}
        #: (program, race) -> its records, one per region-content digest.
        self._by_race: Dict[Tuple[str, str], Dict[str, FleetRecord]] = {}
        #: record id -> record, for :meth:`record_document`.
        self._by_id: Dict[str, FleetRecord] = {}
        self._absorbed: Set[str] = set()
        self._rules = SuppressionSet()
        self._snapshot_sig = _UNLOADED
        self._position = 0

    @classmethod
    def open(cls, directory: Union[str, Path]) -> "FleetStore":
        """A store shared through a locked directory on disk."""
        return cls(FileLockBackend(directory))

    @property
    def backend(self) -> StoreBackend:
        return self._backend

    def close(self) -> None:
        self._backend.close()

    # ------------------------------------------------------------------
    # Refresh: converge on what other instances wrote.
    # ------------------------------------------------------------------

    def _load_snapshot(self) -> None:
        self._records = {}
        self._by_race = {}
        self._by_id = {}
        self._absorbed = set()
        self._rules = SuppressionSet()
        self._position = 0
        data = self._backend.read_snapshot()
        if not data:
            return
        document = json.loads(data)
        self._merge_document(document)

    def _refresh(self) -> None:
        """Bring the in-memory view up to date (lock held by caller)."""
        signature = self._backend.snapshot_signature()
        if signature != self._snapshot_sig:
            # Another instance compacted (or this is our first look):
            # reload from the snapshot and replay the journal from 0.
            self._load_snapshot()
            self._snapshot_sig = signature
        elif self._backend.journal_end() < self._position:
            # Journal shrank without a snapshot change — shouldn't
            # happen under the protocol, but reload rather than misread.
            self._load_snapshot()
        lines, self._position = self._backend.read_journal(self._position)
        for line in lines:
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn or foreign line: skip, never crash
            self._apply_event(event)

    def _apply_event(self, event: Dict) -> None:
        kind = event.get("event")
        if kind == "absorb":
            self._apply_absorb(
                event.get("job_key", ""),
                event.get("observed_at"),
                event.get("deltas", []),
            )
        elif kind == "suppress":
            rule = event.get("rule")
            if rule:
                self._rules.add(SuppressionRule.from_json(rule))
        elif kind == "unsuppress":
            self._rules.remove(event.get("rule_id", ""))
        elif kind == "import":
            self._merge_document(event.get("document", {}))

    def _append_event(self, event: Dict) -> None:
        self._backend.append_journal(json.dumps(event, sort_keys=True))
        self._position = self._backend.journal_end()

    # ------------------------------------------------------------------
    # Absorb.
    # ------------------------------------------------------------------

    def _apply_absorb(
        self, job_key: str, observed_at: Optional[float], deltas: List[Dict]
    ) -> AbsorbOutcome:
        if not job_key or job_key in self._absorbed:
            return AbsorbOutcome(absorbed=False)
        self._absorbed.add(job_key)
        new_records = updated_records = 0
        reclassified: List[str] = []
        for delta in deltas:
            key = (delta.get("program", ""), delta["race"], delta.get("digest", ""))
            if delta.get("state_change") or delta.get("replay_failure"):
                flipped = self._benign_before_first_harm(key)
                if flipped is not None:
                    reclassified.append(flipped.record_id)
            record = self._records.get(key)
            if record is None:
                record = self._add_record(
                    FleetRecord(race=key[1], digest=key[2], program=key[0])
                )
                new_records += 1
            else:
                updated_records += 1
            cell = Contribution.from_json(delta)
            cell.observed_at = observed_at
            record.contributions[job_key] = cell
        return AbsorbOutcome(
            True, new_records, updated_records, tuple(sorted(reclassified))
        )

    def _add_record(self, record: FleetRecord) -> FleetRecord:
        key = (record.program, record.race, record.digest)
        self._records[key] = record
        self._by_race.setdefault(key[:2], {})[record.digest] = record
        # Ids are truncated hashes: on a collision the record inserted
        # first keeps the id, and a merge replaces a record in place.
        record_id = record.record_id
        holder = self._by_id.setdefault(record_id, record)
        if (holder.program, holder.race, holder.digest) == key:
            self._by_id[record_id] = record
        return record

    def _benign_before_first_harm(
        self, key: Tuple[str, str, str]
    ) -> Optional[FleetRecord]:
        """The benign record a harmful sighting at ``key`` re-classifies.

        A race's records differ only by region-content digest (a report
        without batch keys files under the empty one), so the flip is
        judged per (program, race): the first harmful sighting reports
        the race's benign record — the one at ``key`` when it is benign,
        else the first by digest — and once any record of the race is
        harmful, later harm under another digest is no new event.
        """
        siblings = self._by_race.get(key[:2], {})
        if any(
            cell.state_change or cell.replay_failure
            for record in siblings.values()
            for cell in record.contributions.values()
        ):
            return None
        for digest in [key[2]] + sorted(siblings):
            record = siblings.get(digest)
            if record is not None and _is_benign(record):
                return record
        return None

    def absorb_report(
        self,
        report: Dict,
        job_key: str,
        observed_at: Optional[float] = None,
        perf=None,
    ) -> AbsorbOutcome:
        """Fold one completed job's report into the fleet aggregates.

        Idempotent on ``job_key`` (the job's content key): a duplicate —
        the same execution submitted twice, or absorbed by two service
        instances — is skipped, so any set of instances converges.
        ``observed_at`` is journaled with the *first* absorb, which is
        why shared-store instances agree on first/last-seen stamps.
        """
        deltas = report_deltas(report)
        with self._backend.exclusive():
            self._refresh()
            if job_key in self._absorbed:
                if perf is not None:
                    perf.fleet_absorb_duplicates += 1
                return AbsorbOutcome(absorbed=False)
            self._append_event(
                {
                    "event": "absorb",
                    "schema": FLEET_VERSION,
                    "job_key": job_key,
                    "observed_at": observed_at,
                    "deltas": deltas,
                }
            )
            outcome = self._apply_absorb(job_key, observed_at, deltas)
            if perf is not None:
                perf.fleet_absorbs += 1
                perf.fleet_records_new += outcome.new_records
                perf.fleet_records_updated += outcome.updated_records
            return outcome

    # ------------------------------------------------------------------
    # Compaction.
    # ------------------------------------------------------------------

    def _document(self) -> Dict:
        return {
            "fleet_version": FLEET_VERSION,
            "absorbed": sorted(self._absorbed),
            "records": [
                self._records[key].to_json() for key in sorted(self._records)
            ],
            "suppressions": [rule.to_json() for rule in self._rules.rules()],
        }

    def compact(self) -> int:
        """Fold the journal into the snapshot; returns the snapshot size.

        Crash-safe: the snapshot is replaced atomically before the
        journal is truncated, and a crash in between merely replays
        events the snapshot already holds (absorption is gated on the
        absorbed-set, suppression adds/removes are idempotent).
        """
        with self._backend.exclusive():
            self._refresh()
            data = _canonical_bytes(self._document())
            self._backend.replace_snapshot(data)
            self._backend.truncate_journal()
            self._snapshot_sig = self._backend.snapshot_signature()
            self._position = self._backend.journal_end()
            return len(data)

    # ------------------------------------------------------------------
    # Cross-host merge.
    # ------------------------------------------------------------------

    def _merge_document(self, document: Dict) -> None:
        self._absorbed.update(document.get("absorbed", []))
        for payload in document.get("records", []):
            record = FleetRecord.from_json(payload)
            mine = self._records.get((record.program, record.race, record.digest))
            self._add_record(record if mine is None else mine.merged_with(record))
        if document.get("suppressions"):
            other = SuppressionSet()
            for payload in document["suppressions"]:
                other.add(SuppressionRule.from_json(payload))
            self._rules = self._rules.merged_with(other)

    def export_document(self) -> Dict:
        """The full store state, suitable for :meth:`import_document`."""
        with self._backend.exclusive():
            self._refresh()
            return self._document()

    def import_document(self, document: Dict) -> None:
        """Merge another host's export in (commutative, idempotent)."""
        version = document.get("fleet_version")
        if version != FLEET_VERSION:
            raise ValueError("unsupported fleet export version: %r" % version)
        # Journaled, a malformed document would fail every later refresh.
        try:
            FleetStore()._merge_document(document)
        except (AttributeError, KeyError, TypeError) as error:
            raise ValueError("malformed fleet export: %r" % error)
        with self._backend.exclusive():
            self._refresh()
            self._append_event(
                {"event": "import", "schema": FLEET_VERSION, "document": document}
            )
            self._merge_document(document)

    # ------------------------------------------------------------------
    # Suppression.
    # ------------------------------------------------------------------

    def suppress(self, rule: SuppressionRule) -> str:
        with self._backend.exclusive():
            self._refresh()
            self._append_event(
                {"event": "suppress", "schema": FLEET_VERSION, "rule": rule.to_json()}
            )
            return self._rules.add(rule)

    def unsuppress(self, rule_id: str) -> bool:
        with self._backend.exclusive():
            self._refresh()
            if self._rules.get(rule_id) is None:
                return False
            self._append_event(
                {"event": "unsuppress", "schema": FLEET_VERSION, "rule_id": rule_id}
            )
            return self._rules.remove(rule_id)

    def suppression_rules(self) -> List[SuppressionRule]:
        with self._backend.exclusive():
            self._refresh()
            return self._rules.rules()

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        with self._backend.exclusive():
            self._refresh()
            return {
                "unique_races": len(self._records),
                "absorbed_jobs": len(self._absorbed),
                "suppression_rules": len(self._rules),
            }

    def _entry_for(
        self, record: FleetRecord, rule: Optional[SuppressionRule]
    ) -> Dict:
        return {
            "id": record.record_id,
            "race": record.race,
            "digest": record.digest,
            "program": record.program,
            "classification": record.classification,
            "score": priority_score(record).to_json(),
            "instances": record.counts(),
            "executions": record.executions(),
            "contributors": sorted(record.contributions),
            "first_seen": record.first_seen,
            "last_seen": record.last_seen,
            "suppressed": rule is not None,
            "suppressed_by": rule.rule_id if rule is not None else None,
        }

    def report_document(
        self,
        include_suppressed: bool = False,
        limit: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Dict:
        """The ranked fleet view: harmful first, suppressed excluded.

        ``now`` is only consulted for rule expiry; nothing in the
        output derives from the caller's clock, so two instances over
        one store render byte-identical reports.
        """
        with self._backend.exclusive():
            self._refresh()
            ranked = rank_records(self._records.values())
            rules = self._rules
            entries: List[Dict] = []
            suppressed_total = 0
            for record in ranked:
                rule = rules.suppressing(record, now)
                if rule is not None:
                    suppressed_total += 1
                    if not include_suppressed:
                        continue
                entries.append(self._entry_for(record, rule))
            if limit is not None:
                entries = entries[: max(limit, 0)]
            listed = {"potentially-harmful": 0, "potentially-benign": 0, "detected": 0}
            for entry in entries:
                listed[entry["classification"]] = (
                    listed.get(entry["classification"], 0) + 1
                )
            return {
                "fleet_report_version": FLEET_VERSION,
                "store": {
                    "unique_races": len(self._records),
                    "absorbed_jobs": len(self._absorbed),
                    "suppression_rules": len(self._rules),
                },
                "summary": {
                    "listed": len(entries),
                    "harmful": listed["potentially-harmful"],
                    "benign": listed["potentially-benign"],
                    "detected": listed["detected"],
                    "suppressed": suppressed_total,
                },
                "races": entries,
            }

    def report_bytes(
        self,
        include_suppressed: bool = False,
        limit: Optional[int] = None,
        now: Optional[float] = None,
    ) -> bytes:
        return _canonical_bytes(
            self.report_document(
                include_suppressed=include_suppressed, limit=limit, now=now
            )
        )

    def record_document(
        self, record_id: str, now: Optional[float] = None
    ) -> Optional[Dict]:
        """One race's full detail, including per-job contributions."""
        with self._backend.exclusive():
            self._refresh()
            record = self._by_id.get(record_id)
            if record is None:
                return None
            rule = self._rules.suppressing(record, now)
            entry = self._entry_for(record, rule)
            entry["contributions"] = {
                job_key: record.contributions[job_key].to_json()
                for job_key in sorted(record.contributions)
            }
            return entry

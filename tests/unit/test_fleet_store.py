"""Unit tests for the persistent fleet triage store.

The store's core promise is convergence: any set of instances absorbing
the same jobs — in any order, with duplicates, through crashes and
compactions — ends up with byte-identical compacted snapshots and
byte-identical ranked reports.  These tests pin that promise at every
layer: record merge algebra, suppression matching, ranking order, the
report adapter, and both backends' crash/replay behaviour.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.fleet_adapter import report_deltas
from repro.analysis.perf import PerfStats
from repro.fleet import (
    Contribution,
    FleetRecord,
    FleetStore,
    MemoryBackend,
    SuppressionRule,
    priority_score,
    rank_records,
    record_id_for,
)
from repro.fleet.backend import JOURNAL_NAME, SNAPSHOT_NAME

RACE_A = "counter:2|counter:6"
RACE_B = "flag:1|flag:9"
RACE_C = "queue:3|queue:4"


def export_report(program="prog", races=None):
    """A minimal classification export (the full/stream job report)."""
    return {
        "export_version": 1,
        "program": program,
        "races": races if races is not None else [
            harmful_race(RACE_A),
            benign_race(RACE_B),
        ],
    }


def harmful_race(race, state_change=2, executions=("e1",), digest=("aa", "bb")):
    return {
        "race": race,
        "classification": "potentially-harmful",
        "instances": {
            "total": state_change + 1,
            "no_state_change": 1,
            "state_change": state_change,
            "replay_failure": 0,
        },
        "executions": list(executions),
        "scenarios": [{"batch_key": {"region_content": list(digest)}}],
    }


def benign_race(race, no_state_change=3, executions=("e1",)):
    return {
        "race": race,
        "classification": "potentially-benign",
        "instances": {
            "total": no_state_change,
            "no_state_change": no_state_change,
            "state_change": 0,
            "replay_failure": 0,
        },
        "executions": list(executions),
        "scenarios": [],
    }


def detect_report(program="prog", execution="e9", races=((RACE_C, 4),)):
    return {
        "detect_version": 1,
        "program": program,
        "execution": execution,
        "unique_races": [
            {"race": race, "instances": count} for race, count in races
        ],
    }


class TestRecords:
    def test_record_id_is_stable_and_key_sensitive(self):
        first = record_id_for("p", RACE_A, "aa+bb")
        assert first == record_id_for("p", RACE_A, "aa+bb")
        assert first != record_id_for("p", RACE_A, "")
        assert first != record_id_for("q", RACE_A, "aa+bb")
        assert len(first) == 16

    def test_classification_over_fleet_counts(self):
        record = FleetRecord(race=RACE_A, digest="", program="p")
        assert record.classification == "detected"
        record.contributions["j1"] = Contribution(detected=3)
        assert record.classification == "detected"
        record.contributions["j2"] = Contribution(no_state_change=5)
        assert record.classification == "potentially-benign"
        # One state change anywhere in the fleet flips the verdict.
        record.contributions["j3"] = Contribution(state_change=1)
        assert record.classification == "potentially-harmful"
        assert record.counts()["total"] == 9

    def test_merge_is_commutative_and_idempotent(self):
        left = FleetRecord(race=RACE_A, digest="d", program="p")
        left.contributions["j1"] = Contribution(state_change=1, observed_at=1.0)
        left.contributions["j2"] = Contribution(no_state_change=2, observed_at=2.0)
        right = FleetRecord(race=RACE_A, digest="d", program="p")
        right.contributions["j2"] = Contribution(no_state_change=2, observed_at=9.0)
        right.contributions["j3"] = Contribution(detected=1, observed_at=3.0)

        ab = left.merged_with(right).to_json()
        ba = right.merged_with(left).to_json()
        assert ab == ba
        assert left.merged_with(left).to_json() == left.to_json()
        # The conflicting j2 cell resolved the same way on both sides.
        assert ab["contributions"]["j2"]["observed_at"] == 2.0

    def test_first_and_last_seen_span_contributions(self):
        record = FleetRecord(race=RACE_A, digest="", program="p")
        assert record.first_seen is None and record.last_seen is None
        record.contributions["j1"] = Contribution(observed_at=5.0)
        record.contributions["j2"] = Contribution(observed_at=2.0)
        record.contributions["j3"] = Contribution()  # no stamp
        assert record.first_seen == 2.0
        assert record.last_seen == 5.0

    def test_json_round_trip(self):
        record = FleetRecord(race=RACE_A, digest="d", program="p")
        record.contributions["j1"] = Contribution(
            state_change=1, executions=["e2", "e1"], classification="x"
        )
        clone = FleetRecord.from_json(record.to_json())
        assert clone.to_json() == record.to_json()
        assert clone.contributions["j1"].executions == ["e1", "e2"]


class TestSuppressionRules:
    def test_rule_id_excludes_provenance(self):
        first = SuppressionRule(
            scope="race", race=RACE_A, reason="known benign", created_by="me"
        )
        second = SuppressionRule(
            scope="race", race=RACE_A, reason="different note", created_at=7.0
        )
        assert first.rule_id == second.rule_id
        assert first.rule_id != SuppressionRule(scope="exact", race=RACE_A).rule_id

    def test_scope_matching(self):
        race_wide = SuppressionRule(scope="race", race=RACE_A)
        exact = SuppressionRule(scope="exact", race=RACE_A, digest="aa+bb")
        assert race_wide.matches(RACE_A, "anything")
        assert not race_wide.matches(RACE_B, "")
        assert exact.matches(RACE_A, "aa+bb")
        assert not exact.matches(RACE_A, "cc+dd")

    def test_expiry_needs_both_clock_and_deadline(self):
        rule = SuppressionRule(scope="race", race=RACE_A, expires_at=100.0)
        assert rule.matches(RACE_A, "", now=99.0)
        assert not rule.matches(RACE_A, "", now=100.0)
        # No clock (the convergence-critical report path) = never expired.
        assert rule.matches(RACE_A, "", now=None)
        assert SuppressionRule(scope="race", race=RACE_A).matches(
            RACE_A, "", now=1e12
        )


    def test_program_scope_leaves_program_less_rules_unchanged(self):
        plain = SuppressionRule(scope="race", race=RACE_A)
        scoped = SuppressionRule(scope="race", race=RACE_A, program="alpha")
        body = "repro-fleet-rule|race|%s|" % RACE_A
        assert plain.rule_id == hashlib.sha256(body.encode()).hexdigest()[:16]
        assert "program" not in plain.to_json()
        assert scoped.rule_id != plain.rule_id
        assert SuppressionRule.from_json(scoped.to_json()) == scoped
        assert scoped.matches(RACE_A, "", program="alpha")
        assert not scoped.matches(RACE_A, "", program="beta")
        assert plain.matches(RACE_A, "", program="beta")


class TestRanking:
    def _record(self, race, digest="", **cell):
        record = FleetRecord(race=race, digest=digest, program="p")
        record.contributions["j"] = Contribution(**cell)
        return record

    def test_groups_order_harmful_detected_benign(self):
        benign = self._record(RACE_A, no_state_change=50)
        detected = self._record(RACE_B, detected=50)
        harmful = self._record(RACE_C, state_change=1)
        ranked = rank_records([benign, detected, harmful])
        assert [r.race for r in ranked] == [RACE_C, RACE_B, RACE_A]

    def test_score_rises_with_state_change_fraction(self):
        weak = self._record(RACE_A, state_change=1, no_state_change=9)
        strong = self._record(RACE_A, state_change=9, no_state_change=1)
        assert priority_score(strong).total > priority_score(weak).total

    def test_failure_scores_by_its_strongest_kind(self):
        crash = self._record(
            RACE_A,
            replay_failure=2,
            failure_kinds={"step-limit": 1, "memory-fault": 1},
        )
        wedge = self._record(RACE_A, replay_failure=2, failure_kinds={"step-limit": 2})
        assert priority_score(crash).failure_strength == pytest.approx(2.0)
        assert priority_score(wedge).failure_strength == pytest.approx(0.6)

    def test_cell_without_kinds_scores_the_unknown_kind_weight(self):
        legacy = self._record(RACE_A, replay_failure=3)
        assert priority_score(legacy).failure_strength == pytest.approx(1.0)
        assert priority_score(self._record(RACE_A, state_change=3)).failure_strength == 0

    def test_ties_break_deterministically_on_identity(self):
        twins = [
            self._record(RACE_B, digest="zz", state_change=1),
            self._record(RACE_B, digest="aa", state_change=1),
        ]
        ranked = rank_records(twins)
        assert [r.digest for r in ranked] == ["aa", "zz"]


class TestReportAdapter:
    def test_export_report_deltas(self):
        deltas = report_deltas(export_report())
        assert len(deltas) == 2
        harmful = next(d for d in deltas if d["race"] == RACE_A)
        assert harmful["digest"] == "aa+bb"
        assert harmful["state_change"] == 2
        assert harmful["detected"] == 0
        assert harmful["program"] == "prog"
        benign = next(d for d in deltas if d["race"] == RACE_B)
        assert benign["digest"] == ""  # benign scenarios carry no batch key
        assert benign["no_state_change"] == 3

    def test_failure_kinds_reach_the_delta_only_when_present(self):
        failing = harmful_race(RACE_C, state_change=0)
        failing["instances"]["replay_failure"] = 2
        failing["failure_kinds"] = {"divergence": 2}
        deltas = report_deltas(export_report(races=[failing, benign_race(RACE_B)]))
        assert deltas[0]["failure_kinds"] == {"divergence": 2}
        assert "failure_kinds" not in deltas[1]

    def test_detect_report_deltas(self):
        deltas = report_deltas(detect_report())
        assert deltas == [
            {
                "race": RACE_C,
                "digest": "",
                "program": "prog",
                "no_state_change": 0,
                "state_change": 0,
                "replay_failure": 0,
                "detected": 4,
                "executions": ["e9"],
                "classification": "detected",
            }
        ]

    def test_non_report_documents_are_rejected(self):
        with pytest.raises(ValueError, match="not an analysis report"):
            report_deltas({"job_id": "nope"})


class TestMemoryStore:
    def test_absorb_then_duplicate_is_skipped(self):
        store = FleetStore()
        perf = PerfStats()
        first = store.absorb_report(export_report(), "job-1", perf=perf)
        assert first.absorbed and first.new_records == 2
        again = store.absorb_report(export_report(), "job-1", perf=perf)
        assert not again.absorbed
        assert perf.fleet_absorbs == 1
        assert perf.fleet_absorb_duplicates == 1
        assert store.counts() == {
            "unique_races": 2,
            "absorbed_jobs": 1,
            "suppression_rules": 0,
        }

    def test_absorb_order_does_not_matter(self):
        reports = [
            (export_report(), "job-1"),
            (detect_report(), "job-2"),
            (export_report(races=[harmful_race(RACE_A, state_change=7,
                                               executions=("e2",))]), "job-3"),
        ]
        forward, backward = FleetStore(), FleetStore()
        for report, key in reports:
            forward.absorb_report(report, key, observed_at=1.0)
        for report, key in reversed(reports):
            backward.absorb_report(report, key, observed_at=1.0)
            backward.absorb_report(report, key, observed_at=9.0)  # dup, ignored
        forward.compact()
        backward.compact()
        assert forward.backend.read_snapshot() == backward.backend.read_snapshot()
        assert forward.report_bytes() == backward.report_bytes()

    def test_report_document_shape_and_ordering(self):
        store = FleetStore()
        store.absorb_report(export_report(), "job-1", observed_at=10.0)
        store.absorb_report(detect_report(), "job-2", observed_at=11.0)
        document = store.report_document()
        assert document["fleet_report_version"] == 1
        assert document["summary"] == {
            "listed": 3, "harmful": 1, "benign": 1, "detected": 1,
            "suppressed": 0,
        }
        races = document["races"]
        assert [r["classification"] for r in races] == [
            "potentially-harmful", "detected", "potentially-benign",
        ]
        top = races[0]
        assert top["race"] == RACE_A and top["digest"] == "aa+bb"
        assert top["id"] == record_id_for("prog", RACE_A, "aa+bb")
        assert top["instances"]["state_change"] == 2
        assert top["first_seen"] == 10.0 and top["last_seen"] == 10.0
        assert top["contributors"] == ["job-1"]

    def test_suppression_hides_and_include_suppressed_reveals(self):
        store = FleetStore()
        store.absorb_report(export_report(), "job-1")
        rule_id = store.suppress(SuppressionRule(scope="race", race=RACE_A))
        document = store.report_document()
        assert document["summary"]["suppressed"] == 1
        assert all(r["race"] != RACE_A for r in document["races"])
        revealed = store.report_document(include_suppressed=True)
        entry = next(r for r in revealed["races"] if r["race"] == RACE_A)
        assert entry["suppressed"] and entry["suppressed_by"] == rule_id

    def test_expired_rules_stop_suppressing(self):
        store = FleetStore()
        store.absorb_report(export_report(), "job-1")
        store.suppress(
            SuppressionRule(scope="race", race=RACE_A, expires_at=100.0)
        )
        assert store.report_document(now=50.0)["summary"]["suppressed"] == 1
        assert store.report_document(now=200.0)["summary"]["suppressed"] == 0

    def test_unsuppress_round_trip(self):
        store = FleetStore()
        rule_id = store.suppress(SuppressionRule(scope="race", race=RACE_A))
        assert store.unsuppress(rule_id)
        assert not store.unsuppress(rule_id)
        assert store.suppression_rules() == []

    def test_program_scoped_rule_suppresses_only_its_program(self):
        race = "w1:6|w1:8"
        store = FleetStore()
        store.absorb_report(export_report("alpha", [benign_race(race)]), "job-a")
        store.absorb_report(export_report("beta", [benign_race(race)]), "job-b")

        def suppressed():
            document = store.report_document(include_suppressed=True)
            return {r["program"]: r["suppressed"] for r in document["races"]}

        rule_id = store.suppress(
            SuppressionRule(scope="race", race=race, program="alpha")
        )
        assert suppressed() == {"alpha": True, "beta": False}
        assert store.unsuppress(rule_id)
        store.suppress(SuppressionRule(scope="race", race=race))
        assert suppressed() == {"alpha": True, "beta": True}

    def test_benign_then_harmful_is_reported_as_reclassified(self):
        """The paper's re-classification: a race that looked benign in one
        execution is exposed as harmful by a later one."""
        store = FleetStore()
        benign = export_report(races=[benign_race(RACE_B)])
        assert store.absorb_report(benign, "night-1").reclassified == ()
        harmful = export_report(races=[dict(harmful_race(RACE_B), scenarios=[])])
        flipped = store.absorb_report(harmful, "night-2")
        assert flipped.updated_records == 1
        assert flipped.reclassified == (record_id_for("prog", RACE_B, ""),)
        # Already harmful: more harm is no new event, nor is more benign.
        assert store.absorb_report(harmful, "night-3").reclassified == ()
        assert store.absorb_report(benign, "night-4").reclassified == ()
        entry = store.report_document()["races"][0]
        assert entry["classification"] == "potentially-harmful"

    def test_harmful_under_a_batch_digest_reclassifies_the_benign_record(self):
        """A race absorbed benign (no batch key: the empty digest) and
        later harmful under a batch-key digest lands in two records; the
        flip still reports the benign one, once."""
        store = FleetStore()
        benign = export_report(races=[benign_race(RACE_B)])
        assert store.absorb_report(benign, "classify-1").reclassified == ()
        harmful = export_report(races=[harmful_race(RACE_B)])
        flipped = store.absorb_report(harmful, "serve-1")
        assert flipped.new_records == 1
        assert flipped.reclassified == (record_id_for("prog", RACE_B, ""),)
        other = export_report(races=[harmful_race(RACE_B, digest=("cc",))])
        again = store.absorb_report(other, "serve-2")
        assert again.new_records == 1 and again.reclassified == ()

    def test_limit_truncates_after_ranking(self):
        store = FleetStore()
        store.absorb_report(export_report(), "job-1")
        store.absorb_report(detect_report(), "job-2")
        document = store.report_document(limit=1)
        assert document["summary"]["listed"] == 1
        assert document["races"][0]["classification"] == "potentially-harmful"
        assert document["store"]["unique_races"] == 3  # store totals unclipped

    def test_record_document_carries_contribution_detail(self):
        store = FleetStore()
        store.absorb_report(export_report(), "job-1", observed_at=4.0)
        record_id = record_id_for("prog", RACE_A, "aa+bb")
        detail = store.record_document(record_id)
        assert detail["id"] == record_id
        assert detail["contributions"]["job-1"]["state_change"] == 2
        assert store.record_document("0" * 16) is None

    def test_record_document_reads_a_merged_record(self):
        left, right = FleetStore(), FleetStore()
        left.absorb_report(export_report(), "job-1")
        right.absorb_report(export_report(), "job-2")
        left.import_document(right.export_document())
        detail = left.record_document(record_id_for("prog", RACE_A, "aa+bb"))
        assert sorted(detail["contributions"]) == ["job-1", "job-2"]

    def test_colliding_record_ids_resolve_to_the_first_record(self, monkeypatch):
        from repro.fleet import records

        monkeypatch.setattr(records, "record_id_for", lambda *key: "c" * 16)
        store = FleetStore()
        store.absorb_report(export_report(), "job-1")
        store.absorb_report(export_report(races=[benign_race(RACE_C)]), "job-2")
        assert store.record_document("c" * 16)["race"] == RACE_A

    def test_export_import_merge_is_idempotent_and_commutative(self):
        left, right = FleetStore(), FleetStore()
        left.absorb_report(export_report(), "job-1", observed_at=1.0)
        right.absorb_report(detect_report(), "job-2", observed_at=2.0)
        right.suppress(SuppressionRule(scope="race", race=RACE_B))

        left.import_document(right.export_document())
        right.import_document(left.export_document())
        left.import_document(right.export_document())  # idempotent re-import
        assert left.report_bytes() == right.report_bytes()
        assert left.counts() == right.counts() == {
            "unique_races": 3, "absorbed_jobs": 2, "suppression_rules": 1,
        }

    def test_import_rejects_unknown_versions(self):
        with pytest.raises(ValueError, match="fleet export version"):
            FleetStore().import_document({"fleet_version": 99})

    def test_malformed_import_is_rejected_before_it_is_journaled(self):
        store = FleetStore()
        store.absorb_report(export_report(), "job-1")
        before = store.report_bytes()
        for document in (
            {"fleet_version": 1, "records": 5},
            {"fleet_version": 1, "records": [{"digest": "no race key"}]},
            {"fleet_version": 1, "suppressions": [{"scope": "race"}]},
        ):
            with pytest.raises(ValueError, match="malformed fleet export"):
                store.import_document(document)
        assert store.report_bytes() == before
        assert FleetStore(store.backend).report_bytes() == before

    def test_malformed_failure_kinds_are_rejected_before_they_are_journaled(self):
        store = FleetStore()
        store.absorb_report(export_report(), "job-1")
        before = store.report_bytes()
        failing = harmful_race(RACE_C, state_change=0)
        failing["instances"]["replay_failure"] = 1
        failing["failure_kinds"] = {"step-limit": "many"}
        with pytest.raises(ValueError):
            store.absorb_report(export_report(races=[failing]), "job-2")
        assert FleetStore(store.backend).report_bytes() == before


class TestFileStore:
    def test_journal_replays_across_reopen_without_compaction(self, tmp_path):
        store = FleetStore.open(tmp_path / "fleet")
        store.absorb_report(export_report(), "job-1", observed_at=1.0)
        store.suppress(SuppressionRule(scope="race", race=RACE_B))
        before = store.report_bytes()
        store.close()

        reopened = FleetStore.open(tmp_path / "fleet")
        assert reopened.report_bytes() == before
        assert (tmp_path / "fleet" / JOURNAL_NAME).stat().st_size > 0
        assert not (tmp_path / "fleet" / SNAPSHOT_NAME).exists()

    def test_compaction_preserves_the_report_and_empties_the_journal(
        self, tmp_path
    ):
        store = FleetStore.open(tmp_path / "fleet")
        store.absorb_report(export_report(), "job-1", observed_at=1.0)
        store.absorb_report(detect_report(), "job-2", observed_at=2.0)
        before = store.report_bytes()
        size = store.compact()
        snapshot = (tmp_path / "fleet" / SNAPSHOT_NAME).read_bytes()
        assert size == len(snapshot)
        assert (tmp_path / "fleet" / JOURNAL_NAME).stat().st_size == 0
        assert store.report_bytes() == before
        assert FleetStore.open(tmp_path / "fleet").report_bytes() == before
        # Re-submitting the same executions leaves the compacted snapshot
        # byte-identical: it tracks unique races, not traffic.
        for _ in range(3):
            store.absorb_report(export_report(), "job-1", observed_at=3.0)
            store.absorb_report(detect_report(), "job-2", observed_at=4.0)
        assert store.compact() == size
        assert (tmp_path / "fleet" / SNAPSHOT_NAME).read_bytes() == snapshot

    def test_failure_kinds_survive_journal_and_snapshot(self, tmp_path):
        failing = harmful_race(RACE_C, state_change=0)
        failing["instances"]["replay_failure"] = 2
        failing["failure_kinds"] = {"memory-fault": 1, "step-limit": 1}
        store = FleetStore.open(tmp_path / "fleet")
        store.absorb_report(export_report(races=[failing]), "job-1", observed_at=1.0)
        before = store.report_bytes()
        (entry,) = store.report_document()["races"]
        assert entry["score"]["failure_strength"] == 2.0
        record = store.record_document(entry["id"])
        assert record["contributions"]["job-1"]["failure_kinds"] == {
            "memory-fault": 1,
            "step-limit": 1,
        }
        assert FleetStore.open(tmp_path / "fleet").report_bytes() == before
        store.compact()
        assert FleetStore.open(tmp_path / "fleet").report_bytes() == before

    def test_snapshot_without_failure_kinds_loads_and_compacts_unchanged(
        self, tmp_path
    ):
        """A snapshot written before cells kept failure kinds: its failing
        cell scores with the unknown-kind weight, and compaction rewrites
        the snapshot byte for byte."""
        cell = {
            "classification": "potentially-harmful",
            "detected": 0,
            "executions": ["e1"],
            "no_state_change": 1,
            "observed_at": 1.0,
            "replay_failure": 3,
            "state_change": 0,
        }
        document = {
            "absorbed": ["job-1"],
            "fleet_version": 1,
            "records": [
                {
                    "contributions": {"job-1": cell},
                    "digest": "",
                    "program": "prog",
                    "race": RACE_A,
                }
            ],
            "suppressions": [],
        }
        old = (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")
        (tmp_path / "fleet").mkdir()
        (tmp_path / "fleet" / SNAPSHOT_NAME).write_bytes(old)
        store = FleetStore.open(tmp_path / "fleet")
        (entry,) = store.report_document()["races"]
        assert entry["classification"] == "potentially-harmful"
        assert entry["score"]["failure_strength"] == 1.0  # 2 x 0.5
        assert store.compact() == len(old)
        assert (tmp_path / "fleet" / SNAPSHOT_NAME).read_bytes() == old

    def test_torn_journal_tail_is_sealed_not_fatal(self, tmp_path):
        store = FleetStore.open(tmp_path / "fleet")
        store.absorb_report(export_report(), "job-1", observed_at=1.0)
        before = store.report_bytes()
        journal = tmp_path / "fleet" / JOURNAL_NAME
        with open(journal, "ab") as handle:
            handle.write(b'{"event": "absorb", "job_')  # writer died here

        reopened = FleetStore.open(tmp_path / "fleet")
        assert reopened.report_bytes() == before
        # The next append seals the torn fragment onto its own line.
        reopened.absorb_report(detect_report(), "job-2", observed_at=2.0)
        assert reopened.counts()["absorbed_jobs"] == 2

    def test_crash_between_snapshot_and_truncate_replays_idempotently(
        self, tmp_path
    ):
        store = FleetStore.open(tmp_path / "fleet")
        store.absorb_report(export_report(), "job-1", observed_at=1.0)
        journal_bytes = (tmp_path / "fleet" / JOURNAL_NAME).read_bytes()
        store.compact()
        # Simulate the crash window: snapshot written, truncate lost.
        (tmp_path / "fleet" / JOURNAL_NAME).write_bytes(journal_bytes)

        reopened = FleetStore.open(tmp_path / "fleet")
        counts = reopened.counts()
        assert counts["absorbed_jobs"] == 1  # replay gated on absorbed-set
        assert counts["unique_races"] == 2
        record = reopened.record_document(record_id_for("prog", RACE_A, "aa+bb"))
        assert record["instances"]["state_change"] == 2  # not doubled

    def test_two_instances_sharing_a_directory_converge(self, tmp_path):
        first = FleetStore.open(tmp_path / "fleet")
        second = FleetStore.open(tmp_path / "fleet")
        first.absorb_report(export_report(), "job-1", observed_at=1.0)
        second.absorb_report(detect_report(), "job-2", observed_at=2.0)
        # Overlap: both instances try the same execution; one wins.
        assert second.absorb_report(export_report(), "job-1").absorbed is False
        assert first.report_bytes() == second.report_bytes()

        first.compact()
        second.absorb_report(
            export_report(races=[benign_race(RACE_C)]), "job-3", observed_at=3.0
        )
        assert first.report_bytes() == second.report_bytes()
        assert first.counts()["absorbed_jobs"] == 3

    def test_suppressions_propagate_between_instances(self, tmp_path):
        first = FleetStore.open(tmp_path / "fleet")
        second = FleetStore.open(tmp_path / "fleet")
        first.absorb_report(export_report(), "job-1")
        rule_id = first.suppress(SuppressionRule(scope="race", race=RACE_A))
        assert second.report_document()["summary"]["suppressed"] == 1
        assert second.unsuppress(rule_id)
        assert first.report_document()["summary"]["suppressed"] == 0

    def test_snapshot_is_canonical_json(self, tmp_path):
        store = FleetStore.open(tmp_path / "fleet")
        store.absorb_report(export_report(), "job-1", observed_at=1.0)
        store.compact()
        raw = (tmp_path / "fleet" / SNAPSHOT_NAME).read_bytes()
        document = json.loads(raw)
        canonical = (
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        ).encode("utf-8")
        assert raw == canonical
        assert document["fleet_version"] == 1

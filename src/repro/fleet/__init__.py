"""Fleet triage store: unique races aggregated across every execution.

The paper's workflow is fleet-scale — millions of submitted executions
dedupe down to a small set of unique static races, with harmful ones
surfaced first and known-benign ones suppressed.  This package is that
persistence layer: a crash-safe append-journal + compacted-snapshot
database of unique races keyed by ``(program, static race id,
region-content digest)``, absorbing every completed job's verdicts and
serving a harmful-first ranked view.

Layers:

* :mod:`repro.fleet.records` — the per-race aggregate model;
* :mod:`repro.fleet.suppression` — persisted suppression rules with
  provenance and expiry;
* :mod:`repro.fleet.ranking` — the triage priority score and the
  harmful-first ordering (``repro classify`` ranks with it too);
* :mod:`repro.fleet.backend` — pluggable storage (advisory file lock on
  a shared directory, or in-memory for tests);
* :mod:`repro.fleet.store` — the store itself: absorb, compact,
  report, export/import for cross-host merge;
* :mod:`repro.fleet.legacy` — ``fleet import``'s converter for the
  pre-fleet race-database and suppression files.
"""

from .backend import FileLockBackend, MemoryBackend, StoreBackend
from .records import FLEET_SCHEMA_VERSION, Contribution, FleetRecord, record_id_for
from .ranking import (
    PriorityScore,
    priority_score,
    rank_records,
    render_ranking,
    report_records,
)
from .store import AbsorbOutcome, FleetStore
from .suppression import SuppressionRule, SuppressionSet

__all__ = [
    "AbsorbOutcome",
    "Contribution",
    "FLEET_SCHEMA_VERSION",
    "FileLockBackend",
    "FleetRecord",
    "FleetStore",
    "MemoryBackend",
    "PriorityScore",
    "StoreBackend",
    "SuppressionRule",
    "SuppressionSet",
    "priority_score",
    "rank_records",
    "record_id_for",
    "render_ranking",
    "report_records",
]

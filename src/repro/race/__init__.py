"""The paper's contribution: happens-before detection over sequencing
regions, replay-both-orders classification, aggregation, reporting,
benign-reason categorization, and baselines.  Triage persistence (the
race database and the benign marks) and the triage priority score are
the fleet store's, :mod:`repro.fleet`; the text report
(:mod:`repro.race.report`) renders the export document."""

from .aggregate import StaticRaceResult, aggregate_instances
from .classifier import ClassifierConfig, RaceClassifier
from .exporter import export_results, result_to_json, results_to_json
from .happens_before import HappensBeforeDetector, find_races
from .heuristics import BenignCategory, categorize, categorize_all
from .linearize import LinearEvent, linearize
from .lockset import LocksetDetector, LocksetWarning, LocationState, lockset_warnings
from .model import (
    RaceAccess,
    RaceInstance,
    StaticRaceKey,
    describe_static_race,
    static_race_key,
)
from .outcomes import Classification, ClassifiedInstance, InstanceOutcome
from .vector_clock import (
    VCRace,
    VectorClock,
    VectorClockDetector,
    vector_clock_races,
)

__all__ = [
    "StaticRaceResult",
    "aggregate_instances",
    "ClassifierConfig",
    "RaceClassifier",
    "export_results",
    "result_to_json",
    "results_to_json",
    "HappensBeforeDetector",
    "find_races",
    "BenignCategory",
    "categorize",
    "categorize_all",
    "LinearEvent",
    "linearize",
    "LocksetDetector",
    "LocksetWarning",
    "LocationState",
    "lockset_warnings",
    "RaceAccess",
    "RaceInstance",
    "StaticRaceKey",
    "describe_static_race",
    "static_race_key",
    "Classification",
    "ClassifiedInstance",
    "InstanceOutcome",
    "VCRace",
    "VectorClock",
    "VectorClockDetector",
    "vector_clock_races",
]

"""The report renders from per-race tallies of the detector's race groups.

An analysis built by the pipeline keeps its race groups, and
:func:`execution_report` tallies them without building an instance per
race.  Its bytes must equal the per-instance report: the expanded
``classified`` list through :func:`aggregate_instances` and
:func:`results_to_json`.  Covered here: the paper suite (redundant-write
races, races with replay-failure kinds) under the plain classifier and
the batching engine, and a race whose exemplars interleave across
addresses within one region pair, where walking the groups in address
order would pick the wrong scenarios.
"""

import pytest

from repro.analysis.batching import instance_batch_key
from repro.analysis.engine import ClassificationEngine, EngineConfig
from repro.analysis.pipeline import (
    analyze_execution,
    analyze_log,
    execution_report,
    render_report,
)
from repro.isa import assemble
from repro.race.aggregate import aggregate_instances
from repro.race.exporter import results_to_json
from repro.record import record_run
from repro.vm import RandomScheduler
from repro.workloads.suite import paper_suite

#: Both threads walk ``arr`` from its last word down to its first in one
#: region each: the region pair's groups are emitted in address order,
#: but its instances are ordered by step, highest address first.
INTERLEAVED = """
.data
arr: .space 4
.thread a b
    li r1, 4
l:
    subi r1, r1, 1
    li r4, arr
    add r4, r4, r1
    load r2, [r4]
    addi r2, r2, 1
    store r2, [r4]
    bnez r1, l
    halt
"""


def _per_instance_report(analysis) -> bytes:
    """The report of the expanded lists, one instance at a time."""
    return render_report(
        results_to_json(
            aggregate_instances(analysis.classified),
            analysis.program,
            log=analysis.log,
            batch_key_for=lambda entry: instance_batch_key(
                analysis.ordered, entry.instance
            ),
        )
    )


def _tallied_report(analysis) -> bytes:
    assert analysis.races is not None
    assert analysis.__dict__.get("_classified") is None
    return render_report(execution_report(analysis))


@pytest.fixture(scope="module")
def suite_reports():
    engine = ClassificationEngine(EngineConfig())
    reports = []
    for execution in paper_suite():
        for analysis in (analyze_execution(execution), engine.analyze_execution(execution)):
            reports.append((_tallied_report(analysis), _per_instance_report(analysis)))
    return reports


class TestSuite:
    def test_tallied_reports_equal_per_instance_reports(self, suite_reports):
        for tallied, per_instance in suite_reports:
            assert tallied == per_instance

    def test_suite_covers_redundant_writes_and_failure_kinds(self, suite_reports):
        rendered = b"".join(tallied for tallied, _ in suite_reports)
        assert b'"suggested_reason": "redundant-write"' in rendered
        assert b'"failure_kinds"' in rendered


class TestInterleavedExemplars:
    @pytest.fixture
    def analysis(self):
        program = assemble(INTERLEAVED, name="interleaved")
        _, log = record_run(
            program, scheduler=RandomScheduler(seed=3, switch_probability=0.3), seed=3
        )
        return analyze_log(log)

    def test_exemplars_follow_step_order_across_addresses(self, analysis):
        groups = analysis.races.groups
        assert len({(group.region_a, group.region_b) for group in groups}) == 1
        assert len(groups) == 4
        tallied = _tallied_report(analysis)
        assert tallied == _per_instance_report(analysis)
        # The store/store race's two scenarios come from the two highest
        # addresses, the groups emitted last.
        document = execution_report(analysis)
        (stores,) = [race for race in document["races"] if race["race"] == "a:6|a:6"]
        addresses = [scenario["access_a"].split("[")[1][:6] for scenario in stores["scenarios"]]
        assert addresses == ["0x1003", "0x1002"]

    def test_the_engine_tallies_the_same_report(self, analysis):
        engine = ClassificationEngine(EngineConfig())
        batched = engine.analyze_log(analysis.log)
        assert _tallied_report(batched) == _tallied_report(analysis)


def test_an_assigned_list_replaces_the_race_groups():
    """After ``classified`` is assigned, the report reads the list."""
    execution = paper_suite()[0]
    analysis = analyze_execution(execution)
    expected = _tallied_report(analysis)
    instances = analysis.instances
    analysis.classified = analysis.classified[:1]
    assert analysis.races is None
    assert analysis.instances is instances
    assert analysis.instance_count == len(instances) > 1
    assert render_report(execution_report(analysis)) == _per_instance_report(analysis)
    assert render_report(execution_report(analysis)) != expected

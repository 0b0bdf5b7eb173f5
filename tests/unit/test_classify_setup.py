"""Classify set-up is built once per region, region pair and racing side.

Operation counts and oracles for the per-analysis set-up the classifier
keeps: one thread spec per (thread, region, racing step), one region
content tuple per region, a cheap intern key that cannot drift from the
content digest, and region-boundary registers read from the thread
replay's forward pass instead of being re-executed.
"""

from collections import Counter

import pytest

from reference_interp import ReferenceThreadReplayer
from repro.analysis import analyze_suite, batching
from repro.analysis.batching import content_digest, region_content
from repro.analysis.engine import (
    BatchingClassifier,
    ClassificationEngine,
    EngineConfig,
    VerdictCache,
)
from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import execution_report
from repro.isa import assemble
from repro.race import classifier as classifier_module
from repro.race.happens_before import find_races
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.vm import RandomScheduler
from repro.workloads import paper_suite

from conftest import record_racy_loop


#: Two threads storing to ``x`` in a loop whose regions all record the
#: same content: the trip count lives in memory and every register is
#: re-normalized before each sequencer.
STABLE_LOOP = """
.data
x: .word 0
cnt_a: .word 9
cnt_b: .word 9
.thread a
ah:
    load r1, [cnt_a]
    subi r1, r1, 1
    store r1, [cnt_a]
    beqz r1, adone
    li r1, 0
    sys_rand r9, 1
    li r2, 5
    store r2, [x]
    li r2, 0
    sys_rand r9, 1
    jmp ah
adone:
    halt
.thread b
bh:
    load r1, [cnt_b]
    subi r1, r1, 1
    store r1, [cnt_b]
    beqz r1, bdone
    li r1, 0
    sys_rand r9, 1
    li r2, 7
    store r2, [x]
    li r2, 0
    sys_rand r9, 1
    jmp bh
bdone:
    halt
"""


#: Two threads storing to ``x``, with regions that differ in one part
#: of their content only.  After the first ``sys_rand`` a region's
#: live-in ``r7`` holds the remaining trip count and is cleared at once
#: (registers differ, nothing else does); after the second, a region
#: loads the trip count and drops it (access rows differ, nothing else
#: does).  A key that lost either part would merge such regions.
ONE_PART_LOOP = """
.data
x: .word 0
cnt_a: .word 7
cnt_b: .word 7
""" + "".join(
    """
.thread {t}
{t}h:
    load r1, [cnt_{t}]
    subi r1, r1, 1
    store r1, [cnt_{t}]
    beqz r1, {t}done
    li r1, 0
    load r7, [cnt_{t}]
    sys_rand r9, 1
    li r7, 0
    li r2, {value}
    store r2, [x]
    li r2, 0
    sys_rand r9, 1
    load r5, [cnt_{t}]
    li r5, 0
    li r2, {value}
    store r2, [x]
    li r2, 0
    sys_rand r9, 1
    jmp {t}h
{t}done:
    halt
""".format(t=t, value=value)
    for t, value in (("a", 5), ("b", 6))
)


def recorded(execution):
    """``(ordered replay, race instances)`` of one suite execution."""
    program = execution.workload.program()
    _, log = record_run(
        program,
        scheduler=RandomScheduler(
            seed=execution.seed, switch_probability=execution.switch_probability
        ),
        seed=execution.seed,
    )
    ordered = OrderedReplay(log, program)
    return ordered, find_races(ordered)


def sides_of(instance):
    return {
        (region.tid, region.index, access.thread_step)
        for access, region in (
            (instance.access_a, instance.region_a),
            (instance.access_b, instance.region_b),
        )
    }


def reference_region_content(ordered, thread_name, region):
    """The region-content tuple built eagerly from materialized accesses
    and static ids: an oracle independent of the column fast paths."""
    replay = ordered.thread_replays[thread_name]
    log = ordered.log
    start, end = region.start_step, region.end_step
    if region.end_kind == "thread_end":
        thread_end = log.threads[thread_name].end
        end_state = (
            "thread_end",
            None if thread_end is None else thread_end.reason,
            replay.final_registers,
            replay.final_pc,
        )
    else:
        end_state = (
            region.end_kind,
            replay.region_end_registers.get(end),
            replay.region_end_pcs.get(end),
        )
    return (
        thread_name,
        tuple(sorted(set(log.threads[thread_name].pc_footprint))),
        ordered.region_start_pc(region),
        ordered.live_in_registers(region),
        tuple(replay.static_ids[start:end]),
        tuple(
            (
                access.thread_step - start,
                access.address,
                access.value,
                access.is_write,
                access.is_sync,
            )
            for access in replay.accesses_in_steps(start, end)
        ),
        end_state,
    )


class TestOncePerSide:
    def test_suite_round0_builds_one_spec_per_side(self, monkeypatch):
        built = []
        real = classifier_module.VPThreadSpec

        def counting_spec(*args, **kwargs):
            built.append(kwargs["thread_name"])
            return real(*args, **kwargs)

        monkeypatch.setattr(classifier_module, "VPThreadSpec", counting_spec)
        # The plain classifier replays every instance, so every side of
        # every instance asks for its spec.
        suite = analyze_suite(paper_suite())
        sides = sum(
            len(set().union(*map(sides_of, analysis.instances)))
            for analysis in suite.executions
            if analysis.instances
        )
        assert sides > 0
        assert len(built) == sides


class TestOncePerRegion:
    def test_region_content_built_at_most_once_per_analysis(self, monkeypatch):
        builds = Counter()
        real = batching.region_content

        def counting_content(ordered, thread_name, region, footprint=None):
            builds[(id(ordered), region.tid, region.index)] += 1
            return real(ordered, thread_name, region, footprint)

        monkeypatch.setattr(batching, "region_content", counting_content)
        engine = ClassificationEngine(EngineConfig())
        analyses = []
        for execution in paper_suite()[:8]:
            analysis = engine.analyze_execution(execution)
            execution_report(analysis)
            analysis.verdict_index  # exports (digests) the cache
            analyses.append(analysis)  # keep ids unique
        # One recording analysed twice on one engine: the second time its
        # regions are interned already, so only the report builds content.
        _, _, log = record_racy_loop(6)
        for _ in range(2):
            analysis = engine.analyze_log(log)
            execution_report(analysis)
            analyses.append(analysis)
        assert builds
        assert max(builds.values()) == 1

    def test_content_is_built_only_when_an_id_is_minted(self, monkeypatch):
        builds = []
        real = batching.region_content

        def counting_content(ordered, thread_name, region, footprint=None):
            builds.append((region.tid, region.index))
            return real(ordered, thread_name, region, footprint)

        monkeypatch.setattr(batching, "region_content", counting_content)
        program = assemble(STABLE_LOOP, name="stable")
        _, log = record_run(
            program, scheduler=RandomScheduler(seed=7, switch_probability=0.5), seed=7
        )
        ordered = OrderedReplay(log, program)
        cache = VerdictCache()
        classifier = BatchingClassifier(ordered, cache=cache)
        classifier.classify_all(find_races(ordered))
        keyed = [
            facts for facts in classifier._regions.values()
            if facts.content_id is not None
        ]
        # Repeating loop regions share content: fewer builds than regions.
        assert len(builds) == len(cache._contents) < len(keyed)


class TestInternKeyOracle:
    @pytest.mark.parametrize("source", ["suite", "racy-loop", "one-part"])
    def test_interned_digest_equals_region_content_digest(self, source):
        if source == "suite":
            recordings = [recorded(execution) for execution in paper_suite()]
        elif source == "racy-loop":
            _, _, log = record_racy_loop(12)
            ordered = OrderedReplay(log)
            recordings = [(ordered, find_races(ordered))]
        else:
            program = assemble(ONE_PART_LOOP, name="one-part")
            recordings = []
            for seed in (3, 4, 5):
                _, log = record_run(
                    program,
                    scheduler=RandomScheduler(seed=seed, switch_probability=0.5),
                    seed=seed,
                )
                ordered = OrderedReplay(log, program)
                recordings.append((ordered, find_races(ordered)))
        # One cache across every recording, as an engine keeps it.
        cache = VerdictCache()
        checked = 0
        for ordered, instances in recordings:
            classifier = BatchingClassifier(ordered, cache=cache)
            classifier.classify_all(instances)
            for facts in classifier._regions.values():
                if facts.content_id is None:
                    continue
                region = facts.region
                name = region.thread_name
                expected = content_digest(
                    reference_region_content(ordered, name, region)
                )
                assert content_digest(region_content(ordered, name, region)) == expected
                assert cache._digest_of(facts.content_id) == expected
                checked += 1
        assert checked > 0


class TestBoundaryRegisters:
    @pytest.mark.parametrize("iters", [3, 150])
    def test_boundary_registers_need_no_reconstruction(self, iters):
        program, _, log = record_racy_loop(iters)
        perf = PerfStats()
        ordered = OrderedReplay(log, program, perf=perf)
        read = 0
        for name in log.threads:
            replay = ordered.thread_replays[name]
            oracle = ReferenceThreadReplayer(program, log, name).run()
            for region in ordered.regions[name]:
                if region.start_step in replay.region_start_registers:
                    assert (
                        replay.region_start_registers[region.start_step]
                        == oracle.region_start_registers[region.start_step]
                    )
                    read += 1
                if region.end_step in replay.region_end_registers:
                    assert (
                        replay.region_end_registers[region.end_step]
                        == oracle.region_end_registers[region.end_step]
                    )
                    read += 1
            assert set(replay.region_start_registers) == set(
                oracle.region_start_registers
            )
            assert set(replay.region_end_registers) == set(
                oracle.region_end_registers
            )
        assert read > 0
        assert perf.replay_snapshots_lazy == 0

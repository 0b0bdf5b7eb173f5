"""A stream analysis builds instance objects only for cache misses and readers.

The detector hands classify race groups, the batching classifier keys
them from their rows and keeps a verdict as a reference to its cache
template, and the report tallies the groups.  On a racy loop whose
regions repeat (thousands of instances, a few dozen structural keys),
the engine's stream analysis must therefore build no
:class:`RaceInstance` or :class:`ClassifiedInstance` beyond one per
cache miss; the report adds at most its exemplars; and reading
``.instances`` and ``.classified`` afterwards gives exactly the lists
of the per-instance oracle (``EngineConfig(memoize=False)``).
"""

from collections import Counter

import pytest

from repro.analysis.engine import ClassificationEngine, EngineConfig
from repro.analysis.perf import PerfStats
from repro.analysis.pipeline import execution_report
from repro.isa import assemble
from repro.race.model import RaceInstance
from repro.race.outcomes import ClassifiedInstance
from repro.record import record_run
from repro.record.binary_format import decode_log, encode_log_segmented
from repro.vm import RandomScheduler

#: One racy-loop thread: a trip count kept in memory, registers zeroed
#: before each sequencer call, so every racing region of a thread has
#: the same content, and three racing stores per region.
THREAD = """
.thread {t}
{t}h:
    load r1, [cnt_{t}]
    subi r1, r1, 1
    store r1, [cnt_{t}]
    beqz r1, {t}done
    li r1, 0
    sys_rand r9, 1
    li r2, {value}
    store r2, [x]
    store r2, [x]
    store r2, [x]
    li r4, 3
{t}k:
    addi r5, r5, 3
    subi r4, r4, 1
    bnez r4, {t}k
    li r2, 0
    li r4, 0
    li r5, 0
    sys_rand r9, 1
    jmp {t}h
{t}done:
    halt
"""

ITERATIONS = 48


def _racy_loop_container() -> bytes:
    source = (
        ".data\nx: .word 0\ncnt_a: .word {n}\ncnt_b: .word {n}\n".format(n=ITERATIONS + 1)
        + THREAD.format(t="a", value=5)
        + THREAD.format(t="b", value=7)
    )
    _, log = record_run(
        assemble(source, name="lazy_loop"),
        scheduler=RandomScheduler(seed=11, switch_probability=0.3),
        seed=11,
    )
    return encode_log_segmented(log, segment_bytes=1024)


@pytest.fixture
def built(monkeypatch):
    """Counts of the instance objects constructed while it is in use."""
    counts = Counter()
    for cls in (RaceInstance, ClassifiedInstance):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_stream_analysis_builds_instances_only_for_misses_and_readers(built):
    data = _racy_loop_container()
    perf = PerfStats()
    analysis = ClassificationEngine(EngineConfig()).analyze_log_stream(data, perf=perf)
    assert perf.stream_windows > 1
    assert perf.instances >= 5 * perf.cache_misses > 0
    assert built["RaceInstance"] <= perf.cache_misses
    assert built["ClassifiedInstance"] <= perf.cache_misses

    before = Counter(built)
    races = execution_report(analysis)["races"]
    exemplars = sum(len(race["scenarios"]) for race in races)
    assert built["RaceInstance"] - before["RaceInstance"] <= exemplars
    assert built["ClassifiedInstance"] - before["ClassifiedInstance"] <= exemplars

    oracle = ClassificationEngine(EngineConfig(memoize=False)).analyze_log(
        decode_log(data)
    )
    assert analysis.instance_count == len(oracle.instances) == perf.instances
    assert analysis.instances == oracle.instances
    assert analysis.classified == oracle.classified

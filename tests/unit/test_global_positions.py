"""``ReplayLog.global_positions``: one array of first positions per thread.

The index answers ``positions[tid][step]`` for every step a thread ran,
with :data:`~repro.record.log.NOT_IN_ORDER` for a step the order does
not hold.  Its answers must equal a plain dict built the way
``list.index`` reads the order (first occurrence wins), on the paper
suite's own recordings and on orders that repeat an entry or hold
entries no thread ran (``validate_log`` reports those; the index leaves
them out).
"""

import pytest

from repro.record import record_run
from repro.record.log import NOT_IN_ORDER
from repro.vm import RandomScheduler
from repro.workloads.suite import paper_suite


def _record(execution):
    _, log = record_run(
        execution.workload.program(),
        scheduler=RandomScheduler(
            seed=execution.seed, switch_probability=execution.switch_probability
        ),
        seed=execution.seed,
    )
    return log


def _first_positions(order):
    """The dict oracle: ``(tid, step) -> first index`` in ``order``."""
    oracle = {}
    for position, entry in enumerate(order):
        oracle.setdefault(tuple(entry), position)
    return oracle


def _assert_matches_oracle(log):
    oracle = _first_positions(log.global_order)
    positions = log.global_positions()
    assert set(positions) == {thread.tid for thread in log.threads.values()}
    for thread in log.threads.values():
        column = positions[thread.tid]
        assert len(column) == thread.steps
        for step in range(thread.steps):
            expected = oracle.get((thread.tid, step))
            assert log.global_position(thread.tid, step) == expected
            assert column[step] == (NOT_IN_ORDER if expected is None else expected)


@pytest.mark.parametrize(
    "execution", paper_suite(), ids=lambda execution: execution.execution_id
)
def test_suite_round_zero_matches_the_dict_oracle(execution):
    log = _record(execution)
    assert log.global_order
    _assert_matches_oracle(log)


class TestIrregularOrders:
    @staticmethod
    def _log():
        return _record(paper_suite()[0])

    def test_a_repeated_entry_keeps_its_first_position(self):
        log = self._log()
        order = list(log.global_order)
        repeated = order[3]
        order[-1] = repeated
        order.insert(1, order[5])
        log.global_order = order
        _assert_matches_oracle(log)
        assert log.global_position(*repeated) == 4

    def test_out_of_range_entries_are_left_out(self):
        log = self._log()
        thread = next(iter(log.threads.values()))
        order = list(log.global_order)
        dropped = order.pop()
        order += [(thread.tid, thread.steps), (thread.tid, -1), (999, 0)]
        log.global_order = order
        _assert_matches_oracle(log)
        assert log.global_position(*dropped) is None
        assert log.global_position(thread.tid, thread.steps) is None
        assert log.global_position(thread.tid, -1) is None
        assert log.global_position(999, 0) is None

    def test_no_order_no_index(self):
        log = self._log()
        log.global_order = None
        assert log.global_positions() is None
        assert log.global_position(0, 0) is None

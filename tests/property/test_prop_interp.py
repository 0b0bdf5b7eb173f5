"""Property-based tests: the predecoded loops against the generic oracle.

The machine and the thread replayer each run one loop over the
predecoded dispatch records; ``tests/reference_interp.py`` keeps the
generic string-dispatch interpreters they replaced.  Over random
recorded programs:

* **Record** — :func:`repro.record.record_run` and the oracle's record
  run produce the same :class:`~repro.record.log.ReplayLog` and the same
  :class:`~repro.vm.machine.MachineResult`.
* **Replay** — per thread, the production replay, materialized, equals
  the oracle's eager replay: pcs, static ids, accesses, heap events,
  every register snapshot, final state and output.
"""

from hypothesis import HealthCheck, given, settings

import reference_interp
from reference_interp import ReferenceThreadReplayer
from repro.isa import assemble
from repro.record import record_run
from repro.replay import ThreadReplayer
from repro.vm import RandomScheduler

from strategies import programs, seeds

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _record(run, program, seed):
    return run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.4),
        seed=seed,
    )


@given(source=programs(), seed=seeds)
@_SETTINGS
def test_record_run_matches_the_oracle(source, seed):
    program = assemble(source, name="prop_interp")
    result, log = _record(record_run, program, seed)
    oracle_result, oracle_log = _record(reference_interp.record_run, program, seed)
    assert log == oracle_log
    assert result == oracle_result


@given(source=programs(), seed=seeds)
@_SETTINGS
def test_thread_replay_matches_the_oracle(source, seed):
    program = assemble(source, name="prop_interp")
    _, log = _record(record_run, program, seed)
    for name in log.threads:
        replay = ThreadReplayer(program, log, name).run()
        oracle = ReferenceThreadReplayer(program, log, name).run()
        assert replay.materialized() == oracle, name

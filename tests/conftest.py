"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.isa import assemble
from repro.record import record_run
from repro.replay import OrderedReplay
from repro.vm import RandomScheduler, TraceObserver


RACY_STATS_SOURCE = """
.data
counter: .word 0
mutex:   .word 0
stats:   .word 0
.thread t1 t2
    li r1, 0
loop:
    lock [mutex]
    load r2, [counter]
    addi r2, r2, 1
    store r2, [counter]
    unlock [mutex]
    load r4, [stats]
    addi r4, r4, 1
    store r4, [stats]
    addi r1, r1, 1
    slti r3, r1, 4
    bnez r3, loop
    sys_print r1
    halt
"""

LOCKED_ONLY_SOURCE = """
.data
counter: .word 0
mutex:   .word 0
.thread a b
    li r1, 0
loop:
    lock [mutex]
    load r2, [counter]
    addi r2, r2, 1
    store r2, [counter]
    unlock [mutex]
    addi r1, r1, 1
    slti r3, r1, 3
    bnez r3, loop
    halt
"""


#: Four threads in two independent racy pairs, with straight-line ALU
#: work per iteration and a per-iteration syscall, so steps, sequencers
#: and regions all scale with ``iters``.  The record and replay
#: equivalence tests run it through the production loops and the oracle.
RACY_LOOP_TEMPLATE = """
.data
x: .word 0
y: .word 0
.thread a b
    li r1, {iters}
al:
    load r2, [x]
    addi r2, r2, 1
    muli r3, r2, 7
    xori r3, r3, 21
    andi r3, r3, 1023
    store r2, [x]
    sys_rand r4, 3
    subi r1, r1, 1
    bnez r1, al
    halt
.thread c d
    li r1, {iters}
cl:
    load r2, [y]
    addi r2, r2, 2
    muli r3, r2, 5
    ori r3, r3, 9
    shri r3, r3, 2
    store r2, [y]
    sys_rand r4, 3
    subi r1, r1, 1
    bnez r1, cl
    halt
"""


def record_racy_loop(iters, run=record_run, seed=15):
    """Record :data:`RACY_LOOP_TEMPLATE` at ``iters`` through ``run``
    (``record_run`` or the oracle's); returns ``(program, result, log)``."""
    program = assemble(RACY_LOOP_TEMPLATE.format(iters=iters), name="racyloop%d" % iters)
    result, log = run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=0.3),
        seed=seed,
        max_steps=2_000_000,
    )
    return program, result, log


@pytest.fixture
def racy_program():
    """A program with a locked counter and an unlocked stats counter."""
    return assemble(RACY_STATS_SOURCE, name="racy_stats")


@pytest.fixture
def locked_program():
    """A fully synchronized program (no races)."""
    return assemble(LOCKED_ONLY_SOURCE, name="locked_only")


def record_with_trace(program, seed=7, switch_probability=0.3, max_steps=200_000):
    """Run a program under recording plus full trace capture.

    Returns ``(machine_result, replay_log, trace)``.
    """
    trace = TraceObserver()
    result, log = record_run(
        program,
        scheduler=RandomScheduler(seed=seed, switch_probability=switch_probability),
        seed=seed,
        max_steps=max_steps,
        extra_observers=[trace],
    )
    return result, log, trace


@pytest.fixture
def racy_analysis(racy_program):
    """(result, log, trace, ordered) for the racy stats program."""
    result, log, trace = record_with_trace(racy_program, seed=7)
    ordered = OrderedReplay(log, racy_program)
    return result, log, trace, ordered

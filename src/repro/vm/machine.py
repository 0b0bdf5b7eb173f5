"""The multi-threaded machine: run loop, observer fan-out, sequencer clock.

This is the "native execution" of the paper: a deterministic function of
``(program, scheduler, seed)``.  All nondeterminism a real machine would
exhibit (preemption points, syscall results, allocator addresses) is
reproduced here under explicit control, which is what lets the test suite
validate the recorder and replayer against ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.program import Program, StaticInstructionId
from .errors import DeadlockError, MemoryFault, ScheduleError, StepLimitError
from .memory import Memory
from .observers import Observer
from .scheduler import RoundRobinScheduler, Scheduler
from .sync import LockTable
from .syscalls import Syscalls
from .thread import StepOutcome, ThreadState, ThreadStatus


@dataclass
class ThreadOutcome:
    """Final state of one thread after a run."""

    name: str
    tid: int
    status: str
    steps: int
    registers: Tuple[int, ...]
    fault: Optional[str] = None
    fault_kind: Optional[str] = None


@dataclass
class MachineResult:
    """Everything observable about one complete execution."""

    program_name: str
    output: List[Tuple[str, int]]
    global_steps: int
    threads: Dict[str, ThreadOutcome]
    memory: Dict[int, int]
    sequencer_count: int
    seed: int

    @property
    def faulted_threads(self) -> List[str]:
        return [name for name, outcome in self.threads.items() if outcome.fault]

    def summary(self) -> str:
        lines = [
            "program %s: %d steps, %d sequencers, output=%r"
            % (self.program_name, self.global_steps, self.sequencer_count, self.output)
        ]
        for outcome in self.threads.values():
            line = "  thread %s: %s after %d steps" % (
                outcome.name,
                outcome.status,
                outcome.steps,
            )
            if outcome.fault:
                line += " [FAULT: %s]" % outcome.fault
            lines.append(line)
        return "\n".join(lines)


class Machine:
    """Executes a :class:`Program` under a :class:`Scheduler`."""

    def __init__(
        self,
        program: Program,
        scheduler: Optional[Scheduler] = None,
        seed: int = 0,
        max_steps: int = 200_000,
        observers: Sequence[Observer] = (),
    ):
        self.program = program
        self.scheduler = scheduler or RoundRobinScheduler()
        self.seed = seed
        self.max_steps = max_steps
        self.observers: List[Observer] = list(observers)

        self.memory = Memory(program.initial_memory())
        self.locks = LockTable()
        self.syscalls = Syscalls(self.memory, random.Random(seed))
        self.threads: List[ThreadState] = [
            ThreadState(tid, name, program.block_for_thread(name))
            for tid, name in enumerate(program.threads)
        ]
        self.global_step = 0
        self._sequencer_clock = 0
        self._last_tid: Optional[int] = None
        self._yielded_tid: Optional[int] = None
        self._current_tid: Optional[int] = None
        self._runnable_dirty = False
        self._ran = False

    # ------------------------------------------------------------------
    # Observer fan-out (called by threads mid-instruction).
    # ------------------------------------------------------------------

    def emit_sequencer(
        self,
        thread: ThreadState,
        kind: str,
        static_id: Optional[StaticInstructionId],
        thread_step: Optional[int] = None,
    ) -> int:
        self._sequencer_clock += 1
        step = thread.steps if thread_step is None else thread_step
        for observer in self.observers:
            observer.on_sequencer(thread.tid, step, self._sequencer_clock, kind, static_id)
        return self._sequencer_clock

    def notify_load(
        self,
        thread: ThreadState,
        static_id: StaticInstructionId,
        address: int,
        value: int,
        is_sync: bool,
    ) -> None:
        for observer in self.observers:
            observer.on_load(thread.tid, thread.steps, static_id, address, value, is_sync)

    def notify_store(
        self,
        thread: ThreadState,
        static_id: StaticInstructionId,
        address: int,
        old_value: int,
        new_value: int,
        is_sync: bool,
    ) -> None:
        for observer in self.observers:
            observer.on_store(
                thread.tid, thread.steps, static_id, address, old_value, new_value, is_sync
            )

    def notify_syscall(
        self,
        thread: ThreadState,
        static_id: StaticInstructionId,
        name: str,
        result: int,
        arg: Optional[int] = None,
    ) -> None:
        for observer in self.observers:
            observer.on_syscall(
                thread.tid, thread.steps, static_id, name, result, arg
            )

    def retire(self, thread: ThreadState, static_id: StaticInstructionId) -> None:
        for observer in self.observers:
            observer.on_step(self.global_step, thread.tid, thread.steps, static_id)
        self.global_step += 1

    # ------------------------------------------------------------------
    # Thread lifecycle (called by threads and the run loop).
    # ------------------------------------------------------------------

    def block_thread(self, thread: ThreadState, lock_address: int) -> None:
        thread.status = ThreadStatus.BLOCKED
        thread.blocked_on = lock_address
        self._runnable_dirty = True
        self.locks.add_waiter(thread.tid, lock_address)

    def wake_thread(self, tid: int) -> None:
        thread = self.threads[tid]
        if thread.status is ThreadStatus.BLOCKED:
            thread.status = ThreadStatus.RUNNABLE
            thread.blocked_on = None
            self._runnable_dirty = True

    def end_thread(self, thread: ThreadState, reason: str) -> None:
        thread.status = ThreadStatus.HALTED
        self._runnable_dirty = True
        self.emit_sequencer(thread, kind="thread_end", static_id=None)
        for observer in self.observers:
            observer.on_thread_end(thread.tid, thread.steps, reason, None)

    def fault_thread(self, thread: ThreadState, fault: MemoryFault) -> None:
        thread.status = ThreadStatus.FAULTED
        thread.fault = fault
        self._runnable_dirty = True
        self.emit_sequencer(thread, kind="thread_end", static_id=None)
        for observer in self.observers:
            observer.on_thread_end(thread.tid, thread.steps, "fault", fault.kind)

    def note_yield(self) -> None:
        """A thread yielded: another runnable thread (if any) goes next."""
        self._last_tid = None
        self._yielded_tid = (
            self._current_tid if self._current_tid is not None else None
        )

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------

    def run(self) -> MachineResult:
        """Execute to completion and return the :class:`MachineResult`.

        A machine instance is single-use: rerunning would need fresh memory
        and thread state, so construct a new machine per execution.
        """
        if self._ran:
            raise ScheduleError("Machine instances are single-use; construct a new one")
        self._ran = True

        for thread in self.threads:
            for observer in self.observers:
                observer.on_thread_start(thread.tid, thread.name, thread.block.name)
            self.emit_sequencer(thread, kind="thread_start", static_id=None, thread_step=-1)

        self._loop()
        return self._result()

    def _loop(self) -> None:
        """Schedule and step threads until every one has ended.

        Runnable threads are offered to the scheduler in tid-ascending
        order, minus a thread that just yielded.  The runnable list is
        maintained incrementally (rebuilt only when a lifecycle hook flips
        a thread's status) and dispatch goes through
        :meth:`ThreadState.step`."""
        threads = self.threads
        scheduler_pick = self.scheduler.pick
        max_steps = self.max_steps
        iterations = 0
        iteration_limit = max_steps * 2
        runnable = [
            thread.tid for thread in threads if thread.status is ThreadStatus.RUNNABLE
        ]
        self._runnable_dirty = False
        while True:
            if self._runnable_dirty:
                runnable = [
                    thread.tid
                    for thread in threads
                    if thread.status is ThreadStatus.RUNNABLE
                ]
                self._runnable_dirty = False
            if not runnable:
                if any(thread.status is ThreadStatus.BLOCKED for thread in threads):
                    raise DeadlockError(
                        "all live threads are blocked: %s"
                        % {
                            thread.name: thread.blocked_on
                            for thread in threads
                            if thread.status is ThreadStatus.BLOCKED
                        }
                    )
                break
            candidates = runnable
            if self._yielded_tid is not None:
                others = [tid for tid in runnable if tid != self._yielded_tid]
                if others:
                    candidates = others
                self._yielded_tid = None
            tid = scheduler_pick(candidates, self._last_tid, self.global_step)
            if tid not in candidates:
                raise ScheduleError("scheduler picked non-runnable thread %d" % tid)
            thread = threads[tid]
            self._current_tid = tid
            outcome = thread.step(self)
            self._current_tid = None
            if outcome is StepOutcome.RETIRED:
                self._last_tid = tid
            elif outcome is StepOutcome.BLOCKED:
                self._last_tid = None
            if self.global_step > max_steps:
                raise StepLimitError(
                    "exceeded max_steps=%d (runaway schedule?)" % max_steps
                )
            iterations += 1
            if iterations > iteration_limit:
                raise StepLimitError("exceeded iteration limit (livelock?)")

    def _result(self) -> MachineResult:
        return MachineResult(
            program_name=self.program.name,
            output=list(self.syscalls.output),
            global_steps=self.global_step,
            threads={
                thread.name: ThreadOutcome(
                    name=thread.name,
                    tid=thread.tid,
                    status=thread.status.value,
                    steps=thread.steps,
                    registers=thread.registers.snapshot(),
                    fault=str(thread.fault) if thread.fault else None,
                    fault_kind=str(thread.fault.kind) if thread.fault else None,
                )
                for thread in self.threads
            },
            memory=self.memory.snapshot(),
            sequencer_count=self._sequencer_clock,
            seed=self.seed,
        )


def run_program(
    program: Program,
    scheduler: Optional[Scheduler] = None,
    seed: int = 0,
    max_steps: int = 200_000,
    observers: Sequence[Observer] = (),
) -> MachineResult:
    """Convenience: construct a machine and run it to completion."""
    machine = Machine(
        program,
        scheduler=scheduler,
        seed=seed,
        max_steps=max_steps,
        observers=observers,
    )
    return machine.run()

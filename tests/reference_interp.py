"""The generic string-dispatch interpreters: the record and replay oracle.

The machine (:class:`repro.vm.machine.Machine`) and the thread replayer
(:class:`repro.replay.thread_replayer.ThreadReplayer`) each run one loop
over the predecoded dispatch records (:mod:`repro.isa.predecode`).  This
module keeps the interpreters those loops replaced: every step re-derives
its instruction from the block (``instruction_at``, ``static_id``) and
dispatches on the mnemonic through :mod:`repro.vm.alu`.  It shares no
dispatch code with the production loops, so the equivalence tests compare
two implementations of one semantics:

* **record** — :func:`record_run` records through
  :class:`ReferenceMachine`; the :class:`~repro.record.log.ReplayLog` and
  the :class:`~repro.vm.machine.MachineResult` must equal
  :func:`repro.record.record_run`'s.
* **replay** — :class:`ReferenceThreadReplayer` replays one thread
  eagerly (one :class:`ReplayedAccess` per access, every register
  snapshot taken); :class:`ReferenceOrderedReplay` runs the ordered walk
  off those eager replays.  Feed it a log with ``captured=None``
  (:func:`stripped`), so neither the walk nor the access index takes the
  recorder's columns.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Set

from repro.isa.instructions import Instruction
from repro.isa.operands import Imm, Mem, Reg
from repro.isa.program import StaticInstructionId
from repro.record import Recorder
from repro.replay.errors import ReplayDivergence
from repro.replay.events import HeapEvent, ReplayedAccess, ThreadReplay
from repro.replay.ordered_replay import OrderedReplay
from repro.replay.thread_replayer import ThreadReplayer
from repro.vm import alu
from repro.vm.errors import (
    DeadlockError,
    MemoryFault,
    ScheduleError,
    StepLimitError,
)
from repro.vm.machine import Machine
from repro.vm.registers import RegisterFile
from repro.vm.thread import StepOutcome, ThreadState, ThreadStatus


def stripped(log):
    """The same log without its captured columns (the deserialized-JSON /
    suite-cache shape) — the only shape the replay oracle accepts."""
    clone = dataclasses.replace(log)
    clone.captured = None
    return clone


# ----------------------------------------------------------------------
# Record: one instruction of one thread, dispatched on the mnemonic.
# ----------------------------------------------------------------------


def current_static_id(thread: ThreadState) -> StaticInstructionId:
    return thread.block.static_id(thread.pc)


def _mem_address(thread: ThreadState, operand: Mem) -> int:
    base = thread.registers.read(operand.base) if operand.base is not None else 0
    return base + operand.offset


def _reg(thread: ThreadState, operand: Reg) -> int:
    return thread.registers.read(operand.index)


def step(thread: ThreadState, machine: Machine) -> StepOutcome:
    """Execute one instruction against ``machine``'s shared state."""
    if thread.pc >= len(thread.block):
        machine.end_thread(thread, reason="fell-off-end")
        return StepOutcome.ENDED
    instruction = thread.block.instruction_at(thread.pc)
    try:
        return _dispatch(thread, machine, instruction)
    except MemoryFault as fault:
        machine.fault_thread(thread, fault)
        return StepOutcome.ENDED


def _dispatch(
    thread: ThreadState, machine: Machine, instruction: Instruction
) -> StepOutcome:
    opcode = instruction.opcode
    operands = instruction.operands
    static_id = current_static_id(thread)

    if opcode == "li":
        thread.registers.write(operands[0].index, operands[1].value)
    elif opcode == "mov":
        thread.registers.write(operands[0].index, _reg(thread, operands[1]))
    elif alu.is_binary_op(opcode):
        rhs = (
            operands[2].value
            if isinstance(operands[2], Imm)
            else _reg(thread, operands[2])
        )
        result = alu.binary_op(opcode, _reg(thread, operands[1]), rhs)
        thread.registers.write(operands[0].index, result)
    elif opcode == "load":
        address = _mem_address(thread, operands[1])
        value = machine.memory.read(address)
        machine.notify_load(thread, static_id, address, value, is_sync=False)
        thread.registers.write(operands[0].index, value)
    elif opcode == "store":
        address = _mem_address(thread, operands[1])
        value = _reg(thread, operands[0])
        old = machine.memory.write(address, value)
        machine.notify_store(thread, static_id, address, old, value, is_sync=False)
    elif opcode == "jmp":
        return _retire_branch(thread, machine, static_id, operands[0].value)
    elif opcode in ("beq", "bne", "blt", "bge"):
        taken = alu.branch_taken(
            opcode, _reg(thread, operands[0]), _reg(thread, operands[1])
        )
        target = operands[2].value if taken else thread.pc + 1
        return _retire_branch(thread, machine, static_id, target)
    elif opcode in ("beqz", "bnez"):
        taken = alu.branch_taken(opcode, _reg(thread, operands[0]))
        target = operands[1].value if taken else thread.pc + 1
        return _retire_branch(thread, machine, static_id, target)
    elif opcode == "lock":
        return _do_lock(thread, machine, static_id, operands[0])
    elif opcode == "unlock":
        _do_unlock(thread, machine, static_id, operands[0])
    elif opcode in ("atom_add", "atom_xchg"):
        _do_atomic_rmw(thread, machine, static_id, opcode, operands)
    elif opcode == "cas":
        _do_cas(thread, machine, static_id, operands)
    elif opcode == "fence":
        machine.emit_sequencer(thread, kind="fence", static_id=static_id)
    elif instruction.spec.is_syscall:
        _do_syscall(thread, machine, static_id, opcode, operands)
    elif opcode == "nop":
        pass
    elif opcode == "halt":
        machine.retire(thread, static_id)
        thread.pc += 1
        thread.steps += 1
        machine.end_thread(thread, reason="halt")
        return StepOutcome.ENDED
    else:  # pragma: no cover - opcode table and dispatch kept in sync
        raise NotImplementedError("unhandled opcode %r" % opcode)

    return _retire_branch(thread, machine, static_id, thread.pc + 1)


def _retire_branch(
    thread: ThreadState,
    machine: Machine,
    static_id: StaticInstructionId,
    next_pc: int,
) -> StepOutcome:
    machine.retire(thread, static_id)
    thread.pc = next_pc
    thread.steps += 1
    return StepOutcome.RETIRED


def _do_lock(
    thread: ThreadState, machine: Machine, static_id: StaticInstructionId, operand: Mem
) -> StepOutcome:
    address = _mem_address(thread, operand)
    machine.memory.read(address)  # fault check (e.g. lock in freed memory)
    if not machine.locks.try_acquire(thread.tid, address):
        machine.block_thread(thread, address)
        return StepOutcome.BLOCKED
    machine.emit_sequencer(thread, kind="lock", static_id=static_id)
    machine.notify_load(thread, static_id, address, 0, is_sync=True)
    old = machine.memory.write(address, 1)
    machine.notify_store(thread, static_id, address, old, 1, is_sync=True)
    return _retire_branch(thread, machine, static_id, thread.pc + 1)


def _do_unlock(
    thread: ThreadState, machine: Machine, static_id: StaticInstructionId, operand: Mem
) -> None:
    address = _mem_address(thread, operand)
    machine.emit_sequencer(thread, kind="unlock", static_id=static_id)
    to_wake = machine.locks.release(thread.tid, address)
    machine.notify_load(thread, static_id, address, 1, is_sync=True)
    old = machine.memory.write(address, 0)
    machine.notify_store(thread, static_id, address, old, 0, is_sync=True)
    if to_wake is not None:
        machine.wake_thread(to_wake)


def _do_atomic_rmw(
    thread: ThreadState,
    machine: Machine,
    static_id: StaticInstructionId,
    opcode: str,
    operands,
) -> None:
    address = _mem_address(thread, operands[1])
    machine.emit_sequencer(thread, kind=opcode, static_id=static_id)
    old = machine.memory.read(address)
    machine.notify_load(thread, static_id, address, old, is_sync=True)
    operand_value = _reg(thread, operands[2])
    new = (
        alu.binary_op("add", old, operand_value)
        if opcode == "atom_add"
        else operand_value
    )
    machine.memory.write(address, new)
    machine.notify_store(thread, static_id, address, old, new, is_sync=True)
    thread.registers.write(operands[0].index, old)


def _do_cas(
    thread: ThreadState, machine: Machine, static_id: StaticInstructionId, operands
) -> None:
    address = _mem_address(thread, operands[1])
    machine.emit_sequencer(thread, kind="cas", static_id=static_id)
    old = machine.memory.read(address)
    machine.notify_load(thread, static_id, address, old, is_sync=True)
    expected = _reg(thread, operands[2])
    if old == expected:
        new = _reg(thread, operands[3])
        machine.memory.write(address, new)
        machine.notify_store(thread, static_id, address, old, new, is_sync=True)
    thread.registers.write(operands[0].index, old)


def _do_syscall(
    thread: ThreadState,
    machine: Machine,
    static_id: StaticInstructionId,
    opcode: str,
    operands,
) -> None:
    machine.emit_sequencer(thread, kind=opcode, static_id=static_id)
    arg: Optional[int] = None
    dest: Optional[int] = None
    if opcode in ("sys_getpid", "sys_time"):
        dest = operands[0].index
    elif opcode == "sys_rand":
        dest = operands[0].index
        arg = operands[1].value
    elif opcode == "sys_alloc":
        dest = operands[0].index
        arg = _reg(thread, operands[1])
    elif opcode in ("sys_free", "sys_print"):
        arg = _reg(thread, operands[0])
    result = machine.syscalls.execute(
        opcode, thread.tid, thread.name, machine.global_step, arg
    )
    machine.notify_syscall(thread, static_id, opcode, result, arg)
    if dest is not None:
        thread.registers.write(dest, result)
    if opcode == "sys_yield":
        machine.note_yield()


class ReferenceMachine(Machine):
    """:class:`Machine` with the seed run loop: the runnable list is
    rebuilt every iteration and each step goes through :func:`step`."""

    def _loop(self) -> None:
        iterations = 0
        iteration_limit = self.max_steps * 2
        while True:
            runnable = [
                thread.tid
                for thread in self.threads
                if thread.status is ThreadStatus.RUNNABLE
            ]
            if not runnable:
                if any(
                    thread.status is ThreadStatus.BLOCKED for thread in self.threads
                ):
                    raise DeadlockError(
                        "all live threads are blocked: %s"
                        % {
                            thread.name: thread.blocked_on
                            for thread in self.threads
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
            tid = self.scheduler.pick(candidates, self._last_tid, self.global_step)
            if tid not in candidates:
                raise ScheduleError("scheduler picked non-runnable thread %d" % tid)
            thread = self.threads[tid]
            self._current_tid = tid
            outcome = step(thread, self)
            self._current_tid = None
            if outcome is StepOutcome.RETIRED:
                self._last_tid = tid
            elif outcome is StepOutcome.BLOCKED:
                self._last_tid = None
            if self.global_step > self.max_steps:
                raise StepLimitError(
                    "exceeded max_steps=%d (runaway schedule?)" % self.max_steps
                )
            iterations += 1
            if iterations > iteration_limit:
                raise StepLimitError("exceeded iteration limit (livelock?)")


def record_run(
    program,
    scheduler=None,
    seed: int = 0,
    max_steps: int = 200_000,
    capture_global_order: bool = True,
):
    """:func:`repro.record.record_run` through :class:`ReferenceMachine`;
    returns ``(MachineResult, ReplayLog)``."""
    recorder = Recorder(
        program,
        seed=seed,
        scheduler=type(scheduler).__name__ if scheduler else "RoundRobinScheduler",
        capture_global_order=capture_global_order,
    )
    machine = ReferenceMachine(
        program,
        scheduler=scheduler,
        seed=seed,
        max_steps=max_steps,
        observers=[recorder],
    )
    result = machine.run()
    return result, recorder.finish()


# ----------------------------------------------------------------------
# Replay: one thread, eagerly, dispatched on the mnemonic.
# ----------------------------------------------------------------------


class ReferenceThreadReplayer(ThreadReplayer):
    """:class:`ThreadReplayer` with the seed replay loop: every access
    becomes a :class:`ReplayedAccess` and every register snapshot is
    taken as it passes."""

    def run(self, perf=None) -> ThreadReplay:
        """Replay every recorded step; returns the full :class:`ThreadReplay`."""
        thread_log = self.thread_log
        registers = RegisterFile(thread_log.initial_registers)
        local_view: Dict[int, int] = {}
        replay = ThreadReplay(
            name=self.thread_name, tid=thread_log.tid, steps=thread_log.steps
        )
        snapshot_steps: Set[int] = {
            sequencer.thread_step + 1 for sequencer in thread_log.sequencers
        }
        boundary_steps: Set[int] = {
            sequencer.thread_step
            for sequencer in thread_log.sequencers
            if sequencer.thread_step >= 0
        }
        pc = 0
        for step in range(thread_log.steps):
            if step in snapshot_steps:
                replay.region_start_registers[step] = registers.snapshot()
                replay.region_start_pcs[step] = pc
            if step in boundary_steps:
                # Live-out of the region this boundary closes: the state
                # just before the sequencer-point instruction executes.
                replay.region_end_registers[step] = registers.snapshot()
                replay.region_end_pcs[step] = pc
            if pc >= len(self.block):
                raise ReplayDivergence(
                    "thread %r ran past the end of block %r at step %d"
                    % (self.thread_name, self.block.name, step)
                )
            instruction = self.block.instruction_at(pc)
            replay.pcs.append(pc)
            replay.static_ids.append(self.block.static_id(pc))
            if instruction.spec.touches_memory:
                replay.registers_at_step[step] = registers.snapshot()
            pc = self._execute(instruction, pc, step, registers, local_view, replay)
        replay.final_registers = registers.snapshot()
        replay.final_pc = pc
        if thread_log.steps in boundary_steps:
            # Thread-end sequencers sit one past the last retired step.
            replay.region_end_registers[thread_log.steps] = registers.snapshot()
            replay.region_end_pcs[thread_log.steps] = pc
        return replay

    def _mem_address(self, operand: Mem, registers: RegisterFile) -> int:
        base = registers.read(operand.base) if operand.base is not None else 0
        return base + operand.offset

    def _execute(
        self,
        instruction: Instruction,
        pc: int,
        step: int,
        registers: RegisterFile,
        local_view: Dict[int, int],
        replay: ThreadReplay,
    ) -> int:
        opcode = instruction.opcode
        operands = instruction.operands
        static_id = self.block.static_id(pc)

        def reg(operand) -> int:
            return registers.read(operand.index)

        def note_access(address: int, value: int, is_write: bool, is_sync: bool) -> None:
            replay.accesses.append(
                ReplayedAccess(
                    thread_step=step,
                    static_id=static_id,
                    address=address,
                    value=value,
                    is_write=is_write,
                    is_sync=is_sync,
                )
            )

        if opcode == "li":
            registers.write(operands[0].index, operands[1].value)
        elif opcode == "mov":
            registers.write(operands[0].index, reg(operands[1]))
        elif alu.is_binary_op(opcode):
            rhs = (
                operands[2].value
                if isinstance(operands[2], Imm)
                else reg(operands[2])
            )
            registers.write(
                operands[0].index, alu.binary_op(opcode, reg(operands[1]), rhs)
            )
        elif opcode == "load":
            address = self._mem_address(operands[1], registers)
            value = self._replay_load(step, address, local_view, sync=False)
            note_access(address, value, is_write=False, is_sync=False)
            registers.write(operands[0].index, value)
        elif opcode == "store":
            address = self._mem_address(operands[1], registers)
            value = reg(operands[0])
            local_view[address] = value
            note_access(address, value, is_write=True, is_sync=False)
        elif opcode == "jmp":
            return operands[0].value
        elif opcode in ("beq", "bne", "blt", "bge"):
            if alu.branch_taken(opcode, reg(operands[0]), reg(operands[1])):
                return operands[2].value
        elif opcode in ("beqz", "bnez"):
            if alu.branch_taken(opcode, reg(operands[0])):
                return operands[1].value
        elif opcode == "lock":
            address = self._mem_address(operands[0], registers)
            value = self._replay_load(step, address, local_view, sync=True)
            note_access(address, value, is_write=False, is_sync=True)
            local_view[address] = 1
            note_access(address, 1, is_write=True, is_sync=True)
        elif opcode == "unlock":
            address = self._mem_address(operands[0], registers)
            value = self._replay_load(step, address, local_view, sync=True)
            note_access(address, value, is_write=False, is_sync=True)
            local_view[address] = 0
            note_access(address, 0, is_write=True, is_sync=True)
        elif opcode in ("atom_add", "atom_xchg"):
            address = self._mem_address(operands[1], registers)
            old = self._replay_load(step, address, local_view, sync=True)
            note_access(address, old, is_write=False, is_sync=True)
            operand_value = reg(operands[2])
            new = (
                alu.binary_op("add", old, operand_value)
                if opcode == "atom_add"
                else operand_value
            )
            local_view[address] = new
            note_access(address, new, is_write=True, is_sync=True)
            registers.write(operands[0].index, old)
        elif opcode == "cas":
            address = self._mem_address(operands[1], registers)
            old = self._replay_load(step, address, local_view, sync=True)
            note_access(address, old, is_write=False, is_sync=True)
            if old == reg(operands[2]):
                new = reg(operands[3])
                local_view[address] = new
                note_access(address, new, is_write=True, is_sync=True)
            registers.write(operands[0].index, old)
        elif instruction.spec.is_syscall:
            self._replay_syscall(opcode, operands, step, registers, replay)
        elif opcode in ("nop", "fence", "halt"):
            pass
        else:  # pragma: no cover - dispatch kept in sync with the opcode table
            raise NotImplementedError("unhandled opcode %r" % opcode)
        return pc + 1

    def _replay_syscall(
        self, opcode: str, operands, step: int, registers: RegisterFile, replay
    ) -> None:
        record = self.thread_log.syscall_at(step)
        if record is None or record.name != opcode:
            raise ReplayDivergence(
                "thread %r step %d: expected logged syscall %r, log has %r"
                % (self.thread_name, step, opcode, record and record.name)
            )
        result = record.result
        if opcode in ("sys_getpid", "sys_time", "sys_rand"):
            registers.write(operands[0].index, result)
        elif opcode == "sys_alloc":
            size = registers.read(operands[1].index)
            replay.heap_events.append(
                HeapEvent(thread_step=step, kind="alloc", base=result, size=size)
            )
            registers.write(operands[0].index, result)
        elif opcode == "sys_free":
            base = registers.read(operands[0].index)
            replay.heap_events.append(
                HeapEvent(thread_step=step, kind="free", base=base, size=0)
            )
        elif opcode == "sys_print":
            replay.output.append((self.thread_name, result))
        elif opcode == "sys_yield":
            pass
        else:  # pragma: no cover
            raise NotImplementedError("unhandled syscall %r" % opcode)


class _ReplayWalkSource:
    """Feeds the ordered walk from an eager thread replay's objects."""

    def __init__(self, replay: ThreadReplay):
        self._replay = replay
        self._writes: Dict[int, list] = {}
        for access in replay.accesses:
            if access.is_write:
                self._writes.setdefault(access.thread_step, []).append(
                    (access.address, access.value)
                )
        self._heap: Dict[int, list] = {}
        for event in replay.heap_events:
            self._heap.setdefault(event.thread_step, []).append(
                (event.kind, event.base, event.size)
            )

    def writes_in_steps(self, start_step: int, end_step: int):
        return [
            (access.address, access.value)
            for access in self._replay.accesses_in_steps(start_step, end_step)
            if access.is_write
        ]

    def writes_at(self, step: int):
        return self._writes.get(step, [])

    def heap_events_at(self, step: int):
        return self._heap.get(step, [])


class ReferenceOrderedReplay(OrderedReplay):
    """:class:`OrderedReplay` over :class:`ReferenceThreadReplayer`'s eager
    replays, walked from their access objects.  Takes a log with
    ``captured=None`` (see :func:`stripped`)."""

    def _replay_thread(self, name: str) -> ThreadReplay:
        return ReferenceThreadReplayer(self.program, self.log, name).run()

    def _walk_source(self, name: str):
        assert self.log.captured is None, "the replay oracle takes stripped logs"
        return _ReplayWalkSource(self.thread_replays[name]), False

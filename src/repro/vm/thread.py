"""Per-thread state and single-instruction execution.

A thread owns its registers, program counter, and retired-step counter; all
memory, lock, and syscall effects go through the owning machine so that the
machine can emit the observer events the recorder depends on.

The retired-step counter (``steps``) is the *thread step* used throughout
the logs: the first retired instruction of a thread is thread step 0.  An
instruction that blocks on a contended lock does not retire — it retries
with the same thread step once woken, so the recorded sequencer lands on
the step at which the lock was actually *granted* (acquisition order is the
sequencer order, as in iDNA).
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Optional

from ..isa.operands import WORD_MASK
from ..isa.predecode import (
    K_ALU_RI,
    K_ALU_RR,
    K_ATOM_ADD,
    K_ATOM_XCHG,
    K_BRANCH1,
    K_BRANCH2,
    K_CAS,
    K_FENCE,
    K_HALT,
    K_JMP,
    K_LI,
    K_LOAD,
    K_LOCK,
    K_MOV,
    K_NOP,
    K_STORE,
    K_SYSCALL,
    K_UNLOCK,
)
from ..isa.program import CodeBlock, StaticInstructionId
from .errors import MemoryFault
from .registers import RegisterFile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .machine import Machine


class ThreadStatus(Enum):
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    HALTED = "halted"
    FAULTED = "faulted"


class StepOutcome(Enum):
    RETIRED = "retired"
    BLOCKED = "blocked"
    ENDED = "ended"


class ThreadState:
    """One simulated thread of execution."""

    def __init__(self, tid: int, name: str, block: CodeBlock):
        self.tid = tid
        self.name = name
        self.block = block
        self.pc = 0
        self.registers = RegisterFile()
        self.steps = 0
        self.status = ThreadStatus.RUNNABLE
        self.blocked_on: Optional[int] = None
        self.fault: Optional[MemoryFault] = None
        #: Predecoded dispatch records of the block (cached on the block).
        self._records: list = block.decoded()
        #: Direct alias of the register value list (identity is stable —
        #: RegisterFile mutates in place), so the dispatch skips two
        #: attribute hops per step.
        self._regs: list = self.registers._values

    # ------------------------------------------------------------------
    # Execution.  ``tests/reference_interp.py`` keeps a string-dispatch
    # oracle of this loop; the record-equivalence tests assert both yield
    # identical logs.
    # ------------------------------------------------------------------

    def step(self, machine: "Machine") -> StepOutcome:
        """Execute one instruction via the predecoded dispatch records.

        Dispatch is inlined here (not delegated to a helper) so the hot
        loop pays exactly one Python call per retired step.
        """
        pc = self.pc
        records = self._records
        if pc >= len(records):
            machine.end_thread(self, reason="fell-off-end")
            return StepOutcome.ENDED
        record = records[pc]
        kind = record[0]
        static_id = record[1]
        regs = self._regs
        next_pc = pc + 1

        try:
            if kind == K_ALU_RI:
                regs[record[3]] = record[2](regs[record[4]], record[5]) & WORD_MASK
            elif kind == K_LOAD:
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                value = machine.memory.read(address)
                for observer in machine.observers:
                    observer.on_load(
                        self.tid, self.steps, static_id, address, value, False
                    )
                regs[record[2]] = value
            elif kind == K_BRANCH1:
                if record[2](regs[record[3]]):
                    next_pc = record[4]
            elif kind == K_STORE:
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                value = regs[record[2]]
                old = machine.memory.write(address, value)
                for observer in machine.observers:
                    observer.on_store(
                        self.tid, self.steps, static_id, address, old, value, False
                    )
            elif kind == K_ALU_RR:
                regs[record[3]] = (
                    record[2](regs[record[4]], regs[record[5]]) & WORD_MASK
                )
            elif kind == K_LI:
                regs[record[2]] = record[3]
            elif kind == K_BRANCH2:
                if record[2](regs[record[3]], regs[record[4]]):
                    next_pc = record[5]
            elif kind == K_MOV:
                regs[record[2]] = regs[record[3]]
            elif kind == K_JMP:
                next_pc = record[2]
            elif kind == K_SYSCALL:
                self._do_syscall(machine, record, static_id)
            elif kind == K_LOCK:
                base = record[2]
                address = (regs[base] if base is not None else 0) + record[3]
                machine.memory.read(address)  # fault check, as in the slow path
                if not machine.locks.try_acquire(self.tid, address):
                    machine.block_thread(self, address)
                    return StepOutcome.BLOCKED
                machine.emit_sequencer(self, kind="lock", static_id=static_id)
                machine.notify_load(self, static_id, address, 0, is_sync=True)
                old = machine.memory.write(address, 1)
                machine.notify_store(self, static_id, address, old, 1, is_sync=True)
            elif kind == K_UNLOCK:
                base = record[2]
                address = (regs[base] if base is not None else 0) + record[3]
                machine.emit_sequencer(self, kind="unlock", static_id=static_id)
                to_wake = machine.locks.release(self.tid, address)
                machine.notify_load(self, static_id, address, 1, is_sync=True)
                old = machine.memory.write(address, 0)
                machine.notify_store(self, static_id, address, old, 0, is_sync=True)
                if to_wake is not None:
                    machine.wake_thread(to_wake)
            elif kind == K_ATOM_ADD or kind == K_ATOM_XCHG:
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                machine.emit_sequencer(
                    self,
                    kind="atom_add" if kind == K_ATOM_ADD else "atom_xchg",
                    static_id=static_id,
                )
                old = machine.memory.read(address)
                machine.notify_load(self, static_id, address, old, is_sync=True)
                operand_value = regs[record[5]]
                new = (
                    (old + operand_value) & WORD_MASK
                    if kind == K_ATOM_ADD
                    else operand_value
                )
                machine.memory.write(address, new)
                machine.notify_store(self, static_id, address, old, new, is_sync=True)
                regs[record[2]] = old
            elif kind == K_CAS:
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                machine.emit_sequencer(self, kind="cas", static_id=static_id)
                old = machine.memory.read(address)
                machine.notify_load(self, static_id, address, old, is_sync=True)
                if old == regs[record[5]]:
                    new = regs[record[6]]
                    machine.memory.write(address, new)
                    machine.notify_store(
                        self, static_id, address, old, new, is_sync=True
                    )
                regs[record[2]] = old
            elif kind == K_FENCE:
                machine.emit_sequencer(self, kind="fence", static_id=static_id)
            elif kind == K_NOP:
                pass
            elif kind == K_HALT:
                machine.retire(self, static_id)
                self.pc = next_pc
                self.steps += 1
                machine.end_thread(self, reason="halt")
                return StepOutcome.ENDED
            else:  # pragma: no cover - predecoder and dispatcher kept in sync
                raise NotImplementedError("unhandled dispatch kind %r" % kind)
        except MemoryFault as fault:
            machine.fault_thread(self, fault)
            return StepOutcome.ENDED

        # Inlined machine.retire: same observer fan-out and global-step
        # bookkeeping, one call frame fewer on the per-step critical path.
        steps = self.steps
        global_step = machine.global_step
        for observer in machine.observers:
            observer.on_step(global_step, self.tid, steps, static_id)
        machine.global_step = global_step + 1
        self.pc = next_pc
        self.steps = steps + 1
        return StepOutcome.RETIRED

    def _do_syscall(
        self, machine: "Machine", record: tuple, static_id: StaticInstructionId
    ) -> None:
        opcode = record[2]
        machine.emit_sequencer(self, kind=opcode, static_id=static_id)
        dest, imm_arg, reg_arg = record[3], record[4], record[5]
        arg: Optional[int] = imm_arg
        if reg_arg is not None:
            arg = self.registers._values[reg_arg]
        result = machine.syscalls.execute(
            opcode, self.tid, self.name, machine.global_step, arg
        )
        machine.notify_syscall(self, static_id, opcode, result, arg)
        if dest is not None:
            self.registers.write(dest, result)
        if record[6]:
            machine.note_yield()

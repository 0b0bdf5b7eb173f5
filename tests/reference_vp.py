"""The string-dispatch virtual processor: the classify-layer oracle.

This is the virtual processor as it ran before it moved onto the
predecoded dispatch records: every step re-derives its instruction from
the block (``static_id``, ``spec.is_sequencer_point``) and dispatches on
the mnemonic through :mod:`repro.vm.alu`.  It shares no execution code
with :mod:`repro.replay.virtual_processor` — only the spec, outcome and
failure types — so the equivalence tests compare two implementations of
one orchestration: the same :class:`VPOutcome` for every replay, or the
same :class:`ReplayFailure` kind and detail.

The phase structure is the paper's (§4.2): prefixes A then B (replayed
from the log, or fast-forwarded to the recorded racing state), the racing
pair in the requested order, then suffixes A then B.
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.isa.instructions import Instruction
from repro.isa.operands import Imm, Mem
from repro.replay.errors import ReplayFailure, ReplayFailureKind
from repro.replay.virtual_processor import VPConfig, VPOutcome, VPThreadSpec
from repro.vm import alu
from repro.vm.registers import RegisterFile


class _Thread:
    """Mutable per-thread execution state."""

    def __init__(self, spec: VPThreadSpec, follow_log: bool):
        self.spec = spec
        self.name = spec.thread_name
        self.block = spec.block
        self.pc = spec.start_pc
        self.registers = RegisterFile(spec.registers)
        self.steps = 0
        self.done = False
        self.follow_log = follow_log
        self.executed: List = []
        self.racing_value: Optional[int] = None

    def load_is_logged(self) -> bool:
        """Should the load at the current step come from the log?"""
        if self.spec.recorded_loads is None:
            return False
        if self.follow_log:
            return True
        return self.steps < self.spec.racing_step_offset

    def at_region_end(self) -> bool:
        """True when the next instruction closes the region."""
        if self.done:
            return True
        if self.pc >= len(self.block):
            return True
        instruction = self.block.instruction_at(self.pc)
        return instruction.spec.is_sequencer_point


class _Memory:
    """Copied-in reads plus real writes; only writes are live-out."""

    def __init__(self) -> None:
        self.values: Dict[int, int] = {}
        self.written: Set[int] = set()
        self.store_count = 0

    def seed(self, address: int, value: int) -> None:
        if address not in self.written:
            self.values[address] = value

    def store(self, address: int, value: int) -> None:
        self.values[address] = value & ((1 << 64) - 1)
        self.written.add(address)
        self.store_count += 1

    def dirty(self) -> Dict[int, int]:
        return {address: self.values[address] for address in self.written}


class ReferenceVirtualProcessor:
    """Copy-on-read execution of two racing regions, one string step at a time."""

    #: Steps a thread runs before spin-cycle detection engages.
    SPIN_CHECK_AFTER = 64

    def __init__(self, program, live_in_image, freed, spec_a, spec_b, config=None):
        self.program = program
        self.live_in = live_in_image
        self.freed = freed
        self.spec_a = spec_a
        self.spec_b = spec_b
        self.config = config or VPConfig()

    def run(self, first: str, follow_log: bool = False) -> VPOutcome:
        thread_a = _Thread(self.spec_a, follow_log)
        thread_b = _Thread(self.spec_b, follow_log)
        if first not in (thread_a.name, thread_b.name):
            raise ValueError("unknown first thread %r" % first)

        # Phase 1: prefixes, in fixed thread order.
        if (
            not follow_log
            and self.spec_a.racing_registers is not None
            and self.spec_b.racing_registers is not None
        ):
            memory = self._fast_forward_pair()
            for thread in (thread_a, thread_b):
                self._install_prefix(thread)
        else:
            memory = _Memory()
            for thread in (thread_a, thread_b):
                self._run_to_racing_op(thread, memory)

        # Phase 2: the racing pair, in the requested order.
        ordered = (
            (thread_a, thread_b) if first == thread_a.name else (thread_b, thread_a)
        )
        for thread in ordered:
            self._step(thread, memory)

        # Phase 3: suffixes to region end, in fixed thread order.
        for thread in (thread_a, thread_b):
            self._run_to_region_end(thread, memory)

        return VPOutcome(
            registers={
                thread_a.name: thread_a.registers.snapshot(),
                thread_b.name: thread_b.registers.snapshot(),
            },
            dirty_memory=memory.dirty(),
            end_pcs={thread_a.name: thread_a.pc, thread_b.name: thread_b.pc},
            steps={thread_a.name: thread_a.steps, thread_b.name: thread_b.steps},
            executed={
                thread_a.name: list(thread_a.executed),
                thread_b.name: list(thread_b.executed),
            },
            racing_values={
                thread_a.name: thread_a.racing_value,
                thread_b.name: thread_b.racing_value,
            },
        )

    # ------------------------------------------------------------------
    # Phases.
    # ------------------------------------------------------------------

    def _run_to_racing_op(self, thread: _Thread, memory: _Memory) -> None:
        while thread.steps < thread.spec.racing_step_offset:
            if thread.at_region_end():
                raise ReplayFailure(
                    ReplayFailureKind.DIVERGENCE,
                    "%s reached region end before its racing op" % thread.name,
                )
            self._step(thread, memory)
        static_here = (
            thread.block.static_id(thread.pc) if thread.pc < len(thread.block) else None
        )
        if static_here != thread.spec.racing_static_id:
            raise ReplayFailure(
                ReplayFailureKind.DIVERGENCE,
                "%s arrived at %s, expected racing op %s"
                % (thread.name, static_here, thread.spec.racing_static_id),
            )

    def _run_to_region_end(self, thread: _Thread, memory: _Memory) -> None:
        if not self.config.detect_spin_cycles or thread.follow_log:
            while not thread.at_region_end():
                self._step(thread, memory)
            return
        seen: Optional[Set[Tuple[int, Tuple[int, ...]]]] = None
        stores_seen = -1
        while not thread.at_region_end():
            if thread.steps >= self.SPIN_CHECK_AFTER:
                if memory.store_count != stores_seen:
                    stores_seen = memory.store_count
                    seen = set()
                state = (thread.pc, thread.registers.snapshot())
                if state in seen:
                    raise ReplayFailure(
                        ReplayFailureKind.STEP_LIMIT,
                        "%s exceeded %d steps" % (thread.name, self.config.step_limit),
                    )
                seen.add(state)
            self._step(thread, memory)

    def _fast_forward_pair(self) -> _Memory:
        for spec in (self.spec_a, self.spec_b):
            if spec.racing_step_offset > self.config.step_limit:
                raise ReplayFailure(
                    ReplayFailureKind.STEP_LIMIT,
                    "%s exceeded %d steps" % (spec.thread_name, self.config.step_limit),
                )
        memory = _Memory()
        for spec in (self.spec_a, self.spec_b):
            for access in spec.prefix_accesses:
                if access.is_write:
                    memory.store(access.address, access.value)
                else:
                    memory.seed(access.address, access.value)
        return memory

    def _install_prefix(self, thread: _Thread) -> None:
        spec = thread.spec
        thread.pc = spec.racing_pc
        thread.registers = RegisterFile(spec.racing_registers)
        thread.steps = spec.racing_step_offset
        thread.executed = list(spec.prefix_static_ids)

    # ------------------------------------------------------------------
    # Copy-on-read memory.
    # ------------------------------------------------------------------

    def _check_address(self, address: int) -> None:
        if address == 0:
            raise ReplayFailure(ReplayFailureKind.MEMORY_FAULT, "null dereference")
        if address < 0:
            raise ReplayFailure(
                ReplayFailureKind.MEMORY_FAULT, "negative address %d" % address
            )
        for base, size in self.freed.items():
            if base <= address < base + size:
                raise ReplayFailure(
                    ReplayFailureKind.MEMORY_FAULT,
                    "use-after-free at %#x (freed allocation %#x)" % (address, base),
                )

    def _read(self, address: int, memory: _Memory) -> int:
        self._check_address(address)
        if address in memory.values:
            return memory.values[address]
        if address in self.live_in:
            memory.values[address] = self.live_in[address]
            return memory.values[address]
        if self.config.allow_unknown_addresses:
            memory.values[address] = 0
            return 0
        raise ReplayFailure(
            ReplayFailureKind.UNKNOWN_ADDRESS,
            "load of address %#x absent from the recorded live-in image" % address,
        )

    # ------------------------------------------------------------------
    # Instruction execution.
    # ------------------------------------------------------------------

    def _step(self, thread: _Thread, memory: _Memory) -> None:
        if thread.done:
            return
        if thread.steps >= self.config.step_limit:
            raise ReplayFailure(
                ReplayFailureKind.STEP_LIMIT,
                "%s exceeded %d steps" % (thread.name, self.config.step_limit),
            )
        pc = thread.pc
        if pc >= len(thread.block) or pc < 0:
            thread.done = True
            return
        if (
            pc not in thread.spec.pc_footprint
            and not thread.follow_log
            and not self.config.allow_unrecorded_control_flow
        ):
            raise ReplayFailure(
                ReplayFailureKind.UNRECORDED_CONTROL_FLOW,
                "%s reached pc %d of block %r, never executed in the recording"
                % (thread.name, pc, thread.block.name),
            )
        instruction = thread.block.instruction_at(pc)
        if instruction.spec.is_sequencer_point:
            thread.done = True
            return
        thread.executed.append(thread.block.static_id(pc))
        thread.pc = self._execute(instruction, thread, memory)
        thread.steps += 1

    def _execute(
        self, instruction: Instruction, thread: _Thread, memory: _Memory
    ) -> int:
        opcode = instruction.opcode
        operands = instruction.operands
        registers = thread.registers
        pc = thread.pc

        def reg(operand) -> int:
            return registers.read(operand.index)

        def mem_address(operand: Mem) -> int:
            base = registers.read(operand.base) if operand.base is not None else 0
            return base + operand.offset

        if opcode == "li":
            registers.write(operands[0].index, operands[1].value)
        elif opcode == "mov":
            registers.write(operands[0].index, reg(operands[1]))
        elif alu.is_binary_op(opcode):
            rhs = operands[2].value if isinstance(operands[2], Imm) else reg(operands[2])
            registers.write(
                operands[0].index, alu.binary_op(opcode, reg(operands[1]), rhs)
            )
        elif opcode == "load":
            address = mem_address(operands[1])
            if thread.load_is_logged():
                recorded = thread.spec.recorded_loads.get(thread.steps)
                if recorded is None or recorded[0] != address:
                    raise ReplayFailure(
                        ReplayFailureKind.DIVERGENCE,
                        "%s logged load at step %d has no matching log record"
                        % (thread.name, thread.steps),
                    )
                value = recorded[1]
                memory.seed(address, value)
            else:
                value = self._read(address, memory)
            if thread.steps == thread.spec.racing_step_offset:
                thread.racing_value = value
            registers.write(operands[0].index, value)
        elif opcode == "store":
            value = reg(operands[0])
            if thread.steps == thread.spec.racing_step_offset:
                thread.racing_value = value
            address = mem_address(operands[1])
            if not thread.follow_log:
                self._check_address(address)
            memory.store(address, value)
        elif opcode == "jmp":
            return operands[0].value
        elif opcode in ("beq", "bne", "blt", "bge"):
            if alu.branch_taken(opcode, reg(operands[0]), reg(operands[1])):
                return operands[2].value
        elif opcode in ("beqz", "bnez"):
            if alu.branch_taken(opcode, reg(operands[0])):
                return operands[1].value
        elif opcode == "halt":
            thread.done = True
            return pc
        elif opcode == "nop":
            pass
        else:  # pragma: no cover - sequencer points are intercepted in _step
            raise ReplayFailure(
                ReplayFailureKind.DIVERGENCE,
                "sequencer-point opcode %r reached _execute" % opcode,
            )
        return pc + 1

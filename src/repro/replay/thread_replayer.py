"""Isolated single-thread replay from an iDNA-analog thread log.

A thread replays *without any other thread existing*: every value it needs
is either derivable from its own prior loads/stores (the local view, which
mirrors the recorder's prediction cache exactly) or present in the log.
This is the property load-based checkpointing buys — Section 3.1 of the
paper — and the test suite verifies it bit-for-bit against the original
machine run.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Tuple

from ..isa.operands import WORD_MASK, to_unsigned
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
    MEMORY_TOUCHING_KINDS,
)
from ..isa.program import CodeBlock, Program
from .errors import ReplayDivergence, thread_block
from .events import (
    HeapEvent,
    LazyAccessList,
    LazyRegisterDict,
    StaticIdView,
    ThreadReplay,
)
from ..record.log import ReplayLog, ThreadLog

#: Steps between the register checkpoints the replayer takes; bounds how
#: far a lazy snapshot reconstruction has to re-execute.
CHECKPOINT_INTERVAL = 1024


class RegisterReconstructor:
    """Targeted partial re-execution: register state just before any step.

    Holds the checkpoints :meth:`ThreadReplayer.run` took (every region
    boundary and every :data:`CHECKPOINT_INTERVAL` steps) plus the columnar replay
    products (pc trace, access value column, syscall records).
    ``state_before(k)`` replays *register effects only* forward from the
    nearest checkpoint at or below ``k`` — loads and atomics take their
    result from the access columns, syscalls from the log, so no memory
    model is needed — and inserts the answer as a new checkpoint so later
    queries in the same neighbourhood stay cheap.
    """

    def __init__(
        self,
        block: CodeBlock,
        thread_log: ThreadLog,
        pcs: List[int],
        access_steps: List[int],
        access_values: List[int],
        cp_steps: List[int],
        cp_regs: List[Tuple[int, ...]],
        perf=None,
    ):
        self._block = block
        self._thread_log = thread_log
        self._pcs = pcs
        self._access_steps = access_steps
        self._access_values = access_values
        self._cp_steps = cp_steps
        self._cp_regs = cp_regs
        self._perf = perf

    def is_memory_step(self, step) -> bool:
        """Is ``step`` a memory-touching step (one ``registers_at_step`` keeps)?"""
        pcs = self._pcs
        if not isinstance(step, int) or isinstance(step, bool):
            return False
        if step < 0 or step >= len(pcs):
            return False
        return self._block.decoded()[pcs[step]][0] in MEMORY_TOUCHING_KINDS

    def memory_steps(self) -> List[int]:
        decoded = self._block.decoded()
        kinds = MEMORY_TOUCHING_KINDS
        return [step for step, pc in enumerate(self._pcs) if decoded[pc][0] in kinds]

    def state_before(self, step) -> Tuple[int, ...]:
        if not isinstance(step, int) or isinstance(step, bool):
            raise KeyError(step)
        if step < 0 or step > len(self._pcs):
            raise KeyError(step)
        cp_steps = self._cp_steps
        position = bisect_right(cp_steps, step) - 1
        if position < 0:
            raise KeyError(step)
        if cp_steps[position] == step:
            return self._cp_regs[position]
        regs = list(self._cp_regs[position])
        decoded = self._block.decoded()
        pcs = self._pcs
        access_steps = self._access_steps
        access_values = self._access_values
        syscalls = self._thread_log.syscalls
        for j in range(cp_steps[position], step):
            record = decoded[pcs[j]]
            kind = record[0]
            if kind == K_ALU_RI:
                regs[record[3]] = record[2](regs[record[4]], record[5]) & WORD_MASK
            elif kind == K_ALU_RR:
                regs[record[3]] = record[2](regs[record[4]], regs[record[5]]) & WORD_MASK
            elif kind == K_LI:
                regs[record[2]] = record[3]
            elif kind == K_MOV:
                regs[record[2]] = regs[record[3]]
            elif kind == K_LOAD or kind == K_ATOM_ADD or kind == K_ATOM_XCHG or kind == K_CAS:
                # The destination gets the (first) replayed value at this
                # step: the load result, or the pre-update word an atomic
                # read (its read row precedes its write row).
                regs[record[2]] = access_values[bisect_left(access_steps, j)]
            elif kind == K_SYSCALL:
                dest = record[3]
                if dest is not None:
                    regs[dest] = to_unsigned(syscalls[j].result)
            # Stores, branches, jumps, lock/unlock, fence, nop and halt
            # have no register effect.
        snapshot = tuple(regs)
        self._cp_steps.insert(position + 1, step)
        self._cp_regs.insert(position + 1, snapshot)
        if self._perf is not None:
            self._perf.replay_snapshots_lazy += 1
        return snapshot


class ThreadReplayer:
    """Replays one thread of a :class:`ReplayLog`."""

    def __init__(self, program: Program, log: ReplayLog, thread_name: str):
        if thread_name not in log.threads:
            raise ReplayDivergence("log has no thread %r" % thread_name)
        self.program = program
        self.log = log
        self.thread_log: ThreadLog = log.threads[thread_name]
        self.block: CodeBlock = thread_block(
            program, thread_name, self.thread_log.block
        )
        self.thread_name = thread_name

    def run(self, perf=None) -> ThreadReplay:
        """Replay every recorded step through the predecoded dispatch records.

        One dense-tuple fetch and an int if-chain per step; accesses are
        appended to columnar parallel arrays instead of one
        :class:`ReplayedAccess` per event.  Register snapshots are taken
        only at checkpoints: every region boundary (the sequencer steps,
        known before the loop), which fill the region start and end
        register dicts, and every :data:`CHECKPOINT_INTERVAL` steps, from
        which the lazy ``registers_at_step`` view reconstructs the
        per-access snapshots a downstream consumer (usually the
        classifier, for its racing steps) asks for.  The equivalence tests assert
        ``run().materialized()`` equals the eager replay of the generic
        string-dispatch oracle (``tests/reference_interp.py``) bit for bit.
        """
        thread_log = self.thread_log
        block = self.block
        thread_name = self.thread_name
        decoded = block.decoded()
        block_len = len(decoded)
        steps = thread_log.steps
        loads = thread_log.loads
        syscalls = thread_log.syscalls
        regs = [to_unsigned(value) for value in thread_log.initial_registers]
        local_view: Dict[int, int] = {}
        pcs: List[int] = []
        col_steps: List[int] = []
        col_addresses: List[int] = []
        col_values: List[int] = []
        col_flags: List[int] = []
        heap_events: List[HeapEvent] = []
        output: List[Tuple[str, int]] = []
        # Region boundaries are known from the sequencers before the loop,
        # so the forward pass checkpoints at each of them too: region
        # start and end registers are then lookups, not re-executions.
        sequencers = thread_log.sequencers
        start_valid = frozenset(
            sequencer.thread_step + 1
            for sequencer in sequencers
            if 0 <= sequencer.thread_step + 1 < steps
        )
        boundary_in_range = frozenset(
            sequencer.thread_step
            for sequencer in sequencers
            if 0 <= sequencer.thread_step < steps
        )
        checkpoints = iter(
            sorted(
                start_valid.union(
                    boundary_in_range, range(0, steps, CHECKPOINT_INTERVAL)
                )
            )
        )
        next_checkpoint = next(checkpoints, -1)
        cp_steps: List[int] = []
        cp_regs: List[Tuple[int, ...]] = []
        pc = 0
        for step in range(steps):
            if step == next_checkpoint:
                cp_steps.append(step)
                cp_regs.append(tuple(regs))
                next_checkpoint = next(checkpoints, -1)
            if pc >= block_len:
                raise ReplayDivergence(
                    "thread %r ran past the end of block %r at step %d"
                    % (thread_name, block.name, step)
                )
            record = decoded[pc]
            pcs.append(pc)
            kind = record[0]
            next_pc = pc + 1
            if kind == K_ALU_RI:
                regs[record[3]] = record[2](regs[record[4]], record[5]) & WORD_MASK
            elif kind == K_LOAD:
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                logged = loads.get(step)
                if logged is not None:
                    if logged.address != address:
                        raise ReplayDivergence(
                            "thread %r step %d: log has load at %#x but replay computed %#x"
                            % (thread_name, step, logged.address, address)
                        )
                    value = logged.value
                    local_view[address] = value
                else:
                    try:
                        value = local_view[address]
                    except KeyError:
                        raise ReplayDivergence(
                            "thread %r step %d: unlogged load of never-seen address %#x"
                            % (thread_name, step, address)
                        ) from None
                col_steps.append(step)
                col_addresses.append(address)
                col_values.append(value)
                col_flags.append(0)
                regs[record[2]] = value
            elif kind == K_BRANCH1:
                if record[2](regs[record[3]]):
                    next_pc = record[4]
            elif kind == K_STORE:
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                value = regs[record[2]]
                local_view[address] = value
                col_steps.append(step)
                col_addresses.append(address)
                col_values.append(value)
                col_flags.append(1)
            elif kind == K_ALU_RR:
                regs[record[3]] = record[2](regs[record[4]], regs[record[5]]) & WORD_MASK
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
                opcode = record[2]
                logged_syscall = syscalls.get(step)
                if logged_syscall is None or logged_syscall.name != opcode:
                    raise ReplayDivergence(
                        "thread %r step %d: expected logged syscall %r, log has %r"
                        % (
                            thread_name,
                            step,
                            opcode,
                            logged_syscall and logged_syscall.name,
                        )
                    )
                result = logged_syscall.result
                if opcode == "sys_alloc":
                    heap_events.append(
                        HeapEvent(
                            thread_step=step,
                            kind="alloc",
                            base=result,
                            size=regs[record[5]],
                        )
                    )
                    regs[record[3]] = to_unsigned(result)
                elif opcode == "sys_free":
                    heap_events.append(
                        HeapEvent(
                            thread_step=step, kind="free", base=regs[record[5]], size=0
                        )
                    )
                elif opcode == "sys_print":
                    output.append((thread_name, result))
                elif record[3] is not None:
                    regs[record[3]] = to_unsigned(result)
            elif kind == K_LOCK:
                base = record[2]
                address = (regs[base] if base is not None else 0) + record[3]
                value = self._replay_load(step, address, local_view, sync=True)
                col_steps.append(step)
                col_addresses.append(address)
                col_values.append(value)
                col_flags.append(2)
                local_view[address] = 1
                col_steps.append(step)
                col_addresses.append(address)
                col_values.append(1)
                col_flags.append(3)
            elif kind == K_UNLOCK:
                base = record[2]
                address = (regs[base] if base is not None else 0) + record[3]
                value = self._replay_load(step, address, local_view, sync=True)
                col_steps.append(step)
                col_addresses.append(address)
                col_values.append(value)
                col_flags.append(2)
                local_view[address] = 0
                col_steps.append(step)
                col_addresses.append(address)
                col_values.append(0)
                col_flags.append(3)
            elif kind == K_ATOM_ADD or kind == K_ATOM_XCHG:
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                old = self._replay_load(step, address, local_view, sync=True)
                col_steps.append(step)
                col_addresses.append(address)
                col_values.append(old)
                col_flags.append(2)
                new = (
                    (old + regs[record[5]]) & WORD_MASK
                    if kind == K_ATOM_ADD
                    else regs[record[5]]
                )
                local_view[address] = new
                col_steps.append(step)
                col_addresses.append(address)
                col_values.append(new)
                col_flags.append(3)
                regs[record[2]] = old
            elif kind == K_CAS:
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                old = self._replay_load(step, address, local_view, sync=True)
                col_steps.append(step)
                col_addresses.append(address)
                col_values.append(old)
                col_flags.append(2)
                if old == regs[record[5]]:
                    new = regs[record[6]]
                    local_view[address] = new
                    col_steps.append(step)
                    col_addresses.append(address)
                    col_values.append(new)
                    col_flags.append(3)
                regs[record[2]] = old
            elif kind == K_FENCE or kind == K_NOP or kind == K_HALT:
                pass
            else:  # pragma: no cover - predecoder and dispatcher kept in sync
                raise NotImplementedError("unhandled dispatch kind %r" % kind)
            pc = next_pc
        final_registers = tuple(regs)
        at_checkpoint = dict(zip(cp_steps, cp_regs))

        has_final_boundary = any(
            sequencer.thread_step == steps for sequencer in sequencers
        )
        end_valid = boundary_in_range | (
            frozenset((steps,)) if has_final_boundary else frozenset()
        )

        reconstructor = RegisterReconstructor(
            block, thread_log, pcs, col_steps, col_values, cp_steps, cp_regs, perf
        )
        region_start_registers = LazyRegisterDict(reconstructor, start_valid)
        region_start_registers.update(
            (boundary, at_checkpoint[boundary]) for boundary in start_valid
        )
        region_end_registers = LazyRegisterDict(reconstructor, end_valid)
        region_end_registers.update(
            (boundary, at_checkpoint[boundary]) for boundary in boundary_in_range
        )
        region_end_pcs = {boundary: pcs[boundary] for boundary in boundary_in_range}
        if has_final_boundary:
            region_end_registers[steps] = final_registers
            region_end_pcs[steps] = pc

        static_ids = StaticIdView(block.static_ids(), pcs)
        accesses = LazyAccessList(
            col_steps, col_addresses, col_values, col_flags, static_ids, perf
        )
        replay = ThreadReplay(
            name=thread_name,
            tid=thread_log.tid,
            steps=steps,
            pcs=pcs,
            static_ids=static_ids,
            accesses=accesses,
            heap_events=heap_events,
            region_start_registers=region_start_registers,
            region_start_pcs={start: pcs[start] for start in start_valid},
            region_end_registers=region_end_registers,
            region_end_pcs=region_end_pcs,
            registers_at_step=LazyRegisterDict(reconstructor, None),
            final_registers=final_registers,
            final_pc=pc,
            output=output,
        )
        replay._access_steps = col_steps
        replay._reconstructor = reconstructor
        if perf is not None:
            perf.replay_threads_fast += 1
        return replay

    def _replay_load(
        self,
        step: int,
        address: int,
        local_view: Dict[int, int],
        *,
        sync: bool,
    ) -> int:
        """The heart of load-based replay: log value if logged, else local view."""
        record = self.thread_log.load_at(step)
        if record is not None:
            if record.address != address:
                raise ReplayDivergence(
                    "thread %r step %d: log has load at %#x but replay computed %#x"
                    % (self.thread_name, step, record.address, address)
                )
            local_view[address] = record.value
            return record.value
        if address not in local_view:
            raise ReplayDivergence(
                "thread %r step %d: unlogged load of never-seen address %#x"
                % (self.thread_name, step, address)
            )
        return local_view[address]


def replay_thread(program: Program, log: ReplayLog, thread_name: str) -> ThreadReplay:
    """Convenience wrapper around :class:`ThreadReplayer`."""
    return ThreadReplayer(program, log, thread_name).run()

"""The virtual processor: replay a pair of racing regions in both orders.

Section 4.2 of the paper: *"we added to iDNA the ability to create a
virtual processor ... initialized with the live-in memory values and the
register states of the two threads.  We orchestrate the execution of the
two threads in the virtual processor to obey the ordering for the
instructions involved in the data race.  Whenever a memory location is
read for the first time in the virtual processor, the virtual processor
copies the value from the live-in memory."*

Orchestration is canonical and identical across the two replays except for
the racing pair itself:

1. **prefix** — run thread A from its region start up to (not including)
   its racing instruction, then thread B likewise;
2. **the racing pair** — execute the two racing instructions in the chosen
   order (original, then alternative on the second replay);
3. **suffix** — run thread A to its region end, then thread B.

A region ends at the next sequencer-point instruction (sync or syscall),
at ``halt``, or at the end of the code block.  Any live-out difference
between the two replays is therefore attributable to the race.

Replay failures (§4.2.1) surface as :class:`ReplayFailure`:

* a load of an address in neither the VP's written set nor the live-in
  image (*"an address not seen when the original log was taken"*),
* control transfer to a pc outside the thread's recorded footprint
  (*"it may jump to a piece of code that was not recorded"*) — unless
  ``allow_unrecorded_control_flow`` enables the paper's stated future-work
  extension of continuing through fresh paths,
* memory faults: null dereference or touching freed memory (the paper's
  Figure 2 replay "catches a null pointer violation"),
* a per-thread step limit (a reordering that wedges a spin loop).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..isa.operands import WORD_MASK, to_unsigned
from ..isa.predecode import (
    K_ALU_RI,
    K_ALU_RR,
    K_BRANCH1,
    K_BRANCH2,
    K_HALT,
    K_JMP,
    K_LI,
    K_LOAD,
    K_MOV,
    K_STORE,
    SEQUENCER_KINDS,
)
from ..isa.program import CodeBlock, Program, StaticInstructionId
from .errors import ReplayFailure, ReplayFailureKind

#: The step budget of a region run with no stop short of its end.
_NO_STOP = sys.maxsize
#: Steps a thread runs before spin-cycle detection engages (almost every
#: replay finishes well under this, so the common case pays nothing).
_SPIN_CHECK_AFTER = 64


@dataclass
class VPConfig:
    """Knobs for virtual-processor replay.

    The two ``allow_*`` flags implement the paper's §4.2.1 future work
    ("we are looking at trying to log enough information to allow replay
    to continue in the face of both of these"): continuing through control
    flow the recording never saw, and reading addresses absent from the
    live-in image as zero-filled memory (the machine's semantics for
    never-written words).
    """

    step_limit: int = 20_000
    allow_unrecorded_control_flow: bool = False
    allow_unknown_addresses: bool = False
    #: Prove STEP_LIMIT early when a live thread provably spins forever
    #: (see :meth:`VirtualProcessor._run_region`).  Same verdicts,
    #: without interpreting up to ``step_limit`` instructions first.
    detect_spin_cycles: bool = True


@dataclass
class VPThreadSpec:
    """Everything the VP needs to run one thread's region.

    ``racing_step_offset`` counts instructions from the region start to the
    racing instruction; ``pc_footprint`` is the set of instruction indices
    the thread executed anywhere in the recording.

    ``recorded_loads`` maps a step offset within the region (before the
    racing operation) to the load value the recording saw at that step.
    iDNA replays the pre-race prefix *from the log* ("we replay both
    threads for the region up until we get to the data race instruction"),
    so prefix control flow is exact by construction; only from the racing
    pair onward does execution run live against the virtual processor's
    copy-on-read memory.

    The optional ``racing_registers``/``racing_pc``/``prefix_accesses``/
    ``prefix_static_ids`` fields carry the *result* of that logged prefix,
    precomputed from the thread's recorded replay.  When present, the
    processor fast-forwards straight to the racing operation instead of
    re-executing the prefix instruction by instruction: because the prefix
    is replayed from the log in both cases, its register trajectory and
    memory effects (load seeds + stores, in program order) are exactly the
    recorded ones, so only the divergent window — the racing pair and the
    suffixes — needs live execution.
    """

    thread_name: str
    block: CodeBlock
    start_pc: int
    registers: Tuple[int, ...]
    racing_step_offset: int
    racing_static_id: StaticInstructionId
    pc_footprint: Set[int]
    recorded_loads: Dict[int, Tuple[int, int]] = None  # type: ignore[assignment]
    #: Registers just before the racing instruction (from the recording).
    racing_registers: Optional[Tuple[int, ...]] = None
    #: Pc of the racing instruction (from the recording).
    racing_pc: Optional[int] = None
    #: Recorded accesses of the pre-race prefix, in program order.
    prefix_accesses: Optional[Tuple] = None
    #: Static ids the prefix executed, in program order.
    prefix_static_ids: Optional[Tuple[StaticInstructionId, ...]] = None


@dataclass
class VPOutcome:
    """Live-out state of one both-regions replay.

    ``racing_values`` records the value each thread's racing operation
    observed (loads) or produced (stores) during this replay.  For the
    original-order replay these must equal the recorded values — a
    mismatch means the virtual processor's live-in approximation could
    not reconstruct the recorded reality, which the classifier treats as
    a replay failure.
    """

    registers: Dict[str, Tuple[int, ...]]
    dirty_memory: Dict[int, int]
    end_pcs: Dict[str, int]
    steps: Dict[str, int]
    executed: Dict[str, List[StaticInstructionId]]
    racing_values: Dict[str, Optional[int]] = None  # type: ignore[assignment]


def same_state(
    outcome_a: VPOutcome, outcome_b: VPOutcome, live_in: Dict[int, int]
) -> bool:
    """Compare two replays' live-outs (the paper's benign test).

    Memory is compared *effectively*: a write of the value already present
    in live-in memory leaves the state unchanged (this is what makes the
    paper's "redundant write" races come out benign).
    """
    if outcome_a.registers != outcome_b.registers:
        return False
    if outcome_a.end_pcs != outcome_b.end_pcs:
        return False
    touched = set(outcome_a.dirty_memory) | set(outcome_b.dirty_memory)
    for address in touched:
        value_a = outcome_a.dirty_memory.get(address, live_in.get(address, 0))
        value_b = outcome_b.dirty_memory.get(address, live_in.get(address, 0))
        if value_a != value_b:
            return False
    return True


class _VPThread:
    """Mutable per-thread execution state inside the VP: a pc, a step
    count and a plain register list, plus the racing value and the
    executed static ids the outcome reports.

    ``follow_log`` marks a thread whose *entire* region replays from the
    recorded load values — the original-order replay, which by definition
    is the recording itself.  A live thread follows the log only up to its
    racing operation and then runs against the VP memory; ``logged_until``
    is the step bound of its logged loads.  ``footprint`` is ``None`` when
    the pc footprint check is off (log-following threads, and the
    ``allow_unrecorded_control_flow`` extension).
    """

    __slots__ = (
        "spec", "name", "pc", "registers", "steps", "executed", "racing_value",
        "follow_log", "logged_until", "footprint",
    )

    def __init__(
        self, spec: VPThreadSpec, follow_log: bool, fast_forward: bool,
        allow_unrecorded_control_flow: bool,
    ):
        self.spec = spec
        self.name = spec.thread_name
        self.follow_log = follow_log
        if fast_forward:
            # Land on the recorded state just before the racing op.
            self.pc = spec.racing_pc
            self.steps = spec.racing_step_offset
            self.executed: List[StaticInstructionId] = list(spec.prefix_static_ids)
            registers = spec.racing_registers
        else:
            self.pc, self.steps, self.executed = spec.start_pc, 0, []
            registers = spec.registers
        self.registers = [to_unsigned(value) for value in registers]
        self.racing_value: Optional[int] = None
        if spec.recorded_loads is None:
            self.logged_until = 0
        else:
            self.logged_until = _NO_STOP if follow_log else spec.racing_step_offset
        self.footprint: Optional[Set[int]] = (
            None if follow_log or allow_unrecorded_control_flow else spec.pc_footprint
        )


class _VPMemory:
    """The virtual processor's memory: copied-in reads plus real writes.

    Values read in (from logs or the live-in image) only feed later reads;
    the *live-out* state the classifier compares consists solely of the
    addresses actually written (:meth:`dirty`), so two replays that merely
    read different subsets of memory do not spuriously differ.  A logged
    load's value seeds ``values`` but never overwrites a written address:
    the canonical phase schedule replays one thread's suffix after the
    other's, so a logged load can observe a *stale* recorded past after a
    store that canonically already happened — the store stays the truth.
    """

    __slots__ = ("values", "written")

    def __init__(self) -> None:
        self.values: Dict[int, int] = {}
        self.written: Set[int] = set()

    def clone(self) -> "_VPMemory":
        """An independent copy (the cached prefix-seed image is cloned per
        run so phases 2/3 never mutate the shared seed)."""
        copy = _VPMemory.__new__(_VPMemory)
        copy.values = dict(self.values)
        copy.written = set(self.written)
        return copy

    def dirty(self) -> Dict[int, int]:
        return {address: self.values[address] for address in self.written}


class VirtualProcessor:
    """Copy-on-read execution of two racing regions under a forced order."""

    def __init__(
        self,
        program: Program,
        live_in_image: Dict[int, int],
        freed: Dict[int, int],
        spec_a: VPThreadSpec,
        spec_b: VPThreadSpec,
        config: Optional[VPConfig] = None,
    ):
        self.program = program
        self.live_in = live_in_image
        self.freed = freed
        self.spec_a = spec_a
        self.spec_b = spec_b
        self.config = config or VPConfig()
        #: One-slot holder for the seeded prefix memory image, shared with
        #: every :meth:`rebind` clone: the image depends only on the two
        #: specs' recorded prefix accesses, so processors replaying the
        #: same structural pair build it once and clone it per run.
        self._prefix_seed: List[Optional[_VPMemory]] = [None]

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def rebind(
        self, live_in_image: Dict[int, int], freed: Dict[int, int]
    ) -> "VirtualProcessor":
        """A processor for the same racing pair under a different live-in.

        Shares the specs, config and the prefix-seed holder (the seed is a
        pure function of the specs); only the live-in image and freed
        ranges differ.  The batched classifier rebinds the batch leader's
        processor for probe-divergence fallback members instead of
        rebuilding specs and re-deriving the prefix image.
        """
        clone = VirtualProcessor(
            self.program, live_in_image, freed, self.spec_a, self.spec_b, self.config
        )
        clone._prefix_seed = self._prefix_seed
        return clone

    def run(self, first: str, follow_log: bool = False) -> VPOutcome:
        """Replay both regions with thread ``first``'s racing op going first.

        With ``follow_log`` every load of both threads takes its recorded
        value — this is the *original* replay, exact by construction
        ("the first order ... matches the values seen during the original
        logged execution").  Without it, loads follow the log only up to
        each thread's racing operation and run live afterwards — the
        *alternative* replay, which may leave the recorded envelope and
        raise :class:`ReplayFailure` (§4.2.1).
        """
        spec_a, spec_b = self.spec_a, self.spec_b
        if first not in (spec_a.thread_name, spec_b.thread_name):
            raise ValueError("unknown first thread %r" % first)
        allow_unrecorded = self.config.allow_unrecorded_control_flow

        # Phase 1: prefixes, in fixed thread order.  Both replays' prefixes
        # follow the log, so when the specs carry the precomputed prefix
        # state the threads fast-forward to their racing ops and only the
        # divergent window executes live.
        fast_forward = (
            not follow_log
            and spec_a.racing_registers is not None
            and spec_b.racing_registers is not None
        )
        memory = self._fast_forward_pair() if fast_forward else _VPMemory()
        thread_a = _VPThread(spec_a, follow_log, fast_forward, allow_unrecorded)
        thread_b = _VPThread(spec_b, follow_log, fast_forward, allow_unrecorded)
        if not fast_forward:
            for thread in (thread_a, thread_b):
                spec = thread.spec
                self._run_region(thread, memory, spec.racing_step_offset)
                if thread.steps < spec.racing_step_offset:
                    raise ReplayFailure(
                        ReplayFailureKind.DIVERGENCE,
                        "%s reached region end before its racing op" % thread.name,
                    )
                static_here = (
                    spec.block.static_id(thread.pc)
                    if thread.pc < len(spec.block)
                    else None
                )
                if static_here != spec.racing_static_id:
                    raise ReplayFailure(
                        ReplayFailureKind.DIVERGENCE,
                        "%s arrived at %s, expected racing op %s"
                        % (thread.name, static_here, spec.racing_static_id),
                    )

        # Phase 2: the racing pair, in the requested order.  Each thread
        # stands on its racing op — a plain load or store inside its block
        # — so a one-step budget runs exactly that instruction.
        ordered = (
            (thread_a, thread_b) if first == thread_a.name else (thread_b, thread_a)
        )
        for thread in ordered:
            self._run_region(thread, memory, thread.steps + 1)

        # Phase 3: suffixes to region end, in fixed thread order.  A
        # log-following thread's loads are keyed by step number, so a
        # repeated (pc, registers) state does *not* imply repetition;
        # spin-cycle detection is sound only for live threads.
        spin = self.config.detect_spin_cycles and not follow_log
        for thread in (thread_a, thread_b):
            self._run_region(thread, memory, _NO_STOP, spin)

        threads = (thread_a, thread_b)
        return VPOutcome(
            registers={thread.name: tuple(thread.registers) for thread in threads},
            dirty_memory=memory.dirty(),
            end_pcs={thread.name: thread.pc for thread in threads},
            steps={thread.name: thread.steps for thread in threads},
            executed={thread.name: thread.executed for thread in threads},
            racing_values={thread.name: thread.racing_value for thread in threads},
        )

    # ------------------------------------------------------------------
    # The region kernel.
    # ------------------------------------------------------------------

    def _run_region(
        self, thread: _VPThread, memory: _VPMemory, stop: int, spin: bool = False
    ) -> None:
        """Run ``thread`` until its region ends or its step count reaches
        ``stop``: the processor's one execution loop, over the block's
        predecoded dispatch records (:meth:`CodeBlock.decoded`).

        Each step checks, in order:

        1. a pc past the block, or a sequencer point, ends the region with
           the instruction unexecuted;
        2. with ``spin`` (a live suffix), past :data:`_SPIN_CHECK_AFTER`
           steps, a revisited (pc, registers) state with no store in
           between fails with the step limit's ``STEP_LIMIT``: every input
           to every later instruction is unchanged, so the trajectory
           repeats forever and *would* exhaust the limit;
        3. the step limit;
        4. the recorded pc footprint (``UNRECORDED_CONTROL_FLOW``);

        then executes the instruction.  A logged load must match its log
        record (``DIVERGENCE``) and seeds the memory; a live load is
        address-checked and copied on read from the live-in image
        (``UNKNOWN_ADDRESS`` unless ``allow_unknown_addresses``); a live
        thread's stores are address-checked.  ``halt`` retires and ends
        the region with the pc on it.
        """
        spec = thread.spec
        name = thread.name
        decoded = spec.block.decoded()
        block_len = len(decoded)
        racing_offset = spec.racing_step_offset
        recorded_loads = spec.recorded_loads
        logged_until = thread.logged_until
        footprint = thread.footprint
        check_stores = not thread.follow_log
        live_in = self.live_in
        freed = self.freed
        check_address = self._check_address
        allow_unknown = self.config.allow_unknown_addresses
        step_limit = self.config.step_limit
        spin_from = _SPIN_CHECK_AFTER if spin else _NO_STOP
        check_from = min(spin_from, step_limit)
        values = memory.values
        written = memory.written
        regs = thread.registers
        executed = thread.executed
        racing_value = thread.racing_value
        pc = thread.pc
        steps = thread.steps
        # States visited since the last store (spin-cycle detection).
        seen: Optional[Set[Tuple[int, Tuple[int, ...]]]] = None
        while steps < stop:
            if pc >= block_len:
                break
            record = decoded[pc]
            kind = record[0]
            if kind in SEQUENCER_KINDS:
                break
            if steps >= check_from:
                if steps >= spin_from:
                    if seen is None:
                        seen = set()
                    state = (pc, tuple(regs))
                    if state in seen:
                        raise _step_limit_failure(name, step_limit)
                    seen.add(state)
                if steps >= step_limit:
                    raise _step_limit_failure(name, step_limit)
            if footprint is not None and pc not in footprint:
                raise ReplayFailure(
                    ReplayFailureKind.UNRECORDED_CONTROL_FLOW,
                    "%s reached pc %d of block %r, never executed in the recording"
                    % (name, pc, spec.block.name),
                )
            executed.append(record[1])
            next_pc = pc + 1
            if kind == K_ALU_RI:
                regs[record[3]] = record[2](regs[record[4]], record[5]) & WORD_MASK
            elif kind == K_LOAD:
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                if steps < logged_until:
                    # Replay the load from the log (iDNA semantics: the
                    # whole original-order replay, and every live replay's
                    # pre-race prefix).  The recorded value also seeds the
                    # VP memory so later live reads stay consistent with
                    # the recording.
                    recorded = recorded_loads.get(steps)
                    if recorded is None or recorded[0] != address:
                        raise ReplayFailure(
                            ReplayFailureKind.DIVERGENCE,
                            "%s logged load at step %d has no matching log record"
                            % (name, steps),
                        )
                    value = recorded[1]
                    if address not in written:
                        values[address] = value
                else:
                    if address <= 0 or freed:
                        check_address(address)
                    value = values.get(address)
                    if value is None:
                        value = live_in.get(address)
                        if value is None:
                            if not allow_unknown:
                                raise ReplayFailure(
                                    ReplayFailureKind.UNKNOWN_ADDRESS,
                                    "load of address %#x absent from the recorded"
                                    " live-in image" % address,
                                )
                            # §4.2.1 extension: treat the address as
                            # zero-filled memory (what the machine would
                            # return for a never-written word).
                            value = 0
                        values[address] = value
                if steps == racing_offset:
                    racing_value = value
                regs[record[2]] = value & WORD_MASK
            elif kind == K_BRANCH1:
                if record[2](regs[record[3]]):
                    next_pc = record[4]
            elif kind == K_STORE:
                value = regs[record[2]]
                if steps == racing_offset:
                    racing_value = value
                base = record[3]
                address = (regs[base] if base is not None else 0) + record[4]
                # A log-following store is legal by the recording.
                if check_stores and (address <= 0 or freed):
                    check_address(address)
                values[address] = value
                written.add(address)
                seen = None
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
            elif kind == K_HALT:
                steps += 1
                break
            pc = next_pc
            steps += 1
        thread.pc = pc
        thread.steps = steps
        thread.racing_value = racing_value

    def _fast_forward_pair(self) -> _VPMemory:
        """The seeded prefix memory, built once per spec pair and cloned.

        Matches running phase 1 on thread A then B step for step: each
        prefix's loads seed the VP memory with their recorded values and
        its stores write through, in program order (and a store blocks
        later stale seeds of the same address, which is why the A-then-B
        application order is part of the contract).  The step-limit
        failures the interpreter would raise mid-prefix are reproduced up
        front, A first.  The built image depends only on the two specs, so
        it lives in the :attr:`_prefix_seed` holder shared across
        :meth:`rebind` clones and is cloned for each run — phases 2/3
        mutate the clone, never the seed.
        """
        for spec in (self.spec_a, self.spec_b):
            if spec.racing_step_offset > self.config.step_limit:
                raise _step_limit_failure(spec.thread_name, self.config.step_limit)
        seed = self._prefix_seed[0]
        if seed is None:
            seed = _VPMemory()
            for spec in (self.spec_a, self.spec_b):
                for access in spec.prefix_accesses:
                    if access.is_write:
                        seed.values[access.address] = access.value & WORD_MASK
                        seed.written.add(access.address)
                    elif access.address not in seed.written:
                        seed.values[access.address] = access.value
            self._prefix_seed[0] = seed
        return seed.clone()

    def _check_address(self, address: int) -> None:
        """Fail a live access to null, a negative address or freed memory."""
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


def _step_limit_failure(thread_name: str, step_limit: int) -> ReplayFailure:
    return ReplayFailure(
        ReplayFailureKind.STEP_LIMIT, "%s exceeded %d steps" % (thread_name, step_limit)
    )

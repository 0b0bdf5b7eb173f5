"""Time-travel inspection of replayed executions.

The paper leans on iDNA's "reverse execution (also called time travel
debugging)" as the developer's follow-up tool: given the replay log a race
report points at, the developer replays and examines *any* past state.
This module is that capability for our logs: a :class:`TimeTravelInspector`
answers state queries at arbitrary points of a recorded execution —

* registers of a thread at any step,
* the value a thread's load/store saw at any step,
* a thread's program counter / source line at any step,
* a best-effort global memory view at a global-order point,

without re-recording anything.  Register queries go to the per-thread
replays :class:`OrderedReplay` holds: each re-executes register effects
forward from the nearest checkpoint the replay took
(:meth:`ThreadReplay.registers_before`), the same code the classifier
uses to fast-forward to a racing operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..isa.program import Program, StaticInstructionId
from ..record.log import ReplayLog
from .ordered_replay import OrderedReplay


@dataclass(frozen=True)
class StepView:
    """Everything about one retired step of one thread."""

    thread_name: str
    thread_step: int
    pc: int
    static_id: StaticInstructionId
    instruction_text: str
    registers_before: Tuple[int, ...]
    registers_after: Tuple[int, ...]
    access: Optional[Tuple[str, int, int]] = None  # (kind, address, value)

    def describe(self) -> str:
        text = "%s step %d @ %s: %s" % (
            self.thread_name,
            self.thread_step,
            self.static_id,
            self.instruction_text,
        )
        if self.access is not None:
            kind, address, value = self.access
            text += "   [%s %#x = %d]" % (kind, address, value)
        changed = [
            "r%d: %d -> %d" % (index, before, after)
            for index, (before, after) in enumerate(
                zip(self.registers_before, self.registers_after)
            )
            if before != after
        ]
        if changed:
            text += "   {%s}" % ", ".join(changed)
        return text


class TimeTravelInspector:
    """Query any past state of a recorded execution."""

    def __init__(self, ordered: OrderedReplay):
        self.ordered = ordered
        self.program: Program = ordered.program
        self.log: ReplayLog = ordered.log

    # ------------------------------------------------------------------
    # Public queries.
    # ------------------------------------------------------------------

    def registers_at(self, thread_name: str, thread_step: int) -> Tuple[int, ...]:
        """Register file of ``thread_name`` just *before* ``thread_step``
        (``steps`` gives the end state)."""
        replay = self.ordered.thread_replays[thread_name]
        if not 0 <= thread_step <= replay.steps:
            raise IndexError(
                "step %d out of range for %s (0..%d)"
                % (thread_step, thread_name, replay.steps)
            )
        return replay.registers_before(thread_step)

    def register_at(self, thread_name: str, thread_step: int, register: int) -> int:
        return self.registers_at(thread_name, thread_step)[register]

    def pc_at(self, thread_name: str, thread_step: int) -> int:
        replay = self.ordered.thread_replays[thread_name]
        return replay.pcs[thread_step]

    def step_view(self, thread_name: str, thread_step: int) -> StepView:
        """A full picture of one retired step (the debugger's focus line)."""
        replay = self.ordered.thread_replays[thread_name]
        pc = replay.pcs[thread_step]
        static_id = replay.static_ids[thread_step]
        instruction = self.program.instruction(static_id)
        access = None
        for entry in replay.accesses:
            if entry.thread_step == thread_step:
                access = (
                    "store" if entry.is_write else "load",
                    entry.address,
                    entry.value,
                )
                break
        return StepView(
            thread_name=thread_name,
            thread_step=thread_step,
            pc=pc,
            static_id=static_id,
            instruction_text=instruction.source_text or str(instruction),
            registers_before=replay.registers_before(thread_step),
            registers_after=replay.registers_before(thread_step + 1),
            access=access,
        )

    def history_of_address(self, address: int) -> List[Tuple[str, int, str, int]]:
        """All recorded accesses to ``address``: (thread, step, kind, value),
        in per-thread order, threads interleaved by region-replay order."""
        history: List[Tuple[str, int, str, int]] = []
        for name, replay in self.ordered.thread_replays.items():
            for entry in replay.accesses:
                if entry.address == address:
                    history.append(
                        (
                            name,
                            entry.thread_step,
                            "store" if entry.is_write else "load",
                            entry.value,
                        )
                    )
        history.sort(key=lambda item: (item[1], item[0]))
        return history

    def last_write_before(
        self, thread_name: str, thread_step: int, address: int
    ) -> Optional[Tuple[str, int, int]]:
        """Best-effort provenance: who last wrote ``address`` from this
        thread's point of view at ``thread_step`` — its own latest store, or
        the replayed load value's origin."""
        replay = self.ordered.thread_replays[thread_name]
        own_store = None
        for entry in replay.accesses:
            if (
                entry.thread_step < thread_step
                and entry.address == address
                and entry.is_write
            ):
                own_store = (thread_name, entry.thread_step, entry.value)
        if own_store is not None:
            return own_store
        for name, other in self.ordered.thread_replays.items():
            if name == thread_name:
                continue
            for entry in other.accesses:
                if entry.address == address and entry.is_write:
                    return (name, entry.thread_step, entry.value)
        return None

    def walk(self, thread_name: str, start: int = 0, count: int = 10) -> List[StepView]:
        """A window of consecutive step views — 'stepping' through history."""
        replay = self.ordered.thread_replays[thread_name]
        end = min(start + count, replay.steps)
        return [self.step_view(thread_name, step) for step in range(start, end)]

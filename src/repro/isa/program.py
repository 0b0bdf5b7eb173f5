"""Program model: code blocks, data layout, and thread entry points.

A :class:`Program` is the unit the machine executes and the recorder logs.
It consists of:

* one or more :class:`CodeBlock` objects — straight instruction sequences
  with internal labels.  Several threads may *share* one block (the
  ``.thread worker1 worker2`` form), which models the common real-world case
  of two threads running the same function.  A **static instruction** is
  identified by ``(block, index)`` — so a race between two threads running
  the same code is one *unique* race, exactly as the paper counts them.
* a data segment: named words laid out from :data:`DATA_BASE`.
* intent annotations: ``.intent <tag>`` source directives that attach a
  developer-intent tag to the next instruction.  These model the paper's
  "approximate computation — the developers told us the race was intended"
  ground truth and are **never** consulted by the classifier itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import ProgramValidationError
from .instructions import Instruction, validate_operands
from .operands import to_unsigned

#: Base address of the data segment (word addressed).
DATA_BASE = 0x1000

#: Base address of the heap used by ``sys_alloc``.
HEAP_BASE = 0x100000


@dataclass(frozen=True)
class StaticInstructionId:
    """Identity of a static instruction: which block, which index within it."""

    block: str
    index: int

    def __str__(self) -> str:
        return "%s:%d" % (self.block, self.index)

    def sort_key(self) -> Tuple[str, int]:
        return (self.block, self.index)


@dataclass(frozen=True)
class DataItem:
    """One named datum in the data segment."""

    name: str
    address: int
    values: Tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.values)


@dataclass
class CodeBlock:
    """A named, assembled instruction sequence shared by one or more threads."""

    name: str
    instructions: Tuple[Instruction, ...]
    labels: Dict[str, int] = field(default_factory=dict)
    #: Lazily predecoded dispatch records (see :mod:`repro.isa.predecode`)
    #: and the matching static-id table; shared by every thread running
    #: this block and by every machine executing this program object.
    _decoded: Optional[list] = field(default=None, repr=False, compare=False)
    _static_ids: Optional[Tuple[StaticInstructionId, ...]] = field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self) -> Dict[str, object]:
        # The decode caches hold bound callables (not picklable, and cheap
        # to rebuild); strip them so blocks ship cleanly to pool workers.
        state = self.__dict__.copy()
        state["_decoded"] = None
        state["_static_ids"] = None
        return state

    def __len__(self) -> int:
        return len(self.instructions)

    def instruction_at(self, index: int) -> Instruction:
        return self.instructions[index]

    def static_id(self, index: int) -> StaticInstructionId:
        return StaticInstructionId(self.name, index)

    def static_ids(self) -> Tuple[StaticInstructionId, ...]:
        """All static ids of this block, built once (replayer id source)."""
        if self._static_ids is None:
            self._static_ids = tuple(
                StaticInstructionId(self.name, index)
                for index in range(len(self.instructions))
            )
        return self._static_ids

    def decoded(self) -> list:
        """This block's predecoded dispatch records, built on first use."""
        if self._decoded is None:
            from .predecode import predecode_block

            self._decoded = predecode_block(self)
        return self._decoded


@dataclass
class Program:
    """A fully assembled multi-threaded program.

    Attributes:
        name: program name (used in reports and suppression keys).
        blocks: code blocks by name.
        threads: mapping thread name -> code block name, in spawn order.
        data: data items by symbol name.
        intents: developer-intent tags by static instruction id.
        source: original assembly text, if assembled from text.
    """

    name: str
    blocks: Dict[str, CodeBlock]
    threads: Dict[str, str]
    data: Dict[str, DataItem] = field(default_factory=dict)
    intents: Dict[StaticInstructionId, str] = field(default_factory=dict)
    source: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ProgramValidationError` on structural problems."""
        if not self.threads:
            raise ProgramValidationError("program %r has no threads" % self.name)
        for thread_name, block_name in self.threads.items():
            if block_name not in self.blocks:
                raise ProgramValidationError(
                    "thread %r references unknown block %r" % (thread_name, block_name)
                )
        for block in self.blocks.values():
            if not block.instructions:
                raise ProgramValidationError("block %r is empty" % block.name)
            for position, instruction in enumerate(block.instructions):
                problem = validate_operands(instruction.spec, instruction.operands)
                if problem is not None:
                    raise ProgramValidationError(
                        "block %r instruction %d: %s" % (block.name, position, problem)
                    )
        addresses_seen: Dict[int, str] = {}
        for item in self.data.values():
            for word_index in range(item.size):
                address = item.address + word_index
                if address in addresses_seen:
                    raise ProgramValidationError(
                        "data items %r and %r overlap at address %#x"
                        % (addresses_seen[address], item.name, address)
                    )
                addresses_seen[address] = item.name

    @property
    def thread_names(self) -> List[str]:
        return list(self.threads)

    def block_for_thread(self, thread_name: str) -> CodeBlock:
        return self.blocks[self.threads[thread_name]]

    def initial_memory(self) -> Dict[int, int]:
        """The data-segment image: address -> initial word value."""
        image: Dict[int, int] = {}
        for item in self.data.values():
            for word_index, value in enumerate(item.values):
                image[item.address + word_index] = to_unsigned(value)
        return image

    def data_address(self, symbol: str) -> int:
        return self.data[symbol].address

    def symbol_for_address(self, address: int) -> Optional[str]:
        """Best-effort reverse lookup of an address to ``symbol[+offset]``."""
        for item in self.data.values():
            if item.address <= address < item.address + item.size:
                offset = address - item.address
                return item.name if offset == 0 else "%s+%d" % (item.name, offset)
        return None

    def instruction(self, static_id: StaticInstructionId) -> Instruction:
        return self.blocks[static_id.block].instruction_at(static_id.index)

    def describe_instruction(self, static_id: StaticInstructionId) -> str:
        """Human-readable ``block:index: text`` description for reports."""
        instruction = self.instruction(static_id)
        text = instruction.source_text or str(instruction)
        return "%s: %s" % (static_id, text)

"""Benign-reason categorization (the paper's Table 2 taxonomy).

Section 5.4 groups the real-benign races into six categories.  In the
paper the grouping was manual; this module re-derives it automatically
from (a) static instruction patterns around the racing pair, (b) the
dynamic evidence gathered during classification, and (c) developer-intent
annotations (``.intent`` directives) for the "approximate computation"
category — the one category the paper could only learn by asking the
developers.

The categorizer is advisory: it feeds the ``suggested_reason`` field of
race reports and the Table 2 benchmark's automatic column.  Ground truth
for the benchmarks comes from the workload definitions, never from here.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..isa.instructions import Instruction
from ..isa.operands import Imm, Mem, Reg
from ..isa.program import CodeBlock, Program, StaticInstructionId
from .aggregate import RaceTally, StaticRaceResult
from .outcomes import Classification, InstanceOutcome


class BenignCategory(Enum):
    """The paper's Table 2 categories of benign data races."""

    USER_CONSTRUCTED_SYNC = "user-constructed-synchronization"
    DOUBLE_CHECK = "double-check"
    BOTH_VALUES_VALID = "both-values-valid"
    REDUNDANT_WRITE = "redundant-write"
    DISJOINT_BITS = "disjoint-bit-manipulation"
    APPROXIMATE = "approximate-computation"

    def __str__(self) -> str:
        return self.value


#: ``.intent`` tags recognised as category annotations.
INTENT_CATEGORIES: Dict[str, BenignCategory] = {
    "approximate": BenignCategory.APPROXIMATE,
    "approximate-computation": BenignCategory.APPROXIMATE,
    "statistics": BenignCategory.APPROXIMATE,
    "user-sync": BenignCategory.USER_CONSTRUCTED_SYNC,
    "both-values-valid": BenignCategory.BOTH_VALUES_VALID,
}


def _block_of(program: Program, static_id: StaticInstructionId) -> CodeBlock:
    return program.blocks[static_id.block]


def _is_spin_read(program: Program, static_id: StaticInstructionId) -> bool:
    """Is this load part of a busy-wait loop (read; test; branch back)?"""
    block = _block_of(program, static_id)
    instruction = block.instruction_at(static_id.index)
    if instruction.opcode != "load":
        return False
    window = block.instructions[static_id.index + 1 : static_id.index + 4]
    for offset, candidate in enumerate(window):
        if candidate.spec.is_branch and candidate.opcode != "jmp":
            target = candidate.operands[-1]
            if isinstance(target, Imm) and target.value <= static_id.index:
                return True
    return False


def _is_double_check_read(program: Program, static_id: StaticInstructionId) -> bool:
    """Unsynchronized read whose guarded path re-checks under a lock.

    Pattern: ``load r, [x]`` feeding a conditional branch, with a ``lock``
    instruction and a second ``load`` of the same location appearing later
    in the block (the paper's ``if(a) { lock(..) { if(a) ... } }``).
    """
    block = _block_of(program, static_id)
    instruction = block.instruction_at(static_id.index)
    if instruction.opcode != "load":
        return False
    mem_operand = instruction.mem_operand()
    branch_nearby = any(
        candidate.spec.is_branch and candidate.opcode != "jmp"
        for candidate in block.instructions[static_id.index + 1 : static_id.index + 4]
    )
    if not branch_nearby:
        return False
    saw_lock = False
    for candidate in block.instructions[static_id.index + 1 :]:
        if candidate.opcode == "lock":
            saw_lock = True
        elif (
            saw_lock
            and candidate.opcode == "load"
            and candidate.mem_operand() == mem_operand
        ):
            return True
    return False


def _mask_written(block: CodeBlock, store_index: int) -> Optional[int]:
    """Bit mask a racing store sets, if it is an ``or``-with-immediate chain."""
    store = block.instruction_at(store_index)
    if store.opcode != "store":
        return None
    stored_register = store.operands[0]
    if not isinstance(stored_register, Reg):
        return None
    for candidate in reversed(block.instructions[max(0, store_index - 4) : store_index]):
        if (
            candidate.opcode == "ori"
            and isinstance(candidate.operands[0], Reg)
            and candidate.operands[0].index == stored_register.index
        ):
            mask = candidate.operands[2]
            return mask.value if isinstance(mask, Imm) else None
    return None


def _mask_read(block: CodeBlock, load_index: int) -> Optional[int]:
    """Bit mask a racing load is immediately restricted to via ``andi``."""
    load = block.instruction_at(load_index)
    if load.opcode != "load":
        return None
    loaded_register = load.operands[0]
    for candidate in block.instructions[load_index + 1 : load_index + 4]:
        if (
            candidate.opcode == "andi"
            and isinstance(candidate.operands[1], Reg)
            and candidate.operands[1].index == loaded_register.index
        ):
            mask = candidate.operands[2]
            return mask.value if isinstance(mask, Imm) else None
    return None


def _is_disjoint_bits(program: Program, key) -> bool:
    """One side reads a bit field, the other writes a disjoint bit field."""
    masks: List[Optional[int]] = []
    for static_id in key:
        block = _block_of(program, static_id)
        instruction = block.instruction_at(static_id.index)
        if instruction.opcode == "load":
            masks.append(_mask_read(block, static_id.index))
        elif instruction.opcode == "store":
            masks.append(_mask_written(block, static_id.index))
        else:
            masks.append(None)
    if masks[0] is None or masks[1] is None:
        return False
    return (masks[0] & masks[1]) == 0


def categorize(
    result: "StaticRaceResult | RaceTally", program: Program
) -> Optional[BenignCategory]:
    """Suggest a benign-reason category for one static race.

    Returns ``None`` when no benign pattern applies (the race looks like a
    genuine bug).  Intent annotations win; then static patterns; then
    dynamic evidence; then the both-values-valid fallback for races whose
    every instance replayed identically.
    """
    for static_id in result.key:
        intent = program.intents.get(static_id)
        if intent is not None and intent in INTENT_CATEGORIES:
            return INTENT_CATEGORIES[intent]
    for static_id in result.key:
        if _is_double_check_read(program, static_id):
            return BenignCategory.DOUBLE_CHECK
    for static_id in result.key:
        if _is_spin_read(program, static_id):
            return BenignCategory.USER_CONSTRUCTED_SYNC
    if _is_disjoint_bits(program, result.key):
        return BenignCategory.DISJOINT_BITS
    if result.redundant_write:
        return BenignCategory.REDUNDANT_WRITE
    if result.classification is Classification.POTENTIALLY_BENIGN:
        return BenignCategory.BOTH_VALUES_VALID
    return None


def categorize_all(
    results: Dict, program: Program
) -> Dict[Tuple, Optional[BenignCategory]]:
    """Categorize every static race in a result map."""
    return {key: categorize(result, program) for key, result in results.items()}

"""Predecoded dispatch records: the input of every interpreter loop.

``Machine.run``'s hot loop originally re-derived everything about an
instruction on every step: it constructed a fresh
:class:`~repro.isa.program.StaticInstructionId`, chained string compares
over the mnemonic, isinstance-tested operands, and looked the ALU
function up by name.  All of that is a pure function of the *static*
instruction, so this module computes it once per :class:`CodeBlock` and
caches the result on the block (see :meth:`CodeBlock.decoded`).

Each instruction becomes one dense tuple whose first element is a small
integer *kind* and whose second is the precomputed static id; the
remaining slots are kind-specific, fully resolved operand fields
(register indices, unsigned immediates, bound ALU/branch callables,
branch target indices).  The machine (:mod:`repro.vm.thread`), the
thread replayer and the virtual processor dispatch on the kind with an
int if-chain — no string work, no operand objects, no per-step
allocation.

Predecoding is semantics-free by construction: every field is copied or
resolved from the same tables a string dispatcher consults
(:mod:`repro.vm.alu`, the opcode specs), and the equivalence tests
assert that the predecoded loops and the string-dispatch test oracles
produce byte-identical logs and replays.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..isa.operands import Imm, to_signed, to_unsigned

# Dispatch kinds, ordered roughly by dynamic frequency in the suite.
K_ALU_RI = 0  # (kind, sid, fn, dest, src, imm)
K_LOAD = 1  # (kind, sid, dest, base, offset)
K_BRANCH1 = 2  # (kind, sid, fn, reg, target)
K_STORE = 3  # (kind, sid, src, base, offset)
K_ALU_RR = 4  # (kind, sid, fn, dest, src1, src2)
K_LI = 5  # (kind, sid, dest, imm)
K_BRANCH2 = 6  # (kind, sid, fn, reg1, reg2, target)
K_MOV = 7  # (kind, sid, dest, src)
K_JMP = 8  # (kind, sid, target)
K_SYSCALL = 9  # (kind, sid, opcode, dest, imm_arg, reg_arg, is_yield)
K_LOCK = 10  # (kind, sid, base, offset)
K_UNLOCK = 11  # (kind, sid, base, offset)
K_ATOM_ADD = 12  # (kind, sid, dest, base, offset, src)
K_ATOM_XCHG = 13  # (kind, sid, dest, base, offset, src)
K_CAS = 14  # (kind, sid, dest, base, offset, expected, new)
K_FENCE = 15  # (kind, sid)
K_NOP = 16  # (kind, sid)
K_HALT = 17  # (kind, sid)

#: One predecoded instruction; slot 0 is the kind, slot 1 the static id.
DecodedRecord = Tuple

#: Kinds whose instructions touch memory (``spec.touches_memory``).  The
#: thread replayer keys its lazy per-step register snapshots on this: an
#: eager replay snapshots registers exactly before these kinds.
MEMORY_TOUCHING_KINDS = frozenset(
    (K_LOAD, K_STORE, K_LOCK, K_UNLOCK, K_ATOM_ADD, K_ATOM_XCHG, K_CAS)
)

#: Kinds whose instructions are sequencer points (``spec.is_sequencer_point``):
#: the syscalls and the sync instructions.  A replay region ends on one.
SEQUENCER_KINDS = frozenset(
    (K_SYSCALL, K_LOCK, K_UNLOCK, K_ATOM_ADD, K_ATOM_XCHG, K_CAS, K_FENCE)
)


def _alu_fn(opcode: str) -> Callable[[int, int], int]:
    """The raw two-word ALU callable for a (possibly immediate-form) opcode.

    Callers feed already-unsigned words and mask the result, which is
    exactly what :func:`repro.vm.alu.binary_op` does around the same
    table — resolved here once instead of per step.
    """
    from ..vm import alu

    return alu._BINARY_OPS[alu.IMMEDIATE_FORMS.get(opcode, opcode)]


_BRANCH2_FNS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: to_signed(a) < to_signed(b),
    "bge": lambda a, b: to_signed(a) >= to_signed(b),
}

_BRANCH1_FNS = {
    "beqz": lambda a: a == 0,
    "bnez": lambda a: a != 0,
}


def predecode_block(block) -> List[DecodedRecord]:
    """Predecode every instruction of ``block`` into dispatch records."""
    from ..vm import alu

    records: List[DecodedRecord] = []
    static_ids = block.static_ids()
    for index, instruction in enumerate(block.instructions):
        sid = static_ids[index]
        opcode = instruction.opcode
        operands = instruction.operands
        if opcode == "li":
            record = (K_LI, sid, operands[0].index, to_unsigned(operands[1].value))
        elif opcode == "mov":
            record = (K_MOV, sid, operands[0].index, operands[1].index)
        elif alu.is_binary_op(opcode):
            fn = _alu_fn(opcode)
            if isinstance(operands[2], Imm):
                record = (
                    K_ALU_RI,
                    sid,
                    fn,
                    operands[0].index,
                    operands[1].index,
                    to_unsigned(operands[2].value),
                )
            else:
                record = (
                    K_ALU_RR,
                    sid,
                    fn,
                    operands[0].index,
                    operands[1].index,
                    operands[2].index,
                )
        elif opcode == "load":
            mem = operands[1]
            record = (K_LOAD, sid, operands[0].index, mem.base, mem.offset)
        elif opcode == "store":
            mem = operands[1]
            record = (K_STORE, sid, operands[0].index, mem.base, mem.offset)
        elif opcode == "jmp":
            record = (K_JMP, sid, operands[0].value)
        elif opcode in _BRANCH2_FNS:
            record = (
                K_BRANCH2,
                sid,
                _BRANCH2_FNS[opcode],
                operands[0].index,
                operands[1].index,
                operands[2].value,
            )
        elif opcode in _BRANCH1_FNS:
            record = (
                K_BRANCH1,
                sid,
                _BRANCH1_FNS[opcode],
                operands[0].index,
                operands[1].value,
            )
        elif opcode == "lock":
            record = (K_LOCK, sid, operands[0].base, operands[0].offset)
        elif opcode == "unlock":
            record = (K_UNLOCK, sid, operands[0].base, operands[0].offset)
        elif opcode in ("atom_add", "atom_xchg"):
            mem = operands[1]
            record = (
                K_ATOM_ADD if opcode == "atom_add" else K_ATOM_XCHG,
                sid,
                operands[0].index,
                mem.base,
                mem.offset,
                operands[2].index,
            )
        elif opcode == "cas":
            mem = operands[1]
            record = (
                K_CAS,
                sid,
                operands[0].index,
                mem.base,
                mem.offset,
                operands[2].index,
                operands[3].index,
            )
        elif opcode == "fence":
            record = (K_FENCE, sid)
        elif instruction.spec.is_syscall:
            dest: Optional[int] = None
            imm_arg: Optional[int] = None
            reg_arg: Optional[int] = None
            if opcode in ("sys_getpid", "sys_time"):
                dest = operands[0].index
            elif opcode == "sys_rand":
                dest = operands[0].index
                imm_arg = operands[1].value
            elif opcode == "sys_alloc":
                dest = operands[0].index
                reg_arg = operands[1].index
            elif opcode in ("sys_free", "sys_print"):
                reg_arg = operands[0].index
            record = (
                K_SYSCALL,
                sid,
                opcode,
                dest,
                imm_arg,
                reg_arg,
                opcode == "sys_yield",
            )
        elif opcode == "nop":
            record = (K_NOP, sid)
        elif opcode == "halt":
            record = (K_HALT, sid)
        else:  # pragma: no cover - opcode table and predecoder kept in sync
            raise NotImplementedError("cannot predecode opcode %r" % opcode)
        records.append(record)
    return records


__all__ = [name for name in list(globals()) if name.startswith("K_")] + [
    "DecodedRecord",
    "MEMORY_TOUCHING_KINDS",
    "SEQUENCER_KINDS",
    "predecode_block",
]

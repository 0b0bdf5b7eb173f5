"""Sparse word-addressed shared memory with a bump heap allocator.

The memory model is deliberately simple but safety-checked:

* addresses are positive integers naming 64-bit words; reads of
  never-written words return 0 (zero-filled memory);
* address 0 is the null page — any access faults with ``NULL_DEREF``;
* ``alloc``/``free`` implement a bump allocator over :data:`HEAP_BASE`
  that *never reuses* freed space, so every use-after-free and double-free
  is detectable for the lifetime of the run.  This is what lets harmful
  races of the paper's Figure 2 kind (racy ref-count / ``free``) crash
  observably instead of corrupting silently.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..isa.operands import to_unsigned
from ..isa.program import HEAP_BASE
from .errors import FaultKind, MemoryFault


class Memory:
    """Flat shared memory plus heap-allocation bookkeeping."""

    def __init__(self, initial: Optional[Dict[int, int]] = None):
        self._words: Dict[int, int] = dict(initial or {})
        self._next_heap = HEAP_BASE
        self._allocations: Dict[int, int] = {}  # base -> size (live)
        self._freed: Dict[int, int] = {}  # base -> size (freed, never reused)

    # ------------------------------------------------------------------
    # Word access.
    # ------------------------------------------------------------------

    def _check(self, address: int) -> None:
        if address <= 0:
            if address == 0:
                raise MemoryFault(FaultKind.NULL_DEREF, address)
            raise MemoryFault(FaultKind.BAD_ADDRESS, address, "negative address")
        if not self._freed:  # nothing freed yet: skip the range scan entirely
            return
        freed_base = self._freed_base_of(address)
        if freed_base is not None:
            raise MemoryFault(
                FaultKind.USE_AFTER_FREE,
                address,
                "inside freed allocation at %#x" % freed_base,
            )

    def read(self, address: int) -> int:
        """Read one word; unwritten words read as 0."""
        self._check(address)
        return self._words.get(address, 0)

    def write(self, address: int, value: int) -> int:
        """Write one word; returns the old value (used by store logging)."""
        self._check(address)
        old = self._words.get(address, 0)
        self._words[address] = to_unsigned(value)
        return old

    def peek(self, address: int) -> int:
        """Read without safety checks (for observers/analysis, never programs)."""
        return self._words.get(address, 0)

    # ------------------------------------------------------------------
    # Heap.
    # ------------------------------------------------------------------

    def alloc(self, size: int) -> int:
        """Allocate ``size`` words; returns the base address."""
        if size <= 0:
            raise MemoryFault(FaultKind.BAD_ADDRESS, 0, "alloc of non-positive size")
        base = self._next_heap
        self._next_heap += size
        self._allocations[base] = size
        for offset in range(size):
            self._words[base + offset] = 0
        return base

    def free(self, base: int) -> None:
        """Free a live allocation; faults on double free or a bad pointer."""
        if base in self._freed:
            raise MemoryFault(FaultKind.DOUBLE_FREE, base)
        size = self._allocations.pop(base, None)
        if size is None:
            raise MemoryFault(FaultKind.BAD_FREE, base, "not an allocation base")
        self._freed[base] = size

    def _freed_base_of(self, address: int) -> Optional[int]:
        for base, size in self._freed.items():
            if base <= address < base + size:
                return base
        return None

    def is_freed(self, address: int) -> bool:
        return self._freed_base_of(address) is not None

    # ------------------------------------------------------------------
    # Snapshots (used by analysis and the virtual processor live-in state).
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[int, int]:
        """A copy of every written word."""
        return dict(self._words)

    def heap_state(self) -> Tuple[int, Dict[int, int], Dict[int, int]]:
        """``(next_heap, live allocations, freed allocations)`` copies."""
        return self._next_heap, dict(self._allocations), dict(self._freed)

    def restore_heap_state(
        self, state: Tuple[int, Dict[int, int], Dict[int, int]]
    ) -> None:
        self._next_heap, allocations, freed = state
        self._allocations = dict(allocations)
        self._freed = dict(freed)

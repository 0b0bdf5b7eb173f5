"""Lock table: blocking mutexes addressed by memory location.

A ``lock [addr]`` instruction acquires the mutex whose identity *is* the
memory address; while held, the word at ``addr`` reads as 1, and 0 when
free, so the lock state is an ordinary part of the shared-memory image
(mirroring an x86 spinlock word updated by lock-prefixed instructions).

Acquisition order is the order in which the machine grants the lock — each
grant is a sequencer point, which is exactly what gives iDNA its total
order over synchronization operations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .errors import FaultKind, MemoryFault


class LockTable:
    """Tracks lock ownership and FIFO waiters per lock address."""

    def __init__(self) -> None:
        self._owners: Dict[int, int] = {}
        self._waiters: Dict[int, List[int]] = {}

    def owner(self, address: int) -> Optional[int]:
        return self._owners.get(address)

    def is_held(self, address: int) -> bool:
        return address in self._owners

    def try_acquire(self, tid: int, address: int) -> bool:
        """Acquire if free; returns False (caller should block) when held."""
        current = self._owners.get(address)
        if current is None:
            self._owners[address] = tid
            return True
        if current == tid:
            raise MemoryFault(
                FaultKind.LOCK_MISUSE, address, "recursive acquire by thread %d" % tid
            )
        return False

    def add_waiter(self, tid: int, address: int) -> None:
        waiters = self._waiters.setdefault(address, [])
        if tid not in waiters:
            waiters.append(tid)

    def release(self, tid: int, address: int) -> Optional[int]:
        """Release the lock; returns the next FIFO waiter to wake, if any."""
        current = self._owners.get(address)
        if current != tid:
            raise MemoryFault(
                FaultKind.LOCK_MISUSE,
                address,
                "release by thread %d but owner is %s" % (tid, current),
            )
        del self._owners[address]
        waiters = self._waiters.get(address)
        if waiters:
            return waiters.pop(0)
        return None

    def waiters(self, address: int) -> List[int]:
        return list(self._waiters.get(address, []))

"""Data model for races: dynamic instances and unique static races.

The paper's accounting distinguishes:

* a **data race instance** — one concrete pair of conflicting, unordered
  dynamic memory operations (16,642 of these in the paper's corpus);
* a **unique (static) data race** — the pair of static instructions
  involved (68 of these).  Many instances map to one static race, within
  one execution and across executions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..isa.program import Program, StaticInstructionId
from ..replay.regions import SequencingRegion

#: A unique static race: the two static instructions, canonically ordered.
StaticRaceKey = Tuple[StaticInstructionId, StaticInstructionId]


def static_race_key(
    first: StaticInstructionId, second: StaticInstructionId
) -> StaticRaceKey:
    """Canonical (sorted) static-race key for an instruction pair."""
    if first.sort_key() <= second.sort_key():
        return (first, second)
    return (second, first)


def static_key_to_text(key: StaticRaceKey) -> str:
    """The canonical ``"block:i|block:j"`` text form of a static race key.

    This is the identity every persistence surface shares — exported
    reports, the fleet store's records and its suppression rules all
    spell a unique race exactly this way, so records written by one
    tool resolve in another.
    """
    return "%s|%s" % (key[0], key[1])


def static_key_from_text(text: str) -> StaticRaceKey:
    """Parse :func:`static_key_to_text` output back into a key."""
    parts = text.split("|")
    if len(parts) != 2:
        raise ValueError(
            "expected a static race key like 'block:3|block:5', got %r" % text
        )

    def parse(one: str) -> StaticInstructionId:
        block, _, index = one.rpartition(":")
        return StaticInstructionId(block=block, index=int(index))

    return (parse(parts[0]), parse(parts[1]))


def describe_static_race(key: StaticRaceKey, program: Program) -> str:
    """Human-readable description of a static race for reports."""
    return "%s  <->  %s" % (
        program.describe_instruction(key[0]),
        program.describe_instruction(key[1]),
    )


@dataclass(frozen=True)
class RaceAccess:
    """One side of a race instance: a dynamic memory operation."""

    thread_name: str
    tid: int
    thread_step: int
    static_id: StaticInstructionId
    address: int
    value: int
    is_write: bool

    def __str__(self) -> str:
        kind = "W" if self.is_write else "R"
        return "%s@%s step %d %s[%#x]=%d" % (
            self.thread_name,
            self.static_id,
            self.thread_step,
            kind,
            self.address,
            self.value,
        )


@dataclass(frozen=True)
class RaceInstance:
    """One dynamic data race: two conflicting accesses in overlapping regions.

    ``access_a`` belongs to the region whose opening sequencer is earlier
    (ties broken by tid) — the canonical "originally first" side when no
    finer-grained order information is available.
    """

    access_a: RaceAccess
    access_b: RaceAccess
    region_a: SequencingRegion
    region_b: SequencingRegion

    @property
    def address(self) -> int:
        return self.access_a.address

    @property
    def static_key(self) -> StaticRaceKey:
        return static_race_key(self.access_a.static_id, self.access_b.static_id)

    @property
    def involves_write(self) -> bool:
        return self.access_a.is_write or self.access_b.is_write

    def __str__(self) -> str:
        return "race on %#x: %s || %s" % (self.address, self.access_a, self.access_b)

"""Event model produced by replaying one thread from its log.

The thread replayer (:meth:`ThreadReplayer.run`) produces a
:class:`ThreadReplay` backed by lazy views: accesses live in
columnar parallel arrays and become :class:`ReplayedAccess` objects only
when indexed (:class:`LazyAccessList`), per-step static ids are a view
over the block's table (:class:`StaticIdView`), region-boundary
register snapshots come from the replay's own boundary checkpoints, and
per-access snapshots are reconstructed on first lookup from the nearest
checkpoint (:class:`LazyRegisterDict`).  :meth:`ThreadReplay.materialized` converts
either representation to the plain eager one, which the equivalence
tests compare byte for byte.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..isa.program import StaticInstructionId


@dataclass(frozen=True)
class ReplayedAccess:
    """One memory access reconstructed during replay."""

    thread_step: int
    static_id: StaticInstructionId
    address: int
    value: int
    is_write: bool
    is_sync: bool


#: One access as plain data: ``(step offset, address, value, is_write,
#: is_sync)``.
AccessRow = Tuple[int, int, int, bool, bool]


class StaticIdView:
    """Per-step static ids as a view: ``block.static_ids()[pcs[step]]``.

    The replayer already has the pc trace, so the table lookup is done on
    demand instead of storing one entry per retired instruction.  Supports
    indexing (int and slice), iteration, ``len`` and equality against any
    sequence.
    """

    __slots__ = ("_table", "_pcs")

    def __init__(self, table: Tuple[StaticInstructionId, ...], pcs: List[int]):
        self._table = table
        self._pcs = pcs

    def __len__(self) -> int:
        return len(self._pcs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            table = self._table
            return [table[pc] for pc in self._pcs[index]]
        return self._table[self._pcs[index]]

    def __iter__(self) -> Iterator[StaticInstructionId]:
        table = self._table
        for pc in self._pcs:
            yield table[pc]

    def __eq__(self, other) -> bool:
        if isinstance(other, StaticIdView):
            if self._table is other._table or self._table == other._table:
                if self._pcs == other._pcs:
                    return True
        try:
            if len(other) != len(self):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        except TypeError:
            return NotImplemented

    def __repr__(self) -> str:
        return "StaticIdView(%d steps)" % len(self._pcs)


class LazyAccessList:
    """Columnar access rows materialized into :class:`ReplayedAccess`
    objects only when indexed.

    Parallel arrays match :class:`~repro.record.log.ThreadAccessColumns`:
    ``flags`` packs bit 0 = write, bit 1 = sync.  ``static_ids`` is any
    per-*step* sequence (e.g. a :class:`StaticIdView`): every row of one
    step comes from the same instruction.  Materialized objects are
    cached so repeated indexing returns identical (and ``is``-identical)
    instances.
    """

    __slots__ = ("_steps", "_addresses", "_values", "_flags", "_static_ids", "_cache", "_perf")

    def __init__(
        self,
        steps: List[int],
        addresses: List[int],
        values: List[int],
        flags: List[int],
        static_ids,
        perf=None,
    ):
        self._steps = steps
        self._addresses = addresses
        self._values = values
        self._flags = flags
        self._static_ids = static_ids
        self._cache: List[Optional[ReplayedAccess]] = [None] * len(steps)
        self._perf = perf

    def __len__(self) -> int:
        return len(self._steps)

    def _materialize(self, index: int) -> ReplayedAccess:
        access = self._cache[index]
        if access is None:
            step = self._steps[index]
            flag = self._flags[index]
            access = ReplayedAccess(
                thread_step=step,
                static_id=self._static_ids[step],
                address=self._addresses[index],
                value=self._values[index],
                is_write=bool(flag & 1),
                is_sync=bool(flag & 2),
            )
            self._cache[index] = access
            if self._perf is not None:
                self._perf.replay_accesses_materialized += 1
        return access

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._materialize(i) for i in range(*index.indices(len(self._steps)))]
        if index < 0:
            index += len(self._steps)
        return self._materialize(index)

    def __iter__(self) -> Iterator[ReplayedAccess]:
        for index in range(len(self._steps)):
            yield self._materialize(index)

    def rows(self, lo: int, hi: int, origin: int) -> Tuple[AccessRow, ...]:
        """Rows ``[lo, hi)`` as plain :data:`AccessRow` tuples, steps
        counted from ``origin``, read straight from the columns."""
        flags = self._flags[lo:hi]
        return tuple(
            zip(
                [step - origin for step in self._steps[lo:hi]],
                self._addresses[lo:hi],
                self._values[lo:hi],
                [bool(flag & 1) for flag in flags],
                [bool(flag & 2) for flag in flags],
            )
        )

    def __eq__(self, other) -> bool:
        try:
            if len(other) != len(self):
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        except TypeError:
            return NotImplemented

    def __repr__(self) -> str:
        return "LazyAccessList(%d rows)" % len(self._steps)


class LazyRegisterDict(dict):
    """Register snapshots computed on first lookup.

    Present items are ordinary dict entries; missing-but-*valid* keys are
    reconstructed by the ``reconstructor`` (targeted partial re-execution
    from the nearest checkpoint, see
    :class:`~repro.replay.thread_replayer.RegisterReconstructor`) and
    cached.  Validity is either an explicit ``valid_steps`` set (region
    boundaries) or — when ``valid_steps`` is ``None`` — "the step's
    instruction touches memory", matching which steps an eager replay
    snapshots.  Invalid keys raise :class:`KeyError` exactly
    like a plain dict, so callers' divergence handling is unchanged.
    """

    def __init__(self, reconstructor, valid_steps: Optional[frozenset] = None):
        super().__init__()
        self._reconstructor = reconstructor
        self._valid_steps = valid_steps

    def _is_valid(self, step) -> bool:
        if self._valid_steps is not None:
            return step in self._valid_steps
        return self._reconstructor.is_memory_step(step)

    def __missing__(self, step) -> Tuple[int, ...]:
        if not self._is_valid(step):
            raise KeyError(step)
        value = self._reconstructor.state_before(step)
        self[step] = value
        return value

    def __contains__(self, step) -> bool:
        return dict.__contains__(self, step) or self._is_valid(step)

    def get(self, step, default=None):
        try:
            return self[step]
        except KeyError:
            return default

    def materialize_all(self) -> Dict[int, Tuple[int, ...]]:
        """Plain dict with every valid (and every already-present) key."""
        keys = set(dict.keys(self))
        if self._valid_steps is not None:
            keys |= set(self._valid_steps)
        else:
            keys.update(self._reconstructor.memory_steps())
        return {step: self[step] for step in sorted(keys)}


@dataclass(frozen=True)
class HeapEvent:
    """An allocation or free reconstructed during replay.

    ``size`` is recovered from the replayed register state (iDNA-style logs
    record only syscall *results*; the replay re-derives the arguments).
    """

    thread_step: int
    kind: str  # "alloc" | "free"
    base: int
    size: int


@dataclass
class ThreadReplay:
    """The result of replaying one thread in isolation.

    ``region_start_registers``/``region_start_pcs`` give the architectural
    live-in at each sequencing-region start step — the state the virtual
    processor is initialised with.  ``region_end_registers``/
    ``region_end_pcs`` give the state just *before* each boundary
    (sequencer-point) step executes — the region live-out, which lets the
    classifier reconstruct the original-order replay without re-executing
    it.  ``registers_at_step`` snapshots the registers just before every
    plain memory access, so an alternative-order replay can fast-forward
    straight to the racing operation.
    """

    name: str
    tid: int
    steps: int
    pcs: List[int] = field(default_factory=list)
    static_ids: List[StaticInstructionId] = field(default_factory=list)
    accesses: List[ReplayedAccess] = field(default_factory=list)
    heap_events: List[HeapEvent] = field(default_factory=list)
    region_start_registers: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    region_start_pcs: Dict[int, int] = field(default_factory=dict)
    region_end_registers: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    region_end_pcs: Dict[int, int] = field(default_factory=dict)
    registers_at_step: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    final_registers: Tuple[int, ...] = ()
    final_pc: int = 0
    output: List[Tuple[str, int]] = field(default_factory=list)

    # Lazily built indexes (accesses are appended in step order, so the
    # step list is sorted and bisectable).  ``None`` until first use.
    _access_steps: Optional[List[int]] = field(
        default=None, repr=False, compare=False
    )
    #: The :class:`~repro.replay.thread_replayer.RegisterReconstructor`
    #: behind the lazy register views; ``None`` on an eager replay.
    _reconstructor: Optional[object] = field(
        default=None, repr=False, compare=False
    )

    def registers_before(self, step: int) -> Tuple[int, ...]:
        """The register file just before ``step`` executes, for any step
        (``steps`` gives the end state), re-executed from the nearest
        checkpoint."""
        if step == self.steps:
            return self.final_registers
        return self._reconstructor.state_before(step)

    def accesses_in_steps(self, start_step: int, end_step: int) -> List[ReplayedAccess]:
        """All accesses with ``start_step <= thread_step < end_step``."""
        if self._access_steps is None:
            self._access_steps = [access.thread_step for access in self.accesses]
        lo = bisect_left(self._access_steps, start_step)
        hi = bisect_left(self._access_steps, end_step, lo)
        return self.accesses[lo:hi]

    def region_rows(self, start_step: int, end_step: int) -> Tuple[AccessRow, ...]:
        """The accesses with ``start_step <= thread_step < end_step`` as
        :data:`AccessRow` tuples, steps counted from ``start_step``; no
        :class:`ReplayedAccess` is materialized on a lazy replay."""
        if self._access_steps is None:
            self._access_steps = [access.thread_step for access in self.accesses]
        lo = bisect_left(self._access_steps, start_step)
        hi = bisect_left(self._access_steps, end_step, lo)
        if isinstance(self.accesses, LazyAccessList):
            return self.accesses.rows(lo, hi, start_step)
        return tuple(
            (
                access.thread_step - start_step,
                access.address,
                access.value,
                access.is_write,
                access.is_sync,
            )
            for access in self.accesses[lo:hi]
        )

    def access_at(
        self, thread_step: int, address: Optional[int] = None
    ) -> Optional[ReplayedAccess]:
        for access in self.accesses_in_steps(thread_step, thread_step + 1):
            if address is None or access.address == address:
                return access
        return None

    def materialized(self) -> "ThreadReplay":
        """A fully-eager copy: lazy views become plain lists and dicts.

        The equivalence tests compare this against the eager replay of the
        test oracle byte for byte.  An eager replay materializes to a copy
        equal to itself.
        """

        def plain(snapshot_dict):
            if isinstance(snapshot_dict, LazyRegisterDict):
                return snapshot_dict.materialize_all()
            return dict(snapshot_dict)

        return ThreadReplay(
            name=self.name,
            tid=self.tid,
            steps=self.steps,
            pcs=list(self.pcs),
            static_ids=list(self.static_ids),
            accesses=list(self.accesses),
            heap_events=list(self.heap_events),
            region_start_registers=plain(self.region_start_registers),
            region_start_pcs=dict(self.region_start_pcs),
            region_end_registers=plain(self.region_end_registers),
            region_end_pcs=dict(self.region_end_pcs),
            registers_at_step=plain(self.registers_at_step),
            final_registers=self.final_registers,
            final_pc=self.final_pc,
            output=list(self.output),
        )

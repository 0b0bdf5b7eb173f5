"""Replay-log data model (the iDNA-analog log format).

One :class:`ReplayLog` captures one execution.  Per thread it holds:

* the initial architectural state (registers, entry pc — always the zero
  state in this machine, recorded anyway so the format stands alone),
* **load records** — the values of exactly those loads whose value could
  not be predicted from the thread's own prior loads and stores (iDNA's
  load-based checkpointing: the first access to a location is logged, and
  later loads are logged only when the external world — another thread, a
  syscall — changed the value underneath the thread),
* **syscall records** — every syscall result (system-interaction
  nondeterminism),
* **sequencers** — globally timestamped markers at every synchronization
  instruction and syscall, plus thread start/end,
* the executed-pc footprint (used to detect "control flow the log never
  saw" during alternative-order replay, the paper's §4.2.1 failure mode),
* how the thread ended (halt or fault).

The log embeds the program's assembly source, so a log file alone is
sufficient to replay.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..isa.program import Program, StaticInstructionId


#: :meth:`ReplayLog.global_positions`' entry for a step not in the order.
NOT_IN_ORDER = -1


@dataclass(frozen=True)
class LoadRecord:
    """Value of one unpredictable load, keyed by the thread step it retired at."""

    thread_step: int
    address: int
    value: int


@dataclass(frozen=True)
class SyscallRecord:
    """Result of one syscall."""

    thread_step: int
    name: str
    result: int


@dataclass(frozen=True)
class SequencerRecord:
    """One sequencer: a point in the global total order of synchronization.

    ``thread_step`` is the step at which the sequencer-point instruction
    retired; thread-start sequencers use step -1 and thread-end sequencers
    use the final step count (one past the last retired instruction), so a
    *sequencing region* is always the open interval between two consecutive
    sequencer steps of one thread.
    """

    thread_step: int
    timestamp: int
    kind: str
    static_id: Optional[StaticInstructionId] = None


@dataclass
class ThreadAccessColumns:
    """Columnar capture of every data access one thread performed.

    Parallel arrays in event order (``steps`` is non-decreasing: the
    thread-step counter only moves forward).  ``flags`` packs bit 0 =
    write, bit 1 = synchronization access.  Store rows carry the *new*
    value — the value the location holds after the access, matching what
    replay reconstructs.

    ``heap_*`` are a second set of parallel arrays recording heap
    lifecycle syscalls (``heap_kinds`` holds ``"alloc"`` or ``"free"``),
    mirroring the :class:`~repro.replay.events.HeapEvent` stream the
    thread replayer derives — the ordered-replay walk needs them to
    zero fresh allocations and track freed ranges without replaying.
    """

    steps: List[int] = field(default_factory=list)
    addresses: List[int] = field(default_factory=list)
    values: List[int] = field(default_factory=list)
    flags: List[int] = field(default_factory=list)
    static_ids: List[StaticInstructionId] = field(default_factory=list)
    heap_steps: List[int] = field(default_factory=list)
    heap_kinds: List[str] = field(default_factory=list)
    heap_bases: List[int] = field(default_factory=list)
    heap_sizes: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class CapturedAccessColumns:
    """All access columns of one recorded run, keyed by thread name.

    Built by the recorder at :meth:`Recorder.finish`; lets
    :class:`~repro.analysis.access_index.AccessIndex` and the ordered
    replay come straight from the recording instead of re-deriving every
    access by replaying.  Binary containers (format v3+) carry these
    columns, so logs round-tripped through ``save_log``/``load_log`` keep
    them; JSON logs and suite-cache entries do not — those fall back to
    the replay-derived path.
    """

    threads: Dict[str, ThreadAccessColumns] = field(default_factory=dict)
    predicted_loads: int = 0

    @property
    def total_events(self) -> int:
        return sum(len(columns) for columns in self.threads.values())


@dataclass
class ThreadEnd:
    """How a thread's recording ended."""

    thread_step: int
    reason: str
    fault_kind: Optional[str] = None


@dataclass
class ThreadLog:
    """Everything recorded about one thread."""

    name: str
    tid: int
    block: str
    initial_registers: Tuple[int, ...]
    loads: Dict[int, LoadRecord] = field(default_factory=dict)
    syscalls: Dict[int, SyscallRecord] = field(default_factory=dict)
    sequencers: List[SequencerRecord] = field(default_factory=list)
    pc_footprint: Set[int] = field(default_factory=set)
    steps: int = 0
    end: Optional[ThreadEnd] = None

    def load_at(self, thread_step: int) -> Optional[LoadRecord]:
        return self.loads.get(thread_step)

    def syscall_at(self, thread_step: int) -> Optional[SyscallRecord]:
        return self.syscalls.get(thread_step)

    @property
    def record_count(self) -> int:
        return len(self.loads) + len(self.syscalls) + len(self.sequencers)


@dataclass
class ReplayLog:
    """A complete recorded execution: per-thread logs plus provenance.

    ``global_order`` optionally lists ``(tid, thread_step)`` in the global
    retirement order.  iDNA does not have this for plain memory operations;
    it is recorded here when ``capture_global_order`` is on.  It is not
    just debug information: the classifier's ``_original_first`` takes
    from it which of two racing operations ran first, and so which
    replay is the original one.  Without it, the classifier falls back
    to "the region that opened first", which changes verdicts: the
    paper suite's instances split 547/384/99 (no state change / state
    change / replay failure) without the order against 524/406/100 with
    it (ROADMAP item 10).  Analyses run without the order, but tests
    check only that they run, not the verdicts they give.
    """

    program_name: str
    program_source: str
    threads: Dict[str, ThreadLog]
    seed: int = 0
    scheduler: str = ""
    global_order: Optional[List[Tuple[int, int]]] = None
    #: Columnar access capture from the recording machine, when this log
    #: came from a live :class:`Recorder` or a binary container (format
    #: v3+ persists the columns; JSON and older containers drop them).
    #: Excluded from equality: a round-tripped log equals its original.
    captured: Optional[CapturedAccessColumns] = field(
        default=None, compare=False, repr=False
    )

    @property
    def total_instructions(self) -> int:
        return sum(thread.steps for thread in self.threads.values())

    @property
    def total_records(self) -> int:
        return sum(thread.record_count for thread in self.threads.values())

    def reassemble_program(self) -> Program:
        """Rebuild the :class:`Program` embedded in this log."""
        from ..isa.assembler import assemble

        return assemble(self.program_source, name=self.program_name)

    def global_position(self, tid: int, thread_step: int) -> Optional[int]:
        """Index of ``(tid, thread_step)`` in the recorded global order."""
        positions = self.global_positions()
        if positions is None:
            return None
        column = positions.get(tid)
        if column is None or not 0 <= thread_step < len(column):
            return None
        position = column[thread_step]
        return None if position == NOT_IN_ORDER else position

    def global_positions(self) -> Optional[Dict[int, "array[int]"]]:
        """Per tid, an ``array`` whose entry ``step`` is the index of
        ``(tid, step)`` in the recorded global order (its first index,
        for an order with repeated entries), or :data:`NOT_IN_ORDER`;
        ``None`` without an order.

        Each thread's array has one entry per step the thread ran, so
        ``positions[tid][step]`` answers any in-range step; entries of
        the order outside ``0 <= step < steps`` (which ``validate_log``
        reports) are left out.  Indexed once per order on first query
        (the classifier asks per race instance); the index remembers
        the order object and the length it was built from, so replacing
        or extending the order rebuilds it.
        """
        order = self.global_order
        if order is None:
            return None
        built = getattr(self, "_position_index", None)
        if built is None or built[0] is not order or built[1] != len(order):
            index: Dict[int, "array[int]"] = {
                thread.tid: array("q", [NOT_IN_ORDER]) * thread.steps
                for thread in self.threads.values()
            }
            for position, (tid, step) in enumerate(order):
                column = index.get(tid)
                # First occurrence wins, as with list.index.
                if column is not None and 0 <= step < len(column):
                    if column[step] == NOT_IN_ORDER:
                        column[step] = position
            built = (order, len(order), index)
            self._position_index = built
        return built[2]

"""The iDNA-analog recorder: an observer implementing load-based checkpointing.

Attach a :class:`Recorder` to a machine run and call :meth:`finish` for the
:class:`ReplayLog`.  The policy is the paper's Section 3.1, transliterated:

* maintain, per thread, a *prediction cache* — the memory image the thread
  could reconstruct from its own past loads and stores;
* on a load, log the value only when the cache mispredicts (first access,
  or another thread / the system modified the location in between);
* log every syscall result;
* log a sequencer (global monotone timestamp) at every synchronization
  instruction and syscall, plus thread start/end.

The recorder never reads machine internals — it sees only observer events,
so it records exactly the information a binary instrumentation engine could.

Capture is *columnar*: each observer hook appends scalars to parallel
per-thread arrays instead of constructing a record object per event, and
:meth:`finish` assembles the dataclass-shaped :class:`ReplayLog` once at the
end.  The same columns double as the full access trace
(:class:`CapturedAccessColumns` on the returned log), which lets the
analysis pipeline build its :class:`~repro.analysis.access_index.AccessIndex`
straight from the recording instead of re-deriving every access by replay.

**Segment streaming.**  Attached to a
:class:`~repro.record.binary_format.SegmentedLogWriter` ``sink``, the
recorder flushes the access and heap columns to disk *while the machine
is still running*: each sequencer ships the rows it claims (thread step
≤ the sequencer's) into the writer — which seals a v5 segment whenever
its cost window fills — and deletes them from the in-memory arrays.  The
VM emits a sync instruction's sequencer *before* that instruction's own
access hooks, so a sequencer is held until the next sequencer of any
thread (or :meth:`Recorder.finish`), when every row at its step has been
captured.  The sink therefore claims the rows ``encode_log_segmented``
attaches and cuts where it cuts: a recorded container is byte-identical
to re-encoding its decoded log at the same budget.

Only the shipped access and heap rows leave memory.  The global order
(two list entries per executed instruction), the logged loads and
syscalls and the pc footprint stay resident until :meth:`Recorder.finish`
writes them into the trailer, so recorder memory still grows with the
run (ROADMAP item 1).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

from ..isa.program import Program
from ..vm.observers import Observer
from .log import (
    CapturedAccessColumns,
    LoadRecord,
    ReplayLog,
    SequencerRecord,
    SyscallRecord,
    ThreadAccessColumns,
    ThreadEnd,
    ThreadLog,
)


class _ThreadCapture:
    """Columnar accumulation for one thread (parallel arrays, one row per
    event).  Split from :class:`ThreadLog` so the hot observer hooks touch
    only list appends and one dict probe."""

    __slots__ = (
        "name",
        "tid",
        "block",
        "cache",
        "load_steps",
        "load_addresses",
        "load_values",
        "syscall_steps",
        "syscall_names",
        "syscall_results",
        "seq_steps",
        "seq_timestamps",
        "seq_kinds",
        "seq_static_ids",
        "access_steps",
        "access_addresses",
        "access_values",
        "access_flags",
        "access_static_ids",
        "heap_steps",
        "heap_kinds",
        "heap_bases",
        "heap_sizes",
        "pc_footprint",
        "steps",
        "end",
        "predicted_loads",
    )

    def __init__(self, tid: int, name: str, block: str):
        self.tid = tid
        self.name = name
        self.block = block
        self.cache: Dict[int, int] = {}
        self.load_steps: List[int] = []
        self.load_addresses: List[int] = []
        self.load_values: List[int] = []
        self.syscall_steps: List[int] = []
        self.syscall_names: List[str] = []
        self.syscall_results: List[int] = []
        self.seq_steps: List[int] = []
        self.seq_timestamps: List[int] = []
        self.seq_kinds: List[str] = []
        self.seq_static_ids: List[Optional[object]] = []
        self.access_steps: List[int] = []
        self.access_addresses: List[int] = []
        self.access_values: List[int] = []
        self.access_flags: List[int] = []
        self.access_static_ids: List[object] = []
        self.heap_steps: List[int] = []
        self.heap_kinds: List[str] = []
        self.heap_bases: List[int] = []
        self.heap_sizes: List[int] = []
        self.pc_footprint = set()
        self.steps = 0
        self.end: Optional[ThreadEnd] = None
        self.predicted_loads = 0

    def to_thread_log(self) -> ThreadLog:
        loads = {
            step: LoadRecord(thread_step=step, address=address, value=value)
            for step, address, value in zip(
                self.load_steps, self.load_addresses, self.load_values
            )
        }
        syscalls = {
            step: SyscallRecord(thread_step=step, name=name, result=result)
            for step, name, result in zip(
                self.syscall_steps, self.syscall_names, self.syscall_results
            )
        }
        sequencers = [
            SequencerRecord(
                thread_step=step, timestamp=timestamp, kind=kind, static_id=static_id
            )
            for step, timestamp, kind, static_id in zip(
                self.seq_steps, self.seq_timestamps, self.seq_kinds, self.seq_static_ids
            )
        ]
        return ThreadLog(
            name=self.name,
            tid=self.tid,
            block=self.block,
            initial_registers=(0,) * 16,
            loads=loads,
            syscalls=syscalls,
            sequencers=sequencers,
            pc_footprint=self.pc_footprint,
            steps=self.steps,
            end=self.end,
        )

    def to_access_columns(self) -> ThreadAccessColumns:
        return ThreadAccessColumns(
            steps=self.access_steps,
            addresses=self.access_addresses,
            values=self.access_values,
            flags=self.access_flags,
            static_ids=self.access_static_ids,
            heap_steps=self.heap_steps,
            heap_kinds=self.heap_kinds,
            heap_bases=self.heap_bases,
            heap_sizes=self.heap_sizes,
        )


class Recorder(Observer):
    """Records one machine run into a :class:`ReplayLog`."""

    def __init__(
        self,
        program: Program,
        seed: int = 0,
        scheduler: str = "",
        capture_global_order: bool = True,
        sink=None,
    ):
        self.program = program
        self.seed = seed
        self.scheduler_description = scheduler
        self._captures: Dict[int, _ThreadCapture] = {}
        self._order_tids: Optional[List[int]] = [] if capture_global_order else None
        self._order_steps: Optional[List[int]] = [] if capture_global_order else None
        self._finished = False
        #: Optional :class:`SegmentedLogWriter` receiving rows as they land.
        self._sink = sink
        #: The newest sequencer, held until its step's rows are captured.
        self._pending: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Observer hooks.
    # ------------------------------------------------------------------

    def on_thread_start(self, tid: int, thread_name: str, block_name: str) -> None:
        self._captures[tid] = _ThreadCapture(tid, thread_name, block_name)

    def on_sequencer(self, tid, thread_step, timestamp, kind, static_id) -> None:
        capture = self._captures[tid]
        capture.seq_steps.append(thread_step)
        capture.seq_timestamps.append(timestamp)
        capture.seq_kinds.append(kind)
        capture.seq_static_ids.append(static_id)
        if self._sink is not None:
            if self._pending is not None:
                self._ship(*self._pending)
            self._pending = (
                capture,
                SequencerRecord(
                    thread_step=thread_step,
                    timestamp=timestamp,
                    kind=kind,
                    static_id=static_id,
                ),
            )

    def _ship(self, capture: _ThreadCapture, sequencer: SequencerRecord) -> None:
        """Flush the rows this sequencer claims into the segment sink.

        Rows are step-monotone per thread, so the claim is a prefix; the
        prefix delete keeps resident capture bounded by the gap between a
        thread's consecutive sequencers, not the trace length.
        """
        step = sequencer.thread_step
        cut = bisect_right(capture.access_steps, step)
        rows = [
            (
                capture.access_steps[i],
                capture.access_flags[i],
                capture.access_addresses[i],
                capture.access_values[i],
                capture.access_static_ids[i],
            )
            for i in range(cut)
        ]
        if cut:
            del capture.access_steps[:cut]
            del capture.access_flags[:cut]
            del capture.access_addresses[:cut]
            del capture.access_values[:cut]
            del capture.access_static_ids[:cut]
        heap_cut = bisect_right(capture.heap_steps, step)
        heap_rows = [
            (
                capture.heap_steps[i],
                0 if capture.heap_kinds[i] == "alloc" else 1,
                capture.heap_bases[i],
                capture.heap_sizes[i],
            )
            for i in range(heap_cut)
        ]
        if heap_cut:
            del capture.heap_steps[:heap_cut]
            del capture.heap_kinds[:heap_cut]
            del capture.heap_bases[:heap_cut]
            del capture.heap_sizes[:heap_cut]
        self._sink.add_sequencer(
            capture.name, capture.tid, capture.block, sequencer, rows, heap_rows
        )

    def on_load(self, tid, thread_step, static_id, address, value, is_sync) -> None:
        capture = self._captures[tid]
        # Load-based checkpointing: log only mispredicted values.  (Values
        # are non-negative words, so the None of a cold cache never aliases.)
        if capture.cache.get(address) != value:
            capture.load_steps.append(thread_step)
            capture.load_addresses.append(address)
            capture.load_values.append(value)
        else:
            capture.predicted_loads += 1
        capture.cache[address] = value
        capture.access_steps.append(thread_step)
        capture.access_addresses.append(address)
        capture.access_values.append(value)
        capture.access_flags.append(2 if is_sync else 0)
        capture.access_static_ids.append(static_id)

    def on_store(
        self, tid, thread_step, static_id, address, old_value, new_value, is_sync
    ) -> None:
        capture = self._captures[tid]
        capture.cache[address] = new_value
        capture.access_steps.append(thread_step)
        capture.access_addresses.append(address)
        capture.access_values.append(new_value)
        capture.access_flags.append(3 if is_sync else 1)
        capture.access_static_ids.append(static_id)

    def on_syscall(self, tid, thread_step, static_id, name, result, arg=None) -> None:
        capture = self._captures[tid]
        capture.syscall_steps.append(thread_step)
        capture.syscall_names.append(name)
        capture.syscall_results.append(result)
        # Heap lifecycle mirrors the HeapEvent stream replay would derive:
        # alloc rows carry (base=result, size=arg), free rows (base=arg, 0).
        if name == "sys_alloc":
            capture.heap_steps.append(thread_step)
            capture.heap_kinds.append("alloc")
            capture.heap_bases.append(result)
            capture.heap_sizes.append(arg if arg is not None else 0)
        elif name == "sys_free":
            capture.heap_steps.append(thread_step)
            capture.heap_kinds.append("free")
            capture.heap_bases.append(arg if arg is not None else 0)
            capture.heap_sizes.append(0)

    def on_step(self, global_step, tid, thread_step, static_id) -> None:
        capture = self._captures[tid]
        capture.pc_footprint.add(static_id.index)
        capture.steps = thread_step + 1
        if self._order_tids is not None:
            self._order_tids.append(tid)
            self._order_steps.append(thread_step)

    def on_thread_end(self, tid, thread_step, reason, fault) -> None:
        self._captures[tid].end = ThreadEnd(
            thread_step=thread_step,
            reason=reason,
            fault_kind=str(fault) if fault is not None else None,
        )

    # ------------------------------------------------------------------
    # Result.
    # ------------------------------------------------------------------

    @property
    def predicted_loads(self) -> int:
        """Loads elided by the prediction cache so far."""
        return sum(capture.predicted_loads for capture in self._captures.values())

    def finish(self) -> ReplayLog:
        """Assemble the final :class:`ReplayLog` (idempotent).

        With a segment sink attached, this also ships the held sequencer,
        seals the pending segment and writes the trailer + footer, and the
        returned log carries ``captured=None`` — the access columns
        already live in the v5 segments on disk, so callers on the
        streaming path read them back via
        :func:`~repro.record.binary_format.iter_segments` rather than
        from this object.
        """
        if self._sink is not None:
            return self._finish_streaming()
        self._finished = True
        captured = CapturedAccessColumns(
            threads={
                capture.name: capture.to_access_columns()
                for capture in self._captures.values()
            },
            predicted_loads=self.predicted_loads,
        )
        return ReplayLog(
            program_name=self.program.name,
            program_source=self.program.source,
            threads={
                capture.name: capture.to_thread_log()
                for capture in self._captures.values()
            },
            seed=self.seed,
            scheduler=self.scheduler_description,
            global_order=list(zip(self._order_tids, self._order_steps))
            if self._order_tids is not None
            else None,
            captured=captured,
        )

    def _finish_streaming(self) -> ReplayLog:
        """Seal the sink (trailer + footer) and return a captureless log."""
        if self._pending is not None:
            self._ship(*self._pending)
            self._pending = None
        threads = {
            capture.name: capture.to_thread_log()
            for capture in self._captures.values()
        }
        global_order = (
            list(zip(self._order_tids, self._order_steps))
            if self._order_tids is not None
            else None
        )
        if not self._finished:
            # Anything no sequencer claimed (a thread aborted before its
            # thread-end sequencer, e.g. on max_steps) lands in the
            # trailer's residual rows, so the file is still lossless.
            residuals = {}
            for capture in self._captures.values():
                if capture.access_steps or capture.heap_steps:
                    residuals[capture.name] = (
                        [
                            (
                                capture.access_steps[i],
                                capture.access_flags[i],
                                capture.access_addresses[i],
                                capture.access_values[i],
                                capture.access_static_ids[i],
                            )
                            for i in range(len(capture.access_steps))
                        ],
                        [
                            (
                                capture.heap_steps[i],
                                0 if capture.heap_kinds[i] == "alloc" else 1,
                                capture.heap_bases[i],
                                capture.heap_sizes[i],
                            )
                            for i in range(len(capture.heap_steps))
                        ],
                    )
            self._sink.finish(
                threads=threads,
                global_order=global_order,
                predicted_loads=self.predicted_loads,
                residuals=residuals,
            )
            self._finished = True
        return ReplayLog(
            program_name=self.program.name,
            program_source=self.program.source,
            threads=threads,
            seed=self.seed,
            scheduler=self.scheduler_description,
            global_order=global_order,
            captured=None,
        )


def record_run(
    program: Program,
    scheduler=None,
    seed: int = 0,
    max_steps: int = 200_000,
    capture_global_order: bool = True,
    extra_observers=(),
    sink=None,
):
    """Run ``program`` under recording; returns ``(MachineResult, ReplayLog)``.

    The convenience entry point used throughout the examples and the
    analysis pipeline: one call replaces "deploy iDNA and run the test
    scenario" from the paper's usage model.  ``sink`` streams the
    recording into a :class:`~repro.record.binary_format.SegmentedLogWriter`
    as segments fill (see :func:`record_run_segmented` for the file-path
    wrapper); the returned log then has ``captured=None``.
    """
    from ..vm.machine import Machine

    scheduler_description = type(scheduler).__name__ if scheduler else "RoundRobinScheduler"
    recorder = Recorder(
        program,
        seed=seed,
        scheduler=scheduler_description,
        capture_global_order=capture_global_order,
        sink=sink,
    )
    machine = Machine(
        program,
        scheduler=scheduler,
        seed=seed,
        max_steps=max_steps,
        observers=[recorder, *extra_observers],
    )
    result = machine.run()
    return result, recorder.finish()


def record_run_segmented(
    program: Program,
    path,
    scheduler=None,
    seed: int = 0,
    max_steps: int = 200_000,
    capture_global_order: bool = True,
    extra_observers=(),
    segment_bytes: Optional[int] = None,
):
    """Record straight into a segmented container (v5) at ``path``.

    The streaming twin of :func:`record_run` + ``save_log``, and
    byte-identical to it at the same budget: segments hit the file while
    the machine runs, so the captured access and heap rows never pile up
    in memory (the rest of the log still does; see the module
    docstring), and a streaming consumer can start detecting on sealed
    segments before the run ends.  Returns
    ``(MachineResult, ReplayLog)`` — the log has ``captured=None``; the
    captured columns live in the file.
    """
    from .binary_format import DEFAULT_SEGMENT_BYTES, SegmentedLogWriter

    scheduler_description = (
        type(scheduler).__name__ if scheduler else "RoundRobinScheduler"
    )
    with open(path, "wb") as handle:
        sink = SegmentedLogWriter(
            handle,
            program_name=program.name,
            program_source=program.source,
            seed=seed,
            scheduler=scheduler_description,
            has_captured=True,
            segment_bytes=segment_bytes or DEFAULT_SEGMENT_BYTES,
        )
        return record_run(
            program,
            scheduler=scheduler,
            seed=seed,
            max_steps=max_steps,
            capture_global_order=capture_global_order,
            extra_observers=extra_observers,
            sink=sink,
        )

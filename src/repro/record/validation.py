"""Replay-log validation: catch corrupt or inconsistent logs up front.

A replay log is a contract between the recorder and every downstream
analysis; a silently corrupt log (truncated file, hand-edited JSON,
version skew) would otherwise surface as a confusing
:class:`~repro.replay.errors.ReplayDivergence` deep inside replay.  The
validator checks the structural invariants the rest of the system relies
on and reports every violation with its location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..isa.errors import IsaError
from .log import ReplayLog


@dataclass(frozen=True)
class ValidationIssue:
    """One structural problem found in a replay log."""

    thread: Optional[str]
    field: str
    message: str

    def __str__(self) -> str:
        location = "thread %r, %s" % (self.thread, self.field) if self.thread else self.field
        return "%s: %s" % (location, self.message)


class InvalidLogError(Exception):
    """Raised by :func:`validate_log` in strict mode."""

    def __init__(self, issues: List[ValidationIssue]):
        self.issues = issues
        super().__init__(
            "replay log failed validation with %d issue(s):\n%s"
            % (len(issues), "\n".join("  - %s" % issue for issue in issues))
        )


def validate_log(log: ReplayLog, strict: bool = False) -> List[ValidationIssue]:
    """Check every structural invariant of a replay log.

    Returns the list of issues found (empty when the log is well formed);
    with ``strict`` a non-empty result raises :class:`InvalidLogError`.
    """
    issues: List[ValidationIssue] = []

    def issue(thread: Optional[str], field: str, message: str) -> None:
        issues.append(ValidationIssue(thread=thread, field=field, message=message))

    # -- the embedded program must assemble and cover every thread -------
    program = None
    try:
        program = log.reassemble_program()
    except IsaError as error:
        issue(None, "program_source", "does not assemble: %s" % error)

    if not log.threads:
        issue(None, "threads", "log contains no threads")

    seen_timestamps = {}
    for name, thread in log.threads.items():
        if thread.name != name:
            issue(name, "name", "key %r does not match thread name %r" % (name, thread.name))
        if thread.steps < 0:
            issue(name, "steps", "negative step count %d" % thread.steps)
        if len(thread.initial_registers) != 16:
            issue(
                name,
                "initial_registers",
                "expected 16 registers, got %d" % len(thread.initial_registers),
            )

        # -- sequencers -------------------------------------------------
        if not thread.sequencers:
            issue(name, "sequencers", "no sequencers (thread start/end missing)")
        else:
            ordered = sorted(thread.sequencers, key=lambda s: s.timestamp)
            if ordered[0].kind != "thread_start":
                issue(name, "sequencers", "first sequencer is %r, not thread_start" % ordered[0].kind)
            elif ordered[0].thread_step != -1:
                issue(name, "sequencers", "thread_start at step %d, expected -1" % ordered[0].thread_step)
            if ordered[-1].kind != "thread_end":
                issue(name, "sequencers", "last sequencer is %r, not thread_end" % ordered[-1].kind)
            elif ordered[-1].thread_step != thread.steps:
                issue(
                    name,
                    "sequencers",
                    "thread_end at step %d, expected %d" % (ordered[-1].thread_step, thread.steps),
                )
            previous_step = -2
            for sequencer in ordered:
                if sequencer.timestamp in seen_timestamps:
                    issue(
                        name,
                        "sequencers",
                        "timestamp %d reused (also in thread %r)"
                        % (sequencer.timestamp, seen_timestamps[sequencer.timestamp]),
                    )
                seen_timestamps[sequencer.timestamp] = name
                if sequencer.thread_step < previous_step:
                    issue(
                        name,
                        "sequencers",
                        "steps not monotone: %d after %d"
                        % (sequencer.thread_step, previous_step),
                    )
                previous_step = sequencer.thread_step
                if not -1 <= sequencer.thread_step <= thread.steps:
                    issue(
                        name,
                        "sequencers",
                        "step %d outside [-1, %d]" % (sequencer.thread_step, thread.steps),
                    )

        # -- load and syscall records ------------------------------------
        for step, record in thread.loads.items():
            if step != record.thread_step:
                issue(name, "loads", "key %d does not match record step %d" % (step, record.thread_step))
            if not 0 <= step < thread.steps:
                issue(name, "loads", "load at step %d outside [0, %d)" % (step, thread.steps))
            if record.address <= 0:
                issue(name, "loads", "load record with non-positive address %#x" % record.address)
        for step, record in thread.syscalls.items():
            if not 0 <= step < thread.steps:
                issue(name, "syscalls", "syscall at step %d outside [0, %d)" % (step, thread.steps))
            if not record.name.startswith("sys_"):
                issue(name, "syscalls", "record name %r is not a syscall" % record.name)

        # -- footprint and block ----------------------------------------
        if program is not None:
            if thread.block not in program.blocks:
                issue(name, "block", "block %r not in the embedded program" % thread.block)
            else:
                block_length = len(program.blocks[thread.block])
                for pc in thread.pc_footprint:
                    if not 0 <= pc < block_length:
                        issue(name, "pc_footprint", "pc %d outside block of length %d" % (pc, block_length))
            if name not in program.threads:
                issue(name, "name", "thread not declared by the embedded program")

        if thread.end is None:
            issue(name, "end", "missing end record")
        elif thread.end.reason == "fault" and not thread.end.fault_kind:
            issue(name, "end", "faulted thread without a fault kind")

    # -- global order ----------------------------------------------------
    if log.global_order is not None:
        if len(log.global_order) != log.total_instructions:
            issue(
                None,
                "global_order",
                "covers %d steps but threads executed %d"
                % (len(log.global_order), log.total_instructions),
            )
        steps_of = {thread.tid: thread.steps for thread in log.threads.values()}
        seen = set()
        unknown_tid = out_of_range = repeated = None
        out_of_range_count = repeated_count = 0
        for position, (tid, step) in enumerate(log.global_order):
            if tid not in steps_of:
                if unknown_tid is None:
                    unknown_tid = tid
                continue
            if not 0 <= step < steps_of[tid]:
                out_of_range_count += 1
                if out_of_range is None:
                    out_of_range = (position, tid, step, steps_of[tid])
            elif (tid, step) in seen:
                repeated_count += 1
                if repeated is None:
                    repeated = (position, tid, step)
            else:
                seen.add((tid, step))
        if unknown_tid is not None:
            issue(None, "global_order", "unknown tid %d" % unknown_tid)
        if out_of_range is not None:
            issue(
                None,
                "global_order",
                "entry %d has tid %d step %d outside [0, %d) "
                "(%d such entries)" % (out_of_range + (out_of_range_count,)),
            )
        if repeated is not None:
            issue(
                None,
                "global_order",
                "entry %d repeats tid %d step %d (%d repeated entries)"
                % (repeated + (repeated_count,)),
            )

    if strict and issues:
        raise InvalidLogError(issues)
    return issues

"""Replay-layer errors.

:class:`ReplayDivergence` signals a *broken* replay (log inconsistent with
the program) — always a bug, never an expected analysis outcome.

:class:`ReplayFailure` is the paper's §4.2.1 notion: the *alternative-order*
replay ran off the recorded envelope (unlogged address, unrecorded control
flow, a memory fault such as the Figure 2 double free, or a stuck spin).
It is an expected, meaningful outcome — "a good indicator that the data
race is likely to cause a change in the program's state".
"""

from __future__ import annotations

from enum import Enum


class ReplayError(Exception):
    """Base class for replay-layer errors."""


def stream_context(segment=None, thread_step=None) -> str:
    """Render optional streaming position as a message suffix.

    Streaming consumers (the segment cursor, eager classification) know
    which segment ordinal and thread step they were digesting when
    something broke; batch callers pass nothing and the suffix is empty.
    """
    parts = []
    if segment is not None:
        parts.append("segment %d" % segment)
    if thread_step is not None:
        parts.append("step %d" % thread_step)
    return " (at %s)" % ", ".join(parts) if parts else ""


class ReplayDivergence(ReplayError):
    """The log and program disagree — the replay infrastructure failed.

    ``segment``/``thread_step`` carry the streaming position when the
    divergence surfaced while digesting a segment stream — the message
    then ends with ``(at segment N, step S)`` so stream debugging starts
    from the offending chunk instead of the whole trace.
    """

    def __init__(self, message: str = "", thread_step=None, segment=None):
        self.thread_step = thread_step
        self.segment = segment
        super().__init__(message + stream_context(segment, thread_step))


class ReplayFailureKind(Enum):
    """Why an alternative-order replay could not complete."""

    UNKNOWN_ADDRESS = "unknown-address"
    UNRECORDED_CONTROL_FLOW = "unrecorded-control-flow"
    MEMORY_FAULT = "memory-fault"
    STEP_LIMIT = "step-limit"
    DIVERGENCE = "divergence"

    def __str__(self) -> str:
        return self.value


class ReplayFailure(ReplayError):
    """An (expected) failure while replaying a reordered execution."""

    def __init__(self, kind: ReplayFailureKind, detail: str = ""):
        self.kind = kind
        self.detail = detail
        message = str(kind)
        if detail:
            message += ": " + detail
        super().__init__(message)


def thread_block(program, thread_name: str, block_name: str):
    """The code block a logged thread runs, looked up in ``program``.

    Every place a log is paired with a program resolves its threads'
    blocks through here, so a log whose thread names a block the program
    lacks fails with one :class:`ReplayDivergence` instead of a bare
    ``KeyError`` from deep inside replay or report rendering.
    """
    block = program.blocks.get(block_name)
    if block is None:
        raise ReplayDivergence(
            "thread %r runs block %r, which the embedded program lacks"
            % (thread_name, block_name)
        )
    return block

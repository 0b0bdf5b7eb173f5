"""(De)serialization of replay logs: binary container first, JSON fallback.

A serialized log is self-contained: it embeds the program source, so a log
file plus this library is sufficient to replay, detect, and classify — the
paper's model of shipping a replay log to the developer alongside the race
report.

Two on-disk representations exist:

* the **binary container** (:mod:`.binary_format`) — versioned magic
  bytes, varint/zigzag packing, zlib compression.  The default for every
  new log: suite runs stop paying JSON text encode/decode and the files
  are several times smaller;
* the legacy **JSON document** — kept for old fixtures, hand inspection
  and tooling interop.  ``save_log`` picks it automatically for ``.json``
  paths (or on request), and ``load_log`` detects the format from the
  file's leading bytes, so callers never need to know which one they
  have.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..isa.program import StaticInstructionId
from .log import (
    LoadRecord,
    ReplayLog,
    SequencerRecord,
    SyscallRecord,
    ThreadEnd,
    ThreadLog,
)

FORMAT_VERSION = 1


def _static_id_to_json(static_id: Optional[StaticInstructionId]):
    if static_id is None:
        return None
    return [static_id.block, static_id.index]


def _static_id_from_json(data) -> Optional[StaticInstructionId]:
    if data is None:
        return None
    return StaticInstructionId(block=data[0], index=data[1])


def thread_log_to_json(log: ThreadLog) -> Dict[str, Any]:
    return {
        "name": log.name,
        "tid": log.tid,
        "block": log.block,
        "initial_registers": list(log.initial_registers),
        "loads": [
            [record.thread_step, record.address, record.value]
            for record in (log.loads[step] for step in sorted(log.loads))
        ],
        "syscalls": [
            [record.thread_step, record.name, record.result]
            for record in (log.syscalls[step] for step in sorted(log.syscalls))
        ],
        "sequencers": [
            [
                sequencer.thread_step,
                sequencer.timestamp,
                sequencer.kind,
                _static_id_to_json(sequencer.static_id),
            ]
            for sequencer in log.sequencers
        ],
        "pc_footprint": sorted(log.pc_footprint),
        "steps": log.steps,
        "end": (
            [log.end.thread_step, log.end.reason, log.end.fault_kind]
            if log.end
            else None
        ),
    }


def thread_log_from_json(data: Dict[str, Any]) -> ThreadLog:
    log = ThreadLog(
        name=data["name"],
        tid=data["tid"],
        block=data["block"],
        initial_registers=tuple(data["initial_registers"]),
        steps=data["steps"],
    )
    for step, address, value in data["loads"]:
        log.loads[step] = LoadRecord(thread_step=step, address=address, value=value)
    for step, name, result in data["syscalls"]:
        log.syscalls[step] = SyscallRecord(thread_step=step, name=name, result=result)
    for step, timestamp, kind, static_id in data["sequencers"]:
        log.sequencers.append(
            SequencerRecord(
                thread_step=step,
                timestamp=timestamp,
                kind=kind,
                static_id=_static_id_from_json(static_id),
            )
        )
    log.pc_footprint = set(data["pc_footprint"])
    if data["end"] is not None:
        step, reason, fault_kind = data["end"]
        log.end = ThreadEnd(thread_step=step, reason=reason, fault_kind=fault_kind)
    return log


def log_to_json(log: ReplayLog) -> Dict[str, Any]:
    """Convert a :class:`ReplayLog` to a JSON-compatible dict."""
    return {
        "format_version": FORMAT_VERSION,
        "program_name": log.program_name,
        "program_source": log.program_source,
        "seed": log.seed,
        "scheduler": log.scheduler,
        "threads": {
            name: thread_log_to_json(thread) for name, thread in log.threads.items()
        },
        "global_order": (
            [[tid, step] for tid, step in log.global_order]
            if log.global_order is not None
            else None
        ),
    }


def log_from_json(data: Dict[str, Any]) -> ReplayLog:
    """Rebuild a :class:`ReplayLog` from :func:`log_to_json` output (a
    document of any other shape raises :class:`ValueError`)."""
    if not isinstance(data, dict):
        raise ValueError("not a replay-log document: a JSON %s" % type(data).__name__)
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError("unsupported replay-log format version: %r" % version)
    try:
        return ReplayLog(
            program_name=data["program_name"],
            program_source=data["program_source"],
            threads={
                name: thread_log_from_json(thread)
                for name, thread in data["threads"].items()
            },
            seed=data["seed"],
            scheduler=data["scheduler"],
            global_order=(
                [(tid, step) for tid, step in data["global_order"]]
                if data["global_order"] is not None
                else None
            ),
        )
    except (AttributeError, KeyError, TypeError) as error:
        raise ValueError("malformed replay-log document (%r)" % error) from None


def save_log(
    log: ReplayLog,
    path: Union[str, Path],
    format: str = "auto",
    segment_bytes: Optional[int] = None,
) -> None:
    """Write a replay log to ``path``.

    ``format`` is ``"binary"`` (the versioned container), ``"json"`` (the
    legacy document) or ``"auto"`` — binary-first, falling back to JSON
    only when the destination carries a ``.json`` suffix (matched
    case-insensitively: a ``.JSON`` path must not silently get a binary
    log) so existing fixtures and text-based tooling keep working.  The
    v2 predicted-load elision is a binary-container feature; JSON output
    always spells every load value out.

    ``segment_bytes`` selects the **segmented container** (v5) with that
    window size — the format ``repro detect`` and ``repro analyze``
    stream segment by segment.  It is a binary-only knob; combining it
    with JSON output is an error rather than a silent downgrade.
    """
    from .binary_format import encode_log, encode_log_segmented

    path = Path(path)
    if format == "auto":
        format = "json" if path.suffix.lower() == ".json" else "binary"
    if format == "binary":
        if segment_bytes is not None:
            path.write_bytes(encode_log_segmented(log, segment_bytes=segment_bytes))
        else:
            path.write_bytes(encode_log(log))
    elif format == "json":
        if segment_bytes is not None:
            raise ValueError(
                "segment_bytes is a binary-container feature; "
                "JSON logs cannot be segmented"
            )
        path.write_text(json.dumps(log_to_json(log)))
    else:
        raise ValueError("unknown replay-log format: %r" % format)


def load_log(path: Union[str, Path]) -> ReplayLog:
    """Read a replay log, auto-detecting binary container vs JSON."""
    return load_log_bytes(Path(path).read_bytes())


def load_log_bytes(data: bytes) -> ReplayLog:
    """Decode replay-log bytes, auto-detecting binary container vs JSON.

    The in-memory sibling of :func:`load_log`, for logs that never touch
    the filesystem — e.g. uploads to the analysis service.
    """
    from .binary_format import decode_log, is_binary_log

    if is_binary_log(data):
        return decode_log(data)
    return log_from_json(json.loads(data.decode("utf-8")))


def load_log_sections_bytes(data: bytes):
    """Decode only the detection-facing sections of container bytes.

    Returns :class:`~repro.record.binary_format.LogSections` (identity,
    sequencers, captured columns) via the seeking sectioned reader —
    registers, loads, syscalls and footprints are skipped, not decoded —
    or ``None`` for a JSON document, which has no sectioned
    representation (callers fall back to :func:`load_log_bytes`).  The
    service admits uploads through it.
    """
    from .binary_format import decode_log_sections, is_binary_log

    if is_binary_log(data):
        return decode_log_sections(data)
    return None

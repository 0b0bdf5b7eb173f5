"""iDNA-analog recording: load-based checkpointing logs with sequencers."""

from .binary_format import (
    BINARY_FORMAT_VERSION,
    MAGIC,
    SEGMENTED_FORMAT_VERSION,
    decode_log,
    encode_log,
    encode_log_segmented,
    is_binary_log,
    is_segmented_log,
    iter_segments,
    read_segment_index,
)
from .compression import (
    CompressionStats,
    aggregate_stats,
    compression_stats,
    decode_varint,
    encode_varint,
    pack_log,
    pack_thread_log,
    unzigzag,
    zigzag,
)
from .log import (
    LoadRecord,
    ReplayLog,
    SequencerRecord,
    SyscallRecord,
    ThreadEnd,
    ThreadLog,
)
from .metrics import LogMetrics, log_metrics
from .recorder import Recorder, record_run, record_run_segmented
from .serialization import load_log, log_from_json, log_to_json, save_log
from .validation import InvalidLogError, ValidationIssue, validate_log

__all__ = [
    "BINARY_FORMAT_VERSION",
    "MAGIC",
    "SEGMENTED_FORMAT_VERSION",
    "decode_log",
    "encode_log",
    "encode_log_segmented",
    "is_binary_log",
    "is_segmented_log",
    "iter_segments",
    "read_segment_index",
    "CompressionStats",
    "aggregate_stats",
    "compression_stats",
    "decode_varint",
    "encode_varint",
    "pack_log",
    "pack_thread_log",
    "unzigzag",
    "zigzag",
    "LoadRecord",
    "ReplayLog",
    "SequencerRecord",
    "SyscallRecord",
    "ThreadEnd",
    "ThreadLog",
    "LogMetrics",
    "log_metrics",
    "Recorder",
    "record_run",
    "record_run_segmented",
    "load_log",
    "log_from_json",
    "log_to_json",
    "save_log",
    "InvalidLogError",
    "ValidationIssue",
    "validate_log",
]

"""Zero-replay log view: regions and the access index straight from bytes.

The paper's triage funnel is detect-first, and detection — the sweep line
in :mod:`repro.race.happens_before` — consumes only three things: the
sequencing regions (pure sequencer arithmetic), the plain-access columns,
and the per-address postings of the :class:`AccessIndex`.  None of that
needs a :class:`~repro.vm.machine.Machine`, a
:class:`~repro.replay.thread_replayer.ThreadReplayer` or any register
state; for a v3 log with captured columns it is all *already on disk*.

:class:`LogView` is the carrier for that observation: it wraps the
sectioned reader's :func:`~repro.record.binary_format.decode_log_sections`
output (or an in-memory :class:`~repro.record.log.ReplayLog` that still
holds its capture), builds regions with the same
:func:`~repro.replay.regions.regions_of_thread` arithmetic the replay path
uses, and exposes ``access_index()`` — the only method the sweep detector
calls on its ``ordered`` argument — backed by
:meth:`AccessIndex.from_captured`.  Race sets are byte-identical to the
replay-derived path (the equivalence suite holds both paths to the
reference detector), while the work and peak memory stay proportional to
the log instead of the execution.

Logs that cannot support the path — v1/v2 containers, or v3 encoded with
``include_captured=False`` — raise :class:`LogViewUnavailable` (a
:class:`ValueError`, so the CLI's error handling turns it into a clean
nonzero exit) and callers fall back to :class:`OrderedReplay`.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..record.binary_format import (
    CapturedColumnView,
    decode_log_sections,
    is_binary_log,
    is_segmented_log,
    iter_segments,
    read_segmented_header,
)
from ..record.log import ReplayLog
from .errors import thread_block
from .regions import SequencingRegion, regions_of_thread

#: A column carrier's five row columns, in row-tuple order.
row_columns = attrgetter("steps", "flags", "addresses", "values", "static_ids")


class LogViewUnavailable(ValueError):
    """The log cannot serve the zero-replay detect path.

    Raised for v1/v2 containers and for v3 logs encoded with
    ``include_captured=False``; the message says which.  Subclasses
    :class:`ValueError` so existing CLI/service error handling converts
    it into a clean nonzero exit / 400 instead of an ``AttributeError``.
    """


def _require_binary(data: bytes, path: str) -> None:
    """Refuse bytes that are not an RPRB container, for detect ``path``."""
    if not is_binary_log(data):
        raise LogViewUnavailable(
            "not a binary replay log: the %s detect path reads RPRB "
            "containers only — leave the detect mode to the input (JSON "
            "logs take the full-replay path)" % path
        )


def _require_capture(captured, version: Optional[int], path: str) -> None:
    """Refuse a log without captured columns (``version`` is the
    container's, None for an in-memory log)."""
    if captured is None:
        raise LogViewUnavailable(
            "%s has no captured access columns (v3+ recorded with capture): "
            "the %s detect path needs them — re-record, or leave the detect "
            "mode to the input (such logs take the full-replay path)"
            % ("log" if version is None else "v%d container" % version, path)
        )


class LogView:
    """Detect-ready view of one replay log, with zero replay performed.

    Duck-type-compatible with :class:`OrderedReplay` for exactly the
    surface the detect stage uses: ``access_index()``,
    ``invalidate_access_index()``, ``all_regions()``, ``regions`` and
    ``log``-level identity fields.  ``program`` assembles lazily from the
    embedded source for callers that print instruction text *after*
    detection (the CLI race listing) — detection itself never triggers
    it.
    """

    def __init__(
        self,
        *,
        program_name: str,
        program_source: str,
        seed: int,
        scheduler: str,
        threads: Dict[str, object],
        columns_by_thread: Dict[str, object],
        perf=None,
    ):
        self.program_name = program_name
        self.program_source = program_source
        self.seed = seed
        self.scheduler = scheduler
        #: thread name -> sequencer-bearing record (duck-typed by
        #: :func:`regions_of_thread`: needs ``name``/``tid``/``sequencers``).
        self.threads = threads
        self._columns = columns_by_thread
        self._perf = perf
        self.regions: Dict[str, List[SequencingRegion]] = {
            name: regions_of_thread(thread) for name, thread in threads.items()
        }
        self._access_index = None
        self._program = None
        if perf is not None:
            perf.detect_log_native += 1

    # -- construction ---------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes, perf=None) -> "LogView":
        """Build a view straight from RPRB container bytes.

        Decodes only the header, sequencer and captured sections —
        everything else is seeked past.  Raises
        :class:`LogViewUnavailable` when the container has no captured
        columns, and plain :class:`ValueError` for non-RPRB bytes.
        """
        _require_binary(data, "zero-replay")
        sections = decode_log_sections(data)
        _require_capture(sections.captured, sections.version, "zero-replay")
        return cls(
            program_name=sections.program_name,
            program_source=sections.program_source,
            seed=sections.seed,
            scheduler=sections.scheduler,
            threads=sections.threads,
            columns_by_thread=sections.captured,
            perf=perf,
        )

    @classmethod
    def from_log(cls, log: ReplayLog, perf=None) -> "LogView":
        """Build a view from an already-decoded :class:`ReplayLog`.

        The in-memory analog of :meth:`from_bytes` for callers that hold
        a fresh recording (``record_run`` output) or a fully decoded log;
        requires ``log.captured``.
        """
        _require_capture(log.captured, None, "zero-replay")
        return cls(
            program_name=log.program_name,
            program_source=log.program_source,
            seed=log.seed,
            scheduler=log.scheduler,
            threads=dict(log.threads),
            columns_by_thread=dict(log.captured.threads),
            perf=perf,
        )

    # -- the detect surface ---------------------------------------------

    def all_regions(self) -> List[SequencingRegion]:
        """Every region of every thread, sorted by opening timestamp —
        the same sweep order :meth:`OrderedReplay.all_regions` produces."""
        collected: List[SequencingRegion] = []
        for thread_regions in self.regions.values():
            collected.extend(thread_regions)
        collected.sort(key=lambda region: region.start_ts)
        return collected

    def access_index(self):
        """The columnar :class:`AccessIndex`, built from captured columns
        on first use — no thread is ever replayed."""
        if self._access_index is None:
            # Local import mirrors OrderedReplay: the index lives in the
            # analysis layer, which imports replay at module scope.
            from ..analysis.access_index import AccessIndex

            self._access_index = AccessIndex.from_captured(
                self.all_regions(), self._columns, perf=self._perf
            )
        return self._access_index

    def invalidate_access_index(self) -> None:
        """Drop the cached index (benchmarks re-time the build with this)."""
        self._access_index = None

    # -- lazy extras ----------------------------------------------------

    @property
    def program(self):
        """The embedded program, assembled on first use.

        Detection never touches this; it exists so race *presentation*
        (``describe_instruction`` in the CLI) works on the same object.
        """
        if self._program is None:
            from ..isa.assembler import assemble

            program = assemble(self.program_source, name=self.program_name)
            for name, thread in self.threads.items():
                thread_block(program, name, thread.block)
            self._program = program
        return self._program


# ----------------------------------------------------------------------
# The streaming surface: segments in, regions out.
# ----------------------------------------------------------------------


class RowView:
    """One released region's access rows: rows ``[lo, hi)`` of the five
    parallel columns (``steps``/``flags``/``addresses``/``values``/
    ``static_ids``) the segment reader decoded, none of them copied.

    The :class:`~repro.analysis.access_index.StreamingAccessWindow`
    slices the columns; anything else can iterate the view as the
    ``(step, flag, address, value, static_id)`` row tuples, and compare
    it with a list of them.
    """

    __slots__ = ("columns", "lo", "hi")

    def __init__(self, columns, lo: int, hi: int):
        self.columns = columns
        self.lo = lo
        self.hi = hi

    @classmethod
    def of_rows(cls, rows) -> "RowView":
        """A view over row tuples, columns built once."""
        rows = list(rows)
        if not rows:
            return _NO_ROWS
        return cls(CapturedColumnView(*zip(*rows)), 0, len(rows))

    def __len__(self) -> int:
        return self.hi - self.lo

    def __iter__(self) -> Iterator[tuple]:
        lo, hi = self.lo, self.hi
        return zip(*(column[lo:hi] for column in row_columns(self.columns)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RowView, list)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)


#: The rows of a region that holds no access (shared: views are read-only).
_NO_ROWS = RowView(CapturedColumnView(), 0, 0)


class _ThreadCursor:
    """Per-thread progress while digesting a segment stream."""

    __slots__ = ("name", "tid", "opener", "region_index", "chunks")

    def __init__(self, name: str, tid: int):
        self.name = name
        self.tid = tid
        #: ``(thread_step, timestamp, kind)`` of the last sequencer seen —
        #: the opening side of the thread's currently *open* region
        #: (None before the first sequencer).
        self.opener: Optional[Tuple[int, int, str]] = None
        #: Index of the open region: regions are numbered per thread in
        #: sequencer order, step-empty ones included, exactly as
        #: :func:`~repro.replay.regions.regions_of_thread` numbers them.
        self.region_index = 0
        #: ``[columns, offset]`` per fed segment, in step order: rows
        #: from ``offset`` on are not yet claimed by a completed region.
        self.chunks: List[list] = []


class SegmentCursor:
    """Turn a v4 or v5 segment stream into completed regions in sweep
    order.

    The one region builder for segment streams: the streaming detect
    path and each fan-out worker feed it whole
    :class:`~repro.record.binary_format.LogSegmentView` objects
    (:meth:`feed`); a worker first skips the segments before its range
    (:meth:`skip`).  Each sealed segment releases the regions whose rows
    are now final *and* provably next in global opening-timestamp order
    — exactly the order :meth:`LogView.all_regions` (and therefore the
    batch sweep) visits them.  A region is released once every
    still-live thread's open region starts later than it; the segment
    attachment rule guarantees a region's rows arrive no later than the
    segment carrying its closing sequencer, so released regions never
    grow.

    A released region's rows are a :class:`RowView` over the fed
    segment's columns: no row is copied unless the region's rows span
    two segments.  Only regions with at least one step are released
    (step-empty regions hold no access, and no detect path indexes
    them).  :meth:`finish` drains the remainder after the last segment.
    Resident state is the columns of segments with unclaimed rows plus
    the not-yet releasable completed regions — bounded by the active
    overlap window, not the trace.
    """

    def __init__(self):
        self._threads: Dict[str, _ThreadCursor] = {}
        self._pending: List[Tuple[int, int, SequencingRegion, RowView]] = []
        self._tiebreak = 0
        self.segments_fed = 0

    def feed(self, segment) -> List[Tuple[SequencingRegion, RowView]]:
        """Digest one segment; return newly releasable (region, rows)."""
        for name, view in segment.threads.items():
            sequencers = [
                (record.thread_step, record.timestamp, record.kind)
                for record in view.sequencers
            ]
            self.add(segment.ordinal, name, view.tid, sequencers, view.columns)
        return self.seal(segment.last_ts)

    def add(
        self, segment_ordinal: int, name: str, tid: int, sequencers, columns
    ) -> None:
        """Digest one thread's part of a segment: its sequencers as
        ``(thread_step, timestamp, kind)`` in order, and its access rows
        as step-sorted ``steps``/``flags``/``addresses``/``values``/
        ``static_ids`` columns (any carrier of those five; kept, not
        copied)."""
        cursor = self._thread(name, tid)
        if len(columns.steps):
            cursor.chunks.append([columns, 0])
        for sequencer in sequencers:
            opener = cursor.opener
            if opener is not None:
                if sequencer[1] <= opener[1]:
                    raise LogViewUnavailable(
                        "segment stream out of order: thread %r sequencer "
                        "timestamps regress (ts %d after %d) (at segment %d, "
                        "step %d)"
                        % (name, sequencer[1], opener[1], segment_ordinal, sequencer[0])
                    )
                self._complete_region(cursor, opener, sequencer, segment_ordinal)
            cursor.opener = sequencer

    def skip(self, name: str, tid: int, count: int, last) -> None:
        """Pass over ``count`` sequencers of one thread without building
        their regions; ``last`` is the final one as ``(thread_step,
        timestamp, kind)``.  A fan-out worker skips the segments before
        its range this way: their rows are never read, and ``last``
        opens the thread's region that may straddle into the range."""
        if not count:
            return
        cursor = self._thread(name, tid)
        cursor.region_index += count if cursor.opener is not None else count - 1
        cursor.opener = last

    def seal(self, segment_last_ts: int) -> List[Tuple[SequencingRegion, RowView]]:
        """End one segment; return newly releasable (region, rows).

        Every sequencer with timestamp ≤ the segment's ``last_ts`` has
        been seen (segments are globally timestamp-ordered), so the only
        regions that could still appear with an earlier start are the
        live threads' currently open ones.
        """
        self.segments_fed += 1
        bound = segment_last_ts + 1
        earliest = self.earliest_open_ts()
        if earliest is not None and earliest < bound:
            bound = earliest
        return self._release(bound)

    def finish(self) -> List[Tuple[SequencingRegion, RowView]]:
        """Release everything still pending (the stream is over)."""
        return self._release(None)

    def earliest_open_ts(self) -> Optional[int]:
        """Opening timestamp of the earliest region still open in a live
        thread (None when every thread has ended or none has started)."""
        return min(
            (
                cursor.opener[1]
                for cursor in self._threads.values()
                if cursor.opener is not None and cursor.opener[2] != "thread_end"
            ),
            default=None,
        )

    # -- internals ------------------------------------------------------

    def _thread(self, name: str, tid: int) -> _ThreadCursor:
        cursor = self._threads.get(name)
        if cursor is None:
            cursor = self._threads[name] = _ThreadCursor(name, tid)
        return cursor

    def _complete_region(
        self, cursor: _ThreadCursor, opener, closer, segment_ordinal: int
    ) -> None:
        open_step, start_ts, start_kind = opener
        end_step, end_ts, end_kind = closer
        start_step = open_step + 1
        region_index = cursor.region_index
        cursor.region_index += 1
        # Claim the unclaimed rows below end_step, chunk by chunk, by
        # bisecting each chunk's step column (only steps are compared).
        # Rows below start_step are stragglers of the *previous* closing
        # sequencer's step (the VM emits a sync instruction's sequencer
        # before its access hooks) — always sync-flagged, outside every
        # region.
        rows = _NO_ROWS
        chunks = cursor.chunks
        while chunks:
            chunk = chunks[0]
            columns, lo = chunk
            steps = columns.steps
            hi = bisect_left(steps, end_step, lo)
            if lo < hi and steps[lo] < start_step:
                first = bisect_left(steps, start_step, lo, hi)
                for position in range(lo, first):
                    if not columns.flags[position] & 2:
                        raise LogViewUnavailable(
                            "segment stream inconsistent: thread %r has a "
                            "plain access row below its region window (at "
                            "segment %d, step %d)"
                            % (cursor.name, segment_ordinal, steps[position])
                        )
                lo = first
            if lo < hi:
                part = RowView(columns, lo, hi)
                rows = part if rows is _NO_ROWS else _joined(rows, part)
            if hi < len(steps):
                chunk[1] = hi
                break
            del chunks[0]
        if end_step <= start_step:
            return  # step-empty: holds no access
        region = SequencingRegion(
            thread_name=cursor.name,
            tid=cursor.tid,
            index=region_index,
            start_step=start_step,
            end_step=end_step,
            start_ts=start_ts,
            end_ts=end_ts,
            start_kind=start_kind,
            end_kind=end_kind,
        )
        heappush(self._pending, (start_ts, self._tiebreak, region, rows))
        self._tiebreak += 1

    def _release(
        self, bound: Optional[int]
    ) -> List[Tuple[SequencingRegion, RowView]]:
        released: List[Tuple[SequencingRegion, RowView]] = []
        pending = self._pending
        while pending and (bound is None or pending[0][0] < bound):
            _, _, region, rows = heappop(pending)
            released.append((region, rows))
        return released


def _joined(first: RowView, second: RowView) -> RowView:
    """One view over the rows of two segments' views — the only place
    the cursor copies rows (a region's rows normally all arrive in the
    segment of its closing sequencer)."""
    columns = CapturedColumnView(
        *(
            head[first.lo : first.hi] + tail[second.lo : second.hi]
            for head, tail in zip(
                row_columns(first.columns), row_columns(second.columns)
            )
        )
    )
    return RowView(columns, 0, len(first) + len(second))


class StreamingLogView:
    """Streaming sibling of :class:`LogView`: regions in sweep order,
    with resident state bounded by the segment window.

    Wraps a segmented container's
    :func:`~repro.record.binary_format.iter_segments` and a
    :class:`SegmentCursor`.  :meth:`stream_windows` yields
    ``(region, rows)`` in exactly the opening-timestamp order the batch
    detector sweeps, so feeding them to the streaming detector
    reproduces the batch race set byte for byte.

    Carries the same identity surface as :class:`LogView`
    (``program_name``/``seed``/``scheduler``, lazy ``program``);
    ``access_index()`` returns the detector's
    :class:`~repro.analysis.access_index.StreamingAccessWindow` once
    attached, so post-detection ``--perf`` plumbing works unchanged.
    """

    def __init__(
        self,
        *,
        program_name: str,
        program_source: str,
        seed: int,
        scheduler: str,
        segments: Iterable,
        perf=None,
    ):
        self.program_name = program_name
        self.program_source = program_source
        self.seed = seed
        self.scheduler = scheduler
        self._segments = segments
        self._perf = perf
        self.cursor = SegmentCursor()
        #: thread name -> the block it runs, as the fed segments name it.
        self.thread_blocks: Dict[str, str] = {}
        self._program = None
        self._window = None
        if perf is not None:
            perf.detect_log_native += 1

    # -- construction ---------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes, perf=None):
        """Stream a segmented (v4, v5) container, one segment frame
        decompressed at a time.  Any other input — monolithic v1–v3
        bytes, JSON, a decoded log — and a captureless container raise
        :class:`LogViewUnavailable`."""
        if isinstance(data, (bytearray, memoryview)):
            data = bytes(data)
        if not isinstance(data, bytes) or not is_segmented_log(data):
            raise LogViewUnavailable(
                "the streaming path reads segmented (v4, v5) containers "
                "only: record with --segment-bytes, or leave the mode to "
                "the input"
            )
        header = read_segmented_header(data)
        _require_capture(header.has_captured or None, header.version, "streaming")
        return cls(
            program_name=header.program_name,
            program_source=header.program_source,
            seed=header.seed,
            scheduler=header.scheduler,
            segments=iter_segments(data),
            perf=perf,
        )

    # -- streaming ------------------------------------------------------

    def stream_windows(
        self,
    ) -> Iterator[List[Tuple[SequencingRegion, List[tuple]]]]:
        """Every ``(region, rows)`` in opening-timestamp order, one list
        per sealed segment (plus a final drain) — the granularity eager
        classification fires at — holding only the active window
        resident.  Empty windows are skipped.  Single use."""
        for segment in self._segments:
            for name, thread in segment.threads.items():
                self.thread_blocks.setdefault(name, thread.block)
            window = self.cursor.feed(segment)
            if window:
                yield window
        window = self.cursor.finish()
        if window:
            yield window

    @property
    def segments_fed(self) -> int:
        return self.cursor.segments_fed

    # -- the post-detection surface -------------------------------------

    def attach_window(self, window) -> None:
        """Record the detector's access window (for ``access_index()``)."""
        self._window = window

    def access_index(self):
        """The streaming window standing in for the batch
        :class:`AccessIndex` (``stats()``-compatible)."""
        if self._window is None:
            raise LogViewUnavailable(
                "streaming view has no access window yet: run the "
                "streaming detector first"
            )
        return self._window

    @property
    def program(self):
        """The embedded program, assembled on first use (presentation
        only — streaming detection never touches it).  A segmented container
        names a thread's block only inside its segments, so the pairing
        checks every block the stream has fed."""
        if self._program is None:
            from ..isa.assembler import assemble

            program = assemble(self.program_source, name=self.program_name)
            for name, block in self.thread_blocks.items():
                thread_block(program, name, block)
            self._program = program
        return self._program

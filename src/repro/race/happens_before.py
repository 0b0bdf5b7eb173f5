"""Happens-before data race detection over sequencing regions (Section 3.4).

Two memory operations race when they execute in *overlapping* sequencing
regions of different threads, touch the same address, and at least one is
a write.  Because "overlapping" literally means no sequencer separates the
two operations in the global synchronization order, every reported pair is
a true unordered conflict — **no false positives**, the property the paper
chose the happens-before algorithm for.

Detection is one pass over the regions in opening-timestamp order, as in
on-the-fly detection over a replayed stream: :class:`SweepKernel` is that
pass, fed one region at a time, and it is the only copy of the sweep.
Regions enter an active set at their opening timestamp and expire at
their closing one, so only genuinely overlapping pairs are ever examined;
within the active set, candidate partners are found through per-address
sets instead of scanning every active region.  Work is proportional to
overlap and address sharing, not to the square of the region count.
Every detect path drives the kernel:

* :class:`HappensBeforeDetector` — batch detection: the kernel over the
  in-memory :class:`AccessIndex` of an :class:`OrderedReplay` or a
  zero-replay :class:`~repro.replay.log_view.LogView`;
* :class:`StreamingHappensBeforeDetector` — the kernel over a
  :class:`StreamingAccessWindow` fed by the segment cursor, reporting
  races while later segments are still being read;
* :func:`parallel_detect_races` — one streaming detector per worker over
  a contiguous segment range, with the regions straddling in from
  earlier ranges preloaded silently.

The seed's quadratic region-pair loop lives on as the test oracle
(``tests/reference_detector.py``); the equivalence tests hold every path
to byte-identical output against it — instances, ordering and
truncation counters.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from ..record.binary_format import (
    MappedSegmentedReader,
    read_segment_payload,
    scan_segment_sequencers,
)
from ..replay.log_view import LogView, SegmentCursor
from ..replay.ordered_replay import OrderedReplay
from ..replay.regions import SequencingRegion
from .model import RaceAccess, RaceInstance


def sort_canonically(instances: List[RaceInstance]) -> List[RaceInstance]:
    """Sort race instances into the canonical detector order, in place.

    The key is total, so enumeration order never leaks into the output:
    every path that finds the same race set returns the same list.
    """
    instances.sort(
        key=lambda instance: (
            instance.region_a.start_ts,
            instance.region_b.start_ts,
            instance.access_a.thread_step,
            instance.access_b.thread_step,
            instance.address,
        )
    )
    return instances


class SweepKernel:
    """The happens-before sweep line, one region at a time.

    ``store`` holds the regions' accesses, addressed by ordinal: an
    :class:`AccessIndex` (batch) or a :class:`StreamingAccessWindow`.
    It answers three calls: ``addresses_of(ordinal)``, the distinct
    addresses a region touches; ``accesses_at(ordinal, address)``, its
    rows there as ``(step, is_write, value, static_id)`` in step order;
    and ``retire(ordinal)``, once the region has expired.  A region pair
    is compared only on the addresses both regions touch, row by row,
    and each instance is built straight from those rows.

    Regions must be swept in opening-timestamp order.  A region expires
    from the active set once its closing timestamp is at or before the
    sweep position — exactly the negation of the strict
    :func:`~repro.replay.regions.overlaps` definition — so the active set holds precisely the earlier-opening
    regions that overlap the entering one.  Candidate partners are the
    active regions sharing at least one address with the entering region.
    Expired regions are retired from the store at once, which is what
    bounds a window's resident state by the active overlap window.

    ``max_pairs_per_location`` caps the number of instance pairs reported
    per (region pair, address) so that adversarial loops cannot explode
    the instance count; the cap is reported via ``truncated_locations``.
    """

    def __init__(self, store, max_pairs_per_location: Optional[int] = 256):
        self.store = store
        self.max_pairs_per_location = max_pairs_per_location
        self.truncated_locations = 0
        #: Regions swept (straddlers preloaded by a fan-out worker are
        #: not) and region pairs examined for conflicts.
        self.swept = 0
        self.examined = 0
        #: Min-heap of (end_ts, ordinal) over currently active regions.
        self._expiry: List[Tuple[int, int]] = []
        self._active: Dict[int, SequencingRegion] = {}
        #: address -> ordinals of active regions touching it.
        self._active_by_address: Dict[int, Set[int]] = defaultdict(set)

    def sweep(self, ordinal: int, region: SequencingRegion) -> List[RaceInstance]:
        """Sweep one region; returns the race instances it completed."""
        store = self.store
        active = self._active
        active_by_address = self._active_by_address
        expiry = self._expiry
        start_ts = region.start_ts
        while expiry and expiry[0][0] <= start_ts:
            _, expired = heappop(expiry)
            for address in store.addresses_of(expired):
                active_by_address[address].discard(expired)
            del active[expired]
            store.retire(expired)
        self.swept += 1
        addresses = store.addresses_of(ordinal)
        candidates: Set[int] = set()
        for address in addresses:
            candidates |= active_by_address[address]
        tid = region.tid
        instances: List[RaceInstance] = []
        for other in sorted(candidates):
            other_region = active[other]
            if other_region.tid == tid:
                continue
            self.examined += 1
            instances.extend(self._conflicts(other, other_region, ordinal, region))
        self.preload(ordinal, region)
        return instances

    def preload(self, ordinal: int, region: SequencingRegion) -> None:
        """Activate a region without sweeping it: it expires, shares
        addresses and pairs with later regions as usual, but emits
        nothing itself and does not count as swept."""
        heappush(self._expiry, (region.end_ts, ordinal))
        self._active[ordinal] = region
        active_by_address = self._active_by_address
        for address in self.store.addresses_of(ordinal):
            active_by_address[address].add(ordinal)

    def drain(self) -> None:
        """Retire every still-active region (the input is exhausted)."""
        while self._expiry:
            _, expired = heappop(self._expiry)
            self.store.retire(expired)
        self._active.clear()
        self._active_by_address.clear()

    def record_perf(self, perf) -> None:
        """Add this sweep's work counters to a :class:`PerfStats`: regions
        swept, pairs examined, and pairs pruned against the quadratic
        pair count the naive loop would have visited."""
        perf.detect_regions += self.swept
        perf.detect_pairs_examined += self.examined
        perf.detect_pairs_pruned += self.swept * (self.swept - 1) // 2 - self.examined

    def _conflicts(
        self,
        ordinal_a: int,
        region_a: SequencingRegion,
        ordinal_b: int,
        region_b: SequencingRegion,
    ) -> List[RaceInstance]:
        # Canonical side ordering: earlier-opening region is side A.
        if (region_b.start_ts, region_b.tid) < (region_a.start_ts, region_a.tid):
            region_a, region_b = region_b, region_a
            ordinal_a, ordinal_b = ordinal_b, ordinal_a
        store = self.store
        accesses_at = store.accesses_at
        cap = self.max_pairs_per_location
        name_a, tid_a = region_a.thread_name, region_a.tid
        name_b, tid_b = region_b.thread_name, region_b.tid
        instances: List[RaceInstance] = []
        common = set(store.addresses_of(ordinal_a)).intersection(
            store.addresses_of(ordinal_b)
        )
        for address in sorted(common):
            rows_b = accesses_at(ordinal_b, address)
            emitted = 0
            for step_a, write_a, value_a, static_a in accesses_at(ordinal_a, address):
                access_a = None  # built on its first pair, shared by the rest
                for step_b, write_b, value_b, static_b in rows_b:
                    if not (write_a or write_b):
                        continue
                    if cap is not None and emitted >= cap:
                        self.truncated_locations += 1
                        break
                    # RaceAccess(thread_name, tid, thread_step, static_id,
                    # address, value, is_write)
                    if access_a is None:
                        access_a = RaceAccess(
                            name_a, tid_a, step_a, static_a, address, value_a, write_a
                        )
                    access_b = RaceAccess(
                        name_b, tid_b, step_b, static_b, address, value_b, write_b
                    )
                    instances.append(
                        RaceInstance(access_a, access_b, region_a, region_b)
                    )
                    emitted += 1
                else:
                    continue
                break
        return instances


class HappensBeforeDetector:
    """Batch detection: the sweep kernel over the columnar access index.

    The kernel consumes only ``ordered.access_index()``, so ``ordered``
    may be a full :class:`OrderedReplay` *or* the zero-replay
    :class:`~repro.replay.log_view.LogView` — race sets are
    byte-identical either way (the equivalence suite enforces it).
    Regions are visited in the index's ordinal order, which is their
    opening-timestamp order.

    ``perf`` (a :class:`repro.analysis.perf.PerfStats`) receives the
    detect-stage breakdown: index/sweep wall time and the kernel's work
    counters.
    """

    def __init__(
        self,
        ordered: "OrderedReplay | LogView",
        max_pairs_per_location: Optional[int] = 256,
        perf=None,
    ):
        self.ordered = ordered
        self.max_pairs_per_location = max_pairs_per_location
        self.perf = perf
        self.truncated_locations = 0

    def detect(self) -> List[RaceInstance]:
        """All race instances in the replayed execution, canonically ordered."""
        perf = self.perf
        if perf is None:
            return self._sweep(self.ordered.access_index())
        with perf.stage("detect.index"):
            index = self.ordered.access_index()
        with perf.stage("detect.sweep"):
            return self._sweep(index)

    def _sweep(self, index) -> List[RaceInstance]:
        kernel = SweepKernel(index, self.max_pairs_per_location)
        instances: List[RaceInstance] = []
        addresses_of = index.addresses_of
        for ordinal, region in enumerate(index.regions):
            if addresses_of(ordinal):
                instances.extend(kernel.sweep(ordinal, region))
        kernel.drain()
        self.truncated_locations = kernel.truncated_locations
        if self.perf is not None:
            kernel.record_perf(self.perf)
        return sort_canonically(instances)


class StreamingHappensBeforeDetector:
    """Streaming detection: the sweep kernel fed one region at a time.

    The segment cursor hands regions over in opening-timestamp order with
    their captured rows; :meth:`add_region` admits them to the
    :class:`StreamingAccessWindow`, runs one kernel step and *returns the
    instances that step produced*, so races surface while later segments
    are still being read (or recorded).

    :meth:`finish` returns the complete canonically-ordered race set —
    byte-identical to the batch detector's (the same kernel over the same
    regions in the same order).
    """

    def __init__(
        self,
        max_pairs_per_location: Optional[int] = 256,
        perf=None,
    ):
        # Local import: the analysis package imports this module.
        from ..analysis.access_index import StreamingAccessWindow

        self.window = StreamingAccessWindow()
        self.kernel = SweepKernel(self.window, max_pairs_per_location)
        self.perf = perf
        self._instances: List[RaceInstance] = []
        self._last_start_ts: Optional[int] = None
        self._finished = False

    @property
    def truncated_locations(self) -> int:
        return self.kernel.truncated_locations

    def add_region(self, region: SequencingRegion, rows) -> List[RaceInstance]:
        """Sweep one region; returns the race instances it completed.

        ``rows`` is the cursor's :class:`~repro.replay.log_view.RowView`
        of the region's captured rows (sync rows filtered by the window).
        Regions must arrive in strictly increasing ``start_ts`` order —
        the segment cursor's release order.
        """
        ordinal = self._admit(region, rows, counted=True)
        if ordinal is None:
            return []
        fresh = self.kernel.sweep(ordinal, region)
        self._instances.extend(fresh)
        return fresh

    def preload(self, region: SequencingRegion, rows) -> bool:
        """Activate a region without sweeping or counting it — a fan-out
        worker's straddler, which an earlier worker owns.  Returns
        whether the region carried a plain access (and so joined the
        active set)."""
        ordinal = self._admit(region, rows, counted=False)
        if ordinal is None:
            return False
        self.kernel.preload(ordinal, region)
        return True

    def _admit(self, region: SequencingRegion, rows, counted: bool) -> Optional[int]:
        if self._last_start_ts is not None and region.start_ts <= self._last_start_ts:
            raise ValueError(
                "streaming sweep fed out of order: region %s opens at ts %d, "
                "after ts %d was already swept"
                % (region, region.start_ts, self._last_start_ts)
            )
        self._last_start_ts = region.start_ts
        return self.window.admit(region, rows, counted=counted)

    def finish(self) -> List[RaceInstance]:
        """Retire the remaining window and return the canonical race set."""
        if not self._finished:
            self._finished = True
            self.kernel.drain()
            if self.perf is not None:
                self.kernel.record_perf(self.perf)
        return sort_canonically(self._instances)


def find_races(
    ordered: "OrderedReplay | LogView",
    max_pairs_per_location: Optional[int] = 256,
) -> List[RaceInstance]:
    """Convenience wrapper around :class:`HappensBeforeDetector`."""
    return HappensBeforeDetector(
        ordered, max_pairs_per_location=max_pairs_per_location
    ).detect()


# ----------------------------------------------------------------------
# Parallel segment-fanout detection.
#
# A segmented container's segments are self-contained and indexed by the
# footer, so the sweep partitions cleanly: worker *k* owns the regions
# whose opening sequencer timestamp falls inside its contiguous segment
# range.  Because timestamps are globally unique and a thread has at
# most one region open at any instant, the only regions from earlier
# ranges that can overlap worker *k*'s owned regions are the per-thread
# regions still open at the cut — the *straddlers*.  Each worker
# preloads its straddlers into the sweep's active set without emitting
# for them (their pairs belong to the worker that owns the
# later-opening side), so every overlapping pair is emitted exactly
# once, by exactly one worker, with the same per-(pair, address) cap
# arithmetic as the serial sweep.  Concatenating the workers' instances
# and applying the canonical sort therefore reproduces the serial
# output byte for byte.
# ----------------------------------------------------------------------


def _partition_worker(task: tuple) -> dict:
    """One worker: stream a contiguous segment range through the sweep.

    ``task`` is ``(path, s_lo, s_hi, max_pairs_per_location)``.  The
    worker mmaps the container itself, skips the access rows of
    every prelude segment (it only needs per-thread sequencer counts and
    each thread's last pre-range sequencer — the opener of its possible
    straddler), reads its owned range through the same per-segment
    reader as :func:`~repro.record.binary_format.iter_segments` (heap
    rows skipped), and keeps reading past the range only while a thread
    still has an open region that started at or below the range end.
    """
    path, s_lo, s_hi, max_pairs = task
    started = time.perf_counter()
    cpu_started = time.process_time()
    cursor = SegmentCursor()
    detector = StreamingHappensBeforeDetector(max_pairs_per_location=max_pairs)
    stitches = 0
    with MappedSegmentedReader(path) as reader:
        entries = reader.index
        range_start = entries[s_lo].first_ts
        range_end = entries[s_hi - 1].last_ts
        for entry in entries[:s_lo]:
            payload = reader.segment_payload(entry)
            for name, tid, _block, count, step, ts, kind in scan_segment_sequencers(
                payload, reader.version
            ):
                cursor.skip(name, tid, count, (step, ts, kind))
        blocks: Dict[str, str] = {}
        for position in range(s_lo, len(entries)):
            if position >= s_hi:
                earliest = cursor.earliest_open_ts()
                if earliest is None or earliest > range_end:
                    break  # every region we could still own has closed
            payload = reader.segment_payload(entries[position])
            segment = read_segment_payload(payload, reader.version, keep_heap=False)
            for name, thread in segment.threads.items():
                blocks.setdefault(name, thread.block)
            stitches += _sweep_range(
                detector, cursor.feed(segment), range_start, range_end
            )
    stitches += _sweep_range(detector, cursor.finish(), range_start, range_end)
    instances = detector.finish()
    window = detector.window
    return {
        "instances": instances,
        "truncated": detector.truncated_locations,
        "swept": detector.kernel.swept,
        "examined": detector.kernel.examined,
        "stitches": stitches,
        "segments": s_hi - s_lo,
        "blocks": blocks,
        "owned": {
            "regions": window.regions,
            "accesses": window.accesses,
            "writes": window.writes,
            # Distinct addresses only union correctly across workers.
            "addresses": frozenset(window.addresses_seen),
        },
        "worker_s": time.perf_counter() - started,
        # CPU seconds are the honest per-worker compute measure: when
        # workers outnumber free cores they time-share, which inflates
        # every worker's wall clock but not its CPU time.
        "worker_cpu_s": time.process_time() - cpu_started,
        "pid": os.getpid(),
    }


def _sweep_range(detector, released, range_start: int, range_end: int) -> int:
    """Feed released regions to a worker's detector: straddlers (opened
    before the range) preload silently, owned regions sweep, and regions
    opening after the range — a later worker's — are dropped.  Returns
    the number of straddlers that joined the active set."""
    stitches = 0
    for region, rows in released:
        if region.start_ts < range_start:
            stitches += detector.preload(region, rows)
        elif region.start_ts <= range_end:
            detector.add_region(region, rows)
    return stitches


def partition_segment_ranges(entries, jobs: int) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` segment ranges, balanced by row counts.

    The footer index records per-segment access- and sequencer-row
    counts, so the partitioner can equalize decode work (the dominant
    cost — both row kinds cost a comparable number of varint reads)
    instead of segment counts.  At most ``min(jobs, len(entries))``
    ranges come back; every segment lands in exactly one.
    """
    count = len(entries)
    jobs = max(1, min(jobs, count))
    weights = [
        entry.access_rows + entry.sequencer_rows + 1 for entry in entries
    ]
    remaining = sum(weights)
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for workers_left in range(jobs, 0, -1):
        if lo >= count:
            break
        if workers_left == 1:
            hi = count
        else:
            target = remaining / workers_left
            acc = 0
            hi = lo
            # Leave at least one segment per remaining worker.
            ceiling = count - (workers_left - 1)
            while hi < ceiling:
                if hi > lo and acc + weights[hi] > target:
                    break
                acc += weights[hi]
                hi += 1
        ranges.append((lo, hi))
        remaining -= sum(weights[lo:hi])
        lo = hi
    return ranges


@dataclass
class ParallelDetectOutcome:
    """What the fan-out produced, plus the counters the caller surfaces."""

    instances: List[RaceInstance]
    truncated_locations: int
    stats: Dict[str, int]
    segments: int
    workers: int
    boundary_stitches: int
    #: The container's identity section (a
    #: :class:`~repro.record.binary_format.SegmentedHeader`).
    header: object = None
    #: thread name -> the block it runs, as the workers' segments name it.
    thread_blocks: Dict[str, str] = field(default_factory=dict)
    #: Per-worker wall clock (inflated by time-sharing when workers
    #: outnumber free cores) and CPU seconds (contention-independent).
    worker_seconds: List[float] = field(default_factory=list)
    worker_cpu_seconds: List[float] = field(default_factory=list)
    worker_pids: List[int] = field(default_factory=list)


def parallel_detect_races(
    path,
    jobs: int,
    max_pairs_per_location: Optional[int] = 256,
    perf=None,
) -> ParallelDetectOutcome:
    """Fan a v4/v5 container's segments across a process pool and merge.

    The parent maps the file, decodes only the header and footer (the
    segment index), and never holds the container bytes; each worker
    decompresses exactly the segments it reads.  The merged instance
    list — canonical order included — and the truncation counter are
    byte-identical to the serial sweep's.
    """
    from contextlib import nullcontext

    path = os.fspath(path)
    with MappedSegmentedReader(path) as reader:
        entries = reader.index
        header = reader.header
    if not header.has_captured:
        # Without access rows every worker would sweep nothing and the
        # merge would report a race-free log.
        raise ValueError(
            "parallel detection needs captured access columns: this "
            "segmented container was written without them"
        )
    ranges = partition_segment_ranges(entries, jobs) if entries else []
    tasks = [(path, lo, hi, max_pairs_per_location) for lo, hi in ranges]
    with perf.stage("detect.fanout") if perf is not None else nullcontext():
        if len(tasks) <= 1:
            results = [_partition_worker(task) for task in tasks]
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
                results = list(pool.map(_partition_worker, tasks))
    merge_started = time.perf_counter()
    with perf.stage("detect.merge") if perf is not None else nullcontext():
        instances: List[RaceInstance] = []
        for result in results:
            instances.extend(result["instances"])
        sort_canonically(instances)
        swept = sum(result["swept"] for result in results)
        examined = sum(result["examined"] for result in results)
        stitches = sum(result["stitches"] for result in results)
        addresses: Set[int] = set()
        thread_blocks: Dict[str, str] = {}
        for result in results:
            addresses.update(result["owned"]["addresses"])
            for name, block in result["blocks"].items():
                thread_blocks.setdefault(name, block)
        stats = {
            "regions": sum(result["owned"]["regions"] for result in results),
            "accesses": sum(result["owned"]["accesses"] for result in results),
            "addresses": len(addresses),
            "writes": sum(result["owned"]["writes"] for result in results),
        }
    merge_seconds = time.perf_counter() - merge_started
    if perf is not None:
        perf.detect_regions += swept
        perf.detect_pairs_examined += examined
        perf.detect_pairs_pruned += swept * (swept - 1) // 2 - examined
        perf.parallel_segments += len(entries)
        perf.parallel_workers += len(tasks)
        perf.parallel_boundary_stitches += stitches
        perf.parallel_merge_s += merge_seconds
        perf.parallel_worker_sweep_s += sum(
            result["worker_cpu_s"] for result in results
        )
        if len(tasks) > 1:
            perf.pool_tasks += len(tasks)
            perf.pool_workers.update(result["pid"] for result in results)
    return ParallelDetectOutcome(
        instances=instances,
        truncated_locations=sum(result["truncated"] for result in results),
        stats=stats,
        segments=len(entries),
        workers=len(tasks),
        boundary_stitches=stitches,
        header=header,
        thread_blocks=thread_blocks,
        worker_seconds=[result["worker_s"] for result in results],
        worker_cpu_seconds=[result["worker_cpu_s"] for result in results],
        worker_pids=[result["pid"] for result in results],
    )


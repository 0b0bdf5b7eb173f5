"""Region-ordered global replay: rebuild shared-memory state from the logs.

iDNA replays one sequencing region at a time, choosing the not-yet-replayed
region with the smallest opening sequencer (Section 3.3).  This module does
the same walk to reconstruct, purely from the logs:

* the global memory image *just before* any given region starts (the
  virtual processor's live-in memory),
* the heap's freed-range set at that point (so an alternative-order replay
  can fault on use-after-free exactly like the paper's Figure 2 example),
* the program output in replay order.

The reconstruction is exact for correctly synchronized programs and a
best-effort linearization where data races exist — which is precisely why
racing operations need the both-orders classification rather than a single
replayed order.

Snapshots are **copy-on-write deltas**: the walk appends every store to a
versioned, writer-tagged history instead of copying the whole memory image
per region (the seed implementation's ``dict(image)`` was O(regions x
image) in both time and space).  A region's live-in is reconstructed
lazily, on first query, by reading the history at the region's opening
version; a *pair* snapshot is the same read with the earlier racing
region's stores filtered out — which also replaces the seed's full
re-walk per racing pair.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..isa.program import Program
from ..record.log import ReplayLog, SequencerRecord
from .errors import ReplayDivergence, thread_block
from .events import ReplayedAccess, ThreadReplay
from .regions import SequencingRegion, regions_of_thread
from .thread_replayer import ThreadReplayer

#: Key identifying a region: (tid, region index within its thread).
RegionKey = Tuple[int, int]


def region_key(region: SequencingRegion) -> RegionKey:
    return (region.tid, region.index)


class _LazyThreadReplays(Mapping):
    """``thread name -> ThreadReplay``, replaying each thread on first access.

    The walk and the access index can usually be fed straight from
    ``log.captured`` columns, so replay interpretation is deferred until a
    consumer (classifier, inspector, CLI) actually asks for a thread.
    Membership and iteration come from the log, so neither materializes
    anything.
    """

    def __init__(self, ordered: "OrderedReplay"):
        self._ordered = ordered
        self._replays: Dict[str, ThreadReplay] = {}

    def __getitem__(self, name: str) -> ThreadReplay:
        replay = self._replays.get(name)
        if replay is None:
            if name not in self._ordered.log.threads:
                raise KeyError(name)
            replay = self._ordered._replay_thread(name)
            self._replays[name] = replay
        return replay

    def __contains__(self, name) -> bool:
        return name in self._ordered.log.threads

    def __iter__(self):
        return iter(self._ordered.log.threads)

    def __len__(self) -> int:
        return len(self._ordered.log.threads)


class _ColumnarWalkSource:
    """Feeds the ordered walk from columnar access rows — either the
    recorder's :class:`~repro.record.log.ThreadAccessColumns` (captured
    handoff: no instruction is re-interpreted) or a thread replay's access
    columns.  ``steps`` is non-decreasing, so row ranges are bisects."""

    __slots__ = ("_steps", "_addresses", "_values", "_flags", "_heap_by_step")

    def __init__(
        self,
        steps: List[int],
        addresses: List[int],
        values: List[int],
        flags: List[int],
        heap_events: Iterable[Tuple[int, str, int, int]],
    ):
        self._steps = steps
        self._addresses = addresses
        self._values = values
        self._flags = flags
        heap_by_step: Dict[int, List[Tuple[str, int, int]]] = {}
        for step, kind, base, size in heap_events:
            heap_by_step.setdefault(step, []).append((kind, base, size))
        self._heap_by_step = heap_by_step

    def writes_in_steps(self, start_step: int, end_step: int):
        steps = self._steps
        lo = bisect_left(steps, start_step)
        hi = bisect_left(steps, end_step, lo)
        addresses, values, flags = self._addresses, self._values, self._flags
        return [
            (addresses[row], values[row])
            for row in range(lo, hi)
            if flags[row] & 1
        ]

    def writes_at(self, step: int):
        return self.writes_in_steps(step, step + 1)

    def heap_events_at(self, step: int):
        return self._heap_by_step.get(step, ())


#: One address's store history as three parallel columns: versions
#: (strictly increasing ints), values, writers.
_AddressHistory = Tuple[List[int], List[int], List[Optional[RegionKey]]]


class VersionedImage:
    """Append-only, writer-tagged memory history with point-in-time reads.

    Every store is appended under its address as a ``(version, value,
    writer)`` row of three parallel columns; ``writer`` is the region that
    performed it (``None`` for boundary sync/heap effects, which belong to
    no region).  Reconstruction at a version — optionally excluding some
    writers — is one int bisect per address over the version column, so
    snapshots cost O(addresses touched) instead of O(full image) per
    region.
    """

    __slots__ = ("_history", "_version")

    def __init__(self, initial: Dict[int, int]):
        self._history: Dict[int, _AddressHistory] = {
            address: ([0], [value], [None]) for address, value in initial.items()
        }
        self._version = 0

    @property
    def version(self) -> int:
        return self._version

    def write(self, address: int, value: int, writer: Optional[RegionKey]) -> None:
        self._version += 1
        columns = self._history.get(address)
        if columns is None:
            self._history[address] = ([self._version], [value], [writer])
        else:
            columns[0].append(self._version)
            columns[1].append(value)
            columns[2].append(writer)

    def reconstruct(
        self, version: int, excluded: Optional[Set[RegionKey]] = None
    ) -> Dict[int, int]:
        """The image at ``version``, skipping writes by ``excluded`` regions."""
        image: Dict[int, int] = {}
        for address, (versions, values, writers) in self._history.items():
            # Last entry with entry_version <= version …
            position = bisect_right(versions, version) - 1
            # … then skip back over excluded writers.
            while position >= 0 and excluded and writers[position] in excluded:
                position -= 1
            if position >= 0:
                image[address] = values[position]
        return image

    def lazy_view(
        self, version: int, excluded: FrozenSet[RegionKey] = frozenset()
    ) -> "_LazyImageView":
        """A lazy, read-only equivalent of :meth:`reconstruct`.

        Resolves one address per query instead of materializing the whole
        image; address-for-address the answers are identical to the
        reconstructed dict's.
        """
        return _LazyImageView(self._history, version, excluded)


class _LazyImageView:
    """Lazy point-in-time read of a :class:`VersionedImage`.

    Supports the read-only mapping protocol the classifier and virtual
    processor use on live-in images (``get``/``in``/``[]``) and resolves
    each address with one int bisect on first query, remembering the
    answer: a later store gets a later version, which this view never
    sees, so an answer cannot change.  The batched classifier reads pair
    live-in state through this view: verdict-cache probes and
    virtual-processor loads only ever touch a handful of addresses, so
    materializing the full image per racing pair is wasted work there.
    """

    __slots__ = ("_history", "_version", "_excluded", "_resolved")

    _MISS = object()

    def __init__(
        self,
        history: Dict[int, _AddressHistory],
        version: int,
        excluded: FrozenSet[RegionKey],
    ):
        self._history = history
        self._version = version
        self._excluded = excluded
        self._resolved: Dict[int, object] = {}

    def _resolve(self, address: int):
        try:
            return self._resolved[address]
        except KeyError:
            pass
        value = self._MISS
        columns = self._history.get(address)
        if columns is not None:
            versions, values, writers = columns
            position = bisect_right(versions, self._version) - 1
            excluded = self._excluded
            while position >= 0 and writers[position] in excluded:
                position -= 1
            if position >= 0:
                value = values[position]
        self._resolved[address] = value
        return value

    def get(self, address: int, default=None):
        value = self._resolve(address)
        return default if value is self._MISS else value

    def __contains__(self, address: int) -> bool:
        return self._resolve(address) is not self._MISS

    def __getitem__(self, address: int):
        value = self._resolve(address)
        if value is self._MISS:
            raise KeyError(address)
        return value


class OrderedReplay:
    """Replays a whole log in sequencer order, snapshotting region live-ins."""

    def __init__(
        self,
        log: ReplayLog,
        program: Optional[Program] = None,
        *,
        fast_path: bool = True,
        perf=None,
    ):
        # The keyword stays only because the pipeline benchmark
        # (benchmarks/pipeline/runners.py) passes ``fast_path=True``; there
        # is no other replay path to select.
        if fast_path is not True:
            raise ValueError(
                "OrderedReplay has one replay path; fast_path must be True"
            )
        self.log = log
        self.program = program if program is not None else log.reassemble_program()
        for name, thread_log in log.threads.items():
            thread_block(self.program, name, thread_log.block)
        self._perf = perf
        #: Lazy mapping: each thread is replayed on first access (the walk
        #: and index usually run off ``log.captured`` columns instead).
        self.thread_replays: Mapping[str, ThreadReplay] = _LazyThreadReplays(self)
        self.regions: Dict[str, List[SequencingRegion]] = {
            name: regions_of_thread(thread_log)
            for name, thread_log in log.threads.items()
        }
        #: Per-thread region start steps, for the bisect in
        #: :meth:`region_for_step`.
        self._region_starts: Dict[str, List[int]] = {
            name: [region.start_step for region in thread_regions]
            for name, thread_regions in self.regions.items()
        }
        self._sequencer_entries: Optional[
            List[Tuple[SequencerRecord, str, Optional[SequencingRegion]]]
        ] = None
        #: Version of the memory/freed history at each region's open (after
        #: the opening sequencer's boundary effects, before the region's
        #: own stores) — the delta-snapshot replacement for eager copies.
        self._region_versions: Dict[RegionKey, int] = {}
        self._snapshot_cache: Dict[RegionKey, Tuple[Dict[int, int], Dict[int, int]]] = {}
        self._pair_snapshots: Dict[
            Tuple[RegionKey, RegionKey], Tuple[Dict[int, int], Dict[int, int]]
        ] = {}
        self._pair_views: Dict[
            Tuple[RegionKey, RegionKey],
            Tuple[_LazyImageView, Dict[int, int]],
        ] = {}
        self._image = VersionedImage(self.program.initial_memory())
        #: Freed-range history: (version, base, size) in walk order.
        self._freed_history: List[Tuple[int, int, int]] = []
        self._final_image: Dict[int, int] = {}
        self._final_freed: Dict[int, int] = {}
        #: Columnar access index, built once on first analysis query.
        self._access_index = None
        #: Per-region content memo, built once on first analysis query.
        self._region_contents = None
        self._walk()

    # ------------------------------------------------------------------
    # Thread replay materialization.
    # ------------------------------------------------------------------

    def _replay_thread(self, name: str) -> ThreadReplay:
        """Replay one thread, with perf accounting."""
        return ThreadReplayer(self.program, self.log, name).run(self._perf)

    # ------------------------------------------------------------------
    # The region-ordered walk.
    # ------------------------------------------------------------------

    def sequencers_with_regions(
        self,
    ) -> List[Tuple[SequencerRecord, str, Optional[SequencingRegion]]]:
        """Every sequencer in global timestamp order, paired with its thread
        name and the region it opens (``None`` for thread-end sequencers).
        The canonical linearization both the internal walk and the baseline
        detectors iterate.  Computed once and cached — the walk, the naive
        reference detector and the linearizer all consume it."""
        if self._sequencer_entries is None:
            entries: List[Tuple[SequencerRecord, str, Optional[SequencingRegion]]] = []
            for name, thread_log in self.log.threads.items():
                ordered = sorted(thread_log.sequencers, key=lambda s: s.timestamp)
                thread_regions = self.regions[name]
                for index, sequencer in enumerate(ordered):
                    following = (
                        thread_regions[index] if index < len(thread_regions) else None
                    )
                    entries.append((sequencer, name, following))
            entries.sort(key=lambda entry: entry[0].timestamp)
            self._sequencer_entries = entries
        return self._sequencer_entries

    def _walk_source(self, name: str):
        """The cheapest equivalent row source for one thread's walk events.

        Captured recorder columns when present (no re-interpretation at
        all), the thread replay's access columns otherwise.  Returns
        ``(source, served_from_capture)``.
        """
        captured = self.log.captured
        if captured is not None:
            columns = captured.threads.get(name)
            if columns is not None:
                return (
                    _ColumnarWalkSource(
                        columns.steps,
                        columns.addresses,
                        columns.values,
                        columns.flags,
                        zip(
                            columns.heap_steps,
                            columns.heap_kinds,
                            columns.heap_bases,
                            columns.heap_sizes,
                        ),
                    ),
                    True,
                )
        replay = self.thread_replays[name]
        accesses = replay.accesses
        return (
            _ColumnarWalkSource(
                accesses._steps,
                accesses._addresses,
                accesses._values,
                accesses._flags,
                (
                    (event.thread_step, event.kind, event.base, event.size)
                    for event in replay.heap_events
                ),
            ),
            False,
        )

    def _walk(self) -> None:
        image: Dict[int, int] = dict(self.program.initial_memory())
        freed: Dict[int, int] = {}
        live_allocations: Dict[int, int] = {}
        sources = {}
        from_capture = bool(self.log.threads)
        for name in self.log.threads:
            sources[name], captured = self._walk_source(name)
            from_capture = from_capture and captured
        if from_capture and self._perf is not None:
            self._perf.replay_captured_handoffs += 1
        for sequencer, thread_name, following in self.sequencers_with_regions():
            source = sources[thread_name]
            if sequencer.thread_step >= 0 and sequencer.kind not in (
                "thread_start",
                "thread_end",
            ):
                self._apply_boundary_effects(
                    source, sequencer.thread_step, image, freed, live_allocations
                )
            if following is not None:
                key = region_key(following)
                self._region_versions[key] = self._image.version
                if not following.is_empty:
                    for address, value in source.writes_in_steps(
                        following.start_step, following.end_step
                    ):
                        image[address] = value
                        self._image.write(address, value, key)
        self._final_image = image
        self._final_freed = freed

    def _apply_boundary_effects(
        self,
        source,
        thread_step: int,
        image: Dict[int, int],
        freed: Dict[int, int],
        live_allocations: Dict[int, int],
    ) -> None:
        """Apply a boundary sync/syscall instruction's memory+heap effects."""
        for address, value in source.writes_at(thread_step):
            image[address] = value
            self._image.write(address, value, None)
        for kind, base, size in source.heap_events_at(thread_step):
            if kind == "alloc":
                live_allocations[base] = size
                for offset in range(size):
                    image[base + offset] = 0
                    self._image.write(base + offset, 0, None)
            else:
                freed_size = live_allocations.pop(base, 0)
                freed[base] = freed_size
                self._freed_history.append((self._image.version, base, freed_size))

    def _freed_at(self, version: int) -> Dict[int, int]:
        freed: Dict[int, int] = {}
        for freed_version, base, size in self._freed_history:
            if freed_version > version:
                break
            freed[base] = size
        return freed

    # ------------------------------------------------------------------
    # Queries used by the race analyses.
    # ------------------------------------------------------------------

    def all_regions(self) -> List[SequencingRegion]:
        """Every region of every thread, sorted by opening timestamp."""
        collected: List[SequencingRegion] = []
        for thread_regions in self.regions.values():
            collected.extend(thread_regions)
        collected.sort(key=lambda region: region.start_ts)
        return collected

    def region_for_step(
        self, thread_name: str, thread_step: int
    ) -> Optional[SequencingRegion]:
        """The region containing ``thread_step``, by bisect over region
        start steps (starts are strictly increasing per thread, and regions
        are disjoint, so the last region starting at or before the step is
        the only candidate).  Equivalent to the linear scan
        :meth:`_region_for_step_scan`, which a unit test asserts."""
        regions = self.regions[thread_name]
        index = bisect_right(self._region_starts[thread_name], thread_step) - 1
        if index >= 0 and regions[index].contains_step(thread_step):
            return regions[index]
        return None

    def _region_for_step_scan(
        self, thread_name: str, thread_step: int
    ) -> Optional[SequencingRegion]:
        """Reference linear scan kept for the equivalence unit test."""
        for region in self.regions[thread_name]:
            if region.contains_step(thread_step):
                return region
        return None

    def region_snapshot(
        self, region: SequencingRegion
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """``(live-in memory image, freed ranges)`` just before ``region``.

        Reconstructed lazily from the write-delta history on first query;
        returned dicts are fresh copies — callers may mutate them.
        """
        key = region_key(region)
        if region.is_empty or key not in self._region_versions:
            raise ReplayDivergence("no snapshot for region %s (empty region?)" % region)
        if key not in self._snapshot_cache:
            version = self._region_versions[key]
            self._snapshot_cache[key] = (
                self._image.reconstruct(version),
                self._freed_at(version),
            )
        image, freed = self._snapshot_cache[key]
        return dict(image), dict(freed)

    def pair_snapshot(
        self, region_a: SequencingRegion, region_b: SequencingRegion
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Live-in state for replaying two racing regions together.

        The image reflects everything the replayed execution committed
        before the *later* of the two regions opened — boundary sync and
        heap effects plus every other region's stores — but **excludes**
        the two racing regions' own stores, since the virtual processor
        re-executes those.  (Stores of third-party regions that opened
        before the cutoff are applied in full; their intra-region timing
        is not recoverable from the logs, and the approximation is
        identical for both replay orders.)

        Built from the walk's write-delta history: one point-in-time read
        at the later region's opening version with the earlier region's
        stores filtered out, instead of the seed's full per-pair re-walk.

        Returned dicts are fresh copies — callers may mutate them.
        """
        image, freed = self.pair_snapshot_view(region_a, region_b)
        return dict(image), dict(freed)

    def pair_snapshot_view(
        self, region_a: SequencingRegion, region_b: SequencingRegion
    ) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Like :meth:`pair_snapshot` but returns the cached dicts directly.

        The returned dicts are shared with the snapshot cache and **must
        not be mutated**.  The batched classifier uses this view: with
        hundreds of instances fanning out from one cached pair snapshot,
        the per-instance ``dict(image)`` copy is most of the classify-stage
        cost, and the virtual processor and verdict cache only ever read
        the live-in image and freed ranges.
        """
        key = (region_key(region_a), region_key(region_b))
        if key[0] > key[1]:
            key = (key[1], key[0])
        if key not in self._pair_snapshots:
            later = (
                region_a
                if region_a.start_ts >= region_b.start_ts
                else region_b
            )
            earlier = region_b if later is region_a else region_a
            version = self._region_versions[region_key(later)]
            self._pair_snapshots[key] = (
                self._image.reconstruct(version, excluded={region_key(earlier)}),
                self._freed_at(version),
            )
        return self._pair_snapshots[key]

    def pair_live_in(
        self, region_a: SequencingRegion, region_b: SequencingRegion
    ) -> Tuple["_LazyImageView", Dict[int, int]]:
        """Lazy live-in state for a racing pair: ``(image view, freed)``.

        The same state :meth:`pair_snapshot` materializes — image at the
        later region's opening version with the earlier region's stores
        excluded, plus the freed ranges — but the image is a lazy
        :class:`_LazyImageView` resolving one address per read.
        Address-for-address the values are identical to the snapshot's;
        the freed dict is shared with the cache and must not be mutated.
        """
        key = (region_key(region_a), region_key(region_b))
        if key[0] > key[1]:
            key = (key[1], key[0])
        cached = self._pair_views.get(key)
        if cached is None:
            later = (
                region_a
                if region_a.start_ts >= region_b.start_ts
                else region_b
            )
            earlier = region_b if later is region_a else region_a
            version = self._region_versions[region_key(later)]
            cached = (
                self._image.lazy_view(
                    version, frozenset((region_key(earlier),))
                ),
                self._freed_at(version),
            )
            self._pair_views[key] = cached
        return cached

    def access_index(self):
        """The execution's columnar :class:`AccessIndex`, built on first use.

        Shared by the happens-before detector and the classification
        engine: one pass over the thread replays feeds every later
        per-region or per-address query.
        """
        if self._access_index is None:
            # Local import: the index lives in the analysis layer, which
            # imports replay at module scope.
            from ..analysis.access_index import AccessIndex

            self._access_index = AccessIndex(self)
        return self._access_index

    def region_contents(self):
        """This replay's :class:`~repro.analysis.batching.RegionContents`,
        built on first use: every region's content tuple and digest,
        built at most once for the classifier's interning and the
        report's batch keys together."""
        if self._region_contents is None:
            from ..analysis.batching import RegionContents

            self._region_contents = RegionContents(self)
        return self._region_contents

    def invalidate_access_index(self) -> None:
        """Drop the cached index (benchmarks re-time the build with this)."""
        self._access_index = None

    def region_accesses(self, region: SequencingRegion) -> List[ReplayedAccess]:
        """Plain (non-sync) memory accesses inside ``region``.

        Served as an O(1) slice of the columnar access index (the seed
        re-filtered the thread replay's access list on every call).
        """
        return self.access_index().region_accesses(region)

    def live_in_registers(self, region: SequencingRegion) -> Tuple[int, ...]:
        replay = self.thread_replays[region.thread_name]
        try:
            return replay.region_start_registers[region.start_step]
        except KeyError:
            raise ReplayDivergence(
                "no register snapshot at step %d of %s"
                % (region.start_step, region.thread_name)
            )

    def region_start_pc(self, region: SequencingRegion) -> int:
        replay = self.thread_replays[region.thread_name]
        try:
            return replay.region_start_pcs[region.start_step]
        except KeyError:
            raise ReplayDivergence(
                "no pc snapshot at step %d of %s"
                % (region.start_step, region.thread_name)
            )

    def final_memory(self) -> Dict[int, int]:
        """The end-of-replay memory image (exact for race-free executions)."""
        return dict(self._final_image)

    def output(self) -> List[Tuple[str, int]]:
        """Program output merged into global (sequencer) order.

        Served straight from the logged ``sys_print`` syscall records (the
        same records thread replay would copy into ``replay.output``), so
        no thread needs materializing.  A ``sys_print`` sequencer without
        a matching logged result is a divergence — a truncated or
        tampered log — and raises :class:`ReplayDivergence` instead of
        silently dropping trailing output.
        """
        entries: List[Tuple[int, str, int]] = []
        for name, thread_log in self.log.threads.items():
            step_to_ts = {
                sequencer.thread_step: sequencer.timestamp
                for sequencer in thread_log.sequencers
                if sequencer.kind == "sys_print"
            }
            for step in sorted(step_to_ts):
                record = thread_log.syscalls.get(step)
                if record is None or record.name != "sys_print":
                    raise ReplayDivergence(
                        "thread %r: sys_print sequencer at step %d has no logged "
                        "print result" % (name, step)
                    )
                entries.append((step_to_ts[step], name, record.result))
        entries.sort()
        return [(name, value) for _, name, value in entries]

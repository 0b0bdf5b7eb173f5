"""The classification engine: memoized execution analysis.

This layer sits between :mod:`repro.analysis.pipeline` (one execution →
one :class:`ExecutionAnalysis`) and the suite/experiment drivers.  It adds
**verdict memoization**, which the per-execution pipeline does not have:
race instances that are structurally identical replays (same racing code,
same in-region offsets, same recorded prefix/suffix content, same live-in
values *where the replay actually looked*) must produce the same verdict,
so the engine caches verdicts and serves repeats without touching the
virtual processor.

Cache-key soundness (the full argument is in ``docs/performance.md``): a
verdict is a deterministic function of (a) the two racing regions'
recorded content — start pc, live-in registers, executed static ids and
every recorded access with its value, region-end state, (b) the racing
ops' in-region step offsets and owning thread names, (c) which racing op
was originally first, (d) the freed-range set, and (e) the pair-snapshot
live-in values the replay *reads*.  Components (a)–(c) form the structural
key — (a) is interned once per region so per-instance keys are tuples of
small ints; (d)–(e) cannot be known up front, so the first classification
runs with a :class:`TrackingView` that records every live-in probe
(including misses), and the probe set + values are stored with the
verdict.  A later instance hits only when its own live-in agrees on every
probed address — and since the replay is deterministic in exactly those
inputs, it would have probed the same addresses and produced the same
verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..race.classifier import ClassifierConfig, RaceClassifier
from ..race.model import RaceInstance
from ..race.outcomes import ClassifiedInstance, InstanceOutcome
from ..replay.errors import ReplayFailureKind
from ..replay.regions import SequencingRegion
from ..workloads.suite import Execution
from . import batching
from .batching import VERDICT_INDEX_VERSION, PlannedBatch, plan_batches
from .perf import PerfStats
from .pipeline import (
    ExecutionAnalysis,
    analyze_execution,
    analyze_log,
    analyze_log_stream,
    is_streamable_container,
)


class TrackingView:
    """A live-in image that records every probe, *including misses*.

    The classifier and virtual processor only ever read the live-in image
    (``in``, ``[]``, ``.get``); every such probe lands in :attr:`probes`
    as ``address -> value`` (``None`` for a miss — memory values are
    non-negative ints, so ``None`` is unambiguous).  Misses matter: a
    replay that faulted on an absent address must not hit a cached verdict
    computed when the address was present, and vice versa.

    The backing is any read-only mapping (``.get`` suffices), so the
    classifier tracks probes against :meth:`OrderedReplay.pair_live_in`'s
    lazy view without copying or reconstructing the pair image.
    """

    __slots__ = ("_backing", "probes")

    _MISS = object()

    def __init__(self, backing) -> None:
        self._backing = backing
        self.probes: Dict[int, Optional[int]] = {}

    def _probe(self, key):
        value = self._backing.get(key, self._MISS)
        self.probes[key] = None if value is self._MISS else value
        return value

    def get(self, key, default=None):
        value = self._probe(key)
        return default if value is self._MISS else value

    def __contains__(self, key) -> bool:
        return self._probe(key) is not self._MISS

    def __getitem__(self, key):
        value = self._probe(key)
        if value is self._MISS:
            raise KeyError(key)
        return value


#: What the cache stores per verdict: everything needed to rebuild a
#: ClassifiedInstance around a *different* RaceInstance object.
#: (outcome, original-first-was-side-a, pre_value, failure_kind, detail)
_VerdictTemplate = Tuple[InstanceOutcome, bool, int, object, str]

#: One local cache candidate: (probe items, freed fingerprint, template,
#: stamp).  The stamp numbers candidates in the order they were added, so
#: a :meth:`VerdictCache.snapshot` is a mark and copies no entry.
_Candidate = Tuple[Tuple[Tuple[int, Optional[int]], ...], tuple, _VerdictTemplate, int]


def _template_to_json(template: _VerdictTemplate) -> list:
    outcome, first_is_a, pre_value, failure_kind, failure_detail = template
    return [
        outcome.value,
        bool(first_is_a),
        pre_value,
        None if failure_kind is None else failure_kind.value,
        failure_detail,
    ]


def _template_from_json(raw) -> _VerdictTemplate:
    outcome, first_is_a, pre_value, failure_kind, failure_detail = raw
    if failure_detail is not None and not isinstance(failure_detail, str):
        raise ValueError("malformed failure detail %r" % (failure_detail,))
    return (
        InstanceOutcome(outcome),
        bool(first_is_a),
        int(pre_value),
        None if failure_kind is None else ReplayFailureKind(failure_kind),
        failure_detail,
    )


def freed_fingerprint(freed: Dict[int, int]) -> tuple:
    """The freed-range set as the sorted item tuple cache entries store."""
    return tuple(sorted(freed.items()))


class VerdictCache:
    """Memoized verdicts keyed by structural key + live-in probe set.

    One structural key maps to a list of candidates because the same
    structural replay can behave differently under different live-in
    images; each candidate carries the probe set its verdict was computed
    under and matches only a live-in that agrees everywhere it looked.

    Beyond the in-process cache, verdicts travel across engine lifetimes
    as a **portable index**: :meth:`export_portable` replaces the
    process-local interned content ids with stable sha256 content digests
    (plus a shape fingerprint as a collision guard), and
    :meth:`absorb_portable` loads such an index so that a later analysis
    of content-identical regions *splices* the stored verdicts instead of
    replaying — the incremental re-analysis path.  Absorbed entries only
    ever match through the same probe/freed agreement as local ones, so
    splicing cannot change a verdict, only skip recomputing it.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, List[_Candidate]] = {}
        #: Local candidates stamped so far (the next stamp).
        self._stamped = 0
        #: region intern key -> content id.
        self._interned: Dict[tuple, int] = {}
        #: id -> content tuple (for digesting on export/splice).
        self._contents: List[tuple] = []
        #: id -> lazily computed sha256 digest / shape fingerprint.
        self._digests: List[Optional[str]] = []
        self._shapes: List[Optional[tuple]] = []
        #: portable key -> [(shapes, probe items, freed fp, template)].
        self._imported: Dict[tuple, List[tuple]] = {}
        #: normalized absorbed entries, kept for lossless re-export.
        self._imported_raw: List[dict] = []
        #: canonical-JSON fingerprints of absorbed entries (idempotency).
        self._absorbed: Set[str] = set()
        self.hits = 0
        self.misses = 0
        #: Hits served by promoting an absorbed (imported) entry.
        self.spliced = 0
        #: Entries accepted by :meth:`absorb_portable` over the lifetime.
        self.absorbed = 0

    def intern(
        self, key: tuple, content: Optional[Callable[[], tuple]] = None
    ) -> int:
        """Map a region's intern key to a stable small id.

        ``key`` must be equal for two regions exactly when their content
        tuples are; ``content`` builds that tuple, and is called only when
        a new id is minted (by default the key is the content).  The
        per-instance structural keys then carry only the id, so repeated
        lookups never re-hash whole region transcripts.
        """
        interned = self._interned.get(key)
        if interned is None:
            interned = len(self._interned)
            self._interned[key] = interned
            self._contents.append(key if content is None else content())
            self._digests.append(None)
            self._shapes.append(None)
        return interned

    def _digest_of(self, content_id: int) -> str:
        digest = self._digests[content_id]
        if digest is None:
            # Through the module so tests can monkeypatch the digest
            # function and exercise the collision guard.
            digest = batching.content_digest(self._contents[content_id])
            self._digests[content_id] = digest
        return digest

    def _shape_of(self, content_id: int) -> tuple:
        shape = self._shapes[content_id]
        if shape is None:
            shape = batching.content_shape(self._contents[content_id])
            self._shapes[content_id] = shape
        return shape

    def __len__(self) -> int:
        return self._stamped

    def _append_local(
        self, key: tuple, probe_items: tuple, freed_fp: tuple, template
    ) -> None:
        self._entries.setdefault(key, []).append(
            (probe_items, freed_fp, template, self._stamped)
        )
        self._stamped += 1

    def lookup(
        self,
        key: tuple,
        live_in: Dict[int, int],
        freed: Dict[int, int],
        freed_fp: Optional[tuple] = None,
    ) -> Optional[_VerdictTemplate]:
        """The verdict cached under ``key`` whose probes ``live_in``
        agrees with, if any.  ``freed_fp`` is ``freed``'s fingerprint
        (:func:`freed_fingerprint`) when the caller already has it."""
        if freed_fp is None:
            freed_fp = freed_fingerprint(freed)
        for probe_items, candidate_freed, template, _ in self._entries.get(key, ()):
            if candidate_freed != freed_fp:
                continue
            for address, value in probe_items:
                if live_in.get(address) != value:
                    break
            else:
                self.hits += 1
                return template
        if self._imported:
            template = self._splice_imported(key, live_in, freed_fp)
            if template is not None:
                self.hits += 1
                self.spliced += 1
                return template
        self.misses += 1
        return None

    def _splice_imported(
        self, key: tuple, live_in: Dict[int, int], freed_fp: tuple
    ) -> Optional[_VerdictTemplate]:
        """Serve a verdict from an absorbed portable index, if one matches.

        Digesting the interned contents happens lazily here (and is cached
        per content id), so analyses that never splice pay nothing.  A
        match is promoted into the local entries so later instances of the
        same key hit without re-digesting.
        """
        program, offset_a, id_a, offset_b, id_b, first_is_a = key
        portable_key = (
            program,
            offset_a,
            self._digest_of(id_a),
            offset_b,
            self._digest_of(id_b),
            first_is_a,
        )
        candidates = self._imported.get(portable_key)
        if not candidates:
            return None
        shapes = (self._shape_of(id_a), self._shape_of(id_b))
        for entry_shapes, probe_items, candidate_freed, template in candidates:
            if entry_shapes != shapes:
                continue  # digest collision guard: recompute instead
            if candidate_freed != freed_fp:
                continue
            if all(
                live_in.get(address, None) == value
                for address, value in probe_items
            ):
                self._append_local(key, probe_items, candidate_freed, template)
                return template
        return None

    def store(
        self,
        key: tuple,
        probes: Dict[int, Optional[int]],
        freed: Dict[int, int],
        template: _VerdictTemplate,
        freed_fp: Optional[tuple] = None,
    ) -> None:
        self._append_local(
            key,
            tuple(sorted(probes.items())),
            freed_fingerprint(freed) if freed_fp is None else freed_fp,
            template,
        )

    # ------------------------------------------------------------------
    # The portable verdict index.
    # ------------------------------------------------------------------

    def snapshot(self, program: str) -> Tuple[str, int, int]:
        """Mark ``program``'s portable index as it stands now, in O(1).

        Local candidates and absorbed entries are only ever appended, so
        the stamp count and the absorbed-entry count fix the index; pass
        the mark to :meth:`export_portable` as ``upto`` to materialise it
        later, however much the cache has grown since.
        """
        return (program, self._stamped, len(self._imported_raw))

    def export_portable(
        self,
        program: Optional[str] = None,
        upto: Optional[Tuple[str, int, int]] = None,
    ) -> Dict:
        """The cache as a portable JSON-able verdict index.

        Interned content ids become content digests; every local entry
        and every absorbed entry is included (deduplicated by canonical
        JSON), so absorb → export round-trips losslessly and repeated
        export/absorb cycles converge.  ``program`` filters to one
        program's entries; ``upto`` (a :meth:`snapshot`) exports that
        program's index exactly as it stood when the mark was taken.
        """
        if upto is None:
            local_mark, imported_mark = self._stamped, len(self._imported_raw)
        else:
            program, local_mark, imported_mark = upto
        entries: List[dict] = []
        seen: Set[str] = set()

        def add(entry: dict) -> None:
            fingerprint = json.dumps(entry, sort_keys=True)
            if fingerprint not in seen:
                seen.add(fingerprint)
                entries.append(entry)

        for key, candidates in self._entries.items():
            if candidates[0][3] >= local_mark:
                # A key enters the dict with its first candidate, so every
                # later key was stamped after the mark too.
                break
            if program is not None and key[0] != program:
                continue
            portable_key = [
                key[0],
                key[1],
                self._digest_of(key[2]),
                key[3],
                self._digest_of(key[4]),
                key[5],
            ]
            shapes = [list(self._shape_of(key[2])), list(self._shape_of(key[4]))]
            for probe_items, freed_fp, template, stamp in candidates:
                if stamp >= local_mark:
                    break
                add(
                    {
                        "key": portable_key,
                        "shapes": shapes,
                        "probes": [[a, v] for a, v in probe_items],
                        "freed": [[a, s] for a, s in freed_fp],
                        "template": _template_to_json(template),
                    }
                )
        for raw in self._imported_raw[:imported_mark]:
            if program is not None and raw["key"][0] != program:
                continue
            add(raw)
        return {"verdict_index_version": VERDICT_INDEX_VERSION, "entries": entries}

    def absorb_portable(self, index) -> int:
        """Load a portable verdict index; returns how many entries stuck.

        Defensive by design — indexes come from cache files and user
        ``--incremental-from`` arguments: an unknown version or a
        non-document absorbs nothing, and each malformed entry is skipped
        individually.  Absorbing the same index twice is a no-op.
        """
        if not isinstance(index, dict):
            return 0
        if index.get("verdict_index_version") != VERDICT_INDEX_VERSION:
            return 0
        entries = index.get("entries")
        if not isinstance(entries, list):
            return 0
        accepted = 0
        for raw in entries:
            try:
                parsed = self._parse_portable_entry(raw)
            except (KeyError, ValueError, TypeError, IndexError):
                continue
            if parsed is None:
                continue
            normalized, portable_key, candidate = parsed
            fingerprint = json.dumps(normalized, sort_keys=True)
            if fingerprint in self._absorbed:
                continue
            self._absorbed.add(fingerprint)
            self._imported.setdefault(portable_key, []).append(candidate)
            self._imported_raw.append(normalized)
            self.absorbed += 1
            accepted += 1
        return accepted

    @staticmethod
    def _parse_portable_entry(raw):
        """Normalize one index entry; raise/return None when malformed."""
        program, offset_a, digest_a, offset_b, digest_b, first_is_a = raw["key"]
        if not (
            isinstance(program, str)
            and isinstance(offset_a, int)
            and isinstance(digest_a, str)
            and isinstance(offset_b, int)
            and isinstance(digest_b, str)
            and isinstance(first_is_a, bool)
        ):
            return None
        shapes = tuple(
            tuple(int(part) for part in shape) for shape in raw["shapes"]
        )
        if len(shapes) != 2 or any(len(shape) != 3 for shape in shapes):
            return None
        probes = tuple(
            sorted(
                (int(address), None if value is None else int(value))
                for address, value in raw["probes"]
            )
        )
        freed = tuple(
            sorted((int(address), int(size)) for address, size in raw["freed"])
        )
        template = _template_from_json(raw["template"])
        portable_key = (
            program, offset_a, digest_a, offset_b, digest_b, first_is_a,
        )
        normalized = {
            "key": list(portable_key),
            "shapes": [list(shape) for shape in shapes],
            "probes": [[a, v] for a, v in probes],
            "freed": [[a, s] for a, s in freed],
            "template": _template_to_json(template),
        }
        return normalized, portable_key, (shapes, probes, freed, template)


class _Pair:
    """One canonical region pair's classify inputs, built once: both
    regions' content ids, the lazy live-in view, and the freed ranges
    with their fingerprint."""

    __slots__ = ("id_a", "id_b", "live_in", "freed", "freed_fp")

    def __init__(self, id_a: int, id_b: int, live_in, freed: Dict[int, int]):
        self.id_a = id_a
        self.id_b = id_b
        self.live_in = live_in
        self.freed = freed
        self.freed_fp = freed_fingerprint(freed)


class BatchingClassifier(RaceClassifier):
    """A :class:`RaceClassifier` that plans whole batches against a shared
    verdict cache.

    :meth:`classify_all` groups the instances by full structural key
    (:func:`repro.analysis.batching.plan_batches`) and walks each batch:
    the first member that misses the verdict cache replays (the batch
    *leader*), and every later member is served by a cache lookup — from
    the leader's stored verdict when its live-in agrees on the probed
    addresses (``batch_fanout``), or by its own replay through the
    leader's rebound processor on probe divergence (``batch_fallbacks``).
    A cached verdict is a deterministic function of the inputs its key
    and probe set pin down, so verdicts are byte-identical to the plain
    :class:`RaceClassifier` — the equivalence tests assert it.

    Per fanned-out member the batch path skips the pair-snapshot dict
    copies (``pair_live_in`` resolves one probed address at a time), and
    fallback members reuse the leader's thread specs and seeded prefix
    image instead of re-deriving them.
    """

    def __init__(self, *args, cache: Optional[VerdictCache] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.cache = cache if cache is not None else VerdictCache()
        #: (tid, index) of both canonical regions -> the pair's inputs.
        self._pairs: Dict[Tuple[int, int, int, int], _Pair] = {}
        self.batches_planned = 0
        self.batch_fanout = 0
        self.batch_fallbacks = 0
        #: batch size -> number of batches of that size (this classifier).
        self.batch_sizes: Dict[int, int] = {}

    def _from_template(
        self, instance: RaceInstance, template: _VerdictTemplate
    ) -> ClassifiedInstance:
        outcome, first_is_a, pre_value, failure_kind, failure_detail = template
        return ClassifiedInstance(
            instance=instance,
            outcome=outcome,
            original_first=(
                instance.access_a.thread_name
                if first_is_a
                else instance.access_b.thread_name
            ),
            pre_value=pre_value,
            failure_kind=failure_kind,
            failure_detail=failure_detail,
            execution_id=self.execution_id,
        )

    # ------------------------------------------------------------------
    # The structural key.
    # ------------------------------------------------------------------

    def _region_content_id(self, region: SequencingRegion) -> int:
        """Interned id of everything the recording says about ``region``.

        Every input the replay draws from one side — start pc, live-in
        registers, the executed static-id trajectory, every recorded
        access (loads seed values, stores and their values, sync ops) and
        the region-end state — is a function of the content tuple, so two
        regions with equal content ids are interchangeable for
        classification.  The intern key holds the same facts as ints and
        strings only — the block name and pc trace stand for the static
        ids — so the content tuple (:func:`~repro.analysis.batching.region_content`)
        is built only when a new id is minted.
        """
        facts = self._region(region)
        if facts.content_id is None:
            thread_name = region.thread_name
            contents = self.ordered.region_contents()
            key = (
                thread_name,
                self.log.threads[thread_name].block,
                contents.footprint(thread_name),
                facts.start_pc,
                facts.registers,
                tuple(facts.replay.pcs[region.start_step : region.end_step]),
                facts.rows,
                batching.region_end_state(self.ordered, thread_name, region),
            )
            facts.content_id = self.cache.intern(
                key, partial(contents.content, thread_name, region)
            )
        return facts.content_id

    def _pair(self, instance: RaceInstance) -> _Pair:
        """The canonical instance's region-pair inputs, built once."""
        region_a, region_b = instance.region_a, instance.region_b
        key = (region_a.tid, region_a.index, region_b.tid, region_b.index)
        pair = self._pairs.get(key)
        if pair is None:
            live_in, freed = self.ordered.pair_live_in(region_a, region_b)
            pair = _Pair(
                self._region_content_id(region_a),
                self._region_content_id(region_b),
                live_in,
                freed,
            )
            self._pairs[key] = pair
        return pair

    def _structural_key(self, instance: RaceInstance) -> tuple:
        access_a, access_b = instance.access_a, instance.access_b
        pair = self._pair(instance)
        return (
            self.log.program_name,
            access_a.thread_step - instance.region_a.start_step,
            pair.id_a,
            access_b.thread_step - instance.region_b.start_step,
            pair.id_b,
            self._original_first(instance) == access_a.thread_name,
        )

    # ------------------------------------------------------------------
    # The batch walk.
    # ------------------------------------------------------------------

    def classify_all(self, instances: List[RaceInstance]) -> List[ClassifiedInstance]:
        if self.config.store_replay_outcomes or not instances:
            # Raw-outcome callers need real replays; defer to the base.
            return super().classify_all(instances)
        plan = plan_batches(self, instances)
        self.batches_planned += plan.batch_count
        for size, count in plan.size_histogram().items():
            self.batch_sizes[size] = self.batch_sizes.get(size, 0) + count
        results: List[Optional[ClassifiedInstance]] = [None] * len(instances)
        for batch in plan.batches:
            self._classify_batch(batch, results)
        return results

    def collect_perf(self, stats) -> None:
        super().collect_perf(stats)
        stats.classify_batches += self.batches_planned
        stats.batch_fanout += self.batch_fanout
        stats.batch_fallbacks += self.batch_fallbacks
        for size, count in self.batch_sizes.items():
            stats.batch_sizes[size] = stats.batch_sizes.get(size, 0) + count

    def _classify_batch(
        self, batch: PlannedBatch, results: List[Optional[ClassifiedInstance]]
    ) -> None:
        computed = False
        for position, member in batch.members:
            # Lazy pair live-in: cache probes and virtual-processor loads
            # resolve one address at a time, so no member ever pays for a
            # full pair-image reconstruction or copy.  Values are
            # address-identical to ``pair_snapshot``'s, so every verdict
            # matches the plain classifier's byte for byte.
            pair = self._pair(member)
            live_in, freed = pair.live_in, pair.freed
            template = self.cache.lookup(batch.key, live_in, freed, pair.freed_fp)
            if template is not None:
                if computed:
                    self.batch_fanout += 1
                results[position] = self._from_template(member, template)
                continue
            # Cache miss: this member replays.  The first replay of the
            # batch builds the shared processor; probe-divergence
            # fallbacks rebind it to their own live-in (sharing specs and
            # the seeded prefix image — both functions of the batch key).
            if computed:
                self.batch_fallbacks += 1
            tracking = TrackingView(live_in)
            if batch.processor is None:
                batch.processor = self.batch_processor(member, tracking, freed)
                processor = batch.processor
            else:
                processor = batch.processor.rebind(tracking, freed)
            result = self._classify_with_state(
                member, tracking, freed, processor=processor
            )
            computed = True
            self.cache.store(
                batch.key,
                tracking.probes,
                freed,
                (
                    result.outcome,
                    result.original_first == member.access_a.thread_name,
                    result.pre_value,
                    result.failure_kind,
                    result.failure_detail,
                ),
                pair.freed_fp,
            )
            results[position] = result


# ----------------------------------------------------------------------
# The engine.
# ----------------------------------------------------------------------


@dataclass
class EngineConfig:
    """Configuration of a :class:`ClassificationEngine`."""

    #: Classify through :class:`BatchingClassifier` and the verdict cache;
    #: False runs the plain :class:`RaceClassifier` (the test oracle and
    #: the paper-table path).  Verdicts are byte-identical either way.
    memoize: bool = True
    #: Splice verdicts from a prior analysis of the same program: absorb
    #: the ``prior=`` index passed to :meth:`analyze_execution` /
    #: :meth:`analyze_log`, and (with ``cache_dir``) persist and reload
    #: the portable verdict index through the suite cache so warm
    #: re-submissions replay almost nothing.
    incremental: bool = True
    classifier_config: Optional[ClassifierConfig] = None
    max_pairs_per_location: Optional[int] = 256
    max_steps: int = 200_000
    capture_global_order: bool = True
    #: Directory of the content-addressed record cache (None = no cache).
    cache_dir: Optional[str] = None


class ClassificationEngine:
    """Analyses executions in-process, with verdict reuse.

    The verdict cache is engine-lifetime: every execution in every
    :meth:`analyze_executions` call shares it.
    """

    def __init__(self, config: Optional[EngineConfig] = None):
        self.config = config or EngineConfig()
        self.cache = VerdictCache()
        self._record_cache = None
        if self.config.cache_dir is not None:
            from .cache import SuiteCache

            self._record_cache = SuiteCache(self.config.cache_dir)

    # -- classifier construction (pipeline hook) -----------------------

    def _classifier_factory(
        self, ordered, classifier_config, execution_id
    ) -> RaceClassifier:
        if not self.config.memoize:
            return RaceClassifier(
                ordered, config=classifier_config, execution_id=execution_id
            )
        return BatchingClassifier(
            ordered,
            config=classifier_config,
            execution_id=execution_id,
            cache=self.cache,
        )

    # -- incremental re-analysis plumbing ------------------------------

    def _verdict_index_key(self, program_name: str, source: str) -> str:
        from .cache import verdict_index_key

        classifier_config = self.config.classifier_config or ClassifierConfig()
        return verdict_index_key(
            program_name,
            source,
            step_limit=classifier_config.step_limit,
            allow_unrecorded_control_flow=(
                classifier_config.allow_unrecorded_control_flow
            ),
            allow_unknown_addresses=classifier_config.allow_unknown_addresses,
            max_pairs_per_location=self.config.max_pairs_per_location,
        )

    def _absorb_prior(
        self, prior, program_name: str, source: str
    ) -> Optional[Tuple[str, Optional[int]]]:
        """Load every verdict source an incremental analysis may splice
        from; returns the suite-cache verdict key, with the entry count of
        the index stored under it (``None`` when there is none), when one
        applies.

        ``prior`` is a previous :class:`ExecutionAnalysis` (its
        ``verdict_index``) or a raw portable index document.  With a
        ``cache_dir`` and ``incremental`` on, the persisted index of the
        same program/config is absorbed too — the near-miss resubmission
        path: a changed seed or scheduler records a different execution,
        but regions whose content didn't change splice their verdicts.
        """
        if not self.config.memoize:
            return None
        if prior is not None:
            index = getattr(prior, "verdict_index", prior)
            self.cache.absorb_portable(index)
        if not self.config.incremental or self._record_cache is None:
            return None
        verdict_key = self._verdict_index_key(program_name, source)
        stored = self._record_cache.load_verdicts(verdict_key)
        if stored is None:
            return verdict_key, None
        self.cache.absorb_portable(stored)
        entries = stored.get("entries")
        if (
            stored.get("verdict_index_version") != VERDICT_INDEX_VERSION
            or not isinstance(entries, list)
        ):
            return verdict_key, None
        return verdict_key, len(entries)

    def _finish_analysis(
        self,
        analysis: ExecutionAnalysis,
        stats: PerfStats,
        snapshot: Tuple[int, int, int, int],
        persisted: Optional[Tuple[str, Optional[int]]],
    ) -> None:
        hits, misses, spliced, absorbed = snapshot
        stats.cache_hits += self.cache.hits - hits
        stats.cache_misses += self.cache.misses - misses
        stats.incremental_spliced += self.cache.spliced - spliced
        stats.incremental_absorbed += self.cache.absorbed - absorbed
        if not self.config.memoize:
            return
        program = analysis.log.program_name
        if persisted is None:
            # Nobody may read the index: mark it now, export it on demand.
            analysis.defer_verdict_index(
                partial(
                    self.cache.export_portable, upto=self.cache.snapshot(program)
                )
            )
            return
        verdict_key, loaded = persisted
        analysis.verdict_index = self.cache.export_portable(program=program)
        # The export holds every loaded entry plus what this run added
        # (local verdicts, a prior=), so an export of the same size as
        # the stored index is that index: rewriting it would change
        # nothing.  Otherwise storing it unions the two.
        if len(analysis.verdict_index["entries"]) != loaded:
            self._record_cache.store_verdicts(verdict_key, analysis.verdict_index)

    def _cache_snapshot(self) -> Tuple[int, int, int, int]:
        return (
            self.cache.hits,
            self.cache.misses,
            self.cache.spliced,
            self.cache.absorbed,
        )

    # -- public API ----------------------------------------------------

    def analyze_execution(
        self,
        execution: Execution,
        perf: Optional[PerfStats] = None,
        prior=None,
    ) -> ExecutionAnalysis:
        """Analyse one execution.

        ``prior`` — a previous :class:`ExecutionAnalysis` of the same
        program (or its portable verdict index) — turns this into an
        incremental re-analysis: instances whose region contents are
        unchanged splice the prior verdicts and only changed regions
        replay.  With a ``cache_dir`` the persisted verdict index of the
        program is used the same way automatically.
        """
        snapshot = self._cache_snapshot()
        stats = perf if perf is not None else PerfStats()
        workload = execution.workload
        persisted = self._absorb_prior(prior, workload.name, workload.source)
        analysis = analyze_execution(
            execution,
            classifier_config=self.config.classifier_config,
            max_pairs_per_location=self.config.max_pairs_per_location,
            max_steps=self.config.max_steps,
            capture_global_order=self.config.capture_global_order,
            classifier_factory=self._classifier_factory,
            perf=stats,
            cache=self._record_cache,
        )
        self._finish_analysis(analysis, stats, snapshot, persisted)
        return analysis

    def analyze_log(
        self,
        log,
        execution_id: Optional[str] = None,
        perf: Optional[PerfStats] = None,
        prior=None,
    ) -> ExecutionAnalysis:
        """Analyse an already-recorded log through this engine.

        ``log`` is a decoded :class:`~repro.record.log.ReplayLog` or log
        bytes (a binary container or a JSON document), and the input
        picks the path: a segmented (v4, v5) container with captured
        columns streams (:meth:`analyze_log_stream`); any other bytes
        decode and take the batch pass.  The engine counterpart of
        :func:`repro.analysis.pipeline.analyze_log` — same report bytes
        on either path — plus the engine's verdict memoization, batching
        and incremental splicing (``prior=`` and the persisted
        per-program verdict index, exactly as in :meth:`analyze_execution`).
        """
        if isinstance(log, (bytes, bytearray, memoryview)):
            if is_streamable_container(log):
                return self.analyze_log_stream(
                    log, execution_id=execution_id, perf=perf, prior=prior
                )
            from ..record.serialization import load_log_bytes

            log = load_log_bytes(bytes(log))
        snapshot = self._cache_snapshot()
        stats = perf if perf is not None else PerfStats()
        persisted = self._absorb_prior(
            prior, log.program_name, log.program_source
        )
        analysis = analyze_log(
            log,
            execution_id=execution_id,
            classifier_config=self.config.classifier_config,
            max_pairs_per_location=self.config.max_pairs_per_location,
            classifier_factory=self._classifier_factory,
            perf=stats,
        )
        self._finish_analysis(analysis, stats, snapshot, persisted)
        return analysis

    def analyze_log_stream(
        self,
        source,
        execution_id: Optional[str] = None,
        perf: Optional[PerfStats] = None,
        prior=None,
    ) -> ExecutionAnalysis:
        """Analyse segmented (v4, v5) container bytes with streaming
        detection and eager per-window classification
        (:func:`repro.analysis.pipeline.analyze_log_stream`).

        Report bytes match :meth:`analyze_log` exactly; the difference is
        the cost profile — verdicts start landing after the first sealed
        window instead of after the whole sweep, and detection state is
        bounded by the active window.  Verdict memoization, batching and
        incremental splicing all apply, same as :meth:`analyze_log`.
        """
        snapshot = self._cache_snapshot()
        stats = perf if perf is not None else PerfStats()
        from ..record.serialization import load_log_bytes

        log = load_log_bytes(bytes(source))
        persisted = self._absorb_prior(
            prior, log.program_name, log.program_source
        )
        analysis = analyze_log_stream(
            source,
            execution_id=execution_id,
            classifier_config=self.config.classifier_config,
            max_pairs_per_location=self.config.max_pairs_per_location,
            classifier_factory=self._classifier_factory,
            perf=stats,
            log=log,
        )
        self._finish_analysis(analysis, stats, snapshot, persisted)
        return analysis

    def analyze_executions(
        self, executions: Sequence[Execution], perf: Optional[PerfStats] = None
    ) -> List[ExecutionAnalysis]:
        """Analyse a batch, preserving input order in the result list."""
        stats = perf if perf is not None else PerfStats()
        return [self.analyze_execution(e, perf=stats) for e in executions]

"""Batch planning for classification: group instances by shared content.

Classification replays every race instance twice in a virtual processor.
When hundreds of instances share the same static race and byte-identical
region recordings — a tight racing loop produces exactly that — the
replays are redundant: a verdict is a deterministic function of the two
regions' recorded content, the racing offsets, the recorded order and the
live-in values the replay probes (the memoization argument in
:mod:`repro.analysis.engine`).  The planner here makes that redundancy
explicit: it groups canonicalized :class:`RaceInstance`\\ s by their full
structural key — ``(static race id via the offset/trajectory pair,
region-content ids, recorded order)`` — so the classifier can replay one
*leader* per batch and fan the verdict out to every member whose live-in
agrees on the probed addresses.  Members whose live-in diverges fall back
to a per-instance replay (reusing the leader's thread specs and seeded
prefix image), so batching never changes a verdict — only where the work
happens.

The module also owns the *content* functions shared by the verdict
cache, the incremental re-analysis index and the report exporter:
:func:`region_content` builds the canonical region-content tuple,
:func:`content_digest` its stable cross-process hash,
:class:`RegionContents` memoizes both per region for one analysis, and
:func:`instance_batch_key` the triage-facing ``(static race id,
region-content hashes)`` key exported with harmful verdicts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..race.happens_before import RaceGroup
from ..race.model import RaceInstance
from ..replay.regions import SequencingRegion

#: Bump when the content-tuple layout changes: digests of old layouts
#: must never match digests of new ones.
CONTENT_SCHEMA_VERSION = 1

#: Schema version of the portable verdict index (the JSON document
#: :meth:`VerdictCache.export_portable` emits and ``absorb_portable``
#: accepts); unknown versions are ignored wholesale on absorb.
VERDICT_INDEX_VERSION = 1


def region_content(
    ordered, thread_name: str, region: SequencingRegion, footprint=None
) -> tuple:
    """The canonical content tuple of one recorded region.

    Every input the replay draws from one side — start pc, live-in
    registers, the executed static-id trajectory, every recorded access
    (loads seed values, stores and their values, sync ops) and the
    region-end state — is a function of this tuple, so two regions with
    equal content are interchangeable for classification.  This is the
    single definition the verdict cache digests and the exporter's batch
    keys hash; an analysis builds it at most once per region, through
    :class:`RegionContents`.
    """
    replay = ordered.thread_replays[thread_name]
    start, end = region.start_step, region.end_step
    if footprint is None:
        footprint = tuple(sorted(set(ordered.log.threads[thread_name].pc_footprint)))
    return (
        thread_name,
        # The whole-thread pc footprint gates which control flow an
        # alternative replay may visit (§4.2.1), so it is part of what
        # determines the verdict.
        footprint,
        ordered.region_start_pc(region),
        ordered.live_in_registers(region),
        tuple(replay.static_ids[start:end]),
        # (step offset, address, value, is_write, is_sync) per access.
        replay.region_rows(start, end),
        region_end_state(ordered, thread_name, region),
    )


def region_end_state(ordered, thread_name: str, region: SequencingRegion) -> tuple:
    """The region-end part of :func:`region_content`."""
    replay = ordered.thread_replays[thread_name]
    if region.end_kind == "thread_end":
        thread_end = ordered.log.threads[thread_name].end
        return (
            "thread_end",
            None if thread_end is None else thread_end.reason,
            replay.final_registers,
            replay.final_pc,
        )
    return (
        region.end_kind,
        replay.region_end_registers.get(region.end_step),
        replay.region_end_pcs.get(region.end_step),
    )


class RegionContents:
    """One analysis's region contents and digests, each built once.

    Kept by the ordered replay (:meth:`OrderedReplay.region_contents`),
    so the batching classifier's interning and the report's batch keys
    share one content tuple and one digest per region — and, being
    functions of the recording alone, plain and batched reports stay
    byte-identical.  Each thread's pc footprint is sorted once.
    """

    def __init__(self, ordered) -> None:
        self._ordered = ordered
        self._footprints: Dict[str, Tuple[int, ...]] = {}
        self._contents: Dict[Tuple[int, int], tuple] = {}
        self._digests: Dict[Tuple[int, int], str] = {}

    def footprint(self, thread_name: str) -> Tuple[int, ...]:
        """The thread's pc footprint, sorted."""
        footprint = self._footprints.get(thread_name)
        if footprint is None:
            footprint = tuple(
                sorted(set(self._ordered.log.threads[thread_name].pc_footprint))
            )
            self._footprints[thread_name] = footprint
        return footprint

    def content(self, thread_name: str, region: SequencingRegion) -> tuple:
        """:func:`region_content` of ``region``, built on first use."""
        key = (region.tid, region.index)
        content = self._contents.get(key)
        if content is None:
            content = region_content(
                self._ordered, thread_name, region, self.footprint(thread_name)
            )
            self._contents[key] = content
        return content

    def digest(self, thread_name: str, region: SequencingRegion) -> str:
        """:func:`content_digest` of ``region``'s content, built on first use."""
        key = (region.tid, region.index)
        digest = self._digests.get(key)
        if digest is None:
            digest = content_digest(self.content(thread_name, region))
            self._digests[key] = digest
        return digest


def content_digest(content: tuple) -> str:
    """A stable cross-process hash of one region-content tuple.

    ``repr`` of the tuple is deterministic (ints, strings, bools, None,
    nested tuples and ``StaticInstructionId`` dataclasses), so equal
    contents digest equally in every process — which is what lets the
    incremental index splice verdicts across engine lifetimes.
    """
    material = repr(("repro-region-content", CONTENT_SCHEMA_VERSION, content))
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def content_shape(content: tuple) -> Tuple[int, int, int]:
    """A compact structural fingerprint of a content tuple.

    ``(start pc, executed steps, recorded accesses)`` — checked alongside
    the digest when splicing verdicts from an imported index, so even a
    (cryptographically impossible, but cheap to guard against) digest
    collision between different contents cannot serve a wrong verdict:
    colliding contents with different shapes are rejected and recomputed.
    """
    return (content[2], len(content[4]), len(content[5]))


def instance_batch_key(ordered, instance: RaceInstance) -> Dict:
    """The triage-facing batch key of one race instance.

    ``race`` is the static race id; ``region_content`` the two enclosing
    regions' content digests (truncated — the full digests live in the
    verdict index), in canonical side order (earlier-opening region
    first, matching the classifier's canonicalization).  Fleet triage
    dedupes harmful scenarios by this key: two reports with equal batch
    keys describe content-identical racing situations.
    """
    if (instance.region_b.start_ts, instance.region_b.tid) < (
        instance.region_a.start_ts,
        instance.region_a.tid,
    ):
        instance = RaceInstance(
            access_a=instance.access_b,
            access_b=instance.access_a,
            region_a=instance.region_b,
            region_b=instance.region_a,
        )
    key = instance.static_key
    contents = ordered.region_contents()
    digests = [
        contents.digest(access.thread_name, region)[:16]
        for access, region in (
            (instance.access_a, instance.region_a),
            (instance.access_b, instance.region_b),
        )
    ]
    return {"race": "%s|%s" % (key[0], key[1]), "region_content": digests}


@dataclass
class PlannedBatch:
    """One group of instances that share a full structural key."""

    #: The structural key every member shares (see BatchingClassifier).
    key: tuple
    #: Members in visit order; the first member is the batch leader (it
    #: replays, the rest fan out).  From :meth:`BatchingClassifier.plan_groups`
    #: a member is ``(group index, pair index, row_a, row_b)``; from
    #: :func:`plan_batches`, ``(input position, canonicalized instance)``.
    members: List[tuple] = field(default_factory=list)
    #: The leader's virtual processor, built lazily on the first member
    #: that actually replays and rebound (shared specs + seeded prefix
    #: image) for any probe-divergence fallback members.
    processor: object = None

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class BatchPlan:
    """The planner's output: batches in first-encounter order."""

    batches: List[PlannedBatch]
    total_instances: int
    #: Per planned group, its region pair's classify inputs.
    pairs: List = field(default_factory=list)

    @property
    def batch_count(self) -> int:
        return len(self.batches)

    @property
    def max_size(self) -> int:
        return max((batch.size for batch in self.batches), default=0)

    def size_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for batch in self.batches:
            histogram[batch.size] = histogram.get(batch.size, 0) + 1
        return histogram


def plan_batches(classifier, instances: Sequence[RaceInstance]) -> BatchPlan:
    """Group instances by structural key, preserving input order.

    ``classifier`` is a :class:`~repro.analysis.engine.BatchingClassifier`:
    each canonicalized instance is planned as a one-instance race group
    (:meth:`~repro.analysis.engine.BatchingClassifier.plan_groups`).
    """
    canonical = [classifier._canonicalize(instance) for instance in instances]
    plan = classifier.plan_groups([RaceGroup.of_instance(c) for c in canonical])
    for batch in plan.batches:
        batch.members = [(position, canonical[position]) for position, *_ in batch.members]
    return plan

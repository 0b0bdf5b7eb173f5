"""Replay-both-orders classification of race instances (Section 4).

For every race instance the classifier:

1. locates the two sequencing regions containing the racing operations;
2. takes the live-in snapshot (memory image + freed heap ranges) from the
   region-ordered replay, plus both threads' live-in registers;
3. replays both regions in a :class:`VirtualProcessor` twice — once per
   order of the racing pair;
4. compares live-outs: identical → ``NO_STATE_CHANGE``; different →
   ``STATE_CHANGE``; a replay that leaves the recorded envelope →
   ``REPLAY_FAILURE``.

Two redundancy-elimination optimisations (both on by default, both
verified byte-identical to the naive path by the engine equivalence
tests) make step 3 cheap:

* **recorded-original synthesis** — the original-order replay follows the
  log throughout, so it *is* the recording; when the regions replayed
  cleanly (no fault-truncated recording, within the step limit) its
  live-out is assembled directly from the per-thread replay instead of
  re-interpreted instruction by instruction;
* **prefix fast-forward** — the alternative-order replay follows the log
  up to the racing pair, so its prefix state (registers at the racing op,
  load seeds, stores) is likewise taken from the recording and only the
  divergent window — the racing pair and the region suffixes — executes
  live in the virtual processor.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from ..isa.program import Program
from ..record.log import ReplayLog
from ..replay.errors import ReplayFailure, ReplayFailureKind
from ..replay.ordered_replay import OrderedReplay
from ..replay.regions import SequencingRegion
from ..replay.virtual_processor import (
    VPConfig,
    VPOutcome,
    VPThreadSpec,
    VirtualProcessor,
    same_state,
)
from .model import RaceAccess, RaceInstance
from .outcomes import ClassifiedInstance, InstanceOutcome


@dataclass
class ClassifierConfig:
    """Knobs for the replay-both-orders classifier.

    ``allow_unrecorded_control_flow`` enables the paper's stated future-work
    extension (§4.2.1: "we are looking at trying to log enough information
    to allow replay to continue"); with it on, alternative-order replays
    continue through control flow the recording never saw instead of
    failing — the A2 ablation measures what this buys.

    ``reuse_recorded_original`` and ``fast_forward_prefix`` gate the
    redundancy-elimination fast paths (see the module docstring).  They
    change no verdict — the engine equivalence tests assert byte-identical
    results — and exist as flags so the naive path stays available as the
    reference for those tests and for A/B benchmarking.
    """

    step_limit: int = 20_000
    allow_unrecorded_control_flow: bool = False
    allow_unknown_addresses: bool = False
    store_replay_outcomes: bool = False
    reuse_recorded_original: bool = True
    fast_forward_prefix: bool = True
    detect_spin_cycles: bool = True

    def vp_config(self) -> VPConfig:
        return VPConfig(
            step_limit=self.step_limit,
            allow_unrecorded_control_flow=self.allow_unrecorded_control_flow,
            allow_unknown_addresses=self.allow_unknown_addresses,
            detect_spin_cycles=self.detect_spin_cycles,
        )


@dataclass
class _RecordedSide:
    """One thread's recorded-region live-out, for original synthesis.

    Writes are ``(address, value)`` pairs in program order.
    """

    name: str
    registers: Tuple[int, ...]
    end_pc: int
    steps: int
    executed: Tuple
    prefix_writes: Tuple[Tuple[int, int], ...]
    racing_write: Optional[Tuple[int, int]]
    suffix_writes: Tuple[Tuple[int, int], ...]
    racing_value: int


class _Region:
    """What classification reads from one recorded region, built once.

    Every instance racing in the region shares it: the virtual
    processor's start state and the access rows (built with the record),
    and — each on first use — the recorded loads that seed a thread
    spec's log-following prefix, the writes, end state and executed
    static ids the original-order synthesis assembles, and the batching
    classifier's interned content id.
    """

    def __init__(self, ordered: OrderedReplay, region: SequencingRegion):
        self.ordered = ordered
        self.region = region
        self.replay = ordered.thread_replays[region.thread_name]
        self.start_pc = ordered.region_start_pc(region)
        self.registers = ordered.live_in_registers(region)
        #: ``(step offset, address, value, is_write, is_sync)`` per access.
        self.rows = self.replay.region_rows(region.start_step, region.end_step)
        self.content_id: Optional[int] = None

    @cached_property
    def recorded_loads(self) -> Dict[int, Tuple[int, int]]:
        """Step offset -> ``(address, value)`` of each plain load."""
        return {
            offset: (address, value)
            for offset, address, value, is_write, is_sync in self.rows
            if not is_write and not is_sync
        }

    @cached_property
    def writes(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
        """The thread steps of the region's writes, and their
        ``(address, value)`` pairs, in program order."""
        start = self.region.start_step
        written = [row for row in self.rows if row[3]]
        return (
            tuple(start + row[0] for row in written),
            tuple((row[1], row[2]) for row in written),
        )

    @cached_property
    def executed(self) -> Tuple:
        """The static ids the region executed."""
        return tuple(self.replay.static_ids[self.region.start_step : self.region.end_step])

    @cached_property
    def end_state(self) -> Optional[Tuple[Tuple[int, ...], int]]:
        """``(registers, end pc)`` of the recorded region; ``None`` when
        the recording is not provably complete."""
        region, replay = self.region, self.replay
        start, end = region.start_step, region.end_step
        if region.end_kind == "thread_end":
            thread_end = self.ordered.log.threads[region.thread_name].end
            if thread_end is None or thread_end.reason == "fault":
                # The recording stopped mid-instruction: the replay would
                # run past the recorded envelope.  Fall back to the VP.
                return None
            end_pc = (
                replay.pcs[end - 1]  # halt: the VP stops *on* the halt
                if thread_end.reason == "halt" and end - 1 >= start
                else replay.final_pc
            )
            return (replay.final_registers, end_pc)
        try:
            return (replay.region_end_registers[end], replay.region_end_pcs[end])
        except KeyError:
            return None


class RaceClassifier:
    """Classifies race instances found in one replayed execution."""

    def __init__(
        self,
        ordered: OrderedReplay,
        config: Optional[ClassifierConfig] = None,
        execution_id: str = "",
    ):
        self.ordered = ordered
        self.program: Program = ordered.program
        self.log: ReplayLog = ordered.log
        self.config = config or ClassifierConfig()
        self.execution_id = execution_id
        #: Perf counters read by analysis.perf / the engine.
        self.vp_runs = 0
        self.originals_synthesized = 0
        self.prefixes_fast_forwarded = 0
        #: (tid, region index) -> the region's classify inputs.
        self._regions: Dict[Tuple[int, int], _Region] = {}
        #: (tid, region index, racing step) -> that side's thread spec.
        self._sides: Dict[Tuple[int, int, int], VPThreadSpec] = {}

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def classify_instance(self, instance: RaceInstance) -> ClassifiedInstance:
        """Run the both-orders replay analysis on one race instance."""
        instance = self._canonicalize(instance)
        live_in, freed = self.ordered.pair_snapshot(
            instance.region_a, instance.region_b
        )
        return self._classify_with_state(instance, live_in, freed)

    def classify_all(self, instances: List[RaceInstance]) -> List[ClassifiedInstance]:
        """Classify every instance (the paper's full §5 analysis pass)."""
        return [self.classify_instance(instance) for instance in instances]

    def collect_perf(self, stats) -> None:
        """Fold this classifier's counters into a :class:`PerfStats`.

        Subclasses with extra counters (the engine's batching classifier)
        extend this, so the pipeline harvests uniformly.
        """
        stats.vp_runs += self.vp_runs
        stats.originals_synthesized += self.originals_synthesized
        stats.prefixes_fast_forwarded += self.prefixes_fast_forwarded

    def replay_pair(
        self, instance: RaceInstance
    ) -> Tuple[VPOutcome, VPOutcome]:
        """Run and *return* both replays (for reports/debugging).

        Unlike :meth:`classify_instance`, replay failures propagate to the
        caller as :class:`ReplayFailure`.
        """
        instance = self._canonicalize(instance)
        live_in, freed = self.ordered.pair_snapshot(
            instance.region_a, instance.region_b
        )
        spec_a = self._thread_spec(instance.access_a, instance.region_a)
        spec_b = self._thread_spec(instance.access_b, instance.region_b)
        processor = VirtualProcessor(
            self.program, live_in, freed, spec_a, spec_b, self.config.vp_config()
        )
        original_first = self._original_first(instance)
        alternative_first = (
            instance.access_b.thread_name
            if original_first == instance.access_a.thread_name
            else instance.access_a.thread_name
        )
        return (
            processor.run(first=original_first, follow_log=True),
            processor.run(first=alternative_first),
        )

    # ------------------------------------------------------------------
    # The per-instance analysis, with an injectable live-in state (the
    # engine's batching classifier wraps this entry point).
    # ------------------------------------------------------------------

    def batch_processor(
        self,
        instance: RaceInstance,
        live_in: Dict[int, int],
        freed: Dict[int, int],
    ) -> VirtualProcessor:
        """A processor for ``instance``, reusable across a batch.

        The engine's batched classifier builds one per batch (from the
        first member that actually replays) and rebinds it for fallback
        members — the specs, and the seeded prefix image derived from
        them, are a function of the batch's structural key, not of the
        member.
        """
        spec_a = self._thread_spec(instance.access_a, instance.region_a)
        spec_b = self._thread_spec(instance.access_b, instance.region_b)
        return VirtualProcessor(
            self.program, live_in, freed, spec_a, spec_b, self.config.vp_config()
        )

    def _classify_with_state(
        self,
        instance: RaceInstance,
        live_in: Dict[int, int],
        freed: Dict[int, int],
        processor: Optional[VirtualProcessor] = None,
    ) -> ClassifiedInstance:
        if processor is None:
            processor = self.batch_processor(instance, live_in, freed)
        spec_a, spec_b = processor.spec_a, processor.spec_b
        if spec_a.racing_registers is not None and spec_b.racing_registers is not None:
            self.prefixes_fast_forwarded += 1
        original_first = self._original_first(instance)
        alternative_first = (
            instance.access_b.thread_name
            if original_first == instance.access_a.thread_name
            else instance.access_a.thread_name
        )
        pre_value = live_in.get(instance.address, 0)

        try:
            # The original-order replay follows the log throughout — it is
            # the recording, reproduced exactly.  When the recording of
            # both regions is complete, its live-out is assembled from the
            # per-thread replays; otherwise (fault-truncated recording,
            # over-limit region) it is re-executed as in the paper.  The
            # alternative replay follows the log up to the racing pair,
            # flips the pair, and runs live from there.
            original = None
            if self.config.reuse_recorded_original:
                original = self._synthesized_original(instance, original_first)
            if original is None:
                original = processor.run(first=original_first, follow_log=True)
                self.vp_runs += 1
            else:
                self.originals_synthesized += 1
            alternative = processor.run(first=alternative_first)
            self.vp_runs += 1
            identical = same_state(original, alternative, live_in)
        except ReplayFailure as failure:
            return ClassifiedInstance(
                instance=instance,
                outcome=InstanceOutcome.REPLAY_FAILURE,
                original_first=original_first,
                pre_value=pre_value,
                failure_kind=failure.kind,
                failure_detail=failure.detail,
                execution_id=self.execution_id,
            )
        return ClassifiedInstance(
            instance=instance,
            outcome=(
                InstanceOutcome.NO_STATE_CHANGE
                if identical
                else InstanceOutcome.STATE_CHANGE
            ),
            original_first=original_first,
            pre_value=pre_value,
            original_replay=original if self.config.store_replay_outcomes else None,
            alternative_replay=(
                alternative if self.config.store_replay_outcomes else None
            ),
            execution_id=self.execution_id,
        )

    # ------------------------------------------------------------------
    # Recorded-original synthesis.
    # ------------------------------------------------------------------

    def _recorded_side(
        self, access: RaceAccess, region: SequencingRegion
    ) -> Optional[_RecordedSide]:
        """The recorded live-out of one racing region, or ``None`` when the
        original-order replay is not provably the recording (see
        :meth:`_synthesized_original`).

        The per-instance work is two bisects: the region's end state,
        write list and executed static ids are shared by every instance in
        the region and built once.
        """
        start, end = region.start_step, region.end_step
        if end - start > self.config.step_limit:
            return None  # the interpreter would fail with STEP_LIMIT
        facts = self._region(region)
        if facts.end_state is None:
            return None
        registers, end_pc = facts.end_state
        write_steps, writes = facts.writes
        # One access per step, so the racing step matches at most one write.
        lo = bisect_left(write_steps, access.thread_step)
        hi = bisect_right(write_steps, access.thread_step)
        return _RecordedSide(
            name=access.thread_name,
            registers=registers,
            end_pc=end_pc,
            steps=end - start,
            executed=facts.executed,
            prefix_writes=writes[:lo],
            racing_write=writes[lo] if hi > lo else None,
            suffix_writes=writes[hi:],
            racing_value=access.value,
        )

    def _synthesized_original(
        self, instance: RaceInstance, original_first: str
    ) -> Optional[VPOutcome]:
        """Assemble the original-order replay's live-out from the recording.

        Sound because the original-order replay takes every load from the
        log: its per-thread trajectories are exactly the recorded ones, so
        registers, end pcs, executed instructions and racing values can be
        read off the thread replays, and its dirty memory is the recorded
        writes applied in the virtual processor's canonical phase order
        (prefix A, prefix B, racing pair in recorded order, suffix A,
        suffix B).  Returns ``None`` — fall back to actually running the
        replay — whenever that argument does not hold: a region whose
        recording was truncated by a fault, or one over the step limit.
        """
        side_a = self._recorded_side(instance.access_a, instance.region_a)
        if side_a is None:
            return None
        side_b = self._recorded_side(instance.access_b, instance.region_b)
        if side_b is None:
            return None
        dirty: Dict[int, int] = {}
        for side in (side_a, side_b):
            dirty.update(side.prefix_writes)
        racing_order = (
            (side_a, side_b)
            if original_first == instance.access_a.thread_name
            else (side_b, side_a)
        )
        for side in racing_order:
            if side.racing_write is not None:
                address, value = side.racing_write
                dirty[address] = value
        for side in (side_a, side_b):
            dirty.update(side.suffix_writes)
        return VPOutcome(
            registers={side_a.name: side_a.registers, side_b.name: side_b.registers},
            dirty_memory=dirty,
            end_pcs={side_a.name: side_a.end_pc, side_b.name: side_b.end_pc},
            steps={side_a.name: side_a.steps, side_b.name: side_b.steps},
            executed={
                side_a.name: list(side_a.executed),
                side_b.name: list(side_b.executed),
            },
            racing_values={
                side_a.name: side_a.racing_value,
                side_b.name: side_b.racing_value,
            },
        )

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _canonicalize(self, instance: RaceInstance) -> RaceInstance:
        """Normalise side order so the verdict cannot depend on it.

        The virtual processor's canonical schedule (prefix A, prefix B,
        pair, suffix A, suffix B) is tied to the side labelling; pinning
        side A to the earlier-opening region makes classification a pure
        function of the unordered racing pair.
        """
        if (instance.region_b.start_ts, instance.region_b.tid) < (
            instance.region_a.start_ts,
            instance.region_a.tid,
        ):
            return RaceInstance(
                access_a=instance.access_b,
                access_b=instance.access_a,
                region_a=instance.region_b,
                region_b=instance.region_a,
            )
        return instance

    def _earlier_region(self, instance: RaceInstance) -> SequencingRegion:
        if (instance.region_a.start_ts, instance.region_a.tid) <= (
            instance.region_b.start_ts,
            instance.region_b.tid,
        ):
            return instance.region_a
        return instance.region_b

    def _region(self, region: SequencingRegion) -> _Region:
        """The region's classify inputs, built on first use."""
        key = (region.tid, region.index)
        facts = self._regions.get(key)
        if facts is None:
            facts = _Region(self.ordered, region)
            self._regions[key] = facts
        return facts

    def _thread_spec(
        self, access: RaceAccess, region: SequencingRegion
    ) -> VPThreadSpec:
        """One racing side's spec, built once per (thread, region, racing
        step) and shared by every instance on that side (the processor
        only reads it)."""
        side = (region.tid, region.index, access.thread_step)
        spec = self._sides.get(side)
        if spec is not None:
            return spec
        facts = self._region(region)
        replay = facts.replay
        racing_registers = racing_pc = None
        prefix_accesses = prefix_static_ids = None
        if self.config.fast_forward_prefix:
            racing_registers = replay.registers_at_step.get(access.thread_step)
            if racing_registers is not None:
                racing_pc = replay.pcs[access.thread_step]
                prefix_accesses = tuple(
                    replay.accesses_in_steps(region.start_step, access.thread_step)
                )
                prefix_static_ids = tuple(
                    replay.static_ids[region.start_step : access.thread_step]
                )
        thread_log = self.log.threads[access.thread_name]
        spec = VPThreadSpec(
            thread_name=access.thread_name,
            block=self.program.blocks[thread_log.block],
            start_pc=facts.start_pc,
            registers=facts.registers,
            racing_step_offset=access.thread_step - region.start_step,
            racing_static_id=access.static_id,
            pc_footprint=thread_log.pc_footprint,
            recorded_loads=facts.recorded_loads,
            racing_registers=racing_registers,
            racing_pc=racing_pc,
            prefix_accesses=prefix_accesses,
            prefix_static_ids=prefix_static_ids,
        )
        self._sides[side] = spec
        return spec

    def _original_first(self, instance: RaceInstance) -> str:
        """Which racing operation came first in the recorded execution.

        Taken from the log's global order when it has one, and otherwise
        from the earlier-opening region.  The choice decides verdicts, not
        just labels: it picks which replay is the original.  On the paper
        suite's round 0 the instances split 524/406/100 (no state change /
        state change / replay failure) with the order and 547/384/99
        without it.  Deriving the order from the log's values instead is
        ROADMAP item 10.
        """
        positions = self.log.global_positions()
        if positions is not None:
            position_a = positions.get(
                (instance.access_a.tid, instance.access_a.thread_step)
            )
            position_b = positions.get(
                (instance.access_b.tid, instance.access_b.thread_step)
            )
        else:
            position_a = position_b = None
        if position_a is not None and position_b is not None:
            return (
                instance.access_a.thread_name
                if position_a < position_b
                else instance.access_b.thread_name
            )
        return self._earlier_region(instance).thread_name

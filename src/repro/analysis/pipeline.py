"""End-to-end analysis pipeline: record → replay → detect → classify.

One :func:`analyze_execution` call is the paper's full per-execution flow;
:func:`analyze_suite` runs a whole corpus and merges per-static-race
results across executions, attaching ground truth from the workloads.

The service-callable entry points — :func:`analyze_log` (replay → detect
→ classify for an already-recorded log, e.g. one uploaded over HTTP),
:func:`execution_report` and :func:`render_report` (the canonical
machine-readable race report and its canonical byte rendering) — are
reentrant and share no mutable module state, so the analysis service's
pool workers and the in-process CLI produce byte-identical reports from
the same inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..isa.program import Program
from ..race.aggregate import StaticRaceResult, aggregate_instances
from ..race.classifier import ClassifierConfig, RaceClassifier
from ..race.happens_before import HappensBeforeDetector
from ..race.heuristics import BenignCategory
from ..race.model import RaceInstance, StaticRaceKey
from ..race.outcomes import ClassifiedInstance
from ..record.log import ReplayLog
from ..record.recorder import record_run
from ..replay.ordered_replay import OrderedReplay
from ..vm.machine import MachineResult
from ..vm.scheduler import RandomScheduler
from ..workloads.base import GroundTruth, RaceExpectation, Workload
from ..workloads.suite import Execution
from .perf import PerfStats


class _VerdictIndexField:
    """The ``verdict_index`` field of :class:`ExecutionAnalysis`.

    A dataclass field whose default is a descriptor: ``__init__`` and
    assignment store a dict, :meth:`ExecutionAnalysis.defer_verdict_index`
    stores an export to run instead, and the first read runs it and keeps
    the dict it returns.
    """

    def __get__(self, analysis, owner=None) -> Optional[Dict]:
        if analysis is None:
            return None  # the field's default
        state = analysis.__dict__
        export = state.pop("_verdict_export", None)
        if export is not None:
            state["_verdict_index"] = export()
        return state.get("_verdict_index")

    def __set__(self, analysis, index: Optional[Dict]) -> None:
        analysis.__dict__.pop("_verdict_export", None)
        analysis.__dict__["_verdict_index"] = index


@dataclass
class ExecutionAnalysis:
    """Everything produced by analysing one recorded execution.

    ``machine_result`` is ``None`` when the analysis started from a bare
    log (:func:`analyze_log`) rather than a live recording.
    """

    execution_id: str
    workload: Workload
    machine_result: Optional[MachineResult]
    log: ReplayLog
    ordered: OrderedReplay
    instances: List[RaceInstance]
    classified: List[ClassifiedInstance]
    #: Stage timings/work counters, when the caller asked for them.
    perf: Optional[PerfStats] = None
    #: Portable verdict index (:meth:`VerdictCache.export_portable`) of
    #: the engine cache for this program as it stood when this analysis
    #: finished — the `prior=` input of an incremental re-analysis.  The
    #: engine keeps only a snapshot mark and materialises the index on the
    #: first read.  ``None`` outside the memoizing engine.
    verdict_index: Optional[Dict] = _VerdictIndexField()

    def defer_verdict_index(self, export: Callable[[], Dict]) -> None:
        """Let the first read of :attr:`verdict_index` call ``export``."""
        self.__dict__["_verdict_export"] = export

    @property
    def program(self) -> Program:
        return self.ordered.program

    @property
    def instance_count(self) -> int:
        return len(self.instances)


@dataclass
class SuiteAnalysis:
    """Merged analysis of a whole corpus of executions."""

    executions: List[ExecutionAnalysis]
    results: Dict[StaticRaceKey, StaticRaceResult]
    #: Ground truth per unique race (None when no expectation covers it).
    truths: Dict[StaticRaceKey, Optional[GroundTruth]]
    #: Ground-truth benign category per unique race.
    categories: Dict[StaticRaceKey, Optional[BenignCategory]]
    #: The workload each unique race was observed in.
    workloads: Dict[StaticRaceKey, Workload]

    @property
    def total_instances(self) -> int:
        return sum(analysis.instance_count for analysis in self.executions)

    @property
    def unique_race_count(self) -> int:
        return len(self.results)

    def program_for(self, key: StaticRaceKey) -> Program:
        return self.workloads[key].program()


def analyze_execution(
    execution: Execution,
    classifier_config: Optional[ClassifierConfig] = None,
    max_pairs_per_location: Optional[int] = 256,
    max_steps: int = 200_000,
    capture_global_order: bool = True,
    classifier_factory=None,
    perf: Optional[PerfStats] = None,
    cache=None,
) -> ExecutionAnalysis:
    """Record and fully analyse one execution of a workload.

    ``classifier_factory(ordered, classifier_config, execution_id)`` lets
    the classification engine substitute its batching classifier;
    ``perf`` accumulates per-stage wall time and work counters;
    ``cache`` (a :class:`repro.analysis.cache.SuiteCache`)
    serves the record stage by content address when the same execution
    was recorded before.
    """
    workload = execution.workload
    program = workload.program()
    stats = perf if perf is not None else PerfStats()
    with stats.stage("record"):
        machine_result = None
        if cache is not None:
            from .cache import execution_cache_key

            cache_key = execution_cache_key(execution, max_steps, capture_global_order)
            cached = cache.load(cache_key)
            if cached is not None:
                machine_result, log = cached
                stats.record_cache_hits += 1
        if machine_result is None:
            scheduler = RandomScheduler(
                seed=execution.seed, switch_probability=execution.switch_probability
            )
            machine_result, log = record_run(
                program,
                scheduler=scheduler,
                seed=execution.seed,
                max_steps=max_steps,
                capture_global_order=capture_global_order,
            )
            if cache is not None:
                stats.record_cache_misses += 1
                cache.store(cache_key, machine_result, log)
        stats.record_steps += log.total_instructions
        if log.captured is not None:
            stats.record_events += log.captured.total_events
            stats.record_predicted_loads += log.captured.predicted_loads
    return _analyze_recording(
        workload,
        program,
        log,
        execution.execution_id,
        machine_result,
        classifier_config=classifier_config,
        max_pairs_per_location=max_pairs_per_location,
        classifier_factory=classifier_factory,
        perf=perf,
    )


def _analyze_recording(
    workload: Workload,
    program: Program,
    log: ReplayLog,
    execution_id: str,
    machine_result: Optional[MachineResult],
    *,
    classifier_config: Optional[ClassifierConfig],
    max_pairs_per_location: Optional[int],
    classifier_factory,
    perf: Optional[PerfStats],
) -> ExecutionAnalysis:
    """replay → detect → classify of one recording, shared by
    :func:`analyze_execution` and :func:`analyze_log`."""
    stats = perf if perf is not None else PerfStats()
    with stats.stage("replay"):
        ordered = OrderedReplay(log, program, perf=stats)
    with stats.stage("detect"):
        instances = HappensBeforeDetector(
            ordered, max_pairs_per_location=max_pairs_per_location, perf=stats
        ).detect()
    if classifier_factory is None:
        classifier = RaceClassifier(
            ordered, config=classifier_config, execution_id=execution_id
        )
    else:
        classifier = classifier_factory(ordered, classifier_config, execution_id)
    with stats.stage("classify"):
        classified = classifier.classify_all(instances)
    stats.executions += 1
    stats.instances += len(instances)
    classifier.collect_perf(stats)
    return ExecutionAnalysis(
        execution_id=execution_id,
        workload=workload,
        machine_result=machine_result,
        log=log,
        ordered=ordered,
        instances=instances,
        classified=classified,
        perf=perf,
    )


def default_execution_id(log: ReplayLog) -> str:
    """The canonical execution id for a bare log: ``<program>#s<seed>``.

    Matches the id :func:`repro.workloads.suite.paper_suite` assigns to
    live executions, so a suite recording saved to disk and analysed
    through :func:`analyze_log` reports under the same id (and hence
    byte-identically) as the in-process :func:`analyze_execution` path.
    """
    return "%s#s%d" % (log.program_name, log.seed)


def analyze_log(
    log: ReplayLog,
    execution_id: Optional[str] = None,
    classifier_config: Optional[ClassifierConfig] = None,
    max_pairs_per_location: Optional[int] = 256,
    classifier_factory=None,
    perf: Optional[PerfStats] = None,
) -> ExecutionAnalysis:
    """Fully analyse an already-recorded log: replay → detect → classify.

    The record stage is skipped (the log *is* the recording); everything
    downstream — ordered replay, happens-before detection, both-orders
    classification — is identical to :func:`analyze_execution`, so the
    resulting report is too.  The workload is synthesized from the log's
    embedded program source (logs are self-contained), which means no
    ground-truth expectations attach — exactly right for logs uploaded
    to the analysis service from outside the labelled corpus.
    """
    workload = Workload(
        name=log.program_name,
        source=log.program_source,
        description="recorded log (analysed via analyze_log)",
    )
    if execution_id is None:
        execution_id = default_execution_id(log)
    return _analyze_recording(
        workload,
        workload.program(),
        log,
        execution_id,
        None,
        classifier_config=classifier_config,
        max_pairs_per_location=max_pairs_per_location,
        classifier_factory=classifier_factory,
        perf=perf,
    )


def analyze_log_stream(
    source,
    execution_id: Optional[str] = None,
    classifier_config: Optional[ClassifierConfig] = None,
    max_pairs_per_location: Optional[int] = 256,
    classifier_factory=None,
    perf: Optional[PerfStats] = None,
    log: Optional[ReplayLog] = None,
) -> ExecutionAnalysis:
    """Analyse a recorded log with streaming detection and eager,
    per-window classification.

    ``source`` is the bytes of a segmented (v4, v5) container with
    captured columns, streamed segment by segment; any other input
    raises :class:`~repro.replay.log_view.LogViewUnavailable`.  ``log``
    optionally supplies the already-decoded log when the caller holds
    it, so the container isn't decoded twice.

    Detection runs through the segment cursor and the incremental sweep,
    and every sealed window whose races are final is classified
    immediately — the first verdicts land while later segments are still
    being decoded, instead of after the whole log has been swept.  The
    classifier itself still replays against the full
    :class:`OrderedReplay` (the both-orders virtual processor needs
    machine state), and verdicts are order-independent, so the final
    report is byte-identical to :func:`analyze_log`'s — the equivalence
    suite asserts it.  ``perf`` picks up ``stream_first_verdict_s`` (wall
    seconds from analysis start to the first verdict) plus the segment
    and window counters.
    """
    import time as _time

    started = _time.perf_counter()
    stats = perf if perf is not None else PerfStats()
    view, detector = _streaming_detector(source, max_pairs_per_location, stats)
    if log is None:
        from ..record.serialization import load_log_bytes

        log = load_log_bytes(bytes(source))
    workload = Workload(
        name=log.program_name,
        source=log.program_source,
        description="recorded log (analysed via analyze_log_stream)",
    )
    if execution_id is None:
        execution_id = default_execution_id(log)
    program = workload.program()
    with stats.stage("replay"):
        ordered = OrderedReplay(log, program, perf=stats)
    if classifier_factory is None:
        classifier = RaceClassifier(
            ordered, config=classifier_config, execution_id=execution_id
        )
    else:
        classifier = classifier_factory(ordered, classifier_config, execution_id)
    #: Eagerly classified verdicts, keyed by detector instance identity;
    #: reassembled into canonical order once the sweep finishes.
    verdicts: Dict[int, ClassifiedInstance] = {}
    first_verdict_s: Optional[float] = None
    for window in view.stream_windows():
        fresh: List[RaceInstance] = []
        with stats.stage("detect"):
            for region, rows in window:
                fresh.extend(detector.add_region(region, rows))
        if not fresh:
            continue
        with stats.stage("classify"):
            chunk = classifier.classify_all(fresh)
        for instance, entry in zip(fresh, chunk):
            verdicts[id(instance)] = entry
        if first_verdict_s is None:
            first_verdict_s = _time.perf_counter() - started
        stats.stream_windows += 1
    with stats.stage("detect"):
        instances = detector.finish()
    classified = [verdicts[id(instance)] for instance in instances]
    stats.executions += 1
    stats.instances += len(instances)
    stats.stream_jobs += 1
    stats.stream_segments += view.segments_fed
    if first_verdict_s is not None:
        stats.stream_first_verdict_s += first_verdict_s
    classifier.collect_perf(stats)
    return ExecutionAnalysis(
        execution_id=execution_id,
        workload=workload,
        machine_result=None,
        log=log,
        ordered=ordered,
        instances=instances,
        classified=classified,
        perf=perf,
    )


@dataclass
class DetectionAnalysis:
    """Everything produced by a detect-only pass over one log.

    ``source`` is whatever object fed the detector — a zero-replay
    :class:`~repro.replay.log_view.LogView` (``path == "from-log"``) or a
    full :class:`OrderedReplay` (``path == "replay"``).  Both expose
    ``program`` (lazily assembled on the view), so race presentation
    works identically downstream.
    """

    execution_id: str
    program_name: str
    seed: int
    scheduler: str
    #: Which detect path ran: ``"from-log"``, ``"replay"``, ``"stream"``
    #: or ``"parallel"``.
    path: str
    source: object
    instances: List[RaceInstance]
    truncated_locations: int
    perf: Optional[PerfStats] = None

    @property
    def instance_count(self) -> int:
        return len(self.instances)


def detect_only(
    source,
    mode: str = "auto",
    execution_id: Optional[str] = None,
    max_pairs_per_location: Optional[int] = 256,
    perf: Optional[PerfStats] = None,
    jobs: int = 1,
) -> DetectionAnalysis:
    """Run only the detect stage of the funnel — no classification.

    ``source`` is RPRB container bytes, a decoded :class:`ReplayLog`, or
    a filesystem path to a container (the parallel path's workers map the
    file; every other path reads it into bytes).  The input picks the
    path (``mode="auto"``, the only choice the CLI and service make):

    * a segmented (v4, v5) container with captured columns and ``jobs > 1``
      — ``"parallel"``: the segments partition across ``jobs`` worker
      processes, each mmap-reading only its own range;
    * such a container with ``jobs == 1`` — ``"stream"``: regions sweep
      through the incremental detector as segments decode, with resident
      state bounded by the active window;
    * any other log with captured columns — ``"from-log"``: the
      zero-replay :class:`LogView`;
    * anything else (v1/v2, captureless, JSON without capture) —
      ``"replay"``: the :class:`OrderedReplay` path.

    Naming a ``mode`` forces that path.  The pipeline benchmark does so
    to gate each path against the ``"replay"`` oracle; a forced
    ``"from-log"`` raises
    :class:`~repro.replay.log_view.LogViewUnavailable` on a log without
    captured columns, a forced ``"stream"`` raises it for anything but
    a segmented container with captured columns, and a forced
    ``"parallel"`` raises :class:`ValueError` for that same input.

    Race sets are byte-identical between all paths (the equivalence
    suite enforces it); they differ only in cost profile.
    """
    from ..replay.log_view import LogView, LogViewUnavailable

    if mode not in ("auto", "from-log", "replay", "stream", "parallel"):
        raise ValueError(
            "unknown detect mode %r (expected auto, from-log, replay, "
            "stream or parallel)" % mode
        )
    if jobs < 1:
        raise ValueError("detect jobs must be >= 1 (got %d)" % jobs)
    path_source: Optional[str] = None
    if isinstance(source, (str, os.PathLike)):
        path_source = os.fspath(source)
    if mode == "parallel" or (
        mode == "auto" and jobs > 1 and is_streamable_container(source)
    ):
        return _detect_parallel(
            source,
            path_source,
            execution_id=execution_id,
            max_pairs_per_location=max_pairs_per_location,
            perf=perf,
            jobs=jobs,
        )
    if path_source is not None:
        with open(path_source, "rb") as handle:
            source = handle.read()
    if mode == "stream" or (mode == "auto" and is_streamable_container(source)):
        return _detect_streaming(
            source,
            execution_id=execution_id,
            max_pairs_per_location=max_pairs_per_location,
            perf=perf,
        )
    stats = perf if perf is not None else PerfStats()
    detect_source = None
    path = "replay"
    if mode in ("auto", "from-log"):
        try:
            with stats.stage("detect.view"):
                if isinstance(source, (bytes, bytearray, memoryview)):
                    detect_source = LogView.from_bytes(bytes(source), perf=stats)
                else:
                    detect_source = LogView.from_log(source, perf=stats)
            path = "from-log"
        except LogViewUnavailable:
            if mode == "from-log":
                raise
    if detect_source is None:
        if isinstance(source, (bytes, bytearray, memoryview)):
            from ..record.serialization import load_log_bytes

            log = load_log_bytes(bytes(source))
        else:
            log = source
        with stats.stage("replay"):
            detect_source = OrderedReplay(log, perf=stats)
    with stats.stage("detect"):
        detector = HappensBeforeDetector(
            detect_source,
            max_pairs_per_location=max_pairs_per_location,
            perf=stats,
        )
        instances = detector.detect()
    stats.executions += 1
    stats.instances += len(instances)
    program_name = (
        detect_source.program_name
        if path == "from-log"
        else detect_source.log.program_name
    )
    seed = detect_source.seed if path == "from-log" else detect_source.log.seed
    scheduler = (
        detect_source.scheduler
        if path == "from-log"
        else detect_source.log.scheduler
    )
    if execution_id is None:
        execution_id = "%s#s%d" % (program_name, seed)
    return DetectionAnalysis(
        execution_id=execution_id,
        program_name=program_name,
        seed=seed,
        scheduler=scheduler,
        path=path,
        source=detect_source,
        instances=instances,
        truncated_locations=detector.truncated_locations,
        perf=perf,
    )


def _detect_streaming(
    source,
    execution_id: Optional[str],
    max_pairs_per_location: Optional[int],
    perf: Optional[PerfStats],
) -> DetectionAnalysis:
    """The ``mode="stream"`` body of :func:`detect_only`.

    Drives the segment cursor into the incremental sweep; the final race
    set is byte-identical to the batch paths, but peak resident state is
    the active window and instances existed incrementally along the way
    (``detect_only`` callers just see the end result — the eager
    classification engine consumes the increments).
    """
    stats = perf if perf is not None else PerfStats()
    view, detector = _streaming_detector(source, max_pairs_per_location, stats)
    with stats.stage("detect"):
        for window in view.stream_windows():
            for region, rows in window:
                detector.add_region(region, rows)
        instances = detector.finish()
    stats.executions += 1
    stats.instances += len(instances)
    stats.stream_segments += view.segments_fed
    if execution_id is None:
        execution_id = "%s#s%d" % (view.program_name, view.seed)
    return DetectionAnalysis(
        execution_id=execution_id,
        program_name=view.program_name,
        seed=view.seed,
        scheduler=view.scheduler,
        path="stream",
        source=view,
        instances=instances,
        truncated_locations=detector.truncated_locations,
        perf=perf,
    )


def _streaming_detector(source, max_pairs_per_location, stats):
    """A :class:`~repro.replay.log_view.StreamingLogView` over segmented
    container bytes and the streaming detector whose window stands in
    for its access index."""
    from ..race.happens_before import StreamingHappensBeforeDetector
    from ..replay.log_view import StreamingLogView

    with stats.stage("detect.view"):
        view = StreamingLogView.from_bytes(source, perf=stats)
    detector = StreamingHappensBeforeDetector(
        max_pairs_per_location=max_pairs_per_location, perf=stats
    )
    view.attach_window(detector.window)
    return view, detector


class ParallelLogView:
    """Identity and stats carrier for the parallel detect path.

    Shaped like the slice of :class:`~repro.replay.log_view.LogView`
    the detect-only surface reads — the header identity fields, a
    lazily assembled ``program``, and ``access_index().stats()`` — but
    holding only the merged per-worker aggregates.  The parent process
    deliberately never decodes a region or an access row (the workers
    own those), so there is no real index to hand back.
    """

    __slots__ = (
        "program_name",
        "program_source",
        "seed",
        "scheduler",
        "thread_blocks",
        "_stats",
        "_program",
    )

    def __init__(self, header, stats: Dict[str, int], thread_blocks: Dict[str, str]):
        self.program_name = header.program_name
        self.program_source = header.program_source
        self.seed = header.seed
        self.scheduler = header.scheduler
        self.thread_blocks = dict(thread_blocks)
        self._stats = dict(stats)
        self._program = None

    @property
    def program(self):
        """The embedded program, paired with every thread block the
        workers' segments name."""
        if self._program is None:
            from ..isa import assemble
            from ..replay.errors import thread_block

            program = assemble(self.program_source, name=self.program_name)
            for name, block in self.thread_blocks.items():
                thread_block(program, name, block)
            self._program = program
        return self._program

    def access_index(self) -> "ParallelLogView":
        return self

    def stats(self) -> Dict[str, int]:
        return dict(self._stats)


def is_streamable_container(source) -> bool:
    """True for a segmented (v4, v5) container with captured columns, as bytes
    or a file path (only its header frame is read): the input that
    :func:`detect_only` and ``repro analyze`` stream segment by segment,
    and that ``detect_only`` fans out when ``jobs > 1``."""
    from ..record.binary_format import (
        MAGIC,
        MappedSegmentedReader,
        is_segmented_log,
        read_segmented_header,
    )

    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as handle:
            if not is_segmented_log(handle.read(len(MAGIC) + 1)):
                return False
        with MappedSegmentedReader(source) as reader:
            return reader.header.has_captured
    if not isinstance(source, (bytes, bytearray, memoryview)):
        return False
    if not is_segmented_log(bytes(memoryview(source)[: len(MAGIC) + 1])):
        return False
    return read_segmented_header(bytes(source)).has_captured


def _detect_parallel(
    source,
    path: Optional[str],
    execution_id: Optional[str],
    max_pairs_per_location: Optional[int],
    perf: Optional[PerfStats],
    jobs: int,
) -> DetectionAnalysis:
    """The ``mode="parallel"`` body of :func:`detect_only`.

    Fans the container's segments across ``jobs`` partition workers
    (:func:`repro.race.happens_before.parallel_detect_races`).  The
    parent maps the file and decodes only the header and the footer
    index — never the log bytes.  Byte sources are spooled to a
    temporary file first so workers can share the mapping, then the
    spool is removed.
    """
    from ..race.happens_before import parallel_detect_races
    from ..record.binary_format import is_segmented_log

    stats = perf if perf is not None else PerfStats()
    temp_path: Optional[str] = None
    try:
        if path is None:
            if not isinstance(source, (bytes, bytearray, memoryview)):
                raise ValueError(
                    "parallel detection reads a segmented container "
                    "(bytes or a file path), not %s" % type(source).__name__
                )
            data = bytes(source)
            if not is_segmented_log(data):
                raise ValueError(
                    "parallel detection requires a segmented container "
                    "(record with --segment-bytes, or use another mode)"
                )
            import tempfile

            handle = tempfile.NamedTemporaryFile(
                prefix="repro-detect-", suffix=".rprb", delete=False
            )
            try:
                handle.write(data)
            finally:
                handle.close()
            temp_path = path = handle.name
            del data
        with stats.stage("detect"):
            outcome = parallel_detect_races(
                path,
                jobs,
                max_pairs_per_location=max_pairs_per_location,
                perf=stats,
            )
    finally:
        if temp_path is not None:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
    stats.executions += 1
    stats.instances += len(outcome.instances)
    if jobs > stats.jobs:
        stats.jobs = jobs
    view = ParallelLogView(outcome.header, outcome.stats, outcome.thread_blocks)
    if execution_id is None:
        execution_id = "%s#s%d" % (view.program_name, view.seed)
    return DetectionAnalysis(
        execution_id=execution_id,
        program_name=view.program_name,
        seed=view.seed,
        scheduler=view.scheduler,
        path="parallel",
        source=view,
        instances=outcome.instances,
        truncated_locations=outcome.truncated_locations,
        perf=perf,
    )


def detection_report(analysis: DetectionAnalysis) -> Dict:
    """The canonical machine-readable document of a detect-only pass.

    A deterministic function of the detected race set alone — the
    ``path`` that produced it is deliberately **excluded**, so the
    equivalence tests can diff the rendered bytes of a from-log pass
    against a replay pass and "byte-identical race sets" is literal.
    Every instance is listed (canonical detector order), not just
    exemplars: detect-only output feeds triage queues that need the full
    set.
    """
    per_key: Dict[str, int] = {}
    for instance in analysis.instances:
        text = "%s|%s" % instance.static_key
        per_key[text] = per_key.get(text, 0) + 1
    return {
        "detect_version": 1,
        "program": analysis.program_name,
        "execution": analysis.execution_id,
        "recording": {"seed": analysis.seed, "scheduler": analysis.scheduler},
        "summary": {
            "instances": analysis.instance_count,
            "unique_races": len(per_key),
            "truncated_locations": analysis.truncated_locations,
        },
        "unique_races": [
            {"race": text, "instances": count}
            for text, count in sorted(per_key.items())
        ],
        "instances": [
            {
                "address": instance.address,
                "access_a": str(instance.access_a),
                "access_b": str(instance.access_b),
                "region_a": str(instance.region_a),
                "region_b": str(instance.region_b),
            }
            for instance in analysis.instances
        ],
    }


def execution_report(analysis: ExecutionAnalysis) -> Dict:
    """The canonical machine-readable race report of one analysis.

    A deterministic function of the analysis alone (races sorted by key,
    no timestamps), built on :func:`repro.race.exporter.results_to_json`
    — the same schema ``repro classify --json`` writes.  The analysis
    service serves exactly this document per job, and the end-to-end
    tests assert its :func:`render_report` bytes match the in-process
    path's.
    """
    results = aggregate_instances(analysis.classified)
    from ..race.exporter import results_to_json
    from .batching import instance_batch_key

    return results_to_json(
        results,
        analysis.program,
        log=analysis.log,
        # Batch keys are derived from the recording alone (region contents
        # via the ordered replay), never from which classifier ran — so
        # batched and plain reports stay byte-identical.
        batch_key_for=lambda entry: instance_batch_key(
            analysis.ordered, entry.instance
        ),
    )


def render_report(document: Dict) -> bytes:
    """Canonical byte rendering of a report document.

    Sorted keys, two-space indent, trailing newline, UTF-8: every
    producer (service worker, CLI, tests) renders through here so
    "byte-identical reports" is a meaningful equality.
    """
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _ground_truth_for(
    result: StaticRaceResult, workload: Workload
) -> Tuple[Optional[GroundTruth], Optional[BenignCategory]]:
    expectation: Optional[RaceExpectation] = None
    for entry in result.instances:
        expectation = workload.expectation_for_address(entry.instance.address)
        if expectation is not None:
            break
    if expectation is None:
        return None, None
    return expectation.truth, expectation.category


def analyze_suite(
    executions: Sequence[Execution],
    classifier_config: Optional[ClassifierConfig] = None,
    max_pairs_per_location: Optional[int] = 256,
    memoize: bool = False,
    perf: Optional[PerfStats] = None,
    cache_dir=None,
) -> SuiteAnalysis:
    """Analyse a corpus and merge per-static-race results across executions.

    The executions run in order through
    :class:`repro.analysis.engine.ClassificationEngine`.  ``memoize``
    classifies through the batching classifier and its verdict cache; the
    default classifies with the plain :class:`RaceClassifier`.  Neither
    changes a verdict (the engine equivalence tests assert identical
    results).
    ``cache_dir`` enables the content-addressed record cache
    (:mod:`repro.analysis.cache`), letting repeated runs skip record for
    unchanged workloads — again with no effect on any result.
    """
    from .engine import ClassificationEngine, EngineConfig

    engine = ClassificationEngine(
        EngineConfig(
            memoize=memoize,
            classifier_config=classifier_config,
            max_pairs_per_location=max_pairs_per_location,
            cache_dir=str(cache_dir) if cache_dir is not None else None,
        )
    )
    analyses = engine.analyze_executions(list(executions), perf=perf)
    merged: Dict[StaticRaceKey, StaticRaceResult] = {}
    race_workloads: Dict[StaticRaceKey, Workload] = {}
    for analysis in analyses:
        aggregate_instances(analysis.classified, into=merged)
        for entry in analysis.classified:
            race_workloads.setdefault(entry.instance.static_key, analysis.workload)

    truths: Dict[StaticRaceKey, Optional[GroundTruth]] = {}
    categories: Dict[StaticRaceKey, Optional[BenignCategory]] = {}
    for key, result in merged.items():
        truth, category = _ground_truth_for(result, race_workloads[key])
        truths[key] = truth
        categories[key] = category
    return SuiteAnalysis(
        executions=analyses,
        results=merged,
        truths=truths,
        categories=categories,
        workloads=race_workloads,
    )
